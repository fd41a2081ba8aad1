"""Integer-matrix action on H_1(N_g; R) and related exact arithmetic.

H_1(N_g; R) has dimension g-1: the crosscap core classes c_1..c_g satisfy
c_1 + ... + c_g = 0 over the reals, and we eliminate c_g.  The induced
matrix of a mapping class has determinant +1 exactly when the class lies
in the twist subgroup (determinant criterion, taken as an oracle).

The same module builds the rotation matrix of the symmetric models E_g
(connected sums of p genus-k nonorientable and q genus-(k-1) orientable
pieces, plus an optional fixed crosscap), whose determinant is (-1)^p for
even k, and the genus-decomposition arithmetic g = pk + 2q(k-1) (+1).

All arithmetic is exact over Python integers; determinants use
fraction-free (Bareiss) elimination.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DeterminantOutOfRange, InvariantViolation, OutOfRange
from .words import get_presentation

# ---------------------------------------------------------------------------
# Plain integer matrices (tuples of tuples)


def matrix_identity(n: int):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def matrix_mul(a, b):
    n = len(a)
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def matrix_power(a, k: int):
    n = len(a)
    result = matrix_identity(n)
    base = a
    while k:
        if k & 1:
            result = matrix_mul(result, base)
        base = matrix_mul(base, base)
        k >>= 1
    return result


def determinant(matrix) -> int:
    """Exact determinant by fraction-free Bareiss elimination."""
    a = [list(row) for row in matrix]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k]:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


# ---------------------------------------------------------------------------
# The homology action of a mapping class


@dataclass(frozen=True)
class HomologyMatrix:
    """(g-1)x(g-1) integer matrix in the basis c_1..c_{g-1}."""

    genus: int
    entries: tuple

    def det(self) -> int:
        return determinant(self.entries)

    def __mul__(self, other: "HomologyMatrix") -> "HomologyMatrix":
        return HomologyMatrix(self.genus, matrix_mul(self.entries, other.entries))

    def power(self, k: int) -> "HomologyMatrix":
        return HomologyMatrix(self.genus, matrix_power(self.entries, k))

    def is_identity(self) -> bool:
        return self.entries == matrix_identity(self.genus - 1)


def abelianize(auto) -> HomologyMatrix:
    """Matrix of the induced map on H_1(N_g; R).

    Column i is the exponent vector of the image of x_i with c_g
    eliminated.  Functorial: abelianize(compose(a, b)) equals
    abelianize(a) * abelianize(b).
    """
    g = auto.genus
    pres = get_presentation(g)
    cols = [pres.abelianized(auto.images[j]) for j in range(g - 1)]
    entries = tuple(tuple(cols[j][i] for j in range(g - 1)) for i in range(g - 1))
    return HomologyMatrix(g, entries)


def in_twist_subgroup(matrix: HomologyMatrix) -> bool:
    """Determinant criterion: det = +1 iff the class is in the subgroup
    generated by Dehn twists."""
    d = matrix.det()
    if d not in (1, -1):
        raise DeterminantOutOfRange(f"determinant {d} is not +-1")
    return d == 1


# ---------------------------------------------------------------------------
# Rotation matrices of the symmetric models E_g


# least value of each rotation-model parameter
MODEL_LEAST = {"k": 2, "p": 1, "q": 0}


@dataclass(frozen=True)
class EgRotationSpec:
    """Parameters of the order-k rotation model: p nonorientable genus-k
    summands, q orientable genus-(k-1) summands, optionally one extra
    crosscap fixed by the rotation (odd total genus)."""

    k: int
    p: int
    q: int
    extra_crosscap: bool = False

    def __post_init__(self):
        for name, least in MODEL_LEAST.items():
            value = getattr(self, name)
            if value < least:
                raise ValueError(f"{name} must be at least {least}, got {value}")

    @property
    def genus(self) -> int:
        return self.p * self.k + 2 * self.q * (self.k - 1) + (1 if self.extra_crosscap else 0)


def build_eg_rotation(spec: EgRotationSpec):
    """Matrix of the order-k rotation of E_g on H_1(E_g; R).

    Basis, in order: per orientable summand a_1..a_{k-1}, b_1..b_{k-1};
    per nonorientable summand c_1..c_k, except that the last summand drops
    c_k (the sum of all one-sided classes, including the optional fixed
    crosscap class d, vanishes over R); finally d if present.

    The rotation acts by a_i -> a_{i+1} - a_1, a_{k-1} -> -a_1,
    b_i -> b_{i+1}, b_{k-1} -> -(b_1 + ... + b_{k-1}) on each orientable
    summand, cycles the c-classes of each nonorientable summand, and
    fixes d.
    """
    k, p, q = spec.k, spec.p, spec.q
    size = 2 * q * (k - 1) + p * k - 1 + (1 if spec.extra_crosscap else 0)
    index = {}
    pos = 0
    for s in range(q):
        for i in range(1, k):
            index[("a", s, i)] = pos
            pos += 1
        for i in range(1, k):
            index[("b", s, i)] = pos
            pos += 1
    for s in range(p):
        top = k if s < p - 1 else k - 1  # last summand drops c_k
        for i in range(1, top + 1):
            index[("c", s, i)] = pos
            pos += 1
    if spec.extra_crosscap:
        index[("d",)] = pos
        pos += 1
    if pos != size:
        raise InvariantViolation(f"rotation basis has {pos} classes, expected {size}")

    def dropped_c_expansion():
        # c_k of the last summand = -(all other one-sided classes)
        vec = [0] * size
        for s in range(p):
            top = k if s < p - 1 else k - 1
            for i in range(1, top + 1):
                vec[index[("c", s, i)]] -= 1
        if spec.extra_crosscap:
            vec[index[("d",)]] -= 1
        return vec

    columns = []
    for label, col in sorted(index.items(), key=lambda kv: kv[1]):
        vec = [0] * size
        if label[0] == "a":
            _, s, i = label
            if i <= k - 2:
                vec[index[("a", s, i + 1)]] += 1
            vec[index[("a", s, 1)]] -= 1
        elif label[0] == "b":
            _, s, i = label
            if i <= k - 2:
                vec[index[("b", s, i + 1)]] += 1
            else:
                for j in range(1, k):
                    vec[index[("b", s, j)]] -= 1
        elif label[0] == "c":
            _, s, i = label
            if s < p - 1:
                if i <= k - 1:
                    vec[index[("c", s, i + 1)]] += 1
                else:
                    vec[index[("c", s, 1)]] += 1
            else:
                if i <= k - 2:
                    vec[index[("c", s, i + 1)]] += 1
                else:
                    # c_{k-1} -> c_k, which was eliminated
                    vec = dropped_c_expansion()
        else:
            vec[index[("d",)]] += 1
        columns.append(vec)

    entries = tuple(tuple(columns[j][i] for j in range(size)) for i in range(size))
    return entries


def eg_matrix_power_identity(spec: EgRotationSpec) -> bool:
    """Necessary condition for order k: the rotation matrix has order
    dividing k on homology."""
    m = build_eg_rotation(spec)
    return matrix_power(m, spec.k) == matrix_identity(len(m))


# ---------------------------------------------------------------------------
# Genus decomposition arithmetic


@dataclass(frozen=True)
class GenusDecomposition:
    """g = p*k + 2*q*(k-1) + (1 if plus_one else 0) with p odd, q >= 0."""

    k: int
    g: int
    p: int
    q: int
    plus_one: bool
    n: int
    m: int
    r: int

    def reconstructs(self) -> bool:
        return self.p * self.k + 2 * self.q * (self.k - 1) + (1 if self.plus_one else 0) == self.g


def decompose_genus(g: int, k: int) -> GenusDecomposition:
    """Write g as pk + 2q(k-1) (+1 for odd g) with p odd and q >= 0.

    Sets n = (g-k)/2 (even g) or (g-k-1)/2 (odd g), m = floor(n/(k-1)),
    r = n - m(k-1), and returns p = 2r+1, q = m-r.  For every genus at or
    above 2(k-1)(k-2)+k (+1 for odd g) the result is guaranteed to exist;
    smaller genera are accepted whenever the arithmetic produces q >= 0,
    and OutOfRange is raised otherwise.
    """
    if k < 12 or k % 2:
        raise ValueError("k must be an even integer >= 12")
    plus_one = bool(g % 2)  # k even makes pk + 2q(k-1) even
    n2 = g - k - (1 if plus_one else 0)
    if n2 < 0 or n2 % 2:
        raise OutOfRange(f"genus {g} below the k={k} decomposition range")
    n = n2 // 2
    m = n // (k - 1)
    r = n - m * (k - 1)
    p = 2 * r + 1
    q = m - r
    if q < 0:
        raise OutOfRange(
            f"genus {g} admits no decomposition with p odd for k={k}"
        )
    decomp = GenusDecomposition(k=k, g=g, p=p, q=q, plus_one=plus_one, n=n, m=m, r=r)
    if not decomp.reconstructs():
        raise InvariantViolation(f"decomposition of genus {g} for k={k} does not reconstruct")
    return decomp
