"""Integer-matrix action on H_1(N_g; R) and related exact arithmetic.

H_1(N_g; R) has dimension g-1: the crosscap core classes c_1..c_g satisfy
c_1 + ... + c_g = 0 over the reals, and we eliminate c_g.
:func:`abelianize` reads the induced matrix of a mapping class off its
packed image table, as a tuple of rows, and :func:`determinant` gives its
exact determinant.  That determinant
is +1 exactly when the class lies in the twist subgroup and -1 otherwise
(determinant criterion, taken as an oracle); a determinant claim compares
it with its expected sign, so any other value is a failed claim.

The same module builds the rotation matrix of the symmetric models E_g
(connected sums of p genus-k nonorientable and q genus-(k-1) orientable
pieces, plus an optional fixed crosscap), whose determinant is (-1)^p for
even k, and the genus-decomposition arithmetic g = pk + 2q(k-1) (+1).

All arithmetic is exact over Python integers; determinants use
fraction-free (Bareiss) elimination.  Periods push a dense vector through
the sparse columns of a matrix: :func:`vector_period` gives the least n
with M^n v = v, and :func:`matrix_order` is the lcm of the basis vectors'
periods.  ``mcg.order_of`` needs only the period of one probe vector:
it divides the order of M, so only its multiples that divide the stated
order are tested in pi_1.
"""

from __future__ import annotations

from collections import namedtuple
from math import lcm

from .errors import InvariantViolation
from .words import abelianized, unpack

# ---------------------------------------------------------------------------
# Plain integer matrices (tuples of tuples)


def matrix_identity(n: int):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def matrix_mul(a, b):
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def matrix_power(a, k: int):
    if k < 0:
        raise ValueError("k must be >= 0")
    n = len(a)
    result = matrix_identity(n)
    base = a
    while k:
        if k & 1:
            result = matrix_mul(result, base)
        base = matrix_mul(base, base)
        k >>= 1
    return result


def _sparse_columns(entries) -> list:
    n = len(entries)
    return [[(i, row[j]) for i, row in enumerate(entries) if row[j]] for j in range(n)]


def _period(columns, vector, limit: int):
    target = list(vector)
    current = target
    for power in range(1, limit + 1):
        image = [0] * len(columns)
        for c, column in zip(current, columns):
            if c:
                for i, m in column:
                    image[i] += c * m
        if image == target:
            return power
        current = image
    return None


def vector_period(entries, vector, limit: int):
    """Least n <= limit with entries^n vector equal to vector, or None.

    Pushes the dense vector through the sparse columns of the matrix, so
    each power costs the nonzeros of the columns the vector touches rather
    than a dense product.
    """
    return _period(_sparse_columns(entries), vector, limit)


def matrix_order(entries, limit: int):
    """Least n <= limit with entries^n equal to the identity, or None.

    entries^n is the identity exactly when it fixes every basis vector, so
    the order is the lcm of the basis vectors' periods.
    """
    columns = _sparse_columns(entries)
    order = 1
    for j in range(len(columns)):
        basis = [0] * len(columns)
        basis[j] = 1
        period = _period(columns, basis, limit)
        if period is None:
            return None
        order = lcm(order, period)
    return order if order <= limit else None


def determinant(matrix) -> int:
    """Exact determinant by fraction-free Bareiss elimination.

    A row whose pivot-column entry is 0 is only rescaled by pivot / prev at
    a step, so it is left alone when the pivot equals the previous one.
    """
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
        pivot_row = a[k]
        pivot = pivot_row[k]
        for i in range(k + 1, n):
            row = a[i]
            factor = row[k]
            if factor:
                for j in range(k + 1, n):
                    row[j] = (row[j] * pivot - factor * pivot_row[j]) // prev
            elif pivot != prev:
                for j in range(k + 1, n):
                    row[j] = row[j] * pivot // prev
        prev = pivot
    return sign * a[n - 1][n - 1]


# ---------------------------------------------------------------------------
# The homology action of a mapping class


def abelianize(pairs) -> tuple:
    """Matrix of the induced map on H_1(N_g; R), in the basis c_1..c_{g-1},
    of the mapping class with the packed table ``pairs`` (g packed
    ``(image, inverse)`` pairs, as ``mcg.evaluate`` returns them).

    Column i is the exponent vector of the image of x_i with c_g
    eliminated.  Functorial on packed tables: abelianize(compose(a, b))
    equals matrix_mul(abelianize(a), abelianize(b)).
    """
    g = len(pairs)
    return tuple(zip(*(abelianized(g, unpack(pairs[j][0])) for j in range(g - 1))))


# ---------------------------------------------------------------------------
# Rotation matrices of the symmetric models E_g


# least value of each rotation-model parameter
MODEL_LEAST = {"k": 2, "p": 1, "q": 0}


class EgRotationSpec(namedtuple("EgRotationSpec", "k p q extra_crosscap")):
    """Parameters of the order-k rotation model: p nonorientable genus-k
    summands, q orientable genus-(k-1) summands, optionally one extra
    crosscap fixed by the rotation (odd total genus).  Every construction,
    ``_make`` and ``_replace`` included, checks each parameter against its
    least value."""

    __slots__ = ()

    def __new__(cls, k, p, q, extra_crosscap=False):
        spec = super().__new__(cls, k, p, q, extra_crosscap)
        for name, least in MODEL_LEAST.items():
            value = getattr(spec, name)
            if value < least:
                raise ValueError(f"{name} must be at least {least}, got {value}")
        return spec

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

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

    Column i maps the rows of the image of basis class i to their entries.
    Orientable summand s starts at 2(k-1)s, its b-classes k-1 later;
    nonorientable summand s starts at 2q(k-1) + ks; d is last.
    """
    k, p, q = spec.k, spec.p, spec.q
    h = k - 1
    size = spec.genus - 1
    one_sided = range(2 * q * h, size)  # the c-classes and d
    columns = []
    for s in range(q):
        a, b = 2 * h * s, 2 * h * s + h
        columns += [{a + i + 1: 1, a: -1} if i < h - 1 else {a: -1} for i in range(h)]
        columns += [{b + i + 1: 1} if i < h - 1 else {b + j: -1 for j in range(h)}
                    for i in range(h)]
    for s in range(p):
        c = one_sided.start + k * s
        if s < p - 1:
            columns += [{c + (i + 1) % k: 1} for i in range(k)]
        else:  # c_{k-1} -> c_k, which was eliminated
            columns += [{c + i + 1: 1} for i in range(h - 1)] + [{j: -1 for j in one_sided}]
    if spec.extra_crosscap:
        columns.append({size - 1: 1})
    if len(columns) != size:
        raise InvariantViolation(f"rotation basis has {len(columns)} classes, expected {size}")
    return tuple(tuple(column.get(i, 0) for column in columns) for i in range(size))


# ---------------------------------------------------------------------------
# Genus decomposition arithmetic


class GenusDecomposition(namedtuple("GenusDecomposition", "p q plus_one n m r")):
    """g = p*k + 2*q*(k-1) + (1 if plus_one else 0) with p odd, q >= 0."""

    __slots__ = ()


def decompose_genus(g: int, k: int) -> GenusDecomposition:
    """Write g as pk + 2q(k-1) (+1 for odd g) with p odd and q >= 0.

    Sets n = (g-k)/2 (even g) or (g-k-1)/2 (odd g), m = floor(n/(k-1)),
    r = n - m(k-1), and returns p = 2r+1, q = m-r.  For every genus at or
    above 2(k-1)(k-2)+k (+1 for odd g) the result is guaranteed to exist;
    smaller genera are accepted whenever the arithmetic produces q >= 0.
    Raises ValueError for a k that is not an even integer >= 12 and for a
    genus with no such decomposition.  Whether the fields reconstruct g
    is the ``decomposition`` claim's check, not this function's.
    """
    if k < 12 or k % 2:
        raise ValueError("k must be an even integer >= 12")
    plus_one = bool(g % 2)  # k even makes pk + 2q(k-1) even
    n2 = g - k - (1 if plus_one else 0)
    if n2 < 0 or n2 % 2:
        raise ValueError(f"genus {g} below the k={k} decomposition range")
    n = n2 // 2
    m = n // (k - 1)
    r = n - m * (k - 1)
    p = 2 * r + 1
    q = m - r
    if q < 0:
        raise ValueError(
            f"genus {g} admits no decomposition with p odd for k={k}"
        )
    return GenusDecomposition(p=p, q=q, plus_one=plus_one, n=n, m=m, r=r)
