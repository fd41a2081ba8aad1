"""Mapping classes of N_g as automorphisms of pi_1, up to inner automorphism.

For a closed surface the mapping class group embeds in the outer
automorphism group of pi_1, so a mapping class is stored as the images of
the generators x_1..x_g, and every identity / order / equality question is
decided up to composition with an inner automorphism.  The one value of a
mapping class is its packed table: a tuple of g ``(image, inverse)`` pairs
of packed words (see :mod:`mcgverify.words`).

The generator catalog covers the named elements used throughout:

* ``t_alpha_i`` -- Dehn twist about the chain curve ``alpha_i = x_i x_{i+1}``
  (two-sided; passes through crosscaps i, i+1),
* ``t_beta``    -- Dehn twist about ``beta``, the curve that merges
  ``alpha_1`` and ``alpha_3`` around the first four crosscaps,
* ``t_eps``     -- Dehn twist about ``eps = y^{-1}(alpha_{g-2})``,
* ``u_i``       -- crosscap transposition swapping crosscaps i, i+1,
* ``y``         -- crosscap slide ``t_alpha_{g-1} . u_{g-1}``.

The pi_1 formulas are derived from the disk-with-crosscaps model and are
certified, rather than proved here: ``build_catalog`` runs a validation
suite at index 1 (locality of supports and image letters, the relator on
each generator's support, exact inverses, the braid relation, and
commutation of t_beta with the twists its support overlaps; distant twists
commute by locality; y and t_eps are products of certified generators) and
certifies every other index i by checking that its formulas give the
crosscap shift x_k -> x_{k+i-1} of index 1's moves, which carries each of
those facts along the chain, so the check costs the same number of
products at every genus.  The claim catalog exercises the order, identity
and curve-orbit facts that pin down every direction choice.  A wrong
formula fails loudly with :class:`ValidationFailure`.

Composition convention: products act right-to-left, ``(f g)(x) = f(g(x))``,
matching the usual composition of homeomorphisms.

The catalog keeps one generator table, the images each symbol moves, and
one primitive, :func:`_append`, which applies a word by appending its
generators on the right, left to right: ``(acc . gen)(x_j) = acc(gen(x_j))``.
Each generator moves only two to four of the g generator images, so only
those are recomputed.  Each image carries its packed inverse, so a
negative letter costs no inversion and every junction cancels in C; images
are unpacked to tuples only for their homology classes and to store the
moves of y and t_eps.  :func:`compose`, which recomputes every image, is
kept as the tests' reference route.

The catalog has two memo tables.  The power table (:func:`power_pairs`)
maps ``(word, n)`` to the packed images of ``word^n``, built by appending
and squaring.  ``evaluate`` is its n = 1 entry, ``order_of`` reads each
``T^m`` it tests from it, and :func:`identity_status` compares the two
sides of an identity entry by entry, so the orders of s and s' reuse the
chain-power identity's powers.  The other maps a table, by content, to
its square.  The chain-power identity makes s^g and (s')^(g-1) one
table, so it is squared once for both orders.  A curve-orbit map is a
product of such entries (:func:`product_pairs`), so ``x r^k x^-1`` costs
the ladder of ``r^k`` and two compositions.  Squaring and composing run
through :func:`_compose_pairs`, which substitutes runs ``x_i..x_j`` (or
their inverses) rather than letters: a power's images are mostly such
runs, and few distinct ones, and a run's image under ``a`` is
``a(P_{i-1})^-1 a(P_j)`` for the prefixes ``P_j = x_1..x_j``.  Free
reduction is unique, so the tables are the ones a per-letter substitution
gives.

:func:`is_inner` decides exactly, with no bound: one cyclic strict
reduction of each of the images of x_1 and x_2 decides whether it is
conjugate to its letter and gives a conjugator, with no listing of a
conjugacy class; centralizers in pi_1 are cyclic, so the two conjugators
meet in at most one candidate, and checking that candidate on every
generator decides.  It takes the packed pairs of a table, as
:func:`power_pairs` returns them.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import compress, count
from operator import ne

from .errors import InvariantViolation, ValidationFailure
from .homology import abelianize, vector_period
from .words import (
    SurfacePresentation,
    _cancel,
    _component,
    _least_rotation,
    _strict_pass,
    abelianized,
    cyclic_core,
    format_word,
    free_reduce,
    get_presentation,
    invert,
    inverse,
    letter_conjugator,
    mul,
    pack,
    reduce_image,
    unpack,
)

# ---------------------------------------------------------------------------
# Substitution


def substitute(pres: SurfacePresentation, pairs, word) -> tuple:
    """Apply a packed image table to a word and Dehn-reduce.

    The images must be freely reduced, so that the concatenation cancels
    only where two images meet (:func:`~mcgverify.words.reduce_image`):
    ``build_catalog`` certifies the generator images, and every computed
    image is Dehn-reduced.
    """
    return unpack(reduce_image(pres, pairs, word))


def compose(a, b) -> tuple:
    """a after b, for packed tables: the image of x_i is a(b(x_i)), each
    image of ``b`` substituted letter by letter under ``a``.  Every image is
    recomputed: the tests' reference route for :func:`_append` and
    :func:`_compose_pairs`.  Raises ValueError on tables of unequal length."""
    if len(a) != len(b):
        raise ValueError(f"genus {len(a)} vs {len(b)}")
    pres = get_presentation(len(a))
    images = (reduce_image(pres, a, unpack(image)) for image, _ in b)
    return tuple((w, invert(w)) for w in images)


# ---------------------------------------------------------------------------
# Inner-automorphism status


@dataclass(frozen=True)
class Inner:
    """The automorphism is conjugation by ``witness``."""

    witness: tuple


@dataclass(frozen=True)
class NotInner:
    """Certified not inner (a conjugacy-invariant rules it out)."""

    reason: str = ""


def _common_power(pres: SurfacePresentation, b1, b2):
    """The k with b_1 x_1^k = b_2 x_2^m for some m, if such k can exist,
    for words b_1, b_2 given as tuples or packed: read off the homology
    vector h of b_2^-1 b_1, which is h(b_1) - h(b_2) (see :func:`is_inner`),
    it is -h_1 when h_i = 0 for every i >= 3, and None otherwise."""
    g = pres.genus
    h = [x - y for x, y in zip(abelianized(g, array("b", b1)), abelianized(g, array("b", b2)))]
    return None if any(h[2:]) else -h[0]


def _conjugates(pres: SurfacePresentation, packed_c, i, pair) -> bool:
    """True iff c x_i c^-1 = a(x_i) for the packed c and the packed image
    pair ``(a(x_i), a(x_i)^-1)``: the packed ``c x_i c^-1 a(x_i)^-1`` is
    joined at its junctions (:func:`~mcgverify.words._cancel`) and the
    strict pass must empty it, which is ``is_trivial`` of that word."""
    out = bytearray(packed_c)
    _cancel(out, *pres.letters_packed[i - 1])
    _cancel(out, invert(packed_c), packed_c)
    image, inv = pair
    _cancel(out, inv, image)
    return not _strict_pass(pres, bytes(out))


def is_inner(pres: SurfacePresentation, pairs):
    """Decide whether the automorphism with the packed image pairs ``pairs``
    (as :func:`power_pairs` returns them) is inner: Inner(witness), with
    w x_i w^-1 = a(x_i) for every i, or NotInner.  No bound: one candidate
    conjugator decides.

    a(x_1) must be conjugate to x_1 and a(x_2) to x_2: one cyclic strict
    reduction of each image decides this and gives conjugators b_1, b_2 of
    x_1, x_2 onto their images (:func:`~mcgverify.words.letter_conjugator`),
    each verified by :func:`_conjugates`.  Suppose conjugation by c is
    ``a``.  Then b_1^-1 c centralizes x_1.  pi_1(N_g), g >= 3, is
    torsion-free hyperbolic, so the centralizer of a nontrivial element is
    cyclic (Bridson-Haefliger, Metric Spaces of Non-positive Curvature,
    III.Gamma), and x_1 is not a proper power, as its homology class
    (1, 0, ..., 0) is primitive; so c = b_1 x_1^k for some k, and likewise
    c = b_2 x_2^m.  Then b_2^-1 b_1 = x_2^m x_1^-k, whose homology vector h
    (exponent sums less that of x_g, which the relator leaves unchanged) is
    (-k, m, 0, ..., 0).  So c exists only if h_i = 0 for every i >= 3, and
    then k = -h_1 (:func:`_common_power`).  The one candidate c = b_1 x_1^k
    is checked on x_2..x_g by :func:`_conjugates`; it sends x_1 onto a(x_1)
    already.  The center is trivial, so an inner automorphism has one
    conjugator, and the witness is this word.

    Raises InvariantViolation if b_1 or b_2 fails to verify.
    """
    b = []
    for i in (1, 2):
        packed_b = letter_conjugator(pres, pairs[i - 1][0], i)
        if packed_b is None:
            return NotInner(f"image of x{i} not conjugate to x{i}")
        b.append(packed_b)
    for i, packed_b in enumerate(b, 1):
        if not _conjugates(pres, packed_b, i, pairs[i - 1]):
            raise InvariantViolation(f"the conjugator of x{i} onto its image fails to verify")
    k = _common_power(pres, *b)
    if k is None:
        return NotInner("x1 and x2 have no common conjugator")
    x1, x1_inv = pres.letters_packed[0] if k > 0 else pres.letters_packed[0][::-1]
    out = bytearray(b[0])
    _cancel(out, x1 * abs(k), x1_inv * abs(k))
    packed_c = bytes(out)
    for i in range(2, pres.genus + 1):
        if not _conjugates(pres, packed_c, i, pairs[i - 1]):
            return NotInner(f"the one candidate conjugator fails on x{i}")
    return Inner(unpack(packed_c))


# ---------------------------------------------------------------------------
# Generator catalog

# beta merges alpha_1 and alpha_3 around the first four crosscaps; the
# connecting arc runs along alpha_2, so the word is
# (x1 x2) * (x2 x3)(x3 x4)(x2 x3)^-1.
BETA_WORD = (1, 2, 2, 3, 3, 4, -3, -2)


def chain_twist_images(i: int, sign: int = 1) -> tuple:
    """Twist about alpha_i = x_i x_{i+1}: the (index, image) pairs of the
    two generator images it moves, indices counted from 0.  The positive
    direction is the one pinned by the braid/order/identity claims."""
    if sign > 0:
        return ((i - 1, (i, i, i + 1)), (i, (-(i + 1), -i, i + 1)))
    return ((i - 1, (i, -(i + 1), -i)), (i, (i, i + 1, i + 1)))


def transposition_images(i: int, sign: int = 1) -> tuple:
    """Crosscap transposition u_i, as the (index, image) pairs it moves.
    Fixes x_i^2 x_{i+1}^2 exactly; the inverse direction swaps the roles of
    the two crosscaps."""
    if sign > 0:
        return ((i - 1, (i + 1,)), (i, (-(i + 1), -(i + 1), i, i + 1, i + 1)))
    return ((i - 1, (i, i, i + 1, -i, -i)), (i, (i,)))


def beta_twist_images(sign: int = 1) -> tuple:
    """Twist about beta, as the (index, image) pairs of x_1..x_4.

    The images insert conjugates of the beta word in the unique pattern
    that fixes both the subsurface boundary word x1^2..x4^2 and the beta
    word itself (the insertion exponents alternate because the band of
    beta flips orientation at each crosscap).
    """
    B = BETA_WORD if sign > 0 else inverse(BETA_WORD)
    Bi = inverse(B)
    return (
        (0, free_reduce((1,) + B)),
        (1, free_reduce(Bi + (2,))),
        (2, free_reduce((-2,) + B + (2, 3))),
        (3, free_reduce((-3, -2) + Bi + (2, 3, 4))),
    )


# Symbol encoding: (kind, index, sign); kind in {"a", "b", "e", "u", "y"}.
# MappingClassWord = tuple of symbols, applied right-to-left.


def talpha(i: int, sign: int = 1):
    return ("a", i, sign)


def tbeta(sign: int = 1):
    return ("b", 0, sign)


def teps(sign: int = 1):
    return ("e", 0, sign)


def transposition(i: int, sign: int = 1):
    return ("u", i, sign)


def crosscap_slide(sign: int = 1):
    return ("y", 0, sign)


def inverse_word(word):
    """Inverse of a mapping-class word: reverse order, flip signs."""
    return tuple((k, i, -s) for (k, i, s) in reversed(word))


def format_mcg_word(word) -> str:
    if not word:
        return "id"
    names = {"a": "t_a{}", "b": "t_b", "e": "t_e", "u": "u{}", "y": "y"}
    parts = []
    for kind, idx, sign in word:
        base = names[kind].format(idx)
        parts.append(base if sign > 0 else base + "^-1")
    return " ".join(parts)


# _NEXT[b] is the byte of the letter after that of byte b in a run.  The
# bytes after x_127 and x_1^-1 (0x80 and 0x00) are no letters, so no run
# changes sign.
_NEXT = bytes(b + 1 & 0xFF for b in range(256))


def _moved(images) -> tuple:
    """(index, image) of every image that differs from its generator."""
    return tuple((j, im) for j, im in enumerate(images) if im != (j + 1,))


class GeneratorCatalog:
    """Per-genus table of the generator images each symbol moves, for both
    directions of every generator, and the curve words for
    alpha_1..alpha_{g-1}, beta, eps.

    t_alpha_i, u_i and t_beta are entered from their formulas, which give
    only the images they move, each index on its own; the composite
    generators y and t_eps are entered by :func:`_append` from the symbols
    already in the table.  Built by :func:`build_catalog`, which also
    certifies the formulas.  Immutable but for its memo tables
    of powers and squares, which only ever gain entries.
    """

    def __init__(self, genus: int):
        self.genus = genus
        self.presentation = get_presentation(genus)
        g = genus

        self._moves = {}
        for i in range(1, g):
            for sign in (1, -1):
                self._moves[talpha(i, sign)] = chain_twist_images(i, sign)
                self._moves[transposition(i, sign)] = transposition_images(i, sign)
        if g >= 4:
            for sign in (1, -1):
                self._moves[tbeta(sign)] = beta_twist_images(sign)
        ident = self.presentation.letters_packed
        # y = t_alpha_{g-1} . u_{g-1}  (u applied first)
        slide = (talpha(g - 1), transposition(g - 1))
        self._moves[crosscap_slide(1)] = _moved(unpack(b) for b, _ in _append(self, ident, slide))
        y_inv = _append(self, ident, inverse_word(slide))
        self._moves[crosscap_slide(-1)] = _moved(unpack(b) for b, _ in y_inv)
        # eps = y^-1(alpha_{g-2}); its twist is the conjugate of the
        # alpha_{g-2} twist by y^-1.
        for sign in (1, -1):
            conj = (crosscap_slide(-1), talpha(g - 2, sign), crosscap_slide(1))
            self._moves[teps(sign)] = _moved(unpack(b) for b, _ in _append(self, ident, conj))

        self.curves = {f"a{i}": (i, i + 1) for i in range(1, g)}
        if g >= 4:
            self.curves["b"] = BETA_WORD
        self.curves["e"] = unpack(reduce_image(self.presentation, y_inv, (g - 2, g - 1)))

        # (word, n) -> packed image pairs of word^n, filled by power_pairs;
        # a table -> its square, keyed by content, so that the powers of
        # two words that meet are squared once
        self._powers: dict = {}
        self._squares: dict = {}

    def moves(self, symbol) -> tuple:
        """(index, image) pairs of the generator images ``symbol`` moves,
        indices counted from 0.

        >>> get_catalog(5).moves(talpha(2))
        ((1, (2, 2, 3)), (2, (-3, -2, 3)))
        """
        kind, idx, sign = symbol
        try:
            return self._moves[(kind, idx, sign)]
        except KeyError:
            raise KeyError(f"no generator {symbol} in genus {self.genus}") from None


def _append(catalog: GeneratorCatalog, pairs, word) -> list:
    """Packed image pairs of ``acc . word`` from those of ``acc``.

    ``pairs[j]`` is the packed image of x_{j+1} under ``acc`` with its
    packed inverse; the identity's is ``presentation.letters_packed``.
    Symbols are applied on the right, left to right.  For an image x_j a
    symbol does not move, ``(acc . gen)(x_j) = acc(x_j)`` is already
    reduced, so only the moved images are recomputed, each by
    :func:`~mcgverify.words.reduce_image`, and its inverse with it.
    """
    pres = catalog.presentation
    pairs = list(pairs)
    for symbol in word:
        moved = [(j, reduce_image(pres, pairs, im)) for j, im in catalog.moves(symbol)]
        for j, b in moved:
            pairs[j] = (b, invert(b))
    return pairs


def _run_pair(a, run, prefixes) -> tuple:
    """Packed image under ``a`` of a run of b's image, with its inverse.

    A run is ``x_i..x_j`` or ``x_j^-1..x_i^-1``.  A single letter takes its
    pair from ``a``; a longer run takes ``a(P_{i-1})^-1 a(P_j)``, freely
    reduced, where ``P_j = x_1..x_j``.  ``prefixes`` holds the packed pairs
    of ``a(P_0), a(P_1), ...``, freely reduced, and is filled on the first
    longer run.
    """
    first = run[0]
    if len(run) == 1:
        return a[first - 1] if first < 0x80 else a[(-first & 0xFF) - 1][::-1]
    if not prefixes:
        prefixes.append((b"", b""))
        for piece, inv in a:
            out = bytearray(prefixes[-1][0])
            _cancel(out, piece, inv)
            w = bytes(out)
            prefixes.append((w, invert(w)))
    low, high = (first, run[-1]) if first < 0x80 else (-run[-1] & 0xFF, -first & 0xFF)
    out = bytearray(prefixes[low - 1][1])
    _cancel(out, *prefixes[high])
    w = bytes(out)
    return (w, invert(w)) if first < 0x80 else (invert(w), w)


def _compose_pairs(pres: SurfacePresentation, a, b) -> list:
    """Packed image pairs of ``a . b`` from those of ``a`` and ``b``: the
    image of x_j is ``a`` applied to the image of x_j under ``b``.

    Each image of ``b`` is split into maximal runs whose signed letters
    rise by one, ``x_i x_{i+1} .. x_j`` or its inverse: a letter starts a
    run unless its byte is the previous byte plus one, found by comparing
    the image in C with its bytes raised by one (``_NEXT``) and shifted by
    one letter.  A run's piece is its image under ``a`` freely
    reduced (:func:`_run_pair`), memoized per call by the run's bytes with
    the last byte of its inverse, that inverse read as one little-endian
    integer, and its length n.  Squared power tables are mostly such runs,
    and few distinct ones, so the pieces are far fewer than the letters.
    The pieces are joined by the junction cancellation of
    :func:`~mcgverify.words._cancel`: at a junction whose last bytes
    agree, the tail of the product is XORed with the stored integer,
    shifted right by the bytes the product lacks when it is shorter than n.
    An empty piece has no last byte, so it stores -1 and appends nothing.

    The result is exact: each piece is the free reduction of the images
    of its letters, and joining freely reduced pieces with junction
    cancellation freely reduces the whole product, which is unique in the
    free group, so it is the word a letter-by-letter substitution gives.
    The strict pass follows, as in ``reduce_image``, and each result
    carries its inverse.
    """
    entries = {}
    prefixes = []
    pairs = []
    for image, _ in b:
        out = bytearray()
        starts = [*compress(count(), map(ne, image, b"\0" + image.translate(_NEXT)))]
        for s, e in zip(starts, starts[1:] + [len(image)]):
            run = image[s:e]
            entry = entries.get(run)
            if entry is None:
                piece, inv = _run_pair(a, run, prefixes)
                entry = entries[run] = (
                    piece, inv[-1] if inv else -1, int.from_bytes(inv, "little"), len(piece)
                )
            piece, last, key, n = entry
            if out and out[-1] == last:
                m = len(out)
                if m >= n:
                    x = int.from_bytes(out[-n:], "little") ^ key
                    k = n - (x.bit_length() + 7 >> 3)
                else:
                    x = int.from_bytes(out, "little") ^ (key >> 8 * (n - m))
                    k = m - (x.bit_length() + 7 >> 3)
                del out[-k:]
                out += piece[k:]
            else:
                out += piece
        w = _strict_pass(pres, bytes(out))
        pairs.append((w, invert(w)))
    return pairs


def power_pairs(catalog: GeneratorCatalog, word, n: int) -> tuple:
    """Packed image pairs of ``T^n``, n >= 1, for the mapping class T of
    ``word``, from the catalog's table; :func:`evaluate` is the n = 1
    entry.  A missing entry is built and stored by a ladder:
    n = 1 appends ``word`` to the identity, an even n squares the n/2 entry
    (:func:`_compose_pairs`), an odd n appends ``word`` to the n-1 entry.
    A square is memoized by the content of the table squared
    (``catalog._squares``), so two words whose powers meet in one table,
    as s^g and (s')^(g-1) do, square it once.  Each entry is what the
    ladder computes, whatever the tables held."""
    key = (word, n)
    pairs = catalog._powers.get(key)
    if pairs is None:
        if n == 1:
            pairs = _append(catalog, catalog.presentation.letters_packed, word)
        elif n % 2:
            pairs = _append(catalog, power_pairs(catalog, word, n - 1), word)
        else:
            half = power_pairs(catalog, word, n // 2)
            pairs = catalog._squares.get(half)
            if pairs is None:
                pairs = catalog._squares[half] = tuple(
                    _compose_pairs(catalog.presentation, half, half)
                )
        pairs = catalog._powers[key] = tuple(pairs)
    return pairs


def product_pairs(catalog: GeneratorCatalog, factors) -> tuple:
    """Packed image pairs of the product ``W_1^n_1 W_2^n_2 ...`` of one or
    more ``(word, exponent)`` factors, exponents >= 1, rightmost factor
    applied first, as for a word.  Each factor is its :func:`power_pairs`
    entry, so a power costs a ladder of squarings, not n copies of its
    word; the entries are composed left to right by :func:`_compose_pairs`."""
    (word, n), *rest = factors
    pairs = power_pairs(catalog, tuple(word), n)
    for word, n in rest:
        pairs = _compose_pairs(catalog.presentation, pairs, power_pairs(catalog, tuple(word), n))
    return pairs


def evaluate(catalog: GeneratorCatalog, word) -> tuple:
    """The packed image pairs of a mapping-class word, rightmost symbol
    applied first: the n = 1 entry of :func:`power_pairs`."""
    return power_pairs(catalog, tuple(word), 1)


# ---------------------------------------------------------------------------
# Curves


class CurveClass:
    """Unoriented isotopy-class of a curve: the cyclic word up to
    conjugacy and inversion.  Comparing unoriented absorbs the sign
    ambiguity of conjugating a twist.

    ``members`` holds the least rotations of the closures
    (:func:`~mcgverify.words._component`) of the word's cyclic core and of
    the core's inverse, and ``key`` is the least of them, the canonical
    form of the class.  All members have one length, and none holds a
    strict window."""

    __slots__ = ("genus", "members", "key")

    def __init__(self, pres: SurfacePresentation, word):
        core = unpack(cyclic_core(pres, pack(free_reduce(word)))[0])
        self.genus = pres.genus
        self.members = frozenset(_component(pres, core)).union(_component(pres, inverse(core)))
        self.key = min(self.members)

    def contains(self, key) -> bool:
        """True iff the curve whose core key (:func:`product_curve_key`) is
        ``key`` lies in this class.  The key is closed only if it is no
        member and at most 2 floor(n / (g-2)) letters longer than the
        n-letter members.

        A member is conjugate to the class's word or its inverse.
        Conversely, let the key, a cyclic core, be conjugate to a member m.
        Neither cyclic word holds a strict window, so a reduced annular
        diagram between them has one layer (Lyndon-Schupp, ch. V sec. 5;
        see ``words.letter_conjugator``): each region reads a rotation, 2g
        letters, as an arc on the key, an arc on m and at most two
        one-letter pieces shared with its neighbours.  The arc on the key
        has at most g letters, so the arc on m has at least g - 2, and at
        most 2 fewer than the arc on the key.  The arcs on m are disjoint,
        so there are at most floor(n / (g-2)) regions, and the key is at
        most twice that longer than m.  Without regions the key is a
        rotation of m, so m itself.  With pieces on both sides a region is
        no half exchange: the core ``x1 x1 x2 x2 x3^-1 x2^-1 x2^-1 x1^-1
        x3^-1`` at genus 4 is conjugate to a core two letters shorter.
        """
        if key in self.members:
            return True
        n = len(self.key)
        if len(key) > n + 2 * (n // (self.genus - 2)):
            return False
        return CurveClass(get_presentation(self.genus), key) == self

    def __eq__(self, other):
        return (
            isinstance(other, CurveClass)
            and self.genus == other.genus
            and self.key == other.key
        )

    def __hash__(self):
        return hash((self.genus, self.key))

    def __repr__(self):
        return f"CurveClass({format_word(self.key)})"


def curve_class(catalog: GeneratorCatalog, word) -> CurveClass:
    return CurveClass(catalog.presentation, word)


def curve_image(catalog: GeneratorCatalog, word, curve) -> CurveClass:
    """Image of a curve class under a mapping-class word."""
    return product_curve_image(catalog, ((word, 1),), curve)


def product_curve_key(catalog: GeneratorCatalog, factors, curve) -> tuple:
    """The core key of the image of a curve class under the product of
    ``(word, exponent)`` factors (:func:`product_pairs`): the lesser of
    the least rotations of the image's cyclic core and of its inverse,
    found without closing the image under exchanges."""
    pres = catalog.presentation
    image = reduce_image(pres, product_pairs(catalog, factors), curve.key)
    core = unpack(cyclic_core(pres, image)[0])
    return min(_least_rotation(core)[0], _least_rotation(inverse(core))[0])


def product_curve_image(catalog: GeneratorCatalog, factors, curve) -> CurveClass:
    """Image of a curve class under the product of ``(word, exponent)``
    factors.  The class is canonical, so a product and its flat word give
    the same class however the two routes spell the image."""
    return CurveClass(catalog.presentation, product_curve_key(catalog, factors, curve))


# ---------------------------------------------------------------------------
# Equality and orders up to inner automorphism


def identity_status(catalog: GeneratorCatalog, lhs, rhs):
    """Inner-automorphism status of ``L R^-1`` for ``L = R``, each side a
    ``(word, exponent)`` pair: Inner or NotInner.  Equal side tables
    (:func:`power_pairs`) give Inner(()); otherwise ``is_inner`` decides
    the composite of the left table with that of ``R^-1`` to the same
    exponent, because two routes may leave different sides of an
    exactly-half relator piece."""
    (lword, ln), (rword, rn) = lhs, rhs
    left = power_pairs(catalog, lword, ln)
    if left == power_pairs(catalog, rword, rn):
        return Inner(())
    right_inv = power_pairs(catalog, inverse_word(rword), rn)
    return is_inner(catalog.presentation, _compose_pairs(catalog.presentation, left, right_inv))


def order_of(catalog: GeneratorCatalog, word, n: int):
    """The order of ``T = evaluate(word)`` up to inner automorphism if it
    divides n, else None.

    Only the multiples m of the probe period p that divide n are tested,
    least first, and the first m with T^m inner (:func:`is_inner`, exact) is
    returned.  The probe is v = (1, 2, ..., g-1) and p is the least p with
    M^p v = v for the homology matrix M
    (:func:`~mcgverify.homology.vector_period`, which pushes v through the
    sparse columns of M).  This is the order exactly:

    * an inner T^m acts trivially on H_1, so M^m = I, M^m v = v and p | m:
      no power outside the multiples of p is inner;
    * T^m is inner exactly when the order d divides m.  So if d | n, d is
      among the candidates and is the least inner one; if d does not
      divide n, or T has infinite order, no candidate is inner.

    The probe decides only the cost, never the verdict: a candidate m with
    M^m != I is not inner, and the pi_1 check of :func:`is_inner` refutes
    T^m.  Each T^m is read from the catalog's table (:func:`power_pairs`)
    and decided by :func:`is_inner`; no power above n is built.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    word = tuple(word)
    period = vector_period(abelianize(evaluate(catalog, word)), range(1, catalog.genus), n)
    if period is None:
        return None
    pres = catalog.presentation
    for m in range(period, n + 1, period):
        if n % m == 0 and isinstance(is_inner(pres, power_pairs(catalog, word, m)), Inner):
            return m
    return None


# ---------------------------------------------------------------------------
# Catalog construction with validation


def _crosscap_shift(moves, k: int) -> tuple:
    """sigma^k of moves written in x_1..x_{g-k}: every index and every
    letter raised by k, which on those letters is the cyclic shift."""
    return tuple((j + k, tuple(x + k if x > 0 else x - k for x in im)) for j, im in moves)


def build_catalog(genus: int) -> GeneratorCatalog:
    """Build and certify the generator catalog for one genus.

    The validation suite rejects any wrongly derived formula.  Index 1 is
    certified in full, every other index by one comparison, so the number
    of relation products does not grow with the genus.  In order:

    * locality and the relator, for both directions of t_alpha_1, u_1 and
      t_beta: each moves only x_1 and x_2 and writes its images in those
      two letters alone (t_beta likewise in x_1..x_4), and its images of
      the relator's letters over that support, x_1^2 x_2^2 (x_1^2..x_4^2),
      freely reduce back to those letters;
    * the crosscap shift: for i = 2..g-1 and both directions, the moves
      the formulas give t_alpha_i and u_i are sigma^(i-1) of those of
      t_alpha_1 and u_1 (below);
    * freely reduced images (which :func:`substitute` relies on) and exact
      stored inverses of t_alpha_1, u_1, t_beta, t_eps and y; the braid
      relation of t_alpha_1 and t_alpha_2; commutation of t_beta with
      t_alpha_1..3; and the homology class of the hand-written beta word,
      that of x_1 x_2 x_3 x_4 (the alpha_i words x_i x_{i+1} are built in
      the catalog's constructor, so they need no check).

    Every relation is checked on the catalog's one table, by comparing the
    packed :func:`_append` images of its two sides.  Raises
    ValidationFailure naming the first failed check.

    The relator certificate is the free-group fact that the generator fixes
    the relator word x_1^2..x_g^2, so its images define an endomorphism of
    pi_1; Dehn reduction would use the relation being certified.  Under
    locality the letters outside the support are fixed and cancel against
    nothing, so the local check is the whole one.  y and t_eps need none of
    their own: their images are Dehn-reduced products of certified
    generators' images, the same elements of pi_1, though at g = 3 and 4
    their free images of the relator are only conjugates of it.

    Why index 1 certifies every index.  Let sigma be the letter
    permutation x_k -> x_{k+1}, x_g -> x_1, x_k^-1 -> x_{k+1}^-1, applied
    to words letter by letter and to tables by moving the image of x_k,
    mapped by sigma, to position k+1.  It sends the relator x_1^2..x_g^2
    to its rotation x_2^2..x_g^2 x_1^2, so it permutes the rotations of
    the relator and of its inverse: ``rotations[sigma(w)]`` is sigma of
    ``rotations[w]``, and one is missing exactly when the other is.  The
    strict pass (:func:`~mcgverify.words._strict_pass`) reads letters only
    through equality: ``_doubled`` matches doubled bytes,
    :func:`~mcgverify.words._cancel` finds the longest common suffix, and
    a window's lookup and extension compare with a rotation; it picks the
    leftmost window by position.  sigma commutes with inversion.  So the
    strict pass of sigma(w) replaces the windows of w at the same
    positions, and returns sigma of the strict pass of w, whether or not
    it acts (at g <= 6 it does, on some products below); so does
    :func:`~mcgverify.words.reduce_image`, and so :func:`_append`: if each
    symbol s of W has ``moves(sigma(s)) = sigma(moves(s))``, with
    sigma(t_alpha_j) = t_alpha_{j+1} and sigma(u_j) = u_{j+1}, then
    appending sigma(W) to the identity, which sigma fixes, gives sigma of
    the table W gives.  sigma is a bijection, so two tables are equal
    exactly when their images are.  The shift check gives
    ``moves(t_alpha_i) = sigma^(i-1)(moves(t_alpha_1))``, and likewise for
    u_i, at every index up to g-1.  Hence each relation product at index i
    is sigma^(i-1) of the one at index 1 and holds exactly when it does:
    the stored inverses of t_alpha_i and u_i, and the braid relation of
    t_alpha_i and t_alpha_{i+1}, i <= g-2, from that of t_alpha_1 and
    t_alpha_2.  Locality, free reduction and the relator certificate are
    statements about letters, which sigma^(i-1) relabels: for i <= g-1 it
    carries the support {x_1, x_2} to {x_i, x_{i+1}}, and x_1^2 x_2^2 to
    x_i^2 x_{i+1}^2, with no wrap, so raising each index and letter by
    i-1 (:func:`_crosscap_shift`) is sigma^(i-1) on those moves.  The
    formulas build each index on their own, not as a shift of index 1, so
    that the comparison checks them.

    Distant twists are not compared: locality implies that they commute.
    If two symbols move disjoint sets of generators and write their images
    only in their own letters, then :func:`_append` computes each moved
    image from letters the other symbol fixes, in either order, so the two
    products are the same table.
    """
    catalog = GeneratorCatalog(genus)
    pres = catalog.presentation
    g = genus
    ident = list(pres.letters_packed)

    def product(word) -> list:
        return _append(catalog, ident, word)

    # the generators x_j each symbol may move, and the letters its images
    # may use
    support = [(kind(1, s), (1, 2)) for kind in (talpha, transposition) for s in (1, -1)]
    if g >= 4:
        support += [(tbeta(s), (1, 2, 3, 4)) for s in (1, -1)]
    for symbol, allowed in support:
        name = format_mcg_word((symbol,))
        moves = catalog.moves(symbol)
        for j, im in moves:
            if j + 1 not in allowed:
                raise ValidationFailure(f"{name} moves x{j + 1}")
            outside = [abs(x) for x in im if abs(x) not in allowed]
            if outside:
                raise ValidationFailure(f"{name} writes x{outside[0]} in the image of x{j + 1}")
        images = dict(moves)
        letters = tuple(x for x in allowed for _ in (1, 2))
        if mul(*(images.get(x - 1, (x,)) for x in letters)) != letters:
            raise ValidationFailure(f"relator certificate failed for {symbol}")

    for i in range(2, g):
        for kind in (talpha, transposition):
            for s in (1, -1):
                first = kind(1, s)
                if catalog.moves(kind(i, s)) != _crosscap_shift(catalog.moves(first), i - 1):
                    name, first_name = format_mcg_word((kind(i, s),)), format_mcg_word((first,))
                    raise ValidationFailure(f"{name} is not the crosscap shift of {first_name}")

    certified = [talpha(1), transposition(1)]
    if g >= 4:
        certified.append(tbeta())
    certified += [teps(), crosscap_slide()]
    for symbol in certified:
        kind, idx, _ = symbol
        inv = (kind, idx, -1)
        if any(free_reduce(im) != im for s in (symbol, inv) for _, im in catalog.moves(s)):
            raise ValidationFailure(f"image of {symbol} or its inverse not freely reduced")
        if product((symbol, inv)) != ident or product((inv, symbol)) != ident:
            raise ValidationFailure(f"stored inverse wrong for {symbol}")

    a, b = talpha(1), talpha(2)
    if product((a, b, a)) != product((b, a, b)):
        raise ValidationFailure("braid relation failed for t_a1, t_a2")
    # t_b's support overlaps those of t_a1..t_a3; distant pairs commute by
    # locality
    if g >= 4:
        for i in (1, 2, 3):
            if product((tbeta(), talpha(i))) != product((talpha(i), tbeta())):
                raise ValidationFailure(f"t_b and t_a{i} do not commute")

    if g >= 4 and abelianized(g, BETA_WORD) != abelianized(g, (1, 2, 3, 4)):
        raise ValidationFailure("curve word for beta abelianizes wrongly")

    return catalog


_CATALOGS: dict = {}


def get_catalog(genus: int) -> GeneratorCatalog:
    """Shared certified catalog per genus."""
    cat = _CATALOGS.get(genus)
    if cat is None:
        cat = _CATALOGS[genus] = build_catalog(genus)
    return cat
