"""Exact word and conjugacy calculus in pi_1(N_g) = <x_1,...,x_g | x_1^2 x_2^2 ... x_g^2>.

A word is a tuple of nonzero integers: letter ``k > 0`` is the generator
``x_k`` and ``-k`` is its inverse.  The generator ``x_i`` is the one-sided
loop through the i-th crosscap of the sphere-with-g-crosscaps model,
crosscaps ordered left to right.  (Any other crosscap ordering would change
every derived formula coherently; this package fixes this one convention
throughout.)

Triviality is decided with Dehn's algorithm: any subword covering strictly
more than half of a cyclic rotation of the relator or of its inverse is
replaced by the inverse of the complementary part, and a word is trivial
exactly when this strict reduction empties it.  That holds at every genus
by Greendlinger's lemma (Lyndon-Schupp, Combinatorial Group Theory, ch. V
sec. 4): a nonempty freely reduced word that represents the identity holds
a subword longer than half a relator rotation.  The lemma needs a small
cancellation hypothesis on the rotations of the relator x_1^2 ... x_g^2
and of its inverse, whose pieces (common prefixes of two of them) are
single letters:

- g >= 4: C'(1/6), since a piece has length 1 < 2g/6.
- g = 3: C'(1/4)-T(4).  C'(1/4) holds since 1 < 6/4.  T(4) holds since
  two rotations cancel at a junction only when one is a rotation of the
  relator (all letters positive) and the other of its inverse (all
  negative); three rotations cancelling pairwise around a triangle would
  alternate sign around an odd cycle, which is impossible.

Conjugacy works on cyclic words: the closure of the cyclically reduced word
under half-for-half exchange keeps each member as its least rotation, and
the canonical form of the conjugacy class is the least of these
(:func:`_component`).  The windows are the length-g slices of the cyclic
word, so one route serves every length; a word shorter than g has none.
Matching two canonical forms gives one conjugator, verified before it is
returned (:func:`conjugator`).  Closing under exchanges matters at every
genus: for example ``x1^2 x2^2`` equals ``(x3^2 x4^2)^-1`` in genus 4, and
the two sides are not rotations of each other.  The canonical forms serve
curve classes (``mcg.CurveClass``).  Whether a word is conjugate to one
letter x_i needs no class listing: a one-letter word has no exchange
site, and one cyclic strict reduction decides it and gives the conjugator
(:func:`letter_conjugator`, which ``mcg.is_inner`` calls).

Dehn reduction has one kernel, over packed words: a ``bytes`` object with
one signed byte per letter (``pack``/``unpack``), whose inverse is the
bytes negated through the 256-byte table ``NEG`` and reversed
(``invert``).  Where a freely reduced word meets a freely reduced piece,
the letters that cancel are the longest common suffix of the word and the
piece's inverse; ``_cancel`` reads its length off the highest differing
byte of the XOR of the two tails, as integers, so the comparison runs in C.
Cancellation runs in two places: ``_cancel``, which the strict pass,
:func:`reduce_image`, :func:`letter_conjugator` and ``mcg.is_inner`` call
at every junction, and
``mcg._compose_pairs``, which squares power tables by substituting runs
``x_i..x_j`` of letters,
each piece memoized per call with its inverse as one integer, and ends in
the same strict pass, which looks windows up in the one table of relator
rotations, ``SurfacePresentation._rotations``.  It has one prefilter: it
searches the word for floor(g/2) doubled letters in a row, which every
strict window holds, and returns at once if there are none.  Its scan
starts one letter before the first such run and, after a replacement,
resumes g letters before the first letter that changed.  Public
functions take and return tuples and pack at their boundary.  A signed
byte holds letters up to 127, so the genus is capped at ``MAX_GENUS``.

All functions are pure.  ``SurfacePresentation`` carries immutable data
plus one memo table, ``_canonical_cache``, which maps a word to its
canonical cyclic form and the conjugator that reaches it.  It is unbounded,
and only curve classes and the tests fill it.
"""

from __future__ import annotations

import itertools
import re
from array import array
from collections import deque
from operator import neg

from .errors import BudgetExceeded, ConjugacyMismatch, InvariantViolation, OutOfRange

Word = tuple  # tuple of nonzero ints

# Component searches are tiny in practice; the cap only guards against a
# pathological input locking up a batch run.  Only curve classes reach it.
SATURATION_CAP = 200_000

# find_conjugators lists the powers z^k, |k| <= CONJ_BOUND, of the
# centralizer root by default.  No verdict reads it: mcg.is_inner computes
# its one candidate's power.
CONJ_BOUND = 16

# A packed letter is one signed byte, so |letter| <= 127.
MAX_GENUS = 127

# NEG[b] is the byte of the negated letter of byte b.
NEG = bytes(-b & 0xFF for b in range(256))


def free_reduce(word) -> Word:
    """Freely reduce a word, cancelling adjacent x x^-1 pairs.

    >>> free_reduce((1, -1, 2))
    (2,)
    >>> free_reduce(())
    ()
    >>> free_reduce((1, 2, -2, -1, 3))
    (3,)
    """
    out = []
    for letter in word:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def inverse(word) -> Word:
    """Inverse word: reversed with all letters negated.

    >>> inverse((1, -2, 3))
    (-3, 2, -1)
    """
    return tuple(map(neg, reversed(word)))


def mul(*words) -> Word:
    """Concatenate and freely reduce.

    >>> mul((1, 2), (-2, 3))
    (1, 3)
    """
    return free_reduce(itertools.chain.from_iterable(words))


def pack(word) -> bytes:
    """Pack a word one signed byte per letter.

    >>> pack((1, -2))
    b'\\x01\\xfe'
    """
    return array("b", word).tobytes()


def unpack(packed) -> Word:
    """The word of a packed word.

    >>> unpack(pack((127, -127)))
    (127, -127)
    """
    return tuple(array("b", packed))


def invert(packed) -> bytes:
    """Packed inverse of a packed word.

    >>> unpack(invert(pack((1, -2, 3))))
    (-3, 2, -1)
    """
    return packed.translate(NEG)[::-1]


def format_word(word) -> str:
    """Render a word as ``"x1 x2^-1"``; the empty word renders as ``"1"``."""
    if not word:
        return "1"
    parts = []
    for letter in word:
        parts.append(f"x{letter}" if letter > 0 else f"x{-letter}^-1")
    return " ".join(parts)


def abelianized(genus: int, word) -> tuple:
    """Exponent vector in H_1(N_g; R), i.e. Z^g with x_g eliminated via
    c_g = -(c_1 + ... + c_{g-1}).  Returns a (g-1)-tuple of ints."""
    counts = [0] * (genus + 1)
    for letter in word:
        counts[abs(letter)] += 1 if letter > 0 else -1
    last = counts[genus]
    if not last:
        return tuple(counts[1:genus])
    return tuple(counts[i] - last for i in range(1, genus))


class SurfacePresentation:
    """The one-relator presentation of pi_1(N_g), with the lookup tables
    used by Dehn reduction.

    ``_rotations`` maps the first g letters of each of the 4g rotations of
    the relator and of its inverse, which determine it, to the packed
    rotation (12g^2 bytes in all).  A subword of a rotation is a prefix of
    another rotation, so a window of g letters found in it is half a
    rotation, and with the rotation's next letter a strict one.  ``_doubled``
    searches a packed word for floor(g/2) doubled letters in a row,
    ``aabb...``, which every window of length g+1..2g of every rotation
    contains: a word it does not match holds no strict window.  Its
    pattern ``(.)\\1(.)\\2...`` has a group per pair, which searches
    twice as fast as one repeated group.  ``letters_packed`` holds the
    packed pair (x_i, x_i^-1) of each generator: the image table of the
    identity.

    Raises OutOfRange above ``MAX_GENUS``, where letters no longer fit a
    signed byte.
    """

    def __init__(self, genus: int):
        if genus < 3:
            raise ValueError("genus must be at least 3")
        if genus > MAX_GENUS:
            raise OutOfRange(
                f"genus {genus} is above MAX_GENUS = {MAX_GENUS}, "
                "the largest letter a signed byte holds"
            )
        self.genus = genus
        relator = []
        for i in range(1, genus + 1):
            relator += [i, i]
        self.relator: Word = tuple(relator)

        g = genus
        # Rotations of the relator and of its inverse differ in sign, and
        # two of one differ in their first letter or, in one pair, second.
        self._rotations = {}
        packed = pack(self.relator)
        for base in (packed, invert(packed)):
            twice = base + base
            for k in range(2 * g):
                rotation = twice[k : k + 2 * g]
                self._rotations[rotation[:g]] = rotation
        if len(self._rotations) != 4 * g:
            raise InvariantViolation("relator rotations share a prefix of length g")
        doubled = b"".join(rb"(.)\%d" % k for k in range(1, g // 2 + 1))
        self._doubled = re.compile(doubled, re.S).search
        self.letters_packed = tuple((pack((i,)), pack((-i,))) for i in range(1, g + 1))

        self._canonical_cache: dict = {}

    def __repr__(self):
        return f"SurfacePresentation(genus={self.genus})"


_PRESENTATIONS: dict = {}


def get_presentation(genus: int) -> SurfacePresentation:
    """Shared per-genus presentation instance (immutable, memoized)."""
    pres = _PRESENTATIONS.get(genus)
    if pres is None:
        pres = _PRESENTATIONS[genus] = SurfacePresentation(genus)
    return pres


def _cancel(out: bytearray, piece, inv) -> int:
    """Append the packed ``piece`` to ``out``, cancel at the junction and
    return the number k of letters of ``out`` that cancelled.

    Both must be freely reduced and ``inv`` is the packed inverse of
    ``piece``.  The last k letters of ``out`` cancel the first k of
    ``piece`` exactly when they equal the last k of ``inv``, so k is the
    length of the common suffix of ``out`` and ``inv``.  Read the last m
    bytes of each as little-endian integers: k is m less the number of
    bytes their XOR occupies.  A junction whose last bytes differ cancels
    nothing and skips the arithmetic; past that check k >= 1, which
    ``del out[-k:]`` needs.
    """
    if out and inv and out[-1] == inv[-1]:
        m = min(len(out), len(inv))
        x = int.from_bytes(out[-m:], "little") ^ int.from_bytes(inv[-m:], "little")
        k = m - (x.bit_length() + 7 >> 3)
        del out[-k:]
        out += piece[k:]
        return k
    out += piece
    return 0


def _strict_pass(pres: SurfacePresentation, w: bytes) -> bytes:
    """Strict Dehn reduction of a freely reduced packed word: replace the
    leftmost subword longer than half a rotation and freely reduce, until
    no such subword occurs.  Returns the word unchanged if there is none.

    Most words hold no such subword, and ``_doubled`` proves that with one
    regex search: every rotation of the relator and of its inverse is a
    run of doubled letters, so a window of length g+1 or more holds
    floor(g/2) doubled letters in a row, starting at its first or second
    letter, and a word without such a run has no window to replace.  The
    scan starts one letter before the search's first match and looks
    every ``w[i:i+g]`` up in ``_rotations``, a strict window if ``w[i+g]``
    is the rotation's next letter too.  The replacement is freely reduced,
    so free reduction runs only at its two junctions (:func:`_cancel`).

    After a replacement the search and the scan resume g letters before
    the first changed letter, not at the start: a window that starts
    further left ends among the letters kept unchanged, and held no strict
    window before, as the replaced one was the leftmost.  So each pass
    replaces the windows a rescan from the start would, in the same order.
    """
    g = pres.genus
    full = 2 * g
    rotations = pres._rotations
    doubled = pres._doubled
    start = 0
    while len(w) > g:
        match = doubled(w, start)
        if match is None:
            return w
        for i in range(max(start, match.start() - 1), len(w) - g):
            rotation = rotations.get(w[i : i + g])
            if rotation is not None and w[i + g] == rotation[g]:
                break
        else:
            return w
        m = g + 1
        n = len(w)
        while m < full and i + m < n and w[i + m] == rotation[m]:
            m += 1
        out = bytearray(w[:i])
        tail = rotation[m:]
        kept = i - _cancel(out, invert(tail), tail)
        rest = w[i + m :]
        joined = len(out)
        kept = min(kept, joined - _cancel(out, rest, invert(rest)))
        start = max(0, kept - g)
        w = bytes(out)
    return w


def dehn_reduce(pres: SurfacePresentation, word) -> Word:
    """Strict Dehn reduction: repeatedly replace any subword strictly
    longer than half of a relator rotation by the shorter complement, then
    freely reduce, until no such subword remains.

    Idempotent and never length-increasing.  At every genus the result is
    empty if and only if the word represents the identity (Greendlinger's
    lemma; see the module docstring).

    >>> p = get_presentation(4)
    >>> dehn_reduce(p, (1, 1, 2, 2, 3))
    (-4, -4, -3)
    >>> dehn_reduce(p, (1, 2, 2, 2, 3))
    (1, 2, 2, 2, 3)
    """
    return unpack(_strict_pass(pres, pack(free_reduce(word))))


def reduce_image(pres: SurfacePresentation, pairs, word) -> bytes:
    """Packed Dehn-reduced image of ``word`` under the substitution
    x_i -> pairs[i-1][0], where ``pairs`` is the list of every generator's
    packed image with its packed inverse.

    The images must be freely reduced; that precondition is the caller's.
    The result equals ``dehn_reduce`` of the concatenated images: a freely
    reduced image can only cancel against the end of the product built so
    far, so free cancellation runs only where two images meet
    (:func:`_cancel`), and the strict pass then sees the same freely
    reduced word.
    """
    out = bytearray()
    for letter in word:
        if letter > 0:
            piece, inv = pairs[letter - 1]
        else:
            inv, piece = pairs[-letter - 1]
        _cancel(out, piece, inv)
    return _strict_pass(pres, bytes(out))


def is_trivial(pres: SurfacePresentation, word) -> bool:
    """True iff the word represents the identity of pi_1(N_g): strict Dehn
    reduction empties it, which decides at every genus (Greendlinger's
    lemma under C'(1/6) for g >= 4 and C'(1/4)-T(4) at g = 3; see the
    module docstring).
    """
    result = not dehn_reduce(pres, word)
    # Abelianization is a one-sided oracle: a trivial word must die in H_1.
    if result and any(abelianized(pres.genus, word)):
        raise InvariantViolation(f"trivial word {format_word(word)} has nonzero homology")
    return result


# ---------------------------------------------------------------------------
# Cyclic words and conjugacy


def _cyclic_free_reduce(word: Word) -> tuple:
    """Freely and cyclically reduce: returns (core, pre) with
    word = pre core pre^-1 and core cyclically reduced."""
    w = free_reduce(word)
    k = 0
    while len(w) - 2 * k >= 2 and w[k] == -w[-1 - k]:
        k += 1
    return w[k : len(w) - k], w[:k]


def _least_rotation(word: Word) -> tuple:
    """(rotation, k): the least rotation word[k:] + word[:k] of a nonempty
    word, at the least such k.  It starts with the word's least letter."""
    lo = min(word)
    return min((word[k:] + word[:k], k) for k, letter in enumerate(word) if letter == lo)


def _component(pres: SurfacePresentation, start: Word):
    """Closure of a cyclically reduced cyclic word under half-exchange.
    Returns ('done', members, None), where ``members`` maps the least
    rotation of each member to its conjugator c (start = c member c^-1),
    unless an exchange shortens the word, in which case it returns
    ('shrunk', word, conjugator).

    The windows of a cyclic word of length n >= g are the slices of
    length g that start at its n positions, read from the word written
    twice.  An exchange at position i replaces the window, half a relator
    rotation, by the inverse of the other half, in front of the rest of
    the rotation that starts at i, and cyclically free-reduces.  A strict
    window, one letter longer, cancels at the end of its own exchange, so
    every member that a strict pass would shorten shrinks here too.  A
    word shorter than g has no window, and its closure is itself.
    """
    g = pres.genus
    rotations = pres._rotations
    n = len(start)
    sites = range(n) if n >= g else ()
    key, k = _least_rotation(start)
    members = {key: start[:k]}
    queue = deque([key])
    while queue:
        if len(members) > SATURATION_CAP:
            raise BudgetExceeded(f"cyclic component exceeded {SATURATION_CAP} words")
        current = queue.popleft()
        twice = current + current
        packed = pack(twice)
        for i in sites:
            rotation = rotations.get(packed[i : i + g])
            if rotation is None:
                continue
            swapped, pre = _cyclic_free_reduce(unpack(invert(rotation[g:])) + twice[i + g : i + n])
            if len(swapped) < n:
                return ("shrunk", swapped, mul(members[current], current[:i], pre))
            key, k = _least_rotation(swapped)
            if key not in members:
                members[key] = mul(members[current], current[:i], pre, swapped[:k])
                queue.append(key)
    return ("done", members, None)


def _canonical_with_conj(pres: SurfacePresentation, word) -> tuple:
    """Canonical cyclic form K and conjugator c with word = c K c^-1 in the
    group.  Conjugate words share the same K.

    The Dehn-reduced word is cyclically reduced and its component searched;
    an exchange that shortens a member restarts the search from that
    shorter word.  A strict window cancels at the end of its exchange, so
    the final component is one of cyclic words that hold no strict
    window, and K is the least of its members' least rotations.  The pair
    is memoized per word in ``pres._canonical_cache``.
    """
    word = tuple(word)
    cached = pres._canonical_cache.get(word)
    if cached is not None:
        return cached
    w, conj = _cyclic_free_reduce(dehn_reduce(pres, word))
    while w:
        outcome, payload, extra = _component(pres, w)
        if outcome == "done":
            w = min(payload)
            conj = mul(conj, payload[w])
            break
        w, conj = payload, mul(conj, extra)
    pres._canonical_cache[word] = (w, conj)
    return w, conj


def cyclic_canonical(pres: SurfacePresentation, word) -> Word:
    """Canonical representative of the conjugacy class of ``word``."""
    return _canonical_with_conj(pres, word)[0]


def is_conjugate(pres: SurfacePresentation, a, b) -> bool:
    """True iff ``a`` and ``b`` are conjugate in pi_1(N_g).

    Decided by comparing canonical cyclic forms; a quick abelianization
    test (a conjugation invariant) short-circuits most negatives.
    """
    a, b = tuple(a), tuple(b)
    if abelianized(pres.genus, a) != abelianized(pres.genus, b):
        return False
    return cyclic_canonical(pres, a) == cyclic_canonical(pres, b)


def _primitive_root(pres: SurfacePresentation, canon: Word, conj: Word) -> Word:
    """Primitive root of the element conj * canon * conj^-1: the centralizer
    of a nontrivial element is cyclic on this root.  Detected as literal
    periodicity of a member of the canonical component; failures only cost
    candidates, never correctness."""
    n = len(canon)
    for d in range(1, n):
        if n % d:
            continue
        if canon == canon[:d] * (n // d):
            return mul(conj, canon[:d], inverse(conj))
    return mul(conj, canon, inverse(conj))


def conjugator(pres: SurfacePresentation, a, b) -> Word:
    """The conjugator c = conj_b conj_a^-1 with c a c^-1 = b that matching
    the canonical forms a = conj_a K conj_a^-1 and b = conj_b K conj_b^-1
    gives, verified with ``is_trivial``.

    Raises ConjugacyMismatch if the two words are not conjugate, and
    InvariantViolation if the matched conjugator fails the check, which
    only wrong canonical forms can cause.
    """
    a, b = tuple(a), tuple(b)
    canon_a, conj_a = _canonical_with_conj(pres, a)
    canon_b, conj_b = _canonical_with_conj(pres, b)
    if canon_a != canon_b:
        raise ConjugacyMismatch(
            f"{format_word(a)} and {format_word(b)} are not conjugate"
        )
    c = mul(conj_b, inverse(conj_a))
    if not is_trivial(pres, mul(c, a, inverse(c), inverse(b))):
        raise InvariantViolation("canonical matching produced no valid conjugator")
    return c


def letter_conjugator(pres: SurfacePresentation, packed, i: int):
    """The packed b with b x_i b^-1 = w for the freely reduced packed word
    ``packed`` = w, if w is conjugate to the letter x_i, and None otherwise.

    One cyclic strict reduction, carrying the conjugator c with
    w = c core c^-1: the letters that cancel cyclically move into c; a
    strict window of the cyclic word, found among the n length-g slices of
    the word written twice as in :func:`_component`, is rotated to the
    front, the rotated prefix joins c, and the strict pass shortens the
    word.  When neither applies, the core is cyclically reduced and holds
    no strict window in its cyclic word, and w is conjugate to x_i exactly
    when the core is x_i:

    *Claim.* A cyclically reduced word v, conjugate to x_i, whose cyclic
    word holds no subword longer than half a relator rotation, is x_i.

    *Proof.*  If v and x_i are conjugate in the free group, v is a
    cyclic permutation of x_i, so v = x_i.  Otherwise there is a reduced
    annular diagram with boundary labels v and x_i and at least one region
    (Lyndon-Schupp, Combinatorial Group Theory, ch. V sec. 5).  Both labels
    are cyclically reduced, x_i is nontrivial, and neither cyclic word holds
    more than half a rotation (x_i has one letter, g >= 3).  The rotations
    satisfy C'(1/6) for g >= 4 and C'(1/4)-T(4) at g = 3 (module
    docstring), and under either hypothesis such a diagram has one layer
    (ch. V sec. 5): every region has an edge on each boundary.  The inner
    boundary is the one edge x_i, so there is exactly one region D, whose
    boundary reads a rotation r of the relator or of its inverse, 2g
    letters.  An edge of D off both boundaries would have D on both sides:
    D glued to itself, so r would hold a letter and its inverse.  Every
    rotation has letters of one sign only, so no such edge exists, and the
    2g - 1 edges of D other than x_i all lie on the outer boundary, where
    they are read consecutively: v's cyclic word holds 2g - 1 >= g + 1
    letters of a rotation, a strict window.  This contradicts the
    hypothesis, so the second case cannot occur.

    Each strict replacement shortens the word, so the loop ends.
    """
    g = pres.genus
    rotations = pres._rotations
    w = packed
    conj = bytearray()
    while True:
        n = len(w)
        k = 0
        while 2 * k + 1 < n and w[k] == NEG[w[n - 1 - k]]:
            k += 1
        _cancel(conj, w[:k], invert(w[:k]))
        w = w[k : n - k]
        n -= 2 * k
        if n <= g:
            break
        twice = w + w
        for j in range(n):
            rotation = rotations.get(twice[j : j + g])
            if rotation is not None and twice[j + g] == rotation[g]:
                break
        else:
            break
        _cancel(conj, w[:j], invert(w[:j]))
        w = _strict_pass(pres, w[j:] + w[:j])
    return bytes(conj) if w == pres.letters_packed[i - 1][0] else None


def find_conjugators(pres: SurfacePresentation, a, b, bound: int = CONJ_BOUND) -> list:
    """The verified conjugators c with c a c^-1 = b among base z^k,
    |k| <= bound, in the order base, base z, base z^-1, base z^2, ...:
    ``base`` is :func:`conjugator`'s and z is the primitive root of ``a``,
    which spans its centralizer.

    Raises ConjugacyMismatch if the two words are not conjugate, and
    InvariantViolation if the base conjugator does not verify.
    """
    a, b = tuple(a), tuple(b)
    base = conjugator(pres, a, b)
    canon, conj = _canonical_with_conj(pres, a)
    if not canon:
        return [base]
    root = _primitive_root(pres, canon, conj)
    b_inv = inverse(b)
    found = [base]
    power = inv_power = ()
    for _ in range(bound):
        power = mul(power, root)
        inv_power = mul(inv_power, inverse(root))
        for c in (mul(base, power), mul(base, inv_power)):
            if is_trivial(pres, mul(c, a, inverse(c), b_inv)):
                found.append(c)
    return found
