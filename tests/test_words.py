"""Word engine: reduction, triviality, conjugacy, and their oracles."""

import doctest
import functools
import importlib
import itertools
import pkgutil
import random
import re
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mcgverify
import mcgverify.words
from mcgverify.errors import ConjugacyMismatch, InvariantViolation, OutOfRange
from mcgverify.words import (
    MAX_GENUS,
    SurfacePresentation,
    _canonical_with_conj,
    _component,
    _strict_pass,
    abelianized,
    conjugator,
    cyclic_canonical,
    dehn_reduce,
    find_conjugators,
    format_word,
    free_reduce,
    get_presentation,
    invert,
    inverse,
    is_conjugate,
    is_trivial,
    letter_conjugator,
    mul,
    pack,
    reduce_image,
    unpack,
)

from conftest import random_word, relator_rotations, rescan_strict_pass


PACKAGE_MODULES = ["mcgverify"] + [
    info.name for info in pkgutil.iter_modules(mcgverify.__path__, "mcgverify.")
]


@pytest.mark.parametrize("name", PACKAGE_MODULES)
def test_doctests(name):
    failures, _ = doctest.testmod(importlib.import_module(name))
    assert failures == 0


# ---------------------------------------------------------------------------
# free reduction


def brute_free_reduce(word):
    """Independent oracle: scan-and-cancel until stable."""
    word = list(word)
    changed = True
    while changed:
        changed = False
        for i in range(len(word) - 1):
            if word[i] == -word[i + 1]:
                del word[i : i + 2]
                changed = True
                break
    return tuple(word)


def test_free_reduce_examples():
    assert free_reduce((1, -1, 2)) == (2,)
    assert free_reduce(()) == ()


def test_free_reduce_against_oracle(rng):
    for _ in range(2000):
        w = random_word(rng, 4, 20)
        assert free_reduce(w) == brute_free_reduce(w)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([1, -1, 2, -2, 3, -3, 4, -4]), max_size=40))
def test_free_reduce_word_times_inverse_dies(letters):
    w = tuple(letters)
    assert free_reduce(w + inverse(w)) == ()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=30))
def test_free_reduce_idempotent_never_longer(letters):
    w = tuple(letters)
    r = free_reduce(w)
    assert free_reduce(r) == r
    assert len(r) <= len(w)


def test_parse_format_roundtrip():
    assert format_word((1, -2, 3, 3)) == "x1 x2^-1 x3 x3"
    assert format_word(()) == "1"


# ---------------------------------------------------------------------------
# presentation and Dehn reduction


def test_presentation_shape():
    for g in (3, 4, 5, 8):
        p = SurfacePresentation(g)
        assert len(p.relator) == 2 * g
        assert len(p._rotations) == 4 * g
        assert len(set(p._rotations.values())) == 4 * g


@pytest.mark.parametrize("genus", [3, 4, 5, 30, MAX_GENUS])
def test_rotation_table_matches_tuple_rotations(genus):
    """``_rotations`` holds the 4g packed rotations of the relator and of
    its inverse, each keyed by its first g letters, and nothing more: its
    keys and values hold 12g^2 bytes."""
    table = get_presentation(genus)._rotations
    assert len(table) == 4 * genus
    assert sorted(table.values()) == sorted(map(pack, relator_rotations(genus)))
    assert all(key == rotation[:genus] for key, rotation in table.items())
    assert sum(len(key) + len(rotation) for key, rotation in table.items()) == 12 * genus**2


def test_presentation_rejects_small_genus():
    with pytest.raises(ValueError):
        SurfacePresentation(2)


def test_dehn_reduce_examples(pres4):
    assert dehn_reduce(pres4, (1, 1, 2, 2, 3, 3, 4, 4)) == ()
    assert dehn_reduce(pres4, (1,)) == (1,)
    # x1^2 x2^2 x3^2 = x4^-2, so dropping one x4 leaves x4^-1
    assert dehn_reduce(pres4, (1, 1, 2, 2, 3, 3, 4)) == (-4,)


def test_dehn_reduce_idempotent_monotone(pres4, rng):
    for _ in range(2000):
        w = random_word(rng, 4, 30)
        r = dehn_reduce(pres4, w)
        assert dehn_reduce(pres4, r) == r
        assert len(r) <= len(free_reduce(w))


# ---------------------------------------------------------------------------
# prefiltered window scans against full scans


@functools.lru_cache(maxsize=None)
def tuple_strict_table(genus):
    """Each rotation's prefix of length g+1, as a tuple, to the rotation."""
    return {s[: genus + 1]: s for s in relator_rotations(genus)}


@functools.lru_cache(maxsize=None)
def tuple_half_table(genus):
    """Each rotation's first half, as a tuple, to the inverse of its second."""
    return {s[:genus]: inverse(s[genus:]) for s in relator_rotations(genus)}


def full_scan_strict_pass(pres, word, log=None):
    """Oracle: strict reduction of tuple words that looks up every window
    and freely reduces the whole word after each replacement.  Appends
    (start, end, length) of each replaced window to ``log``."""
    g = pres.genus
    window = g + 1
    full = 2 * g
    strict = tuple_strict_table(g)
    w = word
    i = 0
    while i + window <= len(w):
        shift = strict.get(w[i : i + window])
        if shift is None:
            i += 1
            continue
        m = window
        n = len(w)
        while m < full and i + m < n and w[i + m] == shift[m]:
            m += 1
        if log is not None:
            log.append((i, i + m, n))
        w = mul(w[:i], inverse(shift[m:]), w[i + m :])
        i = 0
    return w


def full_scan_half_swaps(pres, word):
    """Oracle: half-exchanges that look up every tuple window of length g."""
    g = pres.genus
    half = tuple_half_table(g)
    for i in range(len(word) - g + 1):
        replacement = half.get(word[i : i + g])
        if replacement is not None:
            yield mul(word[:i], replacement, word[i + g :])


def doubled_run(rng, genus):
    """floor(g/2) doubled letters in a row, each pair's letter drawn at
    random (never the inverse of the one before), so the run passes the
    ``_doubled`` prefilter but is rarely a relator piece."""
    run = []
    for _ in range(genus // 2):
        letter = rng.choice([x for i in range(1, genus + 1) for x in (i, -i)
                             if not run or x != -run[-1]])
        run += [letter, letter]
    return tuple(run)


def scan_words(rng, pres):
    """Freely reduced words that exercise the window scans: relator pieces
    of length g+1..2g-1 spliced at the start, at the end and in the middle,
    two pieces back to back, words of length g and g+1, windows whose end
    letters fit a rotation while the letters between do not, runs of
    floor(g/2) doubled letters that are no relator piece, and exactly-half
    pieces, which pass the prefilter but hold no strict window."""
    g = pres.genus

    def piece():
        return rng.choice(relator_rotations(g))[: rng.randrange(g + 1, 2 * g)]

    def spurious():
        s = rng.choice(relator_rotations(g))
        middle = random_word(rng, g, g - 1, min_len=g - 1)
        return (s[0],) + middle + (s[g],)

    for _ in range(60):
        filler = random_word(rng, g, 2 * g)
        yield piece() + filler
        yield filler + piece()
        k = rng.randrange(len(filler) + 1)
        yield filler[:k] + piece() + filler[k:]
        yield piece() + piece()
        yield random_word(rng, g, g, min_len=g)
        yield random_word(rng, g, g + 1, min_len=g + 1)
        yield rng.choice(relator_rotations(g))[: rng.choice((g, g + 1))]
        yield spurious()
        yield filler[:k] + spurious() + filler[k:]
        yield filler[:k] + doubled_run(rng, g) + filler[k:]
        yield filler[:k] + rng.choice(relator_rotations(g))[:g] + filler[k:]
    yield (1, 2, 2, 2, 3)  # at genus 4: end pair (1, 3) fits, no piece


@pytest.mark.parametrize("genus", range(3, 13))
def test_prefiltered_scans_match_full_scans(genus):
    """The prefiltered strict pass equals the full scan, on words that the
    ``_doubled`` prefilter rejects and on words it passes, with or without
    a strict window."""
    pres = get_presentation(genus)
    rng = random.Random(genus)
    # windows whose end letters are those of a strict window, and which
    # are no relator piece, must occur
    ends = {(s[0], s[genus]) for s in relator_rotations(genus)}
    strict = tuple_strict_table(genus)
    spurious_seen = 0
    branches = set()
    for word in scan_words(rng, pres):
        w = free_reduce(word)
        want = full_scan_strict_pass(pres, w)
        assert unpack(_strict_pass(pres, pack(w))) == want, w
        spurious_seen += any(
            (w[i], w[i + genus]) in ends and w[i : i + genus + 1] not in strict
            for i in range(len(w) - genus)
        )
        p = pack(w)
        if len(w) > genus:
            if not pres._doubled(p):
                branches.add("rejected")
            else:
                branches.add("passed, replaced" if want != w else "passed, no window")
    assert spurious_seen > 0
    assert branches == {"rejected", "passed, replaced", "passed, no window"}


def planted_full_relators(rng, genus, count):
    """(word, i): a freely reduced word p R q with a whole relator rotation
    R at i = len(p), the leftmost strict window.  q starts with the inverse
    of the last j >= g letters of p, so removing R cancels them: the
    replacement's second junction cancels back into the kept prefix.  Then
    q goes on with the g letters that follow the letter a before them in
    the rotation that starts at a between two doubled letters, so the word
    left holds a strict window at a, more than g letters before i.  p has
    no doubled letter, and its last letter neither precedes R cyclically
    nor cancels R's first."""
    letters = [x for i in range(1, genus + 1) for x in (i, -i)]
    rotations = relator_rotations(genus)
    planted = []
    while len(planted) < count:
        r = rng.choice(rotations)
        j = rng.randrange(genus, 2 * genus)
        length = j + 1 + rng.randrange(genus)
        p = []
        while len(p) < length or p[-1] in (r[-1], -r[0]):
            p.append(rng.choice([x for x in letters if not p or x not in (p[-1], -p[-1])]))
        (s,) = [s for s in rotations if s[0] == p[-j - 1] and s[1] != s[0]]
        if s[1] == p[-j]:
            continue
        filler = free_reduce(random_word(rng, genus, 2 * genus))
        while filler and filler[0] == -s[genus]:
            filler = filler[1:]
        q = inverse(tuple(p[-j:])) + s[1 : genus + 1] + filler
        planted.append((tuple(p) + r + q, len(p)))
    return planted


@pytest.mark.parametrize("genus", [3, 4, 5, 8, 30, MAX_GENUS])
def test_strict_pass_matches_rescanning_pass(genus):
    """``_strict_pass`` starts one letter before the prefilter's first match
    and resumes g letters before the first letter a replacement changed;
    byte for byte it gives what the pass that rescans the whole word after
    every replacement gives (``rescan_strict_pass``).  The words are those
    of the window scans, runs of strict pieces back to back, and whole
    relators whose removal cancels back into the kept prefix."""
    pres = get_presentation(genus)
    rng = random.Random(5200 + genus)
    words = [free_reduce(w) for w in scan_words(rng, pres)]
    for _ in range(60):
        pieces = [rng.choice(relator_rotations(genus))[: rng.randrange(genus + 1, 2 * genus + 1)]
                  for _ in range(rng.randrange(2, 5))]
        words.append(free_reduce(random_word(rng, genus, genus) + sum(pieces, ())))
    planted = planted_full_relators(rng, genus, 40)
    for w, i in planted:
        assert free_reduce(w) == w
        log = []
        full_scan_strict_pass(pres, w, log)
        assert log[0][:2] == (i, i + 2 * genus), w
    words += [w for w, _ in planted]
    replacements = []
    for w in words:
        log = []
        want = full_scan_strict_pass(pres, w, log)
        packed = pack(w)
        got = _strict_pass(pres, packed)
        assert got == rescan_strict_pass(pres, packed) == pack(want), w
        replacements.append(len(log))
    assert max(replacements) >= 3 and replacements.count(0) > 0


def test_doubled_prefilter_matches_every_strict_window():
    """Every window of length g+1..2g of every rotation of the relator and
    of its inverse matches ``_doubled``, at every genus up to the cap, so
    the prefilter never rejects a word the scan would change.  One doubled
    letter more would miss a window of length g+1 that starts in the
    middle of a pair."""
    for g in range(3, MAX_GENUS + 1):
        pres = get_presentation(g)
        doubled = pres._doubled
        packed = [pack(s) for s in relator_rotations(g)]
        for p in packed:
            assert all(map(doubled, (p[:n] for n in range(g + 1, 2 * g + 1)))), (g, p)
        longer = re.compile(rb"(?:(.)\1){%d}" % (g // 2 + 1), re.S).search
        assert not all(longer(p[: g + 1]) for p in packed), g


def doubling_word(rng, genus, length):
    """A word that repeats its last letter with probability 1/2, so runs of
    doubled letters of every length occur."""
    letters = [x for i in range(1, genus + 1) for x in (i, -i)]
    word = [rng.choice(letters)]
    while len(word) < length:
        word.append(word[-1] if rng.random() < 0.5 else rng.choice(letters))
    return tuple(word)


@pytest.mark.parametrize("genus", [*range(3, 13), 24, 30, MAX_GENUS])
def test_doubled_prefilter_matches_repeated_group_pattern(genus):
    """``_doubled``, one group per doubled letter, finds the same match as
    the pattern with one repeated group, ``(?:(.)\\1){floor(g/2)}``: on
    every relator window of length g, g+1 and 2g, and on random words
    biased toward doubled letters, with a doubled run spliced in or not."""
    pres = get_presentation(genus)
    repeated = re.compile(rb"(?:(.)\1){%d}" % (genus // 2), re.S).search
    rng = random.Random(4400 + genus)
    words = [pack(s)[:n] for s in relator_rotations(genus)
             for n in (genus, genus + 1, 2 * genus)]
    for _ in range(300):
        filler = doubling_word(rng, genus, rng.randrange(1, 3 * genus))
        k = rng.randrange(len(filler) + 1)
        words.append(pack(filler))
        words.append(pack(filler[:k] + doubled_run(rng, genus) + filler[k:]))
    matched = 0
    for p in words:
        want, got = repeated(p), pres._doubled(p)
        assert (got and got.span()) == (want and want.span()), (genus, p)
        matched += want is not None
    assert 0 < matched < len(words)


# ---------------------------------------------------------------------------
# the packed kernel against tuple oracles


def tuple_reduce_image(pres, images, word, log=None):
    """Oracle: substitution that cancels one letter at a time.  Appends
    (cancelled, piece length, length before, letters the previous piece
    left) for each junction to ``log``."""
    out = []
    left = 0
    for letter in word:
        piece = images[letter - 1] if letter > 0 else inverse(images[-letter - 1])
        before = len(out)
        k = 0
        while out and k < len(piece) and out[-1] == -piece[k]:
            out.pop()
            k += 1
        out.extend(piece[k:])
        if log is not None:
            log.append((k, len(piece), before, left))
        left = len(piece) - k
    return full_scan_strict_pass(pres, tuple(out), log)


def kernel_cases(rng, pres, count):
    """(images, word) pairs: seeded freely reduced images, many of length 1,
    and words built so that a piece cancels whole, a cancellation empties
    the product, one runs back through the previous piece, relator pieces
    longer than half a rotation sit at the start, at the end and back to
    back, and images are runs of doubled letters or exactly-half pieces,
    which pass the ``_doubled`` prefilter."""
    g = pres.genus
    letters = [x for i in range(1, g + 1) for x in (i, -i)]

    def strict_piece():
        return rng.choice(relator_rotations(g))[: rng.randrange(g + 1, 2 * g + 1)]

    def noise(n):
        return free_reduce(random_word(rng, g, n, min_len=1)) or (rng.choice(letters),)

    for _ in range(count):
        images = [(rng.choice(letters),) if rng.random() < 0.5 else noise(6) for _ in range(g)]
        a, b, c = rng.sample(range(g), 3)
        # b cancels a tail of a, or all of it
        r = rng.randrange(1, len(images[a]) + 1)
        images[b] = inverse(images[a][-r:])
        # after a a, c cancels the second a and runs back into the first
        r = rng.randrange(1, len(images[a]) + 1)
        images[c] = free_reduce(inverse(images[a][-r:] + images[a]) + noise(3))
        filler = tuple(rng.choice((x + 1, -x - 1)) for x in rng.sample(range(g), 2))
        yield images, (a + 1, b + 1) + filler
        yield images, filler + (a + 1, a + 1, c + 1)
        yield images, (a + 1, -(a + 1)) + filler
        yield images, random_word(rng, g, 12)
        # strict pieces as images: at the start, at the end, back to back
        images = list(images)
        images[a], images[b] = strict_piece(), strict_piece()
        yield images, (a + 1,)
        yield images, (a + 1,) + filler
        yield images, filler + (b + 1,)
        yield images, filler + (a + 1, b + 1) + filler
        yield images, random_word(rng, g, 12)
        # doubled runs and exactly-half pieces as images
        images[a], images[b] = doubled_run(rng, g), rng.choice(relator_rotations(g))[:g]
        yield images, filler + (a + 1,) + filler
        yield images, filler + (b + 1,) + filler
        yield images, random_word(rng, g, 12)


@pytest.mark.parametrize("genus", [*range(3, 13), 24, 30, MAX_GENUS])
def test_packed_kernel_matches_tuple_oracles(genus):
    pres = get_presentation(genus)
    rng = random.Random(9100 + genus)
    seen = set()
    for images, word in kernel_cases(rng, pres, 60):
        pairs = [(pack(im), pack(inverse(im))) for im in images]
        log = []
        want = tuple_reduce_image(pres, images, word, log)
        assert unpack(reduce_image(pres, pairs, word)) == want, (images, word)
        pieces = [images[l - 1] if l > 0 else inverse(images[-l - 1]) for l in word]
        plain = free_reduce(itertools.chain(*pieces))
        reduced = full_scan_strict_pass(pres, plain)
        assert unpack(_strict_pass(pres, pack(plain))) == reduced
        passed = len(plain) > genus and pres._doubled(pack(plain))
        junctions = [e for e in log if len(e) == 4]
        replaced = [e for e in log if len(e) == 3]
        seen.update(
            label
            for label, hit in [
                ("length-1 piece", any(n == 1 for _, n, _, _ in junctions)),
                ("whole piece", any(0 < n == k for k, n, _, _ in junctions)),
                ("emptied", any(0 < before == k for k, _, before, _ in junctions)),
                ("runs back", any(k > left > 0 for k, _, _, left in junctions)),
                ("strict at start", any(i == 0 for i, _, _ in replaced)),
                ("strict at end", any(end == n for _, end, n in replaced)),
                ("back to back", len(replaced) > 1),
                ("prefilter rejects", len(plain) > genus and not passed),
                ("prefilter passes, no window", passed and reduced == plain),
            ]
            if hit
        )
    assert seen == {"length-1 piece", "whole piece", "emptied", "runs back",
                    "strict at start", "strict at end", "back to back",
                    "prefilter rejects", "prefilter passes, no window"}


def test_genus_cap():
    """Letters up to MAX_GENUS pack and unpack exactly; one more is refused."""
    with pytest.raises(OutOfRange, match="127"):
        SurfacePresentation(MAX_GENUS + 1)
    pres = get_presentation(MAX_GENUS)
    assert pres.letters_packed[-1] == (b"\x7f", b"\x81")
    word = (MAX_GENUS, -MAX_GENUS, 1, -1, -MAX_GENUS)
    assert unpack(pack(word)) == word
    assert unpack(invert(pack(word))) == inverse(word)
    assert dehn_reduce(pres, pres.relator) == ()
    assert dehn_reduce(pres, pres.relator[:-1]) == (-MAX_GENUS,)


def test_is_trivial_examples(pres4):
    assert is_trivial(pres4, pres4.relator)
    assert not is_trivial(pres4, (2,))


def test_trivial_on_relator_conjugates(pres4, rng):
    for _ in range(500):
        u = random_word(rng, 4, 20)
        assert is_trivial(pres4, mul(u, pres4.relator, inverse(u)))


def test_trivial_on_consequence_products(rng):
    # products of several relator conjugates must always reduce to empty
    for genus in (3, 4, 5):
        pres = get_presentation(genus)
        rel = pres.relator
        for _ in range(300):
            parts = []
            for _ in range(rng.randrange(1, 4)):
                u = random_word(rng, genus, 8)
                core = rel if rng.random() < 0.5 else inverse(rel)
                parts.append(mul(u, core, inverse(u)))
            assert is_trivial(pres, mul(*parts))


def test_genus3_relator_insertions_reduce_to_empty(pres3):
    """Strict reduction alone decides genus 3 (Greendlinger's lemma under
    C'(1/4)-T(4)): a word built by inserting relator rotations into the
    empty word, freely reducing after each, reduces to the empty word."""
    rng = random.Random(3)
    shifts = relator_rotations(3)
    for _ in range(3000):
        w = ()
        for _ in range(rng.randrange(1, 9)):
            k = rng.randrange(len(w) + 1)
            w = free_reduce(w[:k] + rng.choice(shifts) + w[k:])
        assert dehn_reduce(pres3, w) == (), w
        assert is_trivial(pres3, w), w


def test_no_false_trivials_abelianization(rng):
    # one-sided oracle: anything declared trivial must die in homology
    for genus in (3, 4, 5, 6):
        pres = get_presentation(genus)
        for _ in range(500):
            w = random_word(rng, genus, 24)
            if is_trivial(pres, w):
                assert not any(abelianized(genus, w))


@functools.lru_cache(maxsize=None)
def s4_quotient(genus):
    """Every homomorphism pi_1(N_g) -> S_4, one per class under
    simultaneous conjugation, packed into one permutation per letter: block
    k of 4 points carries the k-th homomorphism.  A homomorphism is a
    choice of x_1..x_g in S_4 with x_1^2 ... x_g^2 = 1.  Returns the map
    letter -> permutation and the identity permutation.  The subgroups of
    S_4 include S_3 and S_2, so their homomorphisms are among these."""
    perms = list(itertools.permutations(range(4)))
    ident = tuple(range(4))

    def then(p, q):
        return tuple(q[i] for i in p)

    inv = {p: tuple(sorted(range(4), key=p.__getitem__)) for p in perms}
    square_roots = {}
    for p in perms:
        square_roots.setdefault(then(p, p), []).append(p)
    conjugations = [{p: then(then(inv[s], p), s) for p in perms} for s in perms]
    classes = set()
    for head in itertools.product(perms, repeat=genus - 1):
        acc = ident
        for p in head:
            acc = then(acc, then(p, p))
        for last in square_roots.get(inv[acc], ()):
            images = head + (last,)
            classes.add(min(tuple(map(conj.__getitem__, images)) for conj in conjugations))
    classes = sorted(classes)
    gens = {}
    for i in range(genus):
        perm = tuple(4 * k + images[i][j] for k, images in enumerate(classes) for j in range(4))
        gens[i + 1] = perm
        gens[-(i + 1)] = tuple(sorted(range(len(perm)), key=perm.__getitem__))
    return gens, tuple(range(4 * len(classes)))


def s4_image(genus, word):
    """The permutation ``word`` maps to under :func:`s4_quotient`."""
    gens, perm = s4_quotient(genus)
    for letter in word:
        perm = itemgetter(*perm)(gens[letter])
    return perm


def s4_classes(perm):
    """The conjugacy class in S_4 of each block of a packed permutation, as
    sorted (block, cycle length) pairs."""
    seen = set()
    cycles = []
    for i in range(len(perm)):
        n, j = 0, i
        while j not in seen:
            seen.add(j)
            j = perm[j]
            n += 1
        if n:
            cycles.append((i // 4, n))
    return sorted(cycles)


def test_genus3_trivial_words_die_in_s4_quotients(pres3):
    """One-sided finite-quotient oracle for the genus-3 word problem: every
    word ``is_trivial`` accepts maps to the identity under every
    homomorphism to S_4.  The sample holds random words, products of
    relator conjugates, and such products with a commutator spliced in,
    which die in homology but mostly not in S_4."""
    ident = s4_quotient(3)[1]
    assert s4_image(3, pres3.relator) == ident
    assert s4_image(3, (1,)) != ident
    rng = random.Random(3300)
    letters = [1, 2, 3, -1, -2, -3]
    accepted = past_homology = 0
    for _ in range(1500):
        parts = []
        for _ in range(rng.randrange(1, 4)):
            u = random_word(rng, 3, 8)
            parts.append(mul(u, rng.choice(relator_rotations(3)), inverse(u)))
        product = mul(*parts)
        k = rng.randrange(len(product) + 1)
        a, b = rng.sample(letters, 2)
        spliced = mul(product[:k], (a, b, -a, -b), product[k:])
        for w in (random_word(rng, 3, 24), product, spliced):
            trivial_image = s4_image(3, w) == ident
            if is_trivial(pres3, w):
                assert trivial_image, w
                accepted += 1
            elif not trivial_image and not any(abelianized(3, w)):
                past_homology += 1
    assert accepted >= 1500
    assert past_homology >= 1000


def test_genus3_conjugates_stay_conjugate_in_s4_quotients(pres3):
    """One-sided finite-quotient oracle for genus-3 conjugacy, whose
    canonical forms close under half-exchanges: two words
    ``is_conjugate`` accepts map to conjugate permutations under every
    homomorphism to S_4.  Each pair is a conjugate of ``a`` after two
    random half-exchanges, with a commutator spliced in or not."""
    rng = random.Random(3301)
    letters = [1, 2, 3, -1, -2, -3]
    accepted = rejected = 0
    for _ in range(200):
        a = random_word(rng, 3, 8)
        u = random_word(rng, 3, 6)
        b = mul(u, a, inverse(u))
        for _ in range(2):
            swaps = list(full_scan_half_swaps(pres3, b))
            if swaps:
                b = rng.choice(swaps)
        k = rng.randrange(len(b) + 1)
        x, y = rng.sample(letters, 2)
        spliced = mul(b[:k], (x, y, -x, -y), b[k:])
        for c in (b, spliced):
            if is_conjugate(pres3, a, c):
                assert s4_classes(s4_image(3, a)) == s4_classes(s4_image(3, c)), (a, c)
                accepted += 1
            else:
                rejected += 1
    assert accepted >= 200 and rejected >= 100


# ---------------------------------------------------------------------------
# cyclic words and conjugacy


def test_cyclic_reduce_examples(pres4):
    assert cyclic_canonical(pres4, (1, 2, -1)) == cyclic_canonical(pres4, (2,))
    assert cyclic_canonical(pres4, ()) == ()


def test_cyclic_rotation_invariance(pres4, rng):
    for _ in range(300):
        w = random_word(rng, 4, 14)
        if not w:
            continue
        k = rng.randrange(len(w))
        assert cyclic_canonical(pres4, w) == cyclic_canonical(pres4, w[k:] + w[:k])


def test_cyclic_word_hashable(pres4):
    a = cyclic_canonical(pres4, (1, 2))
    b = cyclic_canonical(pres4, (2, 1))
    assert a == b and hash(a) == hash(b)


def test_conjugate_by_construction(pres4, rng):
    for _ in range(400):
        w = random_word(rng, 4, 10)
        u = random_word(rng, 4, 8)
        assert is_conjugate(pres4, w, mul(u, w, inverse(u)))


def test_not_conjugate_distinct_generators(pres4):
    assert not is_conjugate(pres4, (1,), (2,))


def test_conjugacy_through_relator_halves(pres4):
    # x1^2 x2^2 equals (x3^2 x4^2)^-1 in the group; the canonical forms
    # must agree even though the words are not rotations of each other.
    assert is_conjugate(pres4, (1, 1, 2, 2), (-4, -4, -3, -3))


def test_conjugacy_symmetric_transitive(pres4, rng):
    for _ in range(150):
        w = random_word(rng, 4, 8)
        u1 = random_word(rng, 4, 6)
        u2 = random_word(rng, 4, 6)
        a = mul(u1, w, inverse(u1))
        b = mul(u2, w, inverse(u2))
        assert is_conjugate(pres4, a, w) and is_conjugate(pres4, w, a)
        assert is_conjugate(pres4, a, b)


def spliced_word(rng, pres):
    """A random word, half the time with a piece longer than half a relator
    rotation spliced in, then rotated, so that the piece often wraps round
    the ends where only a rotation of the word exposes it to strict
    reduction.  Conjugated by a random word and left freely unreduced."""
    g = pres.genus
    core = random_word(rng, g, 10)
    if rng.random() < 0.5:
        k = rng.randrange(len(core) + 1)
        piece = rng.choice(relator_rotations(g))[: rng.randrange(g + 1, 2 * g + 1)]
        core = core[:k] + piece + core[k:]
        k = rng.randrange(len(core))
        core = core[k:] + core[:k]
    u = random_word(rng, g, 6)
    return u + core + inverse(u)


@pytest.mark.parametrize("genus", range(3, 8))
def test_canonical_form_conjugator_verifies(genus):
    """(K, c) = _canonical_with_conj(w) has c K c^-1 = w in the group, and a
    fresh presentation, whose memo is empty, returns the pair of the shared
    one."""
    rng = random.Random(genus)
    pres = get_presentation(genus)
    for _ in range(150):
        w = spliced_word(rng, pres)
        canon, conj = _canonical_with_conj(pres, w)
        assert is_trivial(pres, mul(conj, canon, inverse(conj), inverse(w))), w
        assert _canonical_with_conj(SurfacePresentation(genus), w) == (canon, conj), w
        assert cyclic_canonical(pres, w) == canon


def cyclic_free_reduce(word, conj):
    """Strip matching first/last letters: returns (core, conj') with
    word = conj' core conj'^-1 modulo the tracked outer conjugator."""
    w = free_reduce(word)
    pre = list(conj)
    while len(w) >= 2 and w[0] == -w[-1]:
        pre.append(w[0])
        w = w[1:-1]
    return w, tuple(pre)


def bfs_component(pres, start):
    """Oracle: the breadth-first closure of a cyclically reduced linear
    word under rotation and half-exchange, each neighbour cyclically
    reduced and strict-reduced: ('done', members, None) with members a
    dict word -> conjugator (start = c word c^-1), or ('shrunk', word,
    conjugator)."""
    members = {start: ()}
    queue = [start]
    for current in queue:
        neighbors = [(current[k:] + current[:k], current[:k]) for k in range(1, len(current))]
        neighbors += [(swapped, ()) for swapped in full_scan_half_swaps(pres, current)]
        for neighbor, step in neighbors:
            reduced, conj = cyclic_free_reduce(neighbor, ())
            reduced2 = unpack(_strict_pass(pres, pack(reduced)))
            if len(reduced2) < len(reduced):
                reduced, conj = cyclic_free_reduce(reduced2, conj)
            total = mul(members[current], step, conj)
            if len(reduced) < len(start):
                return ("shrunk", reduced, total)
            if reduced not in members:
                members[reduced] = total
                queue.append(reduced)
    return ("done", members, None)


def cyclically_reduced(word):
    return word == free_reduce(word) and not (word and word[0] == -word[-1])


def least_rotation(word):
    return min(word[k:] + word[:k] for k in range(len(word)))


def short_cyclic_words(genus):
    """Every cyclically reduced word shorter than g at g <= 5; seeded ones,
    some periodic, at larger g."""
    if genus <= 5:
        words = itertools.chain.from_iterable(all_words(genus, n) for n in range(1, genus))
        return [w for w in words if cyclically_reduced(w)]
    rng = random.Random(genus)
    words = []
    while len(words) < 300:
        w = random_word(rng, genus, genus - 1, min_len=1)
        w = (w * (genus // len(w)))[: genus - 1] if rng.random() < 0.2 else w
        if cyclically_reduced(w):
            words.append(w)
    return words


def long_cyclic_words(genus, count):
    """Cyclically reduced words of length g..3g: halves of four of the
    relator's rotations, the shortest words with an exchange, and seeded
    words with one or two relator pieces of length g or g+1 planted in
    them, then rotated, so that a piece may wrap round the ends."""
    rng = random.Random(genus)
    words = []
    while len(words) < count:
        w = random_word(rng, genus, 2 * genus)
        for _ in range(rng.choice((1, 1, 2))):
            k = rng.randrange(len(w) + 1)
            piece = rng.choice(relator_rotations(genus))[: genus + rng.randrange(2)]
            w = w[:k] + piece + w[k:]
        k = rng.randrange(len(w))
        w = w[k:] + w[:k]
        if cyclically_reduced(w) and genus <= len(w) <= 3 * genus:
            words.append(w)
    return [s[:genus] for s in relator_rotations(genus)[::genus]] + words


@pytest.mark.parametrize("genus", [3, 4, 5, 8, 12, 30])
def test_component_matches_breadth_first_search(genus, monkeypatch):
    """The closure of cyclic words under exchange agrees with the
    breadth-first closure of linear words under rotation and exchange, on
    starts shorter than g and of length g..3g: the same outcome, and on
    'done' the least rotations of the oracle's members as its keys.  The
    two routes reach members by different paths, so the canonical pair
    agrees in K, and its conjugator verifies.  Each route reads a fresh
    presentation, so neither reads the other's memo."""
    count = {3: 600, 4: 600, 5: 400, 8: 200, 12: 100, 30: 6}[genus]
    words = short_cyclic_words(genus) + long_cyclic_words(genus, count)
    pres = get_presentation(genus)
    outcomes = {"done": 0, "shrunk": 0}
    long_done = 0
    for w in words:
        outcome, payload, _ = _component(pres, w)
        want, want_payload, _ = bfs_component(pres, w)
        assert outcome == want, w
        outcomes[outcome] += 1
        if outcome == "done":
            assert set(payload) == {least_rotation(m) for m in want_payload}, w
            long_done += len(w) >= genus
    assert outcomes["shrunk"] > count // 10 and long_done > count // 10, outcomes
    fast = SurfacePresentation(genus)
    canonical = [_canonical_with_conj(fast, w) for w in words]
    monkeypatch.setattr(mcgverify.words, "_component", bfs_component)
    slow = SurfacePresentation(genus)
    for w, (canon, conj) in zip(words, canonical):
        assert _canonical_with_conj(slow, w)[0] == canon, w
        assert is_trivial(fast, mul(conj, canon, inverse(conj), inverse(w))), w


def letter_cases(rng, genus, count):
    """(word, i), i alternating 1, 2: seeded conjugates u v u^-1 of x_i, and
    as many near misses, in which v starts as another letter, x_i with a
    stray letter, or a stray letter with x_i^2.  One to three relator
    rotations are planted in v, half of them ending with the inverse of
    the letter after them, so that part of the rotation cancels; half the
    time a half window of a rotation in v is exchanged for the inverse of
    the other half; and v is rotated at random, so that a strict window
    may cross its ends."""
    g = genus
    letters = [x for j in range(1, g + 1) for x in (j, -j)]
    rotations = relator_rotations(g)
    halves = {r[:g]: r for r in rotations}
    cases = []
    for n in range(count):
        i = 1 + n % 2
        v = (i,)
        if n % 4 >= 2:
            j = rng.choice([x for x in letters if x != i])
            v = rng.choice(((j,), free_reduce((i, j)), free_reduce((j, i, i))))
        for _ in range(rng.randrange(1, 4)):
            k = rng.randrange(len(v) + 1)
            fits = [r for r in rotations if r[-1] == -v[k:k + 1][0]] if k < len(v) else []
            r = rng.choice(fits if fits and rng.random() < 0.5 else rotations)
            v = free_reduce(v[:k] + r + v[k:])
        sites = [k for k in range(len(v) - g + 1) if v[k:k + g] in halves]
        if sites and rng.random() < 0.5:
            k = rng.choice(sites)
            v = free_reduce(v[:k] + inverse(halves[v[k:k + g]][g:]) + v[k + g:])
        if v:
            k = rng.randrange(len(v))
            v = v[k:] + v[:k]
        u = random_word(rng, g, 6)
        cases.append((free_reduce(u + v + inverse(u)), i))
    return cases


@pytest.mark.parametrize("genus", [3, 4, 5, 6, 8, 12, 30])
def test_letter_conjugator_matches_canonical_forms(genus):
    """letter_conjugator agrees with the canonical-form oracle on seeded
    conjugates of x_1 and x_2 and near misses, and, at genus 3 and 4, on
    every freely reduced word of length <= 6 and <= 5: it returns None
    exactly when ``is_conjugate`` says no.  Each b it returns has
    b x_i b^-1 = w by ``is_trivial``, and differs from ``conjugator``'s by
    a power of x_i.  Both outcomes make up more than a tenth of the seeded
    cases."""
    pres = get_presentation(genus)
    seeded = letter_cases(random.Random(genus), genus, {30: 200}.get(genus, 400))
    longest = {3: 6, 4: 5}.get(genus, -1)
    words = itertools.chain.from_iterable(all_words(genus, n) for n in range(longest + 1))
    exhaustive = [(w, i) for w in words for i in (1, 2)]
    found = 0
    for n, (w, i) in enumerate(seeded + exhaustive):
        b = letter_conjugator(pres, pack(w), i)
        assert (b is not None) == is_conjugate(pres, w, (i,)), (w, i)
        if b is None:
            continue
        found += n < len(seeded)
        b = unpack(b)
        assert is_trivial(pres, mul(b, (i,), inverse(b), inverse(w))), (w, i)
        d = mul(inverse(b), conjugator(pres, (i,), w))
        assert is_trivial(pres, mul(d, (i,), inverse(d), (-i,))), (w, i)
    assert len(seeded) // 10 < found < len(seeded) - len(seeded) // 10, found


# ---------------------------------------------------------------------------
# conjugator search


def test_find_conjugators_identity(pres4):
    cands = find_conjugators(pres4, (1,), (1,), bound=2)
    assert () in cands


def test_find_conjugators_by_construction(pres4):
    cands = find_conjugators(pres4, (1,), (2, 1, -2), bound=2)
    assert (2,) in cands


def test_find_conjugators_all_verify(pres4, rng):
    for _ in range(100):
        a = random_word(rng, 4, 8)
        u = random_word(rng, 4, 6)
        b = mul(u, a, inverse(u))
        for c in find_conjugators(pres4, a, b, bound=3):
            assert is_trivial(pres4, mul(c, a, inverse(c), inverse(b)))


def test_find_conjugators_mismatch_raises(pres4):
    with pytest.raises(ConjugacyMismatch):
        find_conjugators(pres4, (1,), (2,))


def test_find_conjugators_no_verified_candidate_raises(pres4, monkeypatch):
    monkeypatch.setattr(mcgverify.words, "is_trivial", lambda pres, word: False)
    with pytest.raises(InvariantViolation):
        find_conjugators(pres4, (1,), (2, 1, -2))


def test_is_trivial_homology_oracle_raises(pres4, monkeypatch):
    monkeypatch.setattr(mcgverify.words, "_strict_pass", lambda pres, word: b"")
    assert is_trivial(pres4, pres4.relator)
    with pytest.raises(InvariantViolation):
        is_trivial(pres4, (1,))


# ---------------------------------------------------------------------------
# brute-force conjugacy oracle


def oracle_conjugate(pres, a, b, conj_len):
    """Enumerate all conjugators up to the given length (breadth-first)
    and test each with the word-problem routine."""
    if abelianized(pres.genus, a) != abelianized(pres.genus, b):
        return False
    letters = [i for i in range(1, pres.genus + 1)] + [
        -i for i in range(1, pres.genus + 1)
    ]
    frontier = [()]
    for _ in range(conj_len + 1):
        next_frontier = []
        for c in frontier:
            if is_trivial(pres, mul(c, a, inverse(c), inverse(b))):
                return True
            for l in letters:
                if c and c[-1] == -l:
                    continue
                next_frontier.append(c + (l,))
        frontier = next_frontier
    return False


def all_words(genus, length):
    letters = [i for i in range(1, genus + 1)] + [-i for i in range(1, genus + 1)]
    frontier = [()]
    for _ in range(length):
        frontier = [
            w + (l,) for w in frontier for l in letters if not (w and w[-1] == -l)
        ]
    return frontier


def test_genus3_conjugacy_exhaustive_short(pres3):
    """All ordered pairs of freely reduced words of length <= 2: the
    cyclic-form decision agrees with brute-force conjugator enumeration."""
    words = [()] + all_words(3, 1) + all_words(3, 2)
    for a in words:
        for b in words:
            got = is_conjugate(pres3, a, b)
            want = oracle_conjugate(pres3, a, b, conj_len=4)
            assert got == want, (a, b, got, want)


@pytest.mark.parametrize("genus", [3, 4])
def test_conjugacy_oracle_randomized(genus, rng):
    """Constructed conjugate pairs up to length 12 and random pairs up to
    length 8, cross-checked against the conjugator-enumeration oracle."""
    pres = get_presentation(genus)
    for _ in range(150):
        a = random_word(rng, genus, 4)
        c = random_word(rng, genus, 4)
        b = mul(c, a, inverse(c))
        assert is_conjugate(pres, a, b)
        assert oracle_conjugate(pres, a, b, conj_len=8)
    checked_negative = 0
    for _ in range(400):
        a = random_word(rng, genus, 8)
        b = random_word(rng, genus, 8)
        got = is_conjugate(pres, a, b)
        if got:
            assert oracle_conjugate(pres, a, b, conj_len=8), (a, b)
        elif abelianized(genus, a) == abelianized(genus, b) and checked_negative < 25:
            checked_negative += 1
            assert not oracle_conjugate(pres, a, b, conj_len=4), (a, b)
