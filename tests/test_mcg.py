"""Generator catalog, inner-automorphism decisions, orders, curve orbits."""

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import mcgverify.mcg
from mcgverify.claims import (
    FAMILIES,
    build_claims,
    filter_claims,
    resolve_claims,
    run_claims,
    word_r,
    word_r_prime,
    word_s,
    word_s_prime,
    word_x,
)
from mcgverify.errors import InvariantViolation, ValidationFailure
from mcgverify.homology import (
    abelianize,
    matrix_identity,
    matrix_order,
    matrix_power,
    vector_period,
)
from mcgverify.mcg import (
    BETA_WORD,
    CurveClass,
    GeneratorCatalog,
    Inner,
    NotInner,
    build_catalog,
    compose,
    crosscap_slide,
    curve_image,
    evaluate,
    get_catalog,
    identity_status,
    inverse_word,
    is_inner,
    order_of,
    power_pairs,
    product_curve_key,
    substitute,
    talpha,
    tbeta,
    teps,
    transposition,
)
from mcgverify.words import (
    CONJ_BOUND,
    MAX_GENUS,
    SurfacePresentation,
    _canonical_with_conj,
    _primitive_root,
    _strict_pass,
    abelianized,
    conjugator,
    dehn_reduce,
    free_reduce,
    inverse,
    invert,
    is_conjugate,
    is_trivial,
    mul,
    pack,
    unpack,
)

from conftest import (
    catalog_symbols,
    generator_table,
    legacy_catalog_moves,
    mcg_equal,
    packed_table,
    random_word,
    relator_rotations,
    scan_order,
    tuple_is_inner,
    unpacked,
    word_power,
)
from test_words import kernel_cases, least_rotation, tuple_reduce_image

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(scope="module", params=[3, 4, 5, 6])
def catalog(request):
    return get_catalog(request.param)


def all_symbols(genus):
    syms = [talpha(i, s) for i in range(1, genus) for s in (1, -1)]
    syms += [transposition(i, s) for i in range(1, genus) for s in (1, -1)]
    syms += [crosscap_slide(1), crosscap_slide(-1), teps(1), teps(-1)]
    if genus >= 4:
        syms += [tbeta(1), tbeta(-1)]
    return syms


# ---------------------------------------------------------------------------
# catalog construction


@pytest.mark.parametrize("genus", range(3, MAX_GENUS + 1))
def test_build_catalog_validates(genus):
    """Every genus certifies, and every symbol's moves are byte for byte
    those of the full-list formulas, built one index at a time."""
    cat = build_catalog(genus)
    assert {symbol: cat.moves(symbol) for symbol in all_symbols(genus)} == (
        legacy_catalog_moves(genus)
    )


@pytest.mark.parametrize("genus", [3, 4])
def test_composites_fix_relator_only_up_to_conjugacy(genus):
    """y and t_eps carry no relator certificate of their own: their images
    are the Dehn-reduced images of products of certified generators.  At
    g = 3 and 4 the relator's free image under some of them is a conjugate
    of a rotation of the relator, not the relator; it is trivial in pi_1."""
    cat = build_catalog(genus)
    pres = cat.presentation
    exact = []
    for symbol in (crosscap_slide(1), crosscap_slide(-1), teps(1), teps(-1)):
        images = unpacked(generator_table(cat, symbol))
        image = mul(*(images[x - 1] for x in pres.relator))
        core = image
        while core and core[0] == -core[-1]:
            core = core[1:-1]
        assert core in relator_rotations(genus), symbol
        assert is_trivial(pres, image), symbol
        exact.append(image == pres.relator)
    assert not all(exact)


def test_generator_inverses_exact(catalog):
    ident = catalog.presentation.letters_packed
    for sym in catalog_symbols(catalog):
        kind, idx, _ = sym
        a = generator_table(catalog, sym)
        b = generator_table(catalog, (kind, idx, -1))
        assert compose(a, b) == ident
        assert compose(b, a) == ident


def test_braid_relation_up_to_inner():
    cat = get_catalog(5)
    w1 = (talpha(1), talpha(2), talpha(1))
    w2 = (talpha(2), talpha(1), talpha(2))
    assert mcg_equal(cat, w1, w2) is True


def test_distant_twists_commute():
    cat = get_catalog(5)
    assert mcg_equal(cat, (talpha(1), talpha(3)), (talpha(3), talpha(1))) is True


def test_locality_disjoint_support():
    cat = get_catalog(5)
    a3 = CurveClass(cat.presentation, cat.curves["a3"])
    assert curve_image(cat, (transposition(1),), a3) == a3


# ---------------------------------------------------------------------------
# compose / evaluate


def test_compose_identity(catalog):
    ident = catalog.presentation.letters_packed
    a = generator_table(catalog, talpha(1))
    assert compose(ident, a) == a
    assert compose(a, ident) == a


def test_compose_genus_mismatch():
    """Tables of two genera do not compose, either way round."""
    a, b = SurfacePresentation(3).letters_packed, SurfacePresentation(4).letters_packed
    for first, second in [(a, b), (b, a)]:
        with pytest.raises(ValueError, match="genus"):
            compose(first, second)


def test_evaluate_empty_is_identity(catalog):
    assert evaluate(catalog, ()) == catalog.presentation.letters_packed


def test_evaluate_single_symbol(catalog):
    assert evaluate(catalog, (talpha(1),)) == generator_table(catalog, talpha(1))


def test_evaluate_group_level_homomorphism(rng):
    """evaluate(w1 w2) and compose(evaluate(w1), evaluate(w2)) define the
    same automorphism: every image pair is equal as a group element.
    (Reduced spellings differ occasionally, since reduced forms of a
    surface-group element are not unique.)"""
    for genus in (3, 5):
        cat = get_catalog(genus)
        pres = SurfacePresentation(genus)
        syms = all_symbols(genus)
        for _ in range(120):
            w1 = tuple(rng.choice(syms) for _ in range(rng.randrange(0, 5)))
            w2 = tuple(rng.choice(syms) for _ in range(rng.randrange(0, 5)))
            a = evaluate(cat, w1 + w2)
            b = compose(evaluate(cat, w1), evaluate(cat, w2))
            for x, y in zip(unpacked(a), unpacked(b)):
                assert is_trivial(pres, mul(x, inverse(y)))


def test_compose_associative_at_group_level(rng):
    cat = get_catalog(4)
    pres = SurfacePresentation(4)
    syms = all_symbols(4)
    for _ in range(80):
        a, b, c = (evaluate(cat, (rng.choice(syms),)) for _ in range(3))
        lhs = compose(compose(a, b), c)
        rhs = compose(a, compose(b, c))
        for x, y in zip(unpacked(lhs), unpacked(rhs)):
            assert is_trivial(pres, mul(x, inverse(y)))


def evaluate_by_compose(catalog, word):
    """Oracle: the right-to-left chain of full compositions, recomputing
    every image at every symbol."""
    acc = catalog.presentation.letters_packed
    for symbol in reversed(word):
        acc = compose(generator_table(catalog, symbol), acc)
    return acc


def test_generator_moves_match_images(catalog):
    sizes = {"a": 2, "u": 2, "y": 2, "e": 3, "b": 4}
    for sym in all_symbols(catalog.genus):
        moves = catalog.moves(sym)
        assert len(moves) == sizes[sym[0]], sym
        images = unpacked(generator_table(catalog, sym))
        moved = dict(moves)
        for j, im in enumerate(images):
            assert im == moved.get(j, (j + 1,))


@pytest.mark.parametrize("genus", [3, 4, 5, 7, 12])
def test_evaluate_matches_compose_chain(genus):
    """Sparse right-application agrees with the full compose chain on every
    image, as group elements."""
    rng = random.Random(7000 + genus)
    cat = get_catalog(genus)
    pres = cat.presentation
    syms = all_symbols(genus)
    seen = set()
    for _ in range(80):
        word = tuple(rng.choice(syms) for _ in range(rng.randrange(0, 7)))
        seen.update(word)
        got = evaluate(cat, word)
        want = evaluate_by_compose(cat, word)
        for x, y in zip(unpacked(got), unpacked(want)):
            assert is_trivial(pres, mul(x, inverse(y)))
    assert seen == set(syms)


@pytest.mark.parametrize("genus", [3, 4, 7, 12])
def test_substitute_matches_dehn_reduce_of_concatenation(genus):
    """Junction-only cancellation gives the same word as reducing the plain
    concatenation, for any table of freely reduced images."""
    rng = random.Random(7100 + genus)
    pres = SurfacePresentation(genus)
    shifts = relator_rotations(genus)
    for _ in range(200):
        images = []
        for _ in range(genus):
            # relator pieces make the strict pass fire
            shift = rng.choice(shifts)
            start = rng.randrange(len(shift))
            piece = shift[start : start + rng.randrange(0, genus + 3)]
            noise = random_word(rng, genus, 3), random_word(rng, genus, 3)
            images.append(free_reduce(noise[0] + piece + noise[1]))
        word = random_word(rng, genus, 12)
        plain = [l for x in word for l in (images[x - 1] if x > 0 else inverse(images[-x - 1]))]
        assert substitute(pres, packed_table(images), word) == dehn_reduce(pres, plain)


def test_get_catalog_above_genus_cap_raises():
    with pytest.raises(ValueError, match="MAX_GENUS"):
        get_catalog(128)


def test_build_catalog_rejects_unreduced_image(monkeypatch):
    """Every chain twist's image of x_i is padded with x_i x_i^-1: local,
    with the relator and a shift of index 1's, so the free-reduction check
    rejects it at index 1."""
    original = mcgverify.mcg.chain_twist_images

    def padded(i, sign=1):
        (j, im), *rest = original(i, sign)
        return ((j, (i, -i) + im), *rest)

    monkeypatch.setattr(mcgverify.mcg, "chain_twist_images", padded)
    with pytest.raises(ValidationFailure) as failure:
        build_catalog(5)
    assert str(failure.value) == "image of ('a', 1, 1) or its inverse not freely reduced"


def distant_chain_pairs(genus):
    return [(talpha(i), talpha(j)) for i in range(1, genus) for j in range(i + 2, genus)]


def certified_relation_words(catalog):
    """Relation words whose ``_append`` images the test checks against
    ``compose``, at every index: both orders of each stored inverse pair,
    both sides of each braid relation, and both orders of each t_b
    commuting pair and of each distant chain pair.  ``build_catalog``
    compares the first three at index 1 only and carries them along the
    chain by the crosscap shift; it leaves distant pairs to its locality
    check."""
    g = catalog.genus
    words = []
    for kind, idx, _ in catalog_symbols(catalog):
        sym, inv = (kind, idx, 1), (kind, idx, -1)
        words += [(sym, inv), (inv, sym)]
    for i in range(1, g - 1):
        a, b = talpha(i), talpha(i + 1)
        words += [(a, b, a), (b, a, b)]
    pairs = distant_chain_pairs(g)
    if g >= 4:
        pairs += [(tbeta(), talpha(i)) for i in (1, 2, 3)]
    for a, b in pairs:
        words += [(a, b), (b, a)]
    return words


@pytest.mark.parametrize("genus", [*range(3, 13), 24, 30])
def test_catalog_matches_compose_route(genus, monkeypatch):
    """The catalog is built and certified without ``compose``, and its
    composite generators and certified relations agree image for image
    with the full ``compose`` route (the test's ``compose`` is bound at
    import, so the monkeypatch does not reach it).  ``build_catalog``
    computes the relations at index 1 only and carries them to every other
    index by the crosscap shift; this checks every index on the route that
    shares no code with that argument."""

    def refuse(a, b):
        raise AssertionError("compose called")

    monkeypatch.setattr(mcgverify.mcg, "compose", refuse)
    cat = build_catalog(genus)
    g = genus

    def auto(symbol):
        return generator_table(cat, symbol)

    y = compose(auto(talpha(g - 1)), auto(transposition(g - 1)))
    y_inv = compose(auto(transposition(g - 1, -1)), auto(talpha(g - 1, -1)))
    assert auto(crosscap_slide()) == y
    assert auto(crosscap_slide(-1)) == y_inv
    for sign in (1, -1):
        assert auto(teps(sign)) == compose(y_inv, compose(auto(talpha(g - 2, sign)), y))

    ident = SurfacePresentation(g).letters_packed
    for word in certified_relation_words(cat):
        want = unpacked(evaluate_by_compose(cat, word))
        pairs = mcgverify.mcg._append(cat, ident, word)
        assert unpacked(pairs) == want, word
        assert all(unpack(inv) == inverse(unpack(b)) for b, inv in pairs), word


@pytest.mark.parametrize("genus", [5, 30, 127])
def test_distant_chain_twists_commute_on_append(genus):
    """The relation ``build_catalog`` leaves to its locality check: for
    every distant pair of chain twists the two ``_append`` products are the
    same table."""
    cat = get_catalog(genus)
    ident = cat.presentation.letters_packed
    for a, b in distant_chain_pairs(genus):
        ab = mcgverify.mcg._append(cat, ident, (a, b))
        assert ab == mcgverify.mcg._append(cat, ident, (b, a)), (a, b)


@pytest.mark.parametrize("genus", [30, 60, 127])
def test_build_catalog_append_calls_constant(genus, monkeypatch):
    """Certifying a catalog costs as many products at genus g as at 6:
    the relations are checked at index 1 only."""
    append = mcgverify.mcg._append
    calls = []

    def counted(catalog, pairs, word):
        calls.append(word)
        return append(catalog, pairs, word)

    monkeypatch.setattr(mcgverify.mcg, "_append", counted)
    build_catalog(6)
    at_six = len(calls)
    calls.clear()
    build_catalog(genus)
    assert len(calls) == at_six


def crosscap_shift(images, k):
    """sigma^k of a table of tuple images, sigma: x_m -> x_{m+1}, x_g -> x_1:
    the image at position j moves to position j + k mod g, its letters
    mapped by sigma^k."""
    g = len(images)

    def letter(x):
        m = (abs(x) - 1 + k) % g + 1
        return m if x > 0 else -m

    shifted = [None] * g
    for j, image in enumerate(images):
        shifted[(j + k) % g] = tuple(map(letter, image))
    return tuple(shifted)


@pytest.mark.parametrize("genus", [3, 4, 5, 8, 30])
def test_append_commutes_with_crosscap_shift(genus):
    """The argument ``build_catalog`` certifies every index by: appending
    the shifted word sigma^k(w), every t_alpha_i and u_i index raised by
    k, gives sigma^k of the table w gives, on seeded words whose indices
    stay in 1..g-1 after the shift.  At g <= 5 some products hold letters
    outside the support of their word, brought in by strict replacements,
    which the shift moves cyclically."""
    rng = random.Random(9100 + genus)
    cat = get_catalog(genus)
    ident = cat.presentation.letters_packed
    wrapped = 0
    for _ in range(250):
        k = rng.randrange(1, genus - 1)
        word = tuple(
            (rng.choice("au"), rng.randrange(1, genus - k), rng.choice((1, -1)))
            for _ in range(rng.randrange(1, 9))
        )
        shifted = tuple((kind, i + k, s) for kind, i, s in word)
        table = unpacked(mcgverify.mcg._append(cat, ident, word))
        assert unpacked(mcgverify.mcg._append(cat, ident, shifted)) == (
            crosscap_shift(table, k)
        ), (word, k)
        support = {j for _, i, _ in word for j in (i, i + 1)}
        wrapped += any(abs(x) not in support for j in support for x in table[j - 1])
    if genus <= 5:
        assert wrapped


def mutated(monkeypatch, name, change):
    """Replace an image formula by ``change(original, *args)``, with the
    formula's own arguments: ``i, sign``, or ``sign`` for t_beta; or the
    beta word by ``change(original)``."""
    original = getattr(mcgverify.mcg, name)
    if callable(original):
        monkeypatch.setattr(mcgverify.mcg, name, lambda *args: change(original, *args))
    else:
        monkeypatch.setattr(mcgverify.mcg, name, change(original))


def replaced(moves, j, image):
    """``moves`` with the image of x_{j+1} set to ``image``."""
    return tuple(sorted({**dict(moves), j: image}.items()))


def u1_sends_x1_to_x2_inverse(original, i, sign):
    moves = original(i, sign)
    return replaced(moves, 0, (-2,)) if i == 1 and sign > 0 else moves


def u3_inverse_sends_x4_to_x3_inverse(original, i, sign):
    moves = original(i, sign)
    return replaced(moves, 3, (-3,)) if i == 3 and sign < 0 else moves


def t_b_inserts_beta_inverse_at_x3(original, sign):
    """The insertion at x3 takes beta's inverse where the formula has
    beta: local and freely reduced, but x1^2..x4^2 no longer comes back."""
    moves = original(sign)
    if sign > 0:
        return replaced(moves, 2, free_reduce((-2,) + inverse(BETA_WORD) + (2, 3)))
    return moves


def t_a2_writes_x6_into_x2(original, i, sign):
    moves = original(i, sign)
    return replaced(moves, 1, (6, 2, 2, 3, -6)) if i == 2 and sign > 0 else moves


def t_a1_moves_x3(original, i, sign):
    """t_a1 writes its image of x2 at x3, one position too far."""
    moves = original(i, sign)
    return tuple((j + (j == 1), im) for j, im in moves) if i == 1 else moves


def t_a1_writes_x6_into_x1(original, i, sign):
    moves = original(i, sign)
    return replaced(moves, 0, (6, 1, 1, 2, -6)) if i == 1 and sign > 0 else moves


def chain_twists_squared(original, i, sign):
    """Every chain twist is given its square: local, fixing x_i^2 x_{i+1}^2,
    freely reduced, exactly inverted and the shift of index 1's, but the
    squares of t_a1 and t_a2 do not braid."""
    images = dict(original(i, sign))

    def image(x):
        return images.get(x - 1, (x,)) if x > 0 else inverse(images.get(-x - 1, (-x,)))

    return tuple((j, mul(*map(image, im))) for j, im in images.items())


CATALOG_MUTANTS = [
    # A mistake at index 2 or 3 passes every index-1 check; the shift
    # check names its index.
    pytest.param("transposition_images", lambda orig, i, s: orig(i, 1 if i == 2 else s),
                 "u2^-1 is not the crosscap shift of u1^-1", id="u2-inverse-given-u2"),
    pytest.param("chain_twist_images", lambda orig, i, s: orig(i, -s if i == 2 else s),
                 "t_a2 is not the crosscap shift of t_a1", id="t_a2-given-its-inverse"),
    pytest.param("transposition_images", u3_inverse_sends_x4_to_x3_inverse,
                 "u3^-1 is not the crosscap shift of u1^-1",
                 id="u3-inverse-sends-x4-to-x3^-1"),
    pytest.param("chain_twist_images", t_a2_writes_x6_into_x2,
                 "t_a2 is not the crosscap shift of t_a1", id="t_a2-writes-x6-into-x2"),
    # One mutant for each check left at index 1 and on t_b.
    pytest.param("chain_twist_images", t_a1_moves_x3, "t_a1 moves x3", id="t_a1-moves-x3"),
    # freely reduced, and only the letter x6 leaves the support {x1, x2}
    pytest.param("chain_twist_images", t_a1_writes_x6_into_x1,
                 "t_a1 writes x6 in the image of x1", id="t_a1-writes-x6-into-x1"),
    pytest.param("transposition_images", u1_sends_x1_to_x2_inverse,
                 "relator certificate failed for ('u', 1, 1)", id="u1-sends-x1-to-x2^-1"),
    pytest.param("beta_twist_images", t_b_inserts_beta_inverse_at_x3,
                 "relator certificate failed for ('b', 0, 1)", id="t_b-inserts-beta^-1-at-x3"),
    # The next two change every index alike, so every shift matches; u_i
    # is still local and fixes x_i^2 x_{i+1}^2.
    pytest.param("transposition_images", lambda orig, i, s: orig(i, 1),
                 "stored inverse wrong for ('u', 1, 1)", id="u_i-inverse-given-u_i"),
    pytest.param("chain_twist_images", chain_twists_squared,
                 "braid relation failed for t_a1, t_a2", id="t_a_i-given-its-square"),
    # t_a2 is local to x1..x4 and fixes x1^2..x4^2, but braids with t_a1
    pytest.param("beta_twist_images", lambda orig, s: mcgverify.mcg.chain_twist_images(2, s),
                 "t_b and t_a1 do not commute", id="t_b-given-t_a2"),
    # t_b and t_b^-1 swap, which every relation check accepts
    pytest.param("BETA_WORD", inverse, "curve word for beta abelianizes wrongly",
                 id="beta-word-inverted"),
]


@pytest.mark.parametrize("name,change,message", CATALOG_MUTANTS)
def test_build_catalog_rejects_mutant(monkeypatch, name, change, message):
    mutated(monkeypatch, name, change)
    with pytest.raises(ValidationFailure) as failure:
        build_catalog(6)
    assert str(failure.value) == message


def test_build_catalog_rejects_mutant_under_python_O():
    """Certification does not rest on ``assert``: under -O, which strips
    the script's own ``assert False``, the u2^-1 mutant still fails the
    shift check."""
    script = (
        "assert False\n"
        "import mcgverify.mcg as mcg\n"
        "original = mcg.transposition_images\n"
        "mcg.transposition_images = lambda i, s=1: original(i, 1 if i == 2 else s)\n"
        "mcg.build_catalog(6)\n"
    )
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": SRC + (os.pathsep + path if path else "")}
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert "ValidationFailure: u2^-1 is not the crosscap shift of u1^-1" in proc.stderr


# ---------------------------------------------------------------------------
# inner automorphisms


def test_is_inner_conjugation_by_construction(rng):
    pres = SurfacePresentation(4)
    for _ in range(40):
        w = random_word(rng, 4, 6)
        images = [mul(w, (i,), inverse(w)) for i in range(1, 5)]
        status = is_inner(pres, packed_table(images))
        assert isinstance(status, Inner)
        for i in range(1, 5):
            assert is_trivial(
                pres, mul(status.witness, (i,), inverse(status.witness), inverse(images[i - 1]))
            )


def test_is_inner_rejects_twist():
    cat = get_catalog(4)
    pres = SurfacePresentation(4)
    assert isinstance(is_inner(pres, generator_table(cat, talpha(1))), NotInner)


def test_u2_squared_inner_in_genus3():
    cat = get_catalog(3)
    pres = SurfacePresentation(3)
    u2 = generator_table(cat, transposition(2))
    assert isinstance(is_inner(pres, u2), NotInner)
    assert isinstance(is_inner(pres, compose(u2, u2)), Inner)


def test_rotation_powers_genus6():
    cat = get_catalog(6)
    pres = SurfacePresentation(6)
    r = evaluate(cat, tuple(transposition(i) for i in range(1, 6)))
    power = pres.letters_packed
    for n in range(1, 6):
        power = compose(r, power)
        assert isinstance(is_inner(pres, power), NotInner), n
    power = compose(r, power)
    assert isinstance(is_inner(pres, power), Inner)


# ---------------------------------------------------------------------------
# orders


def test_order_examples_even_genus():
    cat = get_catalog(6)
    s = tuple(talpha(i) for i in range(1, 6))
    assert order_of(cat, s, 6) == 6
    sp = (talpha(1),) + s
    assert order_of(cat, sp, 5) == 5


def test_order_examples_odd_genus():
    cat = get_catalog(5)
    s = tuple(talpha(i) for i in range(1, 5))
    assert order_of(cat, s, 10) == 10
    assert order_of(cat, s, 5) is None
    sp = (talpha(1),) + s
    assert order_of(cat, sp, 8) == 8
    assert order_of(cat, s + (tbeta(),), 6) == 6


def test_order_of_rejects_n_below_1():
    cat = get_catalog(5)
    for n in (0, -1):
        with pytest.raises(ValueError):
            order_of(cat, word_s(5), n)


def test_power_tables_reject_exponents_below_1():
    cat = get_catalog(5)
    word = (talpha(1),)
    for n in (0, -1):
        with pytest.raises(ValueError, match="n must be >= 1"):
            power_pairs(cat, word, n)
        with pytest.raises(ValueError, match="n must be >= 1"):
            identity_status(cat, (word, 1), (word, n))
        with pytest.raises(ValueError, match="n must be >= 1"):
            product_curve_key(cat, ((word, n),), cat.curves["a1"])


def test_catalog_rejects_a_generator_the_genus_lacks():
    cat = get_catalog(3)
    with pytest.raises(ValueError, match="no generator .* in genus 3"):
        evaluate(cat, (tbeta(),))


@pytest.mark.parametrize("genus", [31, 32])
def test_orders_above_benchmark_window(genus):
    cat = get_catalog(genus)
    for word, order in order_claim_words(genus):
        assert order_of(cat, word, order) == order, word


def power_words(rng, genus):
    """The theorem's periodic words s, s', r, r', and seeded conjugates
    c t c^-1 of one symbol t of each of the five kinds by one symbol c of
    any kind, whose powers grow only linearly."""
    g = genus
    words = [word(g) for word in (word_s, word_s_prime, word_r, word_r_prime)]
    for kind in "aubey":
        t = (kind, rng.randrange(1, g) if kind in "au" else 0, rng.choice((1, -1)))
        c = random_generator_word(rng, g, 1)
        words.append(c + (t,) + inverse_word(c))
    return words


@pytest.mark.parametrize("genus", [*range(5, 13), 24, 25])
def test_power_matches_appended_word(genus):
    """The power table's ladder gives the images of ``word * n`` for every
    n in 1..4g.  An entry equals the one ``_append(letters_packed, word * n)``
    computes, or, where the two routes leave different sides of an
    exactly-half relator piece, the same element of pi_1; either way it is
    Dehn-reduced and carries its exact inverse."""
    cat = build_catalog(genus)
    pres = cat.presentation
    rng = random.Random(9200 + genus)
    exact = other_side = 0
    for word in power_words(rng, genus):
        want = pres.letters_packed
        for n in range(1, 4 * genus + 1):
            # one more copy of word on the right: _append(ident, word * n)
            want = mcgverify.mcg._append(cat, want, word)
            got = power_pairs(cat, word, n)
            assert len(got) == genus
            for (b, inv), (w, _) in zip(got, want):
                assert invert(b) == inv
                if b == w:
                    exact += 1
                    continue
                other_side += 1
                image = unpack(b)
                assert dehn_reduce(pres, image) == image, (word, n)
                assert is_trivial(pres, image + inverse(unpack(w))), (word, n)
    assert exact > 0


def power_rungs(n):
    """The exponents power_pairs visits on its ladder to ``n``."""
    rungs = [n]
    while rungs[-1] > 1:
        m = rungs[-1]
        rungs.append(m - 1 if m % 2 else m // 2)
    return rungs


def run_cases(rng, genus):
    """(a, b) image tables whose images of b are runs x_i..x_j and their
    inverses: the whole chain x_1..x_g of each sign, runs that start or end
    at x_1 or x_g, seeded runs of both signs back to back, and a run whose
    image is empty (a sends x_{i+1} to the inverse of a(x_i)), alone,
    between single letters of either sign and inside a longer run."""
    pres = SurfacePresentation(genus)
    g = genus

    def run(i, j):
        return tuple(range(i, j + 1))

    # every fifth table: seeded images, strict pieces, doubled runs, ...
    for images, _ in itertools.islice(kernel_cases(rng, pres, 2), 0, None, 5):
        images = list(images)
        runs = [run(1, g), inverse(run(1, g)), run(2, g), inverse(run(1, g - 1)),
                run(1, 2) + inverse(run(g - 1, g)), inverse(run(1, 2)) + run(g - 1, g)]
        for _ in range(4):
            seeded = ()
            for _ in range(rng.randrange(2, 5)):
                i = rng.randrange(1, g)
                piece = run(i, rng.randrange(i + 1, g + 1))
                seeded += piece if rng.random() < 0.5 else inverse(piece)
            runs.append(seeded)
        yield images, (runs * g)[:g]
        i = rng.randrange(1, g)
        images[i] = inverse(images[i - 1])
        empty = run(i, i + 1)
        others = [(-rng.randrange(1, g + 1),) + empty + (-rng.randrange(1, g + 1),),
                  (rng.randrange(1, g + 1),) + inverse(empty) + (rng.randrange(1, g + 1),),
                  run(max(i - 1, 1), min(i + 2, g))]
        yield images, ([empty] + others * g)[:g]


def squaring_cases(rng, genus):
    """(a, b) image tables for compose_pairs: seeded tables from
    ``kernel_cases``, with the case's word as the first image of b, the
    runs of ``run_cases``, and every square the power table's ladder takes
    towards the orders of s, s', r and r', with one product P^h P^1 per
    word, on a fresh catalog."""
    pres = SurfacePresentation(genus)
    rest = [(i,) for i in range(2, genus + 1)]
    for images, word in kernel_cases(rng, pres, 20):
        yield images, [word] + rest
    yield from run_cases(rng, genus)
    cat = build_catalog(genus)
    even = genus % 2 == 0
    orders = {word_s: genus if even else 2 * genus,
              word_s_prime: genus - 1 if even else 2 * genus - 2,
              word_r: genus, word_r_prime: genus - 1}
    for word, order in orders.items():
        w = word(genus)

        def power(n):
            return [unpack(b) for b, _ in power_pairs(cat, w, n)]

        for n in power_rungs(order):
            if n % 2 == 0:
                yield power(n // 2), power(n // 2)
        yield power(order // 2), power(1)


@pytest.mark.parametrize("genus", [*range(3, 13), 24, 30, MAX_GENUS])
def test_compose_pairs_matches_compose_and_tuple_oracle(genus):
    """The run-substituting loop of ``compose_pairs`` gives, image for
    image, what ``compose`` (the reference route) and the tuple oracle that
    cancels one letter at a time give, with exact inverses, on seeded
    tables, on the runs of ``run_cases`` and on the squares of the power
    tables of s, s', r and r'.  Every case the junction handles occurs: a
    product shorter than the piece's inverse (the shifted key), a whole
    piece cancelled, an emptied product, a cancellation that runs back into
    an earlier piece, negative letters (bytes from 0x80 up) and, from genus
    10 on, letter 10, byte 0x0a, which the strict pass's regex reads only
    because ``re.S`` is set.  At genus 127 the oracle, which pops one
    letter per cancelled letter, reads the first image and six seeded
    others of each table; ``compose`` reads them all."""
    pres = SurfacePresentation(genus)
    rng = random.Random(9300 + genus)
    seen = set()
    for a_images, b_images in squaring_cases(rng, genus):
        a = [(pack(im), pack(inverse(im))) for im in a_images]
        b = [(pack(im), pack(inverse(im))) for im in b_images]
        got = mcgverify.mcg.compose_pairs(pres, a, b)
        want = compose(packed_table(a_images), packed_table(b_images))
        assert unpacked(got) == unpacked(want)
        assert all(invert(w) == inv for w, inv in got)
        read = range(genus) if genus <= 30 else [0, *rng.sample(range(1, genus), 6)]
        for j in read:
            image, w = b_images[j], got[j][0]
            log = []
            assert unpack(w) == tuple_reduce_image(pres, a_images, image, log), image
            junctions = [e for e in log if len(e) == 4]
            seen.update(
                label
                for label, hit in [
                    ("product shorter", any(k > 0 and before < n for k, n, before, _ in junctions)),
                    ("whole piece", any(0 < n == k for k, n, _, _ in junctions)),
                    ("emptied", any(0 < before == k for k, _, before, _ in junctions)),
                    ("runs back", any(k > left > 0 for k, _, _, left in junctions)),
                    ("byte >= 0x80", max(pack(image), default=0) >= 0x80),
                    ("byte 0x0a", 0x0A in pack(image) and 0x0A in w),
                ]
                if hit
            )
    want_seen = {"product shorter", "whole piece", "emptied", "runs back", "byte >= 0x80"}
    assert seen == want_seen | ({"byte 0x0a"} if genus >= 10 else set())


def letter_compose_pairs(pres, a, b):
    """Oracle: ``compose_pairs`` one letter of b's images at a time, each
    letter's piece from a 256-slot table indexed by its signed byte, joined
    by the same junction cancellation and strict pass."""
    table = [None] * 256
    for i, (piece, inv) in enumerate(a, 1):
        n = len(piece)
        table[i] = (piece, inv[-1], int.from_bytes(inv, "little"), n)
        table[-i & 0xFF] = (inv, piece[-1], int.from_bytes(piece, "little"), n)
    pairs = []
    for image, _ in b:
        out = bytearray()
        for byte in image:
            piece, last, key, n = table[byte]
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


@pytest.mark.parametrize("genus", [30, MAX_GENUS])
def test_compose_pairs_matches_letter_loop_on_chain_ladders(genus):
    """Every square the power table takes towards s^g and (s')^(g-1), the
    two sides of the chain-power identity, and towards the orders of s and
    s', is byte for byte the table the per-letter loop computes."""
    cat = build_catalog(genus)
    pres = cat.presentation
    even = genus % 2 == 0
    ladders = {word_s(genus): {genus, genus if even else 2 * genus},
               word_s_prime(genus): {genus - 1, genus - 1 if even else 2 * genus - 2}}
    squares = 0
    for word, targets in ladders.items():
        for n in set().union(*map(power_rungs, targets)):
            if n % 2 == 0:
                half = power_pairs(cat, word, n // 2)
                got = mcgverify.mcg.compose_pairs(pres, half, half)
                assert got == letter_compose_pairs(pres, half, half), n
                squares += 1
    assert squares >= 6


def test_order_of_identity_word(catalog):
    assert order_of(catalog, (), 4) == 1


def test_order_of_infinite_order_twist():
    cat = get_catalog(4)
    for n in range(1, 17):
        assert order_of(cat, (talpha(1),), n) is None, n


@pytest.mark.parametrize("genus", [5, 6, 7])
def test_r_prime_order_witness_at_centralizer_power_2(genus):
    """r'^(g-1) is inner, and its witness is b_1 x_1^2, where b_1 is the
    matched conjugator of x_1 onto its image: the candidate sits at
    centralizer power 2, which no bound now has to reach."""
    cat = get_catalog(genus)
    assert order_of(cat, word_r_prime(genus), genus - 1) == genus - 1
    pairs = power_pairs(cat, word_r_prime(genus), genus - 1)
    b1 = conjugator(cat.presentation, (1,), unpack(pairs[0][0]))
    assert is_inner(cat.presentation, pairs) == Inner(mul(b1, (1, 1)))


def order_claim_words(genus):
    """``(word, order)`` for every order claim in the catalog at ``genus``,
    the order in closed form."""
    g, even = genus, genus % 2 == 0
    words = []
    if genus >= 5:
        words += [
            (word_s(g), g if even else 2 * g),
            (word_s_prime(g), g - 1 if even else 2 * (g - 1)),
            (word_r(g), g),
            (word_r_prime(g), g - 1),
        ]
    if genus == 5:
        words.append((word_s(5) + (tbeta(),), 6))
    if genus == 3:
        words += [((talpha(1), talpha(2)), 6), ((talpha(1), talpha(1), talpha(2)), 4),
                  ((transposition(2),), 2)]
    return words


@pytest.mark.parametrize("genus", [*range(3, 13), 24, 25])
def test_order_claim_words_match_the_catalog(genus):
    """order_claim_words lists each order claim's word and stated order."""
    claims = resolve_claims(f"thm1.order.*.g{genus}")
    got = sorted((FAMILIES[c.params["family"]].word(genus, c.params["index"]), c.expected)
                 for c in claims)
    assert got == sorted(order_claim_words(genus))


def order_of_matches_scan(cat, word):
    """order_of against the least-power scan up to 4g, d = scan_order:
    order_of(word, k d) = d for k = 1..3, and order_of(word, n) is None for
    every n <= 4g that d does not divide (every n when no power up to 4g is
    inner)."""
    limit = 4 * cat.genus
    d = scan_order(cat, word, limit)
    if d is not None:
        for k in (1, 2, 3):
            assert order_of(cat, word, k * d) == d, (word, k)
    for n in range(1, limit + 1):
        if d is None or n % d:
            assert order_of(cat, word, n) is None, (word, n)
    return d


@pytest.mark.parametrize("genus", [*range(3, 13), 24, 25])
def test_order_of_matches_scan_on_order_claims(genus):
    """Each order-claim word's scanned order is its closed form; a single
    twist has no order dividing any n <= 4g."""
    cat = get_catalog(genus)
    for word, order in order_claim_words(genus):
        assert order_of_matches_scan(cat, word) == order, word
    assert order_of_matches_scan(cat, (talpha(1),)) is None


@pytest.mark.parametrize("genus", [5, 6, 7, 8])
def test_order_of_matches_scan_on_seeded_power_words(genus):
    """The theorem's words and seeded conjugates of one generator of each
    kind; each conjugate has infinite order, several with a finite homology
    period.  At genus 5 the scan to 4g = 20 runs is_inner on the even
    powers of t_a2^-1 u3 t_a2, whose x2 images are refuted by one cyclic
    strict reduction each."""
    cat = get_catalog(genus)
    for word in power_words(random.Random(9700 + genus), genus):
        order_of_matches_scan(cat, word)


def test_conjugated_transposition_powers_are_not_inner():
    """T = t_a2^-1 u3 t_a2 at genus 5 has homology period 2 and infinite
    order: each even power fixes homology, and is_inner refutes it through
    the class of the image of x2, whose cyclic class doubles with each
    exchange site (113 letters at the 8th power) but is never listed."""
    cat = get_catalog(5)
    t = (talpha(2, -1), transposition(3), talpha(2))
    for m in range(2, 21, 2):
        status = is_inner(cat.presentation, power_pairs(cat, t * m, 1))
        assert status == NotInner("image of x2 not conjugate to x2"), m


def test_probe_period_below_the_homology_order_is_refuted_in_pi1():
    """w = t_a2 t_a3 t_a2^-1 u5 at genus 6: the probe (1, ..., 5) returns
    after 2 steps, but M^2 != I, and M has no order up to 100.  So w^2
    moves some generator's homology class, and is_inner refutes it by the
    class of the image of x2; order_of finds no order dividing 12."""
    cat = get_catalog(6)
    w = (talpha(2), talpha(3), talpha(2, -1), transposition(5))
    m = abelianize(evaluate(cat, w))
    assert vector_period(m, range(1, 6), 100) == 2
    assert matrix_power(m, 2) != matrix_identity(5)
    assert matrix_order(m, 100) is None
    status = is_inner(cat.presentation, power_pairs(cat, w, 2))
    assert status == NotInner("image of x2 not conjugate to x2")
    assert order_of(cat, w, 12) is None


@pytest.mark.parametrize("genus", [*range(3, 31), 60])
def test_probe_period_equals_matrix_order(genus):
    """order_of's probe (1, 2, ..., g-1) has exactly the homology order of
    every order-claim word, so no claim runs an extra pi_1 power; a single
    twist has infinite order on homology, and the probe sees that too."""
    cat = get_catalog(genus)
    probe = range(1, genus)
    limit = 4 * genus
    for word, _ in order_claim_words(genus):
        m = abelianize(evaluate(cat, word))
        period = vector_period(m, probe, limit)
        assert period is not None
        assert period == matrix_order(m, limit), word
    for i in range(1, genus):
        m = abelianize(evaluate(cat, (talpha(i),)))
        assert vector_period(m, probe, limit) is None
        assert matrix_order(m, limit) is None


@pytest.mark.parametrize("genus", [5, 6, 7])
def test_order_of_does_not_rest_on_the_probe(genus, monkeypatch):
    """With a probe period of 1, order_of tests every divisor of n, and
    is_inner refutes the ones below the order: every result is unchanged,
    the order for its multiples and None otherwise."""
    monkeypatch.setattr(mcgverify.mcg, "vector_period", lambda entries, vector, limit: 1)
    cat = get_catalog(genus)
    for word, order in order_claim_words(genus):
        for n in range(1, 2 * order + 1):
            assert order_of(cat, word, n) == (None if n % order else order), (word, n)
    assert order_of(get_catalog(4), (talpha(1),), 16) is None


def eager_is_inner(pres, images, bound=CONJ_BOUND):
    """Reference: a bounded search over the centralizer powers of x1's
    conjugator.  Every generator's class is compared first, then the whole
    candidate list base z^k, |k| <= bound, is built and verified, and the
    first candidate that sends every x_i onto its image is the witness.
    None when no candidate within the bound does."""
    g = pres.genus
    for i in range(1, g + 1):
        if abelianized(g, images[i - 1]) != abelianized(g, (i,)):
            return NotInner(f"homology class of image of x{i} moved")
    for i in range(1, g + 1):
        if not is_conjugate(pres, (i,), images[i - 1]):
            return NotInner(f"image of x{i} not conjugate to x{i}")
    b = images[0]
    canon, conj_a = _canonical_with_conj(pres, (1,))
    conj_b = _canonical_with_conj(pres, b)[1]
    base = mul(conj_b, inverse(conj_a))
    root = _primitive_root(pres, canon, conj_a)
    candidates = [base]
    power = inv_power = ()
    for _ in range(bound):
        power = mul(power, root)
        inv_power = mul(inv_power, inverse(root))
        candidates += [mul(base, power), mul(base, inv_power)]
    verified = [c for c in candidates if is_trivial(pres, mul(c, (1,), inverse(c), inverse(b)))]
    if not verified:
        raise InvariantViolation("canonical matching produced no valid conjugator")
    for c in verified:
        if all(is_trivial(pres, mul(c, (i,), inverse(c), inverse(images[i - 1])))
               for i in range(2, g + 1)):
            return Inner(c)
    return None


def matches_eager(pres, pairs):
    """is_inner's verdict, checked against the bounded reference at
    CONJ_BOUND: an Inner verdict has the reference's witness, and the
    reference finds no witness where is_inner says NotInner."""
    status = is_inner(pres, pairs)
    ref = eager_is_inner(pres, unpacked(pairs))
    if isinstance(status, Inner) or isinstance(ref, Inner):
        assert status == ref
    else:
        assert isinstance(status, NotInner)
    return status


def flipped_slide_words():
    """w = t_a3 y u4^-1 t_a4 t_e y^-1 t_a2 at genus 5, and w with its second
    y flipped: their classes differ by a conjugate of y^2."""
    w = (talpha(3), crosscap_slide(), transposition(4, -1), talpha(4), teps(),
         crosscap_slide(-1), talpha(2))
    return w, w[:5] + (crosscap_slide(),) + w[6:]


def named_inner_cases():
    """(presentation, packed table) for each way is_inner can end: t_a1
    and (u2 t_b^-1)^2 at genus 4 (x1's class), x2 -> x2 [x3, x4]
    (x2's class), x2 -> x3 x2 x3^-1 (b_2^-1 b_1 has h_3 != 0, so no common
    conjugator), (u3 t_e)^2 at genus 5 and u1^2 and y^2 at genus 5 and 6
    (the one candidate fails), and u2^2 at genus 3 and s^6 at genus 6
    (Inner)."""
    cases = []
    for genus, word in [
        (4, (talpha(1),)),
        (4, (transposition(2), tbeta(-1)) * 2),
        (5, (transposition(3), teps()) * 2),
        (3, (transposition(2),) * 2),
        *((g, (transposition(1),) * 2) for g in (5, 6)),
        *((g, (crosscap_slide(),) * 2) for g in (5, 6)),
        (6, word_s(6) * 6),
    ]:
        cat = get_catalog(genus)
        cases.append((cat.presentation, evaluate(cat, word)))
    pres = SurfacePresentation(5)
    for x2 in [(2, 3, 4, -3, -4), (3, 2, -3)]:
        cases.append((pres, packed_table([(1,), x2, (3,), (4,), (5,)])))
    return cases


def test_is_inner_matches_eager_on_named_cases():
    seen = set()
    for pres, pairs in named_inner_cases():
        status = matches_eager(pres, pairs)
        seen.add(getattr(status, "reason", "Inner").rstrip("0123456789"))
    assert seen == {"image of x1 not conjugate to x",
                    "image of x2 not conjugate to x", "x1 and x2 have no common conjugator",
                    "the one candidate conjugator fails on x", "Inner"}


def seeded_products(genus, seed, count):
    """Products w T w^-1 of a seeded word w of one to four generator
    symbols and T one of r^g, r^(g-1), u_1^2, y^2 or the identity.  At
    genus 4 to 6 every outcome of ``is_inner`` occurs among them."""
    cat = get_catalog(genus)
    rng = random.Random(seed)
    symbols = [(kind, idx, sign) for kind, idx, _ in catalog_symbols(cat) for sign in (1, -1)]
    powers = [word_power(word_r(genus), genus), word_power(word_r(genus), genus - 1),
              (transposition(1),) * 2, (crosscap_slide(),) * 2, ()]
    words = []
    for _ in range(count):
        w = tuple(rng.choice(symbols) for _ in range(rng.randrange(1, 5)))
        words.append(w + rng.choice(powers) + inverse_word(w))
    return cat, words


@pytest.mark.parametrize("genus", [3, 4, 5, 6, 8])
def test_is_inner_matches_tuple_oracle(genus):
    """The packed ``is_inner`` gives the verdict and witness of the tuple
    route ``tuple_is_inner`` on the named cases and on seeded products."""
    cases = [case for case in named_inner_cases() if case[0].genus == genus]
    cat, words = seeded_products(genus, 9800 + genus, 40)
    cases += [(cat.presentation, evaluate(cat, word)) for word in words]
    kinds = set()
    for pres, pairs in cases:
        status = is_inner(pres, pairs)
        assert status == tuple_is_inner(pres, unpacked(pairs)), unpacked(pairs)
        kinds.add(type(status))
    assert kinds == {Inner, NotInner}


@pytest.mark.parametrize("genus", [5, 6])
def test_u_and_y_squares_are_not_inner(genus):
    """u1^2 and y^2 fix homology and the class of every generator image, so
    neither invariant refutes them; the one candidate conjugator does."""
    cat = get_catalog(genus)
    for word in [(transposition(1),) * 2, (crosscap_slide(),) * 2]:
        assert isinstance(is_inner(cat.presentation, power_pairs(cat, word, 1)), NotInner)
        assert mcg_equal(cat, word, ()) is False


def test_flipped_slide_pair_not_equal():
    """The bounded reference compares the classes of images of up to 419
    letters here, which takes seconds; is_inner canonicalizes only the
    images of x1 and x2."""
    cat = get_catalog(5)
    lhs, rhs = flipped_slide_words()
    assert mcg_equal(cat, lhs, rhs) is False
    status = is_inner(cat.presentation, power_pairs(cat, lhs + inverse_word(rhs), 1))
    assert status == NotInner("the one candidate conjugator fails on x3")


@pytest.mark.parametrize("genus", [*range(3, 13), 24, 25])
def test_is_inner_matches_eager_on_order_powers(genus):
    """Every power T^n, n = 1..order, of every order-claim word: is_inner
    agrees with the bounded reference, and only T^order is inner."""
    cat = get_catalog(genus)
    pres = cat.presentation
    for word, order in order_claim_words(genus):
        for n in range(1, order + 1):
            status = matches_eager(pres, power_pairs(cat, word, n))
            assert isinstance(status, Inner) == (n == order), (word, n)


@pytest.mark.parametrize("genus", [*range(4, 13), 24])
def test_is_inner_matches_eager_on_identity_quotients(genus):
    """The quotient L R^-1 of every identity claim, and of the chain-power
    identity with the wrong exponent g+1."""
    cat = get_catalog(genus)
    pres = cat.presentation
    sides = [FAMILIES[c.params["family"]].word(genus, c.params["index"])
             for c in resolve_claims(f"thm1.id.*.g{genus}")]
    sides.append(((word_s_prime(genus), genus - 1), (word_s(genus), genus + 1)))
    for lhs, rhs in sides:
        matches_eager(pres, evaluate(cat, word_power(*lhs) + inverse_word(word_power(*rhs))))


def seeded_conjugations(genus, seed, count):
    rng = random.Random(seed)
    tables = []
    for _ in range(count):
        w = random_word(rng, genus, 6)
        tables.append(packed_table([mul(w, (i,), inverse(w)) for i in range(1, genus + 1)]))
    return tables


@pytest.mark.parametrize("genus", [3, 4, 5, 7])
def test_is_inner_matches_eager_on_seeded_conjugations(genus):
    pres = SurfacePresentation(genus)
    for pairs in seeded_conjugations(genus, 9400 + genus, 30):
        assert isinstance(matches_eager(pres, pairs), Inner)


def test_is_inner_rejects_a_shifted_centralizer_power(monkeypatch):
    """Forcing k to k + 1 or k - 1 makes the candidate b_1 x_1^k fail on
    some x_i, so every Inner case turns NotInner: the check of the candidate,
    not the computed k, certifies an Inner verdict."""
    cases = [case for case in named_inner_cases() if isinstance(is_inner(*case), Inner)]
    cases += [(SurfacePresentation(5), pairs) for pairs in seeded_conjugations(5, 9600, 10)]
    for genus in (5, 6, 7):
        cat = get_catalog(genus)
        cases.append((cat.presentation, power_pairs(cat, word_r_prime(genus), genus - 1)))
    assert all(isinstance(is_inner(*case), Inner) for case in cases)
    common_power = mcgverify.mcg.common_power
    for shift in (1, -1):
        monkeypatch.setattr(mcgverify.mcg, "common_power",
                            lambda *args: common_power(*args) + shift)
        for case in cases:
            assert isinstance(is_inner(*case), NotInner), shift


def test_is_inner_raises_when_no_candidate_verifies(monkeypatch):
    """With the conjugator of x_i that ``letter_conjugator`` returns
    corrupted to b x_j, j != i, it no longer sends x_i onto its image, as
    when the cyclic reduction is wrong.  Wherever the classes of x1's and
    x2's images pass, is_inner raises InvariantViolation.
    Refutations before the matching stand."""
    cases = named_inner_cases()
    cases += [(SurfacePresentation(5), pairs) for pairs in seeded_conjugations(5, 9500, 5)]
    want = [is_inner(*case) for case in cases]
    found = mcgverify.mcg.letter_conjugator

    def corrupted(pres, packed, i):
        b = found(pres, packed, i)
        return None if b is None else pack(mul(unpack(b), (i % pres.genus + 1,)))

    monkeypatch.setattr(mcgverify.mcg, "letter_conjugator", corrupted)
    raised = 0
    for case, status in zip(cases, want):
        if getattr(status, "reason", "").startswith("image of x"):
            assert is_inner(*case) == status
            continue
        with pytest.raises(InvariantViolation):
            is_inner(*case)
        raised += 1
    assert raised == len(cases) - 3


def test_order_consistency_with_homology():
    cat = get_catalog(5)
    for word, n in [
        (tuple(transposition(i) for i in range(1, 5)), 5),
        (tuple(talpha(i) for i in range(1, 5)), 10),
    ]:
        assert order_of(cat, word, n) == n
        m = abelianize(evaluate(cat, word))
        assert matrix_power(m, n) == matrix_identity(len(m))


# ---------------------------------------------------------------------------
# identities


def test_chain_power_identity():
    for g in (4, 5, 6):
        cat = get_catalog(g)
        s = tuple(talpha(i) for i in range(1, g))
        sp = (talpha(1),) + s
        assert mcg_equal(cat, word_power(sp, g - 1), word_power(s, g)) is True


def quotient_status(cat, lhs, rhs):
    """is_inner of the table of the flattened word ``L R^-1`` for the sides
    ``L = R``, with no comparison of the side tables."""
    (lword, ln), (rword, rn) = lhs, rhs
    word = word_power(lword, ln) + inverse_word(word_power(rword, rn))
    return is_inner(cat.presentation, power_pairs(cat, word, 1))


@pytest.mark.parametrize("genus", [*range(4, 13), 24, 30])
def test_identity_status_matches_quotient_route(genus):
    """Every identity claim's two sides: where their tables are equal,
    ``identity_status`` returns Inner(()) and the quotient route returns
    Inner with the same witness; where they differ, it is the quotient
    route."""
    cat = get_catalog(genus)
    equal = 0
    for claim in resolve_claims(f"thm1.id.*.g{genus}"):
        lhs, rhs = FAMILIES[claim.params["family"]].word(genus, claim.params["index"])
        status = identity_status(cat, lhs, rhs)
        assert status == quotient_status(cat, lhs, rhs), claim.id
        if power_pairs(cat, *lhs) == power_pairs(cat, *rhs):
            equal += 1
            assert status == Inner(()), claim.id
    assert equal == 1 + (genus >= 5) + (genus == 5)


def test_identity_status_falls_back_on_unequal_tables():
    """Sides whose tables differ are decided by the quotient route.  The
    chain-power identity with the wrong exponent g+1 is refuted by both
    routes; u2^2 = id at genus 3 holds only up to a nontrivial conjugation,
    which both routes find."""
    cases = [(g, (word_s_prime(g), g - 1), (word_s(g), g + 1)) for g in (5, 6)]
    cases.append((3, ((transposition(2),), 2), ((), 1)))
    for genus, lhs, rhs in cases:
        cat = get_catalog(genus)
        assert power_pairs(cat, *lhs) != power_pairs(cat, *rhs)
        status = identity_status(cat, lhs, rhs)
        assert status == quotient_status(cat, lhs, rhs)
        if genus == 3:
            assert isinstance(status, Inner) and status.witness != ()
        else:
            assert isinstance(status, NotInner)


class Unequal(tuple):
    """A power table that equals no table, not even itself."""

    __hash__ = tuple.__hash__

    def __eq__(self, other):
        return False


@pytest.mark.parametrize("genus", [3, 4, 5, 6, 9, 24])
def test_identity_status_fallback_matches_flattened_route(genus, monkeypatch):
    """With every side table made unequal, ``identity_status`` composes the
    left table with that of ``R^-1`` for every identity claim, the
    chain-power identity with the wrong exponent g+1 and u2^2 = id at
    genus 3, and gets the verdict and witness of the flattened word's
    table."""
    cases = [((word_s_prime(genus), genus - 1), (word_s(genus), genus + 1)),
             (((transposition(2),), 2), ((), 1))]
    cases += [FAMILIES[c.params["family"]].word(genus, c.params["index"])
              for c in resolve_claims(f"thm1.id.*.g{genus}")]
    flat = [quotient_status(get_catalog(genus), lhs, rhs) for lhs, rhs in cases]
    assert {type(status) for status in flat} == {Inner, NotInner}
    power_pairs_ = mcgverify.mcg.power_pairs
    monkeypatch.setattr(mcgverify.mcg, "power_pairs",
                        lambda *args: Unequal(power_pairs_(*args)))
    cat = build_catalog(genus)
    for (lhs, rhs), want in zip(cases, flat):
        assert identity_status(cat, lhs, rhs) == want, (lhs, rhs)


@pytest.mark.parametrize("genus", [8, 9, 24, 25])
def test_shared_power_table_equals_fresh_tables(genus):
    """The entries a catalog holds after every thm1 claim of its genus ran
    on it equal those of a fresh ``build_catalog``, each entry computed
    alone, so sharing the table changes only the cost."""
    reports = run_claims(resolve_claims(f"thm1.*.g{genus}"))
    assert {r.status for r in reports} == {"pass"}
    shared = get_catalog(genus)._powers
    assert (word_s(genus), genus) in shared and (word_s_prime(genus), genus - 1) in shared
    fresh = build_catalog(genus)
    for (word, n), pairs in shared.items():
        fresh._powers.clear()
        assert power_pairs(fresh, word, n) == pairs, (word, n)


def test_shared_power_is_squared_once(monkeypatch):
    """At genus 25 the chain-power identity makes s^25 and (s')^24 one
    table T.  A ``thm1.*`` run on a fresh catalog squares T once, for s^50
    and (s')^48."""
    genus = 25
    cat = build_catalog(genus)
    monkeypatch.setitem(mcgverify.mcg._CATALOGS, genus, cat)
    squared = []
    compose_pairs = mcgverify.mcg.compose_pairs

    def compose_spy(pres, a, b):
        if a == b:
            squared.append(tuple(a))
        return compose_pairs(pres, a, b)

    monkeypatch.setattr(mcgverify.mcg, "compose_pairs", compose_spy)
    reports = run_claims(resolve_claims(f"thm1.*.g{genus}"))
    assert {r.status for r in reports} == {"pass"}
    shared = power_pairs(cat, word_s(genus), genus)
    assert shared == power_pairs(cat, word_s_prime(genus), genus - 1)
    square = power_pairs(cat, word_s(genus), 2 * genus)
    assert square == power_pairs(cat, word_s_prime(genus), 2 * (genus - 1))
    assert squared.count(shared) == 1


def test_talpha1_identity_genus5():
    cat = get_catalog(5)
    s = tuple(talpha(i) for i in range(1, 5))
    sp = (talpha(1),) + s
    assert mcg_equal(cat, (talpha(1),), sp + inverse_word(s)) is True


def test_talpha4_conjugation_identity_genus5():
    cat = get_catalog(5)
    stb = tuple(talpha(i) for i in range(1, 5)) + (tbeta(),)
    rhs = inverse_word(stb) + (tbeta(),) + stb
    assert mcg_equal(cat, (talpha(4),), rhs) is True


def test_mcg_equal_reflexive(catalog):
    w = (talpha(1), transposition(1))
    assert mcg_equal(catalog, w, w) is True


def test_mcg_equal_distinguishes():
    cat = get_catalog(5)
    assert mcg_equal(cat, (talpha(1),), (talpha(2),)) is False


def random_twist_word(rng, genus, length):
    return tuple(talpha(rng.randrange(1, genus), rng.choice((1, -1))) for _ in range(length))


def relation_sides(rng, genus):
    """The two sides of a braid relation, a distant commutation and a
    cancelling pair, all in the chain twists."""
    i = rng.randrange(1, genus - 1)
    s = rng.choice((1, -1))
    braid = ((talpha(i, s), talpha(i + 1, s), talpha(i, s)),
             (talpha(i + 1, s), talpha(i, s), talpha(i + 1, s)))
    i, j = sorted(rng.sample(range(1, genus), 2))
    if j - i < 2:
        i, j = 1, genus - 1
    a, b = talpha(i, rng.choice((1, -1))), talpha(j, rng.choice((1, -1)))
    t = random_twist_word(rng, genus, 1)
    return [braid, ((a, b), (b, a)), ((), t + inverse_word(t))]


@pytest.mark.parametrize("genus", range(4, 9))
def test_mcg_equal_metamorphic(genus):
    """Rewriting a random t_a word by one relation keeps it equal; changing
    the index or the sign of one symbol makes it differ."""
    rng = random.Random(genus)
    cat = get_catalog(genus)
    for _ in range(10):
        w = random_twist_word(rng, genus, rng.randrange(1, 9))
        for lhs, rhs in relation_sides(rng, genus):
            k = rng.randrange(len(w) + 1)
            assert mcg_equal(cat, w[:k] + lhs + w[k:], w[:k] + rhs + w[k:]) is True
        for _ in range(3):
            k = rng.randrange(len(w))
            _, i, s = w[k]
            if rng.random() < 0.5:
                changed = talpha(i, -s)
            else:
                changed = talpha(rng.choice([j for j in range(1, genus) if j != i]), s)
            assert mcg_equal(cat, w, w[:k] + (changed,) + w[k + 1:]) is False


def random_generator_word(rng, genus, length):
    """A random word in all five generator kinds, with random signs."""
    kinds = [("a", i) for i in range(1, genus)] + [("u", i) for i in range(1, genus)]
    kinds += [("b", 0), ("e", 0), ("y", 0)]
    return tuple(kind + (rng.choice((1, -1)),) for kind in
                 (rng.choice(kinds) for _ in range(length)))


def generator_relation_sides(genus):
    """Relations that tie u, y, t_b and t_e to the chain twists."""
    g = genus
    y, y_inv = crosscap_slide(), crosscap_slide(-1)
    return [
        ((y,), (talpha(g - 1), transposition(g - 1))),
        ((teps(),), (y_inv, talpha(g - 2), y)),
        ((tbeta(), talpha(1)), (talpha(1), tbeta())),
        ((tbeta(), talpha(3)), (talpha(3), tbeta())),
        ((transposition(1), transposition(3)), (transposition(3), transposition(1))),
        ((transposition(1), talpha(3)), (talpha(3), transposition(1))),
        ((transposition(2), transposition(2, -1)), ()),
    ]


@pytest.mark.parametrize("genus", range(5, 9))
def test_mcg_equal_metamorphic_all_generators(genus):
    """Inserting either side of a relation in u, y, t_b or t_e into a random
    word gives equal classes.  Flipping the sign of one symbol of any kind
    gives a class that ``mcg_equal`` refutes; for a u or y symbol the two
    differ by a conjugate of u^2 or y^2."""
    rng = random.Random(genus)
    cat = get_catalog(genus)
    for _ in range(10):
        w = random_generator_word(rng, genus, rng.randrange(1, 9))
        for lhs, rhs in generator_relation_sides(genus):
            k = rng.randrange(len(w) + 1)
            assert mcg_equal(cat, w[:k] + lhs + w[k:], w[:k] + rhs + w[k:]) is True
        for k, (kind, i, s) in enumerate(w):
            assert mcg_equal(cat, w, w[:k] + ((kind, i, -s),) + w[k + 1:]) is False


# ---------------------------------------------------------------------------
# curves


def test_curves_equal_unoriented(catalog):
    pres = catalog.presentation
    a = CurveClass(catalog.presentation, (1, 2))
    b = CurveClass(catalog.presentation, inverse((1, 2)))
    assert a == b


def test_trivial_curve_class(catalog):
    """The trivial word and its images form the class of the empty key."""
    trivial = CurveClass(catalog.presentation, (1, -1))
    assert trivial.key == () and trivial.members == {()}
    assert curve_image(catalog, (talpha(1),), trivial) == trivial


def test_curves_distinct(catalog):
    assert CurveClass(catalog.presentation, (1, 2)) != CurveClass(catalog.presentation, (2, 3))


def test_curve_class_contains_a_longer_core():
    """At genus 4 the cyclic core x1 x1 x2 x2 x3^-1 x2^-1 x2^-1 x1^-1 x3^-1
    is conjugate to a core two letters shorter, so its key is no member of
    its class: ``contains`` closes it, as 9 <= 7 + 2 floor(7/2) allows,
    and finds the class.  Keys of other classes are not contained."""
    cat = get_catalog(4)
    pres = cat.presentation
    word = (1, 1, 2, 2, -3, -2, -2, -1, -3)
    cls = CurveClass(cat.presentation, word)
    key = min(least_rotation(word), least_rotation(inverse(word)))
    assert len(cls.key) == 7 and key not in cls.members
    assert cls.contains(key)
    assert not CurveClass(cat.presentation, (1, 2)).contains(key)
    for other in [(1, 1, 2, 2, -3, -2, -2, -1, -4), (1, 2, 3, -1, -2, -3, 1, 2, 4)]:
        same = is_conjugate(pres, word, other) or is_conjugate(pres, word, inverse(other))
        assert cls.contains(min(least_rotation(other), least_rotation(inverse(other)))) == same


def test_one_presentation_per_genus(monkeypatch, tmp_path):
    """A run builds each genus's presentation once, in its catalog: the
    claim runners and the closing fallback of ``CurveClass.contains`` reuse
    ``catalog.presentation`` rather than building their own.  The workers
    of ``run_claims`` are other processes, so the spies append to a file."""
    monkeypatch.setattr(mcgverify.mcg, "_CATALOGS", {})
    log = tmp_path / "built"

    def spy(cls, what):
        init = cls.__init__

        def counting_init(self, genus):
            with open(log, "a") as out:
                out.write(f"{what} {genus}\n")
            init(self, genus)

        monkeypatch.setattr(cls, "__init__", counting_init)

    spy(SurfacePresentation, "presentation")
    spy(GeneratorCatalog, "catalog")
    claims = filter_claims(build_claims(genus=(5, 6)), "[mt]*")
    assert claims and all(r.status == "pass" for r in run_claims(claims))
    cat = get_catalog(4)
    word = (1, 1, 2, 2, -3, -2, -2, -1, -3)
    cls = CurveClass(cat.presentation, word)
    key = min(least_rotation(word), least_rotation(inverse(word)))
    assert key not in cls.members and cls.contains(key)
    built = {"presentation": [], "catalog": []}
    for line in log.read_text().splitlines():
        what, genus = line.split()
        built[what].append(int(genus))
    assert sorted(built["presentation"]) == sorted(built["catalog"]) == [4, 5, 6]


def test_s_and_r_shift_chain_curves():
    for g in (5, 6):
        cat = get_catalog(g)
        s = tuple(talpha(i) for i in range(1, g))
        r = tuple(transposition(i) for i in range(1, g))
        for i in range(1, g - 1):
            start = CurveClass(cat.presentation, cat.curves[f"a{i}"])
            target = CurveClass(cat.presentation, cat.curves[f"a{i+1}"])
            assert curve_image(cat, s, start) == target
            assert curve_image(cat, r, start) == target


def test_x_claims_genus6():
    cat = get_catalog(6)
    x = (crosscap_slide(-1), talpha(2), talpha(3), talpha(4), tbeta())
    a4 = CurveClass(cat.presentation, cat.curves["a4"])
    assert curve_image(cat, x, a4) == CurveClass(cat.presentation, cat.curves["b"])
    a2 = CurveClass(cat.presentation, cat.curves["a2"])
    assert curve_image(cat, x, a2) == CurveClass(cat.presentation, cat.curves["a3"])
    a3 = CurveClass(cat.presentation, cat.curves["a3"])
    assert curve_image(cat, x, a3) == CurveClass(cat.presentation, cat.curves["e"])


def test_epsilon_claim_genus5():
    cat = get_catalog(5)
    w = (crosscap_slide(-1),) + tuple(transposition(i) for i in range(2, 5)) + (crosscap_slide(),)
    a2 = CurveClass(cat.presentation, cat.curves["a2"])
    assert curve_image(cat, w, a2) == CurveClass(cat.presentation, cat.curves["e"])


def test_curve_image_respects_composition(rng):
    cat = get_catalog(5)
    syms = all_symbols(5)
    for _ in range(60):
        w1 = tuple(rng.choice(syms) for _ in range(rng.randrange(0, 4)))
        w2 = tuple(rng.choice(syms) for _ in range(rng.randrange(0, 4)))
        curve = CurveClass(cat.presentation, cat.curves[f"a{rng.randrange(1, 5)}"])
        assert curve_image(cat, w1 + w2, curve) == curve_image(
            cat, w1, curve_image(cat, w2, curve)
        )


def test_identity_word_fixes_curves(catalog):
    for name in catalog.curves:
        c = CurveClass(catalog.presentation, catalog.curves[name])
        assert curve_image(catalog, (), c) == c


@pytest.mark.parametrize("genus", [*range(6, 13), 24, 30])
def test_factored_orbit_maps_match_flat_words(genus):
    """The x r^k x^-1 maps of the orbit claims, kept as the factors
    (x, 1), (r, k), (x^-1, 1), send a3 to the class the flat word sends it
    to, the word test_acceptance.py spells out symbol by symbol, and that
    class is the expected curve."""
    cat = get_catalog(genus)
    pres = cat.presentation
    x, r = word_x(genus), word_r(genus)
    a3 = CurveClass(cat.presentation, cat.curves["a3"])
    maps = [("thm1.orbit.xr2x.g{g}", 2, "b")]
    if genus >= 7:
        maps.append(("thm1.orbit.xrkx.g{g}", genus - 3, "e"))
    for family, k, target in maps:
        factors = FAMILIES[family].word(genus, None)
        assert factors == ((x, 1), (r, k), (inverse_word(x), 1))
        flat = x + word_power(r, k) + inverse_word(x)
        image = CurveClass(pres, product_curve_key(cat, factors, a3.key))
        assert image == curve_image(cat, flat, a3) == CurveClass(pres, cat.curves[target])


def test_orbit_maps_compose_only_the_power_ladder(monkeypatch):
    """Mapping a3 under x r^k x^-1 and x r^2 x^-1 at genus 40 composes
    tables only to square r on its way to r^k, the ladder r^2 lies on: no
    table of a product is built."""
    maps = [FAMILIES[f].word(40, None) for f in ("thm1.orbit.xrkx.g{g}", "thm1.orbit.xr2x.g{g}")]
    _, (r, k), _ = maps[0]
    calls = []
    compose_pairs = mcgverify.mcg.compose_pairs

    def counted(*args):
        calls.append(args)
        return compose_pairs(*args)

    monkeypatch.setattr(mcgverify.mcg, "compose_pairs", counted)
    power_pairs(build_catalog(40), r, k)
    ladder = len(calls)
    calls.clear()
    cat = build_catalog(40)
    for factors in maps:
        product_curve_key(cat, factors, cat.curves["a3"])
    assert ladder > 0 and len(calls) == ladder
