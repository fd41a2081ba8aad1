"""Homology matrices, determinant criterion, rotation models, decomposition."""

import hashlib
import itertools
import random

import pytest

from mcgverify.homology import (
    EgRotationSpec,
    abelianize,
    build_eg_rotation,
    decompose_genus,
    determinant,
    matrix_identity,
    matrix_mul,
    matrix_order,
    matrix_power,
    vector_period,
)
from mcgverify.mcg import (
    compose,
    crosscap_slide,
    evaluate,
    get_catalog,
    talpha,
    tbeta,
    teps,
    transposition,
)
from mcgverify.words import SurfacePresentation

from conftest import catalog_symbols, tuple_abelianize, unpacked


def cofactor_det(m):
    """Independent determinant oracle: direct cofactor expansion."""
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * cofactor_det(minor)
    return total


# ---------------------------------------------------------------------------
# determinant engine


def test_determinant_small_cases():
    assert determinant(()) == 1
    assert determinant(((5,),)) == 5
    assert determinant(((1, 2), (3, 4))) == -2


def test_determinant_against_cofactor_oracle(rng):
    for _ in range(100):
        n = rng.randrange(1, 6)
        m = tuple(tuple(rng.randrange(-3, 4) for _ in range(n)) for _ in range(n))
        assert determinant(m) == cofactor_det([list(r) for r in m])


def test_determinant_rescales_rows_with_zero_pivot_column_entry():
    # step 0 rescales row 1 by 2/1 and step 1 divides by that pivot
    m = ((2, 1, 0), (0, 3, 1), (1, 0, 2))
    assert determinant(m) == cofactor_det([list(r) for r in m]) == 13
    rng = random.Random(4242)
    for _ in range(300):
        n = rng.randrange(2, 8)
        # about half the entries 0, and pivots other than +-1
        m = tuple(tuple(rng.choice((0, 0, 0, 0, 1, -1, 2, -3, 5)) for _ in range(n))
                  for _ in range(n))
        assert determinant(m) == cofactor_det([list(r) for r in m]), m


def dense_order(m, limit):
    """Oracle: the least n <= limit with the dense power equal to I."""
    ident = matrix_identity(len(m))
    return next((n for n in range(1, limit + 1) if matrix_power(m, n) == ident), None)


def test_matrix_order_small_cases():
    cycle = tuple(tuple(1 if i == (j + 1) % 5 else 0 for j in range(5)) for i in range(5))
    assert matrix_order(cycle, 5) == 5
    assert matrix_order(cycle, 4) is None
    assert matrix_order(matrix_identity(3), 1) == 1
    assert matrix_order(((1, 1), (0, 1)), 50) is None


def test_matrix_power_rejects_negative_exponent():
    swap = ((0, 1), (1, 0))
    assert matrix_power(swap, 0) == matrix_identity(2)
    with pytest.raises(ValueError, match="k must be >= 0"):
        matrix_power(swap, -1)


def test_vector_period_small_cases():
    cycle = tuple(tuple(1 if i == (j + 1) % 5 else 0 for j in range(5)) for i in range(5))
    assert vector_period(cycle, (1, 0, 0, 0, 0), 5) == 5
    assert vector_period(cycle, (1, 0, 0, 0, 0), 4) is None
    assert vector_period(matrix_identity(3), (1, 2, 3), 1) == 1
    shear = ((1, 1), (0, 1))
    assert vector_period(shear, (1, 0), 50) == 1
    assert vector_period(shear, (0, 1), 50) is None
    assert vector_period(shear, (0, 0), 1) == 1


@pytest.mark.parametrize("genus", range(3, 13))
def test_matrix_order_against_dense_powers(genus):
    rng = random.Random(5100 + genus)
    cat = get_catalog(genus)
    twists = [talpha(i, s) for i in range(1, genus) for s in (1, -1)]
    flips = [transposition(i, s) for i in range(1, genus) for s in (1, -1)]
    flips += [crosscap_slide(1), crosscap_slide(-1)]
    outcomes = set()
    for _ in range(30):
        # transpositions and slides have finite homology order; twists mostly not
        syms = flips if rng.random() < 0.6 else flips + twists
        word = tuple(rng.choice(syms) for _ in range(rng.randrange(1, 7)))
        m = abelianize(evaluate(cat, word))
        limit = rng.randrange(1, 3 * genus)
        got = matrix_order(m, limit)
        assert got == dense_order(m, limit), word
        outcomes.add(got is None)
    assert outcomes == {True, False}


# ---------------------------------------------------------------------------
# abelianization of mapping classes


def test_identity_abelianizes_to_identity():
    assert abelianize(SurfacePresentation(5).letters_packed) == matrix_identity(4)


@pytest.mark.parametrize("genus", [3, 5, 30, 127])
def test_abelianize_matches_tuple_oracle(genus):
    """The matrix read off the packed images equals the exponent counts
    of the unpacked ones, on seeded words that each end in a symbol moving
    x_g, so that x_g^-1 occurs in the images (byte 0x81 at genus 127)."""
    rng = random.Random(5300 + genus)
    cat = get_catalog(genus)
    syms = [(kind, idx, sign) for kind, idx, _ in catalog_symbols(cat) for sign in (1, -1)]
    top = [sym for sym in syms if any(j == genus - 1 for j, _ in cat.moves(sym))]
    letters = set()
    for _ in range(40):
        word = tuple(rng.choice(syms) for _ in range(rng.randrange(0, 5)))
        word += (rng.choice(top),)
        pairs = evaluate(cat, word)
        images = unpacked(pairs)
        assert abelianize(pairs) == tuple_abelianize(images), word
        letters.update(letter for image in images for letter in image)
    assert -genus in letters


@pytest.mark.parametrize("genus", [3, 5, 6, 9])
def test_twist_determinants(genus):
    cat = get_catalog(genus)
    for i in range(1, genus):
        assert determinant(abelianize(evaluate(cat, (talpha(i),)))) == 1
    if genus >= 4:
        assert determinant(abelianize(evaluate(cat, (tbeta(),)))) == 1
    assert determinant(abelianize(evaluate(cat, (teps(),)))) == 1


@pytest.mark.parametrize("genus", [3, 5, 6, 9])
def test_transposition_and_slide_determinants(genus):
    cat = get_catalog(genus)
    for i in range(1, genus):
        assert determinant(abelianize(evaluate(cat, (transposition(i),)))) == -1
    assert determinant(abelianize(evaluate(cat, (crosscap_slide(),)))) == -1


def test_in_twist_subgroup():
    cat = get_catalog(5)
    assert determinant(abelianize(evaluate(cat, (talpha(1),)))) == 1
    assert determinant(abelianize(evaluate(cat, (transposition(1),)))) == -1
    assert determinant(abelianize(evaluate(cat, (crosscap_slide(),)))) == -1


def test_rotation_determinant_parity():
    for g in (5, 6, 7, 8):
        cat = get_catalog(g)
        r = tuple(transposition(i) for i in range(1, g))
        rp = tuple(transposition(i) for i in range(2, g))
        assert determinant(abelianize(evaluate(cat, r))) == (-1) ** (g - 1)
        assert determinant(abelianize(evaluate(cat, rp))) == (-1) ** g


def test_functoriality_of_abelianize(rng):
    cat = get_catalog(5)
    syms = [talpha(i, s) for i in range(1, 5) for s in (1, -1)]
    syms += [transposition(i, s) for i in range(1, 5) for s in (1, -1)]
    syms += [tbeta(1), tbeta(-1), crosscap_slide(1), crosscap_slide(-1)]
    for _ in range(200):
        w1 = tuple(rng.choice(syms) for _ in range(rng.randrange(0, 5)))
        w2 = tuple(rng.choice(syms) for _ in range(rng.randrange(0, 5)))
        a, b = evaluate(cat, w1), evaluate(cat, w2)
        product = matrix_mul(abelianize(a), abelianize(b))
        assert abelianize(evaluate(cat, w1 + w2)) == product
        assert abelianize(compose(a, b)) == product


def test_det_counts_orientation_reversers(rng):
    # each u_i and y contributes -1, every twist +1
    cat = get_catalog(5)
    syms = [talpha(i, s) for i in range(1, 5) for s in (1, -1)]
    syms += [transposition(i, s) for i in range(1, 5) for s in (1, -1)]
    syms += [tbeta(1), tbeta(-1), teps(1), teps(-1)]
    syms += [crosscap_slide(1), crosscap_slide(-1)]
    for _ in range(150):
        w = tuple(rng.choice(syms) for _ in range(rng.randrange(0, 7)))
        flips = sum(1 for (k, _, _) in w if k in ("u", "y"))
        assert determinant(abelianize(evaluate(cat, w))) == (-1) ** flips


# ---------------------------------------------------------------------------
# rotation matrices of the symmetric models


def test_eg_spec_genus():
    assert EgRotationSpec(12, 1, 0).genus == 12
    assert EgRotationSpec(12, 1, 10).genus == 232
    assert EgRotationSpec(12, 1, 0, extra_crosscap=True).genus == 13


def test_eg_spec_validation():
    """Positional, keyword and ``_replace`` construction all check each
    parameter against its least value."""
    with pytest.raises(ValueError):
        EgRotationSpec(1, 1, 0)
    with pytest.raises(ValueError):
        EgRotationSpec(12, 0, 0)
    assert EgRotationSpec(k=12, p=1, q=0, extra_crosscap=True) == EgRotationSpec(12, 1, 0, True)
    for make in (lambda: EgRotationSpec(12, 1, -1), lambda: EgRotationSpec(k=12, p=1, q=-1),
                 lambda: EgRotationSpec(12, 1, 0)._replace(q=-1)):
        with pytest.raises(ValueError, match="^q must be at least 0, got -1$"):
            make()


def test_eg_matrix_size():
    spec = EgRotationSpec(4, 2, 1)
    m = build_eg_rotation(spec)
    assert len(m) == spec.genus - 1


# sha256 of the rotation matrices of the grid below, concatenated as reprs
EG_ROTATION_DIGEST = "3682e283716604d3f409a3a68f7c6d512f0c779548c1a0f6ad8d3f4e71607f49"


def test_eg_rotation_matrices_match_committed_digest():
    """The matrices for k in 2..20, p in 1..4, q in 0..3, with and without
    the fixed crosscap, are byte for byte the committed ones."""
    digest = hashlib.sha256()
    for k, p, q, extra in itertools.product(range(2, 21), range(1, 5), range(4), (False, True)):
        digest.update(repr(build_eg_rotation(EgRotationSpec(k, p, q, extra))).encode())
    assert digest.hexdigest() == EG_ROTATION_DIGEST


def test_eg_k12_p1_q0_against_cofactor_oracle():
    # the 11x11 cyclic-permutation matrix on Z^12 modulo the sum vector
    spec = EgRotationSpec(12, 1, 0)
    m = build_eg_rotation(spec)
    assert len(m) == 11
    d = cofactor_det([list(row) for row in m])
    assert d == -1
    assert determinant(m) == d


def test_eg_determinant_grid():
    for k in range(2, 14):
        for p in (1, 2, 3):
            for q in (0, 1, 2):
                for extra in (False, True):
                    spec = EgRotationSpec(k, p, q, extra)
                    expected = (-1) ** p if k % 2 == 0 else 1
                    assert determinant(build_eg_rotation(spec)) == expected, spec


def test_eg_power_identity_grid():
    for k in (2, 5, 12, 13):
        for p in (1, 3):
            for q in (0, 2):
                for extra in (False, True):
                    m = build_eg_rotation(EgRotationSpec(k, p, q, extra))
                    assert matrix_power(m, k) == matrix_identity(len(m))


def test_eg_proper_divisor_powers_not_identity():
    spec = EgRotationSpec(12, 1, 0)
    m = build_eg_rotation(spec)
    ident = matrix_identity(len(m))
    for d in (1, 2, 3, 4, 6):
        assert matrix_power(m, d) != ident
    assert matrix_power(m, 12) == ident
    spec = EgRotationSpec(12, 1, 1, extra_crosscap=True)
    m = build_eg_rotation(spec)
    ident = matrix_identity(len(m))
    assert matrix_power(m, 12) == ident
    for d in (2, 3, 4, 6):
        assert matrix_power(m, d) != ident


# ---------------------------------------------------------------------------
# genus decomposition


def test_decompose_examples():
    d = decompose_genus(232, 12)
    assert (d.p, d.q, d.plus_one) == (1, 10, False)
    assert (d.n, d.m, d.r) == (110, 10, 0)
    d = decompose_genus(12, 12)
    assert (d.p, d.q, d.plus_one) == (1, 0, False)
    d = decompose_genus(13, 12)
    assert (d.p, d.q, d.plus_one) == (1, 0, True)


def test_decompose_full_ranges():
    for k in (12, 14, 16):
        lo = 2 * (k - 1) * (k - 2) + k
        for g in range(lo, lo + 201):
            d = decompose_genus(g, k)
            assert d.p % 2 == 1 and d.q >= 0
            assert d.p * k + 2 * d.q * (k - 1) + (1 if d.plus_one else 0) == g


def test_decompose_rejects_bad_k():
    with pytest.raises(ValueError):
        decompose_genus(232, 11)
    with pytest.raises(ValueError):
        decompose_genus(232, 10)


def test_decompose_out_of_range():
    with pytest.raises(ValueError, match="below the k=12 decomposition range"):
        decompose_genus(10, 12)  # below genus k
    with pytest.raises(ValueError, match="admits no decomposition"):
        decompose_genus(14, 12)  # n = 1 -> m = 0, r = 1, q < 0
