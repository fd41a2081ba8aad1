"""Acceptance suite: every criterion checked at its stated (exact) tolerance.

Each criterion prints one PASS line when it completes; any assertion error
fails the criterion with context.  Verdicts are exact integer/boolean
comparisons throughout.
"""

import hashlib
import json
import random

from mcgverify.claims import Bounds, build_claims, filter_claims, report_json, run_claims
from mcgverify.homology import (
    EgRotationSpec,
    abelianize,
    build_eg_rotation,
    decompose_genus,
    determinant,
    matrix_identity,
    matrix_mul,
    matrix_power,
)
from mcgverify.lantern import canonical_rules, check_countermodel, verify_lemma1
from mcgverify.mcg import (
    crosscap_slide,
    curve_class,
    curve_image,
    evaluate,
    get_catalog,
    inverse_word,
    order_of,
    talpha,
    tbeta,
    transposition,
)
from mcgverify.words import (
    abelianized,
    dehn_reduce,
    free_reduce,
    get_presentation,
    inverse,
    is_trivial,
    mul,
)

from conftest import mcg_equal, random_word, word_power
from test_words import all_words, oracle_conjugate


def _s(g):
    return tuple(talpha(i) for i in range(1, g))


def _sp(g):
    return (talpha(1),) + _s(g)


def _r(g):
    return tuple(transposition(i) for i in range(1, g))


def _rp(g):
    return tuple(transposition(i) for i in range(2, g))


def _x(g):
    tail = (talpha(2), talpha(3), talpha(4), tbeta())
    return ((crosscap_slide(-1),) + tail) if g == 6 else (
        (talpha(g - 1), transposition(g - 2)) + tail
    )


def test_criterion_1_order_table():
    for g in (5, 6, 7, 8):
        cat = get_catalog(g)
        assert order_of(cat, _r(g), g) == g, f"order(r) at g={g}"
        assert order_of(cat, _rp(g), g - 1) == g - 1, f"order(r') at g={g}"
        expected_s = g if g % 2 == 0 else 2 * g
        expected_sp = g - 1 if g % 2 == 0 else 2 * (g - 1)
        assert order_of(cat, _s(g), expected_s) == expected_s, f"order(s) at g={g}"
        assert order_of(cat, _sp(g), expected_sp) == expected_sp, f"order(s') at g={g}"
    cat5 = get_catalog(5)
    assert order_of(cat5, _s(5) + (tbeta(),), 6) == 6
    cat3 = get_catalog(3)
    assert order_of(cat3, (talpha(1), talpha(2)), 6) == 6
    assert order_of(cat3, (talpha(1), talpha(1), talpha(2)), 4) == 4
    assert order_of(cat3, (transposition(2),), 2) == 2
    print("ACCEPTANCE 1 (order table): PASS")


def test_criterion_2_identities():
    for g in range(4, 9):
        cat = get_catalog(g)
        assert mcg_equal(cat, word_power(_sp(g), g - 1), word_power(_s(g), g)) is True, g
    for g in range(5, 9):
        cat = get_catalog(g)
        assert mcg_equal(cat, (talpha(1),), _sp(g) + inverse_word(_s(g))) is True, g
    cat = get_catalog(5)
    stb = _s(5) + (tbeta(),)
    assert mcg_equal(cat, (talpha(4),), inverse_word(stb) + (tbeta(),) + stb) is True
    print("ACCEPTANCE 2 (identities): PASS")


def test_criterion_3_curve_orbits():
    for g in (5, 6, 7, 8):
        cat = get_catalog(g)
        for i in range(1, g - 1):
            a_i = curve_class(cat, cat.curves[f"a{i}"])
            a_next = curve_class(cat, cat.curves[f"a{i+1}"])
            assert curve_image(cat, _s(g), a_i) == a_next, (g, i, "s")
            assert curve_image(cat, _r(g), a_i) == a_next, (g, i, "r")
    cat = get_catalog(5)
    w = (crosscap_slide(-1),) + _rp(5) + (crosscap_slide(),)
    assert curve_image(cat, w, curve_class(cat, cat.curves["a2"])) == curve_class(
        cat, cat.curves["e"]
    )
    for g in (6, 7, 8):
        cat = get_catalog(g)
        x = _x(g)
        beta = curve_class(cat, cat.curves["b"])
        eps = curve_class(cat, cat.curves["e"])
        a2 = curve_class(cat, cat.curves["a2"])
        a3 = curve_class(cat, cat.curves["a3"])
        a4 = curve_class(cat, cat.curves["a4"])
        assert curve_image(cat, x, a4) == beta, g
        assert curve_image(cat, x, a2) == a3, g
        if g == 6:
            assert curve_image(cat, x, a3) == eps
            assert curve_image(cat, x + _r(g) + inverse_word(x), a3) == eps
        else:
            alast = curve_class(cat, cat.curves[f"a{g-1}"])
            assert curve_image(cat, x, alast) == eps, g
            xrkx = x + word_power(_r(g), g - 3) + inverse_word(x)
            assert curve_image(cat, xrkx, a3) == eps, g
        xr2x = x + word_power(_r(g), 2) + inverse_word(x)
        assert curve_image(cat, xr2x, a3) == beta, g
    print("ACCEPTANCE 3 (curve orbits): PASS")


def test_criterion_4_determinants():
    for g in range(3, 10):
        cat = get_catalog(g)
        for i in range(1, g):
            assert determinant(abelianize(evaluate(cat, (talpha(i),)))) == 1, (g, i)
            assert determinant(abelianize(evaluate(cat, (transposition(i),)))) == -1, (g, i)
        if g >= 4:
            assert determinant(abelianize(evaluate(cat, (tbeta(),)))) == 1, g
        assert determinant(abelianize(evaluate(cat, (("e", 0, 1),)))) == 1, g
        assert determinant(abelianize(evaluate(cat, (crosscap_slide(),)))) == -1, g
        det_r = determinant(abelianize(evaluate(cat, _r(g))))
        det_rp = determinant(abelianize(evaluate(cat, _rp(g))))
        if g % 2 == 0:
            assert det_r == -1, g
        else:
            assert det_rp == -1, g
        assert det_r == (-1) ** (g - 1) and det_rp == (-1) ** g, g
    print("ACCEPTANCE 4 (determinant criterion): PASS")


def test_criterion_5_rotation_grid():
    for k in range(2, 14):
        expected = (-1) if k % 2 == 0 else 1
        for p in (1, 2, 3):
            for q in (0, 1, 2):
                for extra in (False, True):
                    spec = EgRotationSpec(k, p, q, extra)
                    m = build_eg_rotation(spec)
                    want = expected ** p if k % 2 == 0 else 1
                    assert determinant(m) == want, spec
                    assert matrix_power(m, k) == matrix_identity(len(m)), spec
    print("ACCEPTANCE 5 (rotation-matrix grid): PASS")


def test_criterion_6_decomposition_ranges():
    for k in (12, 14, 16):
        lo = 2 * (k - 1) * (k - 2) + k
        for g in range(lo, lo + 201):
            d = decompose_genus(g, k)
            assert d.p % 2 == 1, (g, k)
            assert d.q >= 0, (g, k)
            assert d.p * k + 2 * d.q * (k - 1) + (1 if d.plus_one else 0) == g, (g, k)
    print("ACCEPTANCE 6 (genus decomposition): PASS")


def test_criterion_7_symbolic_derivation():
    assert verify_lemma1(canonical_rules()) is True
    for removed in (
        "f ta3 f^-1",
        "g td1 g^-1",
        "g tg g^-1",
        "h td2 h^-1",
        "h tb h^-1",
    ):
        # a finite countermodel: no derivation of any length
        assert check_countermodel(removed).startswith("countermodel "), removed
    print("ACCEPTANCE 7 (symbolic derivation + ablations): PASS")


def test_criterion_8_kernel_property_suites():
    rng = random.Random(20260810)

    # 10^4 random words: reduction idempotence and length monotonicity
    count = 0
    for genus in (3, 4, 5, 6):
        pres = get_presentation(genus)
        for _ in range(2500):
            w = random_word(rng, genus, 40)
            f = free_reduce(w)
            assert free_reduce(f) == f and len(f) <= len(w)
            d = dehn_reduce(pres, w)
            assert dehn_reduce(pres, d) == d and len(d) <= len(f)
            count += 1
    assert count == 10_000

    # 10^4 random words: no false trivials against the homology oracle
    count = 0
    for genus in (3, 4, 5, 6):
        pres = get_presentation(genus)
        for _ in range(2500):
            w = random_word(rng, genus, 30)
            if is_trivial(pres, w):
                assert not any(abelianized(genus, w)), w
            count += 1
    assert count == 10_000

    # genus-3 conjugacy against the brute-force conjugator oracle:
    # exhaustive on all pairs of words of length <= 2, randomized up to
    # length 8 (the full length-8 pair grid is astronomically large)
    pres3 = get_presentation(3)
    from mcgverify.words import is_conjugate

    short = [()] + all_words(3, 1) + all_words(3, 2)
    for a in short:
        for b in short:
            assert is_conjugate(pres3, a, b) == oracle_conjugate(pres3, a, b, 4), (a, b)
    negatives = 0
    for _ in range(600):
        a = random_word(rng, 3, 8)
        c = random_word(rng, 3, 4)
        assert is_conjugate(pres3, a, mul(c, a, inverse(c)))
        b = random_word(rng, 3, 8)
        got = is_conjugate(pres3, a, b)
        if got:
            assert oracle_conjugate(pres3, a, b, 8), (a, b)
        elif abelianized(3, a) == abelianized(3, b) and negatives < 20:
            negatives += 1
            assert not oracle_conjugate(pres3, a, b, 4), (a, b)

    # functoriality of the homology action on 10^3 random catalog pairs
    cat = get_catalog(5)
    syms = [talpha(i, s) for i in range(1, 5) for s in (1, -1)]
    syms += [transposition(i, s) for i in range(1, 5) for s in (1, -1)]
    syms += [tbeta(1), tbeta(-1), crosscap_slide(1), crosscap_slide(-1)]
    for _ in range(1000):
        w1 = tuple(rng.choice(syms) for _ in range(rng.randrange(0, 5)))
        w2 = tuple(rng.choice(syms) for _ in range(rng.randrange(0, 5)))
        left = abelianize(evaluate(cat, w1 + w2))
        m1, m2 = (abelianize(evaluate(cat, w)) for w in (w1, w2))
        assert left == matrix_mul(m1, m2)
    print("ACCEPTANCE 8 (kernel property suites): PASS")


# sha256 of the JSON report with every ``millis`` removed (report_digest):
# equal digests mean the same verdicts, observed values and witnesses.  A
# change that means to move one of them updates the digest here.
REPORT_DIGESTS = {
    "default": "9fe6f1609991211efc37a1318294d3ea9e03eb3a279c47a7a09c3174c53168af",
    "[mt]* genus 24..30": "56aaa2c7b2b740589513441b8e91c31b017d386ffca062ebe8223b288b911132",
    "[mt]* genus 127..127": "7065648d9bdf6d11aaf042fcd69836a1f61b70eee122e93e4aaf17cd5dcc4452",
}


def report_digest(reports):
    """sha256 of ``report_json(reports)`` without ``millis``, keys sorted,
    compact: the digest ``bench/verdicts.py`` takes of a ``run`` report."""
    rows = json.loads(report_json(reports))
    for row in rows:
        del row["millis"]
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_full_builtin_catalog_passes():
    """Every claim in the built-in catalog passes at default bounds; the
    catalog is the machine-checkable content of the verified statements.
    The report, timings aside, is the committed one."""
    claims = build_claims()
    reports = run_claims(claims, Bounds())
    bad = [r for r in reports if r.status != "pass"]
    assert not bad, [(r.id, r.status, r.observed) for r in bad[:10]]
    assert len(reports) == 1270
    assert report_digest(reports) == REPORT_DIGESTS["default"]
    print(f"ACCEPTANCE catalog ({len(reports)} claims): PASS")


def test_high_genus_reports_match_committed_digest():
    """``run --filter '[mt]*' --genus 24..30``: orders, identities, curve
    orbits and determinants at genera 24..30, report equal to the
    committed one apart from timings."""
    claims = filter_claims(build_claims(genus_range=(24, 30)), "[mt]*")
    reports = run_claims(claims, Bounds())
    assert len(reports) == 847
    assert report_digest(reports) == REPORT_DIGESTS["[mt]* genus 24..30"]


def test_genus_cap_reports_match_committed_digest():
    """``run --filter '[mt]*' --genus 127..127``: the same claims at the
    genus cap, where the power tables are longest, report equal to the
    committed one apart from timings."""
    claims = filter_claims(build_claims(genus_range=(127, 127)), "[mt]*")
    reports = run_claims(claims, Bounds())
    assert len(reports) == 521
    assert report_digest(reports) == REPORT_DIGESTS["[mt]* genus 127..127"]
