"""Built-in catalog of checkable claims and the batch runner.

Each claim packages one decidable statement (an element order, an identity
up to inner automorphism, a curve-orbit computation, a determinant, a
rotation-matrix fact, a genus decomposition, or a step of the symbolic
twist derivation) together with its expected value, a human-readable
source label, and a provenance tag:

* ``stated``  -- the expected value appears in the verified text,
* ``derived`` -- computed here by an independent route,
* ``trivial`` -- immediate from the definitions.

Reports are reproducible: claims are evaluated with explicit bounds and
the report is ordered by claim id.
"""

from __future__ import annotations

import fnmatch
import json
import time
from dataclasses import dataclass, field

from .errors import BudgetExceeded, InvariantViolation, UnknownClaim
from .homology import (
    EgRotationSpec,
    abelianize,
    build_eg_rotation,
    decompose_genus,
    determinant,
    eg_matrix_power_identity,
    in_twist_subgroup,
)
from .lantern import canonical_rules, reversed_lantern_rules, verify_lemma1
from .mcg import (
    Inconclusive,
    Inner,
    NotInner,
    crosscap_slide,
    curve_class,
    curve_image,
    evaluate,
    format_mcg_word,
    get_catalog,
    inverse_word,
    is_inner,
    order_of,
    talpha,
    tbeta,
    transposition,
    word_power,
)
from .words import format_word


@dataclass(frozen=True)
class Bounds:
    """Search bounds shared by a run."""

    conj: int = 16
    order: int = 0  # 0 = default 4*genus per claim
    budget: int = 100_000

    def order_bound(self, genus: int) -> int:
        return self.order if self.order > 0 else 4 * genus

    def as_dict(self) -> dict:
        return {"conj": self.conj, "order": self.order or "4g", "budget": self.budget}


@dataclass(frozen=True)
class Claim:
    id: str
    kind: str
    description: str
    source: str
    provenance: str
    expected: object
    runner: object = field(repr=False, compare=False)


@dataclass
class ClaimReport:
    id: str
    status: str  # pass | fail | inconclusive
    expected: object
    observed: object
    witness: object
    millis: float
    bounds: dict

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "status": self.status,
            "expected": self.expected,
            "observed": self.observed,
            "witness": self.witness,
            "millis": self.millis,
            "bounds": self.bounds,
        }


# ---------------------------------------------------------------------------
# Element words


def word_s(g):
    return tuple(talpha(i) for i in range(1, g))


def word_s_prime(g):
    return (talpha(1),) + word_s(g)


def word_r(g):
    return tuple(transposition(i) for i in range(1, g))


def word_r_prime(g):
    return tuple(transposition(i) for i in range(2, g))


def word_x(g):
    if g < 6:
        raise ValueError("x is defined for genus >= 6")
    tail = (talpha(2), talpha(3), talpha(4), tbeta())
    if g == 6:
        return (crosscap_slide(-1),) + tail
    return (talpha(g - 1), transposition(g - 2)) + tail


# ---------------------------------------------------------------------------
# Claim runners (each returns (status, observed, witness))


def _status(ok) -> str:
    if ok is True:
        return "pass"
    if ok is False:
        return "fail"
    return "inconclusive"


def _order_claim(genus, word, expected):
    def run(bounds: Bounds):
        catalog = get_catalog(genus)
        result = order_of(catalog, word, bounds.order_bound(genus), bound=bounds.conj)
        if isinstance(result, Inconclusive):
            return "inconclusive", f"inconclusive at conjugator bound {result.bound}", None
        if isinstance(result, int):
            return _status(result == expected), result, format_mcg_word(word)
        return "fail", f"no order within {bounds.order_bound(genus)}", None

    return run


def _identity_claim(genus, w1, w2):
    def run(bounds: Bounds):
        catalog = get_catalog(genus)
        diff = evaluate(catalog, tuple(w1) + inverse_word(w2))
        status = is_inner(catalog.presentation, diff, bound=bounds.conj)
        if isinstance(status, Inner):
            return "pass", True, format_word(status.witness)
        if isinstance(status, NotInner):
            return "fail", False, None
        return "inconclusive", f"inconclusive at conjugator bound {status.bound}", None

    return run


def _orbit_claim(genus, word, start_curve, expected_curve):
    def run(bounds: Bounds):
        catalog = get_catalog(genus)
        image = curve_image(catalog, word, curve_class(catalog, catalog.curves[start_curve]))
        target = curve_class(catalog, catalog.curves[expected_curve])
        return _status(image == target), format_word(image.key), format_word(target.key)

    return run


def _det_claim(genus, word, expected):
    def run(bounds: Bounds):
        catalog = get_catalog(genus)
        matrix = abelianize(evaluate(catalog, word))
        det = matrix.det()
        in_twist = in_twist_subgroup(matrix)
        return _status(det == expected), det, f"in_twist_subgroup={in_twist}"

    return run


def _eg_det_claim(spec, expected):
    def run(bounds: Bounds):
        det = determinant(build_eg_rotation(spec))
        return _status(det == expected), det, f"genus={spec.genus}"

    return run


def _eg_power_claim(spec):
    def run(bounds: Bounds):
        ok = eg_matrix_power_identity(spec)
        return _status(ok), ok, f"matrix size {spec.genus - 1}"

    return run


def _decomp_claim(g, k):
    def run(bounds: Bounds):
        d = decompose_genus(g, k)
        ok = d.reconstructs() and d.p % 2 == 1 and d.q >= 0
        observed = {"p": d.p, "q": d.q, "plus_one": d.plus_one}
        witness = f"n={d.n} m={d.m} r={d.r}"
        return _status(ok), observed, witness

    return run


def _lemma_claim():
    def run(bounds: Bounds):
        ok = verify_lemma1(canonical_rules(), budget=bounds.budget)
        return _status(ok), ok, "derivation chain verified"

    return run


def _ablation_claim(removed):
    def run(bounds: Bounds):
        rules = canonical_rules().without(removed) if removed else reversed_lantern_rules()
        # a failed derivation is the expected outcome; exceeding the budget
        # is also a failure to derive
        budget = min(bounds.budget, 15_000)
        try:
            derived = verify_lemma1(rules, budget=budget)
        except BudgetExceeded:
            return "pass", "budget exhausted without derivation", f"budget={budget}"
        return _status(not derived), derived, None

    return run


# ---------------------------------------------------------------------------
# Catalog construction


def _genus_claims(g: int):
    claims = []

    def add(cid, kind, description, source, provenance, expected, runner):
        claims.append(Claim(cid, kind, description, source, provenance, expected, runner))

    even = g % 2 == 0

    if g >= 5:
        add(
            f"thm1.order.r.g{g}", "order",
            f"r = u1..u{g-1} has order {g}",
            "theorem-1 proof: orders of the crosscap rotations",
            "stated", g, _order_claim(g, word_r(g), g),
        )
        add(
            f"thm1.order.rprime.g{g}", "order",
            f"r' = u2..u{g-1} has order {g-1}",
            "theorem-1 proof: orders of the crosscap rotations",
            "stated", g - 1, _order_claim(g, word_r_prime(g), g - 1),
        )
        s_order = g if even else 2 * g
        sp_order = g - 1 if even else 2 * (g - 1)
        add(
            f"thm1.order.s.g{g}", "order",
            f"s = t_a1..t_a{g-1} has order {s_order}",
            "theorem-1 proof: orders of the chain-twist products",
            "stated", s_order, _order_claim(g, word_s(g), s_order),
        )
        add(
            f"thm1.order.sprime.g{g}", "order",
            f"s' = t_a1^2 t_a2..t_a{g-1} has order {sp_order}",
            "theorem-1 proof: orders of the chain-twist products",
            "stated", sp_order, _order_claim(g, word_s_prime(g), sp_order),
        )

    if g == 5:
        add(
            "thm1.order.st-beta.g5", "order",
            "s t_b has order 6",
            "theorem-1 proof, genus-5 case",
            "stated", 6, _order_claim(5, word_s(5) + (tbeta(),), 6),
        )
    if g == 3:
        add(
            "thm1.order.t12.g3", "order",
            "t_a1 t_a2 has order 6",
            "theorem-1 proof, genus-3 case: three torsion generators",
            "stated", 6, _order_claim(3, (talpha(1), talpha(2)), 6),
        )
        add(
            "thm1.order.t112.g3", "order",
            "t_a1^2 t_a2 has order 4",
            "theorem-1 proof, genus-3 case: three torsion generators",
            "stated", 4, _order_claim(3, (talpha(1), talpha(1), talpha(2)), 4),
        )
        add(
            "thm1.order.u2.g3", "order",
            "u2 has order 2",
            "theorem-1 proof, genus-3 case: three torsion generators",
            "stated", 2, _order_claim(3, (transposition(2),), 2),
        )

    if g >= 4:
        add(
            f"thm1.id.chain-power.g{g}", "identity",
            f"(s')^{g-1} = s^{g}",
            "theorem-1 proof: braid-relation consequence",
            "stated", True,
            _identity_claim(g, word_power(word_s_prime(g), g - 1), word_power(word_s(g), g)),
        )
    if g >= 5:
        add(
            f"thm1.id.talpha1.g{g}", "identity",
            "t_a1 = s' s^-1",
            "theorem-1 proof: recovering the first twist",
            "stated", True,
            _identity_claim(g, (talpha(1),), word_s_prime(g) + inverse_word(word_s(g))),
        )
    if g == 5:
        stb = word_s(5) + (tbeta(),)
        add(
            "thm1.id.talpha4.g5", "identity",
            "t_a4 = (s t_b)^-1 t_b (s t_b)",
            "theorem-1 proof, genus-5 case",
            "stated", True,
            _identity_claim(5, (talpha(4),), inverse_word(stb) + (tbeta(),) + stb),
        )

    if g >= 5:
        for i in range(1, g - 1):
            add(
                f"thm1.orbit.s.a{i}.g{g}", "curve_image",
                f"s(a{i}) = a{i+1}",
                "theorem-1 proof: chain curves lie in one s-orbit",
                "stated", f"a{i+1}", _orbit_claim(g, word_s(g), f"a{i}", f"a{i+1}"),
            )
            add(
                f"thm1.orbit.r.a{i}.g{g}", "curve_image",
                f"r(a{i}) = a{i+1}",
                "theorem-1 proof: chain curves lie in one r-orbit",
                "stated", f"a{i+1}", _orbit_claim(g, word_r(g), f"a{i}", f"a{i+1}"),
            )
    if g == 5:
        w = (crosscap_slide(-1),) + word_r_prime(5) + (crosscap_slide(),)
        add(
            "thm1.orbit.yrprimey.g5", "curve_image",
            "y^-1 r' y(a2) = e",
            "theorem-1 proof, genus-5 case: reaching the eps twist",
            "stated", "e", _orbit_claim(5, w, "a2", "e"),
        )
    if g >= 6:
        x = word_x(g)
        add(
            f"thm1.orbit.x-a4.g{g}", "curve_image",
            "x(a4) = b",
            "theorem-1 proof: images under the conjugating element x",
            "stated", "b", _orbit_claim(g, x, "a4", "b"),
        )
        add(
            f"thm1.orbit.x-a2.g{g}", "curve_image",
            "x(a2) = a3",
            "theorem-1 proof: images under the conjugating element x",
            "stated", "a3", _orbit_claim(g, x, "a2", "a3"),
        )
        if g == 6:
            add(
                "thm1.orbit.x-a3.g6", "curve_image",
                "x(a3) = e",
                "theorem-1 proof: images under the conjugating element x",
                "stated", "e", _orbit_claim(6, x, "a3", "e"),
            )
        else:
            add(
                f"thm1.orbit.x-alast.g{g}", "curve_image",
                f"x(a{g-1}) = e",
                "theorem-1 proof: images under the conjugating element x",
                "stated", "e", _orbit_claim(g, x, f"a{g-1}", "e"),
            )
        xr2x = x + word_power(word_r(g), 2) + inverse_word(x)
        add(
            f"thm1.orbit.xr2x.g{g}", "curve_image",
            "x r^2 x^-1(a3) = b",
            "theorem-1 proof: beta joins the twist-curve orbit",
            "stated", "b", _orbit_claim(g, xr2x, "a3", "b"),
        )
        if g == 6:
            xrx = x + word_r(g) + inverse_word(x)
            add(
                "thm1.orbit.xrx.g6", "curve_image",
                "x r x^-1(a3) = e",
                "theorem-1 proof: eps joins the twist-curve orbit",
                "stated", "e", _orbit_claim(6, xrx, "a3", "e"),
            )
        else:
            xrkx = x + word_power(word_r(g), g - 3) + inverse_word(x)
            add(
                f"thm1.orbit.xrkx.g{g}", "curve_image",
                f"x r^{g-3} x^-1(a3) = e",
                "theorem-1 proof: eps joins the twist-curve orbit",
                "stated", "e", _orbit_claim(g, xrkx, "a3", "e"),
            )

    # determinant criterion
    for i in range(1, g):
        add(
            f"twist.det.a{i}.g{g}", "determinant",
            f"det of the twist t_a{i} on homology is +1",
            "determinant criterion for the twist subgroup",
            "stated", 1, _det_claim(g, (talpha(i),), 1),
        )
    if g >= 4:
        add(
            f"twist.det.b.g{g}", "determinant",
            "det of the twist t_b on homology is +1",
            "determinant criterion for the twist subgroup",
            "stated", 1, _det_claim(g, (tbeta(),), 1),
        )
    add(
        f"twist.det.e.g{g}", "determinant",
        "det of the twist t_e on homology is +1",
        "determinant criterion for the twist subgroup",
        "stated", 1, _det_claim(g, (("e", 0, 1),), 1),
    )
    for i in range(1, g):
        add(
            f"mcg.det.u{i}.g{g}", "determinant",
            f"det of the crosscap transposition u{i} is -1",
            "crosscap transpositions lie outside the twist subgroup",
            "stated", -1, _det_claim(g, (transposition(i),), -1),
        )
    add(
        f"mcg.det.y.g{g}", "determinant",
        "det of the crosscap slide y is -1",
        "product of a twist (+1) and a transposition (-1)",
        "derived", -1, _det_claim(g, (crosscap_slide(),), -1),
    )
    add(
        f"thm1.det.r.g{g}", "determinant",
        f"det(r) = {(-1) ** (g - 1)}",
        "theorem-1 proof: r is outside the twist subgroup for even genus",
        "stated" if even else "derived", (-1) ** (g - 1),
        _det_claim(g, word_r(g), (-1) ** (g - 1)),
    )
    add(
        f"thm1.det.rprime.g{g}", "determinant",
        f"det(r') = {(-1) ** g}",
        "theorem-1 proof: r' is outside the twist subgroup for odd genus",
        "stated" if not even else "derived", (-1) ** g,
        _det_claim(g, word_r_prime(g), (-1) ** g),
    )
    add(
        f"tsub.det.s.g{g}", "determinant",
        "det(s) = +1 (s is a product of twists)",
        "twist-subgroup generators of the theorem-1 proof",
        "trivial", 1, _det_claim(g, word_s(g), 1),
    )
    if g == 5:
        add(
            "tsub.det.stbeta.g5", "determinant",
            "det(s t_b) = +1",
            "twist-subgroup generators of the theorem-1 proof, genus 5",
            "trivial", 1, _det_claim(5, word_s(5) + (tbeta(),), 1),
        )
        w = (crosscap_slide(-1),) + word_s(5) + (crosscap_slide(),)
        add(
            "tsub.det.ysy.g5", "determinant",
            "det(y^-1 s y) = +1",
            "twist-subgroup generators of the theorem-1 proof, genus 5",
            "trivial", 1, _det_claim(5, w, 1),
        )
    if g >= 6:
        x = word_x(g)
        add(
            f"tsub.det.xsx.g{g}", "determinant",
            "det(x s x^-1) = +1",
            "twist-subgroup generators of the theorem-1 proof",
            "trivial", 1, _det_claim(g, x + word_s(g) + inverse_word(x), 1),
        )
        if even:
            add(
                f"thm1.det.xrx.g{g}", "determinant",
                "det(x r x^-1) = -1",
                "theorem-1 proof: the third generator is outside the twist subgroup",
                "stated", -1, _det_claim(g, x + word_r(g) + inverse_word(x), -1),
            )
        else:
            add(
                f"thm1.det.xrprimex.g{g}", "determinant",
                "det(x r' x^-1) = -1",
                "theorem-1 proof: the third generator is outside the twist subgroup",
                "stated", -1, _det_claim(g, x + word_r_prime(g) + inverse_word(x), -1),
            )

    return claims


def _eg_claims(ks, ps, qs):
    claims = []
    for k in ks:
        for p in ps:
            for q in qs:
                for extra in (False, True):
                    spec = EgRotationSpec(k, p, q, extra)
                    suffix = f"k{k}.p{p}.q{q}" + (".x" if extra else "")
                    expected = (-1) ** p if k % 2 == 0 else 1
                    claims.append(Claim(
                        f"lemma-embed.det.{suffix}", "eg_det",
                        f"rotation of the symmetric genus-{spec.genus} model has det {expected}",
                        "embedding lemma: determinant of the order-k rotation",
                        "stated" if k % 2 == 0 else "derived",
                        expected, _eg_det_claim(spec, expected),
                    ))
                    claims.append(Claim(
                        f"lemma-embed.power.{suffix}", "eg_power",
                        f"rotation matrix of the genus-{spec.genus} model has order dividing {k}",
                        "embedding lemma: the rotation has order k",
                        "stated", True, _eg_power_claim(spec),
                    ))
    return claims


def _cor4_claims(ks):
    claims = []
    for k in ks:
        if k < 12 or k % 2:
            continue
        lo = 2 * (k - 1) * (k - 2) + k
        for g in range(lo, lo + 201):
            claims.append(Claim(
                f"cor4.decomp.g{g}.k{k}", "decomposition",
                f"genus {g} decomposes as pk + 2q(k-1) (+1) with p odd, k={k}",
                "genus-decomposition corollary: division with remainder",
                "derived", True, _decomp_claim(g, k),
            ))
    return claims


def _lantern_claims():
    claims = [Claim(
        "lemma1.proof", "lantern",
        "the twist t_a1 is derivable from the relation and the hypotheses",
        "four-holed-sphere twist derivation",
        "stated", True, _lemma_claim(),
    )]
    ablations = [
        ("lemma1.ablate.f", "f ta3 f^-1"),
        ("lemma1.ablate.g-d1", "g td1 g^-1"),
        ("lemma1.ablate.g-g", "g tg g^-1"),
        ("lemma1.ablate.h-d2", "h td2 h^-1"),
        ("lemma1.ablate.h-b", "h tb h^-1"),
    ]
    for cid, rule in ablations:
        claims.append(Claim(
            cid, "lantern",
            f"removing the hypothesis {rule} breaks the derivation",
            "four-holed-sphere twist derivation: hypothesis ablation",
            "derived", "no derivation", _ablation_claim(rule),
        ))
    claims.append(Claim(
        "lemma1.reversed", "lantern",
        "reversing the relation's right-hand side breaks the derivation",
        "four-holed-sphere twist derivation: relation ablation",
        "derived", "no derivation", _ablation_claim(None),
    ))
    return claims


def build_claims(genus_range=(3, 9), ks=range(2, 14), ps=(1, 2, 3), qs=(0, 1, 2),
                 cor4_ks=(12, 14, 16)):
    """The full built-in catalog for the given parameter ranges."""
    claims = []
    lo, hi = genus_range
    for g in range(max(lo, 3), hi + 1):
        claims.extend(_genus_claims(g))
    claims.extend(_eg_claims(ks, ps, qs))
    claims.extend(_cor4_claims(cor4_ks))
    claims.extend(_lantern_claims())
    claims.sort(key=lambda c: c.id)
    ids = [c.id for c in claims]
    if len(ids) != len(set(ids)):
        raise InvariantViolation("claim ids must be unique")
    return claims


def filter_claims(claims, pattern: str):
    if not pattern:
        return list(claims)
    return [c for c in claims if fnmatch.fnmatchcase(c.id, pattern)]


# ---------------------------------------------------------------------------
# Runner


def run_claim(claim: Claim, bounds: Bounds) -> ClaimReport:
    start = time.perf_counter()
    try:
        status, observed, witness = claim.runner(bounds)
    except BudgetExceeded as exc:
        status, observed, witness = "inconclusive", str(exc), None
    millis = (time.perf_counter() - start) * 1000.0
    return ClaimReport(
        id=claim.id,
        status=status,
        expected=claim.expected,
        observed=observed,
        witness=witness,
        millis=round(millis, 3),
        bounds=bounds.as_dict(),
    )


def run_claims(claims, bounds: Bounds = Bounds()):
    """Run the given claims in order of claim id."""
    return [run_claim(c, bounds) for c in sorted(claims, key=lambda c: c.id)]


def exit_code(reports) -> int:
    """0 if all pass, 2 if any fail, 3 if any inconclusive and none fail."""
    statuses = {r.status for r in reports}
    if "fail" in statuses:
        return 2
    if "inconclusive" in statuses:
        return 3
    return 0


def report_json(reports) -> str:
    return json.dumps([r.as_dict() for r in reports], indent=2)


def find_claim(claims, claim_id: str) -> Claim:
    for c in claims:
        if c.id == claim_id:
            return c
    raise UnknownClaim(claim_id)
