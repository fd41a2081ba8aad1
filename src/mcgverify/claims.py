"""Built-in catalog of checkable claims and the batch runner.

Each claim packages one decidable statement (an element order, an identity
up to inner automorphism, a curve-orbit computation, a determinant, a
rotation-matrix fact, a genus decomposition, or a step of the symbolic
twist derivation) together with its expected value, a human-readable
source label, and a provenance tag:

* ``stated``  -- the expected value appears in the verified text,
* ``derived`` -- computed here by an independent route,
* ``trivial`` -- immediate from the definitions.

A claim is plain data.  ``run_claim`` looks its ``kind`` up in ``RUNNERS``;
the runner builds what it checks from the claim's ``params`` and compares
the result with the claim's ``expected``.  The claims about one genus come
from the family table ``FAMILIES``, and their mapping-class words are built
only when a claim runs, so building, listing or explaining a catalog at a
high genus builds no word.

Claim ids name their parameters: ``.g<n>`` is the genus (of a ``cor4`` id,
the genus it decomposes), ``.k<k>.p<p>.q<q>`` the rotation model of a
``lemma-embed`` id, and the ``.k<k>`` of a ``cor4`` id its rotation order.
``resolve_claims`` builds the catalog from the parameters an id or an id
glob names, so ``explain`` and ``list`` find every claim ``run`` can
produce.

Reports are reproducible: the report is ordered by claim id.  An order
claim is checked against the order N it states (``order_of`` tests only the
divisors of N), so it needs no search bound.  The one search that has a
bound is the ``lemma1.proof`` derivation: ``build_claims(budget=...)``
puts its rewriting budget into that claim's params, and only that claim's
report row lists a ``bounds`` entry.
"""

from __future__ import annotations

import fnmatch
import itertools
import json
import re
import time
from collections.abc import Callable
from dataclasses import dataclass

from .errors import BudgetExceeded, InvariantViolation, UnknownClaim
from .homology import (
    MODEL_LEAST,
    EgRotationSpec,
    build_eg_rotation,
    decompose_genus,
    determinant,
    matrix_identity,
    matrix_power,
)
from .lantern import DEFAULT_BUDGET, canonical_rules, check_countermodel, verify_lemma1
from .mcg import (
    Inner,
    crosscap_slide,
    curve_class,
    format_mcg_word,
    get_catalog,
    identity_status,
    inverse_word,
    order_of,
    power_pairs,
    product_curve_key,
    talpha,
    tbeta,
    teps,
    transposition,
)
from .words import MAX_GENUS, abelianized, format_word, unpack


@dataclass(frozen=True)
class Claim:
    """One decidable statement; ``params`` holds what its kind's runner
    needs to decide it."""

    id: str
    kind: str
    description: str
    source: str
    provenance: str
    expected: object
    params: dict


@dataclass
class ClaimReport:
    id: str
    status: str  # pass | fail | inconclusive
    expected: object
    observed: object
    witness: object
    millis: float
    bounds: dict


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


def _conjugate(x, w):
    """The word x w x^-1."""
    return x + w + inverse_word(x)


def _one(word):
    """A word as the one factor of a curve-image map."""
    return ((word, 1),)


def _conjugate_power(x, w, k):
    """The factors of x w^k x^-1, which keep the power."""
    return ((x, 1), (w, k), (inverse_word(x), 1))


def _stb():
    return word_s(5) + (tbeta(),)


# ---------------------------------------------------------------------------
# The families of claims about one genus


@dataclass(frozen=True)
class Family:
    """The claims ``id`` names about the genus-g surface: one for each g with
    ``when(g)``, times each index i in ``indices(g)`` when that is given.

    ``id``, ``description`` and ``curve`` are templates over ``g``, ``i``,
    ``g1`` = g-1, ``g3`` = g-3 and ``expected``; ``expected`` and
    ``provenance`` are values or functions of (g, i).  ``word(g, i)`` builds
    the mapping-class word the claim checks: the element of an ``order``
    claim, the class of a ``determinant`` claim, and the two sides of an
    ``identity`` claim, each a ``(word, exponent)`` pair.  The map sending
    ``curve`` to the expected curve of a ``curve_image`` claim is a tuple of
    such factors, applied rightmost first: one factor for most maps, and
    ``(x, 1), (r, k), (x^-1, 1)`` for ``x r^k x^-1``, whose power costs a
    ladder of squarings instead of (g-1)k appended symbols.
    """

    id: str
    kind: str
    when: Callable
    description: str
    source: str
    expected: object
    word: Callable
    provenance: object = "stated"
    indices: Callable = None
    curve: str = None


ROTATION_ORDERS = "theorem-1 proof: orders of the crosscap rotations"
CHAIN_ORDERS = "theorem-1 proof: orders of the chain-twist products"
GENUS_3 = "theorem-1 proof, genus-3 case: three torsion generators"
GENUS_5 = "theorem-1 proof, genus-5 case"
X_IMAGES = "theorem-1 proof: images under the conjugating element x"
EPS_ORBIT = "theorem-1 proof: eps joins the twist-curve orbit"
CRITERION = "determinant criterion for the twist subgroup"
THIRD_GENERATOR = "theorem-1 proof: the third generator is outside the twist subgroup"
TSUB = "twist-subgroup generators of the theorem-1 proof"

FAMILIES = {family.id: family for family in (
    # element orders
    Family("thm1.order.r.g{g}", "order", lambda g: g >= 5,
           "r = u1..u{g1} has order {g}", ROTATION_ORDERS,
           lambda g, i: g, lambda g, i: word_r(g)),
    Family("thm1.order.rprime.g{g}", "order", lambda g: g >= 5,
           "r' = u2..u{g1} has order {g1}", ROTATION_ORDERS,
           lambda g, i: g - 1, lambda g, i: word_r_prime(g)),
    Family("thm1.order.s.g{g}", "order", lambda g: g >= 5,
           "s = t_a1..t_a{g1} has order {expected}", CHAIN_ORDERS,
           lambda g, i: g if g % 2 == 0 else 2 * g, lambda g, i: word_s(g)),
    Family("thm1.order.sprime.g{g}", "order", lambda g: g >= 5,
           "s' = t_a1^2 t_a2..t_a{g1} has order {expected}", CHAIN_ORDERS,
           lambda g, i: g - 1 if g % 2 == 0 else 2 * (g - 1), lambda g, i: word_s_prime(g)),
    Family("thm1.order.st-beta.g5", "order", lambda g: g == 5,
           "s t_b has order 6", GENUS_5, 6, lambda g, i: _stb()),
    Family("thm1.order.t12.g3", "order", lambda g: g == 3,
           "t_a1 t_a2 has order 6", GENUS_3, 6, lambda g, i: (talpha(1), talpha(2))),
    Family("thm1.order.t112.g3", "order", lambda g: g == 3,
           "t_a1^2 t_a2 has order 4", GENUS_3, 4,
           lambda g, i: (talpha(1), talpha(1), talpha(2))),
    Family("thm1.order.u2.g3", "order", lambda g: g == 3,
           "u2 has order 2", GENUS_3, 2, lambda g, i: (transposition(2),)),
    # identities up to inner automorphism
    Family("thm1.id.chain-power.g{g}", "identity", lambda g: g >= 4,
           "(s')^{g1} = s^{g}", "theorem-1 proof: braid-relation consequence", True,
           lambda g, i: ((word_s_prime(g), g - 1), (word_s(g), g))),
    Family("thm1.id.talpha1.g{g}", "identity", lambda g: g >= 5,
           "t_a1 = s' s^-1", "theorem-1 proof: recovering the first twist", True,
           lambda g, i: (((talpha(1),), 1), (word_s_prime(g) + inverse_word(word_s(g)), 1))),
    Family("thm1.id.talpha4.g5", "identity", lambda g: g == 5,
           "t_a4 = (s t_b)^-1 t_b (s t_b)", GENUS_5, True,
           lambda g, i: (((talpha(4),), 1), (_conjugate(inverse_word(_stb()), (tbeta(),)), 1))),
    # curve images
    Family("thm1.orbit.s.a{i}.g{g}", "curve_image", lambda g: g >= 5,
           "s(a{i}) = {expected}", "theorem-1 proof: chain curves lie in one s-orbit",
           lambda g, i: f"a{i + 1}", lambda g, i: _one(word_s(g)),
           indices=lambda g: range(1, g - 1), curve="a{i}"),
    Family("thm1.orbit.r.a{i}.g{g}", "curve_image", lambda g: g >= 5,
           "r(a{i}) = {expected}", "theorem-1 proof: chain curves lie in one r-orbit",
           lambda g, i: f"a{i + 1}", lambda g, i: _one(word_r(g)),
           indices=lambda g: range(1, g - 1), curve="a{i}"),
    Family("thm1.orbit.yrprimey.g5", "curve_image", lambda g: g == 5,
           "y^-1 r' y(a2) = e", "theorem-1 proof, genus-5 case: reaching the eps twist", "e",
           lambda g, i: _one(_conjugate((crosscap_slide(-1),), word_r_prime(5))), curve="a2"),
    Family("thm1.orbit.x-a4.g{g}", "curve_image", lambda g: g >= 6,
           "x(a4) = b", X_IMAGES, "b", lambda g, i: _one(word_x(g)), curve="a4"),
    Family("thm1.orbit.x-a2.g{g}", "curve_image", lambda g: g >= 6,
           "x(a2) = a3", X_IMAGES, "a3", lambda g, i: _one(word_x(g)), curve="a2"),
    Family("thm1.orbit.x-a3.g6", "curve_image", lambda g: g == 6,
           "x(a3) = e", X_IMAGES, "e", lambda g, i: _one(word_x(g)), curve="a3"),
    Family("thm1.orbit.x-alast.g{g}", "curve_image", lambda g: g >= 7,
           "x(a{g1}) = e", X_IMAGES, "e", lambda g, i: _one(word_x(g)), curve="a{g1}"),
    Family("thm1.orbit.xr2x.g{g}", "curve_image", lambda g: g >= 6,
           "x r^2 x^-1(a3) = b", "theorem-1 proof: beta joins the twist-curve orbit", "b",
           lambda g, i: _conjugate_power(word_x(g), word_r(g), 2), curve="a3"),
    Family("thm1.orbit.xrx.g6", "curve_image", lambda g: g == 6,
           "x r x^-1(a3) = e", EPS_ORBIT, "e",
           lambda g, i: _one(_conjugate(word_x(g), word_r(g))), curve="a3"),
    Family("thm1.orbit.xrkx.g{g}", "curve_image", lambda g: g >= 7,
           "x r^{g3} x^-1(a3) = e", EPS_ORBIT, "e",
           lambda g, i: _conjugate_power(word_x(g), word_r(g), g - 3), curve="a3"),
    # determinants on homology
    Family("twist.det.a{i}.g{g}", "determinant", lambda g: True,
           "det of the twist t_a{i} on homology is +1", CRITERION, 1,
           lambda g, i: (talpha(i),), indices=lambda g: range(1, g)),
    Family("twist.det.b.g{g}", "determinant", lambda g: g >= 4,
           "det of the twist t_b on homology is +1", CRITERION, 1, lambda g, i: (tbeta(),)),
    Family("twist.det.e.g{g}", "determinant", lambda g: True,
           "det of the twist t_e on homology is +1", CRITERION, 1, lambda g, i: (teps(),)),
    Family("mcg.det.u{i}.g{g}", "determinant", lambda g: True,
           "det of the crosscap transposition u{i} is -1",
           "crosscap transpositions lie outside the twist subgroup", -1,
           lambda g, i: (transposition(i),), indices=lambda g: range(1, g)),
    Family("mcg.det.y.g{g}", "determinant", lambda g: True,
           "det of the crosscap slide y is -1", "product of a twist (+1) and a transposition (-1)",
           -1, lambda g, i: (crosscap_slide(),), provenance="derived"),
    Family("thm1.det.r.g{g}", "determinant", lambda g: True,
           "det(r) = {expected}", "theorem-1 proof: r is outside the twist subgroup for even genus",
           lambda g, i: (-1) ** (g - 1), lambda g, i: word_r(g),
           provenance=lambda g, i: "stated" if g % 2 == 0 else "derived"),
    Family("thm1.det.rprime.g{g}", "determinant", lambda g: True,
           "det(r') = {expected}", "theorem-1 proof: r' is outside the twist subgroup for odd genus",
           lambda g, i: (-1) ** g, lambda g, i: word_r_prime(g),
           provenance=lambda g, i: "stated" if g % 2 else "derived"),
    Family("tsub.det.s.g{g}", "determinant", lambda g: True,
           "det(s) = +1 (s is a product of twists)", TSUB, 1, lambda g, i: word_s(g),
           provenance="trivial"),
    Family("tsub.det.stbeta.g5", "determinant", lambda g: g == 5,
           "det(s t_b) = +1", TSUB + ", genus 5", 1, lambda g, i: _stb(), provenance="trivial"),
    Family("tsub.det.ysy.g5", "determinant", lambda g: g == 5,
           "det(y^-1 s y) = +1", TSUB + ", genus 5", 1,
           lambda g, i: _conjugate((crosscap_slide(-1),), word_s(5)), provenance="trivial"),
    Family("tsub.det.xsx.g{g}", "determinant", lambda g: g >= 6,
           "det(x s x^-1) = +1", TSUB, 1, lambda g, i: _conjugate(word_x(g), word_s(g)),
           provenance="trivial"),
    Family("thm1.det.xrx.g{g}", "determinant", lambda g: g >= 6 and g % 2 == 0,
           "det(x r x^-1) = -1", THIRD_GENERATOR, -1,
           lambda g, i: _conjugate(word_x(g), word_r(g))),
    Family("thm1.det.xrprimex.g{g}", "determinant", lambda g: g >= 6 and g % 2 == 1,
           "det(x r' x^-1) = -1", THIRD_GENERATOR, -1,
           lambda g, i: _conjugate(word_x(g), word_r_prime(g))),
)}


def _value(field, g, i):
    return field(g, i) if callable(field) else field


def _genus_claims(g: int):
    claims = []
    for family in FAMILIES.values():
        if not family.when(g):
            continue
        for i in family.indices(g) if family.indices else (None,):
            expected = _value(family.expected, g, i)
            names = {"g": g, "i": i, "g1": g - 1, "g3": g - 3, "expected": expected}
            params = {"family": family.id, "genus": g, "index": i}
            if family.curve:
                params["curve"] = family.curve.format_map(names)
            claims.append(Claim(
                family.id.format_map(names), family.kind,
                family.description.format_map(names), family.source,
                _value(family.provenance, g, i), expected, params,
            ))
    return claims


def _eg_claims(ks, ps, qs):
    claims = []
    for k, p, q, extra in itertools.product(ks, ps, qs, (False, True)):
        params = {"k": k, "p": p, "q": q, "extra_crosscap": extra}
        genus = EgRotationSpec(**params).genus
        suffix = f"k{k}.p{p}.q{q}" + (".x" if extra else "")
        expected = (-1) ** p if k % 2 == 0 else 1
        claims.append(Claim(
            f"lemma-embed.det.{suffix}", "eg_det",
            f"rotation of the symmetric genus-{genus} model has det {expected}",
            "embedding lemma: determinant of the order-k rotation",
            "stated" if k % 2 == 0 else "derived", expected, params,
        ))
        claims.append(Claim(
            f"lemma-embed.power.{suffix}", "eg_power",
            f"rotation matrix of the genus-{genus} model has order dividing {k}",
            "embedding lemma: the rotation has order k",
            "stated", True, params,
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
                "derived", True, {"genus": g, "k": k},
            ))
    return claims


def _lantern_claims(budget):
    claims = [Claim(
        "lemma1.proof", "lantern",
        "the twist t_a1 is derivable from the relation and the hypotheses",
        "four-holed-sphere twist derivation",
        "stated", True, {"ablate": None, "budget": budget},
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
            "derived", "no derivation", {"ablate": rule},
        ))
    claims.append(Claim(
        "lemma1.reversed", "lantern",
        "reversing the relation's right-hand side breaks the derivation",
        "four-holed-sphere twist derivation: relation ablation",
        "derived", "no derivation", {"ablate": "relation"},
    ))
    return claims


def build_claims(genus_range=(3, 9), ks=range(2, 14), ps=(1, 2, 3), qs=(0, 1, 2),
                 cor4_ks=(12, 14, 16), budget=DEFAULT_BUDGET):
    """The full built-in catalog for the given parameter ranges; ``budget``
    bounds the node expansions of the ``lemma1.proof`` derivation search."""
    claims = []
    lo, hi = genus_range
    for g in range(max(lo, 3), hi + 1):
        claims.extend(_genus_claims(g))
    claims.extend(_eg_claims(ks, ps, qs))
    claims.extend(_cor4_claims(cor4_ks))
    claims.extend(_lantern_claims(budget))
    claims.sort(key=lambda c: c.id)
    ids = [c.id for c in claims]
    if len(ids) != len(set(ids)):
        raise InvariantViolation("claim ids must be unique")
    return claims


def filter_claims(claims, pattern: str):
    if not pattern:
        return list(claims)
    return [c for c in claims if fnmatch.fnmatchcase(c.id, pattern)]


def resolve_claims(pattern: str):
    """The claims matching the id or id glob ``pattern``, from the catalog
    built for the parameters its ``.g<n>``, ``.k<k>``, ``.p<p>`` and
    ``.q<q>`` parts name; parameters it does not name keep their defaults.
    A pattern naming a rotation-model parameter below its least value, or
    a genus above ``MAX_GENUS`` that ``run`` refuses, selects nothing; a
    ``cor4`` id's genus is only decomposed, so it has no cap."""
    params = {}
    for part in pattern.split("."):
        match = re.fullmatch(r"([gkpq])(\d+)", part)
        if match:
            params[match[1]] = int(match[2])
    if any(params.get(name, least) < least for name, least in MODEL_LEAST.items()):
        return []
    cor4 = pattern.startswith("cor4.")
    if not cor4 and params.get("g", 0) > MAX_GENUS:
        return []
    ranges = {}
    if "g" in params and not cor4:
        ranges["genus_range"] = (params["g"], params["g"])
    if "k" in params:
        ranges["cor4_ks" if cor4 else "ks"] = (params["k"],)
    for name in ("p", "q"):
        if name in params:
            ranges[name + "s"] = (params[name],)
    return filter_claims(build_claims(**ranges), pattern)


# ---------------------------------------------------------------------------
# Runners: one per kind, each returns (status, observed, witness)


def _status(ok: bool) -> str:
    """A runner's verdict.  ``inconclusive`` comes only from the
    ``BudgetExceeded`` that :func:`run_claim` catches."""
    return "pass" if ok else "fail"


def _family_word(claim):
    """The genus of a family claim and its word, built now."""
    genus, index = claim.params["genus"], claim.params["index"]
    return genus, FAMILIES[claim.params["family"]].word(genus, index)


def _run_order(claim):
    """The order N the claim states, checked by ``order_of(word, N)``: the
    order if it divides N, else None."""
    genus, word = _family_word(claim)
    result = order_of(get_catalog(genus), word, claim.expected)
    observed = f"no order dividing {claim.expected}" if result is None else result
    return _status(result == claim.expected), observed, format_mcg_word(word)


def _run_identity(claim):
    genus, (lhs, rhs) = _family_word(claim)
    status = identity_status(get_catalog(genus), lhs, rhs)
    inner = isinstance(status, Inner)
    return _status(inner == claim.expected), inner, format_word(status.witness) if inner else None


def _run_curve_image(claim):
    """Passes iff the target's class contains the image of the start
    curve, taken as its core key (:func:`~mcgverify.mcg.product_curve_key`).
    A pass observes the target's key, a fail the image's core key."""
    genus, factors = _family_word(claim)
    catalog = get_catalog(genus)
    start = curve_class(catalog, catalog.curves[claim.params["curve"]])
    target = curve_class(catalog, catalog.curves[claim.expected])
    image = product_curve_key(catalog, factors, start)
    ok = target.contains(image)
    return _status(ok), format_word(target.key if ok else image), format_word(target.key)


def _run_determinant(claim):
    """The determinant of the homology matrix M of the claim's word, taken
    from its moved block: the rows and columns C, the indices j < g-1 whose
    packed image (:func:`~mcgverify.mcg.power_pairs`) is not the packed
    letter x_{j+1}.  That comparison checks, rather than assumes, that every
    other column is the unit column e_j, so expanding det M along those
    columns leaves det M = det of the C x C block.  A generator moves at
    most four columns; a composite word may move them all, and then the
    block is M."""
    genus, word = _family_word(claim)
    catalog = get_catalog(genus)
    pairs = power_pairs(catalog, word, 1)
    letters = catalog.presentation.letters_packed
    moved = [j for j in range(genus - 1) if pairs[j][0] != letters[j][0]]
    columns = [abelianized(genus, unpack(pairs[j][0])) for j in moved]
    det = determinant(tuple(tuple(column[i] for column in columns) for i in moved))
    return _status(det == claim.expected), det, f"in_twist_subgroup={det == 1}"


def _run_eg_det(claim):
    spec = EgRotationSpec(**claim.params)
    det = determinant(build_eg_rotation(spec))
    return _status(det == claim.expected), det, f"genus={spec.genus}"


def _run_eg_power(claim):
    spec = EgRotationSpec(**claim.params)
    m = build_eg_rotation(spec)
    ok = matrix_power(m, spec.k) == matrix_identity(len(m))
    return _status(ok == claim.expected), ok, f"matrix size {len(m)}"


def _run_decomposition(claim):
    g, k = claim.params["genus"], claim.params["k"]
    d = decompose_genus(g, k)
    total = d.p * k + 2 * d.q * (k - 1) + (1 if d.plus_one else 0)
    ok = total == g and d.p % 2 == 1 and d.q >= 0
    observed = {"p": d.p, "q": d.q, "plus_one": d.plus_one}
    return _status(ok == claim.expected), observed, f"n={d.n} m={d.m} r={d.r}"


def _run_lantern(claim):
    """The derivation of t_a1 by the search bounded by ``params["budget"]``
    when ``params["ablate"]`` is None; otherwise the shipped countermodel
    showing that the rules without that hypothesis (``"relation"``: the
    relation reversed) never derive it."""
    ablate = claim.params["ablate"]
    if ablate is None:
        ok = verify_lemma1(canonical_rules(), budget=claim.params["budget"])
        return _status(ok == claim.expected), ok, "derivation chain verified"
    try:
        witness = check_countermodel(ablate)
    except ValueError as exc:
        return "fail", str(exc), None
    return _status(claim.expected == "no derivation"), "no derivation", witness


RUNNERS = {
    "order": _run_order,
    "identity": _run_identity,
    "curve_image": _run_curve_image,
    "determinant": _run_determinant,
    "eg_det": _run_eg_det,
    "eg_power": _run_eg_power,
    "decomposition": _run_decomposition,
    "lantern": _run_lantern,
}


def run_claim(claim: Claim) -> ClaimReport:
    """Run one claim; its report's ``bounds`` holds the budget of the search
    it ran, which only ``lemma1.proof`` has, and is empty otherwise."""
    start = time.perf_counter()
    try:
        status, observed, witness = RUNNERS[claim.kind](claim)
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
        bounds={"budget": claim.params["budget"]} if "budget" in claim.params else {},
    )


def run_claims(claims):
    """Run the given claims in order of claim id."""
    return [run_claim(c) for c in sorted(claims, key=lambda c: c.id)]


def exit_code(reports) -> int:
    """0 if all pass, 2 if any fail, 3 if any inconclusive and none fail."""
    statuses = {r.status for r in reports}
    if "fail" in statuses:
        return 2
    if "inconclusive" in statuses:
        return 3
    return 0


def report_json(reports) -> str:
    """The JSON array of the reports, one claim per line.  A report's
    ``vars`` are its fields in declaration order, the keys of
    ``dataclasses.asdict`` without its deep copy of every value."""
    return "[\n" + ",\n".join("  " + json.dumps(vars(r)) for r in reports) + "\n]"


def find_claim(claims, claim_id: str) -> Claim:
    for c in claims:
        if c.id == claim_id:
            return c
    raise UnknownClaim(claim_id)
