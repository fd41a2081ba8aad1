"""The symbolic four-holed-sphere derivation and its rule machinery."""

import pytest

import mcgverify.lantern
from mcgverify.claims import (
    build_claims,
    filter_claims,
    find_claim,
    resolve_claims,
    run_claim,
    run_claims,
)
from mcgverify.errors import BudgetExceeded
from mcgverify.lantern import (
    ATOMS,
    DERIVATION_CHAIN,
    STEP_BLOCKS,
    STEP_F,
    STEP_GH,
    STEP_TARGET,
    RuleSet,
    canonical_rules,
    check_countermodel,
    format_expr,
    invert_expr,
    load_countermodels,
    parse_expr,
    parse_rules,
    reduce_expr,
    reversed_lantern_rules,
    verify_lemma1,
    verify_step,
)

from conftest import mcg_equal


def test_parse_and_format_roundtrip():
    e = parse_expr("ta3 ta5^-1 g h^-1")
    assert format_expr(e) == "ta3 ta5^-1 g h^-1"
    assert parse_expr("") == ()
    assert format_expr(()) == "1"


def test_reduce_expr_cancels():
    assert reduce_expr(parse_expr("g g^-1 ta1")) == parse_expr("ta1")
    assert reduce_expr(invert_expr(parse_expr("f g"))) == parse_expr("g^-1 f^-1")


def test_parse_rejects_unknown_atom():
    with pytest.raises(ValueError):
        parse_expr("tz9")


def test_rule_file_loads():
    rules = canonical_rules()
    assert len(rules.base_rules) == 24  # relation + 18 commutations + 5 hypotheses
    assert any(l == parse_expr("ta1 tb tg ta5") for l, _ in rules.base_rules)


def test_parse_rules_two_rules():
    rules = parse_rules("ta1 tb -> tb ta1\nf ta3 f^-1 -> ta5\n")
    assert len(rules.base_rules) == 2


def test_without_removes_rule():
    rules = canonical_rules()
    smaller = rules.without("f ta3 f^-1")
    assert len(smaller.base_rules) == len(rules.base_rules) - 1
    with pytest.raises(ValueError):
        rules.without("ta9 ta9")


# ---------------------------------------------------------------------------
# verify_step


def test_identity_joinable():
    assert verify_step(canonical_rules(), (), ())


def test_step_symmetric():
    rules = canonical_rules()
    assert verify_step(rules, STEP_TARGET, STEP_BLOCKS)
    assert verify_step(rules, STEP_BLOCKS, STEP_TARGET)


def test_lantern_rearrangement_step():
    assert verify_step(canonical_rules(), STEP_TARGET, STEP_BLOCKS)


def test_hypothesis_substitution_step():
    assert verify_step(canonical_rules(), STEP_BLOCKS, STEP_GH)


def test_f_substitution_step():
    assert verify_step(canonical_rules(), STEP_GH, STEP_F)


def test_unjoinable_returns_false():
    # two distinct boundary twists are not related by any rule
    assert not verify_step(canonical_rules(), parse_expr("ta1"), parse_expr("tb"))


def test_budget_exceeded_raises():
    rules = canonical_rules().without("g td1 g^-1")
    with pytest.raises(BudgetExceeded):
        verify_step(rules, STEP_BLOCKS, STEP_GH, budget=50)


# ---------------------------------------------------------------------------
# the full derivation and its ablations


def test_lemma_verifies():
    assert verify_lemma1(canonical_rules()) is True


def test_derivation_chain_steps_distinct():
    # a step equal to its predecessor would verify nothing
    assert all(a != b for a, b in zip(DERIVATION_CHAIN, DERIVATION_CHAIN[1:]))
    assert DERIVATION_CHAIN[0] == STEP_TARGET and DERIVATION_CHAIN[-1] == STEP_F


@pytest.mark.parametrize(
    "removed",
    ["f ta3 f^-1", "g td1 g^-1", "g tg g^-1", "h td2 h^-1", "h tb h^-1"],
)
def test_single_hypothesis_ablation_breaks_derivation(removed):
    # a finite countermodel rules out derivations of every length, where an
    # exhausted search would rule out none
    assert check_countermodel(removed) == "countermodel 'rotations of Z/7' on 7 points"


def test_reversed_lantern_fails():
    assert verify_lemma1(reversed_lantern_rules(), budget=120_000) is False


# ---------------------------------------------------------------------------
# the shipped countermodels, checked by an evaluator of their own


ABLATIONS = ["f ta3 f^-1", "g td1 g^-1", "g tg g^-1", "h td2 h^-1", "h tb h^-1", "relation"]


def _kept_rules(ablate):
    return reversed_lantern_rules() if ablate == "relation" else canonical_rules().without(ablate)


def _act(atoms, expr):
    """The permutation an expression induces, its atoms applied left to right."""

    def image(x):
        for atom, sign in expr:
            x = atoms[atom][x] if sign > 0 else atoms[atom].index(x)
        return x

    return [image(x) for x in range(len(atoms["ta1"]))]


def _satisfies(atoms, rules):
    return all(_act(atoms, lhs) == _act(atoms, rhs) for lhs, rhs in rules)


def test_countermodels_cover_each_ablation_with_every_atom():
    models = load_countermodels()
    assert sorted(models) == sorted(ABLATIONS)
    for model in models.values():
        n = len(model["atoms"]["ta1"])
        assert n <= 16 and sorted(model["atoms"]) == sorted(ATOMS)
        assert all(sorted(perm) == list(range(n)) for perm in model["atoms"].values())


@pytest.mark.parametrize("ablate", ABLATIONS)
def test_countermodel_satisfies_its_kept_rules_and_their_variants(ablate):
    atoms = load_countermodels()[ablate]["atoms"]
    rules = _kept_rules(ablate)
    # the variants are claimed to be consequences of the base rules
    assert _satisfies(atoms, rules.base_rules) and _satisfies(atoms, rules.rules)
    assert _act(atoms, STEP_TARGET) != _act(atoms, STEP_F)


@pytest.mark.parametrize("ablate", ABLATIONS)
def test_countermodel_fails_every_other_rule_set(ablate):
    atoms = load_countermodels()[ablate]["atoms"]
    assert not _satisfies(atoms, canonical_rules().base_rules)
    for other in ABLATIONS:
        if other != ablate:
            assert not _satisfies(atoms, _kept_rules(other).base_rules), other


IDENTITY_7 = list(range(7))


@pytest.mark.parametrize("claim_id,names,perm,failure", [
    ("lemma1.ablate.f", ("g",), [0, 0, 1, 2, 3, 4, 5],
     "atom g is not a permutation of the 7 points"),
    ("lemma1.ablate.g-d1", ("h",), None, "atom h missing from the model"),
    ("lemma1.ablate.h-b", ("tg",), list(range(8)),
     "atom tg is not a permutation of the 7 points"),
    ("lemma1.reversed", ("f",), list(range(16)),
     "rule f ta3 f^-1 -> ta5 fails in the model"),
    ("lemma1.ablate.f", ("ta1",), IDENTITY_7,
     "rule ta1 tb tg ta5 -> ta3 td1 td2 fails in the model"),
    ("lemma1.ablate.g-g", ATOMS, IDENTITY_7,
     "ta1 equals the derivation's final product in the model"),
    ("lemma1.ablate.f", ("h",), 5, "atom h is not a list of points"),
    ("lemma1.ablate.g-d1", ("atoms",), IDENTITY_7, "the model's atoms are not a table"),
    ("lemma1.reversed", ("model",), "Q8", "the model for 'relation' is not a table"),
    ("lemma1.ablate.f", ("f",), [5, 6, 0, 1, 2, 3, 4, "junk", 3.5, True],
     "atom f is not a permutation of the 7 points"),
])
def test_corrupted_countermodel_fails_claim(monkeypatch, claim_id, names, perm, failure):
    claim = find_claim(resolve_claims(claim_id), claim_id)
    models = load_countermodels()
    ablate = claim.params["ablate"]
    atoms = models[ablate]["atoms"]
    for name in names:
        # "model" and "atoms" replace a whole level; other names are atoms
        if name == "model":
            models[ablate] = perm
        elif name == "atoms":
            models[ablate]["atoms"] = perm
        elif perm is None:
            del atoms[name]
        else:
            atoms[name] = perm
    monkeypatch.setattr(mcgverify.lantern, "load_countermodels", lambda: models)
    report = run_claim(claim)
    assert (report.status, report.observed, report.witness) == ("fail", failure, None)


def test_lemma1_ablations_do_not_rest_on_the_search_budget():
    reports = run_claims(filter_claims(build_claims(budget=1), "lemma1.*"))
    status = {r.id: r.status for r in reports}
    assert status.pop("lemma1.proof") == "inconclusive"
    assert len(status) == 6 and set(status.values()) == {"pass"}


# ---------------------------------------------------------------------------
# partial-model soundness: rules whose atoms all carry genus-6
# realizations must hold among the actual mapping classes


CONCRETE = {"ta1": 1, "ta3": 3, "ta5": 5}  # chain indices; tb handled apart


def _concrete_word(expr):
    from mcgverify.mcg import talpha, tbeta

    word = []
    for atom, sign in expr:
        if atom in CONCRETE:
            word.append(talpha(CONCRETE[atom], sign))
        elif atom == "tb":
            word.append(tbeta(sign))
        else:
            return None
    return tuple(word)


def test_commutation_rules_hold_in_genus6_model():
    from mcgverify.mcg import get_catalog

    cat = get_catalog(6)
    checked = 0
    for lhs, rhs in canonical_rules().base_rules:
        w1, w2 = _concrete_word(lhs), _concrete_word(rhs)
        if w1 is None or w2 is None:
            continue
        assert mcg_equal(cat, w1, w2) is True, (lhs, rhs)
        checked += 1
    # exactly the six commutations among ta1, tb, ta3, ta5 are realizable
    assert checked == 6
