"""The symbolic four-holed-sphere derivation and its rule machinery."""

import pytest

from mcgverify.errors import BudgetExceeded
from mcgverify.lantern import (
    DERIVATION_CHAIN,
    STEP_BLOCKS,
    STEP_F,
    STEP_GH,
    STEP_TARGET,
    RuleSet,
    canonical_rules,
    format_expr,
    invert_expr,
    load_rules,
    parse_expr,
    parse_rules,
    reduce_expr,
    reversed_lantern_rules,
    verify_lemma1,
    verify_step,
)


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


def test_rule_file_roundtrip(tmp_path):
    path = tmp_path / "rules.txt"
    path.write_text("ta1 tb -> tb ta1\nf ta3 f^-1 -> ta5\n")
    rules = load_rules(path)
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
    rules = canonical_rules().without(removed)
    try:
        assert verify_lemma1(rules, budget=15_000) is False
    except BudgetExceeded:
        pass  # equally a failure to derive


def test_reversed_lantern_fails():
    assert verify_lemma1(reversed_lantern_rules(), budget=120_000) is False


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
    from mcgverify.mcg import get_catalog, mcg_equal

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
