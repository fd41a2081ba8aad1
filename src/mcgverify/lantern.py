"""Symbolic replay of the four-holed-sphere twist derivation.

A small term rewriter over an alphabet of twist symbols and abstract
mapping classes.  Words are freely reduced sequences of signed atoms; a
rule set consists of two-sided rewrite rules (the lantern-type relation,
the commutations between boundary twists and everything else, and the
conjugation hypotheses on the abstract classes f, g, h).

:func:`verify_step` decides joinability of two expressions by a
bidirectional breadth-first search over rule applications, memoized on
reduced forms, within a node budget and a word-length cap.  Exhausting the
budget raises BudgetExceeded (inconclusive); exhausting the bounded search
space returns False.

:func:`verify_lemma1` replays the derivation that writes the first
boundary twist as a product of f, g, h, a conjugate of f, and inverses:
the relation is rearranged into three difference blocks, the hypotheses on
g and h replace two blocks by conjugates of the first, and the hypothesis
on f rewrites the remaining interior twist.  Removing any single
hypothesis breaks the chain: :func:`check_countermodel` checks a shipped
finite countermodel for each, which rules out derivations of any length.
"""

from __future__ import annotations

import json
from collections import deque
from importlib import resources

from .errors import BudgetExceeded

ATOMS = ("ta1", "tb", "tg", "ta5", "ta3", "td1", "td2", "f", "g", "h")
DEFAULT_BUDGET = 100_000  # node expansions of a joinability search

# An expression is a tuple of (atom, +-1) pairs, freely reduced.


def reduce_expr(expr) -> tuple:
    out = []
    for atom, sign in expr:
        if out and out[-1][0] == atom and out[-1][1] == -sign:
            out.pop()
        else:
            out.append((atom, sign))
    return tuple(out)


def invert_expr(expr) -> tuple:
    return tuple((atom, -sign) for atom, sign in reversed(expr))


def parse_expr(text: str) -> tuple:
    """Parse ``"ta3 ta5^-1 g"`` into an expression."""
    out = []
    for token in text.split():
        if token.endswith("^-1"):
            name, sign = token[:-3], -1
        else:
            name, sign = token, 1
        if name not in ATOMS:
            raise ValueError(f"unknown atom {name!r}")
        out.append((name, sign))
    return reduce_expr(out)


def format_expr(expr) -> str:
    if not expr:
        return "1"
    return " ".join(a if s > 0 else f"{a}^-1" for a, s in expr)


class RuleSet:
    """Two-sided rewrite rules plus mechanically generated variants.

    Every rule L -> R yields L^-1 -> R^-1; commutations (ab -> ba) yield
    all sign combinations; conjugation rules (c X c^-1 -> Y) also yield
    the flipped form c^-1 Y c -> X and the inverted exponents.  All
    variants are consequences of the originals, added so that the short
    derivations are reachable without inventing insertion moves.
    """

    def __init__(self, rules):
        base = [(reduce_expr(l), reduce_expr(r)) for l, r in rules]
        self.base_rules = tuple(base)
        seen = set()
        expanded = []

        def add(l, r):
            l, r = reduce_expr(l), reduce_expr(r)
            for a, b in ((l, r), (r, l)):
                if a and (a, b) not in seen and a != b:
                    seen.add((a, b))
                    expanded.append((a, b))

        for l, r in base:
            add(l, r)
            add(invert_expr(l), invert_expr(r))
            if len(l) == 2 and len(r) == 2 and l[0] == r[1] and l[1] == r[0]:
                (a, sa), (b, sb) = l
                for fa in (1, -1):
                    for fb in (1, -1):
                        add(((a, sa * fa), (b, sb * fb)), ((b, sb * fb), (a, sa * fa)))
            if len(l) == 3 and len(r) == 1 and l[0][0] == l[2][0] and l[0][1] == -l[2][1]:
                c, x, ci = l
                y = r[0]
                add((c, (x[0], -x[1]), ci), ((y[0], -y[1]),))
                add((ci, y, c), (x,))
                add((ci, (y[0], -y[1]), c), ((x[0], -x[1]),))
        self.rules = tuple(expanded)

    def without(self, lhs_text: str) -> "RuleSet":
        """Copy of this rule set with one base rule removed (ablation)."""
        target = parse_expr(lhs_text)
        kept = [(l, r) for l, r in self.base_rules if l != target]
        if len(kept) == len(self.base_rules):
            raise ValueError(f"no base rule with left side {lhs_text!r}")
        return RuleSet(kept)


def parse_rules(text: str) -> RuleSet:
    rules = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        lhs, arrow, rhs = line.partition("->")
        if not arrow:
            raise ValueError(f"rule line without '->': {line!r}")
        rules.append((parse_expr(lhs), parse_expr(rhs)))
    return RuleSet(rules)


def canonical_rules() -> RuleSet:
    """The shipped rule file, parsed."""
    return parse_rules(resources.files("mcgverify.data").joinpath("lantern_rules.txt").read_text())


def load_countermodels() -> dict:
    path = resources.files("mcgverify.data").joinpath("lantern_countermodels.json")
    return json.loads(path.read_text())


def check_countermodel(ablate: str) -> str:
    """Check the shipped countermodel for the rules without ``ablate``: every
    atom permutes range(n), words act left to right, every kept base rule holds
    and ta1 != STEP_F.  Returns the witness; raises ValueError naming the failed check."""
    rules = reversed_lantern_rules() if ablate == "relation" else canonical_rules().without(ablate)
    models = load_countermodels()
    model = models.get(ablate, {}) if isinstance(models, dict) else None
    if not isinstance(model, dict):
        raise ValueError(f"the model for {ablate!r} is not a table")
    atoms = model.get("atoms", {})
    if not isinstance(atoms, dict):
        raise ValueError("the model's atoms are not a table")
    for atom in ATOMS:
        if atom not in atoms:
            raise ValueError(f"atom {atom} missing from the model")
        if not isinstance(atoms[atom], list):
            raise ValueError(f"atom {atom} is not a list of points")
    n = len(atoms[ATOMS[0]])
    for atom in ATOMS:
        perm = atoms[atom]
        if any(type(x) is not int for x in perm) or sorted(perm) != list(range(n)):
            raise ValueError(f"atom {atom} is not a permutation of the {n} points")

    def value(expr):
        image = list(range(n))
        for atom, sign in expr:
            perm = atoms[atom] if sign > 0 else sorted(range(n), key=atoms[atom].__getitem__)
            image = [perm[x] for x in image]
        return image

    for lhs, rhs in rules.base_rules:
        if value(lhs) != value(rhs):
            raise ValueError(f"rule {format_expr(lhs)} -> {format_expr(rhs)} fails in the model")
    if value(STEP_TARGET) == value(STEP_F):
        raise ValueError("ta1 equals the derivation's final product in the model")
    return f"countermodel {model.get('name')!r} on {n} points"


def _neighbors(rules: RuleSet, expr, max_len: int):
    for lhs, rhs in rules.rules:
        ln = len(lhs)
        if ln > len(expr):
            continue
        limit = len(expr) - ln
        for i in range(limit + 1):
            if expr[i : i + ln] == lhs:
                new = reduce_expr(expr[:i] + rhs + expr[i + ln :])
                if len(new) <= max_len:
                    yield new


def verify_step(rules: RuleSet, lhs, rhs, budget: int = DEFAULT_BUDGET) -> bool:
    """True iff lhs and rhs are joinable under the rules and free
    reduction, through expressions at most 4 letters longer than the
    longer endpoint.  Bidirectional BFS; symmetric in lhs/rhs.  Raises
    BudgetExceeded after ``budget`` node expansions."""
    start = reduce_expr(lhs)
    goal = reduce_expr(rhs)
    if start == goal:
        return True
    # the replayed derivation never overshoots its endpoints by more than
    # one insertion; slack 4 keeps failing searches exhaustible
    max_len = max(len(start), len(goal)) + 4
    sides = [
        ({start: None}, deque([start])),
        ({goal: None}, deque([goal])),
    ]
    expansions = 0
    while sides[0][1] or sides[1][1]:
        # expand the smaller active frontier first
        order = sorted((s for s in sides if s[1]), key=lambda s: len(s[1]))
        seen, queue = order[0]
        other_seen = sides[1][0] if seen is sides[0][0] else sides[0][0]
        current = queue.popleft()
        expansions += 1
        if expansions > budget:
            raise BudgetExceeded(f"joinability search exceeded {budget} expansions")
        for new in _neighbors(rules, current, max_len):
            if new in other_seen:
                return True
            if new not in seen:
                seen[new] = current
                queue.append(new)
    return False


# The derivation steps, as flat expressions.
STEP_TARGET = parse_expr("ta1")
STEP_BLOCKS = parse_expr("ta3 ta5^-1 td1 tg^-1 td2 tb^-1")
STEP_GH = parse_expr(
    "ta3 ta5^-1 g^-1 ta3 ta5^-1 g h^-1 ta3 ta5^-1 h"
)
# The final product of conjugated f^-1 (ta5 f ta5^-1) blocks.  Regrouping
# it is pure associativity, which a flat word already is, so it needs no
# step of its own.
STEP_F = parse_expr(
    "f^-1 ta5 f ta5^-1 g^-1 f^-1 ta5 f ta5^-1 g h^-1 f^-1 ta5 f ta5^-1 h"
)

DERIVATION_CHAIN = (STEP_TARGET, STEP_BLOCKS, STEP_GH, STEP_F)


def verify_lemma1(rules: RuleSet, budget: int = DEFAULT_BUDGET) -> bool:
    """Replay the full derivation: the relation rearranged into difference
    blocks, the g/h hypotheses substituted, then the f hypothesis
    substituted, which gives the final product.  Each consecutive pair is
    verified by the bounded joinability search; joinability is symmetric
    and transitive, so the verified chain equates the final product with
    the original twist.  True only if every step verifies."""
    pairs = zip(DERIVATION_CHAIN, DERIVATION_CHAIN[1:])
    return all(verify_step(rules, a, b, budget=budget) for a, b in pairs)


def reversed_lantern_rules() -> RuleSet:
    """Ablation: the relation with its right-hand side reversed, which is
    not equivalent under the commutations the rule set carries."""
    rules = [(l, r) for l, r in canonical_rules().base_rules]
    out = []
    for l, r in rules:
        if l == parse_expr("ta1 tb tg ta5"):
            out.append((l, tuple(reversed(r))))
        else:
            out.append((l, r))
    return RuleSet(out)
