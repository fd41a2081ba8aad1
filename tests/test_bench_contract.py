"""The names the benchmark tracer (``bench/tracer.py``) and its sample runner
(``bench/child.py``) look up in the package.

The tracer wraps functions by name; a deleted or renamed one would make the
traced benchmark fail, so these tests read its target table and check every
name still exists.
"""

import ast
import importlib
from pathlib import Path

import pytest

import mcgverify
from mcgverify.claims import RUNNERS, build_claims

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def tracer_constant(name):
    """The literal value of a module-level constant of the tracer."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} not found in {TRACER}")


@pytest.mark.parametrize("layer,name,how", tracer_constant("TARGETS"))
def test_tracer_target_exists(layer, name, how):
    module = importlib.import_module(f"mcgverify.{layer}")
    assert callable(getattr(module, name, None)), f"mcgverify.{layer}.{name}"
    assert how in ("span", "time", "count")


@pytest.mark.parametrize("module", tracer_constant("PACKAGE_MODULES"))
def test_tracer_modules_import(module):
    importlib.import_module(module)


def test_child_calls_get_catalog():
    assert callable(mcgverify.get_catalog)


def test_claim_kinds_match_runners_and_tracer():
    """A renamed kind would drop out of the per-kind bench metrics."""
    kinds = {claim.kind for claim in build_claims()}
    assert kinds == set(RUNNERS) == set(tracer_constant("CLAIM_KINDS"))


def test_is_inner_outcome_names_match_tracer():
    """The tracer counts ``is_inner`` outcomes by class name; a renamed
    class would be counted as ``error``."""
    from mcgverify.mcg import evaluate, get_catalog, is_inner, talpha, transposition

    cat = get_catalog(3)
    pres = cat.presentation
    inner = is_inner(pres, evaluate(cat, (transposition(2),) * 2))
    not_inner = is_inner(pres, evaluate(cat, (talpha(1),)))
    assert [type(inner).__name__, type(not_inner).__name__] == ["Inner", "NotInner"]
