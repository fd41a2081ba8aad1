"""The names the benchmark tracer (``bench/tracer.py``) and its sample runner
(``bench/child.py``) look up in the package.

The tracer wraps functions by name; a deleted or renamed one would make the
traced benchmark fail, so these tests read its target table and check every
name still exists, and run one traced sample to check the call shapes its
observers read.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mcgverify
from mcgverify.claims import RUNNERS, build_claims

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "bench" / "tracer.py"
CHILD = ROOT / "bench" / "child.py"
SRC = str(ROOT / "src")


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
    from mcgverify.mcg import get_catalog, is_inner, power_pairs, talpha, transposition

    cat = get_catalog(3)
    pres = cat.presentation
    inner = is_inner(pres, power_pairs(cat, (transposition(2),), 2))
    not_inner = is_inner(pres, power_pairs(cat, (talpha(1),), 1))
    assert [type(inner).__name__, type(not_inner).__name__] == ["Inner", "NotInner"]


def test_traced_sample_runs():
    """One traced ``bench/child.py`` sample of ``[mt]*`` at genera 5..6
    exits 0, every claim passes, and no observer counts an outcome as
    ``error``.  The observers read ``evaluate(catalog, word)``,
    ``run_claim(claim, ...)`` and the class names of ``is_inner``'s
    outcomes, so this pins those call shapes, not only the names."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": SRC + (os.pathsep + path if path else "")}
    argv = ["trace", "5,6", "run", "--format", "json", "--filter", "[mt]*", "--genus", "5..6"]
    proc = subprocess.run([sys.executable, str(CHILD), *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    sample = json.loads(proc.stdout)
    assert sample["package"].startswith(SRC)
    assert sample["exit_code"] == 0
    rows = json.loads(sample["report"])
    assert rows and all(row["status"] == "pass" for row in rows)
    counters = sample["trace"]["counters"]
    assert [key for key in counters if key.endswith(".error")] == []
    assert counters["is_inner.inner"] > 0 and counters["evaluate.symbols"] > 0
