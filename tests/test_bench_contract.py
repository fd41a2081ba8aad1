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
