"""Per-layer tracing of an mcgverify run, from outside the package.

The tracer replaces public functions of ``words``, ``mcg``, ``homology``,
``lantern``, ``claims`` and ``cli`` with wrappers.  A wrapper is installed on
every module namespace that binds the function: ``mcg``, ``claims`` and
``homology`` use ``from .words import ...``, so patching only the defining
module would miss their calls.

Each target is traced in one of three ways:

* ``span``  -- a coarse boundary (a claim, a joinability search, building the
  claim table, serialising the report).  Every call is kept in memory as a
  span (id, parent id, name, start, end, attributes) and written out at the
  end of the run.
* ``time``  -- a hot function (tens of thousands of calls per run).  Calls and
  times are summed into one accumulator per (function, parent) pair.
* ``count`` -- calls are counted per parent and not timed.

A function's self time is its duration minus the durations of the traced
calls it made; :func:`self_check` verifies that arithmetic on a synthetic
nested call with a scripted clock.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

PACKAGE_MODULES = ("mcgverify", "mcgverify.words", "mcgverify.mcg", "mcgverify.homology",
                   "mcgverify.lantern", "mcgverify.claims", "mcgverify.cli")

# (layer, which is also the defining module; function; how it is traced)
TARGETS = (
    ("cli", "build_claims", "span"),
    ("cli", "report_json", "span"),
    ("claims", "run_claim", "span"),
    ("lantern", "verify_step", "span"),
    ("lantern", "reduce_expr", "count"),
    ("homology", "matrix_mul", "time"),
    ("homology", "matrix_power", "time"),
    ("homology", "determinant", "time"),
    ("homology", "build_eg_rotation", "time"),
    ("homology", "abelianize", "count"),
    ("mcg", "substitute", "time"),
    ("mcg", "compose", "time"),
    ("mcg", "evaluate", "time"),
    ("mcg", "is_inner", "time"),
    ("mcg", "order_of", "time"),
    ("mcg", "curve_image", "count"),
    ("mcg", "get_catalog", "time"),
    ("words", "dehn_reduce", "time"),
    ("words", "is_trivial", "time"),
    ("words", "cyclic_canonical", "time"),
    ("words", "is_conjugate", "count"),
    ("words", "find_conjugators", "time"),
)

CLAIM_KINDS = ("order", "identity", "curve_image", "determinant", "eg_det", "eg_power",
               "decomposition", "lantern")


class Tracer:
    """Wrappers, accumulators and spans of one traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # active traced calls, innermost last: [child seconds, name, span id]
        self.stack = []
        # (name, parent name) -> [calls, self seconds, total seconds]
        self.acc = defaultdict(lambda: [0, 0.0, 0.0])
        self.spans = []
        self.counters = defaultdict(int)
        self.seen = defaultdict(set)
        self.patched = []  # (module, attribute) pairs wrapped
        self.observers = {
            "verify_step": self._observe_verify_step,
            "run_claim": self._observe_run_claim,
            "matrix_mul": lambda args, kw, result, attrs: self._add("matrix_mul.madds", len(args[0]) ** 3),
            "determinant": lambda args, kw, result, attrs: self._add("determinant.n3", len(args[0]) ** 3),
            "evaluate": self._observe_evaluate,
            "is_inner": self._observe_is_inner,
            "cyclic_canonical": self._observe_cyclic_canonical,
        }

    def _add(self, key, amount=1):
        self.counters[key] += amount

    # -- wrappers --------------------------------------------------------

    def wrap(self, name, fn, how):
        stack, acc = self.stack, self.acc
        if how == "count":
            def counted(*args, **kwargs):
                acc[(name, stack[-1][1] if stack else "")][0] += 1
                return fn(*args, **kwargs)
            return counted

        clock, spans = self.clock, self.spans
        observe = self.observers.get(name)
        if name == "find_conjugators":
            observe = self._conjugator_observer(fn)

        def timed(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = None
            if how == "span":
                span_id = len(spans)
                spans.append([span_id, parent[2] if parent else None, name, 0.0, 0.0, {}])
            frame = [0.0, name, span_id if span_id is not None else (parent[2] if parent else None)]
            stack.append(frame)
            start = clock()
            outcome = None
            try:
                outcome = fn(*args, **kwargs)
                return outcome
            except BaseException as exc:
                outcome = exc
                raise
            finally:
                end = clock()
                stack.pop()
                total = end - start
                if parent is not None:
                    parent[0] += total
                entry = acc[(name, parent[1] if parent else "")]
                entry[0] += 1
                entry[1] += total - frame[0]
                entry[2] += total
                if span_id is not None:
                    spans[span_id][3] = start
                    spans[span_id][4] = end
                if observe is not None:
                    observe(args, kwargs, outcome, None if span_id is None else spans[span_id][5])

        return timed

    def install(self):
        """Wrap every target on every package module that binds it."""
        modules = [sys.modules[m] for m in PACKAGE_MODULES]
        for layer, name, how in TARGETS:
            original = getattr(sys.modules[f"mcgverify.{layer}"], name)
            wrapper = self.wrap(name, original, how)
            for module in modules:
                if module.__dict__.get(name) is original:
                    self.patched.append((module.__name__, name))
                    setattr(module, name, wrapper)

    # -- observers -------------------------------------------------------

    def _observe_verify_step(self, args, kwargs, outcome, attrs):
        if outcome is True:
            attrs["outcome"] = "joined"
        elif outcome is False:
            attrs["outcome"] = "separated"
        elif type(outcome).__name__ == "BudgetExceeded":
            attrs["outcome"] = "exhausted"
        else:
            attrs["outcome"] = "error"
        self._add(f"verify_step.{attrs['outcome']}")

    def _observe_run_claim(self, args, kwargs, outcome, attrs):
        attrs["claim"] = args[0].id
        attrs["kind"] = args[0].kind

    def _observe_evaluate(self, args, kwargs, outcome, attrs):
        catalog, word = args[0], tuple(args[1])
        self._add("evaluate.symbols", len(word))
        self._repeat("evaluate", (catalog.genus, word))

    def _observe_cyclic_canonical(self, args, kwargs, outcome, attrs):
        self._repeat("cyclic_canonical", (args[0].genus, args[1]))

    def _repeat(self, name, key):
        seen = self.seen[name]
        if key in seen:
            self._add(f"{name}.repeats")
        else:
            seen.add(key)

    def _observe_is_inner(self, args, kwargs, outcome, attrs):
        label = {"Inner": "inner", "NotInner": "not_inner", "Inconclusive": "inconclusive"}
        self._add(f"is_inner.{label.get(type(outcome).__name__, 'error')}")

    def _conjugator_observer(self, fn):
        signature = inspect.signature(fn)

        def observe(args, kwargs, outcome, attrs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            self._add("find_conjugators.candidates", 2 * bound.arguments["bound"] + 1)
            if isinstance(outcome, list):
                self._add("find_conjugators.verified", len(outcome))

        return observe

    # -- results ---------------------------------------------------------

    def totals(self, name):
        """(calls, self seconds, total seconds) of ``name`` over all parents."""
        calls, self_s, total_s = 0, 0.0, 0.0
        for (fn, _parent), (c, s, t) in self.acc.items():
            if fn == name:
                calls, self_s, total_s = calls + c, self_s + s, total_s + t
        return calls, self_s, total_s

    def metrics(self):
        """Per-layer metrics: name -> (value, unit)."""
        out = {}
        c = self.counters

        def share(part, whole):
            return part / whole if whole else 0.0

        def timed(layer, name, *fields):
            calls, self_s, total_s = self.totals(name)
            values = {"calls": (calls, "count"), "self_s": (self_s, "s"), "s": (total_s, "s")}
            for field in fields:
                out[f"{layer}.{name}.{field}"] = values[field]
            return calls, total_s

        steps, step_s = timed("lantern", "verify_step", "calls", "self_s")
        for outcome in ("joined", "separated", "exhausted"):
            out[f"lantern.verify_step.{outcome}"] = (c[f"verify_step.{outcome}"], "count")
        rewrites = self.totals("reduce_expr")[0]
        in_search = sum(v[0] for (fn, parent), v in self.acc.items()
                        if fn == "reduce_expr" and parent == "verify_step")
        out["lantern.reduce_expr.calls"] = (rewrites, "count")
        out["lantern.rewrites_per_s"] = (share(in_search, step_s), "1/s")

        timed("homology", "matrix_mul", "calls", "self_s")
        out["homology.matrix_mul.madds"] = (c["matrix_mul.madds"], "count")
        timed("homology", "matrix_power", "calls", "self_s")
        timed("homology", "determinant", "calls", "self_s")
        out["homology.determinant.n3"] = (c["determinant.n3"], "count")
        timed("homology", "build_eg_rotation", "self_s")
        timed("homology", "abelianize", "calls")

        timed("mcg", "substitute", "calls", "self_s")
        timed("mcg", "compose", "calls", "self_s")
        evaluations = timed("mcg", "evaluate", "calls", "self_s")[0]
        out["mcg.evaluate.symbols"] = (c["evaluate.symbols"], "count")
        out["mcg.evaluate.repeat_share"] = (share(c["evaluate.repeats"], evaluations), "ratio")
        timed("mcg", "is_inner", "calls", "self_s")
        for label in ("inner", "not_inner", "inconclusive"):
            out[f"mcg.is_inner.{label}"] = (c[f"is_inner.{label}"], "count")
        timed("mcg", "order_of", "calls", "self_s")
        timed("mcg", "curve_image", "calls")
        timed("mcg", "get_catalog", "s")

        timed("words", "dehn_reduce", "calls", "self_s")
        timed("words", "is_trivial", "calls", "self_s")
        canonicals = timed("words", "cyclic_canonical", "calls", "self_s")[0]
        out["words.cyclic_canonical.repeat_share"] = (
            share(c["cyclic_canonical.repeats"], canonicals), "ratio")
        timed("words", "is_conjugate", "calls")
        timed("words", "find_conjugators", "calls")
        out["words.find_conjugators.verified_share"] = (
            share(c["find_conjugators.verified"], c["find_conjugators.candidates"]), "ratio")

        per_kind = {kind: [0.0, 0] for kind in CLAIM_KINDS}
        for _id, _parent, name, start, end, attrs in self.spans:
            if name == "run_claim":
                entry = per_kind.setdefault(attrs["kind"], [0.0, 0])
                entry[0] += end - start
                entry[1] += 1
        for kind, (seconds, count) in per_kind.items():
            out[f"claims.{kind}.s"] = (seconds, "s")
            out[f"claims.{kind}.count"] = (count, "count")

        for name in ("build_claims", "report_json"):
            out[f"cli.{name}.s"] = (self.totals(name)[2], "s")
        return out

    def dump(self):
        """Spans and per-parent accumulators, for writing out after the run."""
        return {
            "spans": [dict(zip(("id", "parent", "name", "start", "end", "attrs"), s))
                      for s in self.spans],
            "accumulators": [
                {"name": name, "parent": parent, "calls": calls, "self_s": self_s,
                 "total_s": total_s}
                for (name, parent), (calls, self_s, total_s) in sorted(self.acc.items())
            ],
            "counters": dict(self.counters),
            "patched": sorted(f"{m}.{n}" for m, n in self.patched),
        }


def self_check():
    """Check the self-time arithmetic on outer(inner(), inner()) under a
    scripted clock; returns a list of discrepancies (empty when correct)."""
    ticks = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("inner", lambda: None, "time")

    def outer_body():
        inner()
        inner()

    tracer.wrap("outer", outer_body, "span")()
    expected = {("outer", ""): [1, 5.0, 10.0], ("inner", "outer"): [2, 5.0, 5.0]}
    problems = [f"{key}: {tracer.acc.get(key)} != {want}"
                for key, want in expected.items() if tracer.acc.get(key) != want]
    if tracer.spans != [[0, None, "outer", 0.0, 10.0, {}]]:
        problems.append(f"spans {tracer.spans}")
    return problems
