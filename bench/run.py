"""Benchmark of ``mcgverify run``: fresh-process samples with checked verdicts.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src``.

``--trace 0`` takes ``mcgverify run`` samples until S seconds have passed
(at least one), plus extra set-up samples, and prints the end-to-end
metrics: the median ``verify_s``, ``setup_s`` and ``peak_rss_mb``.
``--trace 1`` takes one untraced and one traced sample and prints the
per-layer metrics of the traced one, with the tracing overhead.

Every sample is a new interpreter (see ``child.py`` for why) that calls
``mcgverify.cli.main(["run", "--format", "json", ...])`` once, with the
default ``--jobs 1``, so no threads are involved.  Each report is checked:
exit code 0, valid against the package's ``data/report_schema.json``, the
workload's claim count, every claim ``pass``, and every order, determinant
and eg_det value equal to the closed form recomputed in ``verdicts.py``.
A claim that breaks any of these counts as failed; a sample that crashes or
times out fails all its claims.  The verdict digest (sha256 of the report
without ``millis``) must be the same in every sample, in every run on the
same source tree (remembered in ``bench/out/digests.json``), and in traced
and untraced samples.

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``;
the lines before it give the sample counts, the digest and the environment
(Python version, CPU count, commit, source hash and seed), which are also
written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import verdicts

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PACKAGE = SRC / "mcgverify"
OUT = BENCH / "out"

# The whole run must end within 180 s; no sample starts after this point.
DEADLINE_S = 165.0
# Set-up takes 0.05-0.4 s, so many samples are cheap; their median is
# reported.
SETUP_SAMPLES = 20


@dataclass(frozen=True)
class Workload:
    argv: tuple    # arguments after `mcgverify run --format json`
    genera: tuple  # genera whose catalogs set-up builds
    claims: int    # claims in the report


# The windows are fixed rather than drawn from the seed: results are compared
# across runs made with different seeds, and moving the genus window by two
# changes the work of genus-high by about a factor of two (22..28: 21 s,
# 26..32: 42 s).  The seed is recorded with each result.
WORKLOADS = {
    # The default catalog (default ranges and bounds) except the rewriting
    # budget: 5000 instead of 100000, which caps each of the 6 lantern
    # ablations at 5000 expansions instead of 15000.  The proof itself needs
    # at most 325.  Plain `mcgverify run` takes 40-60 s on a 2-core host, too
    # long to repeat in the many fresh-process runs a comparison of two commits
    # needs; at 5000 the run takes 14-25 s, about 70% of it in `lantern`.
    "catalog-default": Workload(("--budget", "5000"), tuple(range(3, 10)), 1270),
    # All orders, identities, curve orbits and homology determinants for
    # genera 24..30; `mcg` and `words` do about 90% of the work.
    "genus-high": Workload(("--filter", "[mt]*", "--genus", "24..30"),
                           tuple(range(24, 31)), 847),
}


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def child(mode, workload, timeout):
    """Run one sample in a new interpreter; its JSON result, or None if it
    crashed or timed out."""
    cmd = [sys.executable, str(BENCH / "child.py"), mode,
           ",".join(map(str, workload.genera)), "run", "--format", "json", *workload.argv]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        print(f"bench: {mode} sample timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"bench: {mode} sample exited {proc.returncode}:\n{proc.stderr}", file=sys.stderr)
        return None
    result = json.loads(proc.stdout)
    if Path(result["package"]).resolve().parent != PACKAGE.resolve():
        fail(f"imported mcgverify from {result['package']}, not from {PACKAGE}")
    return result


def verify_samples(workload, seconds, left, checker):
    """``mcgverify run`` samples, taken one after another until ``seconds``
    have passed; none starts unless 1.5 times the longest sample so far is
    left before the deadline.  A sample takes 15-30 s, so a run of 40 s takes
    two or three."""
    samples = []
    longest = 0.0
    measuring = time.monotonic()
    while not samples or (time.monotonic() - measuring < seconds and left() > 1.5 * longest):
        start = time.monotonic()
        sample = child("verify", workload, left())
        checker.check(sample)
        if sample is None:
            break
        samples.append(sample)
        longest = max(longest, time.monotonic() - start)
    return samples


def setup_samples(workload, count, left, checker):
    """Set-up times of up to ``count`` set-up-only samples."""
    times = []
    while len(times) < count and left() > 0:
        sample = child("setup", workload, left())
        if sample is None:
            checker.problems.append("a set-up sample failed")
            break
        times.append(sample["setup_s"])
    return times


class Checker:
    """Checks reports and keeps the failure count and the digests seen."""

    def __init__(self, workload):
        import jsonschema

        self.workload = workload
        self.validator = jsonschema.Draft7Validator(
            json.loads((PACKAGE / "data" / "report_schema.json").read_text()))
        self.attempted = 0
        self.failed = 0
        self.digests = set()
        self.problems = []

    def check(self, sample):
        """Count the sample's claims and failures; returns its digest."""
        expected = self.workload.claims
        self.attempted += expected
        if sample is None:
            self.failed += expected
            return None
        reports = json.loads(sample["report"])
        errors = list(self.validator.iter_errors(reports))
        if errors:
            self.problems.append(f"report does not match the schema: {errors[0].message}")
            self.failed += expected
            return None
        failures = verdicts.check_claims(reports)
        for cid, reason in sorted(failures.items())[:10]:
            self.problems.append(f"{cid}: {reason}")
        # a defect of the whole report fails every claim in it
        broken = False
        if len(reports) != expected:
            self.problems.append(f"{len(reports)} claims, expected {expected}")
            broken = True
        if sample["exit_code"] != 0:
            self.problems.append(f"exit code {sample['exit_code']}")
            broken = broken or not failures
        self.failed += expected if broken else len(failures)
        found = verdicts.digest(reports)
        self.digests.add(found)
        return found


def source_hash():
    h = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def remembered_digest(key, found):
    """The digest first recorded for ``key`` (workload on this source tree);
    records ``found`` if there is none yet."""
    path = OUT / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    if key not in known and found is not None:
        known[key] = found
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        tmp.replace(path)
    return known.get(key)


def metric(value, unit):
    return {"value": value, "unit": unit}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (PACKAGE / "cli.py").is_file() or not (PACKAGE / "data" / "report_schema.json").is_file():
        fail(f"no mcgverify sources under {SRC}; run from the root of a checkout")
    workload = WORKLOADS[args.workload]
    checker = Checker(workload)
    started = time.monotonic()

    def left():
        return DEADLINE_S - (time.monotonic() - started)

    # compiles the bytecode, so that no timed sample pays for it
    if child("setup", workload, left()) is None:
        fail("set-up failed")

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "argv": ["run", "--format", "json", *workload.argv],
              "python": platform.python_version(), "nproc": os.cpu_count(),
              "commit": commit(), "source_sha256": source_hash()}
    OUT.mkdir(exist_ok=True)
    if args.trace == 0:
        # set-up samples on both sides of the verify samples, so that they
        # see the same host conditions
        setups = setup_samples(workload, SETUP_SAMPLES // 2, left, checker)
        samples = verify_samples(workload, args.seconds, left, checker)
        setups += [s["setup_s"] for s in samples]
        setups += setup_samples(workload, SETUP_SAMPLES - len(setups), left, checker)
        verify_s = [s["verify_s"] for s in samples]
        rss = [s["peak_rss_mb"] for s in samples]
        metrics = {
            "verify_s": metric(statistics.median(verify_s), "s") if verify_s else None,
            "setup_s": metric(statistics.median(setups), "s") if setups else None,
            "peak_rss_mb": metric(statistics.median(rss), "MiB") if rss else None,
        }
        record.update(verify_s=verify_s, setup_s=setups, peak_rss_mb=rss)
    else:
        import tracer

        problems = tracer.self_check()
        if problems:
            checker.problems.append(f"tracer self-check: {problems}")
        plain = child("verify", workload, left())
        plain_digest = checker.check(plain)
        traced = child("trace", workload, left()) if plain is not None else None
        traced_digest = checker.check(traced)
        if traced_digest != plain_digest:
            checker.problems.append("traced and untraced verdict digests differ")
        metrics = {}
        if traced is not None:
            layers = dict(traced["layers"])
            layers["trace.verify_s"] = [traced["verify_s"], "s"]
            layers["trace.overhead_share"] = [traced["verify_s"] / plain["verify_s"] - 1, "ratio"]
            metrics = {name: metric(v, unit) for name, (v, unit) in layers.items()}
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            trace_path.write_text(json.dumps(traced["trace"]))
            record["trace_file"] = str(trace_path.relative_to(ROOT))
            record.update(verify_s=[plain["verify_s"]], traced_verify_s=traced["verify_s"])

    digest = next(iter(checker.digests)) if len(checker.digests) == 1 else None
    if len(checker.digests) > 1:
        checker.problems.append(f"{len(checker.digests)} different verdict digests in one run")
    first = remembered_digest(f"{record['source_sha256']}:{args.workload}", digest)
    if digest is not None and first != digest:
        checker.problems.append(f"verdict digest {digest} differs from earlier runs' {first}")
    record.update(digest=digest, attempted=checker.attempted, failed=checker.failed,
                  problems=checker.problems)
    correct = not checker.problems and checker.failed == 0 and digest is not None
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    for problem in checker.problems:
        print(f"problem: {problem}")
    print(f"workload {args.workload}: {len(record.get('verify_s', []))} verify samples, "
          f"{len(record.get('setup_s', []))} set-up samples, "
          f"{checker.failed}/{checker.attempted} claims failed, digest {digest}")
    print(json.dumps({k: record[k] for k in ("python", "nproc", "commit", "source_sha256", "seed")}))
    for name, m in metrics.items():
        if m is not None:
            print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": checker.attempted,
                      "failed": checker.failed,
                      "metrics": {k: v for k, v in metrics.items() if v is not None}}))


if __name__ == "__main__":
    main()
