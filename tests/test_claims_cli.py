"""Claim catalog integrity and the command-line interface."""

import dataclasses
import json
import subprocess
import sys
import tracemalloc
from importlib import resources

import jsonschema
import pytest

import mcgverify.claims
from mcgverify.claims import (
    Bounds,
    build_claims,
    exit_code,
    filter_claims,
    find_claim,
    run_claim,
    run_claims,
)
from mcgverify.errors import InvariantViolation, UnknownClaim


def load_schema():
    text = resources.files("mcgverify.data").joinpath("report_schema.json").read_text()
    return json.loads(text)


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "mcgverify.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc


# ---------------------------------------------------------------------------
# catalog


def test_catalog_ids_unique_and_sorted():
    claims = build_claims()
    ids = [c.id for c in claims]
    assert ids == sorted(ids)
    assert len(ids) == len(set(ids))


def test_catalog_contains_expected_families():
    ids = {c.id for c in build_claims()}
    for required in [
        "thm1.order.s.g6",
        "thm1.order.st-beta.g5",
        "thm1.order.u2.g3",
        "thm1.id.chain-power.g4",
        "thm1.id.talpha4.g5",
        "thm1.orbit.yrprimey.g5",
        "thm1.orbit.x-a4.g6",
        "thm1.orbit.xrkx.g7",
        "twist.det.b.g5",
        "mcg.det.y.g9",
        "thm1.det.r.g6",
        "lemma-embed.det.k12.p1.q0",
        "lemma-embed.power.k13.p3.q2.x",
        "cor4.decomp.g232.k12",
        "cor4.decomp.g436.k14",
        "lemma1.proof",
        "lemma1.reversed",
    ]:
        assert required in ids, required


def test_duplicate_claim_ids_raise(monkeypatch):
    lantern = mcgverify.claims._lantern_claims
    monkeypatch.setattr(mcgverify.claims, "_lantern_claims", lambda: lantern() * 2)
    with pytest.raises(InvariantViolation):
        build_claims()


def test_provenance_tags_valid():
    for claim in build_claims():
        assert claim.provenance in ("stated", "derived", "trivial")
        assert claim.source


def test_filter_claims_glob():
    claims = build_claims()
    subset = filter_claims(claims, "thm1.order.*.g5")
    assert {c.id for c in subset} == {
        "thm1.order.r.g5",
        "thm1.order.rprime.g5",
        "thm1.order.s.g5",
        "thm1.order.sprime.g5",
        "thm1.order.st-beta.g5",
    }
    assert filter_claims(claims, "no-such-claim.*") == []


def test_find_claim_unknown():
    with pytest.raises(UnknownClaim):
        find_claim(build_claims(), "bogus.id")


def test_run_claims_deterministic():
    claims = filter_claims(build_claims(), "thm1.*.g5")
    first = run_claims(claims, Bounds())
    second = run_claims(claims, Bounds())
    assert [r.id for r in first] == [r.id for r in second]
    assert [(r.status, r.observed) for r in first] == [
        (r.status, r.observed) for r in second
    ]
    assert all(r.status == "pass" for r in first)


def test_build_claims_builds_no_words():
    """Words are built when a claim runs: a genus-300 catalog stays small."""
    tracemalloc.start()
    try:
        build_claims(genus_range=(300, 300))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("claim_id,wrong", [
    ("thm1.order.s.g5", 11),
    ("twist.det.a1.g5", -1),
    ("lemma-embed.det.k12.p1.q0", 1),
    ("thm1.orbit.s.a1.g5", "a3"),
])
def test_run_claim_compares_stated_expected(claim_id, wrong):
    claim = find_claim(build_claims(genus_range=(5, 5)), claim_id)
    assert run_claim(claim, Bounds()).status == "pass"
    assert run_claim(dataclasses.replace(claim, expected=wrong), Bounds()).status == "fail"


def test_exit_code_logic():
    class R:
        def __init__(self, status):
            self.status = status

    assert exit_code([]) == 0
    assert exit_code([R("pass")]) == 0
    assert exit_code([R("pass"), R("inconclusive")]) == 3
    assert exit_code([R("fail"), R("inconclusive")]) == 2


# ---------------------------------------------------------------------------
# CLI


def rows_without_millis(proc):
    return [{k: v for k, v in row.items() if k != "millis"} for row in json.loads(proc.stdout)]


def test_cli_run_text_passes():
    proc = run_cli("run", "--filter", "thm1.order.*.g5", "--genus", "5..5")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "PASS" in proc.stdout
    assert "5 claims: 5 pass" in proc.stdout


def test_cli_run_json_validates_against_schema():
    proc = run_cli(
        "run", "--filter", "lemma-embed.det.k12.*", "--format", "json",
        "--k", "12..12",
    )
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(proc.stdout)
    jsonschema.validate(rows, load_schema())
    assert all(row["status"] == "pass" for row in rows)
    assert all(row["bounds"]["conj"] == 16 for row in rows)


def test_cli_empty_filter_match_exits_zero():
    proc = run_cli("run", "--filter", "nothing.matches.*")
    assert proc.returncode == 0
    assert "0 claims" in proc.stdout


def test_cli_reports_reproducible():
    args = ("run", "--filter", "cor4.decomp.g232.*", "--format", "json")
    assert rows_without_millis(run_cli(*args)) == rows_without_millis(run_cli(*args))


def test_cli_report_same_under_python_O():
    """No check rests on assert: -O (which strips asserts) gives the same report."""
    args = ("run", "--filter", "thm1.*", "--genus", "3..6", "--format", "json")
    plain = run_cli(*args)
    optimized = subprocess.run(
        [sys.executable, "-O", "-m", "mcgverify.cli", *args],
        capture_output=True,
        text=True,
    )
    assert plain.returncode == 0, plain.stderr
    assert optimized.returncode == 0, optimized.stderr
    assert rows_without_millis(optimized) == rows_without_millis(plain)


@pytest.mark.parametrize("flag,value", [
    ("--bound-conj", "-3"),
    ("--bound-order", "-1"),
    ("--budget", "-1"),
])
def test_cli_out_of_range_flag_exits_4(flag, value):
    proc = run_cli("run", "--filter", "thm1.order.s.g5", "--genus", "5..5", flag, value)
    assert proc.returncode == 4
    assert flag in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("args", [
    ("--jobs", "2"),       # removed option
    ("--cache", "x"),      # removed option
    ("--bogus",),
    ("--budget", "abc"),
    ("--k", "1..2"),
    ("--p", "0..1"),
    ("--q=-1..0",),        # "--q -1..0" would read -1..0 as an option
], ids="-".join)
def test_cli_bad_arguments_exit_4(args):
    """Bad arguments exit 4, never 2 (some claim failed) or a traceback."""
    proc = run_cli("run", "--filter", "lemma-embed.det.*", *args)
    assert proc.returncode == 4, proc.stderr
    assert args[0].split("=")[0] in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_cli_help_exits_0():
    proc = run_cli("run", "--help")
    assert proc.returncode == 0
    assert "--jobs" not in proc.stdout and "--cache" not in proc.stdout


def test_cli_explain_known():
    proc = run_cli("explain", "thm1.order.st-beta.g5")
    assert proc.returncode == 0
    assert "order" in proc.stdout
    assert "stated" in proc.stdout


EXPLAINED = {
    "thm1.order.s.g12": "12",  # genus outside the default 3..9
    "lemma-embed.det.k20.p1.q0": "-1",  # k outside the default 2..13
    "lemma-embed.power.k13.p4.q3.x": "True",  # p, q outside 1..3, 0..2
    "cor4.decomp.g232.k12": "True",
    "thm1.orbit.xrkx.g2000": "'e'",  # words of about g^2 symbols, not built
}


@pytest.mark.parametrize("claim_id", EXPLAINED)
def test_cli_explain_resolves_id_parameters(claim_id):
    """explain builds the claims from the parameters the id names."""
    proc = run_cli("explain", claim_id)
    assert proc.returncode == 0, proc.stderr
    assert f"id:          {claim_id}\n" in proc.stdout
    assert f"expected:    {EXPLAINED[claim_id]}\n" in proc.stdout


@pytest.mark.parametrize("claim_id", EXPLAINED)
def test_cli_list_resolves_id_parameters(claim_id):
    """list resolves its filter's parameters the way explain does."""
    proc = run_cli("list", "--filter", claim_id)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"{claim_id}  ["), proc.stdout


def test_cli_explain_unknown_exits_4():
    proc = run_cli("explain", "no.such.claim")
    assert proc.returncode == 4


@pytest.mark.parametrize("claim_id", [
    "thm1.order.s.g2",  # genus below 3
    "thm1.order.t12.g4",  # a genus-3 family at another genus
    "lemma-embed.det.k1.p1.q0",  # k below 2
])
def test_cli_explain_id_run_cannot_produce_exits_4(claim_id):
    proc = run_cli("explain", claim_id)
    assert proc.returncode == 4
    assert proc.stdout == ""


def test_cli_list_filters():
    proc = run_cli("list", "--filter", "lemma1.*")
    assert proc.returncode == 0
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    assert len(lines) == 7


def test_cli_bad_genus_range_exits_4():
    proc = run_cli("run", "--genus", "abc")
    assert proc.returncode == 4


def test_cli_genus_range_restricts_claims():
    proc = run_cli("run", "--filter", "thm1.order.*", "--genus", "6..6",
                   "--format", "json")
    rows = json.loads(proc.stdout)
    assert rows and all(row["id"].endswith(".g6") for row in rows)


def test_cli_bound_order_flag():
    # an order bound below the true order yields a fail, not a hang
    proc = run_cli("run", "--filter", "thm1.order.s.g5", "--genus", "5..5",
                   "--bound-order", "4", "--format", "json")
    rows = json.loads(proc.stdout)
    assert proc.returncode == 2
    assert rows[0]["status"] == "fail"
