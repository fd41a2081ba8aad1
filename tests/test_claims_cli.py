"""Claim catalog integrity and the command-line interface."""

import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import mcgverify.claims
import mcgverify.cli
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
from mcgverify.homology import abelianize, determinant
from mcgverify.lantern import DEFAULT_BUDGET
from mcgverify.mcg import evaluate, get_catalog


def load_schema():
    text = resources.files("mcgverify.data").joinpath("report_schema.json").read_text()
    return json.loads(text)


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args, interpreter_flags=()):
    # the child does not get pytest's pythonpath, so it is given the checkout's src
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": SRC + (os.pathsep + path if path else "")}
    return subprocess.run(
        [sys.executable, *interpreter_flags, "-m", "mcgverify.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


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


@pytest.mark.parametrize("det", [3, -1, 0])
def test_determinant_claim_fails_on_a_wrong_determinant(det, monkeypatch, capsys):
    """A determinant claim compares the exact determinant with its expected
    sign: +-1 of the wrong sign, or a value the criterion does not allow,
    is a failed row that shows the determinant, and ``run`` exits 2."""
    monkeypatch.setattr(mcgverify.claims, "determinant", lambda matrix: det)
    claim = find_claim(build_claims(genus_range=(3, 3)), "twist.det.a1.g3")
    report = run_claim(claim, Bounds())
    assert (report.status, report.observed) == ("fail", det)
    args = ["run", "--filter", "twist.det.a1.g3", "--genus", "3..3", "--format", "json"]
    assert mcgverify.cli.main(args) == 2
    rows = json.loads(capsys.readouterr().out)
    assert [(row["status"], row["observed"]) for row in rows] == [("fail", det)]


@pytest.mark.parametrize("genus", [3, 5, 30, 127])
def test_determinant_claims_read_the_moved_block(genus, monkeypatch):
    """Every determinant claim about the genus-g surface (twist.det,
    mcg.det, thm1.det, tsub.det) reports the determinant of the whole
    homology matrix, computed on the block of the moved columns: at most
    four of them for a single generator."""
    catalog = get_catalog(genus)
    sizes = []

    def spy(matrix):
        sizes.append(len(matrix))
        return determinant(matrix)

    monkeypatch.setattr(mcgverify.claims, "determinant", spy)
    claims = [c for c in build_claims(genus_range=(genus, genus)) if c.kind == "determinant"]
    assert {c.id.split(".")[0] for c in claims} == {"twist", "mcg", "thm1", "tsub"}
    for claim in claims:
        _, word = mcgverify.claims._family_word(claim)
        det = determinant(abelianize(evaluate(catalog, word)))
        assert run_claim(claim, Bounds()).observed == det, claim.id
        assert len(word) > 1 or sizes[-1] <= 4, claim.id


@pytest.mark.parametrize("p,q", [
    (1, 9),    # p odd and q >= 0, but 12 + 2*9*11 != 232
    (12, 4),   # 12*12 + 2*4*11 = 232 with p even
    (23, -2),  # 23*12 - 2*2*11 = 232 with q < 0
])
def test_decomposition_claim_fails_on_a_wrong_decomposition(p, q, monkeypatch):
    """The decomposition claim checks g = pk + 2q(k-1) (+1), p odd and
    q >= 0 on the fields ``decompose_genus`` returns; each wrong (p, q)
    breaks one of the three."""
    decompose = mcgverify.claims.decompose_genus
    monkeypatch.setattr(mcgverify.claims, "decompose_genus",
                        lambda g, k: dataclasses.replace(decompose(g, k), p=p, q=q))
    claim = find_claim(build_claims(genus_range=(3, 3)), "cor4.decomp.g232.k12")
    report = run_claim(claim, Bounds())
    assert report.status == "fail"
    assert (report.observed["p"], report.observed["q"]) == (p, q)


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
    assert all(row["bounds"] == {"order": "4g", "budget": DEFAULT_BUDGET}
               for row in rows)


def test_cli_empty_filter_match_exits_zero():
    proc = run_cli("run", "--filter", "nothing.matches.*")
    assert proc.returncode == 0
    assert "0 claims" in proc.stdout


def test_cli_reports_reproducible():
    args = ("run", "--filter", "cor4.decomp.g232.*", "--format", "json")
    assert rows_without_millis(run_cli(*args)) == rows_without_millis(run_cli(*args))


def test_cli_report_same_under_python_O():
    """No check rests on assert: -O (which strips asserts) gives the same
    report, also at genus 24, where the packed word kernel sees long images,
    and for the orders at genus 25, whose period 2g = 50 takes both the odd
    and the even rungs of the power table's ladder.  The identities and the
    orders of s and s' at genera 24 and 25 cover both ladder parities, and
    their shared entries.  The determinant families at genus 24 cover
    abelianization, with and without an x_g letter.  The decompositions and
    the rotation-model claims cover the arithmetic and the dense power
    their runners check."""
    for claims, genus in (("thm1.*", "3..6"), ("lemma1.*", "3..6"), ("thm1.*", "24..24"),
                          ("thm1.order.*", "25..25"), ("thm1.id.*", "24..25"),
                          ("thm1.order.s*", "24..25"), ("twist.*", "24..24"),
                          ("mcg.det.*", "24..24"), ("tsub.*", "24..24"),
                          ("thm1.order.*", "5..5"), ("thm1.id.*", "5..5"),
                          ("cor4.decomp.g23*.k12", "3..3"), ("lemma-embed.*.k12.p1.*", "3..3")):
        args = ("run", "--filter", claims, "--genus", genus, "--format", "json")
        plain = run_cli(*args)
        optimized = run_cli(*args, interpreter_flags=("-O",))
        assert plain.returncode == 0, plain.stderr
        assert optimized.returncode == 0, optimized.stderr
        assert rows_without_millis(plain)
        assert rows_without_millis(optimized) == rows_without_millis(plain)


def test_order_claims_alone_match_the_full_run():
    """An order claim of s or s' run alone builds its powers from scratch;
    in the full run it reads or squares those the chain-power identity
    left in the table.  Both give the same row."""
    full = run_cli("run", "--filter", "[mt]*", "--genus", "24..30", "--format", "json")
    assert full.returncode == 0, full.stderr
    rows = {row["id"]: row for row in rows_without_millis(full)}
    for claim_id, genus in (("thm1.order.s.g29", "29..29"), ("thm1.order.sprime.g28", "28..28")):
        alone = run_cli("run", "--format", "json", "--filter", claim_id, "--genus", genus)
        assert alone.returncode == 0, alone.stderr
        assert rows_without_millis(alone) == [rows[claim_id]]


@pytest.mark.parametrize("flag,value", [
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
    ("--bound-order", "4"),  # removed option: the order bound is 4g
    ("--bound-conj", "3"),   # removed option: is_inner has no bound
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
    for removed in ("--jobs", "--cache", "--bound-conj", "--bound-order"):
        assert removed not in proc.stdout


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
    "thm1.orbit.xrkx.g127": "'e'",  # words of about g^2 symbols, not built
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


def test_cli_explain_and_list_of_a_factored_orbit_claim():
    """The x r^k x^-1 claims keep r^k as a factor; what explain and list
    print of them is the claim's text, unchanged."""
    explained = run_cli("explain", "thm1.orbit.xrkx.g127")
    listed = run_cli("list", "--filter", "thm1.orbit.xrkx.g127")
    assert explained.returncode == listed.returncode == 0
    assert explained.stdout == (
        "id:          thm1.orbit.xrkx.g127\n"
        "kind:        curve_image\n"
        "statement:   x r^124 x^-1(a3) = e\n"
        "source:      theorem-1 proof: eps joins the twist-curve orbit\n"
        "expected:    'e'\n"
        "provenance:  stated\n"
    )
    assert listed.stdout == "thm1.orbit.xrkx.g127  [stated]  x r^124 x^-1(a3) = e\n"


def test_cli_explain_unknown_exits_4():
    proc = run_cli("explain", "no.such.claim")
    assert proc.returncode == 4


@pytest.mark.parametrize("claim_id", [
    "thm1.order.s.g2",  # genus below 3
    "thm1.order.t12.g4",  # a genus-3 family at another genus
    "lemma-embed.det.k1.p1.q0",  # k below 2
    "thm1.order.s.g128",  # genus above MAX_GENUS, which run refuses
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


def test_cli_genus_above_cap_exits_4():
    """Letters are packed one signed byte each, so genus 128 is refused
    before any claim runs."""
    proc = run_cli("run", "--genus", "3..128", "--format", "json")
    assert proc.returncode == 4
    assert "127" in proc.stderr and "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_cli_genus_range_restricts_claims():
    proc = run_cli("run", "--filter", "thm1.order.*", "--genus", "6..6",
                   "--format", "json")
    rows = json.loads(proc.stdout)
    assert rows and all(row["id"].endswith(".g6") for row in rows)
