"""Claim catalog integrity and the command-line interface."""

import ast
import errno
import json
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import mcgverify.claims
import mcgverify.cli
import mcgverify.words
from mcgverify.claims import (
    DEFAULT_RANGES,
    build_claims,
    exit_code,
    filter_claims,
    report_json,
    resolve_claims,
    run_claim,
    run_claims,
    word_s,
)
from mcgverify.errors import InvariantViolation
from mcgverify.homology import abelianize, determinant
from mcgverify.mcg import CurveClass, evaluate, get_catalog, tbeta
from mcgverify.words import format_word


def load_schema():
    text = resources.files("mcgverify.data").joinpath("report_schema.json").read_text()
    return json.loads(text)


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_python(*argv):
    # the child does not get pytest's pythonpath, so it is given the checkout's src
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": SRC + (os.pathsep + path if path else "")}
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)


def run_cli(*args, interpreter_flags=()):
    return run_python(*interpreter_flags, "-m", "mcgverify.cli", *args)


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
    monkeypatch.setattr(mcgverify.claims, "_lantern_claims", lambda budget: lantern(budget) * 2)
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


def test_run_claims_deterministic():
    claims = filter_claims(build_claims(), "thm1.*.g5")
    first = run_claims(claims)
    second = run_claims(claims)
    assert [r.id for r in first] == [r.id for r in second]
    assert [(r.status, r.observed) for r in first] == [
        (r.status, r.observed) for r in second
    ]
    assert all(r.status == "pass" for r in first)


def count_forks(monkeypatch):
    """The list each ``os.fork`` in this process appends to."""
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


def see_cpus(monkeypatch, count):
    """Let ``run_claims`` see ``count`` CPUs, whatever this host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def test_run_claims_same_reports_serial_and_parallel(monkeypatch):
    """Pinned to one CPU, ``run_claims`` runs the claims in this process;
    with three CPUs it forks two workers.  Both give the same reports."""
    claims = [c for c in build_claims(genus=(5, 7), k=(2, 4), p=(1, 1), q=(0, 1))
              if not c.id.startswith("lemma1.")]
    forks = count_forks(monkeypatch)
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        serial = run_claims(claims)
    finally:
        os.sched_setaffinity(0, cpus)
    assert forks == []
    see_cpus(monkeypatch, 3)
    parallel = run_claims(claims)
    assert len(forks) == 2
    assert [r.id for r in serial] == sorted(c.id for c in claims)
    assert [r._replace(millis=0) for r in serial] == [r._replace(millis=0) for r in parallel]


class Boom(Exception):
    pass


@pytest.mark.parametrize("raising", [
    ("mcg.det.u1.g5", "mcg.det.u1.g6"),  # one claim in each share
    ("mcg.det.u1.g6",),                  # one claim in the worker's share
    ("mcg.det.u1.g5",),                  # one claim here, with the worker still busy
], ids=["every-share", "worker-share", "caller-share"])
def test_run_claims_raises_and_leaves_no_worker(monkeypatch, raising):
    """A claim that raises in any share raises the same exception from
    ``run_claims``, and no worker outlives it: a raise here kills the
    worker at once, and a worker that failed has its share run again here.
    The worker's determinant claims take 0.5 s each, about 9 s in all."""
    see_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    determinant = mcgverify.claims.RUNNERS["determinant"]
    caller = os.getpid()

    def runner(claim):
        if claim.id in raising:
            raise Boom(claim.id)
        if os.getpid() != caller:
            time.sleep(0.5)
        return determinant(claim)

    monkeypatch.setitem(mcgverify.claims.RUNNERS, "determinant", runner)
    start = time.monotonic()
    with pytest.raises(Boom, match=raising[0]):
        run_claims(filter_claims(build_claims(genus=(5, 6)), "[mt]*"))
    assert time.monotonic() - start < 4
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_run_claims_runs_a_share_it_cannot_fork_here(monkeypatch):
    """An ``os.fork`` that fails, as under a process limit, leaves no pipe
    end open and no child: its share runs in this process, and the reports
    are those of a one-CPU run."""
    claims = filter_claims(build_claims(genus=(5, 6)), "[mt]*")
    see_cpus(monkeypatch, 1)
    serial = run_claims(claims)

    def failing_fork():
        raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "fork", failing_fork)
    see_cpus(monkeypatch, 2)
    fds = len(os.listdir("/proc/self/fd"))
    reports = run_claims(claims)
    assert len(os.listdir("/proc/self/fd")) == fds
    assert [r._replace(millis=0) for r in reports] == [r._replace(millis=0) for r in serial]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_orphaned_worker_leaves(monkeypatch, tmp_path):
    """A worker whose parent died leaves before its next claim, so killing
    a run without its workers leaves none running."""
    see_cpus(monkeypatch, 2)
    log = tmp_path / "pids"
    determinant = mcgverify.claims.RUNNERS["determinant"]

    def slow_runner(claim):
        with open(log, "a") as out:
            out.write(f"{os.getpid()}\n")
        time.sleep(0.05)
        return determinant(claim)

    def worker_claims():
        pids = [int(pid) for pid in log.read_text().split()] if log.exists() else []
        return [pid for pid in pids if pid != run]

    monkeypatch.setitem(mcgverify.claims.RUNNERS, "determinant", slow_runner)
    claims = filter_claims(build_claims(genus=(5, 6)), "*det*")
    run = os.fork()
    if run == 0:
        try:
            run_claims(claims)
        finally:
            os._exit(0)
    deadline = time.monotonic() + 30
    while not worker_claims() and time.monotonic() < deadline:
        time.sleep(0.01)
    os.kill(run, signal.SIGKILL)
    os.waitpid(run, 0)
    started = len(worker_claims())
    (worker,) = set(worker_claims())
    while time.monotonic() < deadline and running(worker):
        time.sleep(0.01)
    assert not running(worker)
    # the claim it was running, and at most one it had passed the check for
    assert len(worker_claims()) <= started + 1 < len([c for c in claims if c.id.endswith("g6")])


def running(pid):
    """Whether the process ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def test_build_claims_builds_no_words(monkeypatch):
    """Words are built when a claim runs: building the genus-127 catalog
    calls no family's ``word`` and stays small."""
    def no_word(g, i):
        raise AssertionError(f"a word was built at genus {g}")

    monkeypatch.setattr(mcgverify.claims, "FAMILIES", {
        name: family._replace(word=no_word) for name, family in mcgverify.claims.FAMILIES.items()})
    tracemalloc.start()
    try:
        claims = build_claims(genus=(127, 127))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert any(c.id == "thm1.orbit.xrkx.g127" for c in claims)
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("param,value", [
    ("genus", (2, 5)),
    ("genus", (5, 128)),
    ("k", (1, 3)),
    ("p", (0, 1)),
    ("q", (-1, 0)),
    ("budget", -1),
    ("genus", (5, 3)),
    ("k", (5, 3)),
    ("p", (3, 1)),
    ("q", (2, 0)),
])
def test_build_claims_refuses_what_run_refuses(param, value):
    """``build_claims`` is the one judge of which catalogs exist: it
    refuses a genus outside 3..127, an empty range, a model below the least
    one and a negative budget, naming the parameter, and never clamps."""
    with pytest.raises(ValueError, match=f"^{param} must be "):
        build_claims(**{param: value})


def test_build_claims_takes_only_named_parameters():
    with pytest.raises(TypeError):
        build_claims(genus_range=(3, 9))
    with pytest.raises(TypeError):
        build_claims((3, 9))


@pytest.mark.parametrize("claim_id,wrong", [
    ("thm1.order.s.g5", 11),
    ("twist.det.a1.g5", -1),
    ("lemma-embed.det.k12.p1.q0", 1),
    ("thm1.orbit.s.a1.g5", "a3"),
])
def test_run_claim_compares_stated_expected(claim_id, wrong):
    (claim,) = [c for c in build_claims(genus=(5, 5)) if c.id == claim_id]
    assert run_claim(claim).status == "pass"
    assert run_claim(claim._replace(expected=wrong)).status == "fail"


def spy_component(monkeypatch):
    """The lengths of the words that curve classes close, in call order."""
    seen = []
    component = mcgverify.words._component

    def spy(pres, core):
        seen.append(len(core))
        return component(pres, core)

    monkeypatch.setattr(mcgverify.words, "_component", spy)
    return seen


def test_curve_claims_fail_on_every_wrong_target(monkeypatch):
    """Every curve_image claim at g = 3..30, run again with each catalog
    curve of another class as its target, is a failed row, never
    inconclusive.  Its observed is the image's core key, a member of the
    true target's class, and no word longer than 8 letters, the longest
    catalog curve, is closed."""
    seen = spy_component(monkeypatch)
    claims = [c for c in build_claims(genus=(3, 30)) if c.kind == "curve_image"]
    mutants = 0
    for claim in claims:
        catalog = get_catalog(claim.params["genus"])
        right = CurveClass(catalog.presentation, catalog.curves[claim.expected])
        for name, curve in catalog.curves.items():
            if CurveClass(catalog.presentation, curve) == right:
                continue
            report = run_claim(claim._replace(expected=name))
            assert report.status == "fail", (claim.id, name)
            assert report.observed in {format_word(m) for m in right.members}
            mutants += 1
    assert len(claims) > 500 and mutants > 10 * len(claims), mutants
    assert max(seen) <= 8


@pytest.mark.parametrize("genus", [12, 30])
def test_passing_curve_row_closes_only_its_target(genus, monkeypatch):
    """A passing curve row of each family closes one class, its target's:
    two closures, of the target's core and of its inverse.  The start
    curve's word is mapped as it is, without closing its class."""
    seen = spy_component(monkeypatch)
    rows = {}
    for claim in build_claims(genus=(genus, genus)):
        if claim.kind == "curve_image":
            rows.setdefault(claim.params["family"], claim)
    assert len(rows) == 7
    for claim in rows.values():
        seen.clear()
        assert run_claim(claim).status == "pass", claim.id
        assert len(seen) == 2, (claim.id, seen)


def test_long_curve_image_fails_without_closing_it(monkeypatch):
    """(s t_b)^16 sends a1 at genus 30 to a curve whose cyclic core has 898
    letters.  A claim that names a2 as that image is a failed row that
    shows the core, and only the target's class is closed."""
    seen = spy_component(monkeypatch)
    (claim,) = [c for c in build_claims(genus=(30, 30)) if c.id == "thm1.orbit.s.a1.g30"]
    family = mcgverify.claims.FAMILIES[claim.params["family"]]._replace(
        id="long-image", word=lambda g, i: ((word_s(g) + (tbeta(),), 16),))
    monkeypatch.setitem(mcgverify.claims.FAMILIES, family.id, family)
    report = run_claim(claim._replace(params={**claim.params, "family": family.id}))
    assert report.status == "fail"
    assert len(report.observed.split()) == 898
    assert seen == [2, 2]


@pytest.mark.parametrize("wrong,observed", [
    (12, 6),                      # 6 divides 12: the order is found, and it is not 12
    (4, "no order dividing 4"),   # the order 6 does not divide 4
])
def test_order_claim_fails_on_a_wrong_order(wrong, observed):
    """r has order 6 at genus 6.  A claim stating another order is a failed
    row that shows what order_of found, and nothing raises."""
    (claim,) = mcgverify.claims.resolve_claims("thm1.order.r.g6")
    report = run_claim(claim._replace(expected=wrong))
    assert (report.status, report.observed) == ("fail", observed)
    assert report.witness == run_claim(claim).witness


@pytest.mark.parametrize("det", [3, -1, 0])
def test_determinant_claim_fails_on_a_wrong_determinant(det, monkeypatch, capsys):
    """A determinant claim compares the exact determinant with its expected
    sign: +-1 of the wrong sign, or a value the criterion does not allow,
    is a failed row that shows the determinant, and ``run`` exits 2."""
    monkeypatch.setattr(mcgverify.claims, "determinant", lambda matrix: det)
    (claim,) = [c for c in build_claims(genus=(3, 3)) if c.id == "twist.det.a1.g3"]
    report = run_claim(claim)
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
    claims = [c for c in build_claims(genus=(genus, genus)) if c.kind == "determinant"]
    assert {c.id.split(".")[0] for c in claims} == {"twist", "mcg", "thm1", "tsub"}
    for claim in claims:
        _, word = mcgverify.claims._family_word(claim)
        det = determinant(abelianize(evaluate(catalog, word)))
        assert run_claim(claim).observed == det, claim.id
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
                        lambda g, k: decompose(g, k)._replace(p=p, q=q))
    (claim,) = [c for c in build_claims(genus=(3, 3)) if c.id == "cor4.decomp.g232.k12"]
    report = run_claim(claim)
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
    assert all(row["bounds"] == {} for row in rows)


def test_cli_budget_bounds_only_the_derivation_search():
    """``--budget`` bounds the ``lemma1.proof`` search alone: at one
    expansion that claim is inconclusive and its row names the budget,
    while the ablations, which check shipped countermodels, pass with
    empty bounds."""
    proc = run_cli("run", "--format", "json", "--filter", "lemma1.*", "--budget", "1")
    assert proc.returncode == 3, proc.stderr
    rows = {row["id"]: (row["status"], row["bounds"]) for row in json.loads(proc.stdout)}
    assert rows.pop("lemma1.proof") == ("inconclusive", {"budget": 1})
    assert len(rows) == 6
    assert all(row == ("pass", {}) for row in rows.values()), rows


def test_cli_budget_leaves_other_claims_unbounded():
    proc = run_cli("run", "--format", "json", "--filter", "thm1.order.r.g5", "--budget", "1")
    assert proc.returncode == 0, proc.stderr
    assert [(row["status"], row["bounds"]) for row in json.loads(proc.stdout)] == [("pass", {})]


def test_readme_library_example_runs():
    """Every ```python block of the README runs as written."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


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


def test_report_json_writes_one_claim_per_line():
    """The report is a JSON array with one compactly encoded claim per line;
    it parses to the rows themselves, each with the schema's properties as
    its keys, in the schema's order."""
    fields = list(load_schema()["items"]["properties"])
    reports = run_claims(resolve_claims("thm1.*.g5"))
    text = report_json(reports)
    lines = text.splitlines()
    assert lines[0] == "[" and lines[-1] == "]" and len(lines) == len(reports) + 2
    rows = json.loads(text)
    assert rows == [{name: getattr(r, name) for name in fields} for r in reports]
    assert all(list(row) == fields for row in rows)
    assert json.loads(report_json([])) == []


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """Every run starts with ``import mcgverify.cli``; in a fresh
    interpreter it loads neither ``dataclasses`` nor the ``inspect`` that
    it pulls in.  The modules are compared before and after the import,
    whatever ``site`` preloads; pytest itself has loaded ``inspect``, so
    the check needs its own interpreter."""
    proc = run_python("-c", "import sys; before = set(sys.modules); import mcgverify.cli; "
                            "print(*sorted(set(sys.modules) - before))")
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "mcgverify.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}, sorted(loaded)


def _is_empty_container(node) -> bool:
    """True for ``{}``, ``[]``, ``dict()``, ``list()`` and ``set()``."""
    if isinstance(node, ast.Dict):
        return not node.keys
    if isinstance(node, ast.List):
        return not node.elts
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("dict", "list", "set") and not node.args and not node.keywords)


def test_catalog_memo_is_the_only_module_level_empty_table():
    """Per-genus state has one owner, ``mcg._CATALOGS``: no other module of
    the package binds a name to an empty container at import, the shape a
    memo table starts from.  Constant tables such as ``FAMILIES``,
    ``RUNNERS`` and ``MODEL_LEAST`` are non-empty displays and do not
    count."""
    found = set()
    for path in sorted((Path(SRC) / "mcgverify").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
            else:
                continue
            if _is_empty_container(node.value):
                found.update(f"{path.stem}.{t.id}" for t in targets if isinstance(t, ast.Name))
    assert found == {"mcg._CATALOGS"}


def packed_word_leaks(source: str) -> list:
    """What a module's source knows of the packed word outside ``words``:
    underscore names imported from ``words``, ``bytearray``, ``array``,
    ``int.from_bytes``, ``.translate`` and the byte literals 0x80 and 0xFF."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module in ("words", "mcgverify.words"):
            found += [f"import {a.name}" for a in node.names if a.name.startswith("_")]
        elif isinstance(node, ast.Name) and node.id in ("bytearray", "array"):
            found.append(node.id)
        elif isinstance(node, ast.Attribute) and node.attr in ("from_bytes", "translate"):
            found.append(f".{node.attr}")
        elif (isinstance(node, ast.Constant) and type(node.value) is int
              and node.value in (0x80, 0xFF)):
            found.append(hex(node.value))
    return found


def test_only_words_knows_the_packed_word():
    """``words`` is the one module that reads packed words byte by byte:
    every other module of the package uses only its public functions and
    does no byte arithmetic."""
    assert packed_word_leaks("from .words import _cancel\nbytearray(w)\n") == [
        "import _cancel", "bytearray"]
    found = {}
    for path in sorted((Path(SRC) / "mcgverify").glob("*.py")):
        if path.name != "words.py":
            leaks = packed_word_leaks(path.read_text())
            if leaks:
                found[path.name] = leaks
    assert found == {}


def test_order_claims_alone_match_the_full_run():
    """An order claim of s or s' run alone builds its powers from scratch;
    in the full run it reads or squares those the chain-power identity
    left in the table, and reads the verdict of a power the other word's
    claim decided.  Both give the same row, at odd and even genus."""
    full = run_cli("run", "--filter", "[mt]*", "--genus", "24..30", "--format", "json")
    assert full.returncode == 0, full.stderr
    rows = {row["id"]: row for row in rows_without_millis(full)}
    for claim_id, genus in (("thm1.order.s.g29", "29..29"), ("thm1.order.sprime.g28", "28..28"),
                            ("thm1.order.sprime.g29", "29..29"), ("thm1.order.s.g28", "28..28")):
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
    ("--bound-order", "4"),  # removed option: an order claim checks its stated order
    ("--bound-conj", "3"),   # removed option: is_inner has no bound
    ("--bogus",),
    ("--budget", "abc"),
    ("--k", "1..2"),
    ("--p", "0..1"),
    ("--q=-1..0",),        # "--q -1..0" would read -1..0 as an option
    ("--genus", "5..3"),   # an empty range
], ids="-".join)
def test_cli_bad_arguments_exit_4(args):
    """Bad arguments exit 4, never 2 (some claim failed) or a traceback."""
    proc = run_cli("run", "--filter", "lemma-embed.det.*", *args)
    assert proc.returncode == 4, proc.stderr
    assert args[0].split("=")[0] in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


REFUSALS = {
    ("run", "--bogus"): "--bogus",
    ("run", "--budget", "x"): "--budget",
    ("run", "--genus", "abc"): "--genus",
    ("run", "--genus", "5..3"): "--genus",
    ("run", "--genus", "3..128"): "--genus",
    ("run", "--k", "1..2"): "--k",
    ("run", "--q=-1..0"): "--q",
    ("run", "--budget", "-1"): "--budget",
    ("explain", "no.such.claim"): "no.such.claim",
    ("explain", "cor4.decomp.g600.k18"): "cor4.decomp.g600.k18",
    ("list", "--bogus"): "--bogus",
    ("--bogus", "run"): "--bogus",
}


@pytest.mark.parametrize("argv", REFUSALS, ids=" ".join)
def test_cli_refusal_is_one_argparse_error(argv, capsys):
    """Every refusal leaves through one parser's ``error``: the
    subcommand's, or the top-level one's for an option before the
    subcommand.  Exit 4, nothing on stdout, that parser's usage and then
    one line ``<prog>: error: ...`` naming the flag or the id."""
    prog = "mcgverify" if argv[0].startswith("-") else f"mcgverify {argv[0]}"
    with pytest.raises(SystemExit) as exc:
        mcgverify.cli.main(list(argv))
    assert exc.value.code == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"usage: {prog} ")
    last = err.splitlines()[-1]
    assert last.startswith(f"{prog}: error: ")
    assert REFUSALS[argv] in last


def test_cli_help_exits_0():
    proc = run_cli("run", "--help")
    assert proc.returncode == 0
    for removed in ("--jobs", "--cache", "--bound-conj", "--bound-order"):
        assert removed not in proc.stdout
    help_text = " ".join(proc.stdout.split())
    for name, (lo, hi) in DEFAULT_RANGES.items():
        assert f"--{name} {name.upper()} " in help_text
        assert f"(default {lo}..{hi})" in help_text


def test_cli_default_catalog_is_build_claims(monkeypatch, capsys):
    """``run`` without options selects exactly ``build_claims()``."""
    selected = []
    monkeypatch.setattr(mcgverify.cli, "run_claims", lambda claims: selected.extend(claims) or [])
    assert mcgverify.cli.main(["run"]) == 0
    ids = [c.id for c in build_claims()]
    assert len(ids) == 1270
    assert [c.id for c in selected] == ids


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
    "cor4.decomp.g600.k18",  # cor4 rows have k 12, 14 and 16 only
])
def test_cli_explain_id_run_cannot_produce_exits_4(claim_id):
    proc = run_cli("explain", claim_id)
    assert proc.returncode == 4
    assert proc.stdout == ""


def test_cli_list_of_a_cor4_k_run_cannot_produce_is_empty():
    proc = run_cli("list", "--filter", "cor4.decomp.*.k18")
    assert proc.returncode == 0, proc.stderr
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
