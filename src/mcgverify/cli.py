"""Command-line front end.

Subcommands:

* ``mcgverify run``     -- execute the built-in claim catalog (optionally
  filtered) and print a text or JSON report.
* ``mcgverify explain`` -- describe one claim: statement, source label,
  expected value, provenance.
* ``mcgverify list``    -- list the claims whose ids match a glob.

``explain`` and ``list`` build the catalog from the parameters their id or
glob names (``.g12`` is genus 12, ``.k20.p1.q0`` a rotation model; see
``claims.resolve_claims``), so they find any claim ``run`` can produce.

Exit codes: 0 all selected claims pass (or none selected), 2 some claim
failed, 3 some claim inconclusive and none failed, 4 unknown claim id or
bad arguments.
"""

from __future__ import annotations

import argparse
import sys

from .claims import (
    Bounds,
    build_claims,
    exit_code,
    filter_claims,
    find_claim,
    report_json,
    resolve_claims,
    run_claims,
)
from .errors import UnknownClaim
from .homology import EgRotationSpec
from .lantern import DEFAULT_BUDGET
from .words import MAX_GENUS

USAGE_EXIT = 4


def _parse_range(text: str, name: str):
    """Parse 'A..B' or a single integer into an inclusive range."""
    parts = text.split("..")
    try:
        if len(parts) == 1:
            value = int(parts[0])
            return value, value
        if len(parts) == 2:
            lo, hi = int(parts[0]), int(parts[1])
            if lo > hi:
                raise ValueError
            return lo, hi
    except ValueError:
        pass
    raise SystemExit(f"mcgverify: bad {name} range {text!r} (expected A..B)") from None


def _cmd_run(args) -> int:
    genus_range = _parse_range(args.genus, "genus")
    if genus_range[0] < 3:
        raise SystemExit("mcgverify: genus must be at least 3")
    if genus_range[1] > MAX_GENUS:
        raise SystemExit(
            f"mcgverify: genus must be at most {MAX_GENUS}, the cap of the packed "
            f"word kernel (one signed byte per letter), got {genus_range[1]}"
        )
    k_range = _parse_range(args.k, "k")
    p_range = _parse_range(args.p, "p")
    q_range = _parse_range(args.q, "q")
    try:
        EgRotationSpec(k_range[0], p_range[0], q_range[0])  # the least model the ranges name
    except ValueError as exc:  # it names the parameter: "k must be at least 2, got 1"
        raise SystemExit(f"mcgverify: --{exc}") from None
    if args.budget < 0:
        raise SystemExit(f"mcgverify: --budget must be at least 0, got {args.budget}")
    bounds = Bounds(budget=args.budget)

    claims = build_claims(
        genus_range=genus_range,
        ks=range(k_range[0], k_range[1] + 1),
        ps=range(p_range[0], p_range[1] + 1),
        qs=range(q_range[0], q_range[1] + 1),
    )
    selected = filter_claims(claims, args.filter)
    reports = run_claims(selected, bounds=bounds)

    if args.format == "json":
        print(report_json(reports))
    else:
        width = max((len(r.id) for r in reports), default=10)
        for r in reports:
            line = f"{r.id:<{width}}  {r.status.upper():<12}"
            line += f" expected={r.expected!r} observed={r.observed!r} ({r.millis:.0f} ms)"
            print(line)
        counts = {"pass": 0, "fail": 0, "inconclusive": 0}
        for r in reports:
            counts[r.status] += 1
        print(
            f"\n{len(reports)} claims: {counts['pass']} pass, "
            f"{counts['fail']} fail, {counts['inconclusive']} inconclusive"
        )
    return exit_code(reports)


def _cmd_explain(args) -> int:
    try:
        claim = find_claim(resolve_claims(args.id), args.id)
    except UnknownClaim:
        print(f"mcgverify: unknown claim id {args.id!r}", file=sys.stderr)
        return USAGE_EXIT
    print(f"id:          {claim.id}")
    print(f"kind:        {claim.kind}")
    print(f"statement:   {claim.description}")
    print(f"source:      {claim.source}")
    print(f"expected:    {claim.expected!r}")
    print(f"provenance:  {claim.provenance}")
    return 0


def _cmd_list(args) -> int:
    for claim in resolve_claims(args.filter):
        print(f"{claim.id}  [{claim.provenance}]  {claim.description}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Argument errors exit with USAGE_EXIT, not argparse's 2, which
    means that some claim failed."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mcgverify",
        description="Batch verification of mapping-class-group torsion computations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the claim catalog")
    run.add_argument("--filter", default="", help="claim-id glob, e.g. 'thm1.*'")
    run.add_argument("--genus", default="3..9", help="genus range A..B (default 3..9)")
    run.add_argument("--k", default="2..13", help="rotation order range for the model grid")
    run.add_argument("--p", default="1..3", help="nonorientable summand count range")
    run.add_argument("--q", default="0..2", help="orientable summand count range")
    run.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                     help="rewriting search budget (node expansions)")
    run.add_argument("--format", choices=("text", "json"), default="text")
    run.set_defaults(func=_cmd_run)

    explain = sub.add_parser("explain", help="describe one claim")
    explain.add_argument("id")
    explain.set_defaults(func=_cmd_explain)

    lst = sub.add_parser("list", help="list claim ids")
    lst.add_argument("--filter", default="", help="claim-id glob")
    lst.set_defaults(func=_cmd_list)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return USAGE_EXIT
        raise
    return code


if __name__ == "__main__":
    sys.exit(main())
