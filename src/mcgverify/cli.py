"""Command-line front end.

Subcommands:

* ``mcgverify run``     -- execute the built-in claim catalog (optionally
  filtered) and print a text or JSON report.
* ``mcgverify explain`` -- describe one claim: statement, source label,
  expected value, provenance.
* ``mcgverify list``    -- list the claims whose ids match a glob.

``run`` passes its ranges and budget to ``claims.build_claims``, which
alone decides which catalogs exist; what it refuses is a bad argument.
``explain`` and ``list`` build the catalog from the parameters their id or
glob names (``.g12`` is genus 12, ``.k20.p1.q0`` a rotation model; see
``claims.resolve_claims``), so they find any claim ``run`` can produce, and
no other.

Exit codes: 0 all selected claims pass (or none selected), 2 some claim
failed, 3 some claim inconclusive and none failed, 4 unknown claim id or
bad arguments.  Every refusal is one ``error`` call of the subcommand's
parser: a usage line, then ``mcgverify <command>: error: <message>``.
"""

from __future__ import annotations

import argparse
import sys

from .claims import (
    DEFAULT_RANGES,
    build_claims,
    exit_code,
    filter_claims,
    report_json,
    resolve_claims,
    run_claims,
)
from .lantern import DEFAULT_BUDGET

USAGE_EXIT = 4


def _range(text: str):
    """Parse 'A..B' or a single integer into an inclusive range."""
    parts = text.split("..")
    try:
        if len(parts) == 1:
            value = int(parts[0])
            return value, value
        if len(parts) == 2:
            return int(parts[0]), int(parts[1])
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"bad range {text!r} (expected A..B)")


def _cmd_run(args) -> int:
    ranges = {name: getattr(args, name) for name in DEFAULT_RANGES}
    try:
        claims = build_claims(**ranges, budget=args.budget)
    except ValueError as exc:  # it names the parameter: "k must be at least 2, got 1"
        args.error(f"--{exc}")
    reports = run_claims(filter_claims(claims, args.filter))

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
    claim = next((c for c in resolve_claims(args.id) if c.id == args.id), None)
    if claim is None:
        args.error(f"unknown claim id {args.id!r}")
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
    for name, text in (("genus", "genus range"), ("k", "rotation order range"),
                       ("p", "nonorientable summand count range"),
                       ("q", "orientable summand count range")):
        lo, hi = DEFAULT_RANGES[name]
        run.add_argument(f"--{name}", type=_range, default=f"{lo}..{hi}",
                         help=f"{text} A..B (default %(default)s)")
    run.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                     help="rewriting search budget (node expansions)")
    run.add_argument("--format", choices=("text", "json"), default="text")
    run.set_defaults(func=_cmd_run, error=run.error)

    explain = sub.add_parser("explain", help="describe one claim")
    explain.add_argument("id")
    explain.set_defaults(func=_cmd_explain, error=explain.error)

    lst = sub.add_parser("list", help="list claim ids")
    lst.add_argument("--filter", default="", help="claim-id glob")
    lst.set_defaults(func=_cmd_list, error=lst.error)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra:  # refused by "mcgverify" itself if it precedes the subcommand
        before = argv.index(extra[0]) < argv.index(args.command)
        (parser.error if before else args.error)(f"unrecognized arguments: {' '.join(extra)}")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
