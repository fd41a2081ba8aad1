"""Command-line front end.

Subcommands:

* ``mcgverify run``     -- execute the built-in claim catalog (optionally
  filtered) and print a text or JSON report.
* ``mcgverify explain`` -- describe one claim: statement, source label,
  expected value, provenance.
* ``mcgverify list``    -- list claim ids.

Exit codes: 0 all selected claims pass (or none selected), 2 some claim
failed, 3 some claim inconclusive and none failed, 4 unknown claim id or
bad arguments.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .claims import (
    Bounds,
    build_claims,
    exit_code,
    filter_claims,
    find_claim,
    report_json,
    run_claims,
)
from .errors import UnknownClaim
from .mcg import get_catalog

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


def _load_cache(cache_dir: Path):
    for path in cache_dir.glob("catalog-g*.json"):
        try:
            genus = int(path.stem.split("-g")[1])
            data = json.loads(path.read_text())
        except (ValueError, json.JSONDecodeError):
            continue
        catalog = get_catalog(genus)
        from .mcg import Automorphism

        for entry in data:
            word = tuple(tuple(sym) for sym in entry["word"])
            images = [tuple(im) for im in entry["images"]]
            catalog._eval_cache[word] = Automorphism(genus, images)


def _save_cache(cache_dir: Path):
    from .mcg import _CATALOGS

    cache_dir.mkdir(parents=True, exist_ok=True)
    for genus, catalog in _CATALOGS.items():
        if not catalog._eval_cache:
            continue
        data = [
            {"word": [list(sym) for sym in word], "images": [list(im) for im in auto.images]}
            for word, auto in catalog._eval_cache.items()
        ]
        (cache_dir / f"catalog-g{genus}.json").write_text(json.dumps(data))


def _cmd_run(args) -> int:
    genus_range = _parse_range(args.genus, "genus")
    if genus_range[0] < 3:
        raise SystemExit("mcgverify: genus must be at least 3")
    k_range = _parse_range(args.k, "k")
    p_range = _parse_range(args.p, "p")
    q_range = _parse_range(args.q, "q")
    for flag, value, least in (("--bound-conj", args.bound_conj, 0),
                               ("--bound-order", args.bound_order, 0),
                               ("--budget", args.budget, 0),
                               ("--jobs", args.jobs, 1)):
        if value < least:
            raise SystemExit(f"mcgverify: {flag} must be at least {least}, got {value}")
    bounds = Bounds(conj=args.bound_conj, order=args.bound_order, budget=args.budget)

    if args.cache:
        _load_cache(Path(args.cache))

    claims = build_claims(
        genus_range=genus_range,
        ks=range(k_range[0], k_range[1] + 1),
        ps=range(p_range[0], p_range[1] + 1),
        qs=range(q_range[0], q_range[1] + 1),
    )
    selected = filter_claims(claims, args.filter)
    reports = run_claims(selected, bounds=bounds, jobs=args.jobs)

    if args.cache:
        _save_cache(Path(args.cache))

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
    claims = build_claims()
    try:
        claim = find_claim(claims, args.id)
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
    claims = build_claims()
    selected = filter_claims(claims, args.filter)
    for claim in selected:
        print(f"{claim.id}  [{claim.provenance}]  {claim.description}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    run.add_argument("--jobs", type=int, default=1, help="parallel workers")
    run.add_argument("--bound-conj", type=int, default=16, help="conjugator power bound")
    run.add_argument("--bound-order", type=int, default=0,
                     help="order search bound (default 4*genus)")
    run.add_argument("--budget", type=int, default=100_000,
                     help="rewriting search budget (node expansions)")
    run.add_argument("--format", choices=("text", "json"), default="text")
    run.add_argument("--cache", default="", help="directory for persistent element cache")
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
