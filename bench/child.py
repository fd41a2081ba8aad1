"""One sample of a workload, in a fresh interpreter.

    python3 bench/child.py MODE GENERA [CLI-ARG ...]

MODE is ``setup`` (set up only), ``verify`` (set up, then call
``mcgverify.cli.main(CLI-ARGs)``) or ``trace`` (the same with the tracer
installed before set-up).  GENERA is a comma-separated list of the genera
whose generator catalogs set-up builds (may be empty).  ``mcgverify`` must
be importable, from the checkout's ``src``.  Prints one JSON object.

Every sample needs a new interpreter: ``_CATALOGS`` and ``_PRESENTATIONS``,
and the ``_eval_cache`` and ``_canonical_cache`` tables of the objects they
hold, are module-level memo tables, so a second run in the same process
would measure warm caches that no command-line user has.
"""

import sys
import time


def main(argv):
    mode, genera_text, *cli_argv = argv
    genera = [int(g) for g in genera_text.split(",") if g]

    # set-up: what every `mcgverify` invocation pays before its first claim
    start = time.perf_counter()
    import mcgverify.cli

    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    for genus in genera:
        mcgverify.get_catalog(genus)
    result = {"mode": mode, "setup_s": time.perf_counter() - start,
              "package": mcgverify.__file__}

    if mode in ("verify", "trace"):
        import contextlib
        import io

        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = mcgverify.cli.main(cli_argv)
        result["verify_s"] = time.perf_counter() - start
        result["exit_code"] = code
        result["report"] = out.getvalue()

    import json
    import resource

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["trace"] = tracer.dump()
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main(sys.argv[1:])
