"""Child driver for the verify-e2e workload's traced run.

    python3 perfbench/verify_child.py --trace 0|1 verify [SUITE...] --seed N

Runs the ``trialab`` CLI in this interpreter with the given arguments, but
with the CLI's ``run_suites`` replaced by one that calls
``verify.run_suites([suite], seed)`` once per suite and times each.  The
CLI's own output comes first; the last line is one JSON object with the
per-suite times and, with ``--trace 1``, the spans of every call into the
traced trialab functions plus the ``altmap._index`` cache counters.
"""

from __future__ import annotations

import argparse
import json
import sys
from time import perf_counter

from checkout import CheckoutError, import_trialab
from tracer import Tracer, index_cache


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    try:
        import_trialab()
    except CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from trialab import altmap, cli, verify

    suite_s = {}

    def run_suites_timed(names=None, seed=0):
        results = []
        for suite in names or verify.SUITE_NAMES:
            start = perf_counter()
            results += verify.run_suites([suite], seed=seed)
            suite_s[suite] = perf_counter() - start
        return results

    cli.run_suites = run_suites_timed
    tracer = Tracer()
    if args.trace:
        tracer.install()
    code = cli.main(args.cli_args)
    tracer.uninstall()
    print(json.dumps({"suites": suite_s, "names": tracer.names, "spans": tracer.spans,
                      "index_cache": index_cache(altmap)}))
    return code


if __name__ == "__main__":
    sys.exit(main())
