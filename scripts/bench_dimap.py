"""Before/after timings of the alternating-dimap primitives.

Per checkout it measures
  * the per-call p50 of ``reduce_edge``, ``classify_edge``,
    ``canonical_form`` and ``trial`` on the k=5 catalog and on 100 seeded
    random maps at each of k = 6, 7, 8, calling them in the order the
    ``dimap-sweep`` benchmark does (``validate`` first on every map);
  * the wall time of one in-process ``dimap-sweep`` pass, timed calls plus
    the benchmark's oracle checks, beside the timed calls alone.

Compare two checkouts, alternating child runs so that both sample the
machine over the same minutes::

    python scripts/bench_dimap.py --before ../parent --after . --rounds 5 \\
        --e2e-seconds 30 --e2e-pairs 5 -o BENCH.json

``--e2e-seconds`` adds alternated ``perfbench/run.py`` runs of every
workload, one pair per seed from ``--e2e-first-seed`` on, and counts the
pairs in which the after side is better.  ``--measure ROOT`` prints one
checkout's figures as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

FUNCTIONS = ("reduce_edge", "classify_edge", "canonical_form", "trial")
WORKLOADS = ("bf-kernels", "dimap-sweep", "verify-e2e")
END_TO_END = ("setup_s", "pass_s", "ops_per_s", "peak_rss_mb")
HIGHER_IS_BETTER = ("ops_per_s",)


def measure(root: Path, passes: int) -> dict:
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import numpy as np
    from trialab import altmap as A
    from trialab import catalog as C
    from trialab import reductions as R

    groups = {"k5-catalog": list(C.enumerate_dimaps(5, cap=5).maps)}
    rng = np.random.default_rng(20)
    for k in (6, 7, 8):
        groups[f"random-k{k}"] = [C.random_dimap(k, rng) for _ in range(100)]

    def timed(out, name, fn, *args):
        start = perf_counter()
        fn(*args)
        out[name].append(perf_counter() - start)

    p50 = {}
    for group, maps in groups.items():
        # Fresh copies, so no map carries state from enumeration.
        maps = [A.AlternatingDimap(g.edges, g.rotations) for g in maps]
        calls = {name: [] for name in FUNCTIONS}
        for g in maps:
            A.validate(g)
            timed(calls, "trial", A.trial, g)
            timed(calls, "canonical_form", A.canonical_form, g)
            for label in g.labels():
                for kind in R.ALL_KINDS:
                    timed(calls, "reduce_edge", R.reduce_edge, g, label, kind)
                timed(calls, "classify_edge", A.classify_edge, g, label)
        p50[group] = {name: statistics.median(ds) * 1e6 for name, ds in calls.items()}

    import workloads as W
    wl = W.DimapSweep(1)
    ops = W.Ops()
    wl.setup(ops)
    walls, timed_sums = [], []
    for i in range(passes):
        p = W.Pass(ops, "plain")
        start = perf_counter()
        wl.run_pass(p, i, None)
        walls.append(perf_counter() - start)
        timed_sums.append(p.time)
    return {"call_p50_us": p50,
            "sweep_pass_wall_s": statistics.median(walls),
            "sweep_pass_timed_s": statistics.median(timed_sums)}


def _child(root: Path, passes: int) -> dict:
    out = subprocess.run([sys.executable, __file__, "--measure", str(root), "--passes", str(passes)],
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def _e2e(root: Path, workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds)],
                         cwd=root, check=True, capture_output=True, text=True).stdout
    metrics = json.loads(out.splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name in END_TO_END}


def _summary(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "runs": values}
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "runs": values}


def _after_better(before: float, after: float, metric: str) -> bool:
    return after > before if metric in HIGHER_IS_BETTER else after < before


def compare(before: Path, after: Path, rounds: int, passes: int,
            e2e_seconds: float, e2e_pairs: int, e2e_first_seed: int) -> dict:
    runs = {"before": [], "after": []}
    for r in range(rounds):
        order = ("before", "after") if r % 2 == 0 else ("after", "before")
        for side in order:
            runs[side].append(_child(before if side == "before" else after, passes))
    out = {"primitives": {}, "sweep_pass": {}}
    for side, results in runs.items():
        out["primitives"][side] = {
            group: {name: statistics.median(r["call_p50_us"][group][name] for r in results)
                    for name in FUNCTIONS}
            for group in results[0]["call_p50_us"]}
        out["sweep_pass"][side] = {
            key: statistics.median(r[key] for r in results)
            for key in ("sweep_pass_wall_s", "sweep_pass_timed_s")}
    if e2e_seconds > 0:
        out["end_to_end"] = {}
        for workload in WORKLOADS:
            pairs = {"before": [], "after": []}
            for i, seed in enumerate(range(e2e_first_seed, e2e_first_seed + e2e_pairs)):
                order = ("before", "after") if i % 2 == 0 else ("after", "before")
                for side in order:
                    pairs[side].append(_e2e(before if side == "before" else after,
                                            workload, seed, e2e_seconds))
            out["end_to_end"][workload] = {
                m: {"before": _summary([run[m] for run in pairs["before"]]),
                    "after": _summary([run[m] for run in pairs["after"]]),
                    "after_better_pairs": sum(_after_better(b[m], a[m], m)
                                              for b, a in zip(pairs["before"], pairs["after"]))}
                for m in END_TO_END}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--measure", type=Path, help="print one checkout's figures")
    parser.add_argument("--before", type=Path)
    parser.add_argument("--after", type=Path)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--passes", type=int, default=3)
    parser.add_argument("--e2e-seconds", type=float, default=0.0)
    parser.add_argument("--e2e-pairs", type=int, default=5)
    parser.add_argument("--e2e-first-seed", type=int, default=1)
    parser.add_argument("-o", "--output", type=Path)
    args = parser.parse_args(argv)
    if args.measure:
        print(json.dumps(measure(args.measure.resolve(), args.passes)))
        return 0
    if not (args.before and args.after):
        parser.error("give --measure ROOT, or --before ROOT and --after ROOT")
    result = compare(args.before.resolve(), args.after.resolve(), args.rounds, args.passes,
                     args.e2e_seconds, args.e2e_pairs, args.e2e_first_seed)
    text = json.dumps(result, indent=2) + "\n"
    if args.output:
        args.output.write_text(text)
    else:
        print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
