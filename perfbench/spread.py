#!/usr/bin/env python3
"""Run-to-run spread and reproducibility of the end-to-end metrics.

    python3 perfbench/spread.py [--out FILE]

Runs two sets of ten untraced runs (seeds 1..10, metrics.RUN_SECONDS each)
on every workload, one set after the other.  For each set it prints per
metric the median, the quartiles and the interquartile distance as a share
of the median beside the metric's bound ("WIDE" above a third of it); then
the change of each median from the first set to the second ("DRIFT" when
it is worse by more than the bound).  ``--out`` also makes one traced run
(seed 1) per workload and writes every value, summary and traced metric as
JSON, which is how perfbench/baseline.json is made.  Exits 1 if a spread
exceeds its bound or a median drifts by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from checkout import ROOT
from metrics import END_TO_END, RUN_SECONDS, WORKLOADS

RUN = str(Path(__file__).resolve().parent / "run.py")
SEEDS = range(1, 11)
SETS = ("first_set", "second_set")


def run_once(workload: str, seed: int, trace: int) -> dict:
    start = perf_counter()
    proc = subprocess.run([sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(RUN_SECONDS), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    result = json.loads(proc.stdout.splitlines()[-1]) if proc.stdout else {}
    if proc.returncode != 0 or not result.get("correct"):
        raise SystemExit(f"{workload} seed {seed} failed (exit {proc.returncode}):\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    values = " ".join(f"{k} {v['value']:.6g}" for k, v in result["metrics"].items())
    print(f"  {workload} seed {seed} trace {trace}: {perf_counter() - start:.1f} s wall; {values}",
          flush=True)
    return result


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def run_set(workload: str) -> tuple[dict, bool]:
    runs = [run_once(workload, seed, 0) for seed in SEEDS]
    out = {"values": {}, "summary": {}}
    ok = True
    for name, unit, _, bound in END_TO_END:
        values = [r["metrics"][name]["value"] for r in runs]
        s = summarize(values)
        out["values"][name] = values
        out["summary"][name] = s
        ok &= s["spread"] <= bound
        flag = "ok" if s["spread"] < bound / 3 else "WIDE"
        print(f"{workload:12s} {name:12s} median {s['median']:.6g} {unit} "
              f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f} "
              f"bound {bound} {flag}", flush=True)
    return out, ok


def drift(workload: str, sets: dict) -> bool:
    """Print each median's change from the first set to the second; False if one is worse
    by more than its bound."""
    ok = True
    for name, _, better, bound in END_TO_END:
        first, second = (sets[s][workload]["summary"][name]["median"] for s in SETS)
        change = second / first - 1
        worse = change if better == "lower" else -change
        ok &= worse <= bound
        print(f"{workload:12s} {name:12s} median {first:.6g} -> {second:.6g} "
              f"({change:+.2%}) bound {bound} {'ok' if worse <= bound else 'DRIFT'}", flush=True)
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    sets = {s: {} for s in SETS}
    ok = True
    for name in SETS:
        print(f"{name}:", flush=True)
        for workload in WORKLOADS:
            sets[name][workload], set_ok = run_set(workload)
            ok &= set_ok
    for workload in WORKLOADS:
        ok &= drift(workload, sets)
    if args.out:
        out = {**sets, "traced_seed1": {w: {k: v["value"] for k, v in
                                            run_once(w, 1, 1)["metrics"].items()}
                                        for w in WORKLOADS}}
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
