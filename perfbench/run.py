#!/usr/bin/env python3
"""trialab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload as a closed loop from a single process (one client, at
most one child process at a time): passes until S seconds have gone by,
with set-up before the first and repeated between them, every operation's
output checked by an oracle.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A wrong result
exits 1 and reports no timing; a checkout without trialab, or whose
trialab lies outside its src/, exits 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

from checkout import ROOT, SRC, WORK, CheckoutError, import_trialab
from metrics import END_TO_END, LAYERS, SUITES, WORKLOADS, per_layer
from tracer import Tracer, function_metrics, index_cache

BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _median(values, default=0.0) -> float:
    values = list(values)
    return statistics.median(values) if values else default


# ---------------------------------------------------------------------------
# Run context

def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _src_sha256() -> str:
    """Content hash of src/, which identifies the code where there is no git."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cpu() -> dict:
    info = {"model": None, "l2": None, "l3": None}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["model"] = next((ln.split(":", 1)[1].strip() for ln in fh
                                  if ln.startswith("model name")), None)
        out = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=30).stdout
    except (OSError, subprocess.TimeoutExpired):
        return info
    for line in out.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("L2 cache", "L3 cache"):
            info[key.strip()[:2].lower()] = value.strip()
    return info


def context(args, np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name")
    except (TypeError, KeyError, AttributeError):
        blas = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": _git_commit(), "src_sha256": _src_sha256(),
        "nproc": len(os.sched_getaffinity(0)), "cpu": _cpu(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas, "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
    }


# ---------------------------------------------------------------------------
# Metrics

def _stage(passes, stage) -> list[float]:
    return [d for p in passes for d in p.stages.get(stage, ())]


def headline(plain) -> dict[str, float]:
    """The headline figures of each workload, 0 where the workload has none."""
    def rate(stage, m):
        t = _median(_stage(plain, stage))
        return 2 ** m / 1e6 / t if t else 0.0

    sweep = _stage(plain, "sweep")
    return {
        "transform_m20_mvals_per_s": rate("transform.m20", 20),
        "transform_m22_mvals_per_s": rate("transform.m22", 22),
        "minor_m22_mvals_per_s": rate("minor.m22", 22),
        "catalog_k5_s": _median(_stage(plain, "catalog.k5")),
        "dimap_prims_per_s": len(sweep) / sum(sweep) if sweep else 0.0,
        "represent_k10_s": _median(_stage(plain, "represent.k10")),
    }


def pass_time(plain) -> float:
    """One pass's time as the sum, over its operations, of each operation's
    median across passes.

    Every plain pass makes the same operations in the same order, so this
    is a median pass that a burst of machine slowdown shorter than a pass
    cannot shift.  With one operation per pass (verify-e2e) it is the
    median pass time.
    """
    return sum(statistics.median(slot) for slot in zip(*(p.durations for p in plain)))


def end_to_end_metrics(wl, setup_times, passes) -> dict[str, float]:
    plain = [p for p in passes if p.kind == "plain"]
    who = resource.RUSAGE_SELF if wl.IN_PROCESS else resource.RUSAGE_CHILDREN
    seconds = pass_time(plain)
    return {
        "setup_s": _median(setup_times),
        "pass_s": seconds,
        "ops_per_s": plain[0].n_ops / seconds,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }


def per_layer_metrics(wl, tracer, passes) -> dict[str, float]:
    by_kind = {}
    for i, p in enumerate(passes):
        by_kind.setdefault(p.kind, []).append((i, p))
    traced = by_kind.get("traced", [])
    out, short = function_metrics(tracer, [i for i, _ in traced])
    if short:
        print("call_tail_s is the slowest call (20 or fewer traced calls): " + ", ".join(short))
    counts = passes[-1].counts
    for name in (n for n, _, _ in per_layer() if n.startswith("catalog.maps_out.")):
        out[name] = counts.get(name, 0)
    hits, misses = traced[0][1].counts.get("index_cache", (0, 0)) if traced else (0, 0)
    out["altmap.index_cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    suite_passes = [p for _, p in by_kind.get("suites", [])]
    for suite in SUITES:
        out[f"verify.{suite}_s"] = _median(_stage(suite_passes, f"verify.{suite}"))
    # CLI wall time minus its suites, both measured in the same child.
    out["cli.overhead_s"] = _median(
        p.time - sum(d[0] for s, d in p.stages.items() if s.startswith("verify."))
        for p in suite_passes)
    for layer in LAYERS:
        out[f"{layer}.wait_s"] = 0.0
    base = [p for _, p in by_kind.get(wl.TRACE_BASELINE, [])]
    out["trace.overhead_s"] = (_median(p.time for _, p in traced) - _median(p.time for p in base)
                               if traced and base else 0.0)
    out.update(headline([p for _, p in by_kind.get("plain", [])]))
    return out


# ---------------------------------------------------------------------------

def measure(wl, args, ops, tracer):
    """Set up, then run passes for ``args.seconds``.

    An untraced run sets up SETUP_REPEATS times in all: once before the
    first pass and the rest between passes, spread evenly over the run, so
    that ``setup_s`` samples the machine over the same minute as ``pass_s``.
    """
    from trialab import altmap
    from workloads import Pass

    repeats = 1 if args.trace else wl.SETUP_REPEATS
    setup_times = []

    def set_up_until(n):
        while len(setup_times) < n:
            t = perf_counter()
            wl.setup(ops)
            setup_times.append(perf_counter() - t)

    kinds = wl.pass_kinds(bool(args.trace))
    passes = []
    start = perf_counter()
    set_up_until(1)
    while len(passes) < len(kinds) or perf_counter() - start < args.seconds:
        i = len(passes)
        p = Pass(ops, kinds[i % len(kinds)])
        traced_here = p.kind == "traced" and wl.IN_PROCESS
        if traced_here:
            before = index_cache(altmap)
            tracer.install()
            tracer.begin_pass(i)
        try:
            wl.run_pass(p, i, tracer)
        finally:
            if traced_here:
                tracer.end_pass()
                tracer.uninstall()
                after = index_cache(altmap)
                p.counts["index_cache"] = (after[0] - before[0], after[1] - before[1])
        passes.append(p)
        done = min(1.0, (perf_counter() - start) / args.seconds) if args.seconds > 0 else 1.0
        set_up_until(1 + int((repeats - 1) * done))
    set_up_until(repeats)
    return setup_times, passes


def fail_frac(ops) -> str:
    return (f"fail_frac {ops.failed / max(ops.attempted, 1):.6g} "
            f"({ops.failed} of {ops.attempted} operations)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_trialab()
    except CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import numpy as np

    from workloads import WORKLOADS as CLASSES, Ops, WrongResult

    ctx = context(args, np)
    print("context " + json.dumps(ctx), flush=True)
    wl = CLASSES[args.workload](args.seed)
    ops = Ops()
    tracer = Tracer()
    try:
        setup_times, passes = measure(wl, args, ops, tracer)
    except WrongResult as exc:
        print(f"WRONG {exc}", flush=True)
        print(fail_frac(ops))
        print(json.dumps({"correct": False, "attempted": ops.attempted,
                          "failed": ops.failed, "metrics": {}}))
        return 1
    except CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(f"setup_s samples {[round(t, 6) for t in setup_times]}")
    kinds = [p.kind for p in passes]
    print(f"passes {len(passes)}: " + ", ".join(f"{k} x{kinds.count(k)}" for k in dict.fromkeys(kinds)))
    print(fail_frac(ops))
    if args.trace:
        metrics = per_layer_metrics(wl, tracer, passes)
        units = {name: unit for name, unit, _ in per_layer()}
        WORK.mkdir(exist_ok=True)
        path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"context": ctx, "names": tracer.names, "spans": tracer.spans}, fh)
        print(f"spans written to {path.relative_to(ROOT)}")
    else:
        metrics = end_to_end_metrics(wl, setup_times, passes)
        units = {name: unit for name, unit, _, _ in END_TO_END}
        for name, value in headline([p for p in passes if p.kind == "plain"]).items():
            if value:
                print(f"{name} {value:.6g}")
    for name, unit in units.items():
        print(f"metric {name} {metrics[name]:.6g} {unit}")
    print(json.dumps({"correct": True, "attempted": ops.attempted, "failed": ops.failed,
                      "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
