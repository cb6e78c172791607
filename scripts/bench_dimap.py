"""Before/after timings of the alternating-dimap primitives, the
binary-function kernels and the verify checks.

Per checkout it measures
  * the per-call p50 of ``reduce_edge``, ``classify_edge``,
    ``canonical_form`` and ``trial`` on the k=5 catalog and on 100 seeded
    random maps at each of k = 6, 7, 8, calling them in the order the
    ``dimap-sweep`` benchmark does (``validate`` first on every map);
  * the wall time of one in-process ``dimap-sweep`` pass, timed calls plus
    the benchmark's oracle checks, beside the timed calls alone; the checks
    read every output's darts, so darts a change stops building inside the
    timed calls but the checks then render still show in the wall time;
  * the best of three ``enumerate_dimaps(k, cap=k)`` calls at k = 4, 5, 6, 7;
  * the best of three ``check_representation(canonical_class(k))`` calls at
    k = 5, 8, 10, each on a freshly built class, so that no member carries
    state from an earlier call;
  * the best of three ``check_representation`` calls on two kinds of
    candidate, each freshly built: every catalog map of at most 4 edges
    imaged by the tensor powers of the ultraloop image (60 members, most of
    whose edges have three distinct reductions), and ``canonical_class(k)``
    at k = 5, 6, 7 with one entry of its top image corrupted, which fails
    and so walks every isomorphism of each reduction of the top member;
  * the per-call p50 of ``transform`` (at w), of ``proportional`` on a
    proportional pair (true verdict: the whole residual) and on a
    non-proportional one (false verdict, which may stop early), of
    ``take_minor`` (at w) and of ``normalize``, on seeded random binary
    functions at m = 18, 20, 22, where each splits across the CPUs (the
    minor kernel from m = 19);
  * the time of one ``write_vector`` and one ``read_vector`` call at
    m = 16 and 20, each in a fresh child process that also reports its peak
    RSS; ``--before``/``--after`` adds m = 22 (a 200 MB file), alternating
    the two checkouts;
  * the per-call time of ``take_minor``, ``make`` and the one-vector
    ``transform`` (at w) at m = 6, the size of the verify suites' many small
    calls and of the representation checks': the best of five loops of 2000;
  * the per-row time of one stacked ``raw_transform`` call at m = 4 and 8,
    with one random mu per row, on stacks of 1, 20 and 200 rows: the best of
    five loops of 2000 rows;
  * the best of five in-process times of each of the 17 ``verify`` checks,
    run suite by suite from seed 0 as ``verify.run_suites`` runs them, with
    verify's own caches emptied before each run; and the two checks that
    dominated, at several sizes each: Hadamard duality over the multigraphs of
    at most 4 and at most 5 edges, and commutation over every pair at every
    (mu1, mu2) from {1, -1, w, w2} on 20 seeded functions of each of
    m = 4, 6, 8, 10, as one stacked call per m;
  * the best of five ``find_noncommuting_pair`` scans over every map of the
    k = 4 and k = 5 catalogs, on fresh copies of the maps each time;
  * a host calibration that runs no trialab code: the best of five runs of
    a fixed pure-Python loop and of CALIBRATION_PRODUCTS seeded complex
    products of shape (16, 16) @ (16, 128), each below the size at which
    OpenBLAS splits a product across its threads (see ``transform.TILE``),
    so that the figure does not depend on a second thread being scheduled.
    Host speed moves between sessions with no code change, so figures in
    different ``BENCH_*.json`` files compare only as ratios to this.  Files
    written before it was added have none, and are not rescaled; files
    before ``BENCH_30.json`` hold one threaded 256 x 256 product instead.

Compare two checkouts, alternating child runs so that both sample the
machine over the same minutes::

    python scripts/bench_dimap.py --before ../parent --after . --rounds 5 \\
        --e2e-seconds 30 --e2e-pairs 5 -o BENCH.json

``--e2e-seconds`` adds alternated ``perfbench/run.py`` runs of every
workload, one pair per seed from ``--e2e-first-seed`` on, and counts the
pairs in which the after side is better.  Each other section holds each
side's median over the rounds, ``calibration_s`` among them.
``--measure ROOT`` prints one checkout's figures as JSON.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

FUNCTIONS = ("reduce_edge", "classify_edge", "canonical_form", "trial")
CATALOG_KS = (4, 5, 6, 7)
REPRESENT_KS = (5, 8, 10)
CATALOG_CANDIDATE_EDGES = 4
CORRUPTED_KS = (5, 6, 7)
KERNEL_MS = (18, 20, 22)
IO_MS, IO_COMPARE_MS = (16, 20), (22,)
KERNEL_REPEATS = 7
SMALL_M, SMALL_CALLS = 6, 2000
STACK_MS, STACK_ROWS = (4, 8), (1, 20, 200)
VERIFY_REPEATS = 5
DUALITY_MAX_EDGES = (4, 5)
COMMUTATION_MS, COMMUTATION_FUNCTIONS = (4, 6, 8, 10), 20
NONCOMMUTATION_KS = (4, 5)
CALIBRATION_LOOP, CALIBRATION_PRODUCTS = 10**6, 4000
WORKLOADS = ("bf-kernels", "dimap-sweep", "verify-e2e")
END_TO_END = ("setup_s", "pass_s", "ops_per_s", "peak_rss_mb")
HIGHER_IS_BETTER = ("ops_per_s",)


def measure(root: Path, passes: int) -> dict:
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    calibration_s = measure_calibration()
    import numpy as np
    from trialab import altmap as A
    from trialab import catalog as C
    from trialab import reductions as R
    from trialab import represent as P

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

    catalog_s = {}
    for k in CATALOG_KS:
        runs = []
        for _ in range(3):
            start = perf_counter()
            C.enumerate_dimaps(k, cap=k)
            runs.append(perf_counter() - start)
        catalog_s[f"k{k}"] = min(runs)

    represent_s = {}
    for k in REPRESENT_KS:
        runs = []
        for _ in range(3):
            candidate = P.canonical_class(k)
            start = perf_counter()
            P.check_representation(candidate)
            runs.append(perf_counter() - start)
        represent_s[f"k{k}"] = min(runs)
    return {"calibration_s": calibration_s,
            "call_p50_us": p50,
            "sweep_pass_wall_s": statistics.median(walls),
            "sweep_pass_timed_s": statistics.median(timed_sums),
            "catalog_s": catalog_s,
            "represent_s": represent_s,
            "candidates_s": measure_candidates(),
            "kernels_s": measure_kernels(),
            "io": measure_io(root, IO_MS),
            "verify_s": measure_verify()}


def measure_candidates() -> dict:
    """The best of three check_representation calls on the catalog
    candidate and on the corrupted stack classes, each built afresh."""
    from trialab import altmap as A
    from trialab import binfun as B
    from trialab import catalog as C
    from trialab import represent as P

    catalog = [g for k in range(CATALOG_CANDIDATE_EDGES + 1)
               for g in C.enumerate_dimaps(k, cap=k).maps]

    def catalog_candidate():
        members = tuple(A.AlternatingDimap(g.edges, g.rotations) for g in catalog)
        return P.RepresentationCandidate(
            members, tuple(B.tensor_power(P.ultraloop_image(), g.n_edges()) for g in members),
            tuple({lab: pos for pos, lab in enumerate(g.labels())} for g in members), 1.0 + 0j)

    def corrupted(k):
        candidate = P.canonical_class(k)
        values = candidate.images[k].values.copy()
        values[-1] += 0.1
        return dataclasses.replace(candidate,
                                   images=candidate.images[:k] + (B.make(k, values),))

    def best(build, passes: bool):
        runs = []
        for _ in range(3):
            candidate = build()
            start = perf_counter()
            report = P.check_representation(candidate)
            runs.append(perf_counter() - start)
            if report.passed != passes:
                raise AssertionError(f"check_representation passed={report.passed}")
        return min(runs)

    out = {f"catalog_le{CATALOG_CANDIDATE_EDGES}": best(catalog_candidate, True)}
    for k in CORRUPTED_KS:
        out[f"corrupted_k{k}"] = best(lambda: corrupted(k), False)
    return out


def measure_calibration() -> dict:
    """The best of five runs of a fixed pure-Python loop and of
    CALIBRATION_PRODUCTS small seeded complex products: the host's speed."""
    import numpy as np

    def best(fn):
        runs = []
        for _ in range(5):
            start = perf_counter()
            fn()
            runs.append(perf_counter() - start)
        return min(runs)

    def loop():
        total = 0
        for i in range(CALIBRATION_LOOP):
            total += i * i
        return total

    rng = np.random.default_rng(16)
    a = rng.standard_normal((16, 32)).view(complex)
    b = rng.standard_normal((16, 256)).view(complex)

    def products():
        for _ in range(CALIBRATION_PRODUCTS):
            a @ b

    a @ b  # untimed: the first product pays numpy's one-time set-up
    return {"python_loop": best(loop), f"matmul16x128_x{CALIBRATION_PRODUCTS}": best(products)}


def measure_kernels() -> dict:
    import numpy as np
    from trialab import binfun as B
    from trialab import minor as M
    from trialab import transform as T

    def p50(fn, *args):
        runs = []
        for _ in range(KERNEL_REPEATS):
            start = perf_counter()
            fn(*args)  # the result is dropped before the next call
            runs.append(perf_counter() - start)
        return statistics.median(runs)

    def random_values(rng, m):
        v = rng.standard_normal(2 ** (m + 1)).view(complex)
        v[0] = 1.0
        return v

    rng = np.random.default_rng(8)
    out = {}
    for m in KERNEL_MS:
        f = B.make(m, random_values(rng, m))
        out[f"transform.m{m}"] = p50(T.transform, f, T.OMEGA)
        g = T.transform(f, T.OMEGA)
        scaled = complex(*rng.standard_normal(2)) * g.values
        out[f"proportional_true.m{m}"] = p50(B.proportional, g, scaled)
        out[f"proportional_false.m{m}"] = p50(B.proportional, g, f)
        del g, scaled
        out[f"take_minor.m{m}"] = p50(M.take_minor, f, M.MinorSpec(m // 2, T.OMEGA))
        # Each call divides by the empty-set entry the last call left, 1 from
        # the second call on, which costs as much as any other divisor.
        v = complex(*rng.standard_normal(2)) * f.values
        out[f"normalize.m{m}"] = p50(B.normalize, v)
        del f, v

    def per_call(fn, *args, calls=SMALL_CALLS):
        loops = []
        for _ in range(5):
            start = perf_counter()
            for _ in range(calls):
                fn(*args)
            loops.append((perf_counter() - start) / calls)
        return min(loops)

    v = random_values(rng, SMALL_M)
    f = B.make(SMALL_M, v)
    spec = M.MinorSpec(SMALL_M // 2, T.OMEGA)
    out[f"take_minor.m{SMALL_M}"] = per_call(M.take_minor, f, spec)
    out[f"make.m{SMALL_M}"] = per_call(B.make, SMALL_M, v)
    out[f"transform.m{SMALL_M}"] = per_call(T.transform, f, T.OMEGA)

    for m in STACK_MS:
        for rows in STACK_ROWS:
            values = np.stack([random_values(rng, m) for _ in range(rows)])
            # Fresh parameters for every call, as verify draws them, so that
            # no cached block is reused.
            calls = SMALL_CALLS // rows
            draws = iter(rng.standard_normal((5 * calls, rows, 2)).view(complex)[..., 0])

            def call():
                T.raw_transform(values, next(draws))
            out[f"stacked_transform.m{m}.rows{rows}"] = per_call(call, calls=calls) / rows
    return out


# Times one write_vector or read_vector call in a fresh process, and
# reports that process's peak RSS: argv is src, m, path, "write" or "read".
# The peak is Linux's VmHWM, which starts afresh at exec; ru_maxrss keeps
# the forking parent's peak.
_IO_CHILD = """
import json, sys
from time import perf_counter
sys.path.insert(0, sys.argv[1])
import numpy as np
from trialab import binfun as B
m, path, what = int(sys.argv[2]), sys.argv[3], sys.argv[4]
if what == "write":
    v = np.random.default_rng(m).standard_normal(2 ** (m + 1)).view(complex)
    start = perf_counter()
    B.write_vector(path, m, v)
else:
    start = perf_counter()
    B.read_vector(path)
seconds = perf_counter() - start
with open("/proc/self/status") as fh:
    rss = next(int(ln.split()[1]) for ln in fh if ln.startswith("VmHWM:")) / 1024
print(json.dumps({"s": seconds, "peak_rss_mib": rss}))
"""


def measure_io(root: Path, ms) -> dict:
    """One write_vector and one read_vector call at each m, each in a fresh
    child, with the child's peak RSS."""
    import tempfile

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "v.bf")
        for m in ms:
            for what in ("write", "read"):
                child = subprocess.run(
                    [sys.executable, "-c", _IO_CHILD, str(root / "src"), str(m), path, what],
                    check=True, capture_output=True, text=True).stdout
                figures = json.loads(child)
                out[f"{what}_vector.m{m}.s"] = figures["s"]
                out[f"{what}_vector.m{m}.peak_rss_mib"] = figures["peak_rss_mib"]
    return out


def measure_verify() -> dict:
    import numpy as np
    from trialab import altmap as A
    from trialab import binfun as B
    from trialab import catalog as C
    from trialab import minor as M
    from trialab import reductions as R
    from trialab import verify as V
    from trialab.transform import OMEGA, OMEGA2

    def clear_caches():
        # verify's own caches (the catalogs) start empty in a cold run.
        for obj in vars(V).values():
            if hasattr(obj, "cache_clear") and obj.__module__ == V.__name__:
                obj.cache_clear()

    def best(fn):
        runs = []
        for _ in range(VERIFY_REPEATS):
            clear_caches()
            start = perf_counter()
            fn()
            runs.append(perf_counter() - start)
        return min(runs)

    out = {}
    checks = {}
    for _ in range(VERIFY_REPEATS):
        clear_caches()
        for suite in V.SUITE_NAMES:
            rng = np.random.default_rng(0)
            for check in V.SUITES[suite]:
                start = perf_counter()
                r = check(rng)
                checks.setdefault(f"{r.suite}.{r.name}", []).append(perf_counter() - start)
    out.update({name: min(runs) for name, runs in checks.items()})

    real = V._all_multigraphs
    for edges in DUALITY_MAX_EDGES:
        V._all_multigraphs = functools.partial(real, max_edges=edges)
        try:
            out[f"hadamard-duality.max_edges{edges}"] = best(
                lambda: V.check_hadamard_duality(np.random.default_rng(0)))
        finally:
            V._all_multigraphs = real

    mus = [1.0 + 0j, -1.0 + 0j, OMEGA, OMEGA2]
    rng = np.random.default_rng(9)
    for m in COMMUTATION_MS:
        fs = []
        for _ in range(COMMUTATION_FUNCTIONS):
            v = rng.standard_normal(2 ** (m + 1)).view(complex)
            v[0] = 1.0
            fs.append(B.make(m, v))
        stack = np.stack([f.values for f in fs])
        out[f"commutation.m{m}"] = best(lambda: M.minors_commute_check(stack, mus, 1e-9))

    for k in NONCOMMUTATION_KS:
        catalog = C.enumerate_dimaps(k, cap=k).maps
        runs = []
        for _ in range(VERIFY_REPEATS):
            # Fresh copies, so no map carries a view from an earlier scan.
            maps = [A.AlternatingDimap(g.edges, g.rotations) for g in catalog]
            start = perf_counter()
            for g in maps:
                R.find_noncommuting_pair(g)
            runs.append(perf_counter() - start)
        out[f"noncommutation-scan.k{k}"] = min(runs)
    return out


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
    out = {"calibration_s": {}, "primitives": {}, "sweep_pass": {}, "catalog_s": {},
           "represent_s": {}, "candidates_s": {}, "kernels_s": {}, "io": {}, "verify_s": {}}
    for side, results in runs.items():
        out["primitives"][side] = {
            group: {name: statistics.median(r["call_p50_us"][group][name] for r in results)
                    for name in FUNCTIONS}
            for group in results[0]["call_p50_us"]}
        out["sweep_pass"][side] = {
            key: statistics.median(r[key] for r in results)
            for key in ("sweep_pass_wall_s", "sweep_pass_timed_s")}
        for section in ("calibration_s", "catalog_s", "represent_s", "candidates_s",
                        "kernels_s", "io", "verify_s"):
            out[section][side] = {
                key: statistics.median(r[section][key] for r in results)
                for key in results[0][section]}
    large = {"before": [], "after": []}
    for r in range(rounds):
        order = ("before", "after") if r % 2 == 0 else ("after", "before")
        for side in order:
            large[side].append(measure_io(before if side == "before" else after, IO_COMPARE_MS))
    out["io_large"] = {side: {key: statistics.median(r[key] for r in results)
                              for key in results[0]}
                       for side, results in large.items()}
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
