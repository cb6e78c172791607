"""The benchmark's workloads: inputs made from the seed, one pass over them,
and an oracle check on every timed operation's output.

A pass calls trialab through module attributes (``T.transform``), so the
tracer's wrappers, when installed, see the benchmark's calls as well as the
library's internal ones.  Only the calls are timed: a pass's time is the
sum of its calls' durations, and oracle checks fall outside it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from time import perf_counter

import numpy as np

from trialab import altmap as A
from trialab import binfun as B
from trialab import catalog as C
from trialab import minor as M
from trialab import reductions as R
from trialab import represent as P
from trialab import transform as T
from trialab.transform import OMEGA, OMEGA2

import oracles
from checkout import ROOT, WORK, check_location, child_env
from metrics import SUITES

CHILD_TIMEOUT_S = 150


class WrongResult(Exception):
    """An operation raised, or its output failed its oracle."""


class Ops:
    """Operations attempted and failed over the whole run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0


class Pass:
    """One pass: its kind, each timed call's duration in order and by stage, and exact counts."""

    def __init__(self, ops: Ops, kind: str):
        self.ops = ops
        self.kind = kind
        self.n_ops = 0
        self.durations: list[float] = []
        self.stages: dict[str, list[float]] = {}
        self.counts: dict[str, int] = {}

    @property
    def time(self) -> float:
        return sum(self.durations)

    def call(self, stage: str, fn, *args, **kwargs):
        self.ops.attempted += 1
        self.n_ops += 1
        start = perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # any raise is a failed operation; the run stops
            self.ops.failed += 1
            raise WrongResult(f"{stage}: {fn.__name__} raised {type(exc).__name__}: {exc}") from exc
        dt = perf_counter() - start
        self.durations.append(dt)
        self.stages.setdefault(stage, []).append(dt)
        return out

    def check(self, ok: bool, what: str):
        if not ok:
            self.ops.failed += 1
            raise WrongResult(what)


def _random_bf(rng, m: int):
    v = rng.standard_normal(2 ** (m + 1)).view(complex)
    v[0] = 1.0
    return B.make(m, v)


# ---------------------------------------------------------------------------

class InProcess:
    """A workload run in the benchmark's own process, from inputs built in set-up."""

    IN_PROCESS = True
    TRACE_BASELINE = "plain"
    SETUP_REPEATS = 9

    def __init__(self, seed: int):
        self.seed = seed
        self.inputs = None

    def pass_kinds(self, trace: bool):
        return ("traced", "plain") if trace else ("plain",)

    def setup(self, ops: Ops):
        self.inputs = None  # free the previous set-up's inputs first
        self.inputs = self._inputs(self.SIZES)
        # Run every code path once at tiny sizes so first-call costs land here.
        self._run(Pass(ops, "warm-up"), self._inputs(self.TINY))

    def run_pass(self, p: Pass, pass_id: int, tracer):
        self._run(p, self.inputs)


class BfKernels(InProcess):
    """Seeded random binary functions at large m: the transform at w with
    its inverse round trip, the transform at -1, minors at 1, w and w2,
    proportionality, and a .bf round trip; dense Kronecker checks at small m."""

    SIZES = {"ms": (16, 20, 22), "io_m": 16, "dense_m": 8}
    TINY = {"ms": (6, 7), "io_m": 5, "dense_m": 4}
    ROW_SAMPLES = 2

    def _inputs(self, sizes):
        rng = np.random.default_rng(self.seed)
        large = []
        for m in sizes["ms"]:
            f = _random_bf(rng, m)
            # Minors must normalize: keep each raw empty-set entry away from 0.
            element = int(rng.integers(m))
            while min(abs(1 + oracles.minor_weight(mu) * f.values[1 << (m - 1 - element)])
                      for mu in (1, OMEGA, OMEGA2)) < 1e-3:
                element = int(rng.integers(m))
            rows = [int(y) for y in rng.integers(2 ** m, size=self.ROW_SAMPLES)]
            scale = complex(*rng.standard_normal(2))
            large.append((m, f, element, rows, scale))
        dm = sizes["dense_m"]
        small = _random_bf(rng, dm)
        dense = {mu: oracles.dense_power(mu, dm) @ small.values for mu in (OMEGA, -1)}
        io = rng.standard_normal(2 ** (sizes["io_m"] + 1)).view(complex)
        return {"large": large, "small": small, "dense": dense, "io": io, "io_m": sizes["io_m"]}

    def _check_rows(self, p: Pass, f, out, mu, rows, what):
        for y in rows:
            exact, scale = oracles.kron_row(mu, f.m, y, f.values)
            p.check(abs(out.values[y] - exact) <= 1e-12 * scale,
                    f"{what}: entry {y} is {out.values[y]}, Kronecker row gives {exact}")

    def _run(self, p: Pass, inp):
        for m, f, element, rows, scale in inp["large"]:
            norm = float(np.max(np.abs(f.values)))
            g = p.call(f"transform.m{m}", T.transform, f, OMEGA)
            self._check_rows(p, f, g, OMEGA, rows, f"transform(w) at m={m}")
            back = p.call("inverse", T.inverse_transform, g, OMEGA)
            p.check(float(np.max(np.abs(back.values - f.values))) <= 1e-9 * norm,
                    f"inverse_transform(transform(f, w), w) != f at m={m}")
            del back
            p.check(p.call("proportional", B.proportional, g, scale * g.values) is True,
                    f"c*L(f) not proportional to L(f) at m={m}")
            # A random vector is almost surely not an eigenvector of the w-transform.
            p.check(p.call("proportional", B.proportional, g, f) is False,
                    f"transform(f, w) reported proportional to f at m={m}")
            del g
            h = p.call(f"transform.m{m}", T.transform, f, -1)
            self._check_rows(p, f, h, -1, rows, f"transform(-1) at m={m}")
            del h
            for mu in (1, OMEGA, OMEGA2):
                minor = p.call(f"minor.m{m}", M.take_minor, f, M.MinorSpec(element, mu))
                expect = oracles.minor_values(f.values, m, element, mu)
                p.check(minor.m == m - 1 and float(np.max(np.abs(minor.values - expect)))
                        <= 1e-12 * float(np.max(np.abs(expect))),
                        f"take_minor(e{element}, mu={mu}) at m={m} differs from index arithmetic")
                del minor, expect

        small = inp["small"]
        for mu, expect in inp["dense"].items():
            out = p.call("transform.small", T.transform, small, mu)
            p.check(float(np.max(np.abs(out.values - expect))) <= 1e-10,
                    f"transform(mu={mu}) at m={small.m} differs from the dense Kronecker power")
        same = p.call("transform.small", T.transform, small, 1)
        p.check(np.array_equal(same.values, small.values), "transform at mu=1 is not the identity")

        WORK.mkdir(exist_ok=True)
        path = WORK / f"io-{os.getpid()}.bf"
        try:
            p.call("io.write", B.write_vector, path, inp["io_m"], inp["io"])
            back = p.call("io.read", B.read_vector, path)
        finally:
            path.unlink(missing_ok=True)
        p.check(back.m == inp["io_m"] and np.array_equal(back.values, inp["io"]),
                ".bf write/read round trip is not exact")


# ---------------------------------------------------------------------------

class DimapSweep(InProcess):
    """Exhaustive catalogs up to k edges, the map primitives over the top
    catalog and seeded random maps, and representation checks."""

    SIZES = {"kmax": 5, "random_ks": (6, 7, 8), "n_random": 100, "rep_ks": (5, 8, 10)}
    TINY = {"kmax": 3, "random_ks": (4,), "n_random": 3, "rep_ks": (2,)}
    # A set-up takes about 0.1 s: repeat it for about as long as the others.
    SETUP_REPEATS = 21

    def _inputs(self, sizes):
        rng = np.random.default_rng(self.seed)
        maps = [C.random_dimap(k, rng) for k in sizes["random_ks"] for _ in range(sizes["n_random"])]
        return {
            "kmax": sizes["kmax"],
            "random": [(g, oracles.relabel(g, rng)) for g in maps],
            "classes": [(k, P.canonical_class(k)) for k in sizes["rep_ks"]],
        }

    def _run(self, p: Pass, inp):
        kmax = inp["kmax"]
        for k in range(kmax + 1):
            catalog = p.call(f"catalog.k{k}", C.enumerate_dimaps, k, cap=k)
            p.check(len(catalog.maps) == oracles.burnside_count(k),
                    f"catalog k={k} has {len(catalog.maps)} maps, Burnside gives "
                    f"{oracles.burnside_count(k)}")
            p.counts[f"catalog.maps_out.k{k}"] = len(catalog.maps)
        top = catalog.maps
        connected = sum(oracles.n_components(g) == 1 for g in top)
        p.check(connected == oracles.CONNECTED[kmax],
                f"catalog k={kmax} has {connected} connected maps, expected {oracles.CONNECTED[kmax]}")

        rng = np.random.default_rng([self.seed, kmax])
        self_trial = sum(self._sweep(p, g, oracles.relabel(g, rng), True) for g in top)
        p.check(self_trial == oracles.SELF_TRIAL[kmax],
                f"catalog k={kmax} has {self_trial} self-trial maps, expected {oracles.SELF_TRIAL[kmax]}")
        for g, copy in inp["random"]:
            self._sweep(p, g, copy, False)

        for k, candidate in inp["classes"]:
            report = p.call(f"represent.k{k}", P.check_representation, candidate)
            p.check(report.passed, f"canonical_class({k}) fails check_representation")

    def _sweep(self, p: Pass, g, copy, self_trial: bool) -> bool:
        """Primitives on one map; returns whether it is self-trial when asked."""
        p.check(p.call("sweep", A.validate, g) == [] and oracles.is_alternating(g),
                f"validate rejects or misses a problem in {g}")
        images = [g]
        for _ in range(3):
            images.append(p.call("sweep", A.trial, images[-1])[0])
        p.check(oracles.labeled_equal(images[3], g), f"trial^3 is not the identity on {g}")
        form = p.call("sweep", A.canonical_form, g)
        p.check(form == p.call("sweep", A.canonical_form, copy),
                f"canonical_form differs on a relabelled copy of {g}")
        is_self_trial = self_trial and form == p.call("sweep", A.canonical_form, images[1])
        for label in g.labels():
            for kind in R.ALL_KINDS:
                reduced = p.call("sweep", R.reduce_edge, g, label, kind)
                p.check(oracles.is_reduction(g, reduced, label),
                        f"reduce_edge({label}, {kind.token}) of {g} gave {reduced}")
            cls = p.call("sweep", A.classify_edge, g, label)
            p.check(cls.is_ultraloop == oracles.is_ultraloop(g, label)
                    and cls.is_1_semiloop == oracles.is_loop(g, label),
                    f"classify_edge({label}) of {g} disagrees on loop/ultraloop")
        return is_self_trial


# ---------------------------------------------------------------------------

def run_child(args: list[str]) -> tuple[float, int, str]:
    """Run a child interpreter from the checkout root; (wall seconds, exit code, output)."""
    start = perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          timeout=CHILD_TIMEOUT_S, text=True)
    return perf_counter() - start, proc.returncode, proc.stdout


class VerifyE2E:
    """``python -m trialab.cli verify`` in a fresh child per pass.

    A traced run also runs the CLI through the benchmark's child driver,
    which times each suite: untraced for the suite times and the CLI's
    overhead around them, traced for the function spans.
    """

    IN_PROCESS = False
    TRACE_BASELINE = "suites"
    # CHECK lines per suite.
    SIZES = {"checks": {"transforms": 4, "minors": 2, "degeneracy": 2, "dimaps": 6,
                        "claims": 2, "main-theorem": 1}}
    TINY = {"checks": {"transforms": 4}}
    SETUP_REPEATS = 9
    DRIVER = str(WORK.parent / "verify_child.py")

    def __init__(self, seed: int):
        self.seed = seed
        self.suites = [s for s in SUITES if s in self.SIZES["checks"]]

    def pass_kinds(self, trace: bool):
        return ("plain", "suites", "traced") if trace else ("plain",)

    def setup(self, ops: Ops):
        # What every CLI user pays before the first suite runs.  The child
        # has the plain pass's working directory and path, so the trialab it
        # names is the one the plain pass runs.
        _, code, out = run_child(["-c", "import trialab.cli; print(trialab.cli.__file__)"])
        if code != 0:
            raise WrongResult(f"importing trialab.cli failed: {out}")
        check_location(out.splitlines()[-1])

    def run_pass(self, p: Pass, pass_id: int, tracer):
        expected = sum(self.SIZES["checks"].values())
        p.ops.attempted += expected
        p.n_ops = expected
        argv = ["verify", *self.suites, "--seed", str(self.seed)]
        if p.kind == "plain":
            wall, code, out = run_child(["-m", "trialab.cli", *argv])
        else:
            wall, code, out = run_child([self.DRIVER, "--trace", str(int(p.kind == "traced")), *argv])
        lines = out.splitlines()
        checks = sum(ln.startswith("CHECK ") and ln.split()[2] == "PASS" for ln in lines)
        suites = sum(ln.startswith("SUITE ") and ln.split()[2] == "PASS" for ln in lines)
        if code != 0 or checks != expected or suites != len(self.suites):
            p.ops.failed += (expected - checks) or 1
            raise WrongResult(f"verify exited {code} with {checks}/{expected} checks and "
                              f"{suites}/{len(self.suites)} suites passing:\n{out}")
        p.durations.append(wall)
        if p.kind == "plain":
            return
        report = json.loads(lines[-1])
        for suite, seconds in report["suites"].items():
            p.stages[f"verify.{suite}"] = [seconds]
        if p.kind == "traced":
            tracer.absorb(report["names"], report["spans"], pass_id)
            p.counts["index_cache"] = report["index_cache"]


WORKLOADS = {"bf-kernels": BfKernels, "dimap-sweep": DimapSweep, "verify-e2e": VerifyE2E}
