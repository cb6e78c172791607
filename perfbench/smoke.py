#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes (about 20 seconds).

    python3 perfbench/smoke.py

Checks that BENCHMARK.json matches metrics.py; that every workload prints
every named metric with a unit, end-to-end values never 0; that the exact
counts repeat across two traced runs; that an injected wrong oracle value
makes the run exit nonzero with no timing; and that a directory holding
only the benchmark exits nonzero without a result.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys

import checkout
from metrics import END_TO_END, WORKLOADS, per_layer

EXACT = (".calls", ".failures", "transform.computed_flops", "transform.computed_bytes")


def run(workload: str, trace: int) -> tuple[int, list[str]]:
    import run as bench

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = bench.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                           "--trace", str(trace)])
    return code, buf.getvalue().splitlines()


def check_output(workload: str, trace: int, lines: list[str]) -> dict:
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, result
    names = [n for n, *_ in (per_layer() if trace else END_TO_END)]
    assert list(result["metrics"]) == names, (workload, trace)
    printed = {ln.split()[1]: ln.split()[3] for ln in lines if ln.startswith("metric ")}
    for name in names:
        metric = result["metrics"][name]
        assert metric["unit"] and printed[name] == metric["unit"], name
        assert trace or metric["value"] > 0, (workload, name, metric)
    return {k: v["value"] for k, v in result["metrics"].items()}


@contextlib.contextmanager
def patched(obj, attr, value):
    old = getattr(obj, attr)
    setattr(obj, attr, value)
    try:
        yield
    finally:
        setattr(obj, attr, old)


def expect_wrong(workload: str, obj, attr, value):
    with patched(obj, attr, value):
        code, lines = run(workload, 0)
    result = json.loads(lines[-1])
    assert code == 1 and result["correct"] is False and result["failed"] >= 1, (workload, lines[-3:])
    assert result["metrics"] == {}, workload
    assert any(ln.startswith("WRONG ") for ln in lines), workload


def bare_directory():
    """A directory with only BENCHMARK.json and perfbench/ has no trialab to measure."""
    bare = checkout.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(checkout.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(checkout.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "bf-kernels",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180,
                              env=dict(checkout.child_env(), PYTHONPATH=""))
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc.stdout


def main() -> int:
    try:
        checkout.import_trialab()
    except checkout.CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import oracles
    import spec
    import workloads

    assert json.loads(spec.SPEC_FILE.read_text(encoding="utf-8")) == spec.spec(), \
        "BENCHMARK.json is stale: run python3 perfbench/spec.py"
    classes = workloads.WORKLOADS
    assert sorted(classes) == sorted(WORKLOADS)
    for name, cls in classes.items():
        with patched(cls, "SIZES", cls.TINY):
            code, lines = run(name, 0)
            assert code == 0, lines[-5:]
            check_output(name, 0, lines)
            exact = []
            for _ in range(2):
                code, lines = run(name, 1)
                assert code == 0, lines[-5:]
                values = check_output(name, 1, lines)
                exact.append({k: v for k, v in values.items()
                              if k.endswith(EXACT) or k.startswith("catalog.maps_out.")})
            assert exact[0] == exact[1], (name, exact)
            print(f"ok {name}")

            if name == "bf-kernels":
                expect_wrong(name, oracles, "SQRT2", oracles.SQRT2 * (1 + 1e-6))
            elif name == "dimap-sweep":
                expect_wrong(name, oracles, "CONNECTED", {**oracles.CONNECTED, 3: 8})
            else:
                expect_wrong(name, cls, "SIZES", {"checks": {"transforms": 5}})
            print(f"ok {name} wrong oracle value exits 1")
    bare_directory()
    print("ok bare directory exits nonzero")
    return 0


if __name__ == "__main__":
    sys.exit(main())
