"""Every name the benchmark reports: workloads, end-to-end metrics and
per-layer metrics, with units, directions and bounds.

``spec.py`` writes BENCHMARK.json from these tables, so the file and the
code cannot drift apart.
"""

from __future__ import annotations

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 30

WORKLOADS = {
    "bf-kernels": "large-m kernels and the .bf format at m = 16, 20, 22 so scaling shows; "
                  "transform, inverse, minors, proportional, .bf I/O; never touches altmap",
    "dimap-sweep": "map side: catalogs k = 0..5, primitives on the k=5 catalog and random maps "
                   "at k = 6..8, representation checks at k = 5, 8, 10; no large-m transform",
    "verify-e2e": "trialab verify in a fresh child per pass: time to verdict from cold start; "
                  "thousands of small (m <= 8) kernel calls where per-call overhead dominates",
}

# (name, unit, better, bound).  Every workload reports every one of them.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("pass_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.15),
]

LAYERS = ("binfun", "transform", "minor", "altmap", "reductions", "catalog",
          "represent", "verify", "cli")

# Public functions timed at the layer boundary: (module, function, size
# argument, size buckets).  A call of size s falls in the first bucket b
# with s <= b, or in the last bucket; its metrics are named
# <module>.<function>.<kind><b>.<stat>.
FUNCTIONS = [
    ("transform", "transform", "m", (10, 16, 20, 22)),
    ("transform", "inverse_transform", None, ()),
    ("minor", "take_minor", None, ()),
    ("binfun", "proportional", None, ()),
    ("binfun", "write_vector", None, ()),
    ("binfun", "read_vector", None, ()),
    ("catalog", "enumerate_dimaps", None, ()),
    ("altmap", "validate", None, ()),
    ("altmap", "trial", None, ()),
    ("altmap", "canonical_form", None, ()),
    ("altmap", "classify_edge", None, ()),
    ("reductions", "reduce_edge", None, ()),
    ("represent", "check_representation", "k", (5, 8, 10)),
]

# Per call site: calls and failures per pass, self time per pass, and the
# median and tail of single-call durations.
FUNCTION_STATS = [
    ("calls", "count", "lower"),
    ("busy_s", "s", "lower"),
    ("call_p50_s", "s", "lower"),
    ("call_tail_s", "s", "lower"),
    ("failures", "count", "lower"),
]

SUITES = ("transforms", "minors", "degeneracy", "dimaps", "claims", "main-theorem")
CATALOG_KMAX = 5


def bucket(kind: str | None, buckets: tuple[int, ...], size: int) -> str:
    """Metric prefix suffix for a call of the given size ('' when unbucketed)."""
    if not buckets:
        return ""
    for b in buckets:
        if size <= b:
            return f".{kind}{b}"
    return f".{kind}{buckets[-1]}"


def function_prefixes() -> list[str]:
    return [f"{mod}.{fn}" + (f".{kind}{b}" if buckets else "")
            for mod, fn, kind, buckets in FUNCTIONS
            for b in (buckets or (None,))]


def per_layer() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = [(f"{prefix}.{stat}", unit, better)
           for prefix in function_prefixes() for stat, unit, better in FUNCTION_STATS]
    out += [
        # Work model of the axis-wise kernel, computed from each call's m,
        # not measured: 14*m*2**m flops and 32*(m+1)*2**m bytes.
        ("transform.computed_flops", "flop", "lower"),
        ("transform.computed_bytes", "B", "lower"),
    ]
    out += [(f"catalog.maps_out.k{k}", "count", "higher") for k in range(CATALOG_KMAX + 1)]
    out += [("altmap.index_cache_hit_ratio", "ratio", "higher")]
    out += [(f"verify.{suite}_s", "s", "lower") for suite in SUITES]
    out += [("cli.overhead_s", "s", "lower")]
    # Single client, no queues: every layer's wait is zero, reported as such.
    out += [(f"{layer}.wait_s", "s", "lower") for layer in LAYERS]
    out += [("trace.overhead_s", "s", "lower")]
    # Headline figures per workload, from the untraced passes of a traced run.
    out += [
        ("transform_m20_mvals_per_s", "Mval/s", "higher"),
        ("transform_m22_mvals_per_s", "Mval/s", "higher"),
        ("minor_m22_mvals_per_s", "Mval/s", "higher"),
        ("catalog_k5_s", "s", "lower"),
        ("dimap_prims_per_s", "1/s", "higher"),
        ("represent_k10_s", "s", "lower"),
    ]
    return out
