"""Spans around calls into trialab's public functions.

While installed, the tracer replaces each function listed in
``metrics.FUNCTIONS`` by a wrapper, in every trialab module that binds it,
so calls the library makes internally (``enumerate_dimaps`` calling
``canonical_form``) are recorded as well as the benchmark's own.  Each span
holds its name, size, start, end, parent span, pass id, self time (its
duration minus the time its child spans cover) and whether it returned.
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import statistics
import sys
from time import perf_counter

from metrics import FUNCTIONS, FUNCTION_STATS, bucket, function_prefixes

# Span tuple fields.
NAME, SIZE, START, END, PARENT, PASS, SELF, OK = range(8)


def _size_m(args) -> int:
    f = args[0]
    return f.m if hasattr(f, "m") else len(f).bit_length() - 1


def _size_k(args) -> int:
    return len(args[0].members) - 1


SIZE_OF = {"m": _size_m, "k": _size_k, None: None}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.pass_id = -1
        self._stack: list[list] = []  # open spans: [index, child seconds]
        self._patched: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self) -> tuple[list, int]:
        frame = [len(self.spans), 0.0]
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append(None)
        self._stack.append(frame)
        return frame, parent

    def _close(self, frame, parent, name_id, size, start, end, ok):
        self._stack.pop()
        if self._stack:
            self._stack[-1][1] += end - start
        self.spans[frame[0]] = (name_id, size, start, end, parent, self.pass_id,
                                end - start - frame[1], ok)

    def wrap(self, name: str, fn, size_of):
        name_id = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            size = size_of(args) if size_of else -1
            frame, parent = self._open()
            ok = False
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                self._close(frame, parent, name_id, size, start, perf_counter(), ok)

        return traced

    def begin_pass(self, pass_id: int):
        self.pass_id = pass_id
        self._pass = (self._open(), perf_counter())

    def end_pass(self):
        (frame, parent), start = self._pass
        self._close(frame, parent, self._name_id("pass"), -1, start, perf_counter(), True)

    def install(self):
        """Wrap every listed function wherever a loaded trialab module binds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "trialab" or n.startswith("trialab."))]
        for mod, fn, kind, _ in FUNCTIONS:
            original = getattr(sys.modules[f"trialab.{mod}"], fn)
            wrapper = self.wrap(f"{mod}.{fn}", original, SIZE_OF[kind])
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def absorb(self, names: list[str], spans: list, pass_id: int):
        """Append spans recorded by a child process under this tracer's pass id."""
        offset = len(self.spans)
        ids = [self._name_id(n) for n in names]
        for s in spans:
            parent = s[PARENT] + offset if s[PARENT] >= 0 else -1
            self.spans.append((ids[s[NAME]], s[SIZE], s[START], s[END], parent, pass_id,
                               s[SELF], s[OK]))


def index_cache(altmap) -> tuple[int, int]:
    """(hits, misses) of the map-index LRU, or (0, 0) when the cache does not exist."""
    info = getattr(getattr(altmap, "_index", None), "cache_info", None)
    return (info().hits, info().misses) if info else (0, 0)


_BUCKETS = {f"{mod}.{fn}": (kind, buckets) for mod, fn, kind, buckets in FUNCTIONS}


def _prefix(name: str, size: int) -> str | None:
    if name not in _BUCKETS:
        return None
    return name + bucket(*_BUCKETS[name], size)


def function_metrics(tracer: Tracer, pass_ids: list[int]) -> tuple[dict[str, float], list[str]]:
    """Per-function stats over the traced passes, and the prefixes whose
    ``call_tail_s`` is the slowest call rather than a percentile.

    ``calls`` and ``failures`` are those of the first traced pass (every
    pass makes the same calls); ``busy_s`` is the median per-pass self
    time; ``call_p50_s`` and ``call_tail_s`` pool all traced calls, the
    tail being the call with exactly ten slower ones, or the slowest call
    when that one would not lie above the median (fewer than 21 calls).
    """
    first = pass_ids[0] if pass_ids else None
    wanted = set(pass_ids)
    durations: dict[str, list[float]] = {p: [] for p in function_prefixes()}
    busy = {p: {i: 0.0 for i in pass_ids} for p in durations}
    calls = dict.fromkeys(durations, 0)
    failures = dict.fromkeys(durations, 0)
    flops = nbytes = 0
    for s in tracer.spans:
        if s[PASS] not in wanted:
            continue
        name = tracer.names[s[NAME]]
        prefix = _prefix(name, s[SIZE])
        if prefix is None:
            continue
        durations[prefix].append(s[END] - s[START])
        busy[prefix][s[PASS]] += s[SELF]
        if s[PASS] == first:
            calls[prefix] += 1
            failures[prefix] += not s[OK]
            if name == "transform.transform":
                flops += 14 * s[SIZE] * 2 ** s[SIZE]
                nbytes += 32 * (s[SIZE] + 1) * 2 ** s[SIZE]
    out = {}
    short = [prefix for prefix, ds in durations.items() if 0 < len(ds) <= 20]
    for prefix, ds in durations.items():
        ds.sort(reverse=True)
        stats = {
            "calls": calls[prefix],
            "busy_s": statistics.median(busy[prefix].values()) if pass_ids else 0.0,
            "call_p50_s": statistics.median(ds) if ds else 0.0,
            "call_tail_s": (ds[10] if len(ds) > 20 else ds[0]) if ds else 0.0,
            "failures": failures[prefix],
        }
        for stat, _, _ in FUNCTION_STATS:
            out[f"{prefix}.{stat}"] = stats[stat]
    out["transform.computed_flops"] = flops
    out["transform.computed_bytes"] = nbytes
    return out, short

