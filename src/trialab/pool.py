"""One large pass over a vector, shared between the CPUs.

A pass over at least SPLIT_MIN entries is cut into chunks that the calling
thread and one task per further CPU, on a ThreadPoolExecutor made on the
first split, take from a shared iterator under the caller's np.errstate.
Once the chunks are all taken, the caller cancels every task that has not
started and waits only for the rest, so a worker that is never scheduled
costs only its share of the speedup; then it raises the first chunk error.
A forked child makes its own executor.  Every chunk makes the same numpy
calls on the same operands as the one-CPU pass, so a pass that writes each
output entry once, or stores what it reduces in order, gives output
bit-identical to one CPU's.  Below SPLIT_MIN, or on one CPU, a pass is one
call on the calling thread, and no thread starts.
"""

from __future__ import annotations

import os

import numpy as np

# Entries a pass must read to be shared across the CPUs.  On a shared 2-CPU
# VM the split took about a quarter off the m = 18..20 transforms and 43%
# off m = 22 when idle; beside one busy-loop process it cost 7-8% at m = 18
# and saved 10-14% at m = 22, so it pays from here on.
SPLIT_MIN = 2**18

# Chunks per CPU: enough that a late or slow thread leaves little to wait for.
CHUNKS_PER_CPU = 8

_CPUS = len(os.sched_getaffinity(0))
_executor = None  # the worker threads, made on the first split


def splits(entries: int) -> bool:
    """Whether a pass that reads this many entries is shared across CPUs."""
    return entries >= SPLIT_MIN and _CPUS > 1


def threads(entries: int) -> int:
    """How many threads at most run the jobs of a pass over this many
    entries at once: the caller and one per further CPU, or the caller."""
    return _CPUS if splits(entries) else 1


def run(job, n: int, entries: int) -> None:
    """Call job(lo, hi) on consecutive ranges that cover range(n): at most
    CHUNKS_PER_CPU per CPU, shared with the workers, when a pass over
    `entries` entries splits, else job(0, n) on the calling thread."""
    global _executor
    chunks = min(n, CHUNKS_PER_CPU * _CPUS)
    if chunks < 2 or not splits(entries):
        job(0, n)
        return
    if _executor is None:
        # Imported here: a process that never splits, as a short `trialab
        # verify` run, skips the import.  Two first callers may each make an
        # executor; the one dropped lets its workers exit when they are done.
        from concurrent.futures import ThreadPoolExecutor

        _executor = ThreadPoolExecutor(_CPUS - 1, thread_name_prefix="trialab-pool")
    parts = iter(range(chunks))
    errors = []

    def take(err):
        with np.errstate(**err):
            for j in parts:
                try:
                    job(n * j // chunks, n * (j + 1) // chunks)
                except Exception as exc:
                    errors.append(exc)

    err = np.geterr()
    tasks = [_executor.submit(take, err) for _ in range(_CPUS - 1)]
    take(err)
    for t in tasks:
        if not t.cancel():
            t.result()
    if errors:
        raise errors[0]


def chunked(fn, *operands, out, core: int = 0):
    """fn(*operands, out=out) through :func:`run`, returning out; it splits
    from SPLIT_MIN entries of out.  The chunks cut one of out's axes before
    its last `core` ones (the first long enough to give every chunk some
    rows, else the longest), so each chunk is the same call on a slice; an
    operand broadcast along that axis is passed whole."""
    if not splits(out.size):
        return fn(*operands, out=out)
    lead = out.shape[:out.ndim - core]
    long = [a for a, size in enumerate(lead) if size >= CHUNKS_PER_CPU * _CPUS]
    axis = (long[0] if long else int(np.argmax(lead))) - out.ndim

    def part(x, lo, hi):
        if np.ndim(x) < -axis or x.shape[axis] == 1:
            return x
        return x[(Ellipsis, slice(lo, hi)) + (slice(None),) * (-axis - 1)]

    run(lambda lo, hi: fn(*(part(x, lo, hi) for x in operands), out=part(out, lo, hi)),
        out.shape[axis], out.size)
    return out


def _forget_executor():
    """A forked child has none of its parent's workers; it makes its own."""
    global _executor
    _executor = None


os.register_at_fork(after_in_child=_forget_executor)
