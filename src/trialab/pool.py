"""The helper threads that share one large pass over a vector between CPUs.

A pass over at least SPLIT_MIN entries is cut into chunks that the calling
thread and one helper thread per further CPU take from a shared iterator.
The caller takes chunks until none is left, then waits only for those a
helper has taken: a helper that is never scheduled costs nothing but its
share of the speedup.  Helpers run each chunk under the caller's
np.errstate, which is per thread, and the first error a chunk raises is
raised in the caller.  A forked child has none of its parent's helpers and
starts its own.

Every chunk makes the same numpy calls on the same operands as the one-CPU
pass, so a pass that writes each output entry once, or stores what it
reduces in order, gives output bit-identical to one CPU's.  Below
SPLIT_MIN, or on one CPU, a pass is one call on the calling thread and no
helper starts.
"""

from __future__ import annotations

import os
import threading

import numpy as np

# Entries a pass must read to be shared across the CPUs.  On a shared 2-CPU
# VM the split took about a quarter off the m = 18..20 transforms and 43%
# off m = 22 when idle; beside one busy-loop process it cost 7-8% at m = 18
# and saved 10-14% at m = 22, so it pays from here on.
SPLIT_MIN = 2**18

# Chunks per CPU: enough that a late or slow thread leaves little to wait for.
CHUNKS_PER_CPU = 8

_CPUS = len(os.sched_getaffinity(0))
_queues = []  # one job queue per helper thread, started on the first split
_start_lock = threading.Lock()


def splits(entries: int) -> bool:
    """Whether a pass that reads this many entries is shared across CPUs."""
    return entries >= SPLIT_MIN and _CPUS > 1


def run(job, n: int, entries: int) -> None:
    """Call job(lo, hi) on consecutive ranges that cover range(n).

    When a pass over `entries` entries splits, the ranges are at most
    CHUNKS_PER_CPU per CPU and are shared between the calling thread and
    the helpers; otherwise job(0, n) runs on the calling thread.
    """
    chunks = min(n, CHUNKS_PER_CPU * _CPUS)
    if chunks < 2 or not splits(entries):
        job(0, n)
        return
    # Imported here, not at the top: a pass that never splits, as in every
    # short `trialab verify` run, then never pays for the import.
    from queue import SimpleQueue

    if not _queues:
        _start_helpers()
    done = SimpleQueue()
    work = (iter(range(chunks)), lambda j: job(n * j // chunks, n * (j + 1) // chunks), done)
    err = np.geterr()
    for q in _queues:
        q.put((work, err))
    _take(work)
    failures = [exc for exc in (done.get() for _ in range(chunks)) if exc is not None]
    if failures:
        raise failures[0]


def chunked(fn, *operands, out=None, core: int = 0, entries: int | None = None):
    """fn(*operands, out=out) through :func:`run`, returning out.

    The chunks cut one of out's axes before its last `core` ones (the first
    long enough to give every chunk some rows, else the longest), so each
    chunk is the same call on a slice; an operand broadcast along that axis
    is passed whole.  The pass reads `entries` entries, out.size by
    default; without out, give entries: fn then allocates out on the one-CPU
    path, and the split path fills a fresh complex array of the operands'
    broadcast shape.
    """
    if entries is None:
        entries = out.size
    if not splits(entries):
        return fn(*operands, out=out)
    if out is None:
        out = np.empty(np.broadcast_shapes(*(np.shape(x) for x in operands)), dtype=complex)
    lead = out.shape[:out.ndim - core]
    long = [a for a, size in enumerate(lead) if size >= CHUNKS_PER_CPU * _CPUS]
    axis = (long[0] if long else int(np.argmax(lead))) - out.ndim

    def part(x, lo, hi):
        if np.ndim(x) < -axis or x.shape[axis] == 1:
            return x
        return x[(Ellipsis, slice(lo, hi)) + (slice(None),) * (-axis - 1)]

    run(lambda lo, hi: fn(*(part(x, lo, hi) for x in operands), out=part(out, lo, hi)),
        out.shape[axis], entries)
    return out


def _take(work):
    """Run chunks from work's shared iterator, reporting each to its queue."""
    chunks, run_chunk, done = work
    for j in chunks:
        try:
            run_chunk(j)
        except Exception as exc:
            done.put(exc)
        else:
            done.put(None)


def _helper(q):
    while True:
        work, err = q.get()
        with np.errstate(**err):
            _take(work)
        # Drop the job before waiting: it holds views of the caller's buffers.
        del work


def _start_helpers():
    from queue import SimpleQueue

    with _start_lock:
        for _ in range(_CPUS - 1 - len(_queues)):
            q = SimpleQueue()
            threading.Thread(target=_helper, args=(q,), daemon=True, name="trialab-pool").start()
            _queues.append(q)


def _forget_helpers():
    """A forked child has none of its parent's helpers; it starts its own.

    Jobs put on the parent's queues would wait there for good, holding the
    child's buffers.
    """
    global _start_lock
    _queues.clear()
    _start_lock = threading.Lock()


os.register_at_fork(after_in_child=_forget_helpers)
