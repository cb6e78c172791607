"""Oracles for the benchmark's outputs, written apart from the trialab code
they judge: the transform generator and minor weight from their displayed
formulas, dense Kronecker powers and rows, index arithmetic for minors,
closed-form and pinned catalog counts, and direct checks on the dart data
of a map.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

SQRT2 = math.sqrt(2.0)

# Catalog facts measured once and pinned (connected and self-trial maps per
# number of edges); the total count per k is Burnside's formula below.
CONNECTED = {1: 1, 2: 3, 3: 7, 4: 26, 5: 97}
SELF_TRIAL = {1: 1, 2: 1, 3: 2, 4: 4, 5: 5}


def m_matrix(mu: complex) -> np.ndarray:
    """The generator M(mu) as displayed in the transform module's docstring."""
    return np.array([[SQRT2 + 1 + (SQRT2 - 1) * mu, 1 - mu],
                     [1 - mu, SQRT2 - 1 + (SQRT2 + 1) * mu]], dtype=complex) / (2 * SQRT2)


def dense_power(mu: complex, m: int) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for _ in range(m):
        out = np.kron(out, m_matrix(mu))
    return out


def kron_row(mu: complex, m: int, y: int, v: np.ndarray) -> tuple[complex, float]:
    """Entry y of M(mu)^(x)m applied to v, and the sum of |term| over that row.

    The row is contracted one element at a time (e_0 owns the top index bit),
    so no 2**m x 2**m matrix is formed.  The sum of magnitudes scales the
    rounding error of any summation order.
    """
    mat = m_matrix(mu)
    w, a = v, np.abs(v)
    for i in range(m):
        row = mat[(y >> (m - 1 - i)) & 1]
        w = w.reshape(2, -1)
        a = a.reshape(2, -1)
        w = row[0] * w[0] + row[1] * w[1]
        a = abs(row[0]) * a[0] + abs(row[1]) * a[1]
    return complex(w[0]), float(a[0])


def minor_weight(mu: complex) -> complex:
    return (1 + mu) / (SQRT2 + 1 - (SQRT2 - 1) * mu)


def minor_values(values: np.ndarray, m: int, i: int, mu: complex) -> np.ndarray:
    """Normalized minor along element i by explicit index arithmetic."""
    lam = minor_weight(mu)
    x = np.arange(2 ** (m - 1), dtype=np.int64)
    low_bits = m - 1 - i
    high, low = x >> low_bits, x & ((1 << low_bits) - 1)
    idx0 = (high << (low_bits + 1)) | low
    raw = values[idx0] + lam * values[idx0 | (1 << low_bits)]
    return raw / raw[0]


def burnside_count(k: int) -> int:
    """Pairs of permutations of k points up to simultaneous conjugation:
    the sum over partitions of k of the centralizer orders z_lambda."""
    def partitions(n, largest):
        if n == 0:
            yield ()
            return
        for first in range(min(n, largest), 0, -1):
            for rest in partitions(n - first, first):
                yield (first,) + rest

    return sum(math.prod(part ** c * math.factorial(c) for part, c in Counter(lam).items())
               for lam in partitions(k, k))


# ---------------------------------------------------------------------------
# Direct checks on a map's dart data (edges with tail/head darts, and one
# clockwise dart cycle per vertex).

def is_alternating(g) -> bool:
    """Labels unique, every dart on exactly one edge and one vertex, and
    tails and heads alternate around every vertex."""
    labels = [e.label for e in g.edges]
    edge_darts = [d for e in g.edges for d in (e.tail, e.head)]
    vertex_darts = [d for rot in g.rotations for d in rot]
    if len(set(labels)) != len(labels) or len(set(edge_darts)) != len(edge_darts):
        return False
    if sorted(edge_darts) != sorted(vertex_darts):
        return False
    heads = {e.head for e in g.edges}
    return all(rot and all((rot[j] in heads) != (rot[j - 1] in heads) for j in range(len(rot)))
               for rot in g.rotations)


def n_components(g) -> int:
    parent = {d: d for rot in g.rotations for d in rot}

    def find(d):
        while parent[d] != d:
            parent[d] = parent[parent[d]]
            d = parent[d]
        return d

    links = [(e.tail, e.head) for e in g.edges]
    links += [(rot[0], d) for rot in g.rotations for d in rot[1:]]
    for a, b in links:
        parent[find(a)] = find(b)
    return len({find(d) for d in parent})


def _vertex_of(g, dart: int) -> tuple[int, ...]:
    return next(rot for rot in g.rotations if dart in rot)


def _edge(g, label: str):
    return next(e for e in g.edges if e.label == label)


def is_loop(g, label: str) -> bool:
    e = _edge(g, label)
    return e.tail in _vertex_of(g, e.head)


def is_ultraloop(g, label: str) -> bool:
    """A vertex whose only darts are this edge's two ends."""
    e = _edge(g, label)
    return sorted(_vertex_of(g, e.head)) == sorted((e.tail, e.head))


def labeled_equal(g, h) -> bool:
    """Same map up to renaming darts, with edge labels preserved."""
    if sorted(e.label for e in g.edges) != sorted(e.label for e in h.edges):
        return False
    by_label = {e.label: e for e in h.edges}
    phi = {}
    for e in g.edges:
        phi[e.tail], phi[e.head] = by_label[e.label].tail, by_label[e.label].head
    next_g = {rot[j - 1]: rot[j] for rot in g.rotations for j in range(len(rot))}
    next_h = {rot[j - 1]: rot[j] for rot in h.rotations for j in range(len(rot))}
    return all(phi[next_g[d]] == next_h[phi[d]] for d in phi)


def is_reduction(g, reduced, label: str) -> bool:
    """One edge fewer, the named one gone, and still a valid map."""
    rest = sorted(e.label for e in g.edges if e.label != label)
    return sorted(e.label for e in reduced.edges) == rest and is_alternating(reduced)


def relabel(g, rng):
    """An isomorphic copy: darts renamed, edges and vertices reordered,
    each vertex cycle rotated."""
    darts = [d for e in g.edges for d in (e.tail, e.head)]
    names = dict(zip(darts, (int(x) for x in rng.permutation(len(darts)) + 7)))
    edges = [type(e)(e.label, names[e.tail], names[e.head]) for e in g.edges]
    rotations = []
    for rot in g.rotations:
        shift = int(rng.integers(len(rot)))
        rotations.append(tuple(names[d] for d in rot[shift:] + rot[:shift]))
    edge_order = rng.permutation(len(edges))
    vertex_order = rng.permutation(len(rotations))
    return type(g)(tuple(edges[i] for i in edge_order), tuple(rotations[i] for i in vertex_order))
