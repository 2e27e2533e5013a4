"""Seeded input generators for the benchmark.

The first four generators are copies of the ones in `tests/helpers.py`, kept
here so that an edit to a test cannot silently change the benchmark's inputs.
The rest build the cone-order inputs; the floating-point Perron vector is
used only to pick and label inputs, never to decide anything the library is
asked.
"""

from __future__ import annotations

import random

from sftkit.graphs import Graph, classify, from_adjacency
from sftkit.linalg import Matrix
from sftkit.moves import EdgePartition


def random_adjacency(rng: random.Random, n: int, entry_max: int) -> Matrix:
    return Matrix.from_rows(
        [[rng.randrange(0, entry_max + 1) for _ in range(n)] for _ in range(n)]
    )


def random_irreducible_nontrivial(
    rng: random.Random, n_max: int, entry_max: int
) -> Graph:
    """Rejection-sample a strongly connected graph that is not a single cycle."""
    while True:
        n = rng.randrange(1, n_max + 1)
        g = from_adjacency(random_adjacency(rng, n, entry_max))
        r = classify(g)
        if r.irreducible and not r.trivial:
            return g


def random_sink_free(rng: random.Random, n_max: int, entry_max: int) -> Graph:
    """A graph in which every vertex emits at least one edge."""
    while True:
        n = rng.randrange(1, n_max + 1)
        m = random_adjacency(rng, n, entry_max)
        if all(any(x != 0 for x in m.row(i)) for i in range(n)):
            return from_adjacency(m)


def random_out_partition(rng: random.Random, g: Graph) -> EdgePartition:
    return _random_partition(rng, g, incoming=False)


def random_in_partition(rng: random.Random, g: Graph) -> EdgePartition:
    return _random_partition(rng, g, incoming=True)


def _random_partition(rng: random.Random, g: Graph, incoming: bool) -> EdgePartition:
    entries = []
    for v in g.vertices:
        ids = [e.id for e in (g.in_edges(v) if incoming else g.out_edges(v))]
        if not ids:
            continue
        rng.shuffle(ids)
        if len(ids) > 1 and rng.random() < 0.7:
            cut = rng.randrange(1, len(ids))
            blocks = (tuple(sorted(ids[:cut])), tuple(sorted(ids[cut:])))
        else:
            blocks = (tuple(sorted(ids)),)
        entries.append((v, blocks))
    return EdgePartition(tuple(entries))


# ---------------------------------------------------------------------------
# Cone-order inputs (plain integer lists; no library calls)
# ---------------------------------------------------------------------------


def strongly_connected(rows: list[list[int]]) -> bool:
    n = len(rows)

    def reaches_all(step) -> bool:
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for w in range(n):
                if step(v, w) and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == n

    return n > 0 and reaches_all(lambda v, w: rows[v][w]) and reaches_all(
        lambda v, w: rows[w][v]
    )


def random_primitive_01(rng: random.Random, n: int, degree: float) -> list[list[int]]:
    """Strongly connected 0/1 matrix of size n with a loop, so primitive.

    About `degree` arcs leave each vertex.  Primitivity makes the Perron
    pairing sign alone decide cone membership, which the checks rely on.
    """
    p = min(1.0, degree / n)
    while True:
        rows = [[1 if rng.random() < p else 0 for _ in range(n)] for _ in range(n)]
        if any(rows[i][i] for i in range(n)) and strongly_connected(rows):
            return rows


def random_primitive_small(rng: random.Random, n_max: int, entry_max: int) -> list[list[int]]:
    """Strongly connected matrix with a loop (hence primitive), size <= n_max."""
    while True:
        n = rng.randrange(1, n_max + 1)
        rows = [[rng.randrange(0, entry_max + 1) for _ in range(n)] for _ in range(n)]
        if any(rows[i][i] for i in range(n)) and strongly_connected(rows):
            return rows


def perron_weights(acting: list[list[int]], max_iterations: int = 5000) -> list[float]:
    """Left Perron vector of an irreducible acting matrix M, approximately.

    Power iteration on M + I (primitive whenever M is irreducible), acting on
    row vectors: w <- w (M + I), until the iterates stop moving.
    """
    n = len(acting)
    cols = [[(i, acting[i][j]) for i in range(n) if acting[i][j]] for j in range(n)]
    w = [1.0 / n] * n
    for _ in range(max_iterations):
        nw = [w[j] + sum(w[i] * x for i, x in cols[j]) for j in range(n)]
        s = sum(nw)
        nw = [x / s for x in nw]
        if max(abs(p - q) for p, q in zip(nw, w)) < 1e-15:
            return nw
        w = nw
    return w


def vector_with_pairing(
    rng: random.Random, w: list[float], negative: bool, entry_max: int, margin: float
) -> tuple[int, ...]:
    """Small integer vector whose pairing with w has the requested sign by a margin.

    The margin is relative to sum |v_i| * max(w), so float error cannot flip
    the sign of the pairing for the sizes used here.
    """
    top = max(w)
    while True:
        v = tuple(rng.randint(-entry_max, entry_max) for _ in range(len(w)))
        scale = sum(abs(x) for x in v) * top
        if scale == 0:
            continue
        s = sum(a * b for a, b in zip(w, v)) / scale
        if (s < -margin) if negative else (s > margin):
            return v


def transpose_rows(rows: list[list[int]]) -> list[list[int]]:
    return [list(col) for col in zip(*rows)]


def kron_rows(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    return [
        [x * y for x in ra for y in rb]
        for ra in a
        for rb in b
    ]
