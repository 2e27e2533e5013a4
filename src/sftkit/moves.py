"""Graph moves: out-/in-splitting, graph products, and bridge graphs.

Splittings return the moved graph together with the elementary strong shift
equivalence witness relating the two adjacency matrices, so "this move
preserves conjugacy" is a checkable artifact, not a promise.  Both splits
are one construction (`_split`) that reads each edge in the caller's
orientation and builds one graph.  The witness is read off the split graph:
for an out-split R is copy membership, and since every copy of a vertex
receives the same edges, column w of S is the split graph's adjacency column
at the first copy of w; for an in-split, where every copy emits the same
edges, R is the adjacency rows at the first copies and S the transposed
membership.  An in-split is the transposed out-split of the transposed graph,
a tested identity rather than the construction.  `SSEWitness` is imported
where a split builds one, so `product` and the bridge moves load neither
`equivalences` nor the `invariants` it imports.  Bridge graphs package a matrix
factorization a = r s as a two-class graph whose crossing length-2 paths
biject with the edges of the factors: each factor edge is laid out from its
crossing path, path by path, together with its theta entry.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from functools import cached_property

from ._frozen import Frozen
from .errors import BadPartition, InvalidMatrix, NotAFactorization
from .graphs import Edge, Graph, graph_to_json
from .linalg import Matrix


class EdgePartition(Frozen):
    """Per-vertex partition of edge ids into ordered, labeled blocks."""

    blocks: tuple[tuple[str, tuple[tuple[str, ...], ...]], ...]

    def vertices(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.blocks)

    @cached_property
    def _blocks_by_vertex(self) -> dict[str, tuple[tuple[str, ...], ...]]:
        return dict(reversed(self.blocks))  # a vertex listed twice keeps its first blocks

    def blocks_at(self, v: str) -> tuple[tuple[str, ...], ...]:
        try:
            return self._blocks_by_vertex[v]
        except KeyError:
            raise BadPartition(f"no blocks given for vertex {v!r}") from None


def partition_from_json(obj) -> EdgePartition:
    """Read [{"vertex": v, "blocks": [[edge id, ...], ...]}, ...]; names must be
    strings and blocks arrays, nothing is coerced."""
    try:
        entries = [(entry["vertex"], entry["blocks"]) for entry in obj]
    except (KeyError, TypeError) as exc:
        raise BadPartition(f"malformed partition payload: {exc}") from exc
    array = (list, tuple)
    for v, blocks in entries:
        if not isinstance(v, str) or not isinstance(blocks, array) or not all(
            isinstance(b, array) and all(isinstance(e, str) for e in b) for b in blocks
        ):
            raise BadPartition(
                "malformed partition payload: each 'vertex' must be a string and "
                "its 'blocks' an array of arrays of edge ids"
            )
    return EdgePartition(tuple((v, tuple(tuple(b) for b in blocks)) for v, blocks in entries))


def _check_partition(p: EdgePartition, required: dict[str, set[str]], kind: str) -> None:
    given = p.vertices()
    if len(set(given)) != len(given):
        raise BadPartition("vertex listed twice in partition")
    if set(given) != set(required):
        missing = set(required) - set(given)
        extra = set(given) - set(required)
        raise BadPartition(
            f"partition must cover exactly the {kind} vertices"
            + (f"; missing {sorted(missing)}" if missing else "")
            + (f"; unexpected {sorted(extra)}" if extra else "")
        )
    for v, blocks in p.blocks:
        if not blocks or any(not b for b in blocks):
            raise BadPartition(f"empty block at vertex {v!r}")
        flat = [e for b in blocks for e in b]
        if len(set(flat)) != len(flat):
            raise BadPartition(f"edge repeated across blocks at vertex {v!r}")
        if set(flat) != required[v]:
            raise BadPartition(
                f"blocks at {v!r} must partition exactly its {kind}-side edges"
            )


def _block_of_edge(p: EdgePartition) -> dict[str, int]:
    """The index of the block holding each edge id of a checked partition."""
    return {e: i for _, blocks in p.blocks for i, block in enumerate(blocks) for e in block}


def _copy_name(name: str, i: int) -> str:
    """Name of copy i (counted from 0) of a split vertex or edge: name.(i + 1)."""
    return f"{name}.{i + 1}"


def out_split(g: Graph, p: EdgePartition) -> tuple[Graph, SSEWitness]:
    """Out-split g along a partition of each non-sink vertex's outgoing edges.

    Vertex v with m blocks becomes v.1 .. v.m (sinks stay put); the edge e in
    block i at s(e) becomes one copy e.j into each copy j of r(e).  The
    returned witness is (R, S) with R the 0/1 "division" matrix of vertex
    copies and S the block-edge count matrix: R S is the original adjacency
    and S R the split one.
    """
    return _split(g, p, "outgoing")


def in_split(g: Graph, p: EdgePartition) -> tuple[Graph, SSEWitness]:
    """In-split g along a partition of each non-source vertex's incoming edges.

    Vertex v with m blocks becomes v.1 .. v.m (sources stay put); the edge e
    in block i at r(e) becomes one copy e.j out of each copy j of s(e), all
    landing on r(e).i.  Witness orientation matches out_split: R S is the
    original adjacency, S R the split one; R is the split adjacency's rows at
    the first copies and S the transposed copy-membership matrix.

    An in-split is a transposed out-split: if out_split(transpose(g), p)
    returns (h, (R, S)), then in_split(g, p) returns (transpose(h), (S^T, R^T)).
    That identity is tested; no transposed graph is built.
    """
    return _split(g, p, "incoming")


def _split(g: Graph, p: EdgePartition, kind: str) -> tuple[Graph, SSEWitness]:
    """The split construction; `kind` ("outgoing" or "incoming") names the
    split side of each vertex's edges, in partition errors too."""
    from .equivalences import SSEWitness

    incoming = kind == "incoming"
    side = g.in_edges if incoming else g.out_edges
    required = {v: {e.id for e in side(v)} for v in g.vertices if side(v)}
    _check_partition(p, required, kind)
    block = _block_of_edge(p)

    copies = {
        v: [_copy_name(v, i) for i in range(len(p.blocks_at(v)))] if v in required else [v]
        for v in g.vertices
    }
    split_vertices = [name for names in copies.values() for name in names]

    split_edges: list[Edge] = []
    for e in g.edges:
        near, far = (e.dst, e.src) if incoming else (e.src, e.dst)
        here = copies[near][block[e.id]]
        for j, there in enumerate(copies[far]):
            eid = _copy_name(e.id, j)
            split_edges.append(Edge(there, here, eid) if incoming else Edge(here, there, eid))
    h = Graph(tuple(split_vertices), tuple(split_edges))

    d = Matrix.from_rows([[int(name in copies[v]) for name in split_vertices] for v in g.vertices])
    firsts = [row.index(1) for row in d.rows]
    a_h = h.adjacency()
    # every copy receives (out-split) or emits (in-split) the same edges, so
    # the split adjacency's columns or rows at the first copies are a factor
    at_firsts = Matrix(tuple(map(a_h.row if incoming else a_h.col, firsts)))
    r, s = (at_firsts, d.transpose()) if incoming else (d, at_firsts.transpose())
    assert r @ s == g.adjacency()
    assert s @ r == a_h
    return h, SSEWitness(r, s)


def kronecker_product(g: Graph, h: Graph) -> Graph:
    """Product graph: vertex pairs (lexicographic) and edge pairs.

    Its adjacency matrix is the Kronecker product of the two adjacency
    matrices, in the same vertex order.
    """
    vertices = tuple(f"{u}|{x}" for u in g.vertices for x in h.vertices)
    edges = tuple(
        Edge(f"{e.src}|{f.src}", f"{e.dst}|{f.dst}", f"{e.id}|{f.id}")
        for e in g.edges
        for f in h.edges
    )
    return Graph(vertices, edges)


# ---------------------------------------------------------------------------
# Bridge graphs
# ---------------------------------------------------------------------------


class BridgeGraph(Frozen):
    """Two-class graph realizing a = r s and b = s r as crossing paths.

    graph: all vertices and crossing edges; class1/class2: the two vertex
    classes; e1/e2: the factor graphs on each class; theta1/theta2: bijections
    from factor edges to the (first, second) crossing edge ids of length-2
    paths that start and end in the matching class.
    """

    graph: Graph
    class1: tuple[str, ...]
    class2: tuple[str, ...]
    e1: Graph
    e2: Graph
    theta1: dict[str, tuple[str, str]]
    theta2: dict[str, tuple[str, str]]


def bridge_from_factorization(a: Matrix, r: Matrix, s: Matrix) -> BridgeGraph:
    """Build the bridge graph of a factorization a = r s.

    Crossing edges x.. u_i -> w_l appear r[i, l] times and y.. w_l -> u_j
    appear s[l, j] times.  Each crossing length-2 path u_i -> w_l -> u_j
    gives one factor edge p.. u_i -> u_j with that path as its theta1 entry,
    laid out in lexicographic order ((i, j), middle vertex, then copy
    indices); the paths w -> u -> w give the q.. edges and theta2 the same
    way.  So e1 has adjacency a, e2 has s r, and the construction is
    deterministic.
    """
    for name, m in (("a", a), ("r", r), ("s", s)):
        if not m.is_integral() or not m.is_nonnegative():
            raise InvalidMatrix(f"matrix {name} must be nonnegative and integral")
    if not a.is_square:
        raise InvalidMatrix("matrix a must be square")
    n = a.nrows
    k = r.ncols
    if r.nrows != n or s.shape() != (k, n):
        raise NotAFactorization(
            f"shapes {r.shape()} x {s.shape()} cannot multiply to {n}x{n}"
        )
    if r @ s != a:
        raise NotAFactorization("r s differs from a")

    class1 = tuple(f"u{i + 1}" for i in range(n))
    class2 = tuple(f"w{l + 1}" for l in range(k))
    bridge_edges: list[Edge] = []

    def cross(m: Matrix, sources, ranges, prefix: str) -> list[list[list[str]]]:
        """Lay out m[i, l] edges sources[i] -> ranges[l], numbered row-major;
        returns their ids per (i, l)."""
        ids: list[list[list[str]]] = [[[] for _ in ranges] for _ in sources]
        number = itertools.count(1)
        for i, u in enumerate(sources):
            for l, w in enumerate(ranges):
                for _ in range(m[i, l]):
                    eid = f"{prefix}{next(number)}"
                    ids[i][l].append(eid)
                    bridge_edges.append(Edge(u, w, eid))
        return ids

    def factor(home, first, second, prefix: str) -> tuple[Graph, dict[str, tuple[str, str]]]:
        """The factor graph on `home` with its theta: one edge home[i] -> home[j]
        per crossing path first[i][l], second[l][j], for (i, j) row-major."""
        edges: list[Edge] = []
        theta: dict[str, tuple[str, str]] = {}
        for i, u in enumerate(home):
            for j, v in enumerate(home):
                for l, firsts in enumerate(first[i]):
                    for path in itertools.product(firsts, second[l][j]):
                        eid = f"{prefix}{len(edges) + 1}"
                        edges.append(Edge(u, v, eid))
                        theta[eid] = path
        return Graph(home, tuple(edges)), theta

    x = cross(r, class1, class2, "x")
    y = cross(s, class2, class1, "y")
    e1, theta1 = factor(class1, x, y, "p")
    e2, theta2 = factor(class2, y, x, "q")
    graph = Graph(class1 + class2, tuple(bridge_edges))
    return BridgeGraph(graph, class1, class2, e1, e2, theta1, theta2)


def verify_bridge(bg: BridgeGraph) -> bool:
    """Check the bridge conditions structurally.

    The classes must partition the vertices, every edge must cross between
    the classes, and each theta must biject the factor edges onto the
    crossing length-2 paths based in its class, preserving source and range.
    A theta image that is not a pair of edge ids makes the answer False.
    """
    g = bg.graph
    c1, c2 = set(bg.class1), set(bg.class2)
    if not c1 or not c2 or c1 & c2:
        return False
    if c1 | c2 != set(g.vertices):
        return False
    for e in g.edges:
        if (e.src in c1) == (e.dst in c1):
            return False

    def check_theta(
        factor: Graph, theta: Mapping[str, tuple[str, str]], home: set[str]
    ) -> bool:
        if set(theta) != {e.id for e in factor.edges}:
            return False
        all_paths = {
            (f1.id, f2.id)
            for v in home
            for f1 in g.out_edges(v)
            for f2 in g.out_edges(f1.dst)
            if f2.dst in home
        }
        images = set()
        for fid, image in theta.items():
            # a path of all_paths composes, and starts and ends in home
            try:
                first, second = image
                if (first, second) not in all_paths:
                    return False
            except (TypeError, ValueError):
                return False
            fe = factor.edge(fid)
            if g.edge(first).src != fe.src or g.edge(second).dst != fe.dst:
                return False
            images.add((first, second))
        return len(images) == len(theta) and images == all_paths

    return check_theta(bg.e1, bg.theta1, c1) and check_theta(bg.e2, bg.theta2, c2)


def bridge_to_json(bg: BridgeGraph) -> dict:
    return {
        "graph": graph_to_json(bg.graph),
        "class1": list(bg.class1),
        "class2": list(bg.class2),
        "e1": graph_to_json(bg.e1),
        "e2": graph_to_json(bg.e2),
        "theta1": {k: list(v) for k, v in bg.theta1.items()},
        "theta2": {k: list(v) for k, v in bg.theta2.items()},
    }
