"""Finite directed multigraphs with ordered vertices and named edges.

A graph here is the presentation object for an edge shift: vertex order fixes
the adjacency matrix, and edges carry stable string ids so edge partitions,
splittings and term expressions can refer to them.  Parallel edges and loops
are allowed.

`classify` reads every structural flag, purely infinite simplicity (the
paper's hypothesis) included, off one strong-component pass
(`linalg.strong_components`): which components carry a cycle, which of them
are bare cycles, and which components reach a cycle-carrying one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from .errors import InvalidMatrix, ParseError
from .linalg import Matrix, carries_cycle, strong_components, support_digraph


@dataclass(frozen=True)
class Edge:
    src: str
    dst: str
    id: str


@dataclass(frozen=True)
class Graph:
    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        if len(set(self.vertices)) != len(self.vertices):
            raise ParseError("duplicate vertex names")
        ids = [e.id for e in self.edges]
        if len(set(ids)) != len(ids):
            raise ParseError("duplicate edge ids")
        vs = set(self.vertices)
        for e in self.edges:
            if e.src not in vs or e.dst not in vs:
                raise ParseError(f"edge {e.id!r} has endpoint outside the vertex set")

    # -- lookups -----------------------------------------------------------

    def has_vertex(self, v: str) -> bool:
        return v in self.vertices

    @cached_property
    def _edge_by_id(self) -> dict[str, Edge]:
        return {e.id: e for e in self.edges}

    def edge(self, edge_id: str) -> Edge:
        try:
            return self._edge_by_id[edge_id]
        except KeyError:
            raise ParseError(f"{edge_id!r} is not an edge of this graph") from None

    def has_edge(self, edge_id: str) -> bool:
        return edge_id in self._edge_by_id

    @cached_property
    def _incident(self) -> tuple[dict[str, tuple[Edge, ...]], dict[str, tuple[Edge, ...]]]:
        """Outgoing and incoming edges of each vertex, in edge order."""
        out: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        inc: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        for e in self.edges:
            out[e.src].append(e)
            inc[e.dst].append(e)
        return {v: tuple(es) for v, es in out.items()}, {v: tuple(es) for v, es in inc.items()}

    def out_edges(self, v: str) -> tuple[Edge, ...]:
        return self._incident[0].get(v, ())

    def in_edges(self, v: str) -> tuple[Edge, ...]:
        return self._incident[1].get(v, ())

    def sinks(self) -> tuple[str, ...]:
        return tuple(v for v in self.vertices if not self.out_edges(v))

    def sources(self) -> tuple[str, ...]:
        return tuple(v for v in self.vertices if not self.in_edges(v))

    def adjacency(self) -> Matrix:
        n = len(self.vertices)
        idx = {v: i for i, v in enumerate(self.vertices)}
        counts = [[0] * n for _ in range(n)]
        for e in self.edges:
            counts[idx[e.src]][idx[e.dst]] += 1
        return Matrix.from_rows(counts)


@dataclass(frozen=True)
class GraphReport:
    sinks: tuple[str, ...]
    sources: tuple[str, ...]
    essential: bool
    irreducible: bool
    trivial: bool
    purely_infinite_simple: bool
    strongly_graded: bool


def from_adjacency(m: Matrix | Iterable[Iterable[int]]) -> Graph:
    """Graph with vertices v1..vn and edges e1..ek numbered row-major.

    Entry (i, j) contributes that many parallel edges vi -> vj; edge ids are
    assigned in row-major order, multiplicities consecutively, so the same
    matrix always yields the identical graph.
    """
    m = _checked_adjacency(m)
    n = m.nrows
    vertices = tuple(f"v{i + 1}" for i in range(n))
    edges = []
    counter = 1
    for i in range(n):
        for j in range(n):
            for _ in range(m[i, j]):
                edges.append(Edge(vertices[i], vertices[j], f"e{counter}"))
                counter += 1
    return Graph(vertices, tuple(edges))


def _checked_adjacency(m: Matrix | Iterable[Iterable[int]]) -> Matrix:
    """m as a Matrix, checked to be square with nonnegative integer entries."""
    if not isinstance(m, Matrix):
        m = Matrix.from_rows(m)
    if not m.is_square:
        raise InvalidMatrix("adjacency matrix must be square")
    if not m.is_integral() or not m.is_nonnegative():
        raise InvalidMatrix("adjacency entries must be nonnegative integers")
    return m


def transpose(g: Graph) -> Graph:
    """Reverse every edge, keeping vertex order and edge ids."""
    return Graph(g.vertices, tuple(Edge(e.dst, e.src, e.id) for e in g.edges))


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def classify(g: Graph) -> GraphReport:
    """Structural report, every flag read off one strong-component pass.

    - `essential`: no sinks and no sources.
    - `irreducible`: one strong component, and it carries a cycle.
    - `trivial`: irreducible with as many edges as vertices.  Every vertex of
      an irreducible graph has in- and out-degree at least one, so |E| = |V|
      leaves exactly one cycle through all the vertices.
    - `purely_infinite_simple` (Abrams and Aranda Pino, for finite graphs:
      cofinal, every cycle has an exit, every vertex reaches a cycle):
      every vertex reaches a component that carries a cycle, no such
      component is a bare cycle (all its vertices emitting exactly one edge,
      parallel edges counted), and exactly one component carries a cycle,
      which is what makes the essential part (`essentialize`) irreducible.
    - `strongly_graded`: no sinks.
    """
    sinks = g.sinks()
    sources = g.sources()
    adj = support_digraph(g.adjacency())
    comps = strong_components(adj)
    cyclic = 0
    exits = True
    # components arrive sinks first, so every successor outside a component
    # is already settled when the component is reached
    reaches = [False] * len(adj)
    for comp in comps:
        hit = carries_cycle(comp, adj)
        if hit:
            cyclic += 1
            exits = exits and any(len(g.out_edges(g.vertices[v])) != 1 for v in comp)
        hit = hit or any(reaches[w] for v in comp for w in adj[v])
        for v in comp:
            reaches[v] = hit
    irreducible = len(comps) == 1 and cyclic == 1
    return GraphReport(
        sinks=sinks,
        sources=sources,
        essential=not sinks and not sources,
        irreducible=irreducible,
        trivial=irreducible and len(g.edges) == len(g.vertices),
        purely_infinite_simple=all(reaches) and exits and cyclic == 1,
        strongly_graded=not sinks,
    )


# ---------------------------------------------------------------------------
# Essentialization
# ---------------------------------------------------------------------------


def _drop(g: Graph, victims: set[str]) -> Graph:
    return Graph(
        tuple(w for w in g.vertices if w not in victims),
        tuple(e for e in g.edges if e.src not in victims and e.dst not in victims),
    )


def essentialize(g: Graph) -> Graph:
    """Alternate full sweeps deleting sources then sinks until both are gone.

    The result can be the empty graph (for instance, a directed path dies
    entirely).
    """
    cur = g
    while True:
        sources = set(cur.sources())
        if sources:
            cur = _drop(cur, sources)
            continue
        sinks = set(cur.sinks())
        if sinks:
            cur = _drop(cur, sinks)
            continue
        return cur


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def graph_to_json(g: Graph) -> dict:
    return {
        "vertices": list(g.vertices),
        "edges": [{"src": e.src, "dst": e.dst, "id": e.id} for e in g.edges],
    }


def _is_matrix_payload(obj) -> bool:
    """Is obj a bare matrix or an {"adjacency": ...} object?"""
    return isinstance(obj, (list, tuple)) or isinstance(obj, Mapping) and "adjacency" in obj


def graph_from_json(obj: Mapping | Iterable) -> Graph:
    """Accept either {"vertices": ..., "edges": ...}, {"adjacency": ...} or a bare matrix."""
    if _is_matrix_payload(obj):
        return from_adjacency(adjacency_from_json(obj))
    if not isinstance(obj, Mapping):
        raise ParseError("unsupported graph JSON payload")
    if "vertices" not in obj or "edges" not in obj:
        raise ParseError("graph object needs either 'adjacency' or 'vertices'+'edges'")
    vertices, edges = obj["vertices"], obj["edges"]
    if not isinstance(vertices, (list, tuple)) or not isinstance(edges, (list, tuple)):
        raise ParseError("graph 'vertices' and 'edges' must be arrays")
    try:
        edges = tuple(Edge(e["src"], e["dst"], e["id"]) for e in edges)
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed graph object: {exc}") from exc
    names = [*vertices, *(x for e in edges for x in (e.src, e.dst, e.id))]
    if not all(isinstance(x, str) for x in names):
        raise ParseError("vertex names and edge src, dst and id must be strings")
    g = Graph(tuple(vertices), edges)
    if not g.vertices:
        raise ParseError("graph has no vertices")
    return g


def adjacency_from_json(obj: Mapping | Iterable) -> Matrix:
    """The adjacency matrix of any payload `graph_from_json` accepts, with its errors.

    A matrix payload is checked as `from_adjacency` checks it, but no graph
    with one edge per unit of each entry is built; a graph object is.
    """
    if not _is_matrix_payload(obj):
        return graph_from_json(obj).adjacency()
    m = _checked_adjacency(_int_rows(obj["adjacency"] if isinstance(obj, Mapping) else obj))
    if not m.nrows:
        raise ParseError("graph has no vertices")
    return m


def _int_rows(rows) -> list[list[int]]:
    try:
        return [[_int_entry(x) for x in row] for row in rows]
    except TypeError as exc:
        raise InvalidMatrix(f"bad matrix payload: {exc}") from exc


def _int_entry(x) -> int:
    """An integer entry; integral floats are accepted, nothing else is coerced."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    if isinstance(x, float) and x.is_integer():
        return int(x)
    raise InvalidMatrix(f"matrix entries must be integers, got {x!r}")


def graph_from_json_text(text: str) -> Graph:
    try:
        return graph_from_json(json.loads(text))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc


def graph_to_dot(g: Graph) -> str:
    """DOT digraph with one arrow per edge, labeled by edge id."""
    lines = ["digraph {"]
    for v in g.vertices:
        lines.append(f'  "{v}";')
    for e in g.edges:
        lines.append(f'  "{e.src}" -> "{e.dst}" [label="{e.id}"];')
    lines.append("}")
    return "\n".join(lines)
