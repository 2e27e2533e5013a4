"""Finite directed multigraphs with ordered vertices and named edges.

A graph here is the presentation object for an edge shift: vertex order fixes
the adjacency matrix, and edges carry stable string ids so edge partitions,
splittings and term expressions can refer to them.  Parallel edges and loops
are allowed.

The graph-level questions (`classify` here, `invariants.flow_equivalent`,
`invariants.bratteli`, `dimension.from_graph`) take a graph or its adjacency
matrix, and read only vertex names and matrix (`named_adjacency`): sinks are
zero rows, sources zero columns, out-degrees row sums, and |E| the sum of the
entries.  A matrix payload (`payload_from_json`) therefore never becomes one
edge per unit of each entry unless edge ids are needed.

`classify` reads every structural flag, purely infinite simplicity (the
paper's hypothesis) included, off one strong-component pass
(`linalg.strong_components`): which components carry a cycle, which of them
are bare cycles, and which components reach a cycle-carrying one
(`linalg.reaches_cycle`).  `essentialize` reads the essential part off the
same pass: the vertices that reach a cycle in the graph and in its reverse,
which has the same components in the opposite order; its arcs come from the
edges, not the matrix, so a sparse graph costs O(V + E).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from functools import cached_property

from ._frozen import Frozen, _set
from .errors import HasSinks, InvalidMatrix, ParseError
from .linalg import Matrix, carries_cycle, reaches_cycle, strong_components, support_digraph


class Edge(Frozen):
    src: str
    dst: str
    id: str

    # built once per unit of every adjacency entry, so its methods are written out
    def __init__(self, src: str, dst: str, id: str) -> None:
        _set(self, "src", src)
        _set(self, "dst", dst)
        _set(self, "id", id)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.src, self.dst, self.id) == (other.src, other.dst, other.id)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.src, self.dst, self.id))


class Graph(Frozen):
    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        vs = set(self.vertices)
        if len(vs) != len(self.vertices):
            raise ParseError("duplicate vertex names")
        if len({e.id for e in self.edges}) != len(self.edges):
            raise ParseError("duplicate edge ids")
        # a loop: on CPython 3.11 it beats set.issuperset(map(attrgetter("src"), ...))
        for e in self.edges:
            if e.src not in vs or e.dst not in vs:
                raise ParseError(f"edge {e.id!r} has endpoint outside the vertex set")

    # -- lookups -----------------------------------------------------------

    def has_vertex(self, v: str) -> bool:
        return v in self._incident[0]  # every vertex is a key

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
    def _atom_ends(self) -> dict[tuple[str, str], tuple[str, str]]:
        """Start and end vertex of each term atom (`terms._ends`): ("v", v) from v
        to v, ("e", id) from its source to its range, ("g", id) the other way."""
        return {("v", v): (v, v) for v in self.vertices} | {
            (kind, e.id): ends for e in self.edges
            for kind, ends in (("e", (e.src, e.dst)), ("g", (e.dst, e.src)))
        }

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

    def adjacency(self) -> Matrix:
        """The adjacency matrix in vertex order, built once per graph (a Matrix is immutable)."""
        return self._adjacency

    @cached_property
    def _adjacency(self) -> Matrix:
        n = len(self.vertices)
        idx = {v: i for i, v in enumerate(self.vertices)}
        counts = [[0] * n for _ in range(n)]
        for e in self.edges:
            counts[idx[e.src]][idx[e.dst]] += 1
        return Matrix.from_rows(counts)


class GraphReport(Frozen):
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
    vertices, m = named_adjacency(m)
    edges = []
    for i, row in enumerate(m.rows):
        for j, x in enumerate(row):
            for _ in range(x):
                edges.append(Edge(vertices[i], vertices[j], f"e{len(edges) + 1}"))
    return Graph(vertices, tuple(edges))


def named_adjacency(g: Graph | Matrix | Iterable) -> tuple[tuple[str, ...], Matrix]:
    """Vertex names and adjacency matrix of a graph, or of a checked matrix.

    A matrix names its vertices v1..vn, as the graph `from_adjacency` builds
    from it does; this is the one place that rule is stated.
    """
    if isinstance(g, Graph):
        return g.vertices, g.adjacency()
    m = _checked_adjacency(g)
    return tuple(f"v{i + 1}" for i in range(m.nrows)), m


def _checked_adjacency(m: Matrix | Iterable[Iterable[int]]) -> Matrix:
    """m as a Matrix, checked to be square with nonnegative integer entries."""
    if not isinstance(m, Matrix):
        m = Matrix.from_rows(m)
    if not m.is_square:
        raise InvalidMatrix("adjacency matrix must be square")
    if not m.is_integral() or not m.is_nonnegative():
        raise InvalidMatrix("adjacency entries must be nonnegative integers")
    return m


def _zero_rows(names: tuple[str, ...], m: Matrix) -> tuple[str, ...]:
    return tuple(v for v, row in zip(names, m.rows) if not any(row))


def sink_free_adjacency(g: Graph | Matrix) -> Matrix:
    """The adjacency matrix of a graph in which every vertex emits an edge; HasSinks otherwise."""
    names, m = named_adjacency(g)
    if sinks := _zero_rows(names, m):
        raise HasSinks(f"graph has sinks: {', '.join(sinks)}")
    return m


def transpose(g: Graph) -> Graph:
    """Reverse every edge, keeping vertex order and edge ids."""
    return Graph(g.vertices, tuple(Edge(e.dst, e.src, e.id) for e in g.edges))


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def classify(g: Graph | Matrix) -> GraphReport:
    """Structural report of a graph or its matrix, every flag read off one strong-component pass.

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
    names, a = named_adjacency(g)
    sinks = _zero_rows(names, a)
    sources = _zero_rows(names, a.transpose())
    adj = support_digraph(a)
    comps = strong_components(adj)
    cycles = [comp for comp in comps if carries_cycle(comp, adj)]
    exits = all(any(sum(a.rows[v]) != 1 for v in comp) for comp in cycles)
    irreducible = len(comps) == 1 and len(cycles) == 1
    return GraphReport(  # positional: the keyword path of `Frozen` costs more per call
        sinks,
        sources,
        not sinks and not sources,  # essential
        irreducible,
        irreducible and sum(map(sum, a.rows)) == len(names),  # trivial
        all(reaches_cycle(adj, comps)) and exits and len(cycles) == 1,  # purely infinite simple
        not sinks,  # strongly graded
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
    """The essential part: the vertices on bi-infinite paths and the edges among them.

    A vertex is on a bi-infinite path when it reaches a cycle and a cycle
    reaches it, that is when it reaches a cycle in g and in its reverse.
    Both are read off one strong-component pass: the reverse has the same
    components, in the opposite (still sinks-first) order.  The arcs are read
    off the edges, one per edge (parallel edges repeat an arc), so the cost
    is O(V + E) however many vertices there are.  This is the
    largest subgraph without sinks or sources, what deleting sinks and
    sources until none is left gives; vertex and edge order are kept.  The
    result can be the empty graph (for instance, a directed path dies
    entirely).
    """
    idx = {v: i for i, v in enumerate(g.vertices)}
    adj = [[idx[e.dst] for e in g.out_edges(v)] for v in g.vertices]
    back = [[idx[e.src] for e in g.in_edges(v)] for v in g.vertices]
    comps = strong_components(adj)
    keep = zip(reaches_cycle(adj, comps), reaches_cycle(back, comps[::-1]))
    victims = {v for v, (ahead, behind) in zip(g.vertices, keep) if not (ahead and behind)}
    return _drop(g, victims) if victims else g


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def graph_to_json(g: Graph) -> dict:
    return {
        "vertices": list(g.vertices),
        "edges": [{"src": e.src, "dst": e.dst, "id": e.id} for e in g.edges],
    }


def payload_from_json(obj: Mapping | Iterable) -> Graph | Matrix:
    """A graph object {"vertices": ..., "edges": ...} as its Graph; a bare matrix
    or {"adjacency": ...} as its checked adjacency Matrix.

    A matrix payload is checked as `from_adjacency` checks it, but no graph
    with one edge per unit of each entry is built.
    """
    if isinstance(obj, (list, tuple)) or isinstance(obj, Mapping) and "adjacency" in obj:
        m = _checked_adjacency(_int_rows(obj["adjacency"] if isinstance(obj, Mapping) else obj))
        if not m.nrows:
            raise ParseError("graph has no vertices")
        return m
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


def graph_from_json(obj: Mapping | Iterable) -> Graph:
    """The Graph of a payload; a matrix payload gets the edges `from_adjacency` gives it."""
    g = payload_from_json(obj)
    return g if isinstance(g, Graph) else from_adjacency(g)


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


def dot_quote(s: str) -> str:
    """s as a DOT quoted string: each backslash and double quote escaped, nothing else changed."""
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def graph_to_dot(g: Graph) -> str:
    """DOT digraph with one arrow per edge, labeled by edge id."""
    lines = ["digraph {", *(f"  {dot_quote(v)};" for v in g.vertices)]
    lines += [f"  {dot_quote(e.src)} -> {dot_quote(e.dst)} [label={dot_quote(e.id)}];"
              for e in g.edges]
    lines.append("}")
    return "\n".join(lines)
