"""Graph representation, classification, essentialization, and JSON/DOT."""

from __future__ import annotations

import random
import re
import time
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from helpers import (
    cycle_ahead_and_behind,
    purely_infinite_simple_oracle,
    random_adjacency,
    reach_oracle,
    replace,
)

from sftkit import graphs, linalg
from sftkit.dimension import (
    DimElement,
    DimensionTriple,
    NotInCone,
    Unknown,
    dg_positive,
    from_graph,
)
from sftkit.errors import InvalidMatrix, ParseError, SftkitError
from sftkit.graphs import (
    Edge,
    Graph,
    GraphReport,
    classify,
    essentialize,
    from_adjacency,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    named_adjacency,
    payload_from_json,
    transpose,
)
from sftkit.invariants import bratteli, bratteli_to_dot, flow_equivalent
from sftkit.linalg import Matrix, carries_cycle, strong_components, support_digraph


def _graph(rows) -> Graph:
    return from_adjacency(Matrix.from_rows(rows))


def test_from_adjacency_roundtrip():
    rng = random.Random(21)
    for _ in range(25):
        m = random_adjacency(rng, rng.randrange(1, 5), 3)
        assert from_adjacency(m).adjacency() == m


def test_adjacency_is_built_once_per_graph():
    # the graph-level questions ask one graph for its matrix again and again;
    # it is built once, and its entries still count the edges
    rng = random.Random(22)
    for _ in range(25):
        m = random_adjacency(rng, rng.randrange(1, 5), 3)
        g = from_adjacency(m)
        g = Graph(g.vertices, tuple(reversed(g.edges)))
        a = g.adjacency()
        assert g.adjacency() is a
        counts = Counter((e.src, e.dst) for e in g.edges)
        assert a.rows == tuple(tuple(counts[u, v] for v in g.vertices) for u in g.vertices)
        assert a == m


def test_from_adjacency_rejects_bad_matrices():
    with pytest.raises(InvalidMatrix):
        from_adjacency(Matrix.from_rows([[1, -1], [0, 0]]))
    with pytest.raises(InvalidMatrix):
        from_adjacency(Matrix.from_rows([[1, 2, 0], [0, 0, 1]]))


def test_edge_naming_row_major():
    g = _graph([[1, 2], [1, 0]])
    assert [e.id for e in g.edges] == ["e1", "e2", "e3", "e4"]
    assert g.edge("e2").src == "v1" and g.edge("e2").dst == "v2"
    assert g.edge("e4").src == "v2" and g.edge("e4").dst == "v1"
    with pytest.raises(ParseError):
        g.edge("e9")


def test_edge_lookup_by_id():
    g = _graph([[1, 2], [1, 0]])
    assert [g.edge(e.id) for e in g.edges] == list(g.edges)
    assert g.has_edge("e3") and not g.has_edge("e9") and not g.has_edge("v1")
    with pytest.raises(ParseError, match="'e9' is not an edge of this graph"):
        g.edge("e9")


def test_vertex_lookup():
    # answered from the cached incidence table, which has every vertex as a
    # key, edgeless or isolated ones included
    for g in (_graph([[1, 2], [1, 0]]), Graph(("a", "b", "c"), ()), _graph([[0]])):
        assert all(g.has_vertex(v) for v in g.vertices)
        assert not g.has_vertex("e1") and not g.has_vertex("zz")


def test_duplicate_names_rejected():
    with pytest.raises(ParseError):
        Graph(("a", "a"), ())
    with pytest.raises(ParseError):
        Graph(("a", "b"), (Edge("a", "b", "e"), Edge("b", "a", "e")))
    with pytest.raises(ParseError):
        Graph(("a",), (Edge("a", "missing", "e"),))


def test_endpoint_error_names_the_first_edge_outside():
    inside = Edge("a", "b", "in")
    for edges, named in (
        ((inside, Edge("a", "x", "d"), Edge("x", "a", "s")), "d"),
        ((inside, Edge("x", "a", "s"), Edge("a", "x", "d")), "s"),
        ((Edge("x", "y", "both"), inside), "both"),
    ):
        message = f"^edge '{named}' has endpoint outside the vertex set$"
        with pytest.raises(ParseError, match=message):
            Graph(("a", "b"), edges)
    assert Graph(("a", "b"), (inside,)).edges == (inside,)


def test_checked_adjacency_messages():
    for rows, message in (
        ([[1, 2, 0], [0, 0, 1]], "adjacency matrix must be square"),
        ([[1, -1], [0, 0]], "adjacency entries must be nonnegative integers"),
        ([[1, Fraction(1, 2)], [0, 0]], "adjacency entries must be nonnegative integers"),
        (Matrix(((1, Fraction(-1, 1)), (0, 0))), "adjacency entries must be nonnegative integers"),
    ):
        with pytest.raises(InvalidMatrix, match=f"^{message}$"):
            named_adjacency(rows)
    assert named_adjacency(Matrix(((True, Fraction(2, 1)), (0, 0))))[0] == ("v1", "v2")


def test_classification_flags():
    full = classify(_graph([[1, 2], [1, 0]]))
    assert full.essential and full.irreducible and not full.trivial
    assert full.purely_infinite_simple and full.strongly_graded

    single_loop = classify(_graph([[1]]))
    assert single_loop.irreducible and single_loop.trivial
    assert not single_loop.purely_infinite_simple

    two_cycle = classify(_graph([[0, 1], [1, 0]]))
    assert two_cycle.irreducible and two_cycle.trivial

    with_sink = classify(_graph([[0, 1], [0, 0]]))
    assert with_sink.sinks == ("v2",)
    assert with_sink.sources == ("v1",)
    assert not with_sink.essential
    assert not with_sink.strongly_graded


def test_classify_matches_transitive_closure_oracle():
    rng = random.Random(25)
    seen = {"sources_and_sinks": 0, "irreducible": 0, "trivial": 0, "pis": 0,
            "reducible_pis": 0}
    for _ in range(400):
        n = rng.randrange(0, 8)
        m = Matrix.from_rows(
            [[rng.choice((0, 0, 0, 1, 2)) for _ in range(n)] for _ in range(n)]
        )
        reach = reach_oracle(m)
        adj = support_digraph(m)
        on_cycles = {v for c in strong_components(adj) if carries_cycle(c, adj) for v in c}
        assert on_cycles == {i for i in range(n) if reach[i][i]}
        r = classify(from_adjacency(m))
        irreducible = n > 0 and all(all(row) for row in reach)
        assert r.irreducible == irreducible
        # one cycle through every vertex: irreducible with every out-degree 1
        trivial = irreducible and all(sum(m.row(i)) == 1 for i in range(n))
        assert r.trivial == trivial
        assert r.purely_infinite_simple == purely_infinite_simple_oracle(m)
        seen["sources_and_sinks"] += bool(r.sources and r.sinks)
        seen["irreducible"] += irreducible
        seen["trivial"] += trivial
        seen["pis"] += r.purely_infinite_simple
        seen["reducible_pis"] += r.purely_infinite_simple and not irreducible
    assert min(seen.values()) >= 10, seen


def test_strongly_graded_iff_no_sinks():
    rng = random.Random(22)
    for _ in range(40):
        g = from_adjacency(random_adjacency(rng, rng.randrange(1, 5), 2))
        r = classify(g)
        assert r.strongly_graded == (len(r.sinks) == 0)


def test_transpose_swaps_sinks_and_sources():
    rng = random.Random(23)
    for _ in range(30):
        g = from_adjacency(random_adjacency(rng, rng.randrange(1, 5), 2))
        h = transpose(g)
        assert h.adjacency() == g.adjacency().transpose()
        assert set(classify(h).sinks) == set(classify(g).sources)
        assert set(classify(h).sources) == set(classify(g).sinks)


def test_every_cycle_has_exit_detection():
    # v1 has a loop with an exit, but v3's loop has none: not purely infinite simple
    g = _graph([[1, 1, 0], [0, 0, 1], [0, 0, 1]])
    assert not classify(g).purely_infinite_simple
    # two loops on one vertex: every cycle has an exit (the other loop)
    assert classify(_graph([[2]])).purely_infinite_simple




def test_essentialize_idempotent_and_essential():
    # essentialize keeps exactly the vertices with a cycle ahead and behind
    # (read off the closure), and the original edges among them in their
    # order.  Besides plain random matrices, each seeded graph cuts its
    # shuffled vertices into a random core, a path tail into or out of it,
    # isolated vertices and a disjoint cycle; every graph is also read back
    # as a payload with renamed vertices and shuffled vertex and edge order
    rng = random.Random(24)
    matrices = [random_adjacency(rng, rng.randrange(1, 5), 2) for _ in range(30)]
    for trial in range(320):
        n = rng.randint(1, 8)
        rows = [[0] * n for _ in range(n)]
        order = rng.sample(range(n), n)
        cuts = sorted(rng.choices(range(n + 1), k=3))
        core, tail, _isolated, ring = (order[i:j] for i, j in zip([0, *cuts], [*cuts, n]))
        for u in core:
            for w in core:
                rows[u][w] = rng.choice((0, 0, 1, 2))
        path = tail + core[:1] if trial % 2 else core[:1] + tail
        for u, w in [*zip(path, path[1:]), *zip(ring, ring[1:] + ring[:1])]:
            rows[u][w] = rng.choice((1, 2))
        if rng.random() < 0.3:
            rows[rng.randrange(n)][rng.randrange(n)] = rng.choice((1, 2))
        matrices.append(Matrix.from_rows(rows))
    seen = Counter()
    for m in matrices:
        g = from_adjacency(m)
        rename = dict(zip(g.vertices, (f"x{i}" for i in rng.sample(range(100), len(g.vertices)))))
        edges = [{"src": rename[e.src], "dst": rename[e.dst], "id": f"f{e.id}"} for e in g.edges]
        payload = {"vertices": rng.sample(list(rename.values()), len(rename)),
                   "edges": rng.sample(edges, len(edges))}
        for g in (g, graph_from_json(payload)):
            ahead, behind = cycle_ahead_and_behind(reach_oracle(g.adjacency()))
            kept = {v for v, x, y in zip(g.vertices, ahead, behind) if x and y}
            h = essentialize(g)
            assert h.vertices == tuple(v for v in g.vertices if v in kept)
            assert h.edges == tuple(e for e in g.edges if e.src in kept and e.dst in kept)
            assert essentialize(h) == h
            if h.vertices:
                r = classify(h)
                assert not r.sinks and not r.sources
            seen["empty" if not kept else "whole" if len(kept) == len(g.vertices) else "part"] += 1
            adj = support_digraph(h.adjacency())
            seen["two kept components"] += len(strong_components(adj)) > 1
    assert min(seen.values()) >= 60, seen
    # two 2,000-vertex path tails, one into and one out of a 2-cycle: the
    # cost follows the edges, not the square of the vertex count
    tail_in = [f"t{i}" for i in range(2000)]
    tail_out = [f"h{i}" for i in range(2000)]
    path = [*tail_in, "c0", "c1", *tail_out]
    edges = [Edge(u, w, f"p{i}") for i, (u, w) in enumerate(zip(path, path[1:]))]
    g = Graph(tuple(path), (*edges, Edge("c1", "c0", "back")))
    start = time.perf_counter()
    h = essentialize(g)
    assert time.perf_counter() - start < 1.0
    assert h.vertices == ("c0", "c1") and [e.id for e in h.edges] == ["p2000", "back"]


def test_one_strong_component_pass_per_question():
    # essentialize, classify and the Perron path of dg_positive read every
    # reachability answer off one strong_components call, wherever it is
    # looked up: graphs for the first two, linalg (isolate_perron_root) for
    # the last, irreducible or not
    g = _graph([[0, 1, 0, 0], [0, 1, 1, 0], [0, 1, 0, 1], [0, 0, 0, 0]])
    golden = DimensionTriple(Matrix.from_rows([[1, 1], [1, 0]]))
    # no iterate of (1, -2) is nonnegative: it pairs negatively with (phi, 1)
    questions = {
        "essentialize": (lambda: essentialize(g), Graph),
        "classify": (lambda: classify(g), GraphReport),
        "dg_positive": (lambda: dg_positive(golden, DimElement((1, -2), 0)), NotInCone),
        "dg_positive, reducible": (
            lambda: dg_positive(DimensionTriple(Matrix.from_rows([[1, 1], [0, 1]])),
                                DimElement((-1, 0), 0)),
            Unknown,
        ),
    }
    with mock.patch.object(
        graphs, "strong_components", wraps=graphs.strong_components
    ) as in_graphs, mock.patch.object(
        linalg, "strong_components", wraps=linalg.strong_components
    ) as in_linalg:
        for name, (ask, kind) in questions.items():
            in_graphs.reset_mock()
            in_linalg.reset_mock()
            assert isinstance(ask(), kind), name
            assert in_graphs.call_count + in_linalg.call_count == 1, name


def test_essentialize_can_empty_the_graph():
    h = essentialize(_graph([[0, 1], [0, 0]]))
    assert h.vertices == ()


def test_json_roundtrip_is_canonical():
    g = _graph([[1, 2], [1, 0]])
    j = graph_to_json(g)
    assert graph_to_json(graph_from_json(j)) == j
    # adjacency-only and bare-matrix forms load to the same graph
    assert graph_from_json({"adjacency": [[1, 2], [1, 0]]}).adjacency() == g.adjacency()
    assert graph_from_json([[1, 2], [1, 0]]).adjacency() == g.adjacency()


_PAYLOADS = [
    [[1, 2], [1, 0]], {"adjacency": [[1, 2], [1, 0]]}, [[2.0]], [[0]], [],
    {"adjacency": []}, [[]], [[1, 2], [1]], [[1.5]], [[True]], [[-1]], [[1, 2]],
    {"adjacency": None}, {"adjacency": 5}, {"adjacency": "ab"}, [["1"]], [None],
    {"adjacency": [[1]], "vertices": ["x"]}, {"vertices": [], "edges": []},
    {"vertices": ["a"], "edges": [{"src": "a", "dst": "a", "id": "x"}]},
    {"vertices": ["a"], "edges": [{"src": "b", "dst": "a", "id": "x"}]},
    {"unexpected": 1}, 5, "ab",
]


@pytest.mark.parametrize("payload", _PAYLOADS, ids=repr)
def test_payload_from_json_agrees_with_the_graph_it_skips(payload):
    # a matrix payload is read without building edges, yet every payload
    # gives the graph's vertex names and adjacency matrix, or the error
    # graph_from_json raises
    def outcome(load):
        try:
            return load(payload)
        except (InvalidMatrix, ParseError) as exc:
            return type(exc), str(exc)

    read = outcome(payload_from_json)
    if not isinstance(read, tuple):
        # only a graph object becomes a Graph; a matrix payload stays a Matrix
        assert isinstance(read, Graph) == ("vertices" in payload and "adjacency" not in payload)
        read = named_adjacency(read)
    assert read == outcome(lambda p: (graph_from_json(p).vertices, graph_from_json(p).adjacency()))


def test_dot_output_lists_every_edge():
    g = _graph([[1, 2], [1, 0]])
    dot = graph_to_dot(g)
    assert dot.startswith("digraph")
    assert dot.count("->") == 4
    assert '"v1" -> "v2"' in dot

    empty = Graph((), ())
    dot_empty = graph_to_dot(empty)
    assert dot_empty.startswith("digraph") and "->" not in dot_empty


def _matrix_with_gaps(rng: random.Random) -> Matrix:
    """n <= 6, entries 0..3, with up to two rows or columns set to zero."""
    n = rng.randrange(1, 7)
    rows = [[rng.randrange(4) for _ in range(n)] for _ in range(n)]
    for _ in range(rng.randrange(3)):
        i = rng.randrange(n)
        for j in range(n):
            if rng.random() < 0.5:
                rows[i][j] = 0
            else:
                rows[j][i] = 0
    return Matrix.from_rows(rows)


def _outcome(f, *args):
    try:
        return f(*args)
    except SftkitError as exc:
        return type(exc), str(exc)


def test_graph_level_functions_read_only_names_and_matrix():
    # a matrix and the graph from_adjacency builds from it give the same
    # answers and the same errors; a graph with other vertex names gives the
    # same answers with its names in place of v1..vn
    rng = random.Random(53)
    mats = [_matrix_with_gaps(rng) for _ in range(80)]
    seen = {"zero_row": 0, "zero_column": 0, "flow_true": 0, "flow_false": 0, "sink_free": 0}
    for m, other in zip(mats, mats[1:] + mats[:1]):
        g = from_adjacency(m)
        rename = dict(zip(g.vertices, rng.sample("abcdefgh", m.nrows)))
        h = Graph(tuple(rename.values()),
                  tuple(Edge(rename[e.src], rename[e.dst], e.id) for e in g.edges))

        def renamed(x):
            """x with v1..vn replaced by h's names: in a text, or in an error's message."""
            if isinstance(x, tuple):
                return x[0], renamed(x[1])
            return re.sub(r"\bv\d+\b", lambda mo: rename[mo.group()], x) if isinstance(x, str) else x

        r = classify(g)
        assert classify(m) == r
        assert classify(h) == replace(r, sinks=tuple(rename[v] for v in r.sinks),
                                      sources=tuple(rename[v] for v in r.sources))
        for partner in (other, m.transpose()):
            flow = _outcome(flow_equivalent, g, from_adjacency(partner))
            assert _outcome(flow_equivalent, m, partner) == flow
            assert _outcome(flow_equivalent, h, partner) == flow
            seen["flow_true"] += flow is True
            seen["flow_false"] += flow is False
        triple = _outcome(from_graph, g)
        assert _outcome(from_graph, m) == triple
        assert _outcome(from_graph, h) == renamed(triple)
        d = _outcome(bratteli, g, 3)
        assert _outcome(bratteli, m, 3) == d
        assert _outcome(bratteli, h, 3) == renamed(d)
        if not isinstance(d, tuple):
            dot = bratteli_to_dot(g, d)
            assert bratteli_to_dot(m, d) == dot
            assert bratteli_to_dot(h, d) == renamed(dot)
        seen["zero_row"] += bool(r.sinks)
        seen["zero_column"] += bool(r.sources)
        seen["sink_free"] += not isinstance(d, tuple)
    assert min(seen.values()) >= 5, seen


_DOT_STRING = re.compile(r'"(?:[^"\\]|\\.)*"')


def _dot_strings(line: str) -> list[str]:
    """The quoted strings of a DOT line, unescaped; every double quote must open or close one."""
    assert '"' not in _DOT_STRING.sub("", line), line
    return [re.sub(r"\\(.)", r"\1", s[1:-1]) for s in _DOT_STRING.findall(line)]


def test_dot_quotes_names_with_quotes_and_backslashes():
    rng = random.Random(37)
    for _ in range(40):
        m = random_adjacency(rng, rng.randrange(1, 5), 2)
        while True:
            names = ["".join(rng.choice('ab"\\ @:-;') for _ in range(rng.randrange(1, 5)))
                     for _ in range(m.nrows)]
            if len(set(names)) == len(names):
                break
        rename = dict(zip(from_adjacency(m).vertices, names))
        g = Graph(tuple(names), tuple(Edge(rename[e.src], rename[e.dst], e.id + rng.choice('"\\'))
                                      for e in from_adjacency(m).edges))
        lines = graph_to_dot(g).splitlines()[1:-1]
        expected = [[v] for v in g.vertices] + [[e.src, e.dst, e.id] for e in g.edges]
        assert [_dot_strings(line) for line in lines] == expected
        if classify(g).sinks:
            continue
        d = bratteli(g, 2)
        lines = bratteli_to_dot(g, d).splitlines()[2:-1]
        ranks = [[s for v, x in zip(names, k) for s in (f"{v}@{n}", f"{v}:{x}")]
                 for n, k in enumerate(d.levels)]
        strands = [[f"{e.src}@{n}", f"{e.dst}@{n + 1}"] for n in range(2)
                   for e in sorted(g.edges, key=lambda e: (names.index(e.src), names.index(e.dst)))]
        assert [_dot_strings(line) for line in lines] == ranks + strands
