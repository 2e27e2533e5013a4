"""Graph representation, classification, essentialization, and JSON/DOT."""

from __future__ import annotations

import random

import pytest
from helpers import purely_infinite_simple_oracle, random_adjacency, reach_oracle

from sftkit.errors import InvalidMatrix, ParseError
from sftkit.graphs import (
    Edge,
    Graph,
    classify,
    essentialize,
    from_adjacency,
    graph_from_json,
    graph_from_json_text,
    graph_to_dot,
    graph_to_json,
    transpose,
)
from sftkit.linalg import Matrix, carries_cycle, strong_components, support_digraph


def _graph(rows) -> Graph:
    return from_adjacency(Matrix.from_rows(rows))


def test_from_adjacency_roundtrip():
    rng = random.Random(21)
    for _ in range(25):
        m = random_adjacency(rng, rng.randrange(1, 5), 3)
        assert from_adjacency(m).adjacency() == m


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


def test_duplicate_names_rejected():
    with pytest.raises(ParseError):
        Graph(("a", "a"), ())
    with pytest.raises(ParseError):
        Graph(("a", "b"), (Edge("a", "b", "e"), Edge("b", "a", "e")))
    with pytest.raises(ParseError):
        Graph(("a",), (Edge("a", "missing", "e"),))


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
    rng = random.Random(24)
    for _ in range(30):
        g = from_adjacency(random_adjacency(rng, rng.randrange(1, 5), 2))
        h = essentialize(g)
        assert essentialize(h).adjacency() == h.adjacency()
        if h.vertices:
            r = classify(h)
            assert not r.sinks and not r.sources


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


def test_json_text_errors():
    with pytest.raises(ParseError):
        graph_from_json_text("not json at all {")
    with pytest.raises(ParseError):
        graph_from_json_text('{"unexpected": 1}')


def test_dot_output_lists_every_edge():
    g = _graph([[1, 2], [1, 0]])
    dot = graph_to_dot(g)
    assert dot.startswith("digraph")
    assert dot.count("->") == 4
    assert '"v1" -> "v2"' in dot

    empty = Graph((), ())
    dot_empty = graph_to_dot(empty)
    assert dot_empty.startswith("digraph") and "->" not in dot_empty
