"""Splitting moves, product graphs, and bridge constructions."""

from __future__ import annotations

import hashlib
import json
import random

import pytest
from helpers import (
    kron_oracle,
    random_adjacency,
    random_in_partition,
    random_irreducible_nontrivial,
    random_out_partition,
    random_sink_free,
    replace,
)

from sftkit.equivalences import sse_witness_to_json, verify_esse
from sftkit.errors import BadPartition, NotAFactorization
from sftkit.graphs import Edge, Graph, classify, from_adjacency, graph_to_json, transpose
from sftkit.linalg import Matrix
from sftkit.moves import (
    BridgeGraph,
    EdgePartition,
    bridge_from_factorization,
    bridge_to_json,
    in_split,
    kronecker_product,
    out_split,
    partition_from_json,
    verify_bridge,
)
from sftkit.terms import format_element, in_split_family


def _m(rows) -> Matrix:
    return Matrix.from_rows(rows)


def _g(rows):
    return from_adjacency(_m(rows))


def test_out_split_two_blocks():
    g = _g([[1, 2], [1, 0]])
    p = EdgePartition((("v1", (("e1",), ("e2", "e3"))), ("v2", (("e4",),))))
    h, w = out_split(g, p)
    assert h.vertices == ("v1.1", "v1.2", "v2.1")
    assert h.adjacency() == _m([[1, 1, 0], [0, 0, 2], [1, 1, 0]])
    assert verify_esse(g.adjacency(), h.adjacency(), w)


def test_in_split_two_blocks():
    g = _g([[1, 2], [1, 0]])
    p = EdgePartition((("v1", (("e1",), ("e4",))), ("v2", (("e2", "e3"),))))
    h, w = in_split(g, p)
    assert h.vertices == ("v1.1", "v1.2", "v2.1")
    assert verify_esse(g.adjacency(), h.adjacency(), w)


def test_in_split_is_the_transposed_out_split_of_the_transpose():
    # in_split builds its graph directly, and it must equal the transposed
    # out-split of the transposed graph, on graphs with sinks and sources too
    rng = random.Random(58)
    for _ in range(150):
        g = from_adjacency(random_adjacency(rng, rng.randint(1, 5), 2))
        p = random_in_partition(rng, g)
        h, w = in_split(g, p)
        ht, wt = out_split(transpose(g), p)
        assert h.vertices == ht.vertices
        assert h.edges == transpose(ht).edges  # edge order, ids and endpoints
        assert (w.r, w.s) == (wt.s.transpose(), wt.r.transpose())


def test_in_split_partition_errors_name_the_incoming_side():
    g = _g([[1, 2], [1, 0]])  # e1: v1->v1, e2 e3: v1->v2, e4: v2->v1
    with pytest.raises(BadPartition, match="cover exactly the incoming vertices; missing"):
        in_split(g, EdgePartition((("v1", (("e1", "e4"),)),)))
    with pytest.raises(BadPartition, match="exactly its incoming-side edges"):
        in_split(g, EdgePartition((("v1", (("e1", "e2"),)), ("v2", (("e3", "e4"),)))))
    with pytest.raises(BadPartition, match="edge repeated across blocks at vertex 'v1'"):
        in_split(g, EdgePartition((("v1", (("e1",), ("e1", "e4"))), ("v2", (("e2", "e3"),)))))


def test_splits_random_witnesses_verify():
    rng = random.Random(51)
    for _ in range(30):
        g = random_sink_free(rng, 4, 2)
        h, w = out_split(g, random_out_partition(rng, g))
        assert verify_esse(g.adjacency(), h.adjacency(), w)
        h2, w2 = in_split(g, random_in_partition(rng, g))
        assert verify_esse(g.adjacency(), h2.adjacency(), w2)


def test_splits_preserve_classification_flags():
    rng = random.Random(52)
    for _ in range(15):
        g = random_irreducible_nontrivial(rng, 3, 2)
        rg = classify(g)
        h, _ = out_split(g, random_out_partition(rng, g))
        rh = classify(h)
        assert (rg.essential, rg.irreducible, rg.trivial) == (
            rh.essential,
            rh.irreducible,
            rh.trivial,
        )


def test_partition_validation():
    g = _g([[1, 2], [1, 0]])
    with pytest.raises(BadPartition):  # e4 missing at v2
        out_split(g, EdgePartition((("v1", (("e1", "e2", "e3"),)),)))
    with pytest.raises(BadPartition):  # e1 listed twice
        out_split(
            g,
            EdgePartition(
                (("v1", (("e1",), ("e1", "e2", "e3"))), ("v2", (("e4",),)))
            ),
        )
    with pytest.raises(BadPartition):  # empty block
        out_split(
            g,
            EdgePartition(
                (("v1", (("e1", "e2", "e3"), ())), ("v2", (("e4",),)))
            ),
        )
    with pytest.raises(BadPartition):  # edge assigned to the wrong vertex
        out_split(
            g,
            EdgePartition(
                (("v1", (("e1", "e2", "e4"),)), ("v2", (("e3",),)))
            ),
        )


def test_partition_json_roundtrip():
    g = _g([[1, 2], [1, 0]])
    p = EdgePartition((("v1", (("e1",), ("e2", "e3"))), ("v2", (("e4",),))))
    assert partition_from_json(
        [
            {"vertex": "v1", "blocks": [["e1"], ["e2", "e3"]]},
            {"vertex": "v2", "blocks": [["e4"]]},
        ]
    ) == p
    with pytest.raises(BadPartition):
        partition_from_json([{"vertex": "v1"}])


def test_blocks_at_lookup():
    p = EdgePartition((("v1", (("e1",), ("e2", "e3"))), ("v2", (("e4",),)), ("v1", (("e9",),))))
    assert p.blocks_at("v1") == (("e1",), ("e2", "e3"))  # the first listing wins
    assert p.blocks_at("v2") == (("e4",),)
    with pytest.raises(BadPartition, match="no blocks given for vertex 'v3'"):
        p.blocks_at("v3")


def test_kronecker_product_matches_oracle():
    rng = random.Random(53)
    for _ in range(15):
        a = from_adjacency(
            _m([[rng.randrange(0, 3) for _ in range(2)] for _ in range(2)])
        )
        b = from_adjacency(
            _m([[rng.randrange(0, 3) for _ in range(3)] for _ in range(3)])
        )
        k = kronecker_product(a, b)
        assert len(k.vertices) == 6
        assert k.adjacency() == kron_oracle(a.adjacency(), b.adjacency())


def test_bridge_from_factorization_verifies():
    a = _m([[1, 2], [1, 0]])
    r = _m([[1, 1, 0], [0, 0, 1]])
    s = _m([[1, 1], [0, 1], [1, 0]])
    bg = bridge_from_factorization(a, r, s)
    assert verify_bridge(bg)
    assert bg.e1.adjacency() == a
    assert bg.e2.adjacency() == s @ r
    assert len(bg.theta1) == len(bg.e1.edges)
    assert len(bg.theta2) == len(bg.e2.edges)
    # every bridge edge crosses between the classes
    c1, c2 = set(bg.class1), set(bg.class2)
    for e in bg.graph.edges:
        assert (e.src in c1) != (e.dst in c1)
        assert (e.src in c2) != (e.dst in c2)


def test_bridge_random_factorizations_verify():
    rng = random.Random(54)
    checked = 0
    while checked < 10:
        n, k = rng.randrange(1, 4), rng.randrange(1, 4)
        r = Matrix.from_rows(
            [[rng.randrange(0, 3) for _ in range(k)] for _ in range(n)]
        )
        s = Matrix.from_rows(
            [[rng.randrange(0, 3) for _ in range(n)] for _ in range(k)]
        )
        a = r @ s
        checked += 1
        assert verify_bridge(bridge_from_factorization(a, r, s))


def test_bridge_rejects_bad_factorization():
    a = _m([[1, 2], [1, 0]])
    with pytest.raises(NotAFactorization):
        bridge_from_factorization(a, _m([[1, 0], [0, 1]]), _m([[1, 1], [1, 1]]))
    with pytest.raises(NotAFactorization):
        bridge_from_factorization(a, _m([[1, 0, 0], [0, 1, 0]]), _m([[1, 1], [1, 1]]))


def _example_bridge() -> BridgeGraph:
    a = _m([[1, 2], [1, 0]])
    r = _m([[1, 1, 0], [0, 0, 1]])
    s = _m([[1, 1], [0, 1], [1, 0]])
    return bridge_from_factorization(a, r, s)


def _with_theta1(**changes):
    return lambda bg: replace(bg, theta1={**bg.theta1, **changes})


# each entry breaks one bridge condition of the example bridge, whose theta1
# is p1: u1 -> u1 to (x1, y1), p2 and p3: u1 -> u2 to (x1, y2) and (x2, y3),
# p4: u2 -> u1 to (x3, y4), and whose classes are (u1, u2) and (w1, w2, w3)
_TAMPERED = [
    ("path with another range", _with_theta1(p2=("x1", "y1"))),
    ("paths swapped between edges of other ranges", _with_theta1(p1=("x1", "y2"), p2=("x1", "y1"))),
    ("an extra factor edge shares a path", lambda bg: replace(
        bg, e1=Graph(bg.e1.vertices, bg.e1.edges + (Edge("u1", "u2", "p9"),)),
        theta1={**bg.theta1, "p9": ("x1", "y2")})),
    ("image with an unknown edge id", _with_theta1(p1=("x1", "nope"))),
    ("image with an unknown first edge id", _with_theta1(p1=("nope", "y1"))),
    ("path whose two edges do not compose", _with_theta1(p1=("x1", "x2"))),
    ("paths leaving their home class", lambda bg: replace(
        bg, e1=bg.e2, e2=bg.e1, theta1=bg.theta2, theta2=bg.theta1)),
    ("factor edge missing from theta", lambda bg: replace(
        bg, e1=Graph(bg.e1.vertices, bg.e1.edges + (Edge("u1", "u1", "p9"),)))),
    ("unknown edge id in theta2", lambda bg: replace(
        bg, theta2={**bg.theta2, "q1": ("y1", "nope")})),
    ("image with one edge id", _with_theta1(p1=("x1",))),
    ("image with three edge ids", _with_theta1(p1=("x1", "y1", "y2"))),
    ("image with an unhashable edge id", _with_theta1(p1=(["x1"], "y1"))),
    ("image that is one string", _with_theta1(p1="x1y1")),
    ("image that is None", _with_theta1(p1=None)),
    ("an empty class", lambda bg: replace(bg, class1=())),
    ("overlapping classes", lambda bg: replace(bg, class2=bg.class2 + ("u1",))),
    ("classes that miss a vertex", lambda bg: replace(bg, class2=bg.class2[:-1])),
    ("an edge that does not cross", lambda bg: replace(bg, graph=Graph(
        bg.graph.vertices, bg.graph.edges + (Edge("u1", "u2", "z1"),)))),
]


def test_tampered_bridge_fails_verification():
    bg = _example_bridge()
    assert verify_bridge(bg)
    assert bg.theta1 == {"p1": ("x1", "y1"), "p2": ("x1", "y2"), "p3": ("x2", "y3"), "p4": ("x3", "y4")}
    for label, tamper in _TAMPERED:
        bad = tamper(bg)
        assert bad != bg, label
        assert not verify_bridge(bad), label
    # an image given as a two-element list is still a pair of edge ids
    assert verify_bridge(_with_theta1(p1=["x1", "y1"])(bg))


# sha256 of the JSON outputs of the moves on seeded inputs, recorded before the
# bridge builder laid its factor edges out path by path and before the in-split
# family took its copy names from `moves`: bridge_to_json of 60 factorizations
# a = r s with n, k <= 4 and entries 0-2; the split graphs and witnesses of an
# out- and an in-split of 40 sink-free graphs; every in_split_family image of
# 30 sink-free graphs, formatted
_BRIDGES = "6a74578d77db5ed748f36e14d5734913fd641de8f7a75013f49235e3d157cf67"
_SPLITS = "076bf491b346d0d294e418c73bbad63e997c658cba89b501f9c48b44ded20fae"
_IN_SPLIT_FAMILIES = "197b3021cb13e4ab59bb088cdf3eaec5aec886413082c30ac001600287eda26e"


def _digest(found) -> str:
    return hashlib.sha256(json.dumps(found, separators=(",", ":")).encode()).hexdigest()


def test_bridges_are_pinned():
    rng = random.Random(55)
    found = []
    for _ in range(60):
        n, k = rng.randrange(1, 5), rng.randrange(1, 5)
        r = _m([[rng.randrange(0, 3) for _ in range(k)] for _ in range(n)])
        s = _m([[rng.randrange(0, 3) for _ in range(n)] for _ in range(k)])
        bg = bridge_from_factorization(r @ s, r, s)
        assert verify_bridge(bg)
        found.append(bridge_to_json(bg))
    assert _digest(found) == _BRIDGES


def test_splits_are_pinned():
    rng = random.Random(56)
    found = []
    for _ in range(40):
        g = random_sink_free(rng, 4, 2)
        for split, part in ((out_split, random_out_partition), (in_split, random_in_partition)):
            h, w = split(g, part(rng, g))
            found.append([graph_to_json(h), sse_witness_to_json(w)])
    assert _digest(found) == _SPLITS


def test_in_split_families_are_pinned():
    rng = random.Random(57)
    found = []
    for _ in range(30):
        g = random_sink_free(rng, 4, 2)
        h, fa = in_split_family(g, random_in_partition(rng, g))
        found.append([
            graph_to_json(h),
            [[name, format_element(x)] for images in
             (fa.vertex_images, fa.edge_images, fa.ghost_images) for name, x in images],
        ])
    assert _digest(found) == _IN_SPLIT_FAMILIES
