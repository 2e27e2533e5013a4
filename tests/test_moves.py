"""Splitting moves, product graphs, and bridge constructions."""

from __future__ import annotations

import random

import pytest
from helpers import (
    kron_oracle,
    random_in_partition,
    random_irreducible_nontrivial,
    random_out_partition,
    random_sink_free,
)

from sftkit.equivalences import verify_esse
from sftkit.errors import BadPartition, NotAFactorization
from sftkit.graphs import classify, from_adjacency
from sftkit.linalg import Matrix
from sftkit.moves import (
    BridgeGraph,
    EdgePartition,
    bridge_from_factorization,
    in_split,
    kronecker_product,
    out_split,
    partition_from_json,
    partition_to_json,
    trivial_in_partition,
    trivial_out_partition,
    verify_bridge,
)


def _m(rows) -> Matrix:
    return Matrix.from_rows(rows)


def _g(rows):
    return from_adjacency(_m(rows))


def test_trivial_partitions_reproduce_graph():
    g = _g([[1, 2], [1, 0]])
    h, w = out_split(g, trivial_out_partition(g))
    assert h.adjacency() == g.adjacency()
    assert verify_esse(g.adjacency(), h.adjacency(), w)
    h2, w2 = in_split(g, trivial_in_partition(g))
    assert h2.adjacency() == g.adjacency()
    assert verify_esse(g.adjacency(), h2.adjacency(), w2)


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
    assert partition_from_json(partition_to_json(p)) == p
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


def test_tampered_bridge_fails_verification():
    a = _m([[1, 2], [1, 0]])
    r = _m([[1, 1, 0], [0, 0, 1]])
    s = _m([[1, 1], [0, 1], [1, 0]])
    bg = bridge_from_factorization(a, r, s)
    ids = sorted(bg.theta1)
    first = bg.theta1[ids[0]]
    tampered = dict(bg.theta1)
    tampered[ids[1]] = first  # two factor edges now map to the same path
    bad = BridgeGraph(
        bg.graph, bg.class1, bg.class2, bg.e1, bg.e2, tampered, bg.theta2
    )
    assert not verify_bridge(bad)
