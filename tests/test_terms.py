"""Term calculus: rewriting, grading, the summation relation, generating families."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from helpers import random_sink_free, random_in_partition

from sftkit.errors import ParseError, SinkVertex, UnknownGenerator
from sftkit.graphs import from_adjacency
from sftkit.linalg import Matrix
from sftkit.terms import (
    FamilyAssignment,
    WeightMap,
    ck2_expand,
    edge_element,
    equal_mod_ck2,
    format_element,
    ghost_element,
    graded_decompose,
    in_split_family,
    multiply,
    parse_element,
    reduce,
    star,
    verify_family,
    vertex_element,
    word_element,
    word_to_monomial,
    zero_element,
)

# two vertices, edges e1: v1->v1, e2/e3: v1->v2, e4: v2->v1
_G = from_adjacency(Matrix.from_rows([[1, 2], [1, 0]]))


def _p(text):
    return parse_element(_G, text)


def _random_word(rng: random.Random, g, length: int):
    atoms = []
    for _ in range(length):
        kind = rng.choice(["v", "e", "g"])
        if kind == "v":
            atoms.append(("v", rng.choice(g.vertices)))
        else:
            atoms.append((kind, rng.choice([e.id for e in g.edges])))
    return tuple(atoms)


def test_reduce_basic_relations():
    # a ghost followed by its own edge collapses to the range vertex
    assert reduce(_G, _p("e1* e1")) == _p("v1")
    assert reduce(_G, _p("e2* e2")) == _p("v2")
    # distinct parallel edges annihilate
    assert reduce(_G, _p("e2* e3")).is_zero()
    # mismatched endpoints kill the word
    assert reduce(_G, _p("e1 e4")).is_zero()
    # vertices act as local units
    assert reduce(_G, _p("v1 e1 v1")) == _p("e1")
    assert reduce(_G, _p("v2 e1")).is_zero()
    assert reduce(_G, _p("v1 v2")).is_zero()
    # a composable path is already in normal form
    assert reduce(_G, _p("e2 e4")) == _p("e2 e4")


def test_reduce_is_idempotent_and_strategies_agree():
    rng = random.Random(71)
    for _ in range(150):
        x = word_element(_G, _random_word(rng, _G, rng.randrange(1, 8)))
        left = reduce(_G, x, "leftmost")
        right = reduce(_G, x, "rightmost")
        assert left == right
        assert reduce(_G, left) == left


def test_reduce_unknown_strategy():
    with pytest.raises(ParseError):
        reduce(_G, _p("e1"), "sideways")


def test_reduce_is_linear():
    rng = random.Random(72)
    for _ in range(30):
        x = word_element(_G, _random_word(rng, _G, 4))
        y = word_element(_G, _random_word(rng, _G, 5))
        lhs = reduce(_G, x + y.scale(Fraction(2, 3)))
        rhs = reduce(_G, x) + reduce(_G, y).scale(Fraction(2, 3))
        assert lhs == rhs


def test_star_is_an_involution_and_antihomomorphism():
    rng = random.Random(73)
    for _ in range(40):
        x = word_element(_G, _random_word(rng, _G, 4))
        y = word_element(_G, _random_word(rng, _G, 4))
        assert star(star(x)) == x
        lhs = reduce(_G, star(multiply(_G, x, y)))
        rhs = multiply(_G, star(y), star(x))
        assert lhs == rhs


def test_multiply_is_associative():
    rng = random.Random(74)
    for _ in range(40):
        x = word_element(_G, _random_word(rng, _G, 3))
        y = word_element(_G, _random_word(rng, _G, 3))
        z = word_element(_G, _random_word(rng, _G, 3))
        assert multiply(_G, multiply(_G, x, y), z) == multiply(
            _G, x, multiply(_G, y, z)
        )


def test_normal_forms_are_monomials():
    rng = random.Random(75)
    for _ in range(80):
        x = word_element(_G, _random_word(rng, _G, rng.randrange(1, 7)))
        for word in reduce(_G, x).terms:
            m = word_to_monomial(_G, word)
            assert all(_G.has_edge(e) for e in m.mu)
            assert all(_G.has_edge(e) for e in m.gamma)
            assert _G.has_vertex(m.base)


def test_word_to_monomial_shape():
    word = (("e", "e1"), ("e", "e2"), ("g", "e3"))
    m = word_to_monomial(_G, word)
    assert m.mu == ("e1", "e2")
    assert m.gamma == ("e3",)
    assert m.base == "v2"


def test_graded_decompose_uniform():
    w = WeightMap.uniform(_G)
    x = _p("e1 + 2 e2 e3* + v1 - e4* ")
    parts = graded_decompose(_G, w, x)
    assert sorted(parts) == [Fraction(-1), Fraction(0), Fraction(1)]
    assert parts[Fraction(1)] == _p("e1")
    assert parts[Fraction(0)] == _p("2 e2 e3* + v1")
    assert parts[Fraction(-1)] == _p("-e4*")
    total = zero_element()
    for comp in parts.values():
        total = total + comp
    assert total == reduce(_G, x)


def test_graded_decompose_half_integer_weights():
    w = WeightMap.from_mapping(
        _G, {"e1": "1/2", "e2": 1, "e3": 1, "e4": "3/2"}
    )
    x = _p("e1 e1 + e2 e4 + e1 e2 e3*")
    parts = graded_decompose(_G, w, x)
    assert set(parts) == {Fraction(1, 2), Fraction(1), Fraction(5, 2)}
    assert parts[Fraction(1)] == _p("e1 e1")
    assert parts[Fraction(5, 2)] == _p("e2 e4")
    # every component is homogeneous
    for d, comp in parts.items():
        assert all(w.degree_of_word(word) == d for word in comp.terms)


def test_weight_map_validation():
    with pytest.raises(UnknownGenerator):
        WeightMap.from_mapping(_G, {"e1": 1, "e2": 1, "e3": 1})
    with pytest.raises(UnknownGenerator):
        WeightMap.from_mapping(_G, {"e1": 1, "e2": 1, "e3": 1, "e9": 1})


def test_reduce_preserves_degree():
    w = WeightMap.from_mapping(_G, {"e1": "1/2", "e2": 2, "e3": 2, "e4": 1})
    rng = random.Random(76)
    for _ in range(100):
        raw = _random_word(rng, _G, rng.randrange(1, 7))
        d = w.degree_of_word(raw)
        for word in reduce(_G, word_element(_G, raw)).terms:
            assert w.degree_of_word(word) == d


def test_ck2_expand_basic():
    two = from_adjacency(Matrix.from_rows([[2]]))
    x = ck2_expand(two, vertex_element(two, "v1"), "v1")
    assert x == parse_element(two, "e1 e1* + e2 e2*")
    # expanding again leaves already-expanded terms alone
    assert ck2_expand(two, x, "v1") == x


def test_ck2_expand_preserves_degree_and_class():
    w = WeightMap.uniform(_G)
    x = _p("v1 + e2 e3*")
    y = ck2_expand(_G, x, "v1")
    assert all(w.degree_of_word(word) == 0 for word in y.terms)
    assert equal_mod_ck2(_G, x, y)


def test_ck2_expand_errors():
    sink = from_adjacency(Matrix.from_rows([[0, 1], [0, 0]]))
    with pytest.raises(SinkVertex):
        ck2_expand(sink, vertex_element(sink, "v2"), "v2")
    with pytest.raises(UnknownGenerator):
        ck2_expand(_G, _p("v1"), "v9")


def test_equal_mod_ck2_decides_summation_identities():
    assert equal_mod_ck2(_G, _p("v1"), _p("e1 e1* + e2 e2* + e3 e3*"))
    assert equal_mod_ck2(_G, _p("v2"), _p("e4 e4*"))
    assert not equal_mod_ck2(_G, _p("v1"), _p("e1 e1* + e2 e2*"))
    assert not equal_mod_ck2(_G, _p("v1"), _p("v2"))
    # nested: the identity survives another round of expansion on one side
    deep = ck2_expand(_G, _p("e1 e1* + e2 e2* + e3 e3*"), "v1")
    assert equal_mod_ck2(_G, _p("v1"), deep)


def test_equal_mod_ck2_respects_plain_equality():
    rng = random.Random(77)
    for _ in range(30):
        x = word_element(_G, _random_word(rng, _G, 4))
        assert equal_mod_ck2(_G, x, reduce(_G, x))


def test_verify_family_identity():
    fa = FamilyAssignment.build(
        _G,
        {v: vertex_element(_G, v) for v in _G.vertices},
        {e.id: edge_element(_G, e.id) for e in _G.edges},
    )
    assert verify_family(fa, _G)
    assert fa.tstar("e1") == ghost_element(_G, "e1")


def test_missing_images_and_weights_raise_unknown_generator():
    fa = FamilyAssignment.build(
        _G, {"v1": vertex_element(_G, "v1")}, {"e1": edge_element(_G, "e1")}
    )
    assert fa.q("v1") == vertex_element(_G, "v1") and fa.t("e1") == edge_element(_G, "e1")
    for call, message in (
        (lambda: fa.q("v2"), "no image assigned to vertex 'v2'"),
        (lambda: fa.t("e2"), "no image assigned to edge 'e2'"),
        (lambda: fa.tstar("e2"), "no ghost image assigned to edge 'e2'"),
        (lambda: WeightMap((("e1", Fraction(1)),)).weight("e2"), "edge 'e2' has no weight"),
    ):
        with pytest.raises(UnknownGenerator) as exc:
            call()
        assert str(exc.value) == message
    assert WeightMap.uniform(_G).weight("e3") == 1


def test_verify_family_rejects_broken_images():
    edges = {e.id: edge_element(_G, e.id) for e in _G.edges}
    edges["e4"] = edge_element(_G, "e2")  # wrong source and range
    fa = FamilyAssignment.build(
        _G, {v: vertex_element(_G, v) for v in _G.vertices}, edges
    )
    assert not verify_family(fa, _G)


def test_verify_family_rejects_dropped_summand():
    edges = {e.id: edge_element(_G, e.id) for e in _G.edges}
    edges["e3"] = zero_element()
    fa = FamilyAssignment.build(
        _G, {v: vertex_element(_G, v) for v in _G.vertices}, edges
    )
    assert not verify_family(fa, _G)


def test_in_split_family_two_blocks():
    from sftkit.moves import partition_from_json

    p = partition_from_json(
        [
            {"vertex": "v1", "blocks": [["e1"], ["e4"]]},
            {"vertex": "v2", "blocks": [["e2", "e3"]]},
        ]
    )
    h, fa = in_split_family(_G, p)
    assert fa.target is h
    assert verify_family(fa, _G)


def test_in_split_family_random_graphs():
    rng = random.Random(78)
    done = 0
    while done < 6:
        g = random_sink_free(rng, 3, 2)
        if len(g.edges) > 5:
            continue
        p = random_in_partition(rng, g)
        _, fa = in_split_family(g, p)
        assert verify_family(fa, g)
        done += 1


def test_parse_and_format_roundtrip():
    for text in ("e1", "v1 + e2 e3*", "1/2 e1 - 2 e4* e1", "0"):
        x = _p(text)
        assert parse_element(_G, format_element(x)) == x
    assert format_element(zero_element()) == "0"
    assert format_element(_p("e1 - e2 e3*")) == "e1 - e2 e3*"
    assert format_element(_p("3/2 e1")) == "3/2 e1"


def test_parse_errors():
    with pytest.raises(ParseError):
        _p("v1*")  # vertices are self-adjoint
    with pytest.raises(ParseError):
        _p("e1 +")
    with pytest.raises(ParseError):
        _p("$nope")
    with pytest.raises(UnknownGenerator):
        _p("e9")
    with pytest.raises(UnknownGenerator):
        _p("w1")
