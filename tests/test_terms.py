"""Term calculus: rewriting, grading, the summation relation, generating families."""

from __future__ import annotations

import random
import re
from fractions import Fraction
from unittest import mock

import pytest
from helpers import (
    parse_oracle,
    random_adjacency,
    random_expression,
    random_in_partition,
    random_sink_free,
    replace,
    rescan_reduce_oracle,
    rewrite_oracle,
)

from sftkit.errors import ParseError, SinkVertex, UnknownGenerator
from sftkit.graphs import from_adjacency
from sftkit.linalg import Matrix
from sftkit import terms
from sftkit.terms import (
    FamilyAssignment,
    WeightMap,
    ck2_expand,
    equal_mod_ck2,
    format_element,
    graded_decompose,
    in_split_family,
    multiply,
    parse_element,
    reduce,
    star,
    verify_family,
    vertex_element,
    word_element,
    zero_element,
)

# two vertices, edges e1: v1->v1, e2/e3: v1->v2, e4: v2->v1
_G = from_adjacency(Matrix.from_rows([[1, 2], [1, 0]]))


def _p(text):
    return parse_element(_G, text)


def _edge(e):
    return word_element(_G, (("e", e),))


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


def test_rewrite_pair_matches_the_relations():
    # every ordered pair of atoms of 200 seeded graphs with loops and
    # parallel edges, against the nine cases written out one by one
    rng = random.Random(70)
    pairs = 0
    for _ in range(200):
        g = from_adjacency(random_adjacency(rng, rng.randint(1, 4), 2))
        atoms = [("v", v) for v in g.vertices]
        atoms += [(kind, e.id) for e in g.edges for kind in ("e", "g")]
        for x in atoms:
            for y in atoms:
                assert terms._rewrite_pair(g, x, y) == rewrite_oracle(g, x, y), (x, y)
                pairs += 1
    assert pairs > 10_000


def test_reduce_is_idempotent_and_strategies_agree():
    rng = random.Random(71)
    for _ in range(150):
        x = word_element(_G, _random_word(rng, _G, rng.randrange(1, 8)))
        left = reduce(_G, x, "leftmost")
        right = reduce(_G, x, "rightmost")
        assert left == right
        assert reduce(_G, left) == left


def _fired_pairs(g, word, strategy):
    """The normal form of word and the atom pairs rewritten, in order."""
    fired = []
    inner = terms._rewrite_pair

    def recording(g, x, y):
        res = inner(g, x, y)
        if res is not None:
            fired.append((x, y))
        return res

    with mock.patch.object(terms, "_rewrite_pair", recording):
        return terms._reduce_word(g, word, strategy), fired


def test_stack_pass_fires_the_rewrites_of_a_rescan():
    # one vertex with three loops kills only e_i* e_j with i != j, so most
    # words take many rewrites; _G adds endpoint mismatches
    rng = random.Random(72)
    loops = from_adjacency(Matrix.from_rows([[3]]))
    rewrites = 0
    for _ in range(400):
        g = rng.choice((_G, loops))
        word = _random_word(rng, g, rng.randrange(0, 12))
        for strategy in ("leftmost", "rightmost"):
            found = _fired_pairs(g, word, strategy)
            assert found == rescan_reduce_oracle(g, word, strategy), (word, strategy)
            rewrites += len(found[1])
    assert rewrites > 1000


def test_rewrite_pair_calls_grow_linearly():
    # a rescan after every rewrite takes about n^2 / 2 pair checks on
    # e1^n v1^n (leftmost) and on its mirror v1^n e1^n (rightmost)
    g = from_adjacency(Matrix.from_rows([[2]]))
    e, v = ("e", "e1"), ("v", "v1")
    inner = terms._rewrite_pair
    for n in (100, 200, 400):
        for strategy, word in (("leftmost", (e,) * n + (v,) * n),
                               ("rightmost", (v,) * n + (e,) * n)):
            calls = []
            with mock.patch.object(terms, "_rewrite_pair",
                                   lambda *args: calls.append(args) or inner(*args)):
                assert terms._reduce_word(g, word, strategy) == (e,) * n
            assert len(calls) <= 3 * n, (strategy, n, len(calls))


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
    # a normal word is a lone vertex, or edges followed by ghost edges
    rng = random.Random(75)
    for _ in range(80):
        x = word_element(_G, _random_word(rng, _G, rng.randrange(1, 7)))
        for word in reduce(_G, x).terms:
            assert re.fullmatch("v|e+g*|g+", "".join(k for k, _ in word)), word
            assert all(_G.has_vertex(n) if k == "v" else _G.has_edge(n) for k, n in word)


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


def _identity_family(g):
    return FamilyAssignment.build(
        g,
        {v: vertex_element(g, v) for v in g.vertices},
        {e.id: word_element(g, (("e", e.id),)) for e in g.edges},
    )


def test_verify_family_identity():
    fa = _identity_family(_G)
    assert verify_family(fa, _G)
    assert fa.tstar("e1") == word_element(_G, (("g", "e1"),))


def test_missing_images_and_weights_raise_unknown_generator():
    fa = FamilyAssignment.build(
        _G, {"v1": vertex_element(_G, "v1")}, {"e1": _edge("e1")}
    )
    assert fa.q("v1") == vertex_element(_G, "v1") and fa.t("e1") == _edge("e1")
    for call, message in (
        (lambda: fa.q("v2"), "no image assigned to vertex 'v2'"),
        (lambda: fa.t("e2"), "no image assigned to edge 'e2'"),
        (lambda: fa.tstar("e2"), "no ghost image assigned to edge 'e2'"),
        (lambda: WeightMap.from_mapping(_G, {"e1": 1, "e3": 1}), "weights missing for edges: e2, e4"),
    ):
        with pytest.raises(UnknownGenerator) as exc:
            call()
        assert str(exc.value) == message


def test_verify_family_rejects_broken_images():
    edges = {e.id: _edge(e.id) for e in _G.edges}
    edges["e4"] = _edge("e2")  # wrong source and range
    fa = FamilyAssignment.build(
        _G, {v: vertex_element(_G, v) for v in _G.vertices}, edges
    )
    assert not verify_family(fa, _G)


def test_verify_family_rejects_dropped_summand():
    edges = {e.id: _edge(e.id) for e in _G.edges}
    edges["e3"] = zero_element()
    fa = FamilyAssignment.build(
        _G, {v: vertex_element(_G, v) for v in _G.vertices}, edges
    )
    assert not verify_family(fa, _G)


def _with_images(part, **changes):
    """The family with the named images of one part replaced, each given as text."""
    return lambda fa: replace(fa, **{part: tuple(
        (name, parse_element(fa.target, changes[name]) if name in changes else x)
        for name, x in getattr(fa, part)
    )})


# each entry breaks one relation of the identity family of _G and keeps every
# relation verify_family checks before it; e2: v1 -> v2, e4: v2 -> v1
_TAMPERED = [
    ("vertex images not orthogonal", _with_images("vertex_images", v2="v1")),
    ("edge image with another source", _with_images("edge_images", e4="e2")),
    ("ghost image with another range", _with_images("ghost_images", e2="e2")),
    ("ghost image not inverse to its edge", _with_images("ghost_images", e2="e3*")),
]


def test_tampered_family_fails_verification():
    fa = _identity_family(_G)
    for label, tamper in _TAMPERED:
        bad = tamper(fa)
        assert bad != fa, label
        assert not verify_family(bad, _G), label


def test_verify_family_checks_the_summation_identity_at_non_sinks_only():
    # one loop sent to one of the two loops of a vertex: every relation holds
    # but the summation identity, as e1 e1* + e2 e2* = v1 in the target
    one, two = from_adjacency(Matrix.from_rows([[1]])), from_adjacency(Matrix.from_rows([[2]]))
    assert not verify_family(_identity_family(two), one)
    # a sink has no summation identity: the empty sum is not its vertex image
    sink = from_adjacency(Matrix.from_rows([[0, 1], [0, 0]]))
    assert verify_family(_identity_family(sink), sink)


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
    # each rejection branch of the parser, with its message; the whole text
    # is tokenized before any term is read, so "$" beats the unknown "e9"
    for text, exc, message in [
        ("v1*", ParseError, "vertices are self-adjoint; write 'v1' without *"),
        ("e1 +", ParseError, "term without generators"),
        ("e1 + - e2", ParseError, "term without generators"),
        ("", ParseError, "empty expression"),
        ("   ", ParseError, "empty expression"),
        ("e1 e2* 3", ParseError, "expected + or - before '3'"),
        ("2 e1 + 1/0 e2", ParseError, "zero denominator in '1/0'"),
        ("$nope", ParseError, "cannot tokenize '$nope'"),
        ("e1 + #" + "x" * 30 + "  ", ParseError, "cannot tokenize '#" + "x" * 19 + "'"),
        ("e1 $ e9", ParseError, "cannot tokenize '$ e9'"),
        ("e9", UnknownGenerator, "'e9' is neither a vertex nor an edge"),
        ("e1 w1 3", UnknownGenerator, "'w1' is neither a vertex nor an edge"),
    ]:
        with pytest.raises(exc, match=f"^{re.escape(message)}$"):
            _p(text)


def test_parse_bare_scalar_is_a_multiple_of_the_unit():
    assert _p("2") == _p("2 v1 + 2 v2")
    assert _p("0").is_zero() and _p("e1 + 0") == _edge("e1")
    assert _p("e1 - 1/2") == _p("e1 - 1/2 v1 - 1/2 v2")


def test_parse_matches_the_oracle():
    # a seeded corpus over graphs with loops, parallel edges, a sink and
    # dotted names: the same element, or the same exception type
    graphs = [
        _G,
        from_adjacency(Matrix.from_rows([[1, 1, 0], [0, 0, 2], [0, 0, 0]])),
        in_split_family(_G, random_in_partition(random.Random(5), _G))[0],
    ]
    rng = random.Random(31)
    seen = {"parsed": 0, "raised": 0}
    for trial in range(1500):
        g = graphs[trial % len(graphs)]
        text = random_expression(rng, g)
        try:
            want = parse_oracle(g, text)
        except (ParseError, UnknownGenerator) as exc:
            with pytest.raises(type(exc)):
                parse_element(g, text)
            seen["raised"] += 1
            continue
        assert parse_element(g, text).terms == want, text
        seen["parsed"] += 1
    assert min(seen.values()) >= 300, seen


def test_parse_collects_each_term_once():
    # k distinct terms pass at most 2k pairs through `_collect`; summing one
    # term at a time re-collects the running sum, about k^2 / 2 pairs
    g = from_adjacency(Matrix.from_rows([[50]]))
    k = 2000
    text = " + ".join(f"e{1 + i // 50} e{1 + i % 50}*" for i in range(k))
    collect, passed = terms._collect, []

    def counting(pairs):
        pairs = list(pairs)
        passed.append(len(pairs))
        return collect(pairs)

    with mock.patch.object(terms, "_collect", counting):
        x = parse_element(g, text)
    assert len(x.terms) == k
    assert sum(passed) <= 2 * k, sum(passed)
