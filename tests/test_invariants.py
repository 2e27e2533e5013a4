"""Flow invariants: Bowen-Franks groups, determinant data, level diagrams."""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

import pytest
from helpers import (
    det_oracle,
    random_adjacency,
    random_in_partition,
    random_irreducible_nontrivial,
    random_out_partition,
)

from sftkit.errors import HasSinks, InvalidMatrix, NotIrreducibleNontrivial
from sftkit.graphs import from_adjacency, transpose
from sftkit.invariants import (
    AbelianGroupFP,
    bowen_franks,
    bratteli,
    bratteli_to_dot,
    char_poly_away_from_zero,
    det_i_minus_a,
    flow_equivalent,
    invariants_report,
)
from sftkit.linalg import Matrix, smith_normal_form
from sftkit.moves import in_split, out_split


def _m(rows) -> Matrix:
    return Matrix.from_rows(rows)


def test_bowen_franks_known_groups():
    assert bowen_franks(_m([[1, 2], [1, 0]])).describe() == "Z/2"
    assert bowen_franks(_m([[19, 5], [4, 1]])).describe() == "Z/20"
    assert bowen_franks(_m([[2]])).describe() == "0"
    assert bowen_franks(_m([[3]])).describe() == "Z/2"
    # I - A singular: infinite cyclic summand
    assert bowen_franks(_m([[1]])).describe() == "Z"
    assert bowen_franks(_m([[1, 0], [0, 1]])).describe() == "Z^2"


def test_det_values():
    assert det_i_minus_a(_m([[1, 2], [1, 0]])) == -2
    assert det_i_minus_a(_m([[19, 5], [4, 1]])) == -20
    assert det_i_minus_a(_m([[2]])) == -1
    assert det_i_minus_a(_m([[3]])) == -2


def test_det_matches_product_of_factors():
    rng = random.Random(31)
    for _ in range(40):
        a = random_adjacency(rng, rng.randrange(1, 5), 3)
        bf = bowen_franks(a)
        det = det_i_minus_a(a)
        if det != 0:
            prod = 1
            for f in bf.factors:
                prod *= f
            assert bf.free_rank == 0
            assert abs(det) == prod
        else:
            assert bf.free_rank >= 1


def test_flow_invariants_match_smith_form_and_cofactor_determinant():
    rng = random.Random(152)
    # what the elimination's first step must do: the first entry of least
    # absolute value lies off row 0 (row swap), off column 0 (column swap)
    # or is negative (row negation)
    first_steps = {"row swap": 0, "column swap": 0, "negation": 0}
    for _ in range(2000):
        n = rng.randint(1, 7)
        a = random_adjacency(rng, n, rng.randint(1, 3))
        i_minus_a = Matrix.identity(n) - a
        nonzero = [(abs(x), i, j, x) for i, row in enumerate(i_minus_a.rows)
                   for j, x in enumerate(row) if x]
        if nonzero:
            _, i, j, x = min(nonzero)
            first_steps["row swap"] += i != 0
            first_steps["column swap"] += j != 0
            first_steps["negation"] += x < 0
        assert det_i_minus_a(a) == det_oracle(i_minus_a)
        _, d, _ = smith_normal_form(i_minus_a)
        diag = [d[k, k] for k in range(n)]
        assert bowen_franks(a) == AbelianGroupFP(
            factors=tuple(x for x in diag if x > 1),
            free_rank=sum(1 for x in diag if x == 0),
        )
    assert min(first_steps.values()) >= 200, first_steps


def test_bowen_franks_transpose_invariant():
    rng = random.Random(32)
    for _ in range(30):
        a = random_adjacency(rng, rng.randrange(1, 5), 3)
        assert bowen_franks(a) == bowen_franks(a.transpose())
        assert det_i_minus_a(a) == det_i_minus_a(a.transpose())


def test_char_poly_away_from_zero_strips_powers_of_x():
    # [[1,1],[2,0]] and its one-vertex-split relatives share x^2 - x - 2
    p = char_poly_away_from_zero(_m([[1, 2], [1, 0]]))
    assert p.pretty() == "x^2 - x - 2"
    padded = _m([[1, 1, 1], [0, 0, 1], [1, 1, 0]])  # 3x3 with the same nonzero spectrum
    assert char_poly_away_from_zero(padded) == p
    assert char_poly_away_from_zero(_m([[0]])).pretty() == "1"


def test_flow_equivalent_decisions():
    g = from_adjacency(_m([[1, 2], [1, 0]]))
    assert flow_equivalent(g, transpose(g))
    assert not flow_equivalent(from_adjacency(_m([[2]])), from_adjacency(_m([[3]])))
    # same (trivial) BF group but opposite determinant signs: still not equivalent
    other = _m([[3, 1], [1, 2]])
    assert bowen_franks(_m([[2]])) == bowen_franks(other)
    assert det_i_minus_a(_m([[2]])) == -1 and det_i_minus_a(other) == 1
    assert not flow_equivalent(from_adjacency(_m([[2]])), from_adjacency(other))


def test_flow_equivalent_requires_irreducible_nontrivial():
    sink = from_adjacency(_m([[0, 1], [0, 0]]))
    good = from_adjacency(_m([[2]]))
    with pytest.raises(NotIrreducibleNontrivial):
        flow_equivalent(sink, good)
    cycle = from_adjacency(_m([[0, 1], [1, 0]]))
    with pytest.raises(NotIrreducibleNontrivial):
        flow_equivalent(cycle, good)


def test_flow_equivalence_is_reflexive_and_symmetric_on_corpus():
    rng = random.Random(33)
    corpus = [random_irreducible_nontrivial(rng, 3, 2) for _ in range(8)]
    for g in corpus:
        assert flow_equivalent(g, g)
    for g in corpus:
        for h in corpus:
            assert flow_equivalent(g, h) == flow_equivalent(h, g)


def test_bratteli_levels_and_path_count():
    g = from_adjacency(_m([[1, 2], [1, 0]]))
    d = bratteli(g, 4)
    assert d.depth == 4
    assert d.levels[0] == (1, 1)
    a = g.adjacency()
    ones = [Fraction(1)] * 2
    for n, level in enumerate(d.levels):
        total_paths = sum((a**n).apply(ones))
        assert sum(level) == total_paths


def test_bratteli_rejects_sinks():
    with pytest.raises(HasSinks):
        bratteli(from_adjacency(_m([[0, 1], [0, 0]])), 2)


@pytest.mark.parametrize("f", [bowen_franks, det_i_minus_a, char_poly_away_from_zero,
                               invariants_report])
def test_non_square_input_fails_the_one_adjacency_check(f):
    # the same error the CLI reports for `sftkit invariants '[[1,2]]'`
    with pytest.raises(InvalidMatrix, match="adjacency matrix must be square"):
        f(_m([[1, 2]]))


def test_bratteli_dot_has_ranked_rows_and_parallel_strands():
    g = from_adjacency(_m([[1, 2], [1, 0]]))
    d = bratteli(g, 3)
    dot = bratteli_to_dot(g, d)
    assert dot.count("rank=same") == 4
    # each step draws one strand per edge of the graph
    assert dot.count("->") == 3 * 4


def test_invariants_report_shape():
    rep = invariants_report(_m([[19, 5], [4, 1]]))
    assert rep["bf"] == {"factors": [20], "rank": 0}
    assert rep["bf_description"] == "Z/20"
    assert rep["det_i_minus_a"] == -20
    assert rep["char_poly_pretty"] == "x^2 - 20*x - 1"


# sha256 of the JSON list of the flow invariants of 120 seeded irreducible
# nontrivial graphs (n <= 5, entries 0..3), each with an out-split and an
# in-split by a random partition: the Bowen-Franks group and det(I - A) of
# every graph, and flow_equivalent against the split and against the next
# corpus graph; recorded while both invariants came from a full Smith form
# with U and V and a separate Bareiss determinant
_FLOW_INVARIANTS = "e5804bdde9c30427e770971ce7b3026da014b1b7667b5f6efb12712fe9fa1ec5"


def _flow_pin_cases():
    rng = random.Random(151)
    corpus = [random_irreducible_nontrivial(rng, 5, 3) for _ in range(120)]
    for k, g in enumerate(corpus):
        other = corpus[(k + 1) % len(corpus)]
        for split, part in ((out_split, random_out_partition), (in_split, random_in_partition)):
            h, _ = split(g, part(rng, g))
            yield g, h, other


def _flow_row(g, h, other):
    row = []
    for x in (g, h):
        a = x.adjacency()
        bf = bowen_franks(a)
        row += [list(bf.factors), bf.free_rank, det_i_minus_a(a)]
    return row + [flow_equivalent(g, h), flow_equivalent(h, other)]


def test_flow_invariants_are_pinned():
    found = [_flow_row(*case) for case in _flow_pin_cases()]
    assert len(found) == 240
    assert all(row[6] for row in found)  # a split is conjugate, hence flow equivalent
    digest = hashlib.sha256(json.dumps(found, separators=(",", ":")).encode()).hexdigest()
    assert digest == _FLOW_INVARIANTS
