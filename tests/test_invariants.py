"""Flow invariants: Bowen-Franks groups, determinant data, level diagrams."""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from unittest import mock

import pytest
from helpers import (
    bowen_franks_oracle,
    char_poly_away_from_zero_oracle,
    det_oracle,
    random_adjacency,
    random_in_partition,
    random_irreducible_nontrivial,
    random_out_partition,
)

from sftkit import equivalences, invariants, linalg
from sftkit.equivalences import SSEWitness, verify_esse
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


# ---------------------------------------------------------------------------
# Amalgamation: the invariants of the merged matrix are those of the input
# ---------------------------------------------------------------------------


def _planted(rng: random.Random, n: int) -> Matrix:
    """A seeded n x n adjacency matrix with columns and rows copied from
    others, or zeroed, at random."""
    rows = [[rng.randrange(0, 3) for _ in range(n)] for _ in range(n)]
    for _ in range(rng.randrange(1, n + 1)):
        i, j = rng.randrange(n), rng.randrange(n)
        kind = rng.choice(["row", "column", "zero row", "zero column"])
        if kind == "row":
            rows[j] = list(rows[i])
        elif kind == "zero row":
            rows[j] = [0] * n
        else:
            for row in rows:
                row[j] = row[i] if kind == "column" else 0
    return Matrix.from_rows(rows)


def _all_invariants(a: Matrix) -> tuple:
    bf = bowen_franks(a)
    return bf.factors, bf.free_rank, det_i_minus_a(a), list(char_poly_away_from_zero(a).coeffs)


def _oracle_invariants(a: Matrix) -> tuple:
    return (*bowen_franks_oracle(a), char_poly_away_from_zero_oracle(a))


def _distinct_lines(m: Matrix) -> bool:
    return len(set(m.rows)) == m.nrows and len(set(zip(*m.rows))) == m.ncols


def test_planted_equal_lines_keep_the_oracle_invariants():
    rng = random.Random(240)
    shrunk = zero_lines = 0
    for _ in range(300):
        a = _planted(rng, rng.randint(1, 6))
        assert _all_invariants(a) == _oracle_invariants(a), a
        reduced = linalg._amalgamate(a)
        assert _distinct_lines(reduced)
        shrunk += reduced.nrows < a.nrows
        zero_lines += not all(map(any, a.rows)) or not all(map(any, zip(*a.rows)))
    assert shrunk >= 150 and zero_lines >= 50, (shrunk, zero_lines)


def test_splits_keep_the_base_invariants():
    # a split is strong shift equivalent to its base, so all three
    # invariants must match the base's and the oracle's; the in-split of the
    # out-split has equal rows and equal columns to merge
    rng = random.Random(241)
    for _ in range(40):
        g = random_irreducible_nontrivial(rng, 3, 2)
        base = g.adjacency()
        expected = _oracle_invariants(base)
        assert _all_invariants(base) == expected
        h = g
        for split, part in ((out_split, random_out_partition), (in_split, random_in_partition)):
            h, _ = split(h, part(rng, h))
            a = h.adjacency()
            assert _all_invariants(a) == expected
        assert _oracle_invariants(a) == expected


def _recorded_merges(a: Matrix) -> tuple[Matrix, list]:
    steps = []
    inner = linalg._merge

    def recording(lines):
        out = inner(lines)
        steps.append((lines, out))
        return out

    with mock.patch.object(linalg, "_merge", recording):
        return linalg._amalgamate(a), steps


def test_every_merge_step_is_an_elementary_sse():
    rng = random.Random(242)
    merges = rows_merged = 0
    for _ in range(200):
        if rng.random() < 0.5:
            a = _planted(rng, rng.randint(1, 6))
        else:
            g = random_irreducible_nontrivial(rng, 3, 2)
            split, part = rng.choice(((out_split, random_out_partition),
                                      (in_split, random_in_partition)))
            a = split(g, part(rng, g))[0].adjacency()
        reduced, steps = _recorded_merges(a)
        current = a
        for lines, out in steps:
            # the step sees the columns of the current matrix or its rows
            m = _m(zip(*lines))
            on_rows = m != current
            assert m == (current.transpose() if on_rows else current)
            if out is None:
                continue
            cls, merged = out
            firsts = [cls.index(r) for r in range(max(cls) + 1)]  # classes by first column
            e = _m([[row[c] for c in firsts] for row in m.rows])
            d = _m([[int(cls[c] == r) for c in range(len(cls))] for r in range(len(firsts))])
            after = _m(zip(*merged))
            assert verify_esse(m, after, SSEWitness(e, d))
            assert verify_esse(m.transpose(), after.transpose(),
                               SSEWitness(d.transpose(), e.transpose()))
            current = after.transpose() if on_rows else after
            merges += 1
            rows_merged += on_rows
        assert current == reduced
        assert (reduced is a) == (len(steps) == 2)
    assert merges >= 150 and rows_merged >= 50, (merges, rows_merged)


def test_amalgamate_returns_its_input_when_nothing_merges():
    a = _m([[1, 2], [1, 0]])
    assert linalg._amalgamate(a) is a
    assert linalg._amalgamate(_m([[0]])) == _m([[0]])
    # the out-split of vertex 1 of [[1,2],[1,0]] into its loop and its two
    # edges to vertex 2: the two copies have equal columns, and one merge
    # gives the base back
    assert linalg._amalgamate(_m([[1, 1, 0], [0, 0, 2], [1, 1, 0]])) == _m([[1, 2], [1, 0]])


def test_flow_decision_is_flow_equivalent_with_both_reports():
    rng = random.Random(243)
    corpus = [random_irreducible_nontrivial(rng, 4, 2) for _ in range(12)]
    for g, h in zip(corpus, corpus[1:] + corpus[:1]):
        same, first, second = invariants._flow_decision(g, h)
        assert same == flow_equivalent(g, h)
        assert first == invariants_report(g.adjacency())
        assert second == invariants_report(h.adjacency())
    with pytest.raises(NotIrreducibleNontrivial, match="second graph"):
        invariants._flow_decision(corpus[0], _m([[0, 1], [1, 0]]))


def test_first_difference_names_the_invariant_as_the_report_prints_it():
    g = _m([[1, 2], [1, 0]])
    h = _m([[1, 1, 0], [0, 0, 2], [1, 1, 0]])  # an out-split of g
    assert invariants._first_difference(g, h) is None
    for a, b, name, key in (
        (_m([[2]]), _m([[3]]), "char_poly_away_from_zero", "char_poly_away_from_zero"),
        (_m([[0, 1], [3, 2]]), _m([[1, 2], [2, 1]]), "bowen_franks", "bf"),
    ):
        assert invariants._first_difference(a, b) == (
            name, invariants_report(a)[key], invariants_report(b)[key])


def test_each_matrix_is_checked_and_amalgamated_once():
    # h is an out-split of g, so it merges back to g
    g = _m([[1, 2], [1, 0]])
    h = _m([[1, 1, 0], [0, 0, 2], [1, 1, 0]])
    runs = [
        (lambda: invariants_report(h), 1),
        (lambda: invariants._flow_decision(g, h), 2),
        (lambda: equivalences.search_se(g, h), 2),
        (lambda: equivalences.search_esse(g, h), 0),  # the same pair, read off its record
    ]
    equivalences._memo.clear()
    for run, matrices in runs:
        with mock.patch.object(invariants, "_amalgamate", wraps=linalg._amalgamate) as amalgamate, \
                mock.patch.object(invariants, "_checked_adjacency",
                                  wraps=invariants._checked_adjacency) as checked:
            run()
        assert (amalgamate.call_count, checked.call_count) == (matrices, matrices)


# ---------------------------------------------------------------------------
# Pair comparisons: equal reduced forms settle them
# ---------------------------------------------------------------------------


_SEPARATED = (_m([[0, 1], [3, 2]]), _m([[1, 2], [2, 1]]))  # the Bowen-Franks prefilter's pair


def _comparison_pairs():
    """(a, b, same reduced form) for seeded graphs against an out- or in-split
    of themselves, their transpose and the next graph, and the separated pair."""
    rng = random.Random(244)
    corpus = [random_irreducible_nontrivial(rng, 3, 2) for _ in range(30)]
    pairs = [_SEPARATED]
    for k, g in enumerate(corpus):
        split, part = ((out_split, random_out_partition), (in_split, random_in_partition))[k % 2]
        a = g.adjacency()
        pairs += [(a, split(g, part(rng, g))[0].adjacency()), (a, a.transpose()),
                  (a, corpus[(k + 1) % len(corpus)].adjacency())]
    return [(a, b, invariants._reduced(a) == invariants._reduced(b)) for a, b in pairs]


def _spied(run):
    """run(), and the calls it made of `char_poly` and `_flow_invariants` in invariants."""
    with mock.patch.object(invariants, "char_poly", wraps=linalg.char_poly) as cp, \
            mock.patch.object(invariants, "_flow_invariants",
                              wraps=invariants._flow_invariants) as fi:
        out = run()
    return out, cp.call_count, fi.call_count


def test_equal_reduced_forms_skip_the_invariants():
    kinds = {True: 0, False: 0}
    for a, b, same in _comparison_pairs():
        kinds[same] += 1
        first, flow, decision = (
            _spied(lambda: invariants._first_difference(a, b)),
            _spied(lambda: flow_equivalent(a, b)),
            _spied(lambda: invariants._flow_decision(a, b)),
        )
        if same:
            assert first == (None, 0, 0)
            assert flow == (True, 0, 0)
            # one report, of the one reduced form, for both sides
            (equal, ra, rb), cp, fi = decision
            assert equal and ra is rb and (cp, fi) == (1, 1)
        else:
            # different forms: both polynomials, then both groups when the
            # polynomials agree
            polys_agree = first[0] is None or first[0][0] == "bowen_franks"
            assert first[1:] == (2, 2 if polys_agree else 0)
            assert flow[1:] == (0, 2)
            assert decision[1:] == (2, 2)
    assert min(kinds.values()) >= 25, kinds


def _oracle_first_difference(a: Matrix, b: Matrix):
    pa, pb = char_poly_away_from_zero_oracle(a), char_poly_away_from_zero_oracle(b)
    if pa != pb:
        return "char_poly_away_from_zero", list(map(str, pa)), list(map(str, pb))
    (fa, ra, _), (fb, rb, _) = bowen_franks_oracle(a), bowen_franks_oracle(b)
    if (fa, ra) != (fb, rb):
        return "bowen_franks", {"factors": list(fa), "rank": ra}, {"factors": list(fb), "rank": rb}
    return None


def _oracle_report_fields(a: Matrix) -> tuple:
    factors, rank, det = bowen_franks_oracle(a)
    poly = list(map(str, char_poly_away_from_zero_oracle(a)))
    return {"factors": list(factors), "rank": rank}, det, poly


def test_pair_comparisons_agree_with_the_oracles():
    # the Smith diagonal from determinantal divisors and the dense
    # Faddeev-LeVerrier polynomial, on pairs of both kinds
    outcomes = set()
    for a, b, same in _comparison_pairs():
        expected = _oracle_first_difference(a, b)
        assert invariants._first_difference(a, b) == expected, (a, b)
        flow = bowen_franks_oracle(a) == bowen_franks_oracle(b)
        assert flow_equivalent(a, b) == flow
        equal, ra, rb = invariants._flow_decision(a, b)
        assert equal == flow
        for report, m in ((ra, a), (rb, b)):
            fields = (report["bf"], report["det_i_minus_a"], report["char_poly_away_from_zero"])
            assert fields == _oracle_report_fields(m)
        outcomes.add((same, None if expected is None else expected[0], flow))
    assert {(True, None, True), (False, None, True), (False, "bowen_franks", False),
            (False, "char_poly_away_from_zero", False)} <= outcomes, outcomes
