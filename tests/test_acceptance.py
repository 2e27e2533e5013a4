"""End-to-end acceptance checks with pinned values and runtime budgets.

Each test prints one `[criterion NN] PASS/FAIL` line summarizing what was
established, then asserts.  The numbered checks cover the documented headline
behavior: the worked transpose chain, exact infeasibility certificates, cone
decisions against the Perron functional, unit halving in the one-vertex
groups, the product construction and its tensor maps, flow equivalence,
bounded witness search, the term calculus, and the integer linear algebra
kernel underneath it all.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time

from sftkit import cli
from sftkit import dimension as dim
from sftkit.equivalences import (
    ChainLink,
    ChainWitness,
    SEWitness,
    SSEWitness,
    search_se,
    verify_chain,
    verify_esse,
    verify_se,
)
from sftkit.graphs import from_adjacency
from sftkit.invariants import (
    bowen_franks,
    char_poly_away_from_zero,
    det_i_minus_a,
    flow_equivalent,
)
from sftkit.linalg import Matrix, char_poly, intertwiner_space, smith_normal_form
from sftkit.moves import kronecker_product, in_split, out_split
from sftkit.terms import (
    WeightMap,
    ck2_expand,
    in_split_family,
    parse_element,
    reduce as reduce_terms,
    verify_family,
    word_element,
)
from helpers import (
    det_oracle,
    random_in_partition,
    random_int_matrix,
    random_irreducible_nontrivial,
    random_out_partition,
    random_sink_free,
)


def _m(rows) -> Matrix:
    return Matrix.from_rows(rows)


_A = _m([[1, 2], [1, 0]])
_AT = _m([[1, 1], [2, 0]])


def _line(n: int, ok: bool, detail: str) -> None:
    print(f"[criterion {n:02d}] {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_01_transpose_chain_verifies():
    r1, s1 = _m([[1, 1, 0], [0, 0, 1]]), _m([[1, 1], [0, 1], [1, 0]])
    r2, s2 = _m([[0, 1, 1], [1, 0, 0], [0, 0, 1]]), _m([[0, 0, 1], [0, 0, 1], [1, 1, 0]])
    r3, s3 = _m([[1, 0], [1, 0], [1, 1]]), _m([[0, 0, 1], [1, 1, 0]])
    chain = ChainWitness(
        (
            ChainLink(s1 @ r1, SSEWitness(r1, s1)),
            ChainLink(s2 @ r2, SSEWitness(r2, s2)),
            ChainLink(s3 @ r3, SSEWitness(r3, s3)),
        )
    )
    ok = verify_chain(_A, _AT, chain)
    lag_one = all(
        verify_se(a, b, SEWitness(w.r, w.s, 1))
        for a, b, w in (
            (_A, s1 @ r1, SSEWitness(r1, s1)),
            (s1 @ r1, s2 @ r2, SSEWitness(r2, s2)),
            (s2 @ r2, _AT, SSEWitness(r3, s3)),
        )
    )
    cli_code = cli.main(
        ["sse", "verify-chain", "[[1,2],[1,0]]", "[[1,1],[2,0]]",
         "data/transpose_chain.json", "--json"]
    )
    ok = ok and lag_one and cli_code == 0
    _line(1, ok, "three-step chain links [[1,2],[1,0]] to its transpose; "
                 "every step is also a lag-1 shift equivalence")
    assert ok


def test_criterion_02_pointed_search_returns_exact_infeasibility():
    ta, tb = dim.from_graph(from_adjacency(_A)), dim.from_graph(from_adjacency(_AT))
    res = dim.search_pointed_intertwiner(ta, tb)
    ok = isinstance(res, dim.Infeasible)
    if ok:
        coeff, rhs, y = res.system.coefficients, res.system.rhs, res.certificate
        combo_zero = all(
            sum(y[i] * coeff[i, j] for i in range(coeff.nrows)) == 0
            for j in range(coeff.ncols)
        )
        pays_one = sum(a * b for a, b in zip(y, rhs)) == 1
        has_unit_rows = sum(1 for l in res.system.labels if l.startswith("unit")) == 2
        ok = combo_zero and pays_one and has_unit_rows
    _line(2, ok, "pointed intertwiner search between the graph and its reverse "
                 "is infeasible, with an exact certificate combining the unit "
                 "equations into 0 = 1")
    assert ok


def test_criterion_03_cone_decisions_match_perron_functional():
    t = dim.from_graph(from_adjacency(_A))
    failures = []
    if t.matrix != _AT:
        failures.append("acting matrix")
    rng = random.Random(3)
    for _ in range(10):
        a, b = rng.randrange(-5, 6), rng.randrange(-5, 6)
        got = dim.dg_shift(t, dim.DimElement((a, b), 0))
        if not dim.dg_equal(t, got, dim.DimElement((a + b, 2 * a), 0)):
            failures.append(f"shift({a},{b})")
    vectors = [(a, b) for a in (-2, -1, 1, 2) for b in (-2, -1, 1, 2)]
    for a, b in vectors:
        res = dim.dg_positive(t, dim.DimElement((a, b), 0))
        want_pos = 2 * a + b > 0
        if isinstance(res, dim.InCone) != want_pos:
            failures.append(f"cone({a},{b})")
    if not isinstance(dim.dg_positive(t, dim.DimElement((1, -2), 0)), dim.NotInCone):
        failures.append("zero-pairing vector")
    if dim.order_unit(t) != dim.DimElement((1, 1), 0):
        failures.append("order unit")
    ok = not failures
    _line(3, ok, "acting matrix [[1,1],[2,0]], shift (a,b) to (a+b,2a), cone "
                 "decisions equal to the sign of 2a+b on all 16 test vectors, "
                 "unit [1,1] at stage 0"
          if ok else f"failed: {failures}")
    assert ok, failures


def test_criterion_04_two_loops_vs_four_loops():
    t2 = dim.DimensionTriple(_m([[2]]))
    t4 = dim.DimensionTriple(_m([[4]]))
    failures = []
    if intertwiner_space(_m([[2]]), _m([[4]])):
        failures.append("intertwiner space not zero")
    if not isinstance(dim.search_pointed_intertwiner(t2, t4), dim.Infeasible):
        failures.append("pointed search not infeasible")
    # both groups halve their unit: twice [1,1] in the two-loop group and
    # twice [2,1] in the four-loop group give back [1,0]
    if not dim.dg_equal(
        t2, dim.dg_scale(t2, 2, dim.DimElement((1,), 1)), dim.DimElement((1,), 0)
    ):
        failures.append("unit halving in the two-loop group")
    if not dim.dg_equal(
        t4, dim.dg_scale(t4, 2, dim.DimElement((2,), 1)), dim.DimElement((1,), 0)
    ):
        failures.append("unit halving in the four-loop group")
    if not dim.dg_equal(
        t4, dim.dg_scale(t4, 4, dim.DimElement((1,), 1)), dim.DimElement((1,), 0)
    ):
        failures.append("unit quartering in the four-loop group")
    bf2, bf4 = bowen_franks(_m([[2]])), bowen_franks(_m([[4]]))
    if (list(bf2.factors), bf2.free_rank) != ([], 0):
        failures.append("BF of [[2]]")
    if (list(bf4.factors), bf4.free_rank) != ([3], 0):
        failures.append("BF of [[4]]")
    if det_i_minus_a(_m([[2]])) != -1 or det_i_minus_a(_m([[4]])) != -3:
        failures.append("det(I-A) values")
    ok = not failures
    _line(4, ok, "no nonzero intertwiner between the one-vertex groups, pointed "
                 "search infeasible, both units halve exactly, invariants "
                 "pinned (trivial vs Z/3, dets -1 vs -3)"
          if ok else f"failed: {failures}")
    assert ok, failures


def test_criterion_05_product_graph_matches_pinned_matrix():
    e = from_adjacency(_m([[1, 1], [1, 0]]))
    f = from_adjacency(_m([[0, 1, 0], [1, 0, 1], [0, 1, 0]]))
    expected = _m(
        [
            [0, 1, 0, 0, 1, 0],
            [1, 0, 1, 1, 0, 1],
            [0, 1, 0, 0, 1, 0],
            [0, 1, 0, 0, 0, 0],
            [1, 0, 1, 0, 0, 0],
            [0, 1, 0, 0, 0, 0],
        ]
    )
    got = kronecker_product(e, f).adjacency()
    ok = got == expected
    _line(5, ok, "product of the 2-vertex and 3-vertex graphs reproduces the "
                 "6x6 adjacency matrix entry for entry")
    assert ok


def test_criterion_06_tensor_maps_are_mutually_inverse():
    ta = dim.DimensionTriple(_m([[1, 1], [1, 0]]).transpose())
    tb = dim.DimensionTriple(_m([[0, 1, 0], [1, 0, 1], [0, 1, 0]]).transpose())
    tp = dim.product_triple(ta, tb)
    failures = []
    u = dim.tensor_phi(ta, tb, dim.order_unit(ta), dim.order_unit(tb))
    if not dim.dg_equal(tp, u, dim.order_unit(tp)):
        failures.append("unit image")
    rng = random.Random(6)
    for trial in range(50):
        z = dim.DimElement(
            tuple(rng.randrange(-3, 4) for _ in range(6)), rng.randrange(0, 4)
        )
        back = dim.zero(tp)
        for e_i, block in dim.tensor_psi(ta, tb, z):
            back = dim.dg_add(tp, back, dim.tensor_phi(ta, tb, e_i, block))
        if not dim.dg_equal(tp, back, z):
            failures.append(f"phi(psi(z)) trial {trial}")
    for trial in range(50):
        x = dim.DimElement(
            tuple(rng.randrange(-3, 4) for _ in range(2)), rng.randrange(0, 4)
        )
        y = dim.DimElement(
            tuple(rng.randrange(-3, 4) for _ in range(3)), rng.randrange(0, 4)
        )
        z = dim.tensor_phi(ta, tb, x, y)
        back = dim.zero(tp)
        for e_i, block in dim.tensor_psi(ta, tb, z):
            back = dim.dg_add(tp, back, dim.tensor_phi(ta, tb, e_i, block))
        if not dim.dg_equal(tp, back, z):
            failures.append(f"psi(phi) trial {trial}")
    ok = not failures
    _line(6, ok, "unit maps to unit; the two tensor maps invert each other on "
                 "100 seeded elements with stages up to 3"
          if ok else f"failed: {failures}")
    assert ok, failures


def test_criterion_07_flow_equivalence_decisions_and_split_consistency():
    start = time.perf_counter()
    failures = []
    g, gt = from_adjacency(_A), from_adjacency(_AT)
    if not flow_equivalent(g, gt):
        failures.append("transpose pair not equivalent")
    if flow_equivalent(from_adjacency(_m([[2]])), from_adjacency(_m([[3]]))):
        failures.append("[[2]] vs [[3]] equivalent")
    rng = random.Random(7)
    for trial in range(100):
        base = random_irreducible_nontrivial(rng, 4, 2)
        if trial % 2 == 0:
            h, w = out_split(base, random_out_partition(rng, base))
        else:
            h, w = in_split(base, random_in_partition(rng, base))
        if not verify_esse(base.adjacency(), h.adjacency(), w):
            failures.append(f"witness {trial}")
            continue
        if not flow_equivalent(base, h):
            failures.append(f"split pair {trial} not flow equivalent")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 10.0
    _line(7, ok, f"decisions pinned and 100 verified split pairs all flow "
                 f"equivalent in {elapsed:.1f}s (budget 10s)"
          if ok else f"failed: {failures or f'{elapsed:.1f}s over budget'}")
    assert ok, (failures, elapsed)


def test_criterion_08_search_recovers_witnesses_for_split_pairs():
    start = time.perf_counter()
    rng = random.Random(8)
    found = 0
    misses = []
    bad = []
    for trial in range(100):
        base = random_irreducible_nontrivial(rng, 3, 2)
        if trial % 2 == 0:
            h, _ = out_split(base, random_out_partition(rng, base))
        else:
            h, _ = in_split(base, random_in_partition(rng, base))
        a, b = base.adjacency(), h.adjacency()
        w = search_se(a, b, lag_max=1, entry_bound=3)
        if w is None:
            misses.append(trial)
        elif verify_se(a, b, w):
            found += 1
        else:
            bad.append(trial)
    elapsed = time.perf_counter() - start
    ok = found >= 95 and not bad and elapsed < 5.0
    _line(8, ok, f"search found verified lag-1 witnesses for {found}/100 split "
                 f"pairs ({len(misses)} within-bounds misses, 0 wrong) in "
                 f"{elapsed:.1f}s (budget 5s)"
          if ok else f"found {found}, bad {bad}, {elapsed:.1f}s")
    assert ok, (found, bad, elapsed)


def test_criterion_09_hard_pair_stays_inconclusive():
    start = time.perf_counter()
    a = _m([[19, 5], [4, 1]])
    b = a.transpose()
    failures = []
    bfa, bfb = bowen_franks(a), bowen_franks(b)
    if (list(bfa.factors), bfa.free_rank) != ([20], 0) or bfa.factors != bfb.factors:
        failures.append("BF groups differ or wrong")
    if det_i_minus_a(a) != det_i_minus_a(b) or det_i_minus_a(a) != -20:
        failures.append("det(I-A) mismatch")
    if char_poly_away_from_zero(a).coeffs != char_poly_away_from_zero(b).coeffs:
        failures.append("char poly mismatch")
    if search_se(a, b, lag_max=2, entry_bound=3) is not None:
        failures.append("search unexpectedly found a witness")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(
            ["se", "search", "[[19,5],[4,1]]", "[[19,4],[5,1]]", "--lag-max", "2",
             "--entry-bound", "3", "--json"]
        )
    rep = json.loads(buf.getvalue())
    res = rep["results"]
    if code != 1 or res["outcome"] != "not_found_within_bounds":
        failures.append("CLI outcome")
    if res.get("conclusive") is not False or "does not decide" not in res.get("note", ""):
        failures.append("CLI report does not label the miss inconclusive")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    _line(9, ok, f"all computed invariants of [[19,5],[4,1]] and its transpose "
                 f"agree; bounded search returns no witness and the report "
                 f"says so without deciding, in {elapsed:.1f}s (budget 60s)"
          if ok else f"failed: {failures or f'{elapsed:.1f}s'}")
    assert ok, (failures, elapsed)


def test_criterion_10_term_calculus_properties():
    start = time.perf_counter()
    g = from_adjacency(_A)
    failures = []
    rng = random.Random(10)
    edge_ids = [e.id for e in g.edges]
    for trial in range(1000):
        atoms = []
        for _ in range(rng.randrange(1, 9)):
            kind = rng.choice(["v", "e", "g"])
            if kind == "v":
                atoms.append(("v", rng.choice(g.vertices)))
            else:
                atoms.append((kind, rng.choice(edge_ids)))
        x = word_element(g, tuple(atoms))
        if reduce_terms(g, x, "leftmost") != reduce_terms(g, x, "rightmost"):
            failures.append(f"confluence {trial}")
    uniform = WeightMap.uniform(g)
    half = WeightMap.from_mapping(g, {"e1": "1/2", "e2": 1, "e3": 1, "e4": "3/2"})
    for wm in (uniform, half):
        for text in ("e1 e2", "e1 e1 e3*", "e4 e1 e1*"):
            x = parse_element(g, text)
            d = wm.degree_of_word(next(iter(x.terms)))
            red = reduce_terms(g, x)
            if any(wm.degree_of_word(w) != d for w in red.terms):
                failures.append(f"reduce degree {text}")
            filled = ck2_expand(g, red, "v1")
            if any(wm.degree_of_word(w) != d for w in filled.terms):
                failures.append(f"expand degree {text}")
    done = 0
    while done < 20:
        h = random_sink_free(rng, 3, 2)
        if len(h.edges) > 6:
            continue
        _, fa = in_split_family(h, random_in_partition(rng, h))
        if not verify_family(fa, h):
            failures.append(f"family on {h.adjacency().rows}")
        done += 1
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 30.0
    _line(10, ok, f"both strategies agree on 1000 seeded words, rewriting and "
                  f"expansion preserve degree under two weight maps, 20 "
                  f"in-split families verify, in {elapsed:.1f}s (budget 30s)"
          if ok else f"failed: {failures[:5] or f'{elapsed:.1f}s'}")
    assert ok, (failures[:5], elapsed)


def test_criterion_11_linear_algebra_kernel():
    start = time.perf_counter()
    rng = random.Random(11)
    failures = []
    for trial in range(200):
        n = rng.randrange(1, 5)
        m = random_int_matrix(rng, n, -5, 5)
        u, d, v = smith_normal_form(m)
        if u @ m @ v != d:
            failures.append(f"snf identity {trial}")
        if abs(det_oracle(u)) != 1 or abs(det_oracle(v)) != 1:
            failures.append(f"unimodularity {trial}")
        p = char_poly(m)
        acc = Matrix.from_rows([[0] * n] * n)
        for c in reversed(p.coeffs):
            acc = acc @ m + Matrix.identity(n).scale(c)
        if not acc.is_zero():
            failures.append(f"cayley-hamilton {trial}")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 10.0
    _line(11, ok, f"Smith form identity with unimodular transforms and "
                  f"characteristic-polynomial vanishing on 200 seeded matrices "
                  f"in {elapsed:.1f}s (budget 10s)"
          if ok else f"failed: {failures[:5] or f'{elapsed:.1f}s'}")
    assert ok, (failures[:5], elapsed)
