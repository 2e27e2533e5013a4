"""Witness verification and bounded search for (strong) shift equivalence."""

from __future__ import annotations

import random

import pytest
from helpers import random_in_partition, random_out_partition, random_sink_free

from sftkit.equivalences import (
    ChainLink,
    ChainWitness,
    SEWitness,
    SSEWitness,
    chain_from_json,
    chain_to_json,
    search_esse,
    search_se,
    se_witness_from_json,
    se_witness_to_json,
    sse_witness_from_json,
    sse_witness_to_json,
    transpose_witness,
    verify_chain,
    verify_esse,
    verify_se,
)
from sftkit.errors import InvalidWitness, ShapeError
from sftkit.invariants import bowen_franks, char_poly_away_from_zero
from sftkit.linalg import Matrix
from sftkit.moves import in_split, out_split


def _m(rows) -> Matrix:
    return Matrix.from_rows(rows)


_AE = _m([[1, 2], [1, 0]])
_AOP = _m([[1, 1], [2, 0]])
_R1, _S1 = _m([[1, 1, 0], [0, 0, 1]]), _m([[1, 1], [0, 1], [1, 0]])
_R2, _S2 = _m([[0, 1, 1], [1, 0, 0], [0, 0, 1]]), _m([[0, 0, 1], [0, 0, 1], [1, 1, 0]])
_R3, _S3 = _m([[1, 0], [1, 0], [1, 1]]), _m([[0, 0, 1], [1, 1, 0]])


def _transpose_chain() -> ChainWitness:
    return ChainWitness(
        (
            ChainLink(_S1 @ _R1, SSEWitness(_R1, _S1)),
            ChainLink(_S2 @ _R2, SSEWitness(_R2, _S2)),
            ChainLink(_S3 @ _R3, SSEWitness(_R3, _S3)),
        )
    )


def test_verify_esse_accepts_each_link():
    assert verify_esse(_AE, _S1 @ _R1, SSEWitness(_R1, _S1))
    assert verify_esse(_S1 @ _R1, _S2 @ _R2, SSEWitness(_R2, _S2))
    assert verify_esse(_S2 @ _R2, _AOP, SSEWitness(_R3, _S3))


def test_verify_esse_rejects_wrong_pair():
    assert not verify_esse(_AOP, _S1 @ _R1, SSEWitness(_R1, _S1))


def test_verify_chain_connects_endpoints():
    chain = _transpose_chain()
    assert verify_chain(_AE, _AOP, chain)
    assert not verify_chain(_AE, _AE, chain)
    broken = ChainWitness((chain.links[0], chain.links[2], chain.links[1]))
    assert not verify_chain(_AE, _AOP, broken)


def test_elementary_witness_is_lag_one_se():
    pairs = [
        (_AE, _S1 @ _R1, _R1, _S1),
        (_S1 @ _R1, _S2 @ _R2, _R2, _S2),
        (_S2 @ _R2, _AOP, _R3, _S3),
    ]
    for a, b, r, s in pairs:
        assert verify_esse(a, b, SSEWitness(r, s))
        assert verify_se(a, b, SEWitness(r, s, 1))


def test_verify_se_shape_and_sign_checks():
    with pytest.raises(InvalidWitness):
        verify_se(_AE, _AOP, SEWitness(_R1, _S1, 1))  # 2x3 does not link 2x2 pairs
    with pytest.raises(InvalidWitness):
        verify_se(_AE, _AOP, SEWitness(_m([[1, -1], [0, 1]]), _m([[1, 0], [0, 1]]), 1))
    with pytest.raises(InvalidWitness):
        verify_se(_AE, _AOP, SEWitness(_m([[1, 0], [0, 1]]), _m([[1, 0], [0, 1]]), 0))
    with pytest.raises(ShapeError):
        verify_se(_m([[1, 0]]), _AOP, SEWitness(_R1, _S1, 1))


def test_verify_se_power_identities_at_large_lag():
    fib = _m([[1, 1], [1, 0]])
    ident = _m([[1, 0], [0, 1]])
    # R = S = fib at lag 2: every identity holds, so the exact check runs
    assert verify_se(fib, fib, SEWitness(fib, fib, 2))
    # R S = I is not fib^l; the residues disprove it without forming fib^l
    assert not verify_se(fib, fib, SEWitness(ident, ident, 100_000_000))
    assert not verify_se(fib, fib, SEWitness(fib, ident, 3))
    # the identity matrix is its own power at any lag
    assert verify_se(ident, ident, SEWitness(ident, ident, 10**30))


def test_transpose_witness():
    w = search_se(_AE, _AOP, lag_max=1, entry_bound=3)
    assert w is not None
    assert verify_se(_AE.transpose(), _AOP.transpose(), transpose_witness(w))


def test_search_se_finds_verified_witness_for_transpose_pair():
    w = search_se(_AE, _AOP, lag_max=1, entry_bound=3)
    assert w is not None and w.lag == 1
    assert verify_se(_AE, _AOP, w)
    # found witnesses are consistent with the necessary invariants
    assert char_poly_away_from_zero(_AE) == char_poly_away_from_zero(_AOP)
    assert bowen_franks(_AE) == bowen_franks(_AOP)


def test_search_se_rejects_different_invariants_fast():
    assert search_se(_m([[2]]), _m([[3]]), lag_max=3, entry_bound=5) is None


def test_search_esse_on_split_pairs():
    rng = random.Random(41)
    for _ in range(10):
        g = random_sink_free(rng, 3, 2)
        h, w = out_split(g, random_out_partition(rng, g))
        a, b = g.adjacency(), h.adjacency()
        assert verify_esse(a, b, w)
        if b.nrows <= 4:
            found = search_esse(a, b, inner_dim_max=4, entry_bound=3)
            if found is not None:
                assert verify_esse(a, b, found)
        assert _m([[a.trace()]]) == _m([[b.trace()]])  # trace is an ESSE invariant


def test_search_esse_respects_inner_dim_guard():
    big = Matrix.identity(5)
    assert search_esse(_m([[1]]), big, inner_dim_max=4) is None


def test_trace_equal_for_esse_pairs():
    rng = random.Random(42)
    for _ in range(15):
        g = random_sink_free(rng, 3, 2)
        h, w = in_split(g, random_in_partition(rng, g))
        assert verify_esse(g.adjacency(), h.adjacency(), w)
        assert g.adjacency().trace() == h.adjacency().trace()


def test_witness_json_roundtrip():
    w = SSEWitness(_R1, _S1)
    assert sse_witness_from_json(sse_witness_to_json(w)) == w
    se = SEWitness(_m([[1, 1], [1, 0]]), _m([[1, 0], [0, 2]]), 1)
    assert se_witness_from_json(se_witness_to_json(se)) == se
    chain = _transpose_chain()
    assert chain_from_json(chain_to_json(chain)) == chain
