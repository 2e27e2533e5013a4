"""Flow-equivalence invariants and Bratteli level data.

The Bowen-Franks group of a nonnegative integer matrix A is the cokernel
Z^n / (I - A) Z^n, read off the Smith normal form of I - A.  Together with
the sign of det(I - A) it classifies irreducible nontrivial edge shifts up
to flow equivalence, which is what `flow_equivalent` decides.  Both come
from one Smith elimination of the bare I - A, with no unimodular transforms
carried: the group from the diagonal D, and det(I - A) as the product of
that diagonal times the sign det U * det V the elimination returns.

Before that elimination, and before Faddeev-LeVerrier in
`char_poly_away_from_zero`, A is amalgamated (`linalg._amalgamate`): equal
columns are merged, and equal rows by the same step on A^T, until no two
columns or rows are equal.  An out-split leaves equal columns behind and an
in-split equal rows, so a split graph shrinks back towards its base.  Each
merge writes A = E D with D a 0/1 division matrix and moves to A' = D E
(n x n to k x k), and three identities keep every output exact:

* det(x I_n - E D) = x^(n-k) det(x I_k - D E), so the characteristic
  polynomial away from zero is unchanged;
* det(I - E D) = det(I - D E);
* D (I - E D) = (I - D E) D and E (I - D E) = (I - E D) E, so D and E
  induce inverse isomorphisms coker(I - E D) = coker(I - D E).

`flow_equivalent`, `bratteli` and `bratteli_to_dot` take a graph or its
adjacency matrix (`graphs.named_adjacency`); the matrix functions check their
argument with the one adjacency check, `graphs._checked_adjacency`.  Check
and amalgamation are one step, `_reduced`, taken once per matrix however
many invariants are read off it: `invariants_report`, `_flow_decision` and
`_first_difference`, the prefilter of the witness searches, pass the reduced
matrix on to both Smith and Faddeev-LeVerrier.  `_first_difference` returns
the invariant that tells two matrices apart as `invariants --json` prints it.
"""

from __future__ import annotations

import math

from ._frozen import Frozen
from .errors import NotIrreducibleNontrivial, ShapeError
from .graphs import (
    Graph,
    _checked_adjacency,
    classify,
    dot_quote,
    named_adjacency,
    sink_free_adjacency,
)
from .linalg import Matrix, _amalgamate, _smith, char_poly
from .polynomials import Poly


class AbelianGroupFP(Frozen):
    """Finitely generated abelian group: torsion invariant factors and free rank.

    Invariant factors are the Smith diagonal entries greater than one, in
    divisibility order; equality of these tuples is group isomorphism.
    """

    factors: tuple[int, ...]
    free_rank: int

    def describe(self) -> str:
        parts = [f"Z/{f}" for f in self.factors]
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        return " + ".join(parts) if parts else "0"


def _reduced(a: Matrix) -> Matrix:
    """a checked as an adjacency matrix and amalgamated: what Smith and Faddeev-LeVerrier run on."""
    return _amalgamate(_checked_adjacency(a))


def _flow_invariants(a: Matrix) -> tuple[AbelianGroupFP, int]:
    """(cokernel of I - a, det(I - a)) from one Smith elimination of I - a, a `_reduced`."""
    w = [[int(i == j) - x for j, x in enumerate(row)] for i, row in enumerate(a.rows)]
    sign = _smith(w, a.nrows, a.ncols)
    diag = [row[i] for i, row in enumerate(w)]
    group = AbelianGroupFP(tuple(x for x in diag if x > 1), diag.count(0))
    return group, sign * math.prod(diag)


def _away_from_zero(a: Matrix) -> Poly:
    """The characteristic polynomial of a `_reduced` a with every factor of x stripped."""
    coeffs = list(char_poly(a).coeffs)
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
    return Poly.from_coeffs(coeffs)


def bowen_franks(a: Matrix) -> AbelianGroupFP:
    """Cokernel of I - a as an abstract abelian group."""
    return _flow_invariants(_reduced(a))[0]


def det_i_minus_a(a: Matrix) -> int:
    return _flow_invariants(_reduced(a))[1]


def char_poly_away_from_zero(a: Matrix) -> Poly:
    """Characteristic polynomial with every factor of x stripped."""
    return _away_from_zero(_reduced(a))


def _first_difference(a: Matrix, b: Matrix) -> tuple[str, object, object] | None:
    """The first SE invariant that tells a from b, as (name, value at a, value at b), or None.

    The invariants are the characteristic polynomial away from zero, then
    the Bowen-Franks group, each read off the one `_reduced` form of each
    matrix; the values are in the form `invariants --json` prints them.
    A difference proves that no shift equivalence exists.
    """
    ra, rb = _reduced(a), _reduced(b)
    pa, pb = _away_from_zero(ra), _away_from_zero(rb)
    if pa != pb:
        return "char_poly_away_from_zero", _poly_json(pa), _poly_json(pb)
    ga, gb = _flow_invariants(ra)[0], _flow_invariants(rb)[0]
    if ga != gb:
        return "bowen_franks", _bf_json(ga), _bf_json(gb)
    return None


def _flow_class(g: Graph | Matrix, h: Graph | Matrix) -> tuple[Matrix, Matrix]:
    """The adjacency matrices of g and h, each checked irreducible and not a single cycle."""
    a, b = named_adjacency(g)[1], named_adjacency(h)[1]
    for name, m in (("first", a), ("second", b)):
        report = classify(m)
        if not report.irreducible or report.trivial:
            raise NotIrreducibleNontrivial(
                f"{name} graph must be irreducible and not a single cycle"
            )
    return a, b


def flow_equivalent(g: Graph | Matrix, h: Graph | Matrix) -> bool:
    """Decide flow equivalence of two irreducible, nontrivial edge shifts.

    Requires both graphs (or adjacency matrices) irreducible and not single
    cycles; in that range the pair (Bowen-Franks group, sign of det(I - A)) is
    a complete invariant.  Raises NotIrreducibleNontrivial outside that range
    rather than guessing.
    """
    a, b = _flow_class(g, h)
    return _flow_invariants(_reduced(a)) == _flow_invariants(_reduced(b))


def _flow_decision(g: Graph | Matrix, h: Graph | Matrix) -> tuple[bool, dict, dict]:
    """`flow_equivalent` with both `invariants_report`s, from one Smith elimination per matrix."""
    a, b = map(_reduced, _flow_class(g, h))
    fa, fb = _flow_invariants(a), _flow_invariants(b)
    return fa == fb, _report(a, *fa), _report(b, *fb)


# ---------------------------------------------------------------------------
# Bratteli levels
# ---------------------------------------------------------------------------


class BratteliDiagram(Frozen):
    """Level sizes k_0 = (1,...,1), k_{n+1} = A^T k_n, plus the step matrix."""

    levels: tuple[tuple[int, ...], ...]
    step: Matrix

    @property
    def depth(self) -> int:
        return len(self.levels) - 1


def bratteli(g: Graph | Matrix, depth: int) -> BratteliDiagram:
    """Multiplicity data of the stationary tower of matrix algebras over g.

    The graph (or adjacency matrix) may not have sinks (every vertex must keep
    emitting); depth is the number of inclusion steps computed.
    """
    if depth < 0:
        raise ShapeError("depth must be nonnegative")
    at = sink_free_adjacency(g).transpose()
    levels = [(1,) * at.nrows]
    for _ in range(depth):
        levels.append(at.apply(levels[-1]))
    return BratteliDiagram(tuple(levels), at)


def bratteli_to_dot(g: Graph | Matrix, diagram: BratteliDiagram) -> str:
    """DOT rendering with one row per level and A(i,j) parallel strands per step."""
    names, a = named_adjacency(g)
    lines = ["digraph {", "  rankdir=TB;"]
    for n, k in enumerate(diagram.levels):
        lines.append("  { rank=same; " + " ".join(
            f"{dot_quote(f'{v}@{n}')} [label={dot_quote(f'{v}:{x}')}];" for v, x in zip(names, k)
        ) + " }")
    for n in range(diagram.depth):
        for i, vi in enumerate(names):
            for j, vj in enumerate(names):
                for _ in range(a[i, j]):
                    lines.append(f"  {dot_quote(f'{vi}@{n}')} -> {dot_quote(f'{vj}@{n + 1}')};")
    lines.append("}")
    return "\n".join(lines)


def invariants_report(a: Matrix) -> dict:
    """JSON-ready bundle of the flow invariants of one adjacency matrix."""
    a = _reduced(a)
    return _report(a, *_flow_invariants(a))


def _bf_json(bf: AbelianGroupFP) -> dict:
    return {"factors": list(bf.factors), "rank": bf.free_rank}


def _poly_json(p: Poly) -> list[str]:
    return [str(c) for c in p.coeffs]


def _report(a: Matrix, bf: AbelianGroupFP, det: int) -> dict:
    """The report of a `_reduced` a, given its flow invariants."""
    cp = _away_from_zero(a)
    return {
        "bf": _bf_json(bf),
        "bf_description": bf.describe(),
        "det_i_minus_a": det,
        "char_poly_away_from_zero": _poly_json(cp),
        "char_poly_pretty": cp.pretty(),
    }
