"""Exact linear algebra over the integers and rationals.

Everything is computed with arbitrary-precision integers and
`fractions.Fraction`; no floating point enters any decision.  Every matrix or
vector entry the module hands out is an `int` when integral and a `Fraction`
only otherwise, by the same rule (`polynomials._num`) that keeps polynomial
coefficients.  The module supplies the kernels the rest of the package
leans on:

* an immutable `Matrix` with exact arithmetic, RREF and nullspaces; its
  products, matrix-vector ones included, are `_product`, which
  `equivalences` runs on bare int rows too, and `pow(m, k, p)` reduces its
  entries modulo p as it goes;
* fraction-free elimination over the integers: `_rref` clears the
  denominators of each row once and divides it by its content (the
  integer-row helpers of `polynomials`), and runs Gauss-Jordan with
  integer row operations kept small by gcds, dividing by the pivots only
  at the end;
* Smith normal form with unimodular transforms, by elementary operations
  pivoting on the minimal absolute value, all on one augmented integer
  array whose blocks hold U and V; the same in-place elimination runs on
  the bare matrix when only D and det U * det V are needed (the flow
  invariants), with no transform blocks to carry;
* amalgamation, which merges equal columns and equal rows of a square
  matrix until none are equal, each merge one elementary strong shift
  equivalence A = E D to D E (`_merge`, one step; `_amalgamate`, all of
  them); the flow invariants run on the merged matrix;
* characteristic polynomials via Faddeev-LeVerrier, each product running
  over the nonzero entries of each row only (the matrices are mostly sparse
  0/1) and adding the rows it picks in C: a chain of `map` adds for a row
  with at most `_CHAIN_ROWS` nonzero entries, one `zip` over rows scaled as
  lists past it, so no lazy chain is deeper than that; the run also yields
  column 0 of the adjugate of (xI - A) for free;
* exact affine solving by one reduction of [A | b]; only an
  inconsistent system is reduced again, as [A | b | I], where the identity
  block records the row operations and yields the infeasibility certificate
  (a rational row combination y with y.A = 0 and y.b = 1);
* the one linear system of the intertwiner equation U a = b U, written
  row by row on plain lists by one builder that rejects non-square
  matrices; `intertwiner_matrix` wraps those rows for `dimension`, and
  `intertwiner_space` reduces them in place with `_rref` and reads the
  echelon nullspace off them, which is also the partner space the witness
  searches of `equivalences` solve in, once per pair of matrices;
* the integer points of an affine set, over ints: `integer_points`
  re-echelonizes copies of the basis rows with `_rref`, scales the set's
  shifted point and echelon rows by one common denominator d,
  runs the one bounded scan `_scan` (`dimension.search_module_iso` runs it
  too) and keeps x when d*lo <= x <= d*hi and d | x, yielding x // d;
* strongly connected components (one Tarjan pass), from which
  irreducibility, the vertices on cycles and, by `reaches_cycle`, the
  vertices that reach a cycle are read;
* Perron data from one Faddeev-LeVerrier run on A^T: the characteristic
  polynomial, an isolating interval of the Perron root, column 0 of
  adj(xI - A^T), a positive multiple of the left Perron eigenvector at the
  Perron root, and the period and cyclic classes of A from the one
  irreducibility check the data needs.  The interval starts from a
  Collatz-Wielandt bracket on a dyadic grid, read off (A + I)^k 1 by steps
  over the nonzero entries of A only (`_sparse_apply`, which the cone
  decisions of `dimension` iterate on too), and the Sturm chain of the
  polynomial itself (no squarefree part) proves it holds one root or
  bisects it until it does.  The exact sign of the pairing of a
  rational vector against that eigenvector is then the sign of one
  polynomial h at the Perron root.  The isolating interval is halved by the
  sign of the characteristic polynomial alone, which changes sign there
  only at the simple Perron root, on integer numerators over a power of
  two, until a Taylor bound at the centre shows
  that h has no root on the half: h has its sign at the centre.  A pairing
  still open after `_ZERO_TEST_STEP` halvings, as every zero pairing is,
  takes one gcd of h with the polynomial, which changes sign across the
  interval exactly when h(rho) = 0, so a matrix costs one remainder
  sequence, each nonzero pairing O(n^2) arithmetic and each zero pairing
  one more remainder sequence.  Every remainder sequence is a primitive
  pseudo-remainder sequence over the integers, read by integer sign
  evaluation; each element is a positive multiple of its counterpart over
  the rationals, so every sign is the same and no coefficient grows as
  rational arithmetic would make it.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Iterable, Iterator, Sequence
from enum import IntEnum
from fractions import Fraction
from functools import partial, reduce

from ._frozen import Frozen, _set
from .errors import InvalidMatrix, NotIrreducible, ShapeError
from .polynomials import (
    _INT,
    Poly,
    Rat,
    _coprime,
    _integral,
    _num,
    _scaled,
    _variations,
    poly_gcd,
    sturm_chain,
)

Vector = tuple[Rat, ...]


def vector(entries: Iterable[Rat]) -> Vector:
    """entries by the number rule; an all-int tuple (one type scan) is returned as it is."""
    v = tuple(entries)
    return v if _INT.issuperset(map(type, v)) else tuple(map(_num, v))


class Matrix(Frozen):
    """Immutable exact matrix; `from_rows` makes entries ints when integral, else Fractions."""

    rows: tuple[tuple[Rat, ...], ...]

    # built by every product and every witness, so its methods are written out
    def __init__(self, rows: tuple[tuple[Rat, ...], ...]) -> None:
        if len(set(map(len, rows))) > 1:
            raise InvalidMatrix("ragged rows")
        _set(self, "rows", rows)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.rows == other.rows
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.rows,))

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[Rat]]) -> "Matrix":
        return cls(tuple(vector(row) for row in rows))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls.from_rows(
            [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        )

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def is_integral(self) -> bool:
        """One C-level type scan when every entry is an int; else each entry's denominator."""
        return (_INT.issuperset(map(type, itertools.chain.from_iterable(self.rows)))
                or all(x.denominator == 1 for row in self.rows for x in row))

    def is_nonnegative(self) -> bool:
        return min(itertools.chain.from_iterable(self.rows), default=0) >= 0

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.rows for x in row)

    def __getitem__(self, key: tuple[int, int]) -> Rat:
        i, j = key
        return self.rows[i][j]

    def row(self, i: int) -> Vector:
        return self.rows[i]

    def col(self, j: int) -> Vector:
        return tuple(r[j] for r in self.rows)

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix.from_rows(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix.from_rows(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def scale(self, c: Rat) -> "Matrix":
        c = _num(c)
        return Matrix.from_rows([[c * a for a in r] for r in self.rows])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ShapeError(f"cannot multiply {self.shape()} by {other.shape()}")
        return _reshape(_product(self.rows, list(zip(*other.rows))), self.nrows, other.ncols)

    def __pow__(self, k: int, modulus: int | None = None) -> "Matrix":
        """self**k; pow(self, k, modulus) reduces every entry modulo modulus after each product."""
        if not self.is_square:
            raise ShapeError("powers need a square matrix")
        if k < 0:
            raise ShapeError("negative matrix powers are not supported")

        def reduced(m: Matrix) -> Matrix:
            if modulus is None:
                return m
            return Matrix.from_rows([[x % modulus for x in row] for row in m.rows])

        acc, base = reduced(Matrix.identity(self.nrows)), reduced(self)
        while k:
            if k & 1:
                acc = reduced(acc @ base)
            k >>= 1
            if k:
                base = reduced(base @ base)
        return acc

    def apply(self, v: Sequence[Rat]) -> Vector:
        if len(v) != self.ncols:
            raise ShapeError("vector length does not match column count")
        return vector(_product(self.rows, [vector(v)]))

    def transpose(self) -> "Matrix":
        return Matrix(tuple(zip(*self.rows))) if self.rows else Matrix(())

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product in the usual block form (lexicographic index order)."""
        out = []
        for ra in self.rows:
            for rb in other.rows:
                out.append([a * b for a in ra for b in rb])
        return Matrix.from_rows(out)

    def trace(self) -> Rat:
        if not self.is_square:
            raise ShapeError("trace needs a square matrix")
        return _num(sum(self.rows[i][i] for i in range(self.nrows)))

    def inverse(self) -> "Matrix":
        if not self.is_square:
            raise ShapeError("inverse needs a square matrix")
        n = self.nrows
        aug = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(self.rows)]
        if len(_rref(aug, n)) < n:
            raise ShapeError("matrix is singular")
        return Matrix.from_rows([row[n:] for row in aug])

    def to_int_rows(self) -> list[list[int]]:
        if not self.is_integral():
            raise InvalidMatrix("matrix is not integral")
        return [list(row) for row in self.rows]

    def to_json_rows(self) -> list[list[int | str]]:
        """Rows for JSON output: ints as they are, other entries as "p/q" strings."""
        return [[x if type(x) is int else str(x) for x in row] for row in self.rows]

    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def __str__(self) -> str:
        return "[" + "; ".join(" ".join(map(str, row)) for row in self.rows) + "]"

    def _same_shape(self, other: "Matrix") -> None:
        if self.shape() != other.shape():
            raise ShapeError(f"shape mismatch: {self.shape()} vs {other.shape()}")


def _product(rows: Sequence[Sequence[Rat]], cols: Sequence[Sequence[Rat]]) -> list[Rat]:
    """Row-major entries of the product of a matrix with these rows and one with these columns."""
    return [sum(map(operator.mul, x, y)) for x in rows for y in cols]


def _rref(rows: list[list[Rat]], limit: int | None = None) -> list[int]:
    """Row-reduce in place to reduced row echelon form; returns the pivot columns.

    Fraction-free Gauss-Jordan over the integers: the denominators of each
    row with a Fraction entry are cleared once (an all-int row is taken as it
    is), every elimination replaces row i by p * row_i - f * row_r
    (p the pivot, f the entry it clears), divided by the gcd of its entries,
    and each pivot row is divided by its pivot only at the end.  Every row
    stays a nonzero multiple of the row that Gauss-Jordan over the rationals
    holds at the same step, so the pivots (first nonzero row at or below the
    current one) and the reduced pivot rows are the same; rows past the rank
    are left as integer multiples.

    Pivots are sought only in the first `limit` columns (all of them by
    default); later columns just follow the row operations.  A caller that
    needs the transform T with T @ original == reduced appends an identity
    block past the limit and reads T off its pivot rows afterwards; only the
    infeasible branch of `solve_affine_exact` does, for its certificate.
    """
    m = len(rows)
    if limit is None:
        limit = len(rows[0]) if rows else 0
    for i, row in enumerate(rows):
        rows[i] = _coprime(_integral(row))
    pivots: list[int] = []
    r = 0
    for c in range(limit):
        piv = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        top = rows[r]
        p = top[c]
        for i in range(m):
            f = rows[i][c]
            if i != r and f != 0:
                g = math.gcd(p, f)
                pg, fg = p // g, f // g
                rows[i] = _coprime([pg * x - fg * y for x, y in zip(rows[i], top)])
        pivots.append(c)
        r += 1
        if r == m:
            break
    for i, c in enumerate(pivots):
        p = rows[i][c]
        rows[i] = [x // p if x % p == 0 else Fraction(x, p) for x in rows[i]]
    return pivots


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    rows = [list(r) for r in m.rows]
    pivots = _rref(rows)
    return Matrix.from_rows(rows), pivots


def nullspace(m: Matrix) -> list[Vector]:
    """Deterministic echelon basis of {x : m x = 0} (see `_echelon_basis`)."""
    rows = [list(r) for r in m.rows]
    return _echelon_basis(rows, _rref(rows), m.ncols)


def _echelon_basis(reduced: list[list[Rat]], pivots: list[int], ncols: int) -> list[Vector]:
    """Nullspace basis read off rows whose first ncols columns are in RREF with these pivots.

    Each basis vector has value 1 at "its" free column and 0 at the other
    free columns, listed in ascending free-column order.
    """
    basis: list[Vector] = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [0] * ncols
        v[f] = 1
        for r, p in enumerate(pivots):
            v[p] = -reduced[r][f]
        basis.append(vector(v))
    return basis


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


def smith_normal_form(m: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Return unimodular (U, D, V) with U @ m @ V == D diagonal.

    D has nonnegative diagonal entries d1 | d2 | ... .  `_smith` works on one
    integer array W = [[m, I], [I, 0]]: row operations act on its first
    nrows rows, so U builds up in the right-hand block, and column operations
    on its first ncols columns, so V builds up in the lower block, leaving
    U m V = D in the corner.  A caller that needs only D and det U * det V
    (the flow invariants) runs the same elimination on the bare matrix.
    """
    nr, nc = m.nrows, m.ncols
    w = [row + [int(i == j) for j in range(nr)] for i, row in enumerate(m.to_int_rows())]
    w += [[int(i == j) for j in range(nc + nr)] for i in range(nc)]
    _smith(w, nr, nc)
    return (
        Matrix.from_rows(row[nc:] for row in w[:nr]),
        Matrix.from_rows(row[:nc] for row in w[:nr]),
        Matrix.from_rows(row[:nc] for row in w[nr:]),
    )


def _smith(w: list[list[int]], nr: int, nc: int) -> int:
    """Bring the top-left nr x nc block of w to Smith form in place; return det U * det V.

    Row operations run along whole rows of w and column operations down
    whole columns, so any blocks beside or below record them.  Each step t
    picks as pivot the first entry of least absolute value in the remaining
    block (row-major), which keeps intermediate entries small, moves it to
    (t, t) and negates its row if the pivot is negative; it then clears the
    pivot's column, then its row, and picks again while a remainder is left.
    If the pivot fails to divide an entry of the rest, that entry's row is
    added to row t and (t, t) stays the pivot.  No sign pass is needed at the
    end: every pivot is positive before its row and column are cleared, and
    no later operation touches a finished row or column.  The returned sign
    flips on each row swap, column swap and row negation; the additions keep
    it, so for square m, det m = sign * d1 * d2 * ... .
    """

    def min_pivot(t):
        best, least = None, 0
        for i in range(t, nr):
            row = w[i]
            for j in range(t, nc):
                if row[j] and (best is None or abs(row[j]) < least):
                    best, least = (i, j), abs(row[j])
        return best

    sign = 1
    for t in range(min(nr, nc)):
        pos = min_pivot(t)
        while pos is not None:
            i, j = pos
            if i != t:
                w[t], w[i] = w[i], w[t]
                sign = -sign
            if j != t:
                for row in w:
                    row[t], row[j] = row[j], row[t]
                sign = -sign
            top = w[t]
            if top[t] < 0:
                w[t] = top = [-x for x in top]
                sign = -sign
            p, dirty = top[t], False
            for i in range(t + 1, nr):
                if w[i][t]:
                    q = w[i][t] // p
                    w[i] = row = [x - q * y for x, y in zip(w[i], top)]
                    dirty = dirty or row[t] != 0
            for j in range(t + 1, nc):
                if top[j]:
                    q = top[j] // p
                    for row in w:
                        row[j] -= q * row[t]
                    dirty = dirty or top[j] != 0
            if dirty:
                pos = min_pivot(t)
                continue
            # divisibility: the pivot must divide everything left in the block
            pos = None
            for row in w[t + 1 : nr]:
                if any(x % p for x in row[t + 1 : nc]):
                    w[t], pos = [x + y for x, y in zip(top, row)], (t, t)
                    break
    return sign


def _merge(lines: Sequence[tuple[int, ...]]) -> tuple[list[int], list[list[int]]] | None:
    """Merge the equal columns of a square A, given as its columns; None when all differ.

    Number the classes of equal columns by first occurrence, class[c] for
    column c.  With E the first column of each class (n x k) and D the 0/1
    matrix with D[r][c] = 1 iff class[c] = r (k x n), A = E D, and the merged
    matrix D E sums the rows of E by class: its column s is column s of E
    with the entries of each class added up.  Returns (class, columns of D E).
    Given the rows of A instead, the same step merges equal rows: it is the
    step on A^T read transposed, A = D^T E^T and the merged matrix E^T D^T.
    """
    first: dict = {}
    cls = [first.setdefault(line, len(first)) for line in lines]
    if len(first) == len(cls):
        return None
    merged = []
    for line in first:
        out = [0] * len(first)
        for r, x in zip(cls, line):
            out[r] += x
        merged.append(out)
    return cls, merged


def _amalgamate(m: Matrix) -> Matrix:
    """m with equal columns, then equal rows, merged until no two are equal.

    Each `_merge` is an elementary strong shift equivalence A = R S to S R,
    so coker(I - A), det(I - A) and det(xI - A) away from x = 0 are those
    of the smaller matrix.  When the first column scan and row scan merge
    nothing, m itself is returned.
    """
    lines, idle, scans = m.rows, 0, 0
    while idle < 2:
        lines = list(zip(*lines))  # rows to columns, or back
        scans += 1
        step = _merge(lines)
        if step is None:
            idle += 1
        else:
            lines, idle = step[1], 0
    if scans == 2:
        return m
    return Matrix(tuple(zip(*lines)) if scans % 2 else tuple(map(tuple, lines)))


# ---------------------------------------------------------------------------
# Characteristic polynomial and the adjugate of xI - A
# ---------------------------------------------------------------------------


# `_row_sum` chains lazy C-level adds over at most this many rows, the point
# past which one zip under `sum` is faster; the bound also keeps the chain
# shallow, as some 10^5 nested maps overflow the C stack.
_CHAIN_ROWS = 4
_add_rows = partial(map, operator.add)


def _row_sum(b: list[list[int]], terms: list[tuple[int, int]], n: int) -> list[int]:
    """Row i of A B: the sum of x * b[l] over the nonzero entries (l, x) of row i of A.

    Zeros when there are none.  A chain scales its rows lazily; the zip
    reads each row once per column, so past `_CHAIN_ROWS` the scaled rows
    are built as lists first, which it walks faster.
    """
    if len(terms) > _CHAIN_ROWS:
        return list(map(sum, zip(*[b[l] if x == 1 else [x * y for y in b[l]] for l, x in terms])))
    if not terms:
        return [0] * n
    return list(reduce(_add_rows, [b[l] if x == 1 else map(operator.mul, b[l], itertools.repeat(x))
                                   for l, x in terms]))


def _faddeev_leverrier(a: list[list[int]]) -> tuple[list[int], tuple[tuple[int, ...], ...]]:
    """Integer Faddeev-LeVerrier over the nonzero entries of each row of A.

    With B_0 = I, each step forms A B_(k-1), takes c_k = -tr(A B_(k-1)) / k
    (an exact division for integer input) and sets B_k = A B_(k-1) + c_k I,
    so that det(xI - A) = sum c[k] x^(n-k) for k = 0..n and
    adj(xI - A) = sum B_k x^(n-1-k) for k = 0..n-1; Cayley-Hamilton makes
    B_n zero, which is asserted.  Row i of A B_(k-1) is the sum of
    x * (row l of B_(k-1)) over the nonzero entries a[i][l] = x, so a step
    costs nnz(A) * n rather than n^3; `_row_sum` forms each row.  Only
    column 0 of the adjugate is kept: returns (c, column) with column[j]
    the coefficients of adj(xI - A)[j][0], constant term first.
    """
    n = len(a)
    nonzero = [[(l, x) for l, x in enumerate(row) if x] for row in a]
    b = [[int(i == j) for j in range(n)] for i in range(n)]
    cs = [1]
    firsts = [[row[0] for row in b]]  # column 0 of B_0, B_1, ...
    for k in range(1, n + 1):
        b = [_row_sum(b, terms, n) for terms in nonzero]
        tr = sum(b[i][i] for i in range(n))
        assert tr % k == 0, "Faddeev-LeVerrier trace division must be exact"
        c = -(tr // k)
        cs.append(c)
        for i in range(n):
            b[i][i] += c
        if k < n:
            firsts.append([row[0] for row in b])
    assert all(x == 0 for row in b for x in row), "Cayley-Hamilton check failed"
    return cs, tuple(zip(*reversed(firsts)))


def char_poly(m: Matrix) -> Poly:
    """Characteristic polynomial det(xI - m), monic with integer coefficients."""
    if not m.is_square:
        raise ShapeError("characteristic polynomial needs a square matrix")
    cs, _ = _faddeev_leverrier(m.to_int_rows())
    return Poly.from_coeffs(reversed(cs))


# ---------------------------------------------------------------------------
# Affine systems
# ---------------------------------------------------------------------------


class AffineSolution(Frozen):
    """Solution set particular + span(basis) of a consistent system."""

    particular: Vector
    basis: tuple[Vector, ...]


class AffineInfeasible(Frozen):
    """Certificate of infeasibility: certificate @ A == 0, certificate . b == 1."""

    certificate: Vector


def solve_affine_exact(a: Matrix, b: Sequence[Rat]) -> AffineSolution | AffineInfeasible:
    """Solve a x = b exactly over the rationals.

    On success the particular solution has zeros in all free coordinates and
    the basis is the echelon nullspace of a.  On failure the returned
    certificate is an exact rational row combination proving inconsistency.
    """
    if len(b) != a.nrows:
        raise ShapeError("right-hand side length does not match row count")
    ncols = a.ncols
    rhs = vector(b)
    aug = [list(row) + [x] for row, x in zip(a.rows, rhs)]
    pivots = _rref(aug)
    if pivots and pivots[-1] == ncols:
        # pivot in the augmented column: replay the same row operations on
        # [a | b | I]; row r of the identity block is then the certificate
        aug = [
            list(row) + [x] + [int(i == j) for j in range(a.nrows)]
            for i, (row, x) in enumerate(zip(a.rows, rhs))
        ]
        _rref(aug, ncols + 1)
        return AffineInfeasible(vector(aug[len(pivots) - 1][ncols + 1 :]))
    # consistent: the a-part of the reduction is rref(a), with the same pivots
    particular = [0] * ncols
    for r, p in enumerate(pivots):
        particular[p] = aug[r][ncols]
    return AffineSolution(vector(particular), tuple(_echelon_basis(aug, pivots, ncols)))


def _intertwiner_rows(a: Matrix, b: Matrix) -> list[list[Rat]]:
    """Rows of the linear map U -> U a - b U on row-major vec U, a and b square.

    a is n x n, b is m x m and U is m x n, so the rows are those of
    I_m (x) a^T - b (x) I_n, with row i*n + j holding entry (i, j) of
    U a - b U.  Each row is written directly: a[l][j] at column i*n + l,
    minus b[i][k] at column k*n + j.
    """
    if not a.is_square or not b.is_square:
        raise ShapeError("intertwiner spaces need square matrices")
    n, m, at = a.nrows, b.nrows, a.transpose().rows
    rows = []
    for i, b_row in enumerate(b.rows):
        for j in range(n):
            row = [0] * (m * n)
            row[i * n : (i + 1) * n] = at[j]
            for k, x in enumerate(b_row):
                row[k * n + j] -= x
            rows.append(row)
    return rows


def intertwiner_matrix(a: Matrix, b: Matrix) -> Matrix:
    """Coefficients of the linear map U -> U a - b U on row-major vec U (`_intertwiner_rows`)."""
    return Matrix.from_rows(_intertwiner_rows(a, b))


def intertwiner_space(a: Matrix, b: Matrix) -> list[Matrix]:
    """Deterministic basis of {U : U a == b U} over the rationals.

    a is n x n, b is m x m; the unknown U is m x n, flattened row-major when
    linearized.  The system rows are reduced in place and the basis read
    off them as the echelon nullspace (`nullspace`), so repeated calls
    agree entry for entry.
    """
    rows = _intertwiner_rows(a, b)
    basis = _echelon_basis(rows, _rref(rows), a.nrows * b.nrows)
    return [_reshape(v, b.nrows, a.nrows) for v in basis]


def _flat(m: Matrix) -> list[Rat]:
    """Entries of m, row-major."""
    return [x for row in m.rows for x in row]


def _reshape(flat: Sequence[Rat], nrows: int, ncols: int) -> Matrix:
    """The nrows x ncols matrix whose row-major entries are flat."""
    return Matrix.from_rows(flat[i * ncols : (i + 1) * ncols] for i in range(nrows))


def _combine(point: Sequence[Rat], coeffs: Iterable[Rat], basis: Sequence[Vector]) -> list[Rat]:
    """point + sum of t * direction over paired coeffs and basis, skipping t = 0."""
    out = list(point)
    for t, direction in zip(coeffs, basis):
        if t:
            out = [x + t * y for x, y in zip(out, direction)]
    return out


def _scan(
    point: Sequence[Rat], basis: Sequence[Vector], values: Iterable[Rat], budget: int | None
) -> Iterator[list[Rat]]:
    """point + sum t_k basis_k for the first `budget` tuples t of values^len(basis).

    Lexicographic in the order of values; a budget of None scans every tuple, 0 or less none.
    """
    combos = itertools.product(values, repeat=len(basis))
    limit = None if budget is None else max(budget, 0)
    return (_combine(point, combo, basis) for combo in itertools.islice(combos, limit))


def integer_points(
    particular: Vector,
    basis: Sequence[Vector],
    lo: int,
    hi: int,
    budget: int | None = None,
) -> Iterator[Vector]:
    """Integer vectors of particular + span(basis) with all entries in [lo, hi].

    The basis is re-echelonized so each direction owns a leading coordinate,
    and the particular point is shifted to the point of the set whose
    leading coordinates vanish.  Both are unique for the affine set, so the
    scan depends only on the set, not on the basis or point passed in.  Any
    boxed solution has integer leading coordinates in [lo, hi], so scanning
    those tuples lexicographically is complete within the box.  The budget
    counts scanned tuples, without exception: an empty basis scans the one
    empty tuple (the particular point itself), and a budget of 0 or less
    scans nothing.  A scan cut short by the budget raises nothing: the
    iterator just stops, so callers must treat it as "not found within
    bounds".
    """
    # Matrix() refuses a ragged basis
    ech = [list(v) for v in Matrix(tuple(basis)).rows]
    if ech and len(ech[0]) != len(particular):
        raise ShapeError("basis vectors and the particular point differ in length")
    pivots = _rref(ech)
    del ech[len(pivots) :]
    # shift the particular point so its leading coordinates vanish; an RREF
    # row is zero in every other row's pivot column, so one pass does it
    part = _combine(particular, [-particular[p] for p in pivots], ech)
    # scale the point and the rows by one common denominator d: a tuple gives
    # a boxed integer point iff every entry x of the scaled combination has
    # d*lo <= x <= d*hi and d | x, and that point is then x // d
    d = math.lcm(*(x.denominator for row in (part, *ech) for x in row))
    part, ech = _scaled(part, d), [_scaled(row, d) for row in ech]
    dlo, dhi = d * lo, d * hi
    for cand in _scan(part, ech, range(lo, hi + 1), budget):
        if all(dlo <= x <= dhi and x % d == 0 for x in cand):
            yield tuple(x // d for x in cand)


# ---------------------------------------------------------------------------
# Irreducibility, periodicity, Perron data
# ---------------------------------------------------------------------------


def support_digraph(m: Matrix) -> list[list[int]]:
    """Adjacency lists of the digraph with an arc i -> j when m[i][j] > 0."""
    return [[j for j, x in enumerate(row) if x != 0] for row in m.rows]


def _sparse_rows(m: Matrix) -> list[tuple[tuple[int, ...], tuple[Rat, ...]]]:
    """Per row of m, the columns of its nonzero entries (`support_digraph`) and those entries."""
    return [(tuple(js), tuple(map(row.__getitem__, js)))
            for row, js in zip(m.rows, support_digraph(m))]


def _sparse_apply(rows: Sequence[tuple[Sequence[int], Sequence[Rat]]],
                  v: Sequence[Rat]) -> list[Rat]:
    """M v over the nonzero entries of M alone, rows from `_sparse_rows(M)`."""
    get = v.__getitem__
    return [sum(map(operator.mul, xs, map(get, js))) for js, xs in rows]


def strong_components(adj: Sequence[Sequence[int]]) -> list[list[int]]:
    """Strongly connected components of the digraph with adjacency lists adj.

    Iterative Tarjan (one depth-first pass).  Components come out sinks
    first: each one is emitted after every component it can reach.
    """
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(adj[root]))]
        while work:
            v, successors = work[-1]
            for w in successors:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(adj[w])))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                        if w == v:
                            break
                    comps.append(comp)
    return comps


def carries_cycle(comp: Sequence[int], adj: Sequence[Sequence[int]]) -> bool:
    """Does a strong component contain a cycle (two or more vertices, or a loop)?"""
    return len(comp) > 1 or comp[0] in adj[comp[0]]


def reaches_cycle(adj: Sequence[Sequence[int]], comps: Sequence[Sequence[int]]) -> list[bool]:
    """For each vertex of adj, does it reach a component that carries a cycle (its own included)?

    comps is `strong_components(adj)`, sinks first, so every successor
    outside a component is already settled when the component is reached.
    """
    reaches = [False] * len(adj)
    for comp in comps:
        hit = carries_cycle(comp, adj) or any(reaches[w] for v in comp for w in adj[v])
        for v in comp:
            reaches[v] = hit
    return reaches


def _irreducible_support(m: Matrix) -> list[list[int]] | None:
    """The support digraph of m if m is irreducible, else None."""
    if not m.is_square:
        raise ShapeError("irreducibility needs a square matrix")
    adj = support_digraph(m)
    comps = strong_components(adj)
    return adj if len(comps) == 1 and carries_cycle(comps[0], adj) else None


def is_irreducible_matrix(m: Matrix) -> bool:
    """Strong connectivity of the support digraph; a lone vertex needs a loop."""
    return _irreducible_support(m) is not None


def cyclic_structure(m: Matrix) -> tuple[int, list[list[int]]]:
    """Period p and the cyclic classes of an irreducible nonnegative matrix.

    One support digraph serves the irreducibility check and the levels.
    Period is the gcd over all arcs (u, w) of level(u) + 1 - level(w) for BFS
    levels from vertex 0; classes collect indices by level mod p.
    """
    adj = _irreducible_support(m)
    if adj is None:
        raise NotIrreducible("cyclic structure needs an irreducible matrix")
    n = m.nrows
    level = [-1] * n
    level[0] = 0
    queue = [0]
    while queue:
        v = queue.pop(0)
        for w in adj[v]:
            if level[w] < 0:
                level[w] = level[v] + 1
                queue.append(w)
    p = 0
    for u in range(n):
        for w in adj[u]:
            p = math.gcd(p, level[u] + 1 - level[w])
    p = abs(p) or 1
    classes = [[v for v in range(n) if level[v] % p == r] for r in range(p)]
    return p, classes


class Sign(IntEnum):
    NEGATIVE = -1
    ZERO = 0
    POSITIVE = 1


class PerronData(Frozen):
    """Perron data of an irreducible matrix A, from one Faddeev-LeVerrier run on A^T.

    `poly` is det(xI - A), monic with integer coefficients and possibly
    repeated roots; the interval (lo, hi) contains exactly one of its
    distinct roots, namely the spectral radius, and neither endpoint is a
    root.  The Perron root is simple, so the polynomial changes sign at it
    and has one sign on each side of it in the interval, which is what lets
    `sign_at_perron_root` halve the interval by that sign alone, and lets
    the sign of gcd(poly, h) at the two ends show whether h(rho) = 0.
    `column` is column 0 of adj(xI - A^T), row j as its integer
    coefficients, constant term first, collected entry by entry as the
    Faddeev-LeVerrier run forms each B_k (no other adjugate entry is kept);
    at the Perron root it is a positive multiple of the left Perron vector,
    so one PerronData serves every pairing against A.  `period` and
    `classes` are `cyclic_structure(A)`: every arc of A runs from class r
    to class r + 1 mod period.
    """

    poly: Poly
    lo: Fraction
    hi: Fraction
    column: tuple[tuple[int, ...], ...]
    period: int
    classes: tuple[tuple[int, ...], ...]


def _check_perron_matrix(m: Matrix) -> None:
    if not m.is_integral() or not m.is_nonnegative():
        raise InvalidMatrix("Perron data needs a nonnegative integer matrix")


# The Collatz-Wielandt bracket of the Perron root reads x = (M + I)^_BRACKET_POWER 1
# and rounds onto the grid of step 2^-_GRID_BITS.
_BRACKET_POWER = 8
_GRID_BITS = 4


def _perron_bracket(m: Matrix) -> tuple[int, int]:
    """Grid numerators (lo, hi) of the Collatz-Wielandt bracket of the Perron
    root rho of m: lo / 2^_GRID_BITS < rho < hi / 2^_GRID_BITS.

    x = (m + I)^_BRACKET_POWER 1 is at least 1 entrywise, as (m + I) u >= u
    for every u >= 0, and for a nonnegative m and any x > 0, min (m x)_i / x_i <= rho <= max (m x)_i / x_i
    (Horn & Johnson, *Matrix Analysis*, 2nd ed., ch. 8).  The two ratios are
    rounded outward onto the grid in integers, and one more grid step on
    each side makes both inequalities strict.
    """
    rows = _sparse_rows(m)
    x = [1] * m.nrows
    for _ in range(_BRACKET_POWER):
        x = list(map(operator.add, x, _sparse_apply(rows, x)))
    y = [t << _GRID_BITS for t in _sparse_apply(rows, x)]
    return min(map(operator.floordiv, y, x)) - 1, 1 - min(-t // s for t, s in zip(y, x))


def isolate_perron_root(m: Matrix) -> PerronData:
    """Perron data of an irreducible nonnegative integer matrix.

    Irreducibility is checked once, by `cyclic_structure`, whose period and
    classes the data keeps (NotIrreducible otherwise).  One
    Faddeev-LeVerrier run on m^T gives det(xI - m^T) = det(xI - m) and the
    adjugate column.  The isolation starts from the Collatz-Wielandt bracket
    (`_perron_bracket`): x = (m + I)^k 1 is positive, as (m + I) u >= u for
    every u >= 0, so the Perron root lies between the least and the largest
    of the ratios (m x)_i / x_i.  Those are rounded
    outward onto a dyadic grid and widened by one step, so rho lies strictly
    inside, and an end that is a root of the polynomial (only an integer
    end can be: the polynomial is monic) moves out one more step until none
    is.  Nothing of the bracket is trusted beyond that: the Sturm chain of
    the polynomial itself counts its distinct roots in (lo, hi), even when
    they repeat (as in J_n's x^(n-1) (x - n)), no squarefree part taken, and
    a count of 1 proves the isolation.  A larger count, from other real
    eigenvalues inside the bracket, is bisected down to the rightmost root,
    a midpoint that is a root moving toward hi, so no end is ever a root.
    Every end is dyadic.
    """
    _check_perron_matrix(m)
    period, classes = cyclic_structure(m)
    cs, column = _faddeev_leverrier(m.transpose().to_int_rows())
    cp = Poly.from_coeffs(reversed(cs))
    chain = sturm_chain(cp)
    lo, hi = _perron_bracket(m)
    while not _dyadic_sign(cp.coeffs, lo, _GRID_BITS):
        lo -= 1
    while not _dyadic_sign(cp.coeffs, hi, _GRID_BITS):
        hi += 1
    lo, hi = Fraction(lo, 1 << _GRID_BITS), Fraction(hi, 1 << _GRID_BITS)
    # sign variations of the chain at lo and hi; their difference counts the
    # distinct roots in (lo, hi], so each step reads the chain at mid only
    v_lo, v_hi = _variations(chain, lo), _variations(chain, hi)
    while v_lo - v_hi > 1:
        mid = (lo + hi) / 2
        while cp.sign_at(mid) == 0:
            mid = (mid + hi) / 2
        v_mid = _variations(chain, mid)
        if v_mid - v_hi >= 1:
            lo, v_lo = mid, v_mid
        else:
            hi, v_hi = mid, v_mid
    return PerronData(cp, lo, hi, column, period, tuple(map(tuple, classes)))


# The zero test (one gcd, a remainder sequence) runs only on a pairing still
# undecided after this many halvings of the isolating interval: the bench's
# cone_order pairings are all decided by halving 4, and a zero test run
# earlier makes every nonzero pairing pay for a remainder sequence.  The
# Taylor test runs on every _TAYLOR_EVERY-th interval, as it costs about
# deg(h)/2 Horner evaluations of p.
_ZERO_TEST_STEP = 32
_TAYLOR_EVERY = 4


def _dyadic_sign(cs: Sequence[int], a: int, e: int) -> int:
    """Sign of the integer polynomial cs (constant first) at a / 2^e.

    Homogeneous Horner: 2^(e d) cs(a / 2^e) = sum c_i a^i 2^(e (d - i)), d =
    deg cs, the powers of two as shifts, so no `Fraction` is formed.
    """
    acc = shift = 0
    for c in reversed(cs):
        acc = acc * a + (c << shift)
        shift += e
    return (acc > 0) - (acc < 0)


def _halvings(p: Poly, lo: Fraction, hi: Fraction) -> Iterator[tuple[int, int, int]]:
    """(lo, hi), then its halves without end, each around the one root of p
    inside, every interval as integer numerators over one power of two:
    (lo 2^e, hi 2^e, e).

    Both ends must be dyadic, as `isolate_perron_root` makes them, and p
    must have opposite nonzero signs there (InvalidMatrix otherwise, on a
    hand-built `PerronData`).  Then that sign change is the root, so the
    half kept is the one whose ends p gives opposite signs, one integer
    Horner evaluation per step; a midpoint where p vanishes is the root
    itself, yielded as (mid, mid, e) to end the run.
    """
    if lo.denominator & (lo.denominator - 1) or hi.denominator & (hi.denominator - 1):
        raise InvalidMatrix("Perron interval ends must be dyadic")
    den = max(lo.denominator, hi.denominator)
    a, b = lo.numerator * (den // lo.denominator), hi.numerator * (den // hi.denominator)
    e = den.bit_length() - 1
    cs = _integral(p.coeffs)
    s_lo = _dyadic_sign(cs, a, e)
    if not s_lo or _dyadic_sign(cs, b, e) != -s_lo:
        raise InvalidMatrix("the polynomial must change sign across the Perron interval")
    yield a, b, e
    while True:
        mid, e = a + b, e + 1
        s = _dyadic_sign(cs, mid, e)
        if not s:
            yield mid, mid, e
            return
        if s == s_lo:
            a, b = mid, b << 1
        else:
            a, b = a << 1, mid
        yield a, b, e


def _taylor_sign(h: list[int], a: int, r: int, b: int) -> int:
    """The sign of h (integer coefficients, constant first) on the interval of
    centre a / b and radius r / b (b > 0) when a Taylor bound shows h has no
    root there, else 0.

    g(s) = b^d h((a + s)/b) = sum g_k s^k has integer coefficients, d = deg
    h.  If |g_0| > sum_(k>=1) |g_k| r^k then |g(s) - g_0| < |g_0| for every
    |s| <= r, so h keeps the sign of g_0 = b^d h(a/b) on the whole interval.
    """
    # b^d h(s / b), then shifted to s + a by d rounds of synthetic division
    d = len(h) - 1
    g = [c * b ** (d - i) for i, c in enumerate(h)]
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            g[j] += a * g[j + 1]
    rest = 0
    for c in reversed(g[1:]):
        rest = (rest + abs(c)) * r
    return (g[0] > rest) - (-g[0] > rest)


def sign_at_perron_root(h: Poly, pd: PerronData) -> Sign:
    """Exact sign of h at the Perron root rho described by pd.

    Sign change: (pd.lo, pd.hi) holds exactly one distinct root of pd.poly,
    rho, and rho is simple (Perron-Frobenius), so pd.poly changes sign at
    rho and nowhere else in the interval.  Halving it by the sign of pd.poly
    at the midpoint (`_halvings`, on integer numerators over a power of
    two) therefore keeps rho strictly inside, and a midpoint where pd.poly
    vanishes is rho itself (then an integer), where h is read directly.
    Bound: on a half with centre c and radius R, write h(c + t) =
    sum g_k t^k.  If |g_0| > sum_(k>=1) |g_k| R^k, then |h(c + t) - g_0| <
    |g_0| for every |t| <= R, so h has no root on the half and h(rho) has
    the sign of g_0 = h(c) (`_taylor_sign`, in integers).
    Zero: g = gcd(pd.poly, h) divides pd.poly, so its only possible root in
    a halved interval is rho, a simple one, and neither end is a root; so
    h(rho) = 0 exactly when g has opposite signs at the ends.  That test
    runs once, on a pairing still open at halving `_ZERO_TEST_STEP`.  A
    nonzero h(rho) passes the Taylor test once the half is small enough,
    so the halvings need no cap.  ZERO comes from h = 0, from the read at a
    rational rho, or from that gcd.
    """
    hs = _integral(h.coeffs)
    if not hs:
        return Sign.ZERO
    for step, (lo, hi, e) in enumerate(_halvings(pd.poly, pd.lo, pd.hi)):
        if lo == hi:
            return Sign(_dyadic_sign(hs, lo, e))
        # h of opposite signs at the ends has a root inside, which no bound
        # rules out: two Horner evaluations skip the Taylor shift
        if step % _TAYLOR_EVERY == 0 and _dyadic_sign(hs, lo, e) == _dyadic_sign(hs, hi, e) and (
                s := _taylor_sign(hs, lo + hi, hi - lo, 2 << e)):
            return Sign(s)
        if step == _ZERO_TEST_STEP:
            g = _integral(poly_gcd(pd.poly, h).coeffs)
            if _dyadic_sign(g, lo, e) != _dyadic_sign(g, hi, e):
                return Sign.ZERO


def perron_pairing_sign(a: Matrix | PerronData, v: Sequence[Rat]) -> Sign:
    """Exact sign of w . v for the strictly positive left Perron eigenvector w of a.

    a is an irreducible nonnegative integer matrix, or its `PerronData`
    (which pairs many vectors for one isolation).  The Perron root lambda
    is a simple root of the monic characteristic polynomial p and its
    largest real root, so p'(lambda) > 0, and adj(lambda I - a^T) =
    p'(lambda) w y^T / (y^T w) with w, y > 0 is entrywise positive.  Column 0
    is therefore a positive multiple of w, and w . v has the sign of
    h = sum_j v_j adj(x I - a^T)[j][0] at lambda: no eigenvector coordinate is
    ever approximated.
    """
    n = len(a.column) if isinstance(a, PerronData) else a.nrows
    if len(v) != n:
        raise ShapeError("vector length does not match matrix size")
    pd = a if isinstance(a, PerronData) else isolate_perron_root(a)
    v = vector(v)
    h = Poly.from_coeffs(_product([v], list(zip(*pd.column))))
    return sign_at_perron_root(h, pd)
