"""Term calculus for path algebras with ghost edges.

Elements are rational linear combinations of words in vertices v, edges e and
ghost edges e*.  Coefficients, edge weights and degrees follow the package's
number rule (`polynomials._num`): an int when integral, a Fraction otherwise,
never a float; `AlgebraElement` applies it once, where every element is made,
and `WeightMap` where each weight and each degree is.

`reduce` rewrites words with the local relations only, and they are one
composability rule.  Each atom goes from one vertex to another (`_ends`: v
from v to v, e from s(e) to r(e), e* from r(e) to s(e)).  A pair that does
not compose is zero; a vertex next to an atom it composes with is absorbed;
e* f is r(e) when f = e and zero otherwise; any other composable pair is
already normal.  Every word then lands on a monomial (real path times ghost
path, or a lone vertex) or vanishes; these normal forms are canonical for the
local relations, and the rewriting is confluent, so the scan strategy does
not matter.  Each word is reduced in one stack pass (`_reduce_word`), with
pair checks linear in its length.

The summation relation (vertex = sum of e e* over its outgoing edges) is not
applied by `reduce`.  Instead `equal_mod_ck2` decides equality modulo it by
expanding monomials to a common ghost depth: within one path-length degree the
expanded monomials of fixed shape are linearly independent, so an element is
zero exactly when all expanded coefficients cancel.  That is what the family
verifier uses.
Like terms are summed in one place, `_collect`, and each element is built
from all of its (word, coefficient) pairs in one call, never one `+` at a
time: the parser, the in-split family and the summation identity of
`verify_family` collect their sums once, so k terms cost O(k).
"""

from __future__ import annotations

import re
from collections.abc import Hashable, Iterable, Mapping
from fractions import Fraction
from functools import cached_property

from ._frozen import Frozen
from .errors import ParseError, SinkVertex, UnknownGenerator
from .graphs import Graph
from .polynomials import Rat, _num

Atom = tuple[str, str]  # ("v", name) | ("e", edge id) | ("g", edge id)
Word = tuple[Atom, ...]

_KILL = "kill"


def _collect(pairs: Iterable[tuple[Hashable, Rat]]) -> dict[Hashable, Rat]:
    """The coefficients of equal keys summed, keys in order of first appearance."""
    out: dict[Hashable, Rat] = {}
    for key, coeff in pairs:
        out[key] = out.get(key, 0) + coeff
    return out


class AlgebraElement:
    """Formal rational combination of words; treat instances as immutable."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Word, Rat] | None = None):
        self.terms: dict[Word, Rat] = {w: _num(c) for w, c in (terms or {}).items() if c != 0}

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AlgebraElement) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        return f"AlgebraElement({format_element(self)!r})"

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        return AlgebraElement(_collect([*self.terms.items(), *other.terms.items()]))

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + other.scale(-1)

    def scale(self, c: Rat | float) -> "AlgebraElement":
        c = _num(c)
        return AlgebraElement({w: c * v for w, v in self.terms.items()})


def zero_element() -> AlgebraElement:
    return AlgebraElement({})


def vertex_element(g: Graph, v: str) -> AlgebraElement:
    return word_element(g, (("v", v),))


def word_element(g: Graph, atoms: Iterable[Atom]) -> AlgebraElement:
    word = tuple(atoms)
    for kind, name in word:
        if kind == "v" and not g.has_vertex(name):
            raise UnknownGenerator(f"vertex {name!r} not in graph")
        if kind in ("e", "g") and not g.has_edge(name):
            raise UnknownGenerator(f"edge {name!r} not in graph")
    return AlgebraElement({word: 1})


def star(x: AlgebraElement) -> AlgebraElement:
    """Adjoint: reverse words, swap edges with ghosts, fix vertices."""
    flip = {"e": "g", "g": "e", "v": "v"}
    return AlgebraElement(
        {
            tuple((flip[k], n) for k, n in reversed(w)): c
            for w, c in x.terms.items()
        }
    )


# ---------------------------------------------------------------------------
# Rewriting
# ---------------------------------------------------------------------------


def _ends(g: Graph, atom: Atom) -> tuple[str, str]:
    """The vertex an atom starts at and the vertex it ends at, read off the
    graph's atom table; an atom not in it (an unknown edge raises ParseError)
    is resolved by its kind."""
    try:
        return g._atom_ends[atom]
    except KeyError:
        kind, name = atom
    if kind == "v":
        return name, name
    e = g.edge(name)
    return (e.src, e.dst) if kind == "e" else (e.dst, e.src)


def _rewrite_pair(g: Graph, x: Atom, y: Atom):
    """One local rewrite: list of atoms, the kill marker, or None when already valid."""
    (x_start, x_end), (y_start, _) = _ends(g, x), _ends(g, y)
    if x_end != y_start:
        return _KILL
    if x[0] == "v" or y[0] == "v":
        return [y] if x[0] == "v" else [x]
    if (x[0], y[0]) == ("g", "e"):
        return [("v", x_start)] if x[1] == y[1] else _KILL
    return None


def _reduce_word(g: Graph, word: Word, strategy: str) -> Word | None:
    """The normal form of word, or None when it is zero, in one stack pass.

    "leftmost" takes the atoms from the left.  Every prefix on the stack is
    irreducible, so the stack top and the next atom form the leftmost
    reducible pair; a rewrite pops the top and puts its atoms back in front
    of the rest, so the rewrites fire in the order a rescan from the left
    would fire them.  "rightmost" is the mirror pass, from the right.
    """
    right = strategy == "rightmost"
    pending, done = list(word) if right else list(reversed(word)), []
    while pending:
        x = pending.pop()
        if done:
            res = _rewrite_pair(g, x, done[-1]) if right else _rewrite_pair(g, done[-1], x)
            if res == _KILL:
                return None
            if res is not None:
                done.pop()
                pending.extend(res if right else reversed(res))
                continue
        done.append(x)
    return tuple(reversed(done)) if right else tuple(done)


def reduce(g: Graph, x: AlgebraElement, strategy: str = "leftmost") -> AlgebraElement:
    """Rewrite every word to its monomial normal form and collect like terms.

    strategy picks which reducible pair fires first ("leftmost" or
    "rightmost"); the result is the same either way, which the test suite
    exercises as a confluence check.
    """
    if strategy not in ("leftmost", "rightmost"):
        raise ParseError(f"unknown strategy {strategy!r}")
    normal = ((_reduce_word(g, word, strategy), coeff) for word, coeff in x.terms.items())
    return AlgebraElement(_collect((nf, coeff) for nf, coeff in normal if nf is not None))


def multiply(g: Graph, x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Product, returned in reduced form."""
    pairs = ((w1 + w2, c1 * c2) for w1, c1 in x.terms.items() for w2, c2 in y.terms.items())
    return reduce(g, AlgebraElement(_collect(pairs)))


# ---------------------------------------------------------------------------
# Grading
# ---------------------------------------------------------------------------


class WeightMap(Frozen):
    """Rational weights on edges; ghost edges carry the negated weight."""

    weights: tuple[tuple[str, Rat], ...]

    @classmethod
    def from_mapping(cls, g: Graph, mapping: Mapping[str, Fraction | int | str]) -> "WeightMap":
        if not isinstance(mapping, Mapping):
            raise ParseError("weights must map edge ids to numbers")
        table = {}
        for e, w in mapping.items():
            if not g.has_edge(e):
                raise UnknownGenerator(f"edge {e!r} not in graph")
            table[e] = _num(parse_rational(w))
        missing = [e.id for e in g.edges if e.id not in table]
        if missing:
            raise UnknownGenerator(f"weights missing for edges: {', '.join(missing)}")
        return cls(tuple(sorted(table.items())))

    @classmethod
    def uniform(cls, g: Graph) -> "WeightMap":
        """Weight 1 on every edge: the path-length grading."""
        return cls(tuple((e.id, 1) for e in g.edges))

    @cached_property
    def _table(self) -> dict[str, Rat]:
        return dict(self.weights)

    def degree_of_word(self, word: Word) -> Rat:
        total = 0
        table = self._table
        for kind, name in word:
            if kind == "e":
                total += table[name]
            elif kind == "g":
                total -= table[name]
        return _num(total)


def graded_decompose(
    g: Graph, w: WeightMap, x: AlgebraElement
) -> dict[Rat, AlgebraElement]:
    """Split a (reduced) element into its homogeneous components by degree."""
    x = reduce(g, x)
    buckets: dict[Rat, dict[Word, Rat]] = {}
    for word, coeff in x.terms.items():
        d = w.degree_of_word(word)
        buckets.setdefault(d, {})[word] = coeff
    return {d: AlgebraElement(t) for d, t in sorted(buckets.items())}


# ---------------------------------------------------------------------------
# The summation relation
# ---------------------------------------------------------------------------


def ck2_expand(g: Graph, x: AlgebraElement, v: str) -> AlgebraElement:
    """Replace the standalone vertex monomial v by the sum of e e* over its out-edges."""
    if not g.has_vertex(v):
        raise UnknownGenerator(f"vertex {v!r} not in graph")
    outs = g.out_edges(v)
    if not outs:
        raise SinkVertex(f"vertex {v!r} emits no edges")
    x = reduce(g, x)
    expand: dict[Word, list[Word]] = {(("v", v),): [(("e", e.id), ("g", e.id)) for e in outs]}
    pairs = ((w, c) for word, c in x.terms.items() for w in expand.get(word, [word]))
    return AlgebraElement(_collect(pairs))


def equal_mod_ck2(g: Graph, x: AlgebraElement, y: AlgebraElement) -> bool:
    """Decide x == y modulo all relations, including the summation relation.

    Works degree by degree (path-length grading).  Each normal word is read
    as (mu, gamma, base): its edges, its ghost edges in reverse order, and
    the vertex where the real part meets the ghost part.  It is expanded
    through mu gamma* = sum over e at the base of (mu e)(gamma e)* until its
    ghost path reaches the maximal length in its degree class or its base is
    a sink.  Expanded monomials of a fixed shape are linearly independent, so
    the difference is zero exactly when everything cancels.
    """
    diff = reduce(g, x - y)
    if diff.is_zero():
        return True
    groups: dict[int, list[tuple[tuple[str, ...], tuple[str, ...], str, Rat]]] = {}
    for word, coeff in diff.terms.items():
        mu = tuple(n for k, n in word if k == "e")
        gamma = tuple(n for k, n in reversed(word) if k == "g")
        base = _ends(g, word[len(mu) - 1])[1] if mu else _ends(g, word[0])[0]
        groups.setdefault(len(mu) - len(gamma), []).append((mu, gamma, base, coeff))
    for monos in groups.values():
        depth = max(len(gamma) for _, gamma, _, _ in monos)
        leaves, stack = [], list(monos)
        while stack:
            mu, gamma, base, coeff = stack.pop()
            outs = g.out_edges(base)
            if len(gamma) >= depth or not outs:
                leaves.append(((mu, gamma, base), coeff))
            else:
                stack.extend((mu + (e.id,), gamma + (e.id,), e.dst, coeff) for e in outs)
        if any(c != 0 for c in _collect(leaves).values()):
            return False
    return True


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------


class FamilyAssignment(Frozen):
    """Images of one graph's generators inside the term algebra of another."""

    target: Graph
    vertex_images: tuple[tuple[str, AlgebraElement], ...]
    edge_images: tuple[tuple[str, AlgebraElement], ...]
    ghost_images: tuple[tuple[str, AlgebraElement], ...]

    @classmethod
    def build(
        cls,
        target: Graph,
        vertex_images: Mapping[str, AlgebraElement],
        edge_images: Mapping[str, AlgebraElement],
    ) -> "FamilyAssignment":
        """The assignment whose ghost images are the stars of the edge images."""
        return cls(
            target,
            tuple(sorted(vertex_images.items())),
            tuple(sorted(edge_images.items())),
            tuple(sorted((e, star(x)) for e, x in edge_images.items())),
        )

    def q(self, v: str) -> AlgebraElement:
        return self._image(0, v, "no image assigned to vertex {!r}")

    def t(self, e: str) -> AlgebraElement:
        return self._image(1, e, "no image assigned to edge {!r}")

    def tstar(self, e: str) -> AlgebraElement:
        return self._image(2, e, "no ghost image assigned to edge {!r}")

    @cached_property
    def _tables(self) -> tuple[dict[str, AlgebraElement], ...]:
        return tuple(
            dict(reversed(images))  # a name listed twice keeps its first image
            for images in (self.vertex_images, self.edge_images, self.ghost_images)
        )

    def _image(self, part: int, name: str, missing: str) -> AlgebraElement:
        try:
            return self._tables[part][name]
        except KeyError:
            raise UnknownGenerator(missing.format(name)) from None


def verify_family(fa: FamilyAssignment, source: Graph) -> bool:
    """Check the defining relations of the source graph on the assigned images.

    Verifies, inside the target term algebra and modulo the summation
    relation: orthogonality of the vertex images, the source/range absorption
    laws, ghost-edge orthogonality, and (at every non-sink of the source) the
    summation identity itself.
    """
    tg = fa.target
    for v in source.vertices:
        fa.q(v)
    for e in source.edges:
        fa.t(e.id)
        fa.tstar(e.id)

    def eq(a: AlgebraElement, b: AlgebraElement) -> bool:
        return equal_mod_ck2(tg, a, b)

    zero = zero_element()
    for u in source.vertices:
        qu = fa.q(u)
        for v in source.vertices:
            want = qu if u == v else zero
            if not eq(multiply(tg, qu, fa.q(v)), want):
                return False
    for e in source.edges:
        te, tse = fa.t(e.id), fa.tstar(e.id)
        qs, qr = fa.q(e.src), fa.q(e.dst)
        if not eq(multiply(tg, qs, te), te) or not eq(multiply(tg, te, qr), te):
            return False
        if not eq(multiply(tg, qr, tse), tse) or not eq(multiply(tg, tse, qs), tse):
            return False
    for e in source.edges:
        for f in source.edges:
            want = fa.q(e.dst) if e.id == f.id else zero
            if not eq(multiply(tg, fa.tstar(e.id), fa.t(f.id)), want):
                return False
    for v in source.vertices:
        outs = source.out_edges(v)
        if not outs:
            continue
        products = (multiply(tg, fa.t(e.id), fa.tstar(e.id)) for e in outs)
        total = AlgebraElement(_collect(pair for x in products for pair in x.terms.items()))
        if not eq(total, fa.q(v)):
            return False
    return True


# ---------------------------------------------------------------------------
# Canonical families for moves
# ---------------------------------------------------------------------------


def in_split_family(g: Graph, p) -> tuple[Graph, FamilyAssignment]:
    """The canonical generating family of an in-split inside the split algebra.

    Each vertex maps to its first copy; the edge e in block i at its range
    maps to the sum over edges f leaving that range of e.1 f.i f.1*.  The
    source graph must have no sinks for this to be a family.
    """
    from .moves import _block_of_edge, _copy_name, in_split  # reduce and decompose skip moves

    h, _ = in_split(g, p)
    block = _block_of_edge(p)
    q = {v: vertex_element(h, _copy_name(v, 0) if g.in_edges(v) else v) for v in g.vertices}
    t: dict[str, AlgebraElement] = {}
    for e in g.edges:
        head = ("e", _copy_name(e.id, 0))
        t[e.id] = AlgebraElement({
            (head, ("e", _copy_name(f.id, block[e.id])), ("g", _copy_name(f.id, 0))): 1
            for f in g.out_edges(e.dst)
        })
    return h, FamilyAssignment.build(h, q, t)


# ---------------------------------------------------------------------------
# Parsing and printing
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(?P<op>[+-])|(?P<num>\d+(?:/\d+)?)|(?P<gen>[A-Za-z_][A-Za-z0-9_.|]*\*?))")


def parse_rational(x: Fraction | int | float | str) -> Fraction:
    """A rational from an int, a finite float, a Fraction or a string such as "3/2".

    Bools and every other type are rejected rather than coerced.
    """
    if isinstance(x, bool) or not isinstance(x, (int, float, str, Fraction)):
        raise ParseError(f"expected a rational number, got {x!r}")
    try:
        return Fraction(str(x).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"expected a rational number, got {x!r}") from exc


def _tokens(text: str) -> list[tuple[str, str]]:
    """The (kind, text) of each token, kind "op", "num" or "gen", left to right."""
    tokens, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            rest = text[pos:].strip()
            if rest:
                raise ParseError(f"cannot tokenize {rest[:20]!r}")
            break
        tokens.append((m.lastgroup, m.group(m.lastgroup)))
        pos = m.end()
    return tokens


def parse_element(g: Graph, text: str) -> AlgebraElement:
    """Parse `3/2 e1 e2* + v1 - e3` style expressions over the graph's generators.

    Every term adds its (word, coefficient) pairs to one list, which is
    collected once; a bare scalar is that multiple of the unit, the sum of
    all vertices, so "0" parses to the zero element.
    """
    tokens = _tokens(text)
    if not tokens:
        raise ParseError("empty expression")
    pairs: list[tuple[Word, Rat]] = []
    idx = 0
    while idx < len(tokens):
        kind, val = tokens[idx]
        coeff: Rat = 1
        if kind == "op":
            coeff, idx = (-1 if val == "-" else 1), idx + 1
        elif idx:
            raise ParseError(f"expected + or - before {val!r}")
        saw_number = idx < len(tokens) and tokens[idx][0] == "num"
        if saw_number:
            try:
                coeff *= Fraction(tokens[idx][1])
            except ZeroDivisionError:
                raise ParseError(f"zero denominator in {tokens[idx][1]!r}") from None
            idx += 1
        atoms: list[Atom] = []
        while idx < len(tokens) and tokens[idx][0] == "gen":
            tok = tokens[idx][1]
            idx += 1
            name, starred = tok.removesuffix("*"), tok.endswith("*")
            if g.has_vertex(name):
                if starred:
                    raise ParseError(f"vertices are self-adjoint; write {name!r} without *")
                atoms.append(("v", name))
            elif g.has_edge(name):
                atoms.append(("g" if starred else "e", name))
            else:
                raise UnknownGenerator(f"{name!r} is neither a vertex nor an edge")
        if atoms:
            pairs.append((tuple(atoms), coeff))
        elif saw_number:
            pairs.extend(((("v", v),), coeff) for v in g.vertices)
        else:
            raise ParseError("term without generators")
    return AlgebraElement(_collect(pairs))


def format_element(x: AlgebraElement) -> str:
    if x.is_zero():
        return "0"

    def word_str(word: Word) -> str:
        return " ".join(n if k != "g" else f"{n}*" for k, n in word)

    pieces = []
    for word in sorted(x.terms, key=lambda w: (len(w), w)):
        coeff = x.terms[word]
        mag = abs(coeff)
        body = word_str(word)
        if mag != 1:
            body = f"{mag} {body}"
        pieces.append((coeff < 0, body))
    out = ("-" if pieces[0][0] else "") + pieces[0][1]
    for negative, body in pieces[1:]:
        out += (" - " if negative else " + ") + body
    return out
