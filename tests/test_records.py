"""The package's value classes as frozen records: each behaves as
`dataclass(frozen=True)` did (hash of the field tuple, equality within one
class, `Name(field=value, ...)` repr, match arguments, keyword and default
construction, no assignment or deletion, the `__post_init__` checks), with
the fields read off the class annotations by `sftkit._frozen.Frozen`."""

from __future__ import annotations

import copy
from fractions import Fraction

import pytest

from sftkit import dimension, equivalences, graphs, invariants, linalg, moves, polynomials, terms
from sftkit._frozen import Frozen, FrozenInstanceError
from sftkit.dimension import (
    DimElement,
    DimensionTriple,
    InCone,
    ModuleIsoCandidate,
    NotInCone,
    Unknown,
)
from sftkit.errors import InvalidMatrix, ParseError, ShapeError
from sftkit.graphs import Edge, Graph
from sftkit.linalg import Matrix


def _samples() -> list:
    m = Matrix(((1, 1), (1, 0)))
    g = graphs.from_adjacency(m)
    w = equivalences.SSEWitness(m, Matrix(((1, 0), (0, 1))))
    system = dimension.IntertwinerSystem(Matrix(((1, -1),)), (0,), ("intertwine[0,0]",))
    split = moves.EdgePartition((("v1", (("e1",), ("e3",))), ("v2", (("e2",),))))
    return [
        Edge("a", "b", "e1"),
        Graph(("a", "b"), (Edge("a", "b", "e1"),)),
        graphs.classify(g),
        m,
        linalg.AffineSolution((1, 0), ((Fraction(1, 2), 1),)),
        linalg.AffineInfeasible((Fraction(1, 2), 0)),
        linalg.isolate_perron_root(m),
        polynomials.Poly((-1, 0, 1)),
        invariants.AbelianGroupFP((2, 4), 1),
        invariants.bratteli(m, 1),
        moves.EdgePartition((("v1", (("e1",), ("e2",))),)),
        moves.bridge_from_factorization(Matrix(((2,),)), Matrix(((1, 1),)), Matrix(((1,), (1,)))),
        terms.WeightMap((("e1", 1), ("e2", Fraction(1, 2)))),
        terms.in_split_family(g, split)[1],
        w,
        equivalences.SEWitness(m, m, 2),
        equivalences.ChainLink(m, w),
        equivalences.ChainWitness((equivalences.ChainLink(m, w),)),
        DimensionTriple(m),
        DimElement((1, -1), 2),
        InCone(3),
        NotInCone(),
        Unknown(3),
        ModuleIsoCandidate(m),
        system,
        dimension.Infeasible(system, (1,)),
        dimension.Candidate(m),
        dimension.NotFoundWithinBounds(7),
    ]


_SAMPLES = _samples()
_IDS = [type(x).__name__ for x in _SAMPLES]

# the reprs `dataclass(frozen=True)` gave these samples
_M = "Matrix(rows=((1, 1), (1, 0)))"
_W = f"SSEWitness(r={_M}, s=Matrix(rows=((1, 0), (0, 1))))"
_SYSTEM = ("IntertwinerSystem(coefficients=Matrix(rows=((1, -1),)), rhs=(0,), "
           "labels=('intertwine[0,0]',))")
_REPRS = {
    "Edge": "Edge(src='a', dst='b', id='e1')",
    "Graph": "Graph(vertices=('a', 'b'), edges=(Edge(src='a', dst='b', id='e1'),))",
    "GraphReport": "GraphReport(sinks=(), sources=(), essential=True, irreducible=True, "
                   "trivial=False, purely_infinite_simple=True, strongly_graded=True)",
    "Matrix": _M,
    "AffineSolution": "AffineSolution(particular=(1, 0), basis=((Fraction(1, 2), 1),))",
    "AffineInfeasible": "AffineInfeasible(certificate=(Fraction(1, 2), 0))",
    "PerronData": "PerronData(poly=Poly(coeffs=(-1, -1, 1)), lo=Fraction(3, 2), hi=Fraction(27, 16), "
                  "column=((0, 1), (1, 0)), period=1, classes=((0, 1),))",
    "Poly": "Poly(coeffs=(-1, 0, 1))",
    "AbelianGroupFP": "AbelianGroupFP(factors=(2, 4), free_rank=1)",
    "BratteliDiagram": f"BratteliDiagram(levels=((1, 1), (2, 1)), step={_M})",
    "EdgePartition": "EdgePartition(blocks=(('v1', (('e1',), ('e2',))),))",
    "WeightMap": "WeightMap(weights=(('e1', 1), ('e2', Fraction(1, 2))))",
    "SSEWitness": _W,
    "SEWitness": f"SEWitness(r={_M}, s={_M}, lag=2)",
    "ChainLink": f"ChainLink(matrix={_M}, witness={_W})",
    "ChainWitness": f"ChainWitness(links=(ChainLink(matrix={_M}, witness={_W}),))",
    "DimensionTriple": f"DimensionTriple(matrix={_M})",
    "DimElement": "DimElement(a=(1, -1), k=2)",
    "InCone": "InCone(power=3)",
    "NotInCone": "NotInCone(reason='')",
    "Unknown": "Unknown(bound=3)",
    "ModuleIsoCandidate": f"ModuleIsoCandidate(matrix={_M}, pointed=False)",
    "IntertwinerSystem": _SYSTEM,
    "Infeasible": f"Infeasible(system={_SYSTEM}, certificate=(1,))",
    "Candidate": f"Candidate(matrix={_M})",
    "NotFoundWithinBounds": "NotFoundWithinBounds(tried=7)",
}


def _fields(x) -> tuple:
    return tuple(getattr(x, name) for name in type(x).__match_args__)


def test_every_record_class_has_a_sample():
    modules = (dimension, equivalences, graphs, invariants, linalg, moves, polynomials, terms)
    records = {
        name for module in modules for name, value in vars(module).items()
        if isinstance(value, type) and issubclass(value, Frozen)
        and value.__module__ == module.__name__
    }
    assert len(records) == 28
    assert records == set(_IDS)
    assert set(_REPRS) == records - {"BridgeGraph", "FamilyAssignment"}


@pytest.mark.parametrize("x", _SAMPLES, ids=_IDS)
def test_fields_are_the_annotations_in_order(x):
    cls = type(x)
    assert cls.__match_args__ == tuple(cls.__annotations__)
    # a class pattern binds the fields positionally
    match x:
        case cls(first):
            assert first is getattr(x, cls.__match_args__[0])
        case _:
            pytest.fail("the class pattern did not match")


@pytest.mark.parametrize("x", _SAMPLES, ids=_IDS)
def test_hash_is_the_hash_of_the_field_tuple(x):
    if type(x).__name__ == "BridgeGraph":  # its theta maps are dicts
        for value in (x, _fields(x)):
            with pytest.raises(TypeError, match="unhashable type: 'dict'"):
                hash(value)
        return
    assert hash(x) == hash(_fields(x))
    assert len({x, copy.copy(x)}) == 1


@pytest.mark.parametrize("x", _SAMPLES, ids=_IDS)
def test_equal_only_within_one_class(x):
    cls = type(x)
    twin = cls(**dict(zip(cls.__match_args__, _fields(x))))
    assert twin == x and not twin != x and twin is not x
    assert copy.copy(x) == x
    assert x != _fields(x) and _fields(x) != x
    assert x.__eq__(_fields(x)) is NotImplemented
    assert x != object()


def test_equal_fields_in_other_classes_differ():
    assert InCone(3) != Unknown(3) and not InCone(3) == Unknown(3)
    assert InCone(3) == InCone(3) != InCone(4)
    assert dimension.Candidate(Matrix(((1,),))) != DimensionTriple(Matrix(((1,),)))
    assert Edge("a", "b", "e") != ("a", "b", "e")
    assert Matrix(((1,),)) != ((1,),) and polynomials.Poly((1,)) != (1,)
    assert len({InCone(3), Unknown(3), InCone(3)}) == 2


@pytest.mark.parametrize("x", _SAMPLES, ids=_IDS)
def test_repr_names_every_field(x):
    name = type(x).__name__
    fields = ", ".join(f"{f}={getattr(x, f)!r}" for f in type(x).__match_args__)
    assert repr(x) == f"{name}({fields})"
    if name in _REPRS:
        assert repr(x) == _REPRS[name]


@pytest.mark.parametrize("x", _SAMPLES, ids=_IDS)
def test_assignment_and_deletion_raise(x):
    before = _fields(x)
    for name in (*type(x).__match_args__, "extra"):
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(x, name, 0)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(x, name)
    assert _fields(x) == before and not hasattr(x, "extra")
    assert issubclass(FrozenInstanceError, AttributeError)


@pytest.mark.parametrize("x", _SAMPLES, ids=_IDS)
def test_wrong_arguments_raise_type_error(x):
    cls, values = type(x), _fields(x)
    first = cls.__match_args__[0]
    for args, kwargs in (
        ((*values, None), {}),  # one argument too many
        (values, {first: values[0]}),  # a field given twice
        (values, {"extra": 1}),  # no such field
    ):
        with pytest.raises(TypeError):
            cls(*args, **kwargs)
    if not all(name in vars(cls) for name in cls.__match_args__):
        with pytest.raises(TypeError):
            cls()


def test_keyword_and_default_construction():
    m = Matrix(((1, 1), (1, 0)))
    assert NotInCone() == NotInCone("") == NotInCone(reason="")
    assert InCone().power is None and InCone(power=2) == InCone(2)
    assert repr(InCone()) == "InCone(power=None)"
    assert ModuleIsoCandidate(m).pointed is False
    assert ModuleIsoCandidate(m, pointed=True) == ModuleIsoCandidate(matrix=m, pointed=True)
    assert ModuleIsoCandidate(m) != ModuleIsoCandidate(m, True)
    assert Edge(dst="b", id="e", src="a") == Edge("a", "b", "e")
    assert Matrix(rows=((1,),)) == Matrix(((1,),))
    assert DimElement(k=2, a=(1, 0)) == DimElement((1, 0), 2)
    with pytest.raises(TypeError):
        ModuleIsoCandidate(pointed=True)
    with pytest.raises(TypeError):
        Edge("a", "b")


def test_post_init_checks_still_raise():
    with pytest.raises(InvalidMatrix, match="ragged rows"):
        Matrix(((1, 2), (3,)))
    with pytest.raises(InvalidMatrix, match="ragged rows"):
        Matrix(rows=((1,), ()))
    with pytest.raises(ParseError, match="duplicate vertex names"):
        Graph(("a", "a"), ())
    with pytest.raises(ParseError, match="duplicate edge ids"):
        Graph(vertices=("a",), edges=(Edge("a", "a", "e"), Edge("a", "a", "e")))
    with pytest.raises(ShapeError, match="stage index"):
        DimElement((1,), -1)
    with pytest.raises(ShapeError, match="square"):
        DimensionTriple(matrix=Matrix(((1, 0),)))


def test_cached_properties_sit_beside_the_frozen_fields():
    g = graphs.from_adjacency(Matrix(((1, 2), (1, 0))))
    assert g.adjacency() is g.adjacency()
    assert g.edge("e2") == Edge("v1", "v2", "e2")
    assert g == graphs.from_adjacency(Matrix(((1, 2), (1, 0))))  # caches do not enter equality
    assert hash(g) == hash((g.vertices, g.edges))
    with pytest.raises(FrozenInstanceError):
        g._adjacency = None
