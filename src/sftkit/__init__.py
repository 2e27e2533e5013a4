"""Exact-arithmetic invariants, equivalences and term calculus for edge shifts.

The package works with finite directed graphs and their nonnegative integer
adjacency matrices: flow invariants (Bowen-Franks group, determinant data),
dimension triples with decidable cone membership, witness verification and
bounded search for (strong) shift equivalence, splitting moves with their
witnesses, product graphs, and a term calculus for the associated path
algebras with ghost edges.  All arithmetic is exact (integers and
fractions); searches are complete within their stated bounds and never
report a negative as a proof of inequivalence.
"""

import importlib

__version__ = "0.1.0"

# home submodule of each exported name; an export is imported on first use,
# so `import sftkit` alone loads no submodule
_HOMES = {
    "dimension": (
        "Candidate", "DimElement", "DimensionTriple", "InCone", "Infeasible",
        "ModuleIsoCandidate", "NotFoundWithinBounds", "NotInCone", "Unknown",
        "dg_add", "dg_equal", "dg_neg", "dg_positive", "dg_scale", "dg_shift",
        "from_graph", "order_unit", "product_triple",
        "search_module_iso", "search_pointed_intertwiner", "tensor_phi",
        "tensor_psi", "verify_module_iso",
    ),
    "equivalences": (
        "ChainLink", "ChainWitness", "SEWitness", "SSEWitness", "search_esse",
        "search_se", "verify_chain", "verify_esse", "verify_se",
    ),
    "errors": ("SftkitError",),
    "graphs": (
        "Edge", "Graph", "classify", "essentialize", "from_adjacency", "transpose",
    ),
    "invariants": (
        "AbelianGroupFP", "bowen_franks", "bratteli", "char_poly_away_from_zero",
        "det_i_minus_a", "flow_equivalent", "invariants_report",
    ),
    "linalg": ("Matrix", "char_poly", "smith_normal_form"),
    "moves": (
        "EdgePartition", "bridge_from_factorization", "in_split",
        "kronecker_product", "out_split", "verify_bridge",
    ),
    "polynomials": ("Poly",),
    "terms": (
        "AlgebraElement", "FamilyAssignment", "WeightMap", "ck2_expand",
        "equal_mod_ck2", "graded_decompose", "parse_element", "reduce", "star",
        "verify_family",
    ),
}
_EXPORTS = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name: str):
    if name in _HOMES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_HOMES})
