"""The public surface: package exports, and layer functions that outside
instrumentation replaces by module attribute (so they must stay there)."""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sftkit
from sftkit import dimension, equivalences, linalg

_EXPORTS = [
    "AbelianGroupFP", "AlgebraElement", "Candidate", "ChainLink", "ChainWitness",
    "DimElement", "DimensionTriple", "Edge", "EdgePartition", "FamilyAssignment",
    "Graph", "InCone", "Infeasible", "Matrix", "ModuleIsoCandidate",
    "NotFoundWithinBounds", "NotInCone", "Poly", "SEWitness", "SSEWitness",
    "SftkitError", "Unknown", "WeightMap", "bowen_franks", "bratteli",
    "bridge_from_factorization", "char_poly", "char_poly_away_from_zero",
    "ck2_expand", "classify", "det_i_minus_a", "dg_add", "dg_equal", "dg_neg",
    "dg_positive", "dg_scale", "dg_shift", "equal_mod_ck2", "essentialize",
    "flow_equivalent", "from_adjacency", "from_graph", "graded_decompose",
    "in_split", "invariants_report", "kronecker_product", "order_unit",
    "out_split", "parse_element", "product_triple", "reduce", "search_esse",
    "search_module_iso", "search_pointed_intertwiner", "search_se",
    "smith_normal_form", "star", "tensor_phi", "tensor_psi", "transpose",
    "verify_bridge", "verify_chain", "verify_esse", "verify_family",
    "verify_module_iso", "verify_se", "__version__",
]

_LAYER_FUNCTIONS = {
    "linalg": ("solve_affine_exact", "integer_points", "intertwiner_space",
               "perron_pairing_sign", "is_irreducible_matrix", "cyclic_structure",
               "smith_normal_form", "char_poly"),
    "polynomials": ("sturm_chain", "count_roots", "squarefree_part"),
    "equivalences": ("search_se", "search_esse", "verify_se"),
    "dimension": ("dg_positive", "search_module_iso", "verify_module_iso"),
    "invariants": ("bowen_franks", "char_poly_away_from_zero", "flow_equivalent"),
    "graphs": ("classify", "essentialize", "from_adjacency"),
    "moves": ("out_split", "in_split", "kronecker_product",
              "bridge_from_factorization", "verify_bridge"),
    "terms": ("reduce", "in_split_family", "verify_family"),
}


def test_package_exports_are_pinned():
    assert sftkit.__all__ == _EXPORTS
    assert all(hasattr(sftkit, name) for name in _EXPORTS)


def test_exports_resolve_to_their_home_module():
    namespace: dict = {}
    exec("from sftkit import *", namespace)
    assert set(_EXPORTS) <= set(namespace)
    assert set(_EXPORTS) <= set(dir(sftkit))
    for name in _EXPORTS[:-1]:
        value = getattr(sftkit, name)
        home = importlib.import_module(value.__module__)
        assert value is getattr(home, name) is namespace[name], name
    with pytest.raises(AttributeError):
        sftkit.nope


def test_submodules_resolve_after_a_bare_import():
    src = Path(__file__).resolve().parent.parent / "src"
    probe = "import sftkit; print(sftkit.linalg.__name__, sftkit.linalg.Matrix is sftkit.Matrix)"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["sftkit.linalg", "True"]


def test_layer_functions_stay_module_attributes():
    for module, names in _LAYER_FUNCTIONS.items():
        mod = importlib.import_module(f"sftkit.{module}")
        for name in names:
            assert callable(getattr(mod, name)), f"{module}.{name}"


def test_callers_look_up_kernels_by_name():
    # a wrapper installed on these attributes sees the calls the searches make
    assert equivalences.solve_affine_exact is linalg.solve_affine_exact
    assert equivalences.intertwiner_space is linalg.intertwiner_space
    assert dimension.perron_pairing_sign is linalg.perron_pairing_sign


def test_every_import_is_used():
    # a name bound by a module-level import is read somewhere else in that
    # module, so a removal leaves no orphaned import behind
    for path in sorted(Path(sftkit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        bound = {
            (alias.asname or alias.name).split(".")[0]
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
            for alias in node.names
        }
        read = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        assert not bound - read, f"{path.name}: unused {sorted(bound - read)}"


def _module_level_names(stmt: ast.stmt) -> set[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return {n.id for t in targets if t for n in ast.walk(t) if isinstance(n, ast.Name)}


def _loads(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def test_no_dead_private_name_or_parameter():
    # a module-level private name (`_x` def, class or assignment) is read
    # somewhere in the package outside its own definition: by name, as an
    # attribute or by an import; and every parameter of every function and
    # lambda is read in its body, dunder protocol methods (`__setattr__`)
    # being exempt, since the protocol fixes their signatures
    trees = [ast.parse(p.read_text()) for p in sorted(Path(sftkit.__file__).parent.glob("*.py"))]
    stmts = [stmt for tree in trees for stmt in tree.body]

    def reads(stmt: ast.stmt) -> set[str]:
        return _loads(stmt) | {n.attr for n in ast.walk(stmt) if isinstance(n, ast.Attribute)} | {
            alias.name for n in ast.walk(stmt) if isinstance(n, ast.ImportFrom) for alias in n.names
        }

    read_by = [(stmt, reads(stmt)) for stmt in stmts]
    dead = sorted(
        name
        for stmt in stmts
        for name in _module_level_names(stmt)
        if name.startswith("_") and not name.startswith("__")
        and not any(name in names for other, names in read_by if other is not stmt)
    )
    assert not dead, f"private names never read: {dead}"
    unused = []
    for fn in (n for tree in trees for n in ast.walk(tree)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        name = getattr(fn, "name", "<lambda>")
        if name.startswith("__") and name.endswith("__"):
            continue
        a = fn.args
        params = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p}
        unused += [f"{name}({p}), line {fn.lineno}" for p in sorted(params - _loads(fn))]
    assert not unused, f"parameters never read: {unused}"


def test_no_module_imports_dataclasses():
    # the value classes derive from `sftkit._frozen.Frozen`, which generates no
    # code; `dataclasses` would load `inspect` into every command
    for path in sorted(Path(sftkit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert all(m.split(".")[0] != "dataclasses" for m in modules), path.name
