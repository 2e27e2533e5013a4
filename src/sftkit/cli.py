"""Command line front end.

Every computation in the package is reachable as a subcommand.  Graph and
matrix arguments accept either a file path or inline JSON; results are
printed as key/value text by default or as a full JSON report with --json.
Exit codes follow one discipline throughout: 0 for a positive or neutral
outcome, 1 for a negative mathematical decision (not equivalent, not in the
cone, nothing found within bounds), 2 for errors, which always come with a
machine-readable error object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from . import dimension as dim
from . import equivalences as eqv
from . import moves, terms
from .errors import ParseError, SftkitError
from .graphs import (
    Graph,
    classify,
    from_adjacency,
    graph_from_json_text,
    graph_to_dot,
    graph_to_json,
)
from .invariants import (
    BratteliDiagram,
    bratteli,
    bratteli_to_dot,
    flow_equivalent,
    invariants_report,
)
from .linalg import Matrix

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2


# ---------------------------------------------------------------------------
# Input plumbing
# ---------------------------------------------------------------------------


class _Run:
    """Collects raw inputs for the report digest and times the invocation."""

    def __init__(self, argv: list[str]):
        self.argv = argv
        self.raw_inputs: list[str] = []
        self.start = time.perf_counter()

    def read(self, arg: str) -> str:
        text = arg
        if not arg.lstrip().startswith(("{", "[")):
            try:
                with open(arg, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise ParseError(f"cannot read {arg!r}: {exc}") from exc
        self.raw_inputs.append(text)
        return text

    def graph(self, arg: str) -> Graph:
        return graph_from_json_text(self.read(arg))

    def matrix(self, arg: str) -> Matrix:
        return self.graph(arg).adjacency()

    def json_obj(self, arg: str):
        try:
            return json.loads(self.read(arg))
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}") from exc

    def report(self, args: argparse.Namespace, results: dict) -> dict:
        digest = hashlib.sha256(
            "\x1e".join(self.raw_inputs).encode("utf-8")
        ).hexdigest()[:16]
        return {
            "command": " ".join(self.argv),
            "inputs": digest,
            "seed": args.seed,
            "results": results,
            "timing": {"seconds": round(time.perf_counter() - self.start, 6)},
        }


def _parse_vector(run: _Run, text: str) -> tuple[int, ...]:
    if set(text) <= set("0123456789,- "):
        raw = text.strip()
        run.raw_inputs.append(raw)
    else:
        raw = run.read(text).strip()
    if raw.startswith("["):
        try:
            items = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid vector JSON: {exc}") from exc
    else:
        items = [p for p in raw.split(",") if p.strip()]
    out = []
    for x in items:
        f = terms.parse_rational(x)
        if f.denominator != 1:
            raise ParseError("dimension group vectors have integer entries")
        out.append(int(f))
    if not out:
        raise ParseError("empty vector")
    return tuple(out)


# smallest accepted value of each numeric bound a subcommand may take
_BOUND_MINIMUM = {
    "entry_bound": 0,
    "lag_max": 1,
    "budget": 0,
    "inner_dim_max": 0,
    "denominator_max": 0,
    "value_max": 0,
    "bound": 0,
    "depth": 0,
    "k": 0,
}


def _check_bounds(args: argparse.Namespace) -> None:
    for name, least in _BOUND_MINIMUM.items():
        value = getattr(args, name, None)
        if value is not None and value < least:
            flag = name if name == "k" else "--" + name.replace("_", "-")
            raise ParseError(f"{flag} must be at least {least}, got {value}")


def emit_dot(obj) -> str:
    """DOT text for a graph or a Bratteli diagram."""
    if isinstance(obj, Graph):
        return graph_to_dot(obj)
    if isinstance(obj, BratteliDiagram):
        shape = from_adjacency(obj.step.transpose())
        return bratteli_to_dot(shape, obj)
    raise ParseError(f"no DOT rendering for {type(obj).__name__}")


# ---------------------------------------------------------------------------
# Human-readable rendering
# ---------------------------------------------------------------------------


def _is_table(v) -> bool:
    return (
        isinstance(v, list)
        and bool(v)
        and all(isinstance(r, list) and all(not isinstance(x, (list, dict)) for x in r) for r in v)
    )


def _scalar(v) -> str:
    if _is_table(v):
        return "[" + "; ".join(" ".join(str(x) for x in r) for r in v) + "]"
    if isinstance(v, list):
        return "[" + ", ".join(
            json.dumps(x) if isinstance(x, dict) else str(x) for x in v
        ) + "]"
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _human(obj, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, dict) and v:
                lines.append(f"{pad}{k}:")
                lines.extend(_human(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {_scalar(v)}")
    else:
        lines.append(f"{pad}{_scalar(obj)}")
    return lines


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (exit code, results, raw text or None)
# ---------------------------------------------------------------------------


def _cmd_analyze(run: _Run, args) -> tuple[int, dict, str | None]:
    g = run.graph(args.graph)
    if args.dot:
        return EXIT_OK, {}, emit_dot(g)
    r = classify(g)
    results = {
        "vertices": len(g.vertices),
        "edges": len(g.edges),
        "adjacency": g.adjacency().to_json_rows(),
        "sinks": list(r.sinks),
        "sources": list(r.sources),
        "essential": r.essential,
        "irreducible": r.irreducible,
        "trivial": r.trivial,
        "purely_infinite_simple": r.purely_infinite_simple,
        "strongly_graded": r.strongly_graded,
    }
    return EXIT_OK, results, None


def _cmd_invariants(run: _Run, args) -> tuple[int, dict, str | None]:
    return EXIT_OK, invariants_report(run.matrix(args.graph)), None


def _cmd_flow(run: _Run, args) -> tuple[int, dict, str | None]:
    g, h = run.graph(args.g1), run.graph(args.g2)
    same = flow_equivalent(g, h)
    results = {
        "flow_equivalent": same,
        "first": invariants_report(g.adjacency()),
        "second": invariants_report(h.adjacency()),
    }
    return (EXIT_OK if same else EXIT_NEGATIVE), results, None


def _cmd_dimgroup_pos(run: _Run, args) -> tuple[int, dict, str | None]:
    t = dim.from_graph(run.graph(args.graph))
    x = dim.DimElement(_parse_vector(run, args.vector), args.k)
    res = dim.dg_positive(t, x, args.bound)
    results: dict = {
        "acting_matrix": t.matrix.to_json_rows(),
        "element": dim.element_to_json(x),
    }
    if isinstance(res, dim.InCone):
        results["decision"] = "in_cone"
        if res.power is not None:
            results["certificate_power"] = res.power
        return EXIT_OK, results, None
    if isinstance(res, dim.NotInCone):
        results["decision"] = "not_in_cone"
        if res.reason:
            results["reason"] = res.reason
        return EXIT_NEGATIVE, results, None
    results["decision"] = "unknown"
    results["iterate_bound"] = res.bound
    return EXIT_NEGATIVE, results, None


def _cmd_dimgroup_unit(run: _Run, args) -> tuple[int, dict, str | None]:
    t = dim.from_graph(run.graph(args.graph))
    results = {
        "acting_matrix": t.matrix.to_json_rows(),
        "order_unit": dim.element_to_json(dim.order_unit(t)),
    }
    return EXIT_OK, results, None


def _cmd_iso_search(run: _Run, args) -> tuple[int, dict, str | None]:
    t_a = dim.from_graph(run.graph(args.g1))
    t_b = dim.from_graph(run.graph(args.g2))
    res = dim.search_module_iso(
        t_a,
        t_b,
        pointed=args.pointed,
        denominator_max=args.denominator_max,
        value_max=args.value_max,
        candidate_budget=args.budget,
    )
    if isinstance(res, dim.Candidate):
        results = {"outcome": "found", "matrix": res.matrix.to_json_rows()}
        return EXIT_OK, results, None
    if isinstance(res, dim.Infeasible):
        results = {
            "outcome": "infeasible",
            "system": {
                "labels": list(res.system.labels),
                "coefficients": res.system.coefficients.to_json_rows(),
                "rhs": [str(x) for x in res.system.rhs],
            },
            "certificate": [str(x) for x in res.certificate],
        }
        return EXIT_NEGATIVE, results, None
    return EXIT_NEGATIVE, {"outcome": "not_found_within_bounds", "tried": res.tried}, None


def _cmd_se_verify(run: _Run, args) -> tuple[int, dict, str | None]:
    a, b = run.matrix(args.a), run.matrix(args.b)
    w = eqv.se_witness_from_json(run.json_obj(args.witness))
    ok = eqv.verify_se(a, b, w)
    return (EXIT_OK if ok else EXIT_NEGATIVE), {"verified": ok, "lag": w.lag}, None


def _witness_not_found() -> tuple[int, dict, None]:
    """The report of a witness search that stopped at its bounds without a witness."""
    results = {
        "outcome": "not_found_within_bounds",
        "conclusive": False,
        "note": "absence of a witness within these bounds does not decide inequivalence",
    }
    return EXIT_NEGATIVE, results, None


def _cmd_se_search(run: _Run, args) -> tuple[int, dict, str | None]:
    a, b = run.matrix(args.a), run.matrix(args.b)
    w = eqv.search_se(a, b, lag_max=args.lag_max, entry_bound=args.entry_bound,
                      candidate_budget=args.budget)
    if w is None:
        return _witness_not_found()
    return EXIT_OK, {"outcome": "found", "witness": eqv.se_witness_to_json(w)}, None


def _cmd_sse_verify_chain(run: _Run, args) -> tuple[int, dict, str | None]:
    a, b = run.matrix(args.a), run.matrix(args.b)
    chain = eqv.chain_from_json(run.json_obj(args.chain))
    ok = eqv.verify_chain(a, b, chain)
    return (EXIT_OK if ok else EXIT_NEGATIVE), {"verified": ok, "links": len(chain.links)}, None


def _cmd_sse_search(run: _Run, args) -> tuple[int, dict, str | None]:
    a, b = run.matrix(args.a), run.matrix(args.b)
    w = eqv.search_esse(a, b, inner_dim_max=args.inner_dim_max,
                        entry_bound=args.entry_bound, candidate_budget=args.budget)
    if w is None:
        return _witness_not_found()
    return EXIT_OK, {"outcome": "found", "witness": eqv.sse_witness_to_json(w)}, None


def _cmd_product(run: _Run, args) -> tuple[int, dict, str | None]:
    g, h = run.graph(args.g1), run.graph(args.g2)
    k = moves.kronecker_product(g, h)
    if args.dot:
        return EXIT_OK, {}, emit_dot(k)
    results = {"graph": graph_to_json(k), "adjacency": k.adjacency().to_json_rows()}
    return EXIT_OK, results, None


def _cmd_split(run: _Run, args) -> tuple[int, dict, str | None]:
    g = run.graph(args.graph)
    p = moves.partition_from_json(run.json_obj(args.partition))
    split = moves.out_split if args.direction == "out" else moves.in_split
    h, w = split(g, p)
    results = {
        "graph": graph_to_json(h),
        "adjacency": h.adjacency().to_json_rows(),
        "witness": eqv.sse_witness_to_json(w),
    }
    return EXIT_OK, results, None


def _cmd_bratteli(run: _Run, args) -> tuple[int, dict, str | None]:
    g = run.graph(args.graph)
    d = bratteli(g, args.depth)
    if args.dot:
        return EXIT_OK, {}, bratteli_to_dot(g, d)
    results = {
        "depth": d.depth,
        "levels": [list(level) for level in d.levels],
        "step": d.step.to_json_rows(),
    }
    return EXIT_OK, results, None


def _cmd_terms_reduce(run: _Run, args) -> tuple[int, dict, str | None]:
    g = run.graph(args.graph)
    x = terms.parse_element(g, args.expr)
    r = terms.reduce(g, x, args.strategy)
    results = {
        "input": args.expr,
        "strategy": args.strategy,
        "reduced": terms.format_element(r),
        "monomials": len(r.terms),
    }
    return EXIT_OK, results, None


def _cmd_terms_decompose(run: _Run, args) -> tuple[int, dict, str | None]:
    g = run.graph(args.graph)
    x = terms.parse_element(g, args.expr)
    if args.weights is None:
        wm = terms.WeightMap.uniform(g)
    else:
        wm = terms.WeightMap.from_mapping(g, run.json_obj(args.weights))
    comps = terms.graded_decompose(g, wm, x)
    results = {
        "input": args.expr,
        "components": {str(d): terms.format_element(c) for d, c in comps.items()},
    }
    return EXIT_OK, results, None


def _cmd_terms_family(run: _Run, args) -> tuple[int, dict, str | None]:
    g = run.graph(args.graph)
    p = moves.partition_from_json(run.json_obj(args.partition))
    h, fa = terms.in_split_family(g, p)
    ok = terms.verify_family(fa, g)
    results = {
        "verified": ok,
        "target": graph_to_json(h),
        "vertex_images": {v: terms.format_element(x) for v, x in fa.vertex_images},
        "edge_images": {e: terms.format_element(x) for e, x in fa.edge_images},
    }
    return (EXIT_OK if ok else EXIT_NEGATIVE), results, None


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit the full JSON report")
    common.add_argument("--seed", type=int, default=0,
                        help="seed echoed into the report for reproducibility")

    parser = argparse.ArgumentParser(
        prog="sftkit",
        description="Invariants, equivalences and term calculus for finite directed graphs.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("analyze", parents=[common], help="classify a graph")
    p.add_argument("graph")
    p.add_argument("--dot", action="store_true", help="print the graph as DOT")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("invariants", parents=[common],
                       help="Bowen-Franks group, det(I-A), characteristic polynomial away from zero")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("flow", parents=[common], help="decide flow equivalence")
    p.add_argument("g1")
    p.add_argument("g2")
    p.set_defaults(func=_cmd_flow)

    pg = sub.add_parser("dimgroup", help="dimension group computations")
    pgs = pg.add_subparsers(dest="dimgroup_cmd", required=True)
    p = pgs.add_parser("pos", parents=[common], help="decide cone membership of [a, k]")
    p.add_argument("graph")
    p.add_argument("vector", help="integer vector, e.g. '1,-2' or '[1,-2]'")
    p.add_argument("k", nargs="?", type=int, default=0)
    p.add_argument("--bound", type=int, default=dim.DEFAULT_ITERATE_BOUND)
    p.set_defaults(func=_cmd_dimgroup_pos)
    p = pgs.add_parser("unit", parents=[common], help="print the order unit")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_dimgroup_unit)

    pi = sub.add_parser("iso", help="graded module isomorphism search")
    pis = pi.add_subparsers(dest="iso_cmd", required=True)
    p = pis.add_parser("search", parents=[common], help="search for an intertwiner")
    p.add_argument("g1")
    p.add_argument("g2")
    p.add_argument("--pointed", action="store_true", help="require the unit to map to the unit")
    p.add_argument("--denominator-max", type=int, default=4)
    p.add_argument("--value-max", type=int, default=2)
    p.add_argument("--budget", type=int, default=4000)
    p.set_defaults(func=_cmd_iso_search)

    pse = sub.add_parser("se", help="shift equivalence")
    pses = pse.add_subparsers(dest="se_cmd", required=True)
    p = pses.add_parser("verify", parents=[common], help="verify a witness")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("witness", help="JSON with R, S, l")
    p.set_defaults(func=_cmd_se_verify)
    p = pses.add_parser("search", parents=[common], help="search for a witness")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--lag-max", type=int, default=1)
    p.add_argument("--entry-bound", type=int, default=3)
    p.add_argument("--budget", type=int, default=200000)
    p.set_defaults(func=_cmd_se_search)

    psse = sub.add_parser("sse", help="strong shift equivalence")
    psses = psse.add_subparsers(dest="sse_cmd", required=True)
    p = psses.add_parser("verify-chain", parents=[common], help="verify an elementary chain")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("chain", help="JSON with links")
    p.set_defaults(func=_cmd_sse_verify_chain)
    p = psses.add_parser("search", parents=[common], help="search for a one-step witness")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--inner-dim-max", type=int, default=4)
    p.add_argument("--entry-bound", type=int, default=3)
    p.add_argument("--budget", type=int, default=200000)
    p.set_defaults(func=_cmd_sse_search)

    p = sub.add_parser("product", parents=[common], help="Kronecker product graph")
    p.add_argument("g1")
    p.add_argument("g2")
    p.add_argument("--dot", action="store_true")
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("split", parents=[common], help="out- or in-split with witness")
    p.add_argument("direction", choices=("out", "in"))
    p.add_argument("graph")
    p.add_argument("partition", help="JSON list of {vertex, blocks}")
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("bratteli", parents=[common], help="stationary level diagram")
    p.add_argument("graph")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--dot", action="store_true")
    p.set_defaults(func=_cmd_bratteli)

    pt = sub.add_parser("terms", help="path algebra term calculus")
    pts = pt.add_subparsers(dest="terms_cmd", required=True)
    p = pts.add_parser("reduce", parents=[common], help="normal form of an expression")
    p.add_argument("graph")
    p.add_argument("expr")
    p.add_argument("--strategy", choices=("leftmost", "rightmost"), default="leftmost")
    p.set_defaults(func=_cmd_terms_reduce)
    p = pts.add_parser("decompose", parents=[common], help="homogeneous components")
    p.add_argument("graph")
    p.add_argument("expr")
    p.add_argument("--weights", help="JSON mapping edge id to rational weight")
    p.set_defaults(func=_cmd_terms_decompose)
    p = pts.add_parser("family", parents=[common],
                       help="build and verify the canonical in-split family")
    p.add_argument("graph")
    p.add_argument("partition")
    p.set_defaults(func=_cmd_terms_family)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    run = _Run(argv)
    try:
        _check_bounds(args)
        code, results, raw = args.func(run, args)
    except SftkitError as exc:
        error = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(error))
        return EXIT_ERROR
    if raw is not None:
        print(raw)
        return code
    if args.json:
        print(json.dumps(run.report(args, results), indent=2))
    else:
        print("\n".join(_human(results)))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
