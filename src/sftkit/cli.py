"""Command line front end.

Every computation in the package is reachable as a subcommand.  Graph and
matrix arguments accept either a file path or inline JSON; results are
printed as key/value text by default or as a full JSON report with --json.
A search bound left unset takes the library function's default.  Exit codes
follow one discipline throughout: 0 for a positive or neutral outcome, 1 for
a negative mathematical decision (not equivalent, not in the cone, nothing
found within bounds), 2 for errors, which always come with a machine-readable
error object.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time

# Every command needs these three modules; a handler that needs dimension,
# equivalences, invariants, moves or terms imports it itself, so a fresh
# process compiles only what its command runs.
from .errors import InvalidMatrix, ParseError, SftkitError
from .graphs import (
    Graph,
    _int_entry,
    classify,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    named_adjacency,
    payload_from_json,
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

    def payload(self, arg: str) -> Graph | Matrix:
        return payload_from_json(self.json_obj(arg))

    def graph(self, arg: str) -> Graph:
        return graph_from_json(self.json_obj(arg))

    def matrix(self, arg: str) -> Matrix:
        return named_adjacency(self.payload(arg))[1]

    def json_obj(self, arg: str):
        try:
            return json.loads(self.read(arg))
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}") from exc

    def report(self, args: argparse.Namespace, results: dict) -> dict:
        return {
            "command": " ".join(self.argv),
            "inputs": _sha256_hex("\x1e".join(self.raw_inputs).encode("utf-8"))[:16],
            "seed": args.seed,
            "results": results,
            "timing": {"seconds": round(time.perf_counter() - self.start, 6)},
        }


def _sha256_hex(data: bytes) -> str:
    """The hex SHA-256 of data, from the interpreter's builtin module if it has one.

    `_sha2` (3.12+) and `_sha256` (3.10, 3.11) give hashlib's digest without
    loading OpenSSL, which `import hashlib` does at a cost of several ms.
    """
    for name in ("_sha2", "_sha256"):
        try:
            return importlib.import_module(name).sha256(data).hexdigest()
        except ImportError:
            pass
    import hashlib

    return hashlib.sha256(data).hexdigest()


def _vector_entry(x) -> int:
    try:
        return _int_entry(x)
    except InvalidMatrix as exc:
        raise ParseError(f"vector entries must be integers, got {x!r}") from exc


def _parse_vector(run: _Run, text: str) -> tuple[int, ...]:
    if set(text) <= set("0123456789,- "):
        raw = text.strip()
        run.raw_inputs.append(raw)
    else:
        raw = run.read(text).strip()
    if raw.startswith("["):
        try:
            items = [_vector_entry(x) for x in json.loads(raw)]
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid vector JSON: {exc}") from exc
    else:
        try:
            items = [int(p) for p in raw.split(",")]
        except ValueError as exc:
            raise ParseError(f"vector entries must be integers: {exc}") from exc
    if not items:
        raise ParseError("empty vector")
    return tuple(items)


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


def _given(args: argparse.Namespace, *dests: str, **renamed: str) -> dict:
    """The bounds the user set, keyed by library keyword: the dest, or dest="library_kw".

    An unset bound is left out, so it takes the library function's default.
    """
    keywords = {**{dest: dest for dest in dests}, **renamed}
    return {kw: getattr(args, dest) for dest, kw in keywords.items()
            if getattr(args, dest) is not None}


def _check_bounds(args: argparse.Namespace) -> None:
    for name, least in _BOUND_MINIMUM.items():
        value = getattr(args, name, None)
        if value is not None and value < least:
            flag = name if name == "k" else "--" + name.replace("_", "-")
            raise ParseError(f"{flag} must be at least {least}, got {value}")


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
    if args.dot:
        return EXIT_OK, {}, graph_to_dot(run.graph(args.graph))
    g = run.payload(args.graph)
    names, a = named_adjacency(g)
    r = classify(g)
    results = {
        "vertices": len(names),
        "edges": sum(map(sum, a.rows)),
        "adjacency": a.to_json_rows(),
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
    from .invariants import invariants_report

    return EXIT_OK, invariants_report(run.matrix(args.graph)), None


def _cmd_flow(run: _Run, args) -> tuple[int, dict, str | None]:
    from .invariants import _flow_decision

    same, first, second = _flow_decision(run.matrix(args.g1), run.matrix(args.g2))
    results = {"flow_equivalent": same, "first": first, "second": second}
    return (EXIT_OK if same else EXIT_NEGATIVE), results, None


def _cmd_dimgroup_pos(run: _Run, args) -> tuple[int, dict, str | None]:
    from . import dimension as dim

    t = dim.from_graph(run.payload(args.graph))
    x = dim.DimElement(_parse_vector(run, args.vector), args.k)
    res = dim.dg_positive(t, x, **_given(args, bound="iterate_bound"))
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
    from . import dimension as dim

    t = dim.from_graph(run.payload(args.graph))
    results = {
        "acting_matrix": t.matrix.to_json_rows(),
        "order_unit": dim.element_to_json(dim.order_unit(t)),
    }
    return EXIT_OK, results, None


def _cmd_iso_search(run: _Run, args) -> tuple[int, dict, str | None]:
    from . import dimension as dim

    t_a = dim.from_graph(run.payload(args.g1))
    t_b = dim.from_graph(run.payload(args.g2))
    res = dim.search_module_iso(
        t_a, t_b, pointed=args.pointed,
        **_given(args, "denominator_max", "value_max", budget="candidate_budget"),
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
    from . import equivalences as eqv

    a, b = run.matrix(args.a), run.matrix(args.b)
    w = eqv.se_witness_from_json(run.json_obj(args.witness))
    ok = eqv.verify_se(a, b, w)
    return (EXIT_OK if ok else EXIT_NEGATIVE), {"verified": ok, "lag": w.lag}, None


def _witness_not_found(differs: tuple | None) -> tuple[int, dict, None]:
    """The report of a witness search that returned no witness.

    differs is the search's prefilter verdict on the pair
    (`equivalences._proven_different`): the invariant that tells the two
    matrices apart proves there is no witness at all.  Without one, the
    search stopped at its bounds.
    """
    if differs is not None:
        from .invariants import _bf_json, _poly_json

        reason, at_a, at_b = differs
        as_json = _poly_json if reason == "char_poly_away_from_zero" else _bf_json
        results = {"outcome": "not_equivalent", "conclusive": True, "reason": reason,
                   "a": as_json(at_a), "b": as_json(at_b)}
        return EXIT_NEGATIVE, results, None
    results = {
        "outcome": "not_found_within_bounds",
        "conclusive": False,
        "note": "absence of a witness within these bounds does not decide inequivalence",
    }
    return EXIT_NEGATIVE, results, None


def _cmd_se_search(run: _Run, args) -> tuple[int, dict, str | None]:
    from . import equivalences as eqv

    a, b = run.matrix(args.a), run.matrix(args.b)
    w = eqv.search_se(a, b, **_given(args, "lag_max", "entry_bound", budget="candidate_budget"))
    if w is None:
        return _witness_not_found(eqv._proven_different(a, b))
    return EXIT_OK, {"outcome": "found", "witness": eqv.se_witness_to_json(w)}, None


def _cmd_sse_verify_chain(run: _Run, args) -> tuple[int, dict, str | None]:
    from . import equivalences as eqv

    a, b = run.matrix(args.a), run.matrix(args.b)
    chain = eqv.chain_from_json(run.json_obj(args.chain))
    ok = eqv.verify_chain(a, b, chain)
    return (EXIT_OK if ok else EXIT_NEGATIVE), {"verified": ok, "links": len(chain.links)}, None


def _cmd_sse_search(run: _Run, args) -> tuple[int, dict, str | None]:
    from . import equivalences as eqv

    a, b = run.matrix(args.a), run.matrix(args.b)
    w = eqv.search_esse(a, b, **_given(args, "inner_dim_max", "entry_bound",
                                       budget="candidate_budget"))
    if w is None:
        return _witness_not_found(eqv._proven_different(a, b))
    return EXIT_OK, {"outcome": "found", "witness": eqv.sse_witness_to_json(w)}, None


def _cmd_product(run: _Run, args) -> tuple[int, dict, str | None]:
    from . import moves

    g, h = run.graph(args.g1), run.graph(args.g2)
    k = moves.kronecker_product(g, h)
    if args.dot:
        return EXIT_OK, {}, graph_to_dot(k)
    results = {"graph": graph_to_json(k), "adjacency": k.adjacency().to_json_rows()}
    return EXIT_OK, results, None


def _cmd_split(run: _Run, args) -> tuple[int, dict, str | None]:
    from . import equivalences as eqv
    from . import moves

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
    from .invariants import bratteli, bratteli_to_dot

    g = run.payload(args.graph)
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
    from . import terms

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
    from . import terms

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
    from . import moves, terms

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


def _build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The command tree; given argv, only the leaf that argv names and its group.

    A leaf's usage, help and errors do not mention its siblings, so the lone
    leaf parses argv as the full tree does.  When argv names no leaf
    (top-level or group --help, an unknown name, a missing command, an option
    before the command) the full tree is built.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit the full JSON report")
    common.add_argument("--seed", type=int, default=0,
                        help="seed echoed into the report for reproducibility")

    parser = argparse.ArgumentParser(
        prog="sftkit",
        description="Invariants, equivalences and term calculus for finite directed graphs.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    group_help = {
        "dimgroup": "dimension group computations",
        "iso": "graded module isomorphism search",
        "se": "shift equivalence",
        "sse": "strong shift equivalence",
        "terms": "path algebra term calculus",
    }
    groups = {}

    def command(path, func, help, *positionals, **options):
        """Add the leaf at path ("name" or "group name") unless argv names another.

        A positional is a name or the add_argument keywords of one; an option
        is given as dest=keywords and spelled --dest-with-hyphens.
        """
        names = path.split()
        if argv is not None and argv[:len(names)] != names:
            return
        parent = sub
        if len(names) == 2:
            head = names[0]
            if head not in groups:
                groups[head] = sub.add_parser(head, help=group_help[head]).add_subparsers(
                    dest=f"{head}_cmd", required=True)
            parent = groups[head]
        p = parent.add_parser(names[-1], parents=[common], help=help)
        for pos in positionals:
            p.add_argument(**(pos if isinstance(pos, dict) else {"dest": pos}))
        for dest, keywords in options.items():
            p.add_argument("--" + dest.replace("_", "-"), **keywords)
        p.set_defaults(func=func)

    flag = {"action": "store_true"}
    number = {"type": int}
    command("analyze", _cmd_analyze, "classify a graph", "graph",
            dot={**flag, "help": "print the graph as DOT"})
    command("invariants", _cmd_invariants,
            "Bowen-Franks group, det(I-A), characteristic polynomial away from zero", "graph")
    command("flow", _cmd_flow, "decide flow equivalence", "g1", "g2")

    command("dimgroup pos", _cmd_dimgroup_pos, "decide cone membership of [a, k]", "graph",
            {"dest": "vector", "help": "integer vector, e.g. '1,-2' or '[1,-2]'; "
             "one that starts with a minus sign as JSON ('[-1,2]') or after --"},
            {"dest": "k", "nargs": "?", "type": int, "default": 0},
            bound=number)
    command("dimgroup unit", _cmd_dimgroup_unit, "print the order unit", "graph")

    command("iso search", _cmd_iso_search, "search for an intertwiner", "g1", "g2",
            pointed={**flag, "help": "require the unit to map to the unit"},
            denominator_max=number, value_max=number, budget=number)

    command("se verify", _cmd_se_verify, "verify a witness", "a", "b",
            {"dest": "witness", "help": "JSON with R, S, l"})
    command("se search", _cmd_se_search, "search for a witness", "a", "b",
            lag_max=number, entry_bound=number, budget=number)

    command("sse verify-chain", _cmd_sse_verify_chain, "verify an elementary chain", "a", "b",
            {"dest": "chain", "help": "JSON with links"})
    command("sse search", _cmd_sse_search, "search for a one-step witness", "a", "b",
            inner_dim_max=number, entry_bound=number, budget=number)

    command("product", _cmd_product, "Kronecker product graph", "g1", "g2", dot=flag)
    command("split", _cmd_split, "out- or in-split with witness",
            {"dest": "direction", "choices": ("out", "in")}, "graph",
            {"dest": "partition", "help": "JSON list of {vertex, blocks}"})
    command("bratteli", _cmd_bratteli, "stationary level diagram", "graph",
            depth={**number, "required": True}, dot=flag)

    command("terms reduce", _cmd_terms_reduce, "normal form of an expression", "graph", "expr",
            strategy={"choices": ("leftmost", "rightmost"), "default": "leftmost"})
    command("terms decompose", _cmd_terms_decompose, "homogeneous components", "graph", "expr",
            weights={"help": "JSON mapping edge id to rational weight"})
    command("terms family", _cmd_terms_family,
            "build and verify the canonical in-split family", "graph", "partition")

    if not sub.choices:
        return _build_parser()
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args, extra = _build_parser(argv).parse_known_args(argv)
    if extra:
        # the error's usage line names every command, so the full tree reports it
        args = _build_parser().parse_args(argv)
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
