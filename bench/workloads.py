"""The benchmark's four workloads.

Each workload builds a fixed pool of instances from its generators and
`POOL_SEED`; a run's `--seed` draws SAMPLE_SHARE of every stratum of that
pool and sets the order.  Drawing from a fixed pool is what lets every
answer be compared with the answer recorded for the same instance in
`expected.json`, and the fixed mix of strata keeps run-to-run spread low on
these heavy-tailed workloads.  The pools are small enough for several
passes in a run, so small strata are drawn whole and the seed changes only
a few instances of each run besides their order.

An instance is one input; `execute` is the timed part and runs only library
calls, looked up as module attributes at call time so that the tracer can
wrap them.  `check` re-derives what it can without trusting the library's
own answer, and `canon` gives the deterministic form that is digested.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any

from sftkit import dimension as dim
from sftkit import equivalences as eqv
from sftkit import graphs, invariants, moves, terms
from sftkit.linalg import Matrix

import generators as gen

POOL_SEED = 12092908
# Share of each stratum of the pool that one run draws.
SAMPLE_SHARE = 0.9

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Instance:
    key: str
    stratum: str
    payload: Any
    args: Any = None

    def input_digest(self) -> str:
        return digest(self.payload)


def digest(obj: Any) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def rows_of(m: Matrix) -> list[list[str]]:
    """Matrix entries as exact strings, whatever type the library stores."""
    return [[str(Fraction(x)) for x in row] for row in m.rows]


def int_rows(m: Matrix) -> list[list[int]]:
    return [[int(x) for x in row] for row in m.rows]


def matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    return [[sum(x * b[k][j] for k, x in enumerate(row)) for j in range(len(b[0]))] for row in a]


def apply_rows(m: list[list[int]], v: list[int]) -> list[int]:
    return [sum(x * y for x, y in zip(row, v)) for row in m]


def partition_payload(p: moves.EdgePartition) -> list:
    return [[v, [list(b) for b in blocks]] for v, blocks in p.blocks]


def sample(pool: list[Instance], seed: int) -> list[Instance]:
    """Draw SAMPLE_SHARE of every stratum (at least one member), then shuffle."""
    rng = random.Random(seed)
    strata: dict[str, list[Instance]] = {}
    for inst in pool:
        strata.setdefault(inst.stratum, []).append(inst)
    out: list[Instance] = []
    for name in sorted(strata):
        members = strata[name]
        k = max(1, round(SAMPLE_SHARE * len(members)))
        out.extend(rng.sample(members, k))
    rng.shuffle(out)
    return out


class Workload:
    name = ""
    why = ""

    def build_pool(self) -> list[Instance]:
        raise NotImplementedError

    def execute(self, inst: Instance) -> Any:
        raise NotImplementedError

    def canon(self, inst: Instance, out: Any) -> Any:
        raise NotImplementedError

    def check(self, inst: Instance, out: Any) -> list[str]:
        raise NotImplementedError

    def decisions(self, inst: Instance, out: Any) -> tuple[int, int]:
        """(definite answers, decisions attempted) for one instance."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# witness_search
# ---------------------------------------------------------------------------

HARD_PAIR = [[19, 5], [4, 1]]


class WitnessSearch(Workload):
    name = "witness_search"
    why = ("split pairs like acceptance criterion 08 plus the hard pair: exact "
           "RREF partner solves and integer-point scans, no Perron code")
    pairs = 32

    def build_pool(self) -> list[Instance]:
        rng = random.Random(POOL_SEED)
        pool = []
        for trial in range(self.pairs):
            base = gen.random_irreducible_nontrivial(rng, 3, 2)
            if trial % 2 == 0:
                h, _ = moves.out_split(base, gen.random_out_partition(rng, base))
                kind = "out"
            else:
                h, _ = moves.in_split(base, gen.random_in_partition(rng, base))
                kind = "in"
            a, b = base.adjacency(), h.adjacency()
            payload = {"a": int_rows(a), "b": int_rows(b), "lag_max": 1, "entry_bound": 3}
            pool.append(Instance(f"pair-{trial:03d}-{kind}", f"{a.nrows}x{b.nrows}",
                                 payload, (a, b, 1)))
        a = Matrix.from_rows(HARD_PAIR)
        payload = {"a": HARD_PAIR, "b": int_rows(a.transpose()), "lag_max": 2, "entry_bound": 3}
        pool.append(Instance("hard-pair", "hard", payload, (a, a.transpose(), 2)))
        return pool

    def execute(self, inst: Instance) -> Any:
        a, b, lag_max = inst.args
        return (eqv.search_se(a, b, lag_max=lag_max, entry_bound=3), eqv.search_esse(a, b))

    def canon(self, inst: Instance, out: Any) -> Any:
        se, esse = out
        return {
            "se": None if se is None else {"R": rows_of(se.r), "S": rows_of(se.s), "l": se.lag},
            "esse": None if esse is None else {"R": rows_of(esse.r), "S": rows_of(esse.s)},
        }

    def check(self, inst: Instance, out: Any) -> list[str]:
        a, b, _ = inst.args
        se, esse = out
        problems = []
        if inst.key == "hard-pair" and (se is not None or esse is not None):
            problems.append("hard pair reported as decided")
        if se is not None and not eqv.verify_se(a, b, se):
            problems.append("SE witness fails verify_se")
        if esse is not None and not eqv.verify_esse(a, b, esse):
            problems.append("ESSE witness fails verify_esse")
        return problems

    def decisions(self, inst: Instance, out: Any) -> tuple[int, int]:
        return sum(w is not None for w in out), 2


# ---------------------------------------------------------------------------
# cone_order
# ---------------------------------------------------------------------------


class ConeOrder(Workload):
    name = "cone_order"
    why = ("dg_positive on primitive graphs n=8..24, half with a negative "
           "Perron pairing, plus products and module-iso searches: Sturm chains")
    sizes = (8, 10, 12, 14, 16, 18, 20, 22, 24)
    graphs_per_size = 2
    products = 8
    iso_graphs = 6

    def build_pool(self) -> list[Instance]:
        rng = random.Random(POOL_SEED)
        pool = []
        for n in self.sizes:
            for k in range(self.graphs_per_size):
                adjacency = gen.random_primitive_01(rng, n, 2.5)
                acting = gen.transpose_rows(adjacency)
                w = gen.perron_weights(acting)
                for expect in ("neg", "pos"):
                    v = gen.vector_with_pairing(rng, w, expect == "neg", 3, 0.02)
                    payload = {"kind": "cone", "acting": acting, "v": list(v), "expect": expect}
                    t = dim.DimensionTriple(Matrix.from_rows(acting))
                    pool.append(Instance(f"cone-n{n}-{k}-{expect}", f"cone-n{n}-{expect}",
                                         payload, (t, dim.DimElement(v, 0))))
        for k in range(self.products):
            ma = gen.random_primitive_small(rng, 4, 1)
            mb = gen.random_primitive_small(rng, 4, 1)
            w = gen.perron_weights(gen.kron_rows(ma, mb))
            expect = "neg" if k % 2 else "pos"
            v = gen.vector_with_pairing(rng, w, expect == "neg", 2, 0.02)
            payload = {"kind": "product", "a": ma, "b": mb, "v": list(v), "expect": expect}
            ta = dim.DimensionTriple(Matrix.from_rows(ma))
            tb = dim.DimensionTriple(Matrix.from_rows(mb))
            pool.append(Instance(f"product-{k:02d}", f"product-{expect}", payload,
                                 (ta, tb, dim.DimElement(v, 0))))
        for k in range(self.iso_graphs):
            g = gen.random_irreducible_nontrivial(rng, 3, 2)
            ta = dim.from_graph(g)
            tb = dim.from_graph(graphs.transpose(g))
            for pointed in (True, False):
                payload = {"kind": "iso", "adjacency": int_rows(g.adjacency()), "pointed": pointed}
                tag = "pointed" if pointed else "unpointed"
                pool.append(Instance(f"iso-{k:02d}-{tag}", f"iso-{tag}", payload,
                                     (ta, tb, pointed)))
        return pool

    def execute(self, inst: Instance) -> Any:
        kind = inst.payload["kind"]
        if kind == "cone":
            t, x = inst.args
            return dim.dg_positive(t, x)
        if kind == "product":
            ta, tb, x = inst.args
            return dim.dg_positive(dim.product_triple(ta, tb), x)
        ta, tb, pointed = inst.args
        return dim.search_module_iso(ta, tb, pointed=pointed)

    def canon(self, inst: Instance, out: Any) -> Any:
        if isinstance(out, dim.InCone):
            return {"InCone": out.power}
        if isinstance(out, dim.NotInCone):
            return {"NotInCone": out.reason}
        if isinstance(out, dim.Unknown):
            return {"Unknown": out.bound}
        if isinstance(out, dim.Candidate):
            return {"Candidate": rows_of(out.matrix)}
        if isinstance(out, dim.Infeasible):
            return {"Infeasible": [str(Fraction(y)) for y in out.certificate]}
        return {"NotFoundWithinBounds": out.tried}

    def check(self, inst: Instance, out: Any) -> list[str]:
        p = inst.payload
        if p["kind"] == "iso":
            return self._check_iso(inst, out)
        acting = p["acting"] if p["kind"] == "cone" else gen.kron_rows(p["a"], p["b"])
        if isinstance(out, dim.InCone):
            if p["expect"] == "neg":
                return ["InCone for a vector with negative Perron pairing"]
            v = list(p["v"])
            steps = len(acting) if out.power is None else out.power
            for _ in range(steps):
                v = apply_rows(acting, v)
            if out.power is None:
                return [] if all(x == 0 for x in v) else ["InCone(None) on a nonzero class"]
            return [] if all(x >= 0 for x in v) else [f"M^{out.power} v has a negative entry"]
        if isinstance(out, dim.NotInCone):
            return [] if p["expect"] == "neg" else ["NotInCone for a vector with positive pairing"]
        return ["no decision on a primitive acting matrix"]

    def _check_iso(self, inst: Instance, out: Any) -> list[str]:
        ta, tb, pointed = inst.args
        if isinstance(out, dim.Infeasible):
            c, b, y = out.system.coefficients, out.system.rhs, out.certificate
            combo_zero = all(
                sum(Fraction(y[i]) * Fraction(c[i, j]) for i in range(c.nrows)) == 0
                for j in range(c.ncols)
            )
            pays_one = sum(Fraction(u) * Fraction(v) for u, v in zip(y, b)) == 1
            return [] if combo_zero and pays_one else ["infeasibility certificate is wrong"]
        if isinstance(out, dim.Candidate):
            u = [[Fraction(x) for x in row] for row in out.matrix.rows]
            ma = [[Fraction(x) for x in row] for row in ta.matrix.rows]
            mb = [[Fraction(x) for x in row] for row in tb.matrix.rows]
            if matmul(u, ma) != matmul(mb, u):
                return ["candidate does not intertwine the acting matrices"]
            cand = dim.ModuleIsoCandidate(out.matrix, pointed)
            return [] if dim.verify_module_iso(ta, tb, cand) else ["candidate fails verify_module_iso"]
        return []

    def decisions(self, inst: Instance, out: Any) -> tuple[int, int]:
        definite = (dim.InCone, dim.NotInCone, dim.Candidate, dim.Infeasible)
        return int(isinstance(out, definite)), 1


# ---------------------------------------------------------------------------
# moves_flow
# ---------------------------------------------------------------------------


def _word_atoms(rng: random.Random, g: graphs.Graph) -> list[list[str]]:
    edge_ids = [e.id for e in g.edges]
    atoms = []
    for _ in range(rng.randrange(1, 9)):
        kind = rng.choice(["v", "e", "g"])
        atoms.append([kind, rng.choice(g.vertices) if kind == "v" else rng.choice(edge_ids)])
    return atoms


class MovesFlow(Workload):
    name = "moves_flow"
    why = ("splits, products, bridges and in-split families on graphs n<=8 "
           "checked by flow equivalence and term reduction: graphs, moves, terms, Smith form")
    splits = 64
    products = 16
    bridges = 16
    families = 16
    reductions = 16

    def build_pool(self) -> list[Instance]:
        rng = random.Random(POOL_SEED)
        pool = []
        for k in range(self.splits):
            g = gen.random_irreducible_nontrivial(rng, 8, 3)
            direction = "out" if k % 2 == 0 else "in"
            part = (gen.random_out_partition if direction == "out" else gen.random_in_partition)(rng, g)
            payload = {"kind": direction, "adjacency": int_rows(g.adjacency()),
                       "partition": partition_payload(part)}
            pool.append(Instance(f"{direction}-{k:02d}", f"{direction}-n{len(g.vertices)}",
                                 payload, (g.adjacency(), part)))
        for k in range(self.products):
            g = gen.random_irreducible_nontrivial(rng, 2, 3)
            h = gen.random_irreducible_nontrivial(rng, 4, 2)
            payload = {"kind": "kron", "g": int_rows(g.adjacency()), "h": int_rows(h.adjacency())}
            pool.append(Instance(f"kron-{k:02d}", "kron", payload, (g.adjacency(), h.adjacency())))
        for k in range(self.bridges):
            n, m = rng.randrange(2, 5), rng.randrange(2, 5)
            r = Matrix.from_rows([[rng.randrange(0, 3) for _ in range(m)] for _ in range(n)])
            s = Matrix.from_rows([[rng.randrange(0, 3) for _ in range(n)] for _ in range(m)])
            payload = {"kind": "bridge", "r": int_rows(r), "s": int_rows(s)}
            pool.append(Instance(f"bridge-{k:02d}", "bridge", payload, (r @ s, r, s)))
        done = 0
        while done < self.families:
            h = gen.random_sink_free(rng, 3, 2)
            if len(h.edges) > 6:
                continue
            part = gen.random_in_partition(rng, h)
            payload = {"kind": "family", "adjacency": int_rows(h.adjacency()),
                       "partition": partition_payload(part)}
            pool.append(Instance(f"family-{done:02d}", "family", payload, (h.adjacency(), part)))
            done += 1
        for k in range(self.reductions):
            g = gen.random_irreducible_nontrivial(rng, 3, 2)
            words = [_word_atoms(rng, g) for _ in range(40)]
            payload = {"kind": "reduce", "adjacency": int_rows(g.adjacency()), "words": words}
            x = terms.zero_element()
            for atoms in words:
                x = x + terms.word_element(g, tuple(tuple(a) for a in atoms))
            pool.append(Instance(f"reduce-{k:02d}", "reduce", payload, (g.adjacency(), x)))
        return pool

    def execute(self, inst: Instance) -> Any:
        kind = inst.payload["kind"]
        if kind in ("out", "in"):
            a, part = inst.args
            g = graphs.from_adjacency(a)
            split = moves.out_split if kind == "out" else moves.in_split
            h, w = split(g, part)
            return {
                "graph": h, "witness": w,
                "verified": eqv.verify_esse(a, h.adjacency(), w),
                "flow_equivalent": invariants.flow_equivalent(g, h),
                "bowen_franks": invariants.bowen_franks(h.adjacency()),
                "char_poly": invariants.char_poly_away_from_zero(h.adjacency()),
                "report": graphs.classify(h),
            }
        if kind == "kron":
            a, b = inst.args
            k = moves.kronecker_product(graphs.from_adjacency(a), graphs.from_adjacency(b))
            return {"graph": k, "report": graphs.classify(k), "essential": graphs.essentialize(k)}
        if kind == "bridge":
            a, r, s = inst.args
            bg = moves.bridge_from_factorization(a, r, s)
            return {"bridge": bg, "verified": moves.verify_bridge(bg)}
        if kind == "family":
            a, part = inst.args
            g = graphs.from_adjacency(a)
            h, fa = terms.in_split_family(g, part)
            return {"graph": h, "family": fa, "verified": terms.verify_family(fa, g)}
        a, x = inst.args
        g = graphs.from_adjacency(a)
        return {"leftmost": terms.reduce(g, x, "leftmost"),
                "rightmost": terms.reduce(g, x, "rightmost")}

    def canon(self, inst: Instance, out: Any) -> Any:
        c: dict[str, Any] = {}
        for key, val in out.items():
            if isinstance(val, graphs.Graph):
                c[key] = graphs.graph_to_json(val)
            elif isinstance(val, eqv.SSEWitness):
                c[key] = {"R": rows_of(val.r), "S": rows_of(val.s)}
            elif isinstance(val, invariants.AbelianGroupFP):
                c[key] = [list(val.factors), val.free_rank]
            elif isinstance(val, graphs.GraphReport):
                c[key] = [list(val.sinks), list(val.sources), val.essential, val.irreducible,
                          val.trivial, val.purely_infinite_simple, val.strongly_graded]
            elif isinstance(val, moves.BridgeGraph):
                c[key] = moves.bridge_to_json(val)
            elif isinstance(val, terms.FamilyAssignment):
                c[key] = {
                    part: {name: terms.format_element(x) for name, x in images}
                    for part, images in (("q", val.vertex_images), ("t", val.edge_images),
                                         ("tstar", val.ghost_images))
                }
            elif isinstance(val, terms.AlgebraElement):
                c[key] = terms.format_element(val)
            elif key == "char_poly":
                c[key] = [str(Fraction(x)) for x in val.coeffs]
            else:
                c[key] = val
        return c

    def check(self, inst: Instance, out: Any) -> list[str]:
        p = inst.payload
        problems = [f"{key} is false" for key in ("verified", "flow_equivalent")
                    if key in out and out[key] is not True]
        if p["kind"] in ("out", "in"):
            r, s = int_rows(out["witness"].r), int_rows(out["witness"].s)
            if matmul(r, s) != p["adjacency"] or matmul(s, r) != int_rows(out["graph"].adjacency()):
                problems.append("witness identities fail in integer arithmetic")
        elif p["kind"] == "kron":
            if int_rows(out["graph"].adjacency()) != gen.kron_rows(p["g"], p["h"]):
                problems.append("product adjacency differs from the Kronecker product")
        elif p["kind"] == "bridge":
            a = matmul(p["r"], p["s"])
            if len(out["bridge"].theta1) != sum(map(sum, a)):
                problems.append("bridge theta1 does not cover the edges of r s")
        elif p["kind"] == "reduce":
            if out["leftmost"] != out["rightmost"]:
                problems.append("reduction strategies disagree")
        return problems

    def decisions(self, inst: Instance, out: Any) -> tuple[int, int]:
        return 1, 1


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------

README_COMMANDS = [
    ["analyze", "[[1,2],[1,0]]"],
    ["invariants", "data/two_vertex_full.json"],
    ["flow", "data/two_vertex_full.json", "data/two_vertex_full_reversed.json"],
    ["flow", "[[2]]", "[[3]]"],
    ["sse", "verify-chain", "[[1,2],[1,0]]", "[[1,1],[2,0]]", "data/transpose_chain.json"],
    ["se", "search", "data/two_vertex_full.json", "data/two_vertex_full_reversed.json", "--json"],
    ["dimgroup", "pos", "[[1,2],[1,0]]", "1,1"],
    ["dimgroup", "pos", "[[1,2],[1,0]]", "1,-2"],
    ["iso", "search", "data/two_vertex_full.json", "data/two_vertex_full_reversed.json", "--pointed"],
    ["split", "out", "data/two_vertex_full.json", "data/out_partition.json"],
    ["product", "[[1,1],[1,0]]", "[[0,1,0],[1,0,1],[0,1,0]]"],
    ["bratteli", "data/two_vertex_full.json", "--depth", "4", "--dot"],
    ["analyze", "data/two_vertex_full.json", "--dot"],
    ["terms", "reduce", "data/two_vertex_full.json", "e1* e1 + e2* e3"],
    ["terms", "decompose", "data/two_vertex_full.json", "e1 + v1 + e4*"],
    ["terms", "family", "data/two_vertex_full.json", "data/in_partition.json"],
]

UNDECIDED_MARKERS = ("not_found_within_bounds", "unknown")


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def normalize_stdout(text: str) -> Any:
    """JSON reports lose their wall-clock timing; anything else is kept verbatim."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError:
        return text
    if isinstance(obj, dict):
        obj.pop("timing", None)
    return obj


class CliCold(Workload):
    name = "cli_cold"
    why = ("python -m sftkit, one process per command over the README list and "
           "seeded inline graphs: interpreter start, import, argparse, JSON report")
    inline_graphs = 6

    def __init__(self, launcher: list[str] | None = None) -> None:
        # The traced run passes a launcher that installs the tracer in the child.
        self.launcher = launcher or [sys.executable, "-m", "sftkit"]

    def build_pool(self) -> list[Instance]:
        pool = [
            Instance(f"readme-{i:02d}", f"readme-{i:02d}", {"argv": argv}, argv)
            for i, argv in enumerate(README_COMMANDS)
        ]
        rng = random.Random(POOL_SEED)
        for k in range(self.inline_graphs):
            g = gen.random_irreducible_nontrivial(rng, 2, 2)
            h, _ = moves.out_split(g, gen.random_out_partition(rng, g))
            gj = json.dumps(int_rows(g.adjacency()), separators=(",", ":"))
            hj = json.dumps(int_rows(h.adjacency()), separators=(",", ":"))
            v = json.dumps([rng.randint(-3, 3) for _ in g.vertices], separators=(",", ":"))
            for tag, argv in (
                ("analyze", ["analyze", gj, "--json"]),
                ("invariants", ["invariants", hj, "--json"]),
                ("flow", ["flow", gj, hj, "--json"]),
                ("pos", ["dimgroup", "pos", gj, v, "--json"]),
                ("se", ["se", "search", gj, hj, "--json"]),
            ):
                pool.append(Instance(f"inline-{k:02d}-{tag}", f"inline-{tag}", {"argv": argv}, argv))
        return pool

    def execute(self, inst: Instance) -> Any:
        cmd = self.launcher + inst.args
        proc = subprocess.run(cmd, cwd=ROOT, env=cli_env(), capture_output=True, text=True,
                              timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def canon(self, inst: Instance, out: Any) -> Any:
        code, stdout, _ = out
        return {"exit": code, "stdout": normalize_stdout(stdout)}

    def check(self, inst: Instance, out: Any) -> list[str]:
        code, stdout, stderr = out
        problems = []
        if code not in (0, 1):
            problems.append(f"exit code {code}: {stderr.strip()[-200:]}")
        if "--json" in inst.args:
            report = normalize_stdout(stdout)
            if not isinstance(report, dict) or "results" not in report:
                problems.append("--json output is not a report object")
        return problems

    def decisions(self, inst: Instance, out: Any) -> tuple[int, int]:
        stdout = out[1]
        return int(not any(m in stdout for m in UNDECIDED_MARKERS)), 1


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (WitnessSearch(), ConeOrder(), MovesFlow(), CliCold())
}
