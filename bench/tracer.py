"""Spans around sftkit's layer functions, installed from outside the library.

`Tracer.install` replaces each target function at every module attribute
that holds it (the defining module and each module that imported it by
name), so a call is traced at the lookup its caller actually makes.  A
span's self time is its duration minus the time of the wrapped spans it
caused.  Spans are aggregated in memory per (request, function) and per
(caller, callee) and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from typing import Any

TARGETS = {
    "linalg": ("solve_affine_exact", "integer_points", "intertwiner_space",
               "perron_pairing_sign", "is_irreducible_matrix", "cyclic_structure",
               "smith_normal_form", "char_poly"),
    "polynomials": ("sturm_chain", "count_roots", "squarefree_part"),
    "equivalences": ("search_se", "search_esse", "verify_se"),
    "dimension": ("dg_positive", "search_module_iso", "verify_module_iso"),
    "invariants": ("bowen_franks", "char_poly_away_from_zero", "flow_equivalent"),
    "graphs": ("classify", "essentialize", "from_adjacency"),
    "moves": ("out_split", "in_split", "kronecker_product", "bridge_from_factorization",
              "verify_bridge"),
    "terms": ("reduce", "in_split_family", "verify_family"),
}

TRACED = tuple(f"{m}.{f}" for m, names in TARGETS.items() for f in names)


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.request: str | None = None
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.site_calls: Counter = Counter()  # "callee@caller module" -> calls
        self.raised: Counter = Counter()  # "function!ExceptionType" -> raises
        self.none_results: Counter = Counter()
        self.yielded: Counter = Counter()
        self.edges: Counter = Counter()  # "caller>callee" -> calls
        self.by_request: defaultdict = defaultdict(lambda: [0, 0.0])
        self._stack: list[list[Any]] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- span bookkeeping --------------------------------------------------

    def _push(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def _pop(self, count: bool) -> None:
        name, start, child = self._stack.pop()
        took = time.perf_counter() - start
        self.self_s[name] += took - child
        rec = self.by_request[f"{self.request}|{name}"]
        rec[1] += took - child
        if self._stack:
            self._stack[-1][2] += took
        if count:
            self.calls[name] += 1
            rec[0] += 1
            caller = self._stack[-1][0] if self._stack else "-"
            self.edges[f"{caller}>{name}"] += 1

    def _wrap(self, name: str, site: str, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                if not tracer.enabled:
                    yield from fn(*args, **kwargs)
                    return
                tracer.site_calls[f"{name}@{site}"] += 1
                tracer.calls[name] += 1
                tracer.by_request[f"{tracer.request}|{name}"][0] += 1
                caller = tracer._stack[-1][0] if tracer._stack else "-"
                tracer.edges[f"{caller}>{name}"] += 1
                it = fn(*args, **kwargs)
                try:
                    while True:
                        tracer._push(name)
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            tracer._pop(count=False)
                        tracer.yielded[name] += 1
                        yield item
                finally:
                    it.close()

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer.site_calls[f"{name}@{site}"] += 1
            tracer._push(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.raised[f"{name}!{type(exc).__name__}"] += 1
                raise
            finally:
                tracer._pop(count=True)
            if result is None:
                tracer.none_results[name] += 1
            return result

        return wrapper

    # -- install / uninstall -----------------------------------------------

    def install(self) -> None:
        originals = {}
        for module, names in TARGETS.items():
            mod = importlib.import_module(f"sftkit.{module}")
            for fname in names:
                originals[id(getattr(mod, fname))] = f"{module}.{fname}"
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "sftkit" or modname.startswith("sftkit.")):
                continue
            site = modname.rpartition(".")[2]
            for attr, val in list(vars(mod).items()):
                name = originals.get(id(val))
                if name is not None and callable(val):
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, self._wrap(name, site, val))

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._patches):
            setattr(mod, attr, val)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def dump(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "site_calls": dict(self.site_calls),
            "raised": dict(self.raised),
            "none_results": dict(self.none_results),
            "yielded": dict(self.yielded),
            "edges": dict(self.edges),
            "by_request": {k: v for k, v in self.by_request.items()},
        }

    def merge(self, data: dict) -> None:
        """Add a dump from another process (a traced CLI child) to this tracer."""
        for field in ("calls", "self_s", "site_calls", "raised", "none_results",
                      "yielded", "edges"):
            target = getattr(self, field)
            for k, v in data[field].items():
                target[k] += v
        for k, (calls, self_s) in data["by_request"].items():
            rec = self.by_request[k]
            rec[0] += calls
            rec[1] += self_s

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: calls and self time of every target, plus ratios."""
        out: dict[str, tuple[float, str]] = {}
        for name in TRACED:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        out["linalg.integer_points.yielded"] = (self.yielded["linalg.integer_points"], "count")
        searches = ("equivalences.search_se", "equivalences.search_esse")
        witnesses = sum(self.calls[s] - self.none_results[s] for s in searches)
        partner_solves = self.site_calls["linalg.solve_affine_exact@equivalences"]
        out["equivalences.witness_per_partner_solve"] = (
            witnesses / partner_solves if partner_solves else 0.0, "ratio")
        out["dimension.verify_module_iso.undecided"] = (
            self.raised["dimension.verify_module_iso!UndecidedError"], "count")
        dg_calls = self.calls["dimension.dg_positive"]
        perron_calls = self.site_calls["linalg.perron_pairing_sign@dimension"]
        out["dimension.perron_path_ratio"] = (
            perron_calls / dg_calls if dg_calls else 0.0, "ratio")
        return out
