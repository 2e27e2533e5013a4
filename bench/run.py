#!/usr/bin/env python3
"""sftkit benchmark: closed-loop, single-client runs of four workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --compare OLD NEW

Run from the repository root; the library is imported from `src/`.  One
process runs one workload: a single client sends each instance only after
the previous one finished (no threads, no pool).  The `--seed` draws the
run's instances from the workload's fixed pool (see workloads.py), the run
repeats full passes over them until `--seconds` is used up, and every output
is checked and compared with the answer recorded in `expected.json`.

Instance times are wall times scaled to a reference speed (see speed.py),
because the speed of a shared machine drifts by up to a factor of two.

`--trace 0` prints the end-to-end metrics.  `--trace 1` makes a warm-up
pass, then one untraced and one traced pass over the same instances, checks
that both give the same answers, and prints the per-layer metrics with
`trace.overhead_ratio`.

Each run writes `bench/results/<workload>-seed<N>-trace<T>.json`, stamped
with the git sha, Python version, nproc and load average.  `--compare`
takes two such files or directories of them and prints each metric's change
against its bound in BENCHMARK.json.  The last line of standard output is
the JSON summary {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
SETUP_SAMPLES = 5
PROBE_SAMPLES = 5
PROBE_START_SAMPLES = 5
TAIL_BEYOND = 10


class SetupError(Exception):
    """The checkout cannot run the benchmark (library or recorded answers missing)."""


def setup(name: str, seed: int, limit: int | None = None):
    """Import the library from src/, build the pool, draw the run's instances."""
    src = ROOT / "src"
    if not (src / "sftkit" / "__init__.py").is_file():
        raise SetupError(f"no sftkit package under {src}")
    expected_file = BENCH / "expected.json"
    if not expected_file.is_file():
        raise SetupError(f"missing {expected_file}")
    for path in (str(BENCH), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import sftkit

    if Path(sftkit.__file__).resolve().parent != (src / "sftkit").resolve():
        raise SetupError(f"sftkit imported from {sftkit.__file__}, not from {src}")
    import workloads

    if name not in workloads.WORKLOADS:
        raise SetupError(f"unknown workload {name!r}")
    wl = workloads.WORKLOADS[name]
    corpus = workloads.sample(wl.build_pool(), seed)
    if limit is not None:
        corpus = corpus[:limit]
    expected = json.loads(expected_file.read_text(encoding="utf-8"))[name]
    return wl, corpus, expected


# ---------------------------------------------------------------------------
# One instance
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class Outcome:
    key: str
    seconds: float  # wall time of the library call(s)
    at: float  # perf_counter at the middle of the call
    problems: list[str]
    digest: str | None
    definite: int
    decisions: int
    scaled: float = 0.0  # wall time at reference speed, set by rescale()


def run_instance(wl, inst, expected: dict, probe, tracer=None) -> Outcome:
    import workloads

    probe.maybe_sample()
    if tracer is not None:
        tracer.request = inst.key
        tracer.enabled = True
    start = time.perf_counter()
    try:
        out = wl.execute(inst)
    except Exception as exc:  # a raising instance is a failed instance, not a crash
        end = time.perf_counter()
        return Outcome(inst.key, end - start, (start + end) / 2,
                       [f"raised {type(exc).__name__}: {exc}"], None, 0, 1)
    finally:
        if tracer is not None:
            tracer.enabled = False
    end = time.perf_counter()
    probe.maybe_sample()
    problems = list(wl.check(inst, out))
    answer = workloads.digest(wl.canon(inst, out))
    recorded = expected.get(inst.key)
    if recorded is None:
        problems.append("no recorded answer for this instance")
    elif recorded[0] != inst.input_digest():
        problems.append("generated input differs from the recorded one")
    elif recorded[1] != answer:
        problems.append("answer differs from the one recorded")
    definite, decisions = wl.decisions(inst, out)
    return Outcome(inst.key, end - start, (start + end) / 2, problems, answer, definite, decisions)


def run_pass(wl, corpus, expected, probe, tracer=None) -> list[Outcome]:
    return [run_instance(wl, inst, expected, probe, tracer) for inst in corpus]


def rescale(passes: list[list[Outcome]], probe) -> None:
    probe.sample()
    for p in passes:
        for o in p:
            o.scaled = o.seconds * probe.scale(o.at)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it: the 11th largest.

    Returns (percentile, value, samples beyond).  With ten samples or fewer
    it is the largest one, with the count beyond it (zero) said so.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    idx = max(0, n - 1 - TAIL_BEYOND)
    return 100.0 * (idx + 1) / n, ordered[idx], n - 1 - idx


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run_subprocess(cmd: list[str], env: dict | None = None) -> None:
    # No timeout: with one, the wait polls in steps of up to 50 ms, which
    # would quantize the start-up times being measured.
    subprocess.run(cmd, cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL)


def scaled_median(probe, samples: int, cmd: list[str], env: dict | None = None) -> float:
    """Median scaled wall time of `samples` runs of a command."""
    return statistics.median(probe.timed(run_subprocess, cmd, env)[1] for _ in range(samples))


def measure_setup(name: str, seed: int, samples: int, probe) -> float:
    """Fresh processes that start, import the library and build the run's inputs.

    `probe` must be a child-process probe: set-up runs in a fresh process.
    """
    code = (f"import sys; sys.path.insert(0, {str(BENCH)!r}); import run; "
            f"run.setup({name!r}, {seed})")
    return scaled_median(probe, samples, [sys.executable, "-c", code])


def end_to_end(passes: list[list[Outcome]]) -> tuple[dict, dict]:
    """Metrics over the instances, each timed by the median of its passes."""
    n = len(passes[0])
    per_instance = [statistics.median(p[i].scaled for p in passes) for i in range(n)]
    raw = [statistics.median(p[i].seconds for p in passes) for i in range(n)]
    everything = [o for p in passes for o in p]
    pct, tail_value, beyond = tail(per_instance)
    decisions = sum(o.decisions for o in everything)
    metrics = {
        "throughput_per_s": (n / sum(per_instance), "1/s"),
        "latency_p50_ms": (statistics.median(per_instance) * 1000, "ms"),
        "latency_tail_ms": (tail_value * 1000, "ms"),
        "decided_ratio": (sum(o.definite for o in everything) / decisions, "ratio"),
    }
    details = {"instances": n, "passes": len(passes), "tail_percentile": pct,
               "tail_samples": n, "tail_beyond": beyond,
               "raw_throughput_per_s": n / sum(raw),
               "raw_latency_p50_ms": statistics.median(raw) * 1000,
               "latency_s": {o.key: t for o, t in zip(passes[0], per_instance)}}
    return metrics, details


def cli_probe(samples: int, probe) -> tuple[float, float]:
    """Raw seconds of a bare interpreter start, and scaled seconds of one that imports sftkit.cli.

    `probe` times bare starts, so a bare start always scales to its quiet time
    and is reported unscaled.
    """
    import workloads

    with_import = scaled_median(probe, samples, [sys.executable, "-c", "import sftkit.cli"],
                                workloads.cli_env())
    return statistics.median(probe.values), with_import


# ---------------------------------------------------------------------------
# A run
# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 limit: int | None = None, setup_samples: int = SETUP_SAMPLES) -> dict:
    load = os.getloadavg()
    wl, corpus, expected = setup(name, seed, limit)
    import speed
    import workloads

    start_probe = speed.child_process_probe()
    start_probe.sample(PROBE_START_SAMPLES)
    if isinstance(wl, workloads.CliCold):
        probe = start_probe
    else:
        probe = speed.in_process_probe()
        probe.sample(PROBE_START_SAMPLES)
    if trace:
        passes, metrics, details, trace_data = traced_run(wl, corpus, expected, probe,
                                                          start_probe)
    else:
        passes = []
        loop_start = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            passes.append(run_pass(wl, corpus, expected, probe))
            now = time.perf_counter()
            if now - loop_start + (now - pass_start) > seconds:
                break
        rescale(passes, probe)
        metrics, details = end_to_end(passes)
        metrics["setup_s"] = (measure_setup(name, seed, setup_samples, start_probe), "s")
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
        trace_data = None
    details["reference_median_ms"] = statistics.median(probe.values) * 1000
    details["interpreter_start_median_ms"] = statistics.median(start_probe.values) * 1000
    outcomes = [o for p in passes for o in p]
    failures = [(o.key, o.problems) for o in outcomes if o.problems]
    return {
        "stamp": stamp(load),
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "attempted": len(outcomes),
        "failed": len(failures),
        "failed_ratio": len(failures) / len(outcomes),
        "failures": failures[:20],
        "digest": run_digest(passes[0]),
        "details": details,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "trace_data": trace_data,
    }


def traced_run(wl, corpus, expected, probe, start_probe):
    """A warm-up pass, then one untraced and one traced pass with matching answers."""
    import tracer as tracer_mod
    import workloads

    warm_up = run_pass(wl, corpus, expected, probe)
    plain = run_pass(wl, corpus, expected, probe)
    t = tracer_mod.Tracer()
    if isinstance(wl, workloads.CliCold):
        traced = run_cli_traced(corpus, expected, probe, t)
    else:
        t.install()
        try:
            traced = run_pass(wl, corpus, expected, probe, t)
        finally:
            t.uninstall()
    rescale([plain, traced], probe)
    for a, b in zip(plain, traced):
        if a.digest != b.digest:
            b.problems.append("traced run gave a different answer than the untraced run")
    metrics: dict[str, tuple[float, str]] = dict(t.layer_metrics())
    interp, with_import = cli_probe(PROBE_SAMPLES, start_probe)
    metrics["cli.interp_start_ms"] = (interp * 1000, "ms")
    metrics["cli.import_ms"] = ((with_import - start_probe.quiet_seconds) * 1000, "ms")
    command = 0.0
    if isinstance(wl, workloads.CliCold):
        command = statistics.median(o.scaled for o in plain) - with_import
    metrics["cli.command_ms"] = (command * 1000, "ms")
    overhead = sum(o.scaled for o in traced) / sum(o.scaled for o in plain)
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    details = {"instances": len(corpus), "passes": 3}
    return [plain, traced, warm_up], metrics, details, t.dump()


def run_cli_traced(corpus, expected, probe, t) -> list[Outcome]:
    """Run each command through cli_traced.py and merge the child's trace."""
    import workloads

    RESULTS.mkdir(exist_ok=True)
    scratch = RESULTS / f"cli-trace-{os.getpid()}.json"
    wl = workloads.CliCold([sys.executable, str(BENCH / "cli_traced.py"), str(scratch)])
    outcomes = []
    try:
        for inst in corpus:
            outcomes.append(run_instance(wl, inst, expected, probe))
            if scratch.exists():
                t.merge(json.loads(scratch.read_text(encoding="utf-8")))
                scratch.unlink()
    finally:
        scratch.unlink(missing_ok=True)
    return outcomes


def run_digest(outcomes: list[Outcome]) -> str:
    import workloads

    return workloads.digest(sorted((o.key, o.digest) for o in outcomes))


def stamp(load: tuple[float, float, float]) -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_at_start": list(load),
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


# ---------------------------------------------------------------------------
# Compare
# ---------------------------------------------------------------------------


def load_results(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    out = []
    for f in files:
        data = json.loads(f.read_text(encoding="utf-8"))
        if isinstance(data, dict) and "metrics" in data and "workload" in data:
            out.append(data)
    return out


def spread(values: list[float]) -> float | None:
    if len(values) < 2:
        return None
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else None


def compare(old_path: Path, new_path: Path) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rules = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    old, new = load_results(old_path), load_results(new_path)
    groups: dict[tuple[str, str], tuple[list, list]] = {}
    for side, runs in ((0, old), (1, new)):
        for r in runs:
            for metric, m in r["metrics"].items():
                groups.setdefault((r["workload"], metric), ([], []))[side].append(m["value"])
    print(f"{'workload':<16}{'metric':<46}{'old':>12}{'new':>12}{'worse by':>10}"
          f"{'bound':>8}  verdict")
    regressions = 0
    for (workload, metric), (a, b) in sorted(groups.items()):
        if not a or not b:
            continue
        rule = rules.get(metric, {})
        lower = rule.get("better", "lower") == "lower"
        ma, mb = statistics.median(a), statistics.median(b)
        worse = ((mb - ma) if lower else (ma - mb)) / ma if ma else 0.0
        bound = rule.get("bound")
        spreads = [s for s in (spread(a), spread(b)) if s is not None]
        all_better = all((y < x) if lower else (y > x) for x in a for y in b)
        if bound is None:
            verdict = "no bound"
        elif len(spreads) < 2 or max(spreads) > bound:
            verdict = "better in every run" if all_better else "unresolved (spread)"
        elif worse > bound:
            verdict = "REGRESSION"
            regressions += 1
        else:
            verdict = "within bound"
        bound_text = "-" if bound is None else f"{bound:.2f}"
        print(f"{workload:<16}{metric:<46}{ma:>12.5g}{mb:>12.5g}{worse:>+10.1%}"
              f"{bound_text:>8}  {verdict}")
    return 1 if regressions else 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), type=Path)
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        parser.error("--workload is required")
    if hasattr(os, "sched_setaffinity"):
        # One core for this process and its children, so that the reference
        # timings see the same core as the work they scale.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1), encoding="utf-8")
    print("\n".join(report(result)))
    print(f"# result file: {out.relative_to(ROOT)}")
    summary = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }
    print(json.dumps(summary))
    return 0


def report(result: dict) -> list[str]:
    """Human-readable lines: every metric by name, value and unit, then failures."""
    d, name = result["details"], result["workload"]
    lines = [f"# {name} seed={result['seed']} instances={d['instances']} passes={d['passes']} "
             f"attempted={result['attempted']} failed={result['failed']} "
             f"failed_ratio={result['failed_ratio']:.4f} digest={result['digest']}"]
    if "tail_percentile" in d:
        lines.append(f"# latency_tail_ms is p{d['tail_percentile']:.4g} over "
                     f"{d['tail_samples']} instances ({d['tail_beyond']} beyond it)")
    for metric, m in result["metrics"].items():
        lines.append(f"{name:<16} {metric:<46} {m['value']:>14.6g} {m['unit']}")
    for key, problems in result["failures"]:
        lines.append(f"# FAILED {key}: {'; '.join(problems)}")
    return lines


if __name__ == "__main__":
    raise SystemExit(main())
