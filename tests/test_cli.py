"""Command line interface: exit codes, report shape, machine and DOT output."""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import importlib.util
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest

from sftkit import cli
from sftkit.cli import _build_parser, main
from sftkit.graphs import from_adjacency, graph_from_json, graph_to_json
from sftkit.linalg import Matrix

_DATA = "data"
_FULL = f"{_DATA}/two_vertex_full.json"
_FULL_REV = f"{_DATA}/two_vertex_full_reversed.json"
_CHAIN = f"{_DATA}/transpose_chain.json"
_OUT_PART = f"{_DATA}/out_partition.json"
_IN_PART = f"{_DATA}/in_partition.json"
# one vertex v with two loops a and b
_AB = ('{"vertices": ["v"], "edges": [{"src": "v", "dst": "v", "id": "a"}, '
       '{"src": "v", "dst": "v", "id": "b"}]}')


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _report(capsys, *argv):
    code, out = _run(capsys, *argv, "--json")
    return code, json.loads(out)


def test_analyze_exit_and_report_shape(capsys):
    code, rep = _report(capsys, "analyze", "[[1,2],[1,0]]")
    assert code == 0
    assert set(rep) == {"command", "inputs", "seed", "results", "timing"}
    assert rep["command"].startswith("analyze")
    assert rep["results"]["vertices"] == 2
    assert rep["results"]["edges"] == 4
    assert rep["results"]["irreducible"] is True
    assert rep["timing"]["seconds"] >= 0


def test_analyze_human_output(capsys):
    code, out = _run(capsys, "analyze", _FULL)
    assert code == 0
    assert "irreducible: true" in out


def test_analyze_dot(capsys):
    code, out = _run(capsys, "analyze", _FULL, "--dot")
    assert code == 0
    assert out.startswith("digraph")
    assert out.count("->") == 4


def test_input_hash_changes_with_input(capsys):
    _, rep1 = _report(capsys, "analyze", "[[1,2],[1,0]]")
    _, rep2 = _report(capsys, "analyze", "[[2]]")
    assert rep1["inputs"] != rep2["inputs"]


def test_file_and_inline_inputs_agree(capsys):
    _, rep1 = _report(capsys, "invariants", _FULL)
    _, rep2 = _report(capsys, "invariants", "[[1,2],[1,0]]")
    assert rep1["results"] == rep2["results"]


def test_invariants_report_keys(capsys):
    code, rep = _report(capsys, "invariants", "[[19,5],[4,1]]")
    assert code == 0
    res = rep["results"]
    assert res["bf"] == {"factors": [20], "rank": 0}
    assert res["det_i_minus_a"] == -20
    assert "bf_description" in res and "char_poly_pretty" in res


def test_flow_positive_and_negative(capsys):
    code, rep = _report(capsys, "flow", _FULL, _FULL_REV)
    assert code == 0
    assert rep["results"]["flow_equivalent"] is True
    code, rep = _report(capsys, "flow", "[[2]]", "[[3]]")
    assert code == 1
    assert rep["results"]["flow_equivalent"] is False


def test_flow_runs_one_smith_elimination_per_matrix(capsys):
    from sftkit import invariants

    calls = []
    inner = invariants._smith
    with mock.patch.object(invariants, "_smith", lambda *args: calls.append(1) or inner(*args)):
        code, rep = _report(capsys, "flow", "[[1,2],[1,0]]", "[[1,1],[2,0]]")
    assert code == 0 and rep["results"]["flow_equivalent"] is True
    assert rep["results"]["first"]["det_i_minus_a"] == rep["results"]["second"]["det_i_minus_a"] == -2
    assert len(calls) == 2


def test_dimgroup_pos_decisions(capsys):
    code, rep = _report(capsys, "dimgroup", "pos", "[[1,2],[1,0]]", "1,1")
    assert code == 0
    assert rep["results"]["decision"] == "in_cone"
    code, rep = _report(capsys, "dimgroup", "pos", "[[1,2],[1,0]]", "1,-2")
    assert code == 1
    assert rep["results"]["decision"] == "not_in_cone"


@pytest.mark.parametrize("entries, decision", [
    ((-1, 2), "not_in_cone"),
    ((-1, 3), "in_cone"),
    ((2, -1), "in_cone"),
])
def test_dimgroup_pos_vector_spellings_agree(capsys, entries, decision):
    # argparse reads a bare '-1,2' as an option, so a vector that starts with
    # a minus sign is written as JSON or after '--'; both give the decision
    # of the comma form, which is written bare when it starts with a digit
    comma = ",".join(map(str, entries))
    spellings = [[json.dumps(list(entries))], ["--", comma]]
    if entries[0] >= 0:
        spellings.append([comma])
    for spelling in spellings:
        code, out = _run(capsys, "dimgroup", "pos", "[[1,2],[1,0]]", "--json", *spelling)
        rep = json.loads(out)
        assert (code, rep["results"]["decision"]) == (decision == "not_in_cone", decision)
        assert rep["results"]["element"]["a"] == list(entries)


def test_dimgroup_pos_stage_argument(capsys):
    code, rep = _report(capsys, "dimgroup", "pos", "[[1,2],[1,0]]", "[1, 1]", "3")
    assert code == 0
    assert rep["results"]["element"]["k"] == 3


def test_dimgroup_pos_default_bound_is_reported(capsys):
    code, rep = _report(capsys, "dimgroup", "pos", "[[3,0],[1,0]]", "1,-4")
    assert code == 1
    assert rep["results"]["decision"] == "unknown"
    assert rep["results"]["iterate_bound"] == 24


def test_dimgroup_unit(capsys):
    code, rep = _report(capsys, "dimgroup", "unit", _FULL)
    assert code == 0
    assert rep["results"]["order_unit"]["a"] == [1, 1]


def test_iso_search_found_and_infeasible(capsys):
    code, rep = _report(capsys, "iso", "search", _FULL, _FULL)
    assert code == 0
    assert rep["results"]["outcome"] == "found"
    code, rep = _report(capsys, "iso", "search", _FULL, _FULL_REV, "--pointed")
    assert code == 1
    assert rep["results"]["outcome"] == "infeasible"
    assert rep["results"]["certificate"]


def test_iso_search_huge_grid_maxima_answer_within_the_budget(capsys):
    # the scan reads only as many grid values as its budget, so maxima of
    # 10**9 answer at once and as the default maxima do
    big = str(10**9)
    for a, b in (("[[2]]", "[[2]]"), ("[[2]]", "[[1,1],[1,1]]"), (_FULL, _FULL)):
        code, out = _run(capsys, "iso", "search", a, b, "--budget", "1")
        start = time.perf_counter()
        huge = _run(capsys, "iso", "search", a, b, "--budget", "1",
                    "--value-max", big, "--denominator-max", big)
        assert time.perf_counter() - start < 1
        assert huge == (code, out)


def test_se_verify_witness(capsys):
    witness = json.dumps({"R": [[1, 1], [1, 0]], "S": [[1, 0], [0, 2]], "l": 1})
    code, rep = _report(capsys, "se", "verify", _FULL, _FULL_REV, witness)
    assert code == 0
    assert rep["results"]["verified"] is True
    bad = json.dumps({"R": [[1, 1], [1, 0]], "S": [[1, 0], [0, 1]], "l": 1})
    code, rep = _report(capsys, "se", "verify", _FULL, _FULL_REV, bad)
    assert code == 1
    assert rep["results"]["verified"] is False


def test_se_verify_rejects_huge_lag_quickly():
    # a wrong witness at lag 10^8 is rejected without forming A^(10^8)
    src = Path(__file__).resolve().parent.parent / "src"
    witness = '{"R":[[1,0],[0,1]],"S":[[1,0],[0,1]],"l":100000000}'
    proc = subprocess.run(
        [sys.executable, "-m", "sftkit", "se", "verify", "[[1,1],[1,0]]", "[[1,1],[1,0]]", witness],
        capture_output=True, text=True, timeout=2, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 1
    assert "verified: false" in proc.stdout


def test_se_search_finds_transpose_witness(capsys):
    code, rep = _report(capsys, "se", "search", _FULL, _FULL_REV)
    assert code == 0
    assert rep["results"]["outcome"] == "found"
    w = rep["results"]["witness"]
    assert w["l"] == 1


def test_se_search_miss_is_marked_inconclusive(capsys):
    code, rep = _report(capsys, "se", "search", "[[19,5],[4,1]]", "[[19,4],[5,1]]")
    assert code == 1
    res = rep["results"]
    assert res["outcome"] == "not_found_within_bounds"
    assert res["conclusive"] is False
    assert "does not decide" in res["note"]


@pytest.mark.parametrize("command", ["se", "sse"])
@pytest.mark.parametrize("a, b, reason, values", [
    ("[[2]]", "[[3]]", "char_poly_away_from_zero", (["-2", "1"], ["-3", "1"])),
    ("[[0,1],[3,2]]", "[[1,2],[2,1]]", "bowen_franks",
     ({"factors": [4], "rank": 0}, {"factors": [2, 2], "rank": 0})),
])
def test_search_prefilter_reject_is_a_conclusive_no(capsys, command, a, b, reason, values):
    code, rep = _report(capsys, command, "search", a, b)
    assert code == 1
    assert rep["results"] == {"outcome": "not_equivalent", "conclusive": True,
                              "reason": reason, "a": values[0], "b": values[1]}
    # the values are those `invariants --json` prints
    for arg, value in zip((a, b), values):
        _, inv = _report(capsys, "invariants", arg)
        assert value == inv["results"]["bf" if reason == "bowen_franks" else reason]


def test_sse_search_refusal_stays_inconclusive(capsys):
    code, rep = _report(capsys, "sse", "search", "[[2]]", "[[3,0],[0,0]]", "--inner-dim-max", "1")
    assert code == 1
    assert rep["results"]["outcome"] == "not_found_within_bounds"
    assert rep["results"]["conclusive"] is False


# stdout and exit code of every outcome shape of the searches and decisions,
# human and --json (the report cut before "timing"), recorded from an earlier
# CLI that built each report itself; compared as text, so key order counts
_OUTCOMES = json.loads((Path(__file__).parent / "cli_outcomes.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("pin", _OUTCOMES, ids=[" ".join(p["argv"]) for p in _OUTCOMES])
def test_outcomes_print_the_recorded_bytes(capsys, monkeypatch, pin):
    monkeypatch.chdir(_ROOT)
    code, out = _run(capsys, *pin["argv"])
    assert (code, out.split(',\n  "timing": ')[0]) == (pin["exit"], pin["stdout"])


def test_sse_verify_chain(capsys):
    code, rep = _report(capsys, "sse", "verify-chain", _FULL, _FULL_REV, _CHAIN)
    assert code == 0
    assert rep["results"]["verified"] is True
    assert rep["results"]["links"] == 3


def test_sse_search_one_step(capsys):
    code, rep = _report(capsys, "sse", "search", "[[1,1],[1,1]]", "[[2]]")
    assert code == 0
    assert rep["results"]["outcome"] == "found"


def test_product_adjacency_and_dot(capsys):
    code, rep = _report(capsys, "product", "[[1,1],[1,0]]", "[[2]]")
    assert code == 0
    expect = Matrix.from_rows([[1, 1], [1, 0]]).kron(Matrix.from_rows([[2]]))
    assert rep["results"]["adjacency"] == [[int(x) for x in row] for row in expect.rows]
    code, out = _run(capsys, "product", "[[1,1],[1,0]]", "[[2]]", "--dot")
    assert code == 0
    assert out.startswith("digraph")


def test_split_round_trip_through_cli(capsys):
    code, rep = _report(capsys, "split", "out", _FULL, _OUT_PART)
    assert code == 0
    h = graph_from_json(rep["results"]["graph"])
    assert sorted(h.vertices) == ["v1.1", "v1.2", "v2.1"]
    assert "R" in rep["results"]["witness"] and "S" in rep["results"]["witness"]
    code, rep = _report(capsys, "split", "in", _FULL, _IN_PART)
    assert code == 0


def test_bratteli_levels_and_dot(capsys):
    code, rep = _report(capsys, "bratteli", _FULL, "--depth", "3")
    assert code == 0
    assert rep["results"]["depth"] == 3
    assert len(rep["results"]["levels"]) == 4
    code, out = _run(capsys, "bratteli", _FULL, "--depth", "2", "--dot")
    assert code == 0
    assert out.startswith("digraph")
    assert "rank=same" in out


def test_terms_reduce(capsys):
    code, rep = _report(capsys, "terms", "reduce", _FULL, "e1* e1 + e2* e3")
    assert code == 0
    assert rep["results"]["reduced"] == "v1"
    code, rep = _report(
        capsys, "terms", "reduce", _FULL, "e1 e1* e1", "--strategy", "rightmost"
    )
    assert code == 0
    assert rep["results"]["reduced"] == "e1"


def test_terms_decompose_with_weights(capsys):
    code, rep = _report(
        capsys,
        "terms",
        "decompose",
        _FULL,
        "e1 + v1 + e4*",
        "--weights",
        '{"e1": "1/2", "e2": 1, "e3": 1, "e4": 2}',
    )
    assert code == 0
    assert rep["results"]["components"] == {"-2": "e4*", "0": "v1", "1/2": "e1"}


def test_terms_family(capsys):
    code, rep = _report(capsys, "terms", "family", _FULL, _IN_PART)
    assert code == 0
    assert rep["results"]["verified"] is True
    assert rep["results"]["vertex_images"]


def test_seed_is_echoed(capsys):
    _, rep = _report(capsys, "analyze", "[[2]]", "--seed", "7")
    assert rep["seed"] == 7


def test_errors_are_machine_readable(capsys):
    code, out = _run(capsys, "analyze", "[[1,2],[1]]")
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] and err["message"]
    code, out = _run(capsys, "analyze", "no_such_file.json")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ParseError"
    code, out = _run(capsys, "dimgroup", "pos", "[[2]]", "1/2")
    assert code == 2
    assert "error" in json.loads(out)
    code, out = _run(capsys, "flow", "[[0,1],[0,0]]", "[[2]]")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "NotIrreducibleNontrivial"


_MALFORMED = [
    ("analyze", "[[1.5]]"),
    ("analyze", "[[true]]"),
    ("analyze", '{"adjacency": [[1e400]]}'),
    ("analyze", "[]"),
    ("invariants", "[]"),
    ("terms", "reduce", _FULL, "1/0 v1"),
    ("se", "search", "[[2]]", "[[2]]", "--entry-bound", "-1"),
    ("se", "search", "[[2]]", "[[2]]", "--lag-max", "0"),
    ("se", "search", "[[2]]", "[[2]]", "--budget", "-1"),
    ("sse", "search", "[[2]]", "[[2]]", "--entry-bound", "-1"),
    ("sse", "search", "[[2]]", "[[2]]", "--inner-dim-max", "-1"),
    ("sse", "search", "[[2]]", "[[2]]", "--budget", "-1"),
    ("iso", "search", _FULL, _FULL, "--denominator-max", "-1"),
    ("iso", "search", _FULL, _FULL, "--value-max", "-1"),
    ("iso", "search", _FULL, _FULL, "--budget", "-1"),
    ("dimgroup", "pos", "[[2]]", "1", "--bound", "-1"),
    ("dimgroup", "pos", "[[2]]", "1", "-1"),
    ("bratteli", _FULL, "--depth", "-1"),
    ("dimgroup", "pos", "[[2]]", "-"),
    ("dimgroup", "pos", "[[2]]", "[true]"),
    ("dimgroup", "pos", "[[2]]", '["x"]'),
    ("dimgroup", "pos", "[[2]]", "[1e400]"),
    ("dimgroup", "pos", "[[2]]", "[[1]]"),
    ("dimgroup", "pos", "[[1,2],[1,0]]", "1,,-2"),
    ("dimgroup", "pos", "[[1,2],[1,0]]", ",1,-2,"),
    ("dimgroup", "pos", "[[1,2],[1,0]]", '["1",-2]'),
    ("terms", "decompose", _FULL, "v1", "--weights", "[1]"),
    ("terms", "decompose", _FULL, "v1", "--weights", '{"e1": "1/0"}'),
    ("terms", "decompose", _FULL, "v1", "--weights", '{"e1": "x"}'),
    ("terms", "decompose", _FULL, "v1", "--weights", '{"e1": true}'),
    ("terms", "decompose", _FULL, "v1", "--weights", '{"e1": 1e400}'),
    ("se", "verify", "[[2]]", "[[2]]", '{"R": [[1e400]], "S": [[2]], "l": 1}'),
    ("se", "verify", "[[1, 1], [1, 0]]", "[[1, 1], [1, 0]]",
     '{"R": [[true, false], [false, true]], "S": [[1, 1], [1, 0]], "l": 1}'),
    ("se", "verify", "[[2]]", "[[2]]", '{"R": [[1]], "S": [[2]], "l": 1.7}'),
    ("se", "verify", "[[2]]", "[[2]]", '{"R": [[1]], "S": [[2]], "l": true}'),
    ("sse", "verify-chain", "[[2]]", "[[2]]",
     '{"links": [{"matrix": [[2]], "witness": {"R": [[1e400]], "S": [[2]]}}]}'),
    ("sse", "verify-chain", "[[2]]", "[[2]]",
     '{"links": [{"matrix": [[2]], "witness": {"R": [["x"]], "S": [[2]]}}]}'),
    ("sse", "verify-chain", "[[1, 1], [1, 0]]", "[[1, 1], [1, 0]]",
     '{"links": [{"matrix": [[1, 1], [1, 0]], "witness": '
     '{"R": [[true, false], [false, true]], "S": [[1, 1], [1, 0]]}}]}'),
    ("split", "out", _AB, '[{"vertex": "v", "blocks": ["ab"]}]'),
    ("split", "out", _AB, '[{"vertex": "v", "blocks": "ab"}]'),
    ("split", "out", _AB, '[{"vertex": ["v"], "blocks": [["a", "b"]]}]'),
    ("split", "out", _AB, '{"vertex": "v", "blocks": [["a", "b"]]}'),
    ("analyze", '{"vertices": "ab", "edges": []}'),
    ("analyze", '{"vertices": [1, 2], "edges": []}'),
    ("analyze", '{"vertices": ["a"], "edges": {}}'),
    ("analyze", '{"vertices": ["a"], "edges": [{"src": "a", "dst": "a", "id": 1}]}'),
]
# JSON text that breaks off, and a payload with neither key: each is a
# ParseError, and its message starts with this prefix
_PARSE_ERRORS = {
    ("analyze", '{"adjacency": [[1,'): "invalid JSON: ",
    ("analyze", "[[1, 2"): "invalid JSON: ",
    ("analyze", '{"unexpected": 1}'): "graph object needs either 'adjacency' or 'vertices'+'edges'",
    ("dimgroup", "pos", "[[1,2],[1,0]]", "[]"): "empty vector",
    ("dimgroup", "pos", "[[1,2],[1,0]]", "[1,2"): "invalid vector JSON: ",
}
_MALFORMED += list(_PARSE_ERRORS)


_NESTED = "[" * 100_000 + "]" * 100_000
_NESTED_INPUTS = {
    "graph": (("analyze", _NESTED), "invalid JSON: "),
    "witness": (("se", "verify", "[[2]]", "[[2]]", _NESTED), "invalid JSON: "),
    "chain": (("sse", "verify-chain", "[[2]]", "[[2]]", _NESTED), "invalid JSON: "),
    "partition": (("split", "out", _AB, _NESTED), "invalid JSON: "),
    "family partition": (("terms", "family", _FULL, _NESTED), "invalid JSON: "),
    "weights": (("terms", "decompose", _FULL, "v1", "--weights", _NESTED), "invalid JSON: "),
    "vector": (("dimgroup", "pos", "[[2]]", _NESTED), "invalid vector JSON: "),
}


@pytest.mark.parametrize("argv, prefix", _NESTED_INPUTS.values(), ids=_NESTED_INPUTS)
def test_deeply_nested_json_is_a_parse_error(capsys, argv, prefix):
    # json.loads raises RecursionError, not JSONDecodeError, past its depth limit
    # (about 1,000 levels up to Python 3.12, some 10,000 from 3.13 on)
    code, out = _run(capsys, *argv)
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "ParseError"
    assert err["message"].startswith(prefix + "maximum recursion depth exceeded")


_DIGIT_CAP = pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                                reason="the interpreter does not cap int-to-string digits")


def _uncapped_json(text: str):
    """json.loads(text) with the int digit cap lifted, as the CLI lifts it."""
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return json.loads(text)
    finally:
        sys.set_int_max_str_digits(cap)


@_DIGIT_CAP
def test_invariants_are_exact_past_the_int_digit_cap(capsys):
    # det(I - A) = (1 - n)^2 - 1 has about 6,000 digits, more than the cap's 4,300
    n = 10**3000 - 1
    code, out = _run(capsys, "invariants", f"[[{n},1],[1,{n}]]", "--json")
    assert code == 0
    assert _uncapped_json(out)["results"]["det_i_minus_a"] == (1 - n) ** 2 - 1


@_DIGIT_CAP
@pytest.mark.parametrize("spelling", ["[{}]", "{}"])
def test_dimgroup_pos_prints_a_huge_element_back(capsys, spelling):
    code, out = _run(capsys, "dimgroup", "pos", "[[2]]", spelling.format("9" * 5000), "--json")
    assert code == 0
    assert _uncapped_json(out)["results"]["element"] == {"a": [10**5000 - 1], "k": 0}


@_DIGIT_CAP
@pytest.mark.parametrize("argv", [
    ("analyze", "[[" + "9" * 5000 + "]]"),
    ("analyze", "[[1.5]]"),
    ("analyze", "--no-such-option"),
], ids=["answer", "error object", "usage error"])
def test_main_restores_the_int_digit_cap(capsys, argv):
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4321)
    try:
        with contextlib.suppress(SystemExit):
            main(list(argv))
        assert sys.get_int_max_str_digits() == 4321
    finally:
        sys.set_int_max_str_digits(cap)


_HUGE = "[[1000000000]]"
# (argv, a key of the --json results, its value)
_HUGE_ANSWERS = [
    (("invariants", _HUGE), "bf_description", "Z/999999999"),
    (("analyze", _HUGE), "edges", 10**9),
    (("flow", _HUGE, _HUGE), "flow_equivalent", True),
    (("dimgroup", "pos", _HUGE, "1"), "decision", "in_cone"),
    (("dimgroup", "unit", _HUGE), "acting_matrix", [[10**9]]),
    (("iso", "search", _HUGE, _HUGE), "outcome", "found"),
    (("bratteli", _HUGE, "--depth", "2"), "levels", [[1], [10**9], [10**18]]),
]


@pytest.mark.parametrize("argv, key, answer", _HUGE_ANSWERS,
                         ids=[" ".join(x for x in argv if x != _HUGE) for argv, _, _ in _HUGE_ANSWERS])
def test_matrix_commands_read_large_entries_without_edges(argv, key, answer):
    # one edge per unit of an entry would need 10**9 edges here; a child
    # process that tried would be stopped by the timeout. The 2 s bound is on
    # the command's own time (its report's timing), not on interpreter start-up.
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "sftkit", *argv, "--json"],
        capture_output=True, text=True, timeout=5, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rep = json.loads(proc.stdout)
    assert rep["timing"]["seconds"] < 2
    assert rep["results"][key] == answer


@pytest.mark.parametrize("vec, bad", [
    ('["1",-2]', "'1'"), ('["x"]', "'x'"), ("[true]", "True"), ("[[1]]", "[1]"),
    ("[1.5,1]", "1.5"), ("[1,1e400]", "inf"), ("[1,-2.9]", "-2.9"),
])
def test_bad_json_vector_entries_are_parse_errors(capsys, vec, bad):
    code, out = _run(capsys, "dimgroup", "pos", "[[1,2],[1,0]]", vec)
    assert code == 2
    assert json.loads(out)["error"] == {
        "type": "ParseError",
        "message": f"vector entries must be integers, got {bad}",
    }


def test_json_vector_reads_integral_floats_as_ints(capsys):
    code, out = _run(capsys, "dimgroup", "pos", "[[1,2],[1,0]]", "[1,-2.0]", "--json")
    assert code == 1
    element = json.loads(out)["results"]["element"]
    assert element == {"a": [1, -2], "k": 0}
    # json.loads reads "-2.0" as a float, so ints here mean ints were printed
    assert [type(x) for x in element["a"]] == [int, int]


@pytest.mark.parametrize("argv", _MALFORMED, ids=" ".join)
def test_malformed_input_exits_2_with_error_object(capsys, argv):
    code, out = _run(capsys, *argv)
    assert code == 2
    err = json.loads(out)["error"]
    assert set(err) == {"type", "message"}
    assert err["type"] and err["message"]
    if argv in _PARSE_ERRORS:
        assert err["type"] == "ParseError"
        assert err["message"].startswith(_PARSE_ERRORS[argv])


def test_graph_json_round_trip_is_canonical(capsys):
    g = from_adjacency(Matrix.from_rows([[1, 2], [1, 0]]))
    blob = json.dumps(graph_to_json(g))
    code, rep = _report(capsys, "analyze", blob)
    assert code == 0
    assert rep["results"]["adjacency"] == [[1, 2], [1, 0]]


# (command, home module, library function, fixed keywords, bound flags, the
# keywords those flags pass)
_BOUND_FLAGS = [
    (["se", "search", _FULL, _FULL_REV], "equivalences", "search_se", {},
     ["--lag-max", "2", "--entry-bound", "1", "--budget", "7"],
     {"lag_max": 2, "entry_bound": 1, "candidate_budget": 7}),
    (["sse", "search", "[[1,1],[1,1]]", "[[2]]"], "equivalences", "search_esse", {},
     ["--inner-dim-max", "2", "--entry-bound", "1", "--budget", "7"],
     {"inner_dim_max": 2, "entry_bound": 1, "candidate_budget": 7}),
    (["iso", "search", _FULL, _FULL], "dimension", "search_module_iso", {"pointed": False},
     ["--denominator-max", "1", "--value-max", "1", "--budget", "7"],
     {"denominator_max": 1, "value_max": 1, "candidate_budget": 7}),
    (["dimgroup", "pos", "[[3,0],[1,0]]", "1,-4"], "dimension", "dg_positive", {},
     ["--bound", "5"], {"iterate_bound": 5}),
]


@pytest.mark.parametrize("argv, module, name, fixed, flags, keywords", _BOUND_FLAGS,
                         ids=[case[2] for case in _BOUND_FLAGS])
def test_only_the_bounds_set_are_passed(capsys, monkeypatch, argv, module, name, fixed,
                                        flags, keywords):
    home = importlib.import_module(f"sftkit.{module}")
    real, calls = getattr(home, name), []

    def record(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(home, name, record)
    _run(capsys, *argv)
    _run(capsys, *argv, *flags)
    assert calls == [fixed, {**fixed, **keywords}]


_SE_DEFAULTS = ["--lag-max", "1", "--entry-bound", "3", "--budget", "200000"]
_SSE_DEFAULTS = ["--inner-dim-max", "4", "--entry-bound", "3", "--budget", "200000"]
_ISO_DEFAULTS = ["--denominator-max", "4", "--value-max", "2", "--budget", "4000"]


@pytest.mark.parametrize("argv, defaults", [
    (["se", "search", _FULL, _FULL_REV], _SE_DEFAULTS),
    (["se", "search", "[[2]]", "[[3]]"], _SE_DEFAULTS),
    (["sse", "search", "[[1,1],[1,1]]", "[[2]]"], _SSE_DEFAULTS),
    (["sse", "search", _FULL, _FULL_REV], _SSE_DEFAULTS),
    (["iso", "search", _FULL, _FULL], _ISO_DEFAULTS),
    (["iso", "search", _FULL, _FULL_REV, "--pointed"], _ISO_DEFAULTS),
])
def test_unset_bounds_answer_as_the_former_cli_defaults(capsys, argv, defaults):
    code, rep = _report(capsys, *argv)
    spelled_code, spelled = _report(capsys, *argv, *defaults)
    assert (code, rep["results"]) == (spelled_code, spelled["results"])


@pytest.mark.parametrize("prefix", [
    [], ["analyze"], ["invariants"], ["flow"],
    ["dimgroup"], ["dimgroup", "pos"], ["dimgroup", "unit"],
    ["iso"], ["iso", "search"],
    ["se"], ["se", "verify"], ["se", "search"],
    ["sse"], ["sse", "verify-chain"], ["sse", "search"],
    ["product"], ["split"], ["bratteli"],
    ["terms"], ["terms", "reduce"], ["terms", "decompose"], ["terms", "family"],
], ids=lambda prefix: "-".join(["sftkit", *prefix]))
def test_every_parser_prints_help(capsys, prefix):
    code, out, err = _parsed(capsys, main, [*prefix, "--help"])
    assert code == 0
    assert out.startswith("usage: ")
    assert (code, out, err) == _parsed(capsys, _build_parser().parse_args, [*prefix, "--help"])


def _parsed(capsys, parse, argv: list[str]) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of a parse that argparse ends."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


@pytest.mark.parametrize("argv", [
    [],
    ["bogus"],
    ["dimgroup", "neg"],
    ["dimgroup"],
    ["flow", "[[2]]"],
    ["--json", "analyze", "x"],
    ["analyze", "[[2]]", "--bogus"],
    ["bratteli", "[[2]]", "--depth", "two"],
    ["split", "sideways", "[[2]]", "[]"],
], ids=lambda argv: "-".join(["sftkit", *argv]))
def test_usage_errors_match_the_full_parser(capsys, argv):
    code, out, err = _parsed(capsys, main, argv)
    assert code == 2
    assert err.startswith("usage: ")
    assert (code, out, err) == _parsed(capsys, _build_parser().parse_args, argv)


def test_a_named_leaf_is_built_without_its_siblings():
    full = _build_parser().format_usage()
    assert "{analyze,invariants,flow,dimgroup,iso,se,sse,product,split,bratteli,terms}" in full
    assert _build_parser(["analyze", "x"]).format_usage() == "usage: sftkit [-h] {analyze} ...\n"
    assert _build_parser(["dimgroup", "pos"]).format_usage() == "usage: sftkit [-h] {dimgroup} ...\n"
    for argv in ([], ["dimgroup"], ["dimgroup", "neg"], ["--json", "analyze"], ["-h"]):
        assert _build_parser(argv).format_usage() == full, argv


def test_missing_subcommand_exits_with_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["dimgroup"])
    assert exc.value.code == 2


_ROOT = Path(__file__).resolve().parent.parent


def _readme_commands() -> list[str]:
    """The `sftkit ...` lines of README's command-line block."""
    text = (_ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("sftkit ")]


def test_readme_commands_run(capsys, monkeypatch):
    monkeypatch.chdir(_ROOT)
    lines = _readme_commands()
    assert len(lines) >= 10
    assert any("# exits 1" in line for line in lines)
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        code, out = _run(capsys, *argv)
        assert code == (1 if "# exits 1" in line else 0), line
        assert not out.startswith('{"error"'), line


_PROBE = """
import contextlib, importlib, io, json, sys
import sftkit
for argv in ARGVS:
    from sftkit.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        main(argv)
    assert ABSENT not in sys.modules, argv
for name in IMPORTS:
    importlib.import_module(name)
    assert ABSENT not in sys.modules, name
print(json.dumps(sorted(m for m in sys.modules if m.startswith("sftkit"))))
"""


def _modules_loaded_by(*argvs: list[str], imports: tuple[str, ...] = (),
                       absent: str = "dataclasses", flags: tuple[str, ...] = ()) -> set[str]:
    """The sftkit modules a fresh interpreter (run with these flags) holds after
    `import sftkit`, these runs and these imports; the probe fails if any of
    them loaded the module named by absent."""
    probe = (_PROBE.replace("ARGVS", repr(list(argvs))).replace("IMPORTS", repr(imports))
             .replace("ABSENT", repr(absent)))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", probe],
        capture_output=True, text=True, timeout=60, cwd=_ROOT,
        env={**os.environ, "PYTHONPATH": str(_ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def _readme_load_table() -> tuple[set[str], list[tuple[list[str], set[str]]]]:
    """README "Layout": the modules every command loads, and each row of its
    table as (command names, the modules it also loads)."""
    text = (_ROOT / "README.md").read_text(encoding="utf-8").split("## Layout", 1)[1]
    base = re.findall(r"`(\w+)`", re.search(r"Every command loads (.+?)\.\s", text, re.S)[1])
    rows = []
    for line in text.split("| also loads", 1)[1].splitlines()[2:]:
        if not line.startswith("|"):
            break
        commands, modules = line.strip("|").split("|")
        names = [name.removesuffix(" ...") for name in re.findall(r"`([^`]+)`", commands)]
        rows.append((names, {f"sftkit.{m}" for m in re.findall(r"`(\w+)`", modules)}))
    return {"sftkit", *(f"sftkit.{m}" for m in base)}, rows


def test_commands_import_only_the_modules_they_run():
    # every README command, in a fresh interpreter per table command, loads
    # exactly the modules of its row of README's load table
    assert _modules_loaded_by() == {"sftkit"}
    base, rows = _readme_load_table()
    assert base >= {"sftkit.cli", "sftkit.graphs"} and len(rows) >= 8, (base, rows)
    runs: dict[str, list[list[str]]] = {}
    for line in _readme_commands():
        argv = shlex.split(line, comments=True)[1:]
        matches = [name for names, _ in rows for name in names
                   if argv[: len(name.split())] == name.split()]
        assert len(matches) == 1, (line, matches)
        runs.setdefault(matches[0], []).append(argv)
    for names, modules in rows:
        for name in names:
            assert name in runs, f"README runs no `{name}` command"
            assert _modules_loaded_by(*runs[name]) == base | modules, name


_BUILTIN_SHA256 = any(importlib.util.find_spec(m) for m in ("_sha2", "_sha256"))


def _json_commands() -> list[list[str]]:
    """The README commands that print a report, each with --json (before any --)."""
    commands = []
    for line in _readme_commands():
        argv = shlex.split(line, comments=True)[1:]
        if "--dot" in argv:
            continue
        if "--json" not in argv:
            at = argv.index("--") if "--" in argv else len(argv)
            argv[at:at] = ["--json"]
        commands.append(argv)
    return commands


@pytest.mark.skipif(not _BUILTIN_SHA256, reason="the interpreter has no builtin sha256 module")
def test_json_reports_do_not_load_openssl_hashes():
    # -S leaves out `site`, whose `.pth` files may import `hashlib`
    _modules_loaded_by(*_json_commands(), absent="_hashlib", flags=("-S",))


def test_report_digest_is_the_sha256_of_the_inputs(capsys, monkeypatch):
    monkeypatch.chdir(_ROOT)
    _, rep = _report(capsys, "analyze", "[[1,2],[1,0]]")
    assert rep["inputs"] == hashlib.sha256(b"[[1,2],[1,0]]").hexdigest()[:16]
    joined = []
    report = cli._Run.report

    def recording(self, args, results):
        joined.append("\x1e".join(self.raw_inputs))
        return report(self, args, results)

    monkeypatch.setattr(cli._Run, "report", recording)
    commands = _json_commands()
    assert len(commands) >= 10
    for argv in commands:
        _, out = _run(capsys, *argv)
        assert json.loads(out)["inputs"] == hashlib.sha256(joined[-1].encode()).hexdigest()[:16]
    assert len(joined) == len(commands)


def test_report_digest_falls_back_to_hashlib(capsys, monkeypatch):
    monkeypatch.chdir(_ROOT)
    spy = mock.Mock(wraps=hashlib.sha256)
    monkeypatch.setattr(hashlib, "sha256", spy)
    builtin = [_run(capsys, *argv)[1] for argv in _json_commands()]
    assert spy.call_count == (0 if _BUILTIN_SHA256 else len(builtin))
    spy.reset_mock()
    for name in ("_sha2", "_sha256"):
        monkeypatch.setitem(sys.modules, name, None)  # makes `import name` fail
    fallback = [_run(capsys, *argv)[1] for argv in _json_commands()]
    assert spy.call_count == len(fallback)
    assert [json.loads(o)["inputs"] for o in fallback] == [json.loads(o)["inputs"] for o in builtin]


def test_no_command_or_module_loads_dataclasses():
    # the records derive from `sftkit._frozen.Frozen`; `dataclasses` (and the
    # `inspect` it imports) would cost every command its import time
    modules = sorted(f"sftkit.{p.stem}" for p in (_ROOT / "src" / "sftkit").glob("[!_]*.py"))
    commands = [shlex.split(line, comments=True)[1:] for line in _readme_commands()]
    loaded = _modules_loaded_by(*commands, imports=tuple(modules))
    assert set(modules) <= loaded


def test_no_command_or_module_loads_typing():
    # the abstract types come from `collections.abc`, which start-up loads
    # already; -S leaves out `site`, whose `.pth` files may import `typing`
    modules = sorted(f"sftkit.{p.stem}" for p in (_ROOT / "src" / "sftkit").glob("[!_]*.py"))
    commands = [shlex.split(line, comments=True)[1:] for line in _readme_commands()]
    loaded = _modules_loaded_by(*commands, imports=tuple(modules), absent="typing", flags=("-S",))
    assert set(modules) <= loaded
