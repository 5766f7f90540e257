"""Tests for the benchmark's own code: generator, gate and span arithmetic."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import gate  # noqa: E402
import instances  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SHIPPED = "# custom subspace\np = 2\nn = 3\nr = 1\nu_basis = 110\n"
SOURCES = [("shipped", SHIPPED), ("p2n4r1", (2, 4, 1)), ("p3n3r2", (3, 3, 2))]


def _texts(specs):
    out = {}
    for spec in specs:
        with open(spec.path, encoding="utf-8") as handle:
            out[spec.name] = handle.read()
    return out


def test_seed_zero_writes_the_shipped_instances(tmp_path):
    specs = instances.generate(SOURCES, 0, str(tmp_path))
    texts = _texts(specs)
    assert texts["shipped"] == SHIPPED
    assert texts["p2n4r1"] == "p = 2\nn = 4\nr = 1\n"


def test_generator_is_deterministic(tmp_path):
    def texts(seed, sub):
        (tmp_path / sub).mkdir()
        return _texts(instances.generate(SOURCES, seed, str(tmp_path / sub)))

    first, second, other = texts(7, "a"), texts(7, "b"), texts(8, "c")
    assert first == second
    assert first != other
    assert all("u_basis" in text for text in first.values())


@pytest.mark.parametrize("p,n,r", [(2, 2, 1), (2, 3, 2), (2, 4, 3), (2, 4, 1), (3, 3, 2), (13, 3, 2)])
def test_generator_always_yields_rank_r(tmp_path, p, n, r):
    for seed in range(1, 60):
        (spec,) = instances.generate([("x", (p, n, r))], seed, str(tmp_path))
        with open(spec.path, encoding="utf-8") as handle:
            fields = instances.parse_cfg(handle.read())
        assert (fields["p"], fields["n"], fields["r"]) == (p, n, r)
        assert len(fields["u_rows"]) == r
        assert instances.rank_mod_p(fields["u_rows"], p) == r


def test_rank_mod_p():
    assert instances.rank_mod_p([(1, 1, 0), (2, 2, 0)], 2) == 1
    assert instances.rank_mod_p([(1, 1, 0), (2, 2, 0)], 3) == 1
    assert instances.rank_mod_p([(1, 2, 0), (0, 1, 1)], 3) == 2
    assert instances.rank_mod_p([(0, 0, 0)], 5) == 0


# --- verify gate -----------------------------------------------------------

EXPECTED = {"order_law": "pass", "rank_identity": "skip"}


def _verify_run(statuses=None, caps=(2000, 4)):
    statuses = statuses or EXPECTED
    report = {
        "instance": {"enum_cap": caps[0], "rank_cap": caps[1]},
        "checks": [{"name": k, "status": v, "seconds": 0.1, "counts": {}} for k, v in statuses.items()],
    }
    stdout = "instance p=2 n=3 r=1 (cap=2000)\n" + "".join(
        f"{v.upper():4s} {k} [0.10s]\n" for k, v in statuses.items()
    ) + "verify: 1 passed, 0 failed, 1 skipped\n"
    return stdout, json.dumps(report, indent=2)


def _gate_verify(rc, stdout, text):
    tally = gate.Tally()
    gate.gate_verify(tally, "x", rc, stdout, text, EXPECTED, 2000, 4)
    return tally


def test_verify_gate_passes_a_matching_run():
    tally = _gate_verify(0, *_verify_run())
    assert (tally.attempted, tally.failed) == (3, 0)


def test_verify_gate_counts_an_injected_fail_line():
    stdout, text = _verify_run()
    stdout = stdout.replace("PASS order_law", "FAIL order_law")
    tally = _gate_verify(0, stdout, text)
    assert tally.failed == 1
    assert "FAIL line" in tally.problems[0]


def test_verify_gate_counts_every_status_that_differs():
    tally = _gate_verify(0, *_verify_run({"order_law": "fail", "rank_identity": "pass"}))
    assert tally.failed == 3  # the FAIL line, and both checks


def test_verify_gate_counts_a_corrupted_report():
    stdout, text = _verify_run()
    broken = text.replace('"skip"', '"skiq"')
    assert _gate_verify(0, stdout, broken).failed == 2  # stdout/JSON mismatch, and the check
    assert _gate_verify(0, stdout, text[:-2]).failed == 3  # unreadable: command and both checks
    assert _gate_verify(1, stdout, text).failed == 1  # exit status; the checks still match
    assert _gate_verify(None, "", None).failed == 3


def test_verify_gate_rejects_a_cap_other_than_requested():
    tally = _gate_verify(0, *_verify_run(caps=(2000, 3)))
    assert tally.failed == 1
    assert "caps used" in tally.problems[0]


# --- eggbox gate -----------------------------------------------------------

DOT = (
    'digraph eggbox {\n  subgraph cluster_0 {\n    label="codim 1: 6 elements";\n'
    '    h0_0_0 [label="6*"];\n  }\n  subgraph cluster_1 {\n'
    '    label="codim 0: 12 elements";\n    h1_0_0 [label="6**"];\n    h1_1_0 [label="6**"];\n'
    '  }\n}\n'
).encode()


def _eggbox_ref():
    return {"sha256": hashlib.sha256(DOT).hexdigest(), **gate.dot_summary(DOT.decode())}


def _gate_eggbox(rc, dot, seed):
    tally = gate.Tally()
    gate.gate_eggbox(tally, "x", rc, dot, _eggbox_ref(), seed)
    return tally


def test_dot_summary():
    assert gate.dot_summary(DOT.decode()) == {
        "cluster_labels": ["codim 1: 6 elements", "codim 0: 12 elements"],
        "starred_cells": 3,
        "double_starred_cells": 2,
    }


def test_eggbox_gate_counts_every_one_byte_corruption_at_seed_zero():
    assert _gate_eggbox(0, DOT, 0).failed == 0
    for pos in range(len(DOT)):
        corrupted = DOT[:pos] + bytes([DOT[pos] ^ 0x01]) + DOT[pos + 1 :]
        tally = _gate_eggbox(0, corrupted, 0)
        assert (tally.attempted, tally.failed) == (1, 1), pos


def test_eggbox_gate_compares_only_u_independent_parts_at_other_seeds():
    reordered = DOT.replace(b"h1_1_0", b"h1_0_1")
    assert _gate_eggbox(0, reordered, 3).failed == 0
    assert _gate_eggbox(0, DOT.replace(b"codim 0: 12", b"codim 0: 13"), 3).failed == 1
    assert _gate_eggbox(0, DOT.replace(b'"6*"', b'"6"'), 3).failed == 1
    assert _gate_eggbox(0, DOT.replace(b'"6**"', b'"6*"', 1), 3).failed == 1
    assert _gate_eggbox(2, DOT, 3).failed == 1
    assert _gate_eggbox(0, None, 3).failed == 1


# --- spans -----------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 4] > b [2, 3];  root > c [5, 6]
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 6.0]
    assert list(tracing.self_times(parent, start, end)) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_summarize_counts_calls_self_time_and_builds():
    names = ["cli.main", tracing.ENUMERATE, tracing.TABLE_BUILD, "gf_linalg.mat_mul"]
    # main > enumerate > mat_mul > (nothing); main > enumerate > table build;
    # main > enumerate (cache hit, no build)
    name_id = [0, 1, 3, 2, 1]
    parent = [-1, 0, 1, 1, 0]
    start = [0.0, 1.0, 1.0, 2.0, 6.0]
    end = [10.0, 5.0, 2.0, 4.0, 7.0]
    out = tracing.summarize(names, name_id, parent, start, end)
    assert out[tracing.ENUMERATE] == {"calls": 2, "self_s": pytest.approx(2.0), "builds": 1}
    assert out["cli.main"]["self_s"] == pytest.approx(5.0)


def test_tracer_records_nesting():
    tracer = tracing.Tracer()
    inner = tracer.wrap("m.inner", lambda x: x + 1)
    outer = tracer.wrap("m.outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    assert list(tracer.parent) == [-1, 0]
    assert [tracer.names[i] for i in tracer.name_id] == ["m.outer", "m.inner"]
    assert tracer.start[0] <= tracer.start[1] <= tracer.end[1] <= tracer.end[0]


def test_traced_child_run(tmp_path):
    cfg = tmp_path / "p2n2r1.cfg"
    cfg.write_text("p = 2\nn = 2\nr = 1\n")
    result, spans = tmp_path / "r.json", tmp_path / "s.npz"
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "child.py"), "command", str(result), str(spans),
         "verify", "--instance", str(cfg), "--out", str(tmp_path / "v.json")],
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(result.read_text())["rc"] == 0
    summary = tracing.load_summary(str(spans))
    assert summary[tracing.ROOT]["calls"] == 1
    assert summary[tracing.ENUMERATE]["calls"] >= 1
    assert summary[tracing.ENUMERATE]["builds"] == 2  # the instance and its isomorphism partner
    assert "gf_linalg.mat_mul" in summary


# --- BENCHMARK.json --------------------------------------------------------


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_names()
