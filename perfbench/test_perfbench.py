"""Tests of the benchmark itself (not of oscimax).

    python3 -m pytest -q perfbench

They run small ops in child interpreters, so they leave the library
untouched in this process.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layertrace
import run

SMALL_OPS = [
    {"id": "sweep-2d", "kind": "cli", "seeded": True,
     "argv": ["maximal-sweep", "--dimension", "2", "--n-modes", "32", "--band-limit", "8", "--time-count", "4"]},
    {"id": "sd-default", "kind": "cli", "argv": ["symbol-decay", "--tau-lo", "0.02", "--n-samples", "5"]},
    {"id": "kernel", "kind": "cli", "argv": ["kernel-decay", "--m-cap", "2000", "--n-samples", "6"]},
    {"id": "riesz-k05", "kind": "cli", "argv": ["rate-riesz", "--k", "0.5", "--n-modes", "64"]},
    {"id": "atoms", "kind": "cli", "seeded": True, "argv": ["atom-uniformity", "--n-modes", "256", "--atom-count", "3"]},
    {"id": "envelope-k1", "kind": "call", "call": "operators.riesz_symbol_decay_check",
     "args": [1.0, 0.5, 100.0, 1000.0, 5, 8]},
]


def _child(op, tmp_path: Path, traced: bool, tag: str) -> dict:
    out = tmp_path / f"{op['id']}-{tag}"
    result = run.run_op(op, 3, out, traced, deadline=1e18)
    assert "error" not in result, result.get("error")
    return result


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("children")
    return {
        op["id"]: [_child(op, tmp, traced, f"{traced}-{i}") for i, traced in enumerate((False, True, True))]
        for op in SMALL_OPS
    }


def test_self_time_is_duration_minus_direct_children():
    names = ["cli.main", "operators.f", "symbols.g"]
    spans = [
        [0, 0.0, 10.0, -1],
        [1, 1.0, 5.0, 0],
        [2, 2.0, 3.0, 1],
        [2, 6.0, 8.0, 0],
    ]
    self_s, incl_s, calls = layertrace.self_times(names, spans)
    assert self_s == {"cli.main": 4.0, "operators.f": 3.0, "symbols.g": 3.0}
    assert incl_s == {"cli.main": 10.0, "operators.f": 4.0, "symbols.g": 3.0}
    assert calls == {"cli.main": 1, "operators.f": 1, "symbols.g": 2}


def test_work_counts_repeat_exactly_between_traced_runs(traced_runs):
    for op_id, (_, first, second) in traced_runs.items():
        a, b = first["trace"], second["trace"]
        assert a["counts"] == b["counts"], op_id
        calls_a = layertrace.self_times(a["names"], a["spans"])[2]
        calls_b = layertrace.self_times(b["names"], b["spans"])[2]
        assert calls_a == calls_b, op_id


def test_tracing_changes_no_report(traced_runs):
    for op_id, (plain, first, second) in traced_runs.items():
        assert plain["report"] == first["report"] == second["report"], op_id


def test_every_layer_and_alias_is_traced(traced_runs):
    trace = traced_runs["sweep-2d"][1]["trace"]
    names = set(trace["names"])
    assert {layertrace.layer_of(n) for n in names} == set(layertrace.LAYERS)
    assert "torus.LatticeGrid.eigenvalue_array" in names
    assert "cli.run.maximal-sweep" in names
    self_s, _, calls = layertrace.self_times(trace["names"], trace["spans"])
    # cli imports maximal_over_times and oscillating_op by name; the calls
    # must still reach the operators layer
    assert calls["operators.maximal_over_times"] == 2
    assert calls["operators.oscillating_op"] == 4 + 7
    assert calls["cli.main"] == 1
    counts = trace["counts"]
    assert counts["symbols.mu_symbol"]["elements"] == 11 * 32 * 32
    assert counts["torus.inverse_transform"]["points"] == 11 * 32 * 32


def test_call_level_distinct_fraction(traced_runs):
    counts = traced_runs["kernel"][1]["trace"]["counts"]["operators.kernel_lattice_sum"]
    # two fits (M_cap and 2*M_cap) plus the CSV recomputing the first
    assert counts["distinct_calls"] == 12
    assert counts["terms"] == 6 * 2000 * 2 + 6 * 4000


def test_per_layer_metrics_cover_benchmark_json(traced_runs):
    bench, workloads = run.load_specs()
    results = [runs for runs in traced_runs.values()]
    fake_run = {
        "passes": [
            {"traced": False, "results": [r[0] for r in results]},
            {"traced": True, "results": [r[1] for r in results]},
        ]
    }
    values = run.per_layer(fake_run, run._all_op_ids(workloads))
    metrics = run.select(bench["per_layer"], values)
    assert metrics["trace.coverage"]["value"] == pytest.approx(1.0, abs=0.05)
    assert metrics["cli.self_share"]["value"] > 0.0


def _op(expect, headline):
    return {"id": "x", "expect": expect, "headline": headline}


def _result(exit_code, passed, slope, report="r"):
    return {"op": "x", "exit": exit_code, "summary": {"pass": passed, "fitted": {"slope": slope}}, "report": report}


def test_check_op_flags_verdict_headline_and_determinism():
    op = _op({"exit": 1, "pass": False}, [{"path": "fitted.slope", "ref": -1.0, "abs": 0.1}])
    assert run.check_op(op, _result(1, False, -1.05), "r", True) == []
    assert run.check_op(op, _result(0, True, -1.05), "r", True)
    assert run.check_op(op, _result(1, False, -1.2), "r", True)
    assert run.check_op(op, _result(1, False, -1.2), "r", False) == []
    assert run.check_op(op, _result(1, False, -1.0, report="other"), "r", False)
    assert run.check_op(op, {"op": "x", "error": "timed out"}, None, False)


def test_every_headline_has_a_reference_and_one_tolerance():
    _, workloads = run.load_specs()
    for spec in workloads["workloads"].values():
        for op in spec["ops"]:
            assert op["headline"], op["id"]
            for item in op["headline"]:
                assert isinstance(item["ref"], float), op["id"]
                assert ("abs" in item) != ("rel" in item), op["id"]


def test_fails_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "decay-quadrature", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)


def test_end_to_end_times_scale_by_the_calibration():
    child = {"op": "x", "op_s": 2.0, "setup_s": 0.5, "calib_s": 0.2, "maxrss_kb": 2048}
    fake_run = {"passes": [{"traced": False, "results": [dict(child), dict(child, op_s=3.0)]}]}
    metrics, raw = run.end_to_end(fake_run, reference_calib_s=0.1)
    assert raw == {"batch_s": 5.0, "setup_s": 0.5, "calib_s": 0.2}
    assert metrics == {"batch_s": 2.5, "setup_s": 0.25, "peak_rss_mb": 2.0}
