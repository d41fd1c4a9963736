"""Self-test of the benchmark at tiny sizes.

Run from the repository root:

    python3 -m pytest -q benchmarks/test_bench.py

It checks that every printed metric matches BENCHMARK.json, and that the
correctness gate fails on a tampered report.json and on outcomes that
differ from the workload's plan.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import bench_pipeline as bench  # noqa: E402

bench.import_pricedir()

import tracing  # noqa: E402
from workloads import SHORT_TICKER, WORKLOADS, build_inputs  # noqa: E402

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text("utf-8"))

TINY = {
    "acceptance": dataclasses.replace(WORKLOADS["acceptance"], companies=6, weeks=1000, epochs=100),
    "wide": dataclasses.replace(WORKLOADS["wide"], companies=4, weeks=300, epochs=1),
}


def run_main(capsys, workload: str, trace: int = 0, workloads=None):
    code = bench.main(
        ["--workload", workload, "--seed", "7", "--seconds", "0.1", "--trace", str(trace)],
        workloads=workloads or TINY,
    )
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["command"] == ["python3", "benchmarks/bench_pipeline.py"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_printed_metrics_match_benchmark_json(capsys, workload, trace):
    code, result = run_main(capsys, workload, trace)
    assert code == 0
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= TINY[workload].attempted * bench.MIN_RUNS
    section = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in section}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}


def test_unplanned_outcome_fails_the_gate(capsys):
    # plan says C001 fails, but every acceptance company succeeds
    wrong_plan = dict(TINY, acceptance=dataclasses.replace(
        TINY["acceptance"], planted_failures=("C001",)
    ))
    code, result = run_main(capsys, "acceptance", workloads=wrong_plan)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_missing_planted_failure_fails_the_gate(capsys):
    # UNCOVERED still fails, but the plan now expects only SHORT to
    wrong_plan = dict(TINY, wide=dataclasses.replace(
        TINY["wide"], planted_failures=(SHORT_TICKER,)
    ))
    code, result = run_main(capsys, "wide", workloads=wrong_plan)
    assert code == 1
    assert result["correct"] is False


def test_tampered_report_fails_the_gate(tmp_path):
    wl = TINY["wide"]
    build_inputs(wl, 7, tmp_path / "fixture")
    digests = [bench.tree_digest(tmp_path / "fixture")]
    runs = [bench.run_pipeline_once(tmp_path, wl), bench.run_pipeline_once(tmp_path, wl)]
    quality = bench.company_quality(tmp_path)
    assert bench.gate_problems(wl, runs, digests, quality) == []

    report = tmp_path / "first_out" / "report.json"
    report.write_text(report.read_text("utf-8").replace('"n_ok": 4', '"n_ok": 5'), "utf-8")
    runs[0]["report_sha256"] = bench.file_digest(report)
    problems = bench.gate_problems(wl, runs, digests, quality)
    assert any("report.json differs" in p for p in problems)


def test_changed_inputs_fail_the_gate():
    problems = bench.gate_problems(TINY["wide"], [], ["a", "b"], [])
    assert problems == ["the same seed generated different inputs"]


def test_missing_wrapped_function_is_reported_absent(monkeypatch):
    monkeypatch.setattr(
        tracing, "WRAPPED", [("pricedir.mlp", "no_such_function", "mlp")]
    )
    tracer = tracing.Tracer().install()
    assert tracer.absent == ["pricedir.mlp.no_such_function"]
    assert tracing.absent_layers(tracer.absent) == {"mlp"}
    with tracer.span("run_pipeline", "pipeline"):
        pass
    metrics = tracing.pipeline_layer_metrics(tracer.spans, 0)
    assert metrics["mlp.train_s"] == 0 and metrics["mlp.sgd_steps"] == 0


def test_self_time_subtracts_children():
    spans = [
        {"id": 0, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "parent": 1, "start": 2.0, "end": 3.0},
        {"id": 3, "parent": 0, "start": 5.0, "end": 6.0},
    ]
    assert tracing.self_times(spans) == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "wide", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
