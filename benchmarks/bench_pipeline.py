"""End-to-end benchmark of ``pricedir.pipeline.run_pipeline``.

Usage (from the repository root):

    python3 benchmarks/bench_pipeline.py --workload acceptance --seed 42 \\
        --seconds 50 --trace 0

One invocation generates the workload's inputs from the seed (several
times, to time set-up), then runs the pipeline in a fresh child process
per run, one run at a time, until ``--seconds`` is used up.  With
``--trace 1`` it also makes one traced run and reports per-layer numbers
instead of the end-to-end ones.  It checks every run against the
workload's plan and exits 1 when that correctness gate fails.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  An operation is one company
in one pipeline run; it fails when its outcome differs from the plan
(a good company that fails, or a planted bad panel that does not).
Everything is written under ``.bench_work/`` in the repository root.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"

DEFAULT_SEED = 42
DEFAULT_SECONDS = 50.0
SETUP_REPEATS = 5
# At least three runs: the byte-identical report check needs two.  A full
# invocation makes 11 to 35.
MIN_RUNS = 3
# The run time reported: this percentile of the untraced runs.  On a
# shared host the speed of identical runs swings by up to 2.8x as
# neighbours come and go, and the median of a 50 s invocation lands
# wherever the mix of fast and slow minutes puts it.  The 90th percentile
# sits on the slow level, which nearly every invocation reaches, so it
# moves least from one invocation to the next (README.md, "Noise").
RUN_PERCENTILE = 90
CHILD_TIMEOUT_S = 150
# The acceptance suite's band: accuracy in [0.65, bayes_test + 0.02]
# for at least 8 of every 10 companies.
BAND_FLOOR = 0.65
BAND_SLACK = 0.02
BAND_MIN_SHARE = 0.8

END_TO_END_UNITS = {
    "pipeline_p90_s": "s",
    "companies_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "mean_accuracy": "ratio",
    "bayes_error_ratio": "ratio",
}

PER_LAYER_UNITS = {
    "trace.pipeline_s": "s",
    "trace.overhead_s": "s",
    "mlp.train_s": "s",
    "mlp.train_share": "ratio",
    "mlp.sgd_steps": "count",
    "mlp.us_per_step": "us",
    "mlp.eval_s": "s",
    "mlp.distinct_widths": "count",
    "ingest.membership_s": "s",
    "ingest.panel_parse_s": "s",
    "ingest.bytes_read": "bytes",
    "ingest.parse_mb_per_s": "MB/s",
    "dataset.build_s": "s",
    "dataset.csv_write_s": "s",
    "dataset.rows": "count",
    "dataset.columns_dropped": "count",
    "logit.fit_s": "s",
    "logit.iterations": "count",
    "logit.unconverged": "count",
    "logit.selected": "count",
    "logit.fallbacks": "count",
    "pipeline.run_company_self_s": "s",
    "pipeline.report_s": "s",
    "pipeline.bytes_written": "bytes",
    "pipeline.unattributed_s": "s",
    "synth.calibrate_s": "s",
    "synth.write_s": "s",
    "synth.bytes_written": "bytes",
}


class SetupError(Exception):
    """The checkout has no pricedir source tree to benchmark."""


def import_pricedir() -> None:
    """Import pricedir from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "pricedir" / "__init__.py").is_file():
        raise SetupError(f"no pricedir package under {SRC}")
    sys.path.insert(0, str(SRC))
    import pricedir

    if Path(pricedir.__file__).resolve().parent != (SRC / "pricedir").resolve():
        raise SetupError(f"pricedir imported from {pricedir.__file__}, not {SRC}")


def machine_record() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "num_threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "platform": platform.platform(),
    }


def tree_digest(path: Path) -> str:
    digest = hashlib.sha256()
    for file in sorted(p for p in path.rglob("*") if p.is_file()):
        digest.update(str(file.relative_to(path)).encode() + b"\0")
        digest.update(file.read_bytes())
    return digest.hexdigest()


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_config(wl) -> dict:
    """Relative paths: the child runs with the run directory as cwd."""
    cfg = {"paths": {
        "membership_dir": "fixture/membership",
        "panels_dir": "fixture/panels",
        "output_dir": "out",
    }}
    cfg.update(wl.config_overrides())
    return cfg


def spawn(spec: dict, cwd: Path) -> dict:
    """Run child.py with ``spec`` in a fresh process; its record or an error."""
    spec = {"src": str(SRC), "trace_out": None, **spec}
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "child.py"), json.dumps(spec)],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"child killed after {CHILD_TIMEOUT_S} s"}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        return {"error": f"child exited with {proc.returncode}: {tail[0]}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_setup(wl, seed: int, out: Path, trace_out: Path | None = None) -> dict:
    """Generate the workload's inputs under ``out`` in a fresh process."""
    setup = {"workload": dataclasses.asdict(wl), "seed": seed, "out": str(out)}
    return spawn({"setup": setup, "trace_out": str(trace_out) if trace_out else None}, out.parent)


def run_pipeline_once(run_dir: Path, wl, trace_out: Path | None = None) -> dict:
    """One ``run_pipeline`` call in a fresh process; returns its record.

    Adds ``report_sha256`` and the written byte count, then removes the
    output unless it is the first run's (kept as ``first_out``).
    """
    out = run_dir / "out"
    shutil.rmtree(out, ignore_errors=True)
    spec = {"config": run_config(wl), "trace_out": str(trace_out) if trace_out else None}
    record = spawn(spec, run_dir)
    if "error" in record:
        return record
    record["pipeline_s"] = record.pop("wall_s")
    record["report_sha256"] = file_digest(out / "report.json")
    record["bytes_written"] = tree_bytes(out)
    first = run_dir / "first_out"
    if first.exists():
        shutil.rmtree(out)
    else:
        out.rename(first)
    return record


def company_quality(run_dir: Path) -> list[dict]:
    """Accuracy and test-window Bayes accuracy for every ok company.

    The test window is the last ``n_test`` rows of the dataset CSV the
    pipeline wrote; the Bayes calls come from the fixture's ``truth/``.
    """
    out = run_dir / "first_out"
    report = json.loads((out / "report.json").read_text("utf-8"))
    rows = []
    for company in report["companies"]:
        if company["status"] != "ok":
            continue
        ticker = company["ticker"]
        with open(run_dir / "fixture" / "truth" / f"{ticker}.csv", newline="") as fh:
            truth = {r["date"]: r["true_label"] == r["bayes_pred"] for r in csv.DictReader(fh)}
        with open(out / "datasets" / f"{ticker}.csv", newline="") as fh:
            test_dates = [r["date"] for r in csv.DictReader(fh)][-company["n_test"]:]
        rows.append({
            "ticker": ticker,
            "accuracy": company["eval"]["accuracy"],
            "bayes": sum(truth[d] for d in test_dates) / len(test_dates),
        })
    return rows


def band_count(quality: list[dict]) -> int:
    return sum(BAND_FLOOR <= q["accuracy"] <= q["bayes"] + BAND_SLACK for q in quality)


def deviations(wl, status: dict) -> list[str]:
    """Tickers whose outcome differs from the workload's plan."""
    planted = set(wl.planted_failures)
    wrong = [t for t, s in status.items() if (s == "failed") != (t in planted)]
    missing = planted - set(status)
    n_good = len(status) - len(planted & set(status))
    if n_good != wl.planned_ok:
        wrong.append(f"<{n_good} good companies, planned {wl.planned_ok}>")
    return sorted(wrong) + sorted(missing)


def gate_problems(wl, runs: list[dict], input_digests: list[str], quality: list[dict]) -> list[str]:
    """Every way the invocation broke the correctness gate (empty: passed)."""
    problems = []
    if len(set(input_digests)) != 1:
        problems.append("the same seed generated different inputs")
    for i, run in enumerate(runs):
        if "error" in run:
            problems.append(f"run {i}: {run['error']}")
            continue
        wrong = deviations(wl, run["status"])
        if wrong:
            problems.append(f"run {i}: outcome differs from plan for {wrong}")
    digests = {run["report_sha256"] for run in runs if "error" not in run}
    if len(digests) > 1:
        problems.append(f"report.json differs between runs ({len(digests)} distinct sha256)")
    if wl.band_gate:
        need = math.ceil(BAND_MIN_SHARE * wl.planned_ok)
        inside = band_count(quality)
        if inside < need:
            problems.append(f"only {inside} companies inside the accuracy band, need {need}")
    return problems


def percentile(samples: list[float], pct: int) -> float:
    """The ``pct`` percentile, interpolated between samples, never beyond them."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def end_to_end_metrics(wl, runs, setup_times, quality) -> dict:
    pipeline_s = percentile([r["pipeline_s"] for r in runs], RUN_PERCENTILE)
    first = runs[0]["status"]
    n_ok = sum(s == "ok" for s in first.values())
    accuracy = statistics.fmean(q["accuracy"] for q in quality)
    bayes = statistics.fmean(q["bayes"] for q in quality)
    return {
        "pipeline_p90_s": pipeline_s,
        "companies_per_s": len(first) / pipeline_s,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "ok_frac": n_ok / len(first),
        "mean_accuracy": accuracy,
        "bayes_error_ratio": (1.0 - accuracy) / (1.0 - bayes),
    }


def run_workload(wl, seed: int, seconds: float, trace: bool, work: Path) -> tuple[dict, list[str]]:
    """Set up, measure and check one workload; returns (result, report lines)."""
    import tracing

    lines = [f"machine {json.dumps(machine_record())}"]
    run_dir = work / "run"
    run_dir.mkdir()
    setups, input_digests = [], []
    for i in range(SETUP_REPEATS):
        target = run_dir / "fixture" if i == 0 else work / f"setup{i}"
        setups.append(run_setup(wl, seed, target))
        if "error" in setups[-1]:
            break
        input_digests.append(tree_digest(target))
        if i:
            shutil.rmtree(target)

    runs, wall = [], []
    loop_started = time.perf_counter()
    while "error" not in setups[-1]:
        started = time.perf_counter()
        runs.append(run_pipeline_once(run_dir, wl))
        wall.append(time.perf_counter() - started)
        if "error" in runs[-1]:
            break
        elapsed = time.perf_counter() - loop_started
        if len(runs) >= MIN_RUNS and elapsed + statistics.median(wall) > seconds:
            break
    loop_s = time.perf_counter() - loop_started
    untraced = list(runs)

    if trace and runs and "error" not in runs[-1]:
        pipeline_spans = WORK_DIR / f"trace-{wl.name}-seed{seed}-pipeline.jsonl"
        setup_spans = WORK_DIR / f"trace-{wl.name}-seed{seed}-setup.jsonl"
        runs.append(run_pipeline_once(run_dir, wl, trace_out=pipeline_spans))
        setups.append(run_setup(wl, seed, work / "traced_setup", trace_out=setup_spans))

    quality = company_quality(run_dir) if (run_dir / "first_out").exists() else []
    problems = [f"setup: {s['error']}" for s in setups if "error" in s]
    problems += gate_problems(wl, runs, input_digests, quality)
    result = {
        "correct": not problems,
        "attempted": sum(len(r.get("status", ())) or wl.attempted for r in runs),
        "failed": sum(len(deviations(wl, r["status"])) if "status" in r else wl.attempted for r in runs),
        "metrics": {},
    }
    if problems:
        lines.extend(f"GATE FAILED: {problem}" for problem in problems)
        return result, lines

    samples = [r["pipeline_s"] for r in untraced]
    lines.append(
        f"{wl.name} seed {seed}: {len(samples)} untraced runs in {loop_s:.1f} s; "
        f"pipeline_s median {statistics.median(samples):.3f}, "
        f"p{RUN_PERCENTILE} {percentile(samples, RUN_PERCENTILE):.3f}, max {max(samples):.3f}; samples "
        + " ".join(f"{s:.3f}" for s in samples)
        + "; cpu_s " + " ".join(f"{r['cpu_s']:.3f}" for r in untraced)
        + "; setup_s " + " ".join(f"{s['wall_s']:.3f}" for s in setups[:SETUP_REPEATS])
    )
    gaps = [q["bayes"] - q["accuracy"] for q in quality]
    lines.append(
        f"quality: bayes_gap {statistics.fmean(gaps):.4f} (mean over {len(gaps)} ok companies), "
        f"{band_count(quality)}/{len(quality)} inside the acceptance band, "
        f"report sha256 {runs[0]['report_sha256']}"
    )
    if trace:
        spans, absent = tracing.read_spans(pipeline_spans)
        metrics = tracing.pipeline_layer_metrics(spans, runs[-1]["bytes_written"])
        metrics["trace.overhead_s"] = runs[-1]["pipeline_s"] - statistics.median(
            r["pipeline_s"] for r in untraced
        )
        metrics.update(tracing.setup_layer_metrics(
            tracing.read_spans(setup_spans)[0], tree_bytes(work / "traced_setup")
        ))
        for layer in sorted(tracing.absent_layers(absent)):
            lines.append(f"layer {layer}: absent (missing: {absent})")
        lines.append(f"spans written to {pipeline_spans.relative_to(ROOT)} and {setup_spans.name}")
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end_metrics(wl, untraced, [s["wall_s"] for s in setups], quality)
        units = END_TO_END_UNITS
    result["metrics"] = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    lines.extend(f"{name:<30} {metrics[name]:>14.6g} {unit}" for name, unit in units.items())
    return result, lines


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None, workloads=None) -> int:
    """Run one workload; ``workloads`` replaces the built-in set (self-test)."""
    try:
        import_pricedir()
    except SetupError as exc:
        print(f"bench_pipeline: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workloads = workloads or WORKLOADS
    args = parse_args(argv, workloads)
    # SIGTERM as an exception: subprocess.run then kills the running
    # child, and the finally below removes the scratch directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        result, lines = run_workload(
            workloads[args.workload], args.seed, args.seconds, bool(args.trace), work
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
