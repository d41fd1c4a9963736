"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root):

    python3 benchmarks/spread.py --workload wide --seeds 1 2 3 4 5
    python3 benchmarks/spread.py --workload acceptance wide \\
        --seeds 1 2 3 4 5 6 7 8 9 10 --out benchmarks/BENCH_pipeline.json

Each run is one ``bench_pipeline.py`` invocation with ``run_seconds``
from BENCHMARK.json.  For every end-to-end metric it prints the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median next to the metric's bound.  A spread above a third
of its bound is flagged, except for ``setup_s``, which has no spread
limit.  ``--out`` writes every run's result plus the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def summarise(values: list[float], bound: float | None) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "bound": bound,
    }


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(BENCH_DIR / "bench_pipeline.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: benchmark exited with {proc.returncode}")
    machine = next((json.loads(l[len("machine "):]) for l in lines if l.startswith("machine ")), None)
    return {"seed": seed, "machine": machine, "log": lines[:-1], "result": json.loads(lines[-1])}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    doc = {"run_seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    steady = True
    for workload in args.workload:
        runs = []
        for seed in args.seeds:
            runs.append(run_once(workload, seed, spec["run_seconds"], args.trace))
            print(f"{workload} seed {seed}: done", file=sys.stderr, flush=True)
        summary = {}
        print(f"\n{workload}: {len(runs)} runs")
        for metric in metrics:
            name = metric["name"]
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            row = summarise(values, metric.get("bound"))
            summary[name] = row
            flag = ""
            spread = row["spread"]
            if "bound" in metric and name != "setup_s" and (spread is None or spread > metric["bound"] / 3):
                flag = "  <-- spread above a third of the bound"
                steady = False
            print(
                f"  {name:<28} median {row['median']:>12.6g}  q1 {row['q1']:>12.6g}  "
                f"q3 {row['q3']:>12.6g}  spread " + ("n/a" if spread is None else f"{spread:.4f}")
                + (f"  bound {metric['bound']}" if "bound" in metric else "")
                + flag
            )
        doc["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.out:
        args.out.write_text(json.dumps(doc, indent=2) + "\n", "utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
