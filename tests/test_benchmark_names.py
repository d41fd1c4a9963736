"""Every library name that the benchmark's workload and child scripts use,
and every attribute that its tracer wraps, still exists, and the
benchmark's harness still reads the files a pipeline run writes.

``benchmarks/test_bench.py`` runs outside this suite, so without this
check a name deleted from ``pricedir`` would show only as a failed
benchmark run, and a renamed traced attribute only as a layer that reads
0.  The scripts are read with ``ast``, not imported; only
``bench_pipeline.py``, whose top level imports the standard library
alone, is loaded by path to read a run.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from pricedir.config import PipelineConfig
from pricedir.pipeline import run_pipeline
from pricedir.synth import default_planted, write_fixture

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def pricedir_names(source: str) -> set[tuple[str, str]]:
    """(module, name) for every ``from pricedir... import name`` in
    ``source``, and for every ``module.name`` read through a module so
    imported (``from pricedir import synth``, then ``synth.name``)."""
    tree = ast.parse(source)
    names, modules = set(), {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom)
                and (node.module or "").partition(".")[0] == "pricedir"):
            for alias in node.names:
                names.add((node.module, alias.name))
                if node.module == "pricedir":
                    modules[alias.asname or alias.name] = f"pricedir.{alias.name}"
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            names.add((modules[node.value.id], node.attr))
    return names


@pytest.mark.parametrize("script", ["workloads.py", "child.py"])
def test_benchmark_uses_only_existing_names(script):
    names = pricedir_names((BENCHMARKS / script).read_text())
    assert names  # the script does import the library
    missing = sorted(
        f"{module}.{name}" for module, name in names
        if not hasattr(importlib.import_module(module), name)
    )
    assert not missing


# Traced attributes that the library no longer has: ``mlp.train`` went when
# every network trained in a stack, ``pipeline.run_company`` when the
# workers began to prepare, train and finish companies in stages.
KNOWN_ABSENT = {"pricedir.mlp.train", "pricedir.pipeline.run_company"}


def test_tracer_wraps_only_existing_attributes():
    tree = ast.parse((BENCHMARKS / "tracing.py").read_text())
    (table,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["WRAPPED"]]
    wrapped = ast.literal_eval(table)
    assert wrapped  # the tracer does wrap the library
    missing = {
        f"{module}.{name}" for module, name, _ in wrapped
        if not hasattr(importlib.import_module(module), name)
    }
    assert not missing - KNOWN_ABSENT


def test_benchmark_reads_what_a_run_writes(tmp_path):
    """``bench_pipeline.company_quality`` reads a run laid out as the
    benchmark lays it out: the fixture, with its ``truth/``, under
    ``fixture`` and the pipeline's outputs under ``first_out``.  It reads
    ``report.json`` (``status``, ``n_test``, ``eval.accuracy``) and each
    ``datasets/<ticker>.csv``'s ``date`` column, so a change to what the
    pipeline writes that the benchmark cannot read fails here."""
    spec = importlib.util.spec_from_file_location(
        "bench_pipeline", BENCHMARKS / "bench_pipeline.py"
    )
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)

    fixture = tmp_path / "fixture"
    write_fixture(fixture, n_companies=3, n_weeks=160, switch_prob=0.05, missing_prob=0.05,
                  seed=101, planted=default_planted(), signal_scale=2.0)
    (fixture / "panels" / "C002.csv").write_text("date,price\n")  # a company that fails
    cfg = PipelineConfig()
    cfg.paths.membership_dir = str(fixture / "membership")
    cfg.paths.panels_dir = str(fixture / "panels")
    cfg.paths.output_dir = str(tmp_path / "first_out")
    cfg.mlp.epochs = 2
    report = run_pipeline(cfg)

    quality = bench.company_quality(tmp_path)
    ok = [c for c in report["companies"] if c["status"] == "ok"]
    assert [q["ticker"] for q in quality] == [c["ticker"] for c in ok] == ["C000", "C001"]
    for row, company in zip(quality, ok):
        assert row["accuracy"] == company["eval"]["accuracy"]
        assert 0.0 <= row["bayes"] <= 1.0
