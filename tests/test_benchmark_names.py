"""Every library name that the benchmark's workload and child scripts use,
and every attribute that its tracer wraps, still exists.

``benchmarks/test_bench.py`` runs outside this suite, so without this
check a name deleted from ``pricedir`` would show only as a failed
benchmark run, and a renamed traced attribute only as a layer that reads
0.  The scripts are read with ``ast``, not imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

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
