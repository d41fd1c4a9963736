"""Spans around the public pricedir functions that ``run_pipeline`` calls.

The library has no tracing of its own, so the traced run replaces module
attributes with timing wrappers.  ``run_pipeline`` looks each of them up
at call time (``mlp_mod.train``, ``ds_mod.dataset_csv_text``, the
pipeline module's globals), so every call is caught without touching
``src/``.  Spans stay in memory and are written out once the run ends.

A wrapped attribute that no longer exists is recorded as absent; its
layer is then reported as absent instead of failing the run.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import math
import time
from pathlib import Path

# (module, attribute, layer).  The layer names match the per-layer
# metric prefixes in BENCHMARK.json.
WRAPPED = [
    ("pricedir.pipeline", "load_membership_dir", "ingest"),
    ("pricedir.pipeline", "parse_company_panel", "ingest"),
    ("pricedir.pipeline", "build_company_dataset", "dataset"),
    ("pricedir.dataset", "dataset_csv_text", "dataset"),
    ("pricedir.logit", "fit_logit", "logit"),
    ("pricedir.logit", "select_features", "logit"),
    ("pricedir.mlp", "train", "mlp"),
    ("pricedir.mlp", "evaluate", "mlp"),
    ("pricedir.pipeline", "run_company", "pipeline"),
    ("pricedir.pipeline", "render_report", "pipeline"),
    ("pricedir.synth", "calibrate_signal_scale", "synth"),
]


def _membership_bytes(bound) -> dict:
    path = Path(bound.arguments["path"])
    return {"bytes": sum(f.stat().st_size for f in path.glob("*.csv"))}


def _panel_bytes(bound) -> dict:
    content = bound.arguments["content"]
    return {"bytes": len(content.encode("utf-8") if isinstance(content, str) else content)}


def _train_steps(bound) -> dict:
    args = bound.arguments
    n_rows = args["train_ds"].n_rows
    return {
        "steps": args["epochs"] * math.ceil(n_rows / args["batch_size"]),
        "width": args["model"].layer_sizes[0],
    }


# Counts read from the call's arguments.  Like the result counts below,
# they are taken after the span closes, so they cost the span nothing.
COUNT_ARGS = {
    "load_membership_dir": _membership_bytes,
    "parse_company_panel": _panel_bytes,
    "train": _train_steps,
}

# Counts read from the call's result.
COUNT_RESULT = {
    "build_company_dataset": lambda r: {
        "rows": r[0].n_rows, "dropped": len(r[1]["dropped_columns"])
    },
    "fit_logit": lambda r: {"iterations": r.iterations, "unconverged": int(not r.converged)},
    "select_features": lambda r: {"selected": len(r)},
    "run_company": lambda r: {"fallback": int(bool(r.get("fallback_used")))},
    "dataset_csv_text": lambda r: {"bytes": len(r)},
    "render_report": lambda r: {"bytes": len(r)},
}

# Which argument names the ticker, for spans that start a company.
TICKER_ARG = {"parse_company_panel": "ticker", "run_company": "ticker"}


class Tracer:
    """In-memory span recorder; spans nest by call order (one thread)."""

    def __init__(self):
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self._stack: list[dict] = []

    def install(self) -> "Tracer":
        """Wrap every listed attribute for the rest of this process."""
        for module_name, attr, layer in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(original, attr, layer))
        return self

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        """A span around a block of the caller's own code."""
        record = self._open(name, layer)
        try:
            yield record
        except BaseException:
            self._close(record, ok=False)
            raise
        self._close(record, ok=True)

    def _open(self, name: str, layer: str, ticker=None) -> dict:
        parent = self._stack[-1] if self._stack else None
        record = {
            "id": len(self.spans),
            "name": name,
            "layer": layer,
            "parent": parent["id"] if parent else None,
            "ticker": ticker if ticker is not None else (parent or {}).get("ticker"),
            "counts": {},
        }
        self.spans.append(record)
        self._stack.append(record)
        record["start"] = time.perf_counter()
        return record

    def _close(self, record: dict, ok: bool) -> None:
        record["end"] = time.perf_counter()
        record["ok"] = ok
        self._stack.pop()

    def _wrap(self, original, attr: str, layer: str):
        signature = inspect.signature(original)
        count_args = COUNT_ARGS.get(attr)
        count_result = COUNT_RESULT.get(attr)
        ticker_arg = TICKER_ARG.get(attr)

        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs) if (count_args or ticker_arg) else None
            ticker = bound.arguments.get(ticker_arg) if ticker_arg else None
            record = self._open(attr, layer, ticker)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                self._close(record, ok=False)
                raise
            self._close(record, ok=True)
            if count_args:
                record["counts"].update(count_args(bound))
            if count_result:
                record["counts"].update(count_result(result))
            return result

        return traced

    def write(self, path: Path) -> None:
        """One JSON object per line: the absent list first, then every span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"absent": self.absent}) + "\n")
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


def read_spans(path: Path) -> tuple[list[dict], list[str]]:
    lines = Path(path).read_text("utf-8").splitlines()
    absent = json.loads(lines[0])["absent"]
    return [json.loads(line) for line in lines[1:]], absent


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    own = {s["id"]: _duration(s) for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= _duration(s)
    return own


def absent_layers(absent: list[str]) -> set[str]:
    missing = set(absent)
    return {layer for module, attr, layer in WRAPPED if f"{module}.{attr}" in missing}


def pipeline_layer_metrics(spans: list[dict], bytes_written: int) -> dict[str, float]:
    """Per-layer numbers from one traced ``run_pipeline`` call.

    Expects exactly one root span named ``run_pipeline``.  Times are in
    seconds, counts are summed over companies.
    """
    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(name):
        return sum(_duration(s) for s in named(name))

    def count(name, key):
        return sum(s["counts"].get(key, 0) for s in named(name))

    (root,) = named("run_pipeline")
    pipeline_s = _duration(root)
    own = self_times(spans)
    train_s = total("train")
    steps = count("train", "steps")
    ingest_s = total("load_membership_dir") + total("parse_company_panel")
    bytes_read = count("load_membership_dir", "bytes") + count("parse_company_panel", "bytes")
    return {
        "trace.pipeline_s": pipeline_s,
        "mlp.train_s": train_s,
        "mlp.train_share": train_s / pipeline_s,
        "mlp.sgd_steps": steps,
        "mlp.us_per_step": train_s / steps * 1e6 if steps else 0.0,
        "mlp.eval_s": total("evaluate"),
        "mlp.distinct_widths": len({s["counts"]["width"] for s in named("train") if s["ok"]}),
        "ingest.membership_s": total("load_membership_dir"),
        "ingest.panel_parse_s": total("parse_company_panel"),
        "ingest.bytes_read": bytes_read,
        "ingest.parse_mb_per_s": bytes_read / 1e6 / ingest_s if ingest_s else 0.0,
        "dataset.build_s": total("build_company_dataset"),
        "dataset.csv_write_s": total("dataset_csv_text"),
        "dataset.rows": count("build_company_dataset", "rows"),
        "dataset.columns_dropped": count("build_company_dataset", "dropped"),
        "logit.fit_s": total("fit_logit"),
        "logit.iterations": count("fit_logit", "iterations"),
        "logit.unconverged": count("fit_logit", "unconverged"),
        "logit.selected": count("select_features", "selected"),
        "logit.fallbacks": count("run_company", "fallback"),
        "pipeline.run_company_self_s": sum(own[s["id"]] for s in named("run_company")),
        "pipeline.report_s": total("render_report"),
        "pipeline.bytes_written": bytes_written,
        "pipeline.unattributed_s": own[root["id"]],
    }


def setup_layer_metrics(spans: list[dict], bytes_written: int) -> dict[str, float]:
    """Per-layer numbers from one traced input generation (root ``setup``)."""
    (root,) = [s for s in spans if s["name"] == "setup"]
    calibrate_s = sum(_duration(s) for s in spans if s["name"] == "calibrate_signal_scale")
    return {
        "synth.calibrate_s": calibrate_s,
        "synth.write_s": _duration(root) - calibrate_s,
        "synth.bytes_written": bytes_written,
    }
