"""End-to-end batch orchestration, per-company fail-soft, and reporting.

For every company panel: ingest, dataset build, logistic fit on all
features, significance selection, network training on the selected
features only, held-out evaluation.  Each stage is one public function
(``build_from_file``, ``fit_and_select``, ``split_features``,
``company_seeds``, ``model_document``) that the step-by-step
subcommands call too.  A run has two phases, each on one forked worker
process per CPU: prepare every company, then train each stack of
companies with the same training-row count and evaluate them.  The
worker that trains a company also writes its model; the calling
process writes only the report.  One bad company never aborts the
batch; it becomes a failure entry in the report.  Output is fully
deterministic for a fixed config and inputs, whatever the worker count
(company order is stabilized by ticker, seeds are derived per company,
no timestamps).
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import multiprocessing
import os
import re
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from datetime import date
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import cohort as cohort_mod
from . import dataset as ds_mod
from . import logit as logit_mod
from . import mlp as mlp_mod
from .config import TARGET_DIRECTION, LogitConfig, MlpConfig, PipelineConfig
from .errors import (
    ConfigError,
    DataError,
    PipelineError,
    PricedirError,
    TrainingDivergedError,
    ValidationError,
)
from .ingest import (
    CompanyPanel,
    MembershipSnapshot,
    parse_company_panel,
    parse_membership_file,
)
from .synth import derive_seed

MEMBERSHIP_FILE_RE = re.compile(r"^constituents_(\d{4}-\d{2}-\d{2})\.csv$")

# Default strong-feature set used when significance selection comes back
# empty; a network with zero inputs is meaningless.
CANONICAL_FALLBACK_FEATURES = [
    ds_mod.MEMBERSHIP_COLUMN,
    "total_return" + ds_mod.LAG_SUFFIX,
    "sentiment",
    "trades",
]


def _read_input(path: Path) -> bytes:
    """The bytes of an input file; one that cannot be read (a directory
    in its place, say) is a DataError that names it."""
    try:
        return path.read_bytes()
    except OSError as exc:
        raise DataError(f"{path}: cannot read ({exc.strerror or exc})") from exc


def load_membership_dir(path: str | Path) -> list[MembershipSnapshot]:
    """Parse every ``constituents_<requested-date>.csv`` in a directory."""
    path = Path(path)
    if not path.is_dir():
        raise ConfigError(f"membership directory not found: {path}")
    snapshots = []
    # names sorted as strings: in one directory, the order Path sorting gives
    for name in sorted(name for name in os.listdir(path) if name.endswith(".csv")):
        file = path / name
        match = MEMBERSHIP_FILE_RE.match(name)
        if not match:
            raise DataError(
                f"{file}: membership files must be named constituents_YYYY-MM-DD.csv"
            )
        requested = date.fromisoformat(match.group(1))
        snapshots.append(
            parse_membership_file(_read_input(file), requested, source=str(file))
        )
    if not snapshots:
        raise DataError(f"no membership files in {path}")
    return snapshots


def discover_panels(path: str | Path, tickers=None) -> dict[str, Path]:
    """Map ticker -> panel file for every ``<ticker>.csv`` in a directory."""
    path = Path(path)
    if not path.is_dir():
        raise ConfigError(f"panels directory not found: {path}")
    found = {file.stem: file for file in sorted(path.glob("*.csv"))}
    if tickers is not None:
        missing = [t for t in tickers if t not in found]
        if missing:
            raise DataError(f"no panel file for tickers {missing} in {path}")
        found = {t: found[t] for t in sorted(tickers)}
    if not found:
        raise DataError(f"no panel files in {path}")
    return found


def build_company_dataset(
    panel: CompanyPanel,
    snapshots: list[MembershipSnapshot],
    cfg: PipelineConfig,
) -> tuple[ds_mod.LabeledDataset, dict]:
    """Run the full dataset chain for one company.

    Order: membership indicator, lag columns, labels, sparse-column drop,
    timespan trim, then normalize/impute/assemble.  The raw price column
    is the label source and is never handed to the models; in membership
    target mode the indicator becomes the label and is likewise excluded
    from the features.
    """
    dcfg = cfg.dataset
    panel = ds_mod.attach_membership_indicator(panel, snapshots)
    panel = ds_mod.attach_lagged_features(panel, dcfg.lag_features)

    if cfg.target_mode == TARGET_DIRECTION:
        labels = ds_mod.attach_direction_label(panel, dcfg.price_column)
        exclude = {dcfg.price_column}
    else:
        labels = panel.column(ds_mod.MEMBERSHIP_COLUMN)
        exclude = {dcfg.price_column, ds_mod.MEMBERSHIP_COLUMN}

    feature_panel = panel.without_columns(
        [c for c in panel.feature_names if c in exclude]
    )
    feature_panel, dropped = ds_mod.drop_sparse_columns(
        feature_panel, dcfg.max_missing_fraction
    )
    if not feature_panel.feature_names:
        raise DataError(f"panel {panel.ticker}: every feature column was dropped")

    required = list(feature_panel.feature_names)
    trim_input = feature_panel
    if cfg.target_mode == TARGET_DIRECTION:
        trim_input = feature_panel.with_columns(
            {dcfg.price_column: panel.column(dcfg.price_column)}
        )
        required.append(dcfg.price_column)
    trimmed = ds_mod.trim_timespan(trim_input, required)

    start = panel.dates.index(trimmed.dates[0])
    stop = start + trimmed.n_rows
    dataset = ds_mod.assemble_dataset(
        trimmed, labels[start:stop], feature_panel.feature_names
    )
    info = {
        "dropped_columns": dropped,
        "timespan": [trimmed.dates[0].isoformat(), trimmed.dates[-1].isoformat()],
        "n_rows": dataset.n_rows,
    }
    return dataset, info


def build_from_file(
    ticker: str, path: Path, snapshots: list[MembershipSnapshot], cfg: PipelineConfig
) -> tuple[ds_mod.LabeledDataset, dict]:
    """Parse one company's panel file and build its dataset: ``(dataset, info)``."""
    panel = parse_company_panel(_read_input(path), ticker, source=str(path))
    return build_company_dataset(panel, snapshots, cfg)


def fit_and_select(
    dataset: ds_mod.LabeledDataset, logit_cfg: LogitConfig
) -> tuple[logit_mod.LogitFit, list[str]]:
    """Fit the logit on every feature and keep those with p < alpha."""
    fit = logit_mod.fit_logit(
        dataset.X,
        dataset.y,
        max_iter=logit_cfg.max_iter,
        tol=logit_cfg.tol,
        feature_names=dataset.feature_names,
    )
    return fit, logit_mod.select_features(fit, logit_cfg.alpha)


def split_features(
    dataset: ds_mod.LabeledDataset, features: list[str], train_fraction: float
) -> tuple[ds_mod.LabeledDataset, ds_mod.LabeledDataset]:
    """The network's columns of ``dataset``, split into (train, test) by time."""
    return ds_mod.chronological_split(dataset.select_columns(features), train_fraction)


def company_seeds(mlp_seed: int, ticker: str) -> dict[str, int]:
    """A company's network seeds: ``init`` for the weights, ``train`` for the shuffle."""
    return {
        "init": derive_seed(mlp_seed, ticker, "init"),
        "train": derive_seed(mlp_seed, ticker, "train"),
    }


def model_document(
    model: mlp_mod.NetworkModel,
    ticker: str,
    seeds: dict[str, int],
    mlp_cfg: MlpConfig,
    final_loss: float,
    features: list[str],
) -> dict:
    """A trained company's ``models/<ticker>.json`` document."""
    return mlp_mod.model_to_dict(
        model,
        metadata={
            "ticker": ticker,
            "init_seed": seeds["init"],
            "shuffle_seed": seeds["train"],
            "epochs": mlp_cfg.epochs,
            "learning_rate": mlp_cfg.learning_rate,
            "batch_size": mlp_cfg.batch_size,
            "final_loss": final_loss,
            "features": features,
        },
    )


def _json_float(value) -> float | None:
    value = float(value)
    return value if math.isfinite(value) else None


def logit_result_dict(ticker: str, fit: logit_mod.LogitFit, selected: list[str]) -> dict:
    return {
        "ticker": ticker,
        "coefficients": [
            {
                "name": name,
                "beta": _json_float(fit.beta[j]),
                "std_err": _json_float(fit.std_err[j]),
                "z": _json_float(fit.z_score[j]),
                "p": _json_float(fit.p_value[j]),
            }
            for j, name in enumerate(fit.feature_names)
        ],
        "log_likelihood": _json_float(fit.log_likelihood),
        "iterations": fit.iterations,
        "converged": fit.converged,
        "separation_detected": fit.separation_detected,
        "selected": selected,
    }


def write_dataset(datasets_dir: Path, dataset: ds_mod.LabeledDataset, info: dict) -> None:
    """Write ``<ticker>.csv`` and ``<ticker>.meta.json`` for one built dataset."""
    datasets_dir.mkdir(parents=True, exist_ok=True)
    ticker = dataset.ticker
    write_atomic(datasets_dir / f"{ticker}.csv", ds_mod.dataset_csv_text(dataset))
    meta = {
        "ticker": ticker,
        "dropped_columns": info["dropped_columns"],
        "timespan": info["timespan"],
        "n_rows": info["n_rows"],
        "columns": {
            name: {
                "raw_min": m.raw_min,
                "raw_max": m.raw_max,
                "mean_used": m.observed_mean_normalized,
                "imputed_count": m.imputed_count,
                "degenerate": m.degenerate,
            }
            for name, m in dataset.column_meta.items()
        },
    }
    write_json(datasets_dir / f"{ticker}.meta.json", meta)


def write_json(path: Path, doc) -> None:
    """Write ``doc`` as indented JSON with a final newline, atomically."""
    write_atomic(path, json.dumps(doc, indent=2) + "\n")


def write_atomic(path: Path, text: str) -> None:
    """Write ``text`` as UTF-8 through a temp file in the same directory,
    then rename it over ``path``: a reader, or a worker writing the same
    directory, never sees a half-written file."""
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        temp.write_text(text, "utf-8")
        os.replace(temp, path)
    finally:
        temp.unlink(missing_ok=True)


class _Split(NamedTuple):
    """One part of a company's chronological split, as the arrays
    ``mlp.train_stack`` and ``mlp.evaluate`` read: no dates, no metadata."""

    X: np.ndarray
    y: np.ndarray


@dataclasses.dataclass
class _Prepared:
    """One company between the phases: its split arrays and the report
    fields known before training, in report order."""

    ticker: str
    fields: dict
    train: _Split
    test: _Split


def _prepare(
    ticker: str,
    path: Path,
    snapshots: list[MembershipSnapshot],
    cfg: PipelineConfig,
    out_dir: Path,
) -> _Prepared:
    """Parse, build, fit the logit, select and split one company, then
    write its ``datasets/`` and ``logit/`` files (only once all of that
    succeeded, so a company that fails here leaves no file)."""
    dataset, build_info = build_from_file(ticker, path, snapshots, cfg)
    fit, selected = fit_and_select(dataset, cfg.logit)
    mlp_features = selected
    if not selected:
        fallback = set(CANONICAL_FALLBACK_FEATURES)
        mlp_features = [f for f in dataset.feature_names if f in fallback]
        if not mlp_features:
            raise DataError(
                f"{ticker}: no significant features and no canonical fallback "
                f"columns present"
            )
    train_ds, test_ds = split_features(dataset, mlp_features, cfg.dataset.train_fraction)

    write_dataset(out_dir / "datasets", dataset, build_info)
    logit_doc = logit_result_dict(ticker, fit, selected)
    logit_dir = out_dir / "logit"
    logit_dir.mkdir(parents=True, exist_ok=True)
    write_json(logit_dir / f"{ticker}.json", logit_doc)
    fields = {
        "n_rows": dataset.n_rows,
        "n_train": train_ds.n_rows,
        "n_test": test_ds.n_rows,
        "timespan": build_info["timespan"],
        "dropped_columns": build_info["dropped_columns"],
        "logit": logit_doc,
        "selected": selected,
        "fallback_used": not selected,
        "mlp_features": mlp_features,
        "seeds": company_seeds(cfg.mlp.seed, ticker),
    }
    return _Prepared(
        ticker, fields, _Split(train_ds.X, train_ds.y), _Split(test_ds.X, test_ds.y)
    )


def _finish(
    company: _Prepared,
    model: mlp_mod.NetworkModel,
    loss_history: list[float],
    cfg: PipelineConfig,
    out_dir: Path,
) -> dict:
    """Evaluate one trained company, write its ``models/`` file and return its report entry."""
    report = mlp_mod.evaluate(model, company.test, cfg.mlp.threshold)
    fields = company.fields
    model_doc = model_document(
        model, company.ticker, fields["seeds"], cfg.mlp, loss_history[-1], fields["mlp_features"]
    )
    models_dir = out_dir / "models"
    models_dir.mkdir(parents=True, exist_ok=True)
    write_json(models_dir / f"{company.ticker}.json", model_doc)
    return {
        "ticker": company.ticker,
        "status": "ok",
        **fields,
        "hyperparameters": {
            "hidden_sizes": list(cfg.mlp.hidden_sizes),
            "epochs": cfg.mlp.epochs,
            "learning_rate": cfg.mlp.learning_rate,
            "batch_size": cfg.mlp.batch_size,
            "threshold": cfg.mlp.threshold,
        },
        "final_train_loss": loss_history[-1],
        "eval": dataclasses.asdict(report),
        "error": None,
    }


# The run in progress as a worker sees it, ``(snapshots, cfg, out_dir)``:
# set by ``_workers`` for the length of a run and before the pool forks,
# so fork hands the snapshots to every worker without pickling them.
_run: tuple = ()


def _cpu_count() -> int:
    """The CPUs this process may run on: one pipeline worker each."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return 1


@contextlib.contextmanager
def _workers(n_tasks: int, *run):
    """Yield ``(map, workers)`` for the run's task functions, with ``run`` set.

    One worker per CPU, at most one per task.  Several workers are
    processes forked at the first ``map``; one worker is this process and
    the builtin ``map``.  Either way the results come back in task order.
    """
    global _run
    workers = min(_cpu_count(), n_tasks)
    _run = run
    try:
        if workers <= 1:
            yield map, 1
        else:
            fork = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(workers, mp_context=fork) as pool:
                yield pool.map, workers
    finally:
        _run = ()


def _failed(exc: Exception, tickers: list[str]) -> list[dict]:
    """The report entries of the companies that this exception stopped.

    A PricedirError describes bad input and is its own error text.  Any
    other exception is a fault in the program: its traceback goes to
    stderr and the text names its type.  Only the entries cross back
    from a worker, so the report does not depend on how an exception
    pickles.
    """
    if isinstance(exc, PricedirError):
        error = str(exc)
    else:
        sys.stderr.write(
            f"{', '.join(tickers)}: unexpected error\n"
            + "".join(traceback.format_exception(exc))
        )
        error = f"{type(exc).__name__}: {exc}"
    return [{"ticker": ticker, "status": "failed", "error": error} for ticker in tickers]


def _prepare_task(item: tuple[str, Path]) -> _Prepared | list[dict]:
    """Phase 1 for one company: its ``_Prepared``, or ``[its failure entry]``."""
    ticker, path = item
    try:
        return _prepare(ticker, path, *_run)
    except Exception as exc:  # one company's fault must not stop the batch
        return _failed(exc, [ticker])


def _train_task(part: list[_Prepared]) -> list[dict]:
    """Phase 2 for companies with one training-row count: train them in
    one stack, then evaluate each and write its ``models/`` file.
    Returns their report entries."""
    _, cfg, out_dir = _run
    models = [
        mlp_mod.init_network(
            [len(c.fields["mlp_features"]), *cfg.mlp.hidden_sizes, 1],
            c.fields["seeds"]["init"],
        )
        for c in part
    ]
    try:
        outcomes = mlp_mod.train_stack(
            models,
            [c.train for c in part],
            epochs=cfg.mlp.epochs,
            learning_rate=cfg.mlp.learning_rate,
            batch_size=cfg.mlp.batch_size,
            seeds=[c.fields["seeds"]["train"] for c in part],
        )
    except Exception as exc:  # one stack's fault must not stop the batch
        return _failed(exc, [c.ticker for c in part])
    entries = []
    for company, model, outcome in zip(part, models, outcomes):
        try:
            if isinstance(outcome, TrainingDivergedError):
                raise outcome
            entries.append(_finish(company, model, outcome, cfg, out_dir))
        except Exception as exc:  # one company's fault must not stop the batch
            entries += _failed(exc, [company.ticker])
    return entries


def run_pipeline(cfg: PipelineConfig) -> dict:
    """Run every company in the panels directory and write the report.

    Two phases, each on one worker process per CPU: prepare each company
    (parse, build, logit, select, split, write ``datasets/`` and
    ``logit/``), then train every company with the same training-row
    count in one ``mlp.train_stack`` call, evaluate each and write its
    model.  The output bytes do not depend on how many workers run.
    Per-company failures are recorded and skipped; zero successes
    raises PipelineError.  Returns the report document (also written as
    report.json and report.txt under the output directory).
    """
    cfg.validate()
    snapshots = load_membership_dir(cfg.paths.membership_dir)
    panels = sorted(discover_panels(cfg.paths.panels_dir, cfg.tickers).items())
    out_dir = Path(cfg.paths.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    results: list[dict] = []
    stacks: dict[int, list[_Prepared]] = {}
    with _workers(len(panels), snapshots, cfg, out_dir) as (run_map, workers):
        for company in run_map(_prepare_task, panels):
            if isinstance(company, _Prepared):
                stacks.setdefault(len(company.train.y), []).append(company)
            else:
                results += company
        # A company's bits do not depend on which companies share its
        # stack, so cutting stacks into one part per worker changes no byte.
        parts = []
        for stack in stacks.values():
            k = min(workers, len(stack))
            parts += [stack[i * len(stack) // k : (i + 1) * len(stack) // k] for i in range(k)]
        for entries in run_map(_train_task, parts):
            results += entries
    results.sort(key=lambda r: r["ticker"])

    ok = [r for r in results if r["status"] == "ok"]
    if not ok:
        failures = "; ".join(f"{r['ticker']}: {r['error']}" for r in results)
        raise PipelineError(f"no company succeeded ({failures})")
    mean_accuracy = sum(r["eval"]["accuracy"] for r in ok) / len(ok)

    report = {
        "companies": results,
        "n_companies": len(results),
        "n_ok": len(ok),
        "n_failed": len(results) - len(ok),
        "mean_accuracy": mean_accuracy,
        "generator": cohort_mod.GENERATOR_NAME,
        "config": cfg.to_dict(),
    }
    write_atomic(out_dir / "report.json", render_report(report, "json"))
    write_atomic(out_dir / "report.txt", render_report(report, "text"))
    return report


def render_report(report: dict, fmt: str) -> str:
    """Render a pipeline report as canonical JSON or a two-column text table.

    Both formats first build the table, so a document that lacks a field
    the table reads raises DataError whichever format is asked for.
    """
    if fmt not in ("json", "text"):
        raise ValidationError(f"unknown report format {fmt!r}")
    try:
        if not report.get("companies"):
            raise ValidationError("report has no companies")
        table = _report_table(report)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"not a pipeline report ({exc!r})") from exc
    return json.dumps(report, indent=2) + "\n" if fmt == "json" else table


def _report_table(report: dict) -> str:
    rows = []
    for company in report["companies"]:
        if company["status"] == "ok":
            rows.append((company["ticker"], f"{company['eval']['accuracy'] * 100:.2f}%"))
    rows.append(("Mean", f"{report['mean_accuracy'] * 100:.2f}%"))
    width = max(len("Company Name"), max(len(name) for name, _ in rows))
    lines = [f"{'Company Name':<{width}} | Accuracy", f"{'-' * width}-+---------"]
    lines.extend(f"{name:<{width}} | {acc:>7}" for name, acc in rows)
    failed = [c for c in report["companies"] if c["status"] == "failed"]
    if failed:
        lines.append("")
        lines.append("Failed companies:")
        lines.extend(f"  {c['ticker']}: {c['error']}" for c in failed)
    return "\n".join(lines) + "\n"
