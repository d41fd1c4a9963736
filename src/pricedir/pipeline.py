"""End-to-end batch orchestration, per-company fail-soft, and reporting.

For every company panel: ingest, dataset build, logistic fit on all
features, significance selection, network training on the selected
features only, held-out evaluation.  Each stage is one public function
(``build_from_file``, ``fit_and_select``, ``train_networks``,
``evaluate_model``) that the step-by-step subcommands call too; the
dataset build itself, its order and its steps, is
``dataset.build_company_dataset``, and the network's columns, split into
(train, test) by time, are ``dataset.split_features``.  The companies
are dealt out once to one forked worker process per CPU.  Each worker
takes its share from panel file to report entry, training all its
companies in one ``train_networks`` call (one stack per row count), and
writes a company's four files at once, at its end, reading its report
entry from those documents; the calling process writes only the report.
One bad company never aborts the batch; it becomes a failure entry in
the report and leaves no file.  Output is fully deterministic for a fixed
config and inputs, whatever the worker count (company order is
stabilized by ticker, seeds are derived per company, a company's bits
do not depend on which companies share its stack, no timestamps).
"""

from __future__ import annotations

import contextlib
import math
import multiprocessing
import os
import sys
import traceback
from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
from pathlib import Path

from . import cohort as cohort_mod
from . import dataset as ds_mod
from . import logit as logit_mod
from . import mlp as mlp_mod
from .config import LogitConfig, PipelineConfig
# imported by name: ``benchmarks/tracing.py`` wraps this module's globals
from .dataset import build_company_dataset
from .errors import (
    ConfigError,
    DataError,
    PipelineError,
    PricedirError,
    TrainingDivergedError,
    ValidationError,
)
from .ingest import (
    WEEK_DAYS,
    MembershipSnapshot,
    json_text,
    membership_file_date,
    parse_company_panel,
    parse_membership_file,
    read_text,
    write_files,
)
from .synth import derive_seed


def load_membership_dir(path: str | Path) -> list[MembershipSnapshot]:
    """Parse every ``constituents_<requested-date>.csv`` in a directory.
    Two requested dates fewer than ``WEEK_DAYS`` apart are a DataError that
    names both files: a row date could fall in both their weeks."""
    path = Path(path)
    if not path.is_dir():
        raise ConfigError(f"membership directory not found: {path}")
    snapshots, previous = [], None
    # names sorted as strings, so in date order: the order Path sorting gives
    for name in sorted(name for name in os.listdir(path) if name.endswith(".csv")):
        file = path / name
        requested = membership_file_date(file)
        if snapshots and (requested - snapshots[-1].requested_date).days < WEEK_DAYS:
            raise DataError(
                f"{previous} and {file}: requested dates fewer than {WEEK_DAYS} days "
                "apart, so their weeks overlap"
            )
        snapshots.append(parse_membership_file(read_text(file), requested, source=str(file)))
        previous = file
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


def build_from_file(
    ticker: str, path: Path, snapshots: list[MembershipSnapshot], cfg: PipelineConfig
) -> tuple[ds_mod.LabeledDataset, dict]:
    """Parse one company's panel file and build its dataset: ``(dataset, info)``."""
    panel = parse_company_panel(read_text(path), ticker, source=str(path))
    return build_company_dataset(panel, snapshots, cfg)


def _json_float(value) -> float | None:
    value = float(value)
    return value if math.isfinite(value) else None


def fit_and_select(dataset: ds_mod.LabeledDataset, logit_cfg: LogitConfig) -> dict:
    """Fit the logit on every feature and keep those with p < alpha: the
    ``logit/<ticker>.json`` document, its kept names under ``selected``.
    A dataset the fit refuses is a DataError that names the dataset."""
    try:
        fit = logit_mod.fit_logit(
            dataset.X,
            dataset.y,
            max_iter=logit_cfg.max_iter,
            tol=logit_cfg.tol,
            feature_names=dataset.feature_names,
        )
    except DataError as exc:
        raise DataError(f"dataset {dataset.ticker}: {exc}") from exc
    return {
        "ticker": dataset.ticker,
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
        "selected": logit_mod.select_features(fit, logit_cfg.alpha),
    }


def train_networks(
    train_sets: list[ds_mod.LabeledDataset], cfg: PipelineConfig
) -> list[dict | Exception]:
    """Train one network per training set, one ``mlp.train_stack`` call per
    row count (in first-seen order).  A company's input width is its set's
    column count; its weight and shuffle seeds come from ``cfg.mlp.seed``
    and its ticker.  Returns one outcome per set, in input order: its
    ``models/<ticker>.json`` document, or the exception that stopped it
    (its TrainingDivergedError, a fault in its document, or a fault in its
    stack's seeds, init or training, which each company there gets)."""
    mlp = cfg.mlp
    stacks: dict[int, list[int]] = {}
    for i, ds in enumerate(train_sets):
        stacks.setdefault(ds.n_rows, []).append(i)
    outcomes: dict[int, dict | Exception] = {}  # by position: tickers may repeat
    for stack in stacks.values():
        sets = [train_sets[i] for i in stack]
        try:
            seeds = [[derive_seed(mlp.seed, ds.ticker, use) for use in ("init", "train")]
                     for ds in sets]
            models = [mlp_mod.init_network([len(ds.feature_names), *mlp.hidden_sizes, 1], init)
                      for ds, (init, _) in zip(sets, seeds)]
            losses = mlp_mod.train_stack(
                models, sets, epochs=mlp.epochs, learning_rate=mlp.learning_rate,
                batch_size=mlp.batch_size, seeds=[train for _, train in seeds],
            )
        except Exception as exc:  # a fault in the shared part fails the whole stack
            outcomes.update(dict.fromkeys(stack, exc))
            continue
        for i, ds, (init, train), model, loss in zip(stack, sets, seeds, models, losses):
            if isinstance(loss, TrainingDivergedError):
                outcomes[i] = loss
                continue
            try:  # a fault in one company's document fails that company alone
                outcomes[i] = mlp_mod.model_to_dict(model, metadata={
                    "ticker": ds.ticker,
                    "init_seed": init,
                    "shuffle_seed": train,
                    "epochs": mlp.epochs,
                    "learning_rate": mlp.learning_rate,
                    "batch_size": mlp.batch_size,
                    "train_fraction": cfg.dataset.train_fraction,
                    "final_loss": loss[-1],
                    "features": ds.feature_names,
                })
            except Exception as exc:
                outcomes[i] = exc
    return [outcomes[i] for i in range(len(train_sets))]


def evaluate_model(
    model_doc: dict, dataset: ds_mod.LabeledDataset, cfg: PipelineConfig, source: str | Path
) -> dict:
    """Score a ``models/<ticker>.json`` document on the test part of
    ``dataset`` (read from ``source``): its ``eval`` record.  The model's
    own ``features`` and ``train_fraction`` choose the columns and the
    split, so its training rows stay out of the test part; a model without
    them takes every column and the config's fraction."""
    model = mlp_mod.model_from_dict(model_doc)
    metadata = model_doc.get("metadata", {})
    features = metadata.get("features", [])
    missing = [name for name in features if name not in dataset.feature_names]
    if missing:
        raise DataError(f"{source}: missing the model's feature columns {missing}")
    fraction = metadata.get("train_fraction", cfg.dataset.train_fraction)
    _, test_ds = ds_mod.split_features(dataset, features, fraction)
    return mlp_mod.evaluate(model, test_ds, cfg.mlp.threshold)


def company_files(ticker: str) -> list[str]:
    """A company's four output files in write order; ``build`` writes the first two."""
    return [f"datasets/{ticker}.csv", f"datasets/{ticker}.meta.json",
            f"logit/{ticker}.json", f"models/{ticker}.json"]


def dataset_files(dataset: ds_mod.LabeledDataset, info: dict) -> dict[str, str]:
    """One built dataset's CSV and its ``.meta.json`` sidecar (the build's
    ``info``), name to text, for ``write_outputs``."""
    csv_name, meta_name = company_files(dataset.ticker)[:2]
    return {
        csv_name: ds_mod.dataset_csv_text(dataset),
        meta_name: json_text({"ticker": dataset.ticker, **info}),
    }


def write_outputs(out_dir: Path, files: dict[str, str]) -> None:
    """Write ``files`` under ``out_dir`` (``write_files``).  A file that
    cannot be written is a ConfigError naming ``paths.output_dir`` and the
    file; the files written before it stay for the caller's clean-up."""
    try:
        write_files(out_dir, files)
    except OSError as exc:
        name = os.path.relpath(exc.filename, out_dir)
        raise ConfigError(
            f"paths.output_dir {out_dir}: cannot write {name} ({exc.strerror})"
        ) from exc


def remove_outputs(out_dir: Path, names: list[str]) -> None:
    """Remove each of ``names`` under ``out_dir`` that is a regular file; a
    directory or FIFO in the way stays, and so does a file that cannot go."""
    for name in names:
        with contextlib.suppress(OSError):
            if (out_dir / name).is_file():
                (out_dir / name).unlink()


def make_output_dirs(output_dir: str | Path, *names: str) -> Path:
    """Create ``output_dir`` and its subdirectories ``names``, and return
    it; one that cannot be made is a ConfigError naming ``paths.output_dir``."""
    out_dir = Path(output_dir)
    for name in names:
        try:
            (out_dir / name).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(
                f"paths.output_dir {out_dir}: cannot create {name}/ ({exc.strerror})"
            ) from exc
    return out_dir


def _prepare(
    ticker: str, path: Path, snapshots: list[MembershipSnapshot], cfg: PipelineConfig
) -> tuple[ds_mod.LabeledDataset, dict, dict, ds_mod.LabeledDataset]:
    """Parse, build, fit the logit, select and split one company: its
    dataset, the build's info, its logit document and the train part of
    the selected columns (of every column, when the logit keeps none)."""
    dataset, build_info = build_from_file(ticker, path, snapshots, cfg)
    logit_doc = fit_and_select(dataset, cfg.logit)
    train_ds, _ = ds_mod.split_features(dataset, logit_doc["selected"], cfg.dataset.train_fraction)
    return dataset, build_info, logit_doc, train_ds


def _finish(
    dataset: ds_mod.LabeledDataset, build_info: dict, logit_doc: dict, model_doc: dict,
    cfg: PipelineConfig, out_dir: Path,
) -> dict:
    """Score one trained company's model document as ``evaluate`` does,
    write its four files in one ``write_outputs`` call, and return its
    report entry, read from those documents and the ``eval`` record."""
    csv_name, _, logit_name, model_name = company_files(dataset.ticker)
    report = evaluate_model(model_doc, dataset, cfg, out_dir / csv_name)
    write_outputs(out_dir, {**dataset_files(dataset, build_info),
                            logit_name: json_text(logit_doc), model_name: json_text(model_doc)})
    metadata = model_doc["metadata"]
    return {
        "ticker": dataset.ticker,
        "status": "ok",
        "n_rows": dataset.n_rows,
        "n_train": dataset.n_rows - report["n_test"],
        "n_test": report["n_test"],
        "timespan": build_info["timespan"],
        "dropped_columns": build_info["dropped_columns"],
        "logit": logit_doc,
        "selected": logit_doc["selected"],
        "fallback_used": not logit_doc["selected"],
        "mlp_features": metadata["features"],
        "seeds": {"init": metadata["init_seed"], "train": metadata["shuffle_seed"]},
        "hyperparameters": {
            "hidden_sizes": list(cfg.mlp.hidden_sizes),
            "epochs": cfg.mlp.epochs,
            "learning_rate": cfg.mlp.learning_rate,
            "batch_size": cfg.mlp.batch_size,
            "threshold": cfg.mlp.threshold,
        },
        "final_train_loss": metadata["final_loss"],
        "eval": report,
        "error": None,
    }


# The run in progress, ``(snapshots, cfg, out_dir)``: set for the length of
# a run and before the pool forks, so every worker gets it without pickling.
_run: tuple = ()


def _cpu_count() -> int:
    """The CPUs this process may run on: one pipeline worker each."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return 1


def _failed(exc: Exception, ticker: str) -> dict:
    """The report entry of a company that this exception stopped.

    A PricedirError describes bad input and is its own error text.  Any
    other exception is a fault in the program: its traceback goes to
    stderr and the text names its type.  Only the entry crosses back
    from a worker, so the report does not depend on how an exception
    pickles.
    """
    if isinstance(exc, PricedirError):
        error = str(exc)
    else:
        trace = "".join(traceback.format_exception(exc))
        sys.stderr.write(f"{ticker}: unexpected error\n{trace}")
        error = f"{type(exc).__name__}: {exc}"
    return {"ticker": ticker, "status": "failed", "error": error}


def _run_share(share: list[tuple[str, Path]]) -> list[dict]:
    """One worker's companies, from panel file to report entry, failures
    included: each is prepared, all train in one ``train_networks`` call,
    then each is evaluated and writes its four files."""
    snapshots, cfg, out_dir = _run
    entries: list[dict] = []
    prepared = []
    for ticker, path in share:
        try:
            prepared.append(_prepare(ticker, path, snapshots, cfg))
        except Exception as exc:  # one company's fault must not stop the batch
            entries.append(_failed(exc, ticker))
    outcomes = train_networks([train_ds for *_, train_ds in prepared], cfg)
    for (dataset, build_info, logit_doc, _), outcome in zip(prepared, outcomes):
        if isinstance(outcome, Exception):  # not raised: a stack's companies share it
            entries.append(_failed(outcome, dataset.ticker))
            continue
        try:
            entries.append(_finish(dataset, build_info, logit_doc, outcome, cfg, out_dir))
        except Exception as exc:  # one company's fault must not stop the batch
            entries.append(_failed(exc, dataset.ticker))
    return entries


def run_pipeline(cfg: PipelineConfig) -> dict:
    """Run every company in the panels directory and write the report.

    The ticker-sorted companies are dealt out once to one worker process
    per CPU, at most one per company: worker ``i`` of ``w`` gets
    ``panels[i::w]`` and takes it from panel file to report entry
    (``_run_share``).  A single worker runs in this process; more are
    forked, and this process waits for them and writes the report.
    Per-company failures are recorded and skipped, and leave no file, not
    even an earlier run's.  Zero successes or a dead worker raises
    PipelineError; an output directory that cannot be made or written
    raises ConfigError.  Returns the report document (also written as
    report.json and report.txt under the output directory).
    """
    global _run
    cfg.validate()
    snapshots = load_membership_dir(cfg.paths.membership_dir)
    panels = sorted(discover_panels(cfg.paths.panels_dir, cfg.tickers).items())
    out_dir = make_output_dirs(cfg.paths.output_dir, "datasets", "logit", "models")

    workers = min(_cpu_count(), len(panels))
    _run = (snapshots, cfg, out_dir)
    try:
        if workers == 1:
            results = _run_share(panels)
        else:
            fork = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(workers, mp_context=fork) as pool:
                shares = [panels[i::workers] for i in range(workers)]
                results = [entry for part in pool.map(_run_share, shares) for entry in part]
    except BrokenProcessPool as exc:
        raise PipelineError("a worker process died, so no report was written") from exc
    finally:
        _run = ()
    results.sort(key=lambda r: r["ticker"])
    for failed in (r for r in results if r["status"] == "failed"):
        remove_outputs(out_dir, company_files(failed["ticker"]))

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
    write_outputs(out_dir, {"report.json": render_report(report, "json"),
                            "report.txt": render_report(report, "text")})
    return report


def render_report(report: dict, fmt: str) -> str:
    """Render a pipeline report as canonical JSON or a two-column text table.

    Both formats first build the table, so a document that lacks a field
    the table reads raises DataError whichever format is asked for.
    """
    try:
        if not report.get("companies"):
            raise ValidationError("report has no companies")
        table = _report_table(report)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"not a pipeline report ({exc!r})") from exc
    return json_text(report) if fmt == "json" else table


def _report_table(report: dict) -> str:
    rows = []
    for company in report["companies"]:
        if company["status"] == "ok":
            rows.append((company["ticker"], f"{company['eval']['accuracy'] * 100:.2f}%"))
        elif company["status"] != "failed":
            raise ValueError(f"company status {company['status']!r}")
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
