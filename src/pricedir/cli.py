"""Command-line entry point.

Subcommands: synth, cohort, build, logit, train, evaluate, pipeline,
report.  Exit codes: 0 success, 1 configuration/validation error, 2 data
error, 3 pipeline error (no company succeeded).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import dataset as ds_mod
from . import mlp as mlp_mod
from . import pipeline
from . import synth as synth_mod
from .cohort import cohort_report
from .config import (
    ENV_CONFIG_VAR,
    TOP_LEVEL_FIELDS,
    DatasetConfig,
    LogitConfig,
    MlpConfig,
    PipelineConfig,
    _SECTIONS,
    apply_overrides,
    load_config,
    parse_flag_value,
)
from .errors import (
    ConfigError,
    DataError,
    PipelineError,
    PricedirError,
    ValidationError,
)
from .synth import derive_seed


def _add_config_args(parser: argparse.ArgumentParser) -> dict[str, str]:
    """Register --config, --seed, and one dotted flag per config field.

    Returns the mapping from argparse dest back to the dotted name.
    """
    parser.add_argument(
        "--config",
        help=f"JSON config file (default: ${ENV_CONFIG_VAR} if set)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        help="master seed; derives the mlp seed",
    )
    dotted_by_dest: dict[str, str] = {}
    for section, cls in _SECTIONS.items():
        for fld in dataclasses.fields(cls):
            dotted = f"{section}.{fld.name}"
            dest = f"set__{section}__{fld.name}"
            parser.add_argument(f"--{dotted}", dest=dest, metavar="VALUE")
            dotted_by_dest[dest] = dotted
    for name in TOP_LEVEL_FIELDS:
        dest = f"set__{name}"
        parser.add_argument(f"--{name}", dest=dest, metavar="VALUE")
        dotted_by_dest[dest] = name
    return dotted_by_dest


def _load_pipeline_config(args, dotted_by_dest: dict[str, str]) -> PipelineConfig:
    path = args.config or os.environ.get(ENV_CONFIG_VAR)
    cfg = load_config(path) if path else PipelineConfig()
    overrides = {}
    for dest, dotted in dotted_by_dest.items():
        value = getattr(args, dest, None)
        if value is not None:
            overrides[dotted] = value
    apply_overrides(cfg, overrides)
    if args.seed is not None:
        cfg.mlp.seed = derive_seed(args.seed, "mlp")
    return cfg.validate()


def _emit(doc: dict, out: str | None) -> None:
    """Write ``doc`` as JSON to the ``--out`` file, or to stdout without one."""
    if not out:
        sys.stdout.write(json.dumps(doc, indent=2) + "\n")
        return
    try:
        pipeline.write_json(Path(out), doc)
    except OSError as exc:
        raise ConfigError(f"--out {out}: cannot write ({exc.strerror or exc})") from exc


def _cmd_synth(args) -> int:
    planted = synth_mod.default_planted()
    truth = synth_mod.write_fixture(
        out_dir=args.out,
        n_companies=args.companies,
        n_weeks=args.weeks,
        switch_prob=args.switch_prob,
        missing_prob=args.missing_prob,
        seed=args.seed,
        planted=planted,
        signal_scale=args.signal_scale,
        calibrate=args.calibrate,
        target_lo=args.bayes_lo,
        target_hi=args.bayes_hi,
    )
    sys.stdout.write(
        f"wrote {truth['n_weeks']} membership weeks and "
        f"{truth['n_companies']} panels under {args.out}\n"
        f"pooled Bayes accuracy: {truth['pooled_bayes_accuracy']:.4f}\n"
    )
    return 0


def _cmd_cohort(args) -> int:
    snapshots = pipeline.load_membership_dir(args.membership_dir)
    doc = cohort_report(snapshots, args.per_group, args.seed, args.allow_deficient)
    _emit(doc, args.out)
    return 0


def _cmd_build(args, dotted_by_dest) -> int:
    cfg = _load_pipeline_config(args, dotted_by_dest)
    snapshots = pipeline.load_membership_dir(cfg.paths.membership_dir)
    panels = pipeline.discover_panels(cfg.paths.panels_dir, cfg.tickers)
    out_dir = Path(cfg.paths.output_dir) / "datasets"
    failed = False
    for ticker, path in sorted(panels.items()):
        try:
            dataset, info = pipeline.build_from_file(ticker, path, snapshots, cfg)
        except PricedirError as exc:
            # fail soft, as the pipeline does: report it and build the rest
            print(f"error: {ticker}: {exc}", file=sys.stderr)
            failed = True
            continue
        pipeline.write_dataset(out_dir, dataset, info)
        sys.stdout.write(f"built {ticker}: {dataset.n_rows} rows\n")
    return 2 if failed else 0


def _read_json(path: str, what: str):
    file = Path(path)
    if not file.is_file():
        raise DataError(f"{what} file not found: {file}")
    try:
        return json.loads(file.read_text("utf-8"))
    except ValueError as exc:
        raise DataError(f"{what} file {file} is not valid JSON: {exc}") from exc


def _read_dataset(path: str) -> ds_mod.LabeledDataset:
    file = Path(path)
    if not file.is_file():
        raise DataError(f"dataset file not found: {file}")
    return ds_mod.read_dataset_csv(file.read_bytes(), file.stem, source=str(file))


def _cmd_logit(args) -> int:
    logit_cfg = LogitConfig(alpha=args.alpha, tol=args.tol, max_iter=args.max_iter).validate()
    dataset = _read_dataset(args.dataset)
    fit, selected = pipeline.fit_and_select(dataset, logit_cfg)
    _emit(pipeline.logit_result_dict(dataset.ticker, fit, selected), args.out)
    return 0


def _cmd_train(args) -> int:
    dataset = _read_dataset(args.dataset)
    features = dataset.feature_names
    if args.features:
        features = [f.strip() for f in args.features.split(",")]
    train_ds, _ = pipeline.split_features(dataset, features, args.train_fraction)
    mlp_cfg = MlpConfig(
        epochs=args.epochs, learning_rate=args.learning_rate, batch_size=args.batch_size
    )
    if args.hidden_sizes:
        try:
            mlp_cfg.hidden_sizes = parse_flag_value(MlpConfig, "hidden_sizes", args.hidden_sizes)
        except ValueError as exc:
            raise ConfigError(
                f"--hidden-sizes: bad value {args.hidden_sizes!r} ({exc})"
            ) from exc
    # --seed is the network seed itself, where pipeline's --seed derives it
    seeds = pipeline.company_seeds(args.seed, dataset.ticker)
    model, losses = mlp_mod.train(
        mlp_mod.init_network([len(features), *mlp_cfg.hidden_sizes, 1], seeds["init"]),
        train_ds, mlp_cfg.epochs, mlp_cfg.learning_rate, mlp_cfg.batch_size, seeds["train"],
    )
    doc = pipeline.model_document(model, dataset.ticker, seeds, mlp_cfg, losses[-1], features)
    _emit(doc, args.out)
    sys.stdout.write(f"trained {dataset.ticker}: final loss {losses[-1]:.6f}\n")
    return 0


def _cmd_evaluate(args) -> int:
    dataset = _read_dataset(args.dataset)
    model_doc = _read_json(args.model, "model")
    model = mlp_mod.model_from_dict(model_doc)
    features = model_doc.get("metadata", {}).get("features") or dataset.feature_names
    _, test_ds = pipeline.split_features(dataset, features, args.train_fraction)
    report = mlp_mod.evaluate(model, test_ds, args.threshold)
    _emit(dataclasses.asdict(report), args.out)
    sys.stdout.write(f"{dataset.ticker} | {report.accuracy * 100:.2f}%\n")
    return 0


def _cmd_pipeline(args, dotted_by_dest) -> int:
    cfg = _load_pipeline_config(args, dotted_by_dest)
    report = pipeline.run_pipeline(cfg)
    sys.stdout.write(pipeline.render_report(report, "text"))
    return 0


def _cmd_report(args) -> int:
    report = _read_json(args.input, "report")
    try:
        text = pipeline.render_report(report, args.format)
    except DataError as exc:
        raise DataError(f"{args.input}: {exc}") from exc
    sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pricedir",
        description="Index-membership stock price direction prediction pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic fixture with known truth")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--companies", type=int, default=10)
    p.add_argument("--weeks", type=int, default=400)
    p.add_argument("--switch-prob", type=float, default=0.05)
    p.add_argument("--missing-prob", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--signal-scale", type=float, default=None)
    p.add_argument(
        "--calibrate",
        action="store_true",
        help="binary-search the signal scale to a pooled Bayes accuracy window",
    )
    p.add_argument("--bayes-lo", type=float, default=0.73)
    p.add_argument("--bayes-hi", type=float, default=0.77)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("cohort", help="group companies by membership count and sample")
    p.add_argument("--membership-dir", required=True)
    p.add_argument("--per-group", type=int, default=10)
    p.add_argument("--seed", type=int, default=20020104)
    p.add_argument("--allow-deficient", action="store_true")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_cohort)

    p = sub.add_parser("build", help="build per-company labeled datasets")
    dotted = _add_config_args(p)
    p.set_defaults(func=lambda a, d=dotted: _cmd_build(a, d))

    p = sub.add_parser("logit", help="fit the logistic model on a built dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--alpha", type=float, default=LogitConfig.alpha)
    p.add_argument("--tol", type=float, default=LogitConfig.tol)
    p.add_argument("--max-iter", type=int, default=LogitConfig.max_iter)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_logit)

    p = sub.add_parser("train", help="train the network on a built dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True, help="model JSON path")
    p.add_argument("--features", help="comma-separated feature subset")
    p.add_argument("--hidden-sizes", help="comma-separated hidden layer sizes")
    p.add_argument("--epochs", type=int, default=MlpConfig.epochs)
    p.add_argument("--learning-rate", type=float, default=MlpConfig.learning_rate)
    p.add_argument("--batch-size", type=int, default=MlpConfig.batch_size)
    p.add_argument("--seed", type=int, default=MlpConfig.seed)
    p.add_argument("--train-fraction", type=float, default=DatasetConfig.train_fraction)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a trained model on the test part")
    p.add_argument("--dataset", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--threshold", type=float, default=MlpConfig.threshold)
    p.add_argument("--train-fraction", type=float, default=DatasetConfig.train_fraction)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("pipeline", help="run the full batch pipeline")
    dotted = _add_config_args(p)
    p.set_defaults(func=lambda a, d=dotted: _cmd_pipeline(a, d))

    p = sub.add_parser("report", help="re-render a report.json")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=["json", "text"], default="text")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PricedirError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, (ConfigError, ValidationError)):
            return 1
        return 3 if isinstance(exc, PipelineError) else 2


if __name__ == "__main__":
    sys.exit(main())
