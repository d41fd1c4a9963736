"""Command-line entry point.

Subcommands: synth, cohort, build, logit, train, evaluate, pipeline,
report.  Exit codes: 0 success, 1 configuration/validation error, 2 data
error, 3 pipeline error (no company succeeded, or a worker died).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from . import dataset as ds_mod
from . import pipeline
from . import synth as synth_mod
from .cohort import cohort_report
from .config import ENV_CONFIG_VAR, FIELDS, PipelineConfig, apply_overrides, load_config
from .errors import (
    ConfigError,
    DataError,
    PipelineError,
    PricedirError,
    ValidationError,
)
from .ingest import json_text, read_json, read_text, write_files


def _add_config_args(parser: argparse.ArgumentParser) -> None:
    """Register --config and one dotted flag per config field."""
    parser.add_argument(
        "--config",
        help=f"JSON config file (default: ${ENV_CONFIG_VAR} if set)",
    )
    for dotted in FIELDS:
        parser.add_argument(f"--{dotted}", dest=dotted, metavar="VALUE")


def _load_pipeline_config(args) -> PipelineConfig:
    path = args.config or os.environ.get(ENV_CONFIG_VAR)
    cfg = load_config(path) if path else PipelineConfig()
    apply_overrides(cfg, {d: getattr(args, d) for d in FIELDS if getattr(args, d) is not None})
    return cfg.validate()


def _emit(doc: dict, out: str | None) -> None:
    """Write ``doc`` as JSON to the ``--out`` file, or to stdout without one."""
    if not out:
        sys.stdout.write(json_text(doc))
        return
    try:
        write_files(Path(out).parent, {Path(out).name: json_text(doc)})
    except OSError as exc:
        raise ConfigError(f"--out {out}: cannot write ({exc.strerror or exc})") from exc


def _cmd_synth(args) -> int:
    if args.companies < 1:
        raise ConfigError(f"--companies must be >= 1, got {args.companies}")
    if args.weeks < 3:
        raise ConfigError(f"--weeks must be >= 3, got {args.weeks}")
    probabilities = {"--switch-prob": args.switch_prob, "--missing-prob": args.missing_prob}
    for flag, value in probabilities.items():
        if not 0.0 <= value <= 1.0:
            raise ConfigError(f"{flag} must be in [0, 1], got {value}")
    if args.signal_scale is not None and not math.isfinite(args.signal_scale):
        raise ConfigError(f"--signal-scale must be finite, got {args.signal_scale}")
    if args.signal_scale is not None and args.calibrate:
        raise ConfigError("--signal-scale and --calibrate exclude each other")
    try:
        truth = synth_mod.write_fixture(
            out_dir=args.out,
            n_companies=args.companies,
            n_weeks=args.weeks,
            switch_prob=args.switch_prob,
            missing_prob=args.missing_prob,
            seed=args.seed,
            planted=synth_mod.default_planted(),
            signal_scale=args.signal_scale,
            calibrate=args.calibrate,
        )
    except OSError as exc:  # name the path when the error does: the one in the way, say
        where = f" {exc.filename}" if exc.filename else ""
        raise ConfigError(f"--out {args.out}: cannot write{where} ({exc.strerror or exc})") from exc
    sys.stdout.write(
        f"wrote {truth['n_weeks']} membership weeks and "
        f"{truth['n_companies']} panels under {args.out}\n"
        f"pooled Bayes accuracy: {truth['pooled_bayes_accuracy']:.4f}\n"
    )
    return 0


def _cmd_cohort(args) -> int:
    if args.per_group < 1:
        raise ConfigError(f"--per-group must be >= 1, got {args.per_group}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    snapshots = pipeline.load_membership_dir(args.membership_dir)
    if not any(s.constituents for s in snapshots):
        raise DataError(f"no membership file in {args.membership_dir} lists a ticker")
    doc = cohort_report(snapshots, args.per_group, args.seed, args.allow_deficient)
    _emit(doc, args.out)
    return 0


def _cmd_build(args) -> int:
    cfg = _load_pipeline_config(args)
    snapshots = pipeline.load_membership_dir(cfg.paths.membership_dir)
    panels = pipeline.discover_panels(cfg.paths.panels_dir, cfg.tickers)
    out_dir = pipeline.make_output_dirs(cfg.paths.output_dir, "datasets")
    failed = False
    for ticker, path in sorted(panels.items()):
        try:
            dataset, info = pipeline.build_from_file(ticker, path, snapshots, cfg)
            pipeline.write_outputs(out_dir, pipeline.dataset_files(dataset, info))
            sys.stdout.write(f"built {ticker}: {dataset.n_rows} rows\n")
        except PricedirError as exc:
            # fail soft, as the pipeline does: report it, drop its files, build the rest
            print(f"error: {ticker}: {exc}", file=sys.stderr)
            pipeline.remove_outputs(out_dir, pipeline.company_files(ticker)[:2])
            failed = True
    return 2 if failed else 0


def _read_dataset(path: str) -> ds_mod.LabeledDataset:
    file = Path(path)
    return ds_mod.read_dataset_csv(read_text(file), file.stem, source=str(file))


def _cmd_logit(args) -> int:
    cfg = _load_pipeline_config(args)
    _emit(pipeline.fit_and_select(_read_dataset(args.dataset), cfg.logit), args.out)
    return 0


def _cmd_train(args) -> int:
    cfg = _load_pipeline_config(args)
    dataset = _read_dataset(args.dataset)
    features = [f.strip() for f in args.features.split(",")] if args.features else []
    train_ds, _ = ds_mod.split_features(dataset, features, cfg.dataset.train_fraction)
    (doc,) = pipeline.train_networks([train_ds], cfg)
    if isinstance(doc, Exception):
        raise doc
    _emit(doc, args.out)
    sys.stdout.write(f"trained {dataset.ticker}: final loss {doc['metadata']['final_loss']:.6f}\n")
    return 0


def _cmd_evaluate(args) -> int:
    cfg = _load_pipeline_config(args)
    dataset = _read_dataset(args.dataset)
    model_doc = read_json(Path(args.model), "model")
    try:  # a ValidationError here is the model document's: its faults and its width
        report = pipeline.evaluate_model(model_doc, dataset, cfg, Path(args.dataset))
    except ValidationError as exc:
        raise ValidationError(f"model file {args.model}: {exc}") from exc
    _emit(report, args.out)
    sys.stdout.write(f"{dataset.ticker} | {report['accuracy'] * 100:.2f}%\n")
    return 0


def _cmd_pipeline(args) -> int:
    cfg = _load_pipeline_config(args)
    report = pipeline.run_pipeline(cfg)
    sys.stdout.write(pipeline.render_report(report, "text"))
    return 0


def _cmd_report(args) -> int:
    report = read_json(Path(args.input), "report")
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
    p.add_argument("--calibrate", action="store_true", help="binary-search the signal "
                   f"scale to a pooled Bayes accuracy in {list(synth_mod.BAYES_WINDOW)}")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("cohort", help="group companies by membership count and sample")
    p.add_argument("--membership-dir", required=True)
    p.add_argument("--per-group", type=int, default=10)
    p.add_argument("--seed", type=int, default=20020104)
    p.add_argument("--allow-deficient", action="store_true")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_cohort)

    p = sub.add_parser("build", help="build per-company labeled datasets")
    _add_config_args(p)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("logit", help="fit the logistic model on a built dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out")
    _add_config_args(p)
    p.set_defaults(func=_cmd_logit)

    p = sub.add_parser("train", help="train the network on a built dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True, help="model JSON path")
    p.add_argument("--features", help="comma-separated feature subset")
    _add_config_args(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a trained model on the test part")
    p.add_argument("--dataset", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out")
    _add_config_args(p)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("pipeline", help="run the full batch pipeline")
    _add_config_args(p)
    p.set_defaults(func=_cmd_pipeline)

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
