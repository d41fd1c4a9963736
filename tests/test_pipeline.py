import argparse
import contextlib
import errno
import functools
import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import warnings
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from pricedir import cli
from pricedir.cli import main
from pricedir.cohort import cohort_report
from pricedir.config import (
    ENV_CONFIG_VAR,
    FIELDS,
    PipelineConfig,
    apply_overrides,
    config_from_dict,
    load_config,
)
from pricedir.errors import (
    ConfigError,
    DataError,
    PipelineError,
    TrainingDivergedError,
    ValidationError,
)
from pricedir import mlp as mlp_mod
from pricedir import pipeline as pipeline_mod
from pricedir.dataset import direction_labels, read_dataset_csv
from pricedir.ingest import CompanyPanel, panel_file_text, parse_company_panel, write_files
from pricedir.pipeline import (
    build_company_dataset,
    load_membership_dir,
    render_report,
    run_pipeline,
)
from pricedir.synth import (
    PlantedModel,
    default_planted,
    generate_company_panel,
    membership_vector,
    write_fixture,
)

from conftest import weekly_dates


@pytest.fixture(scope="module")
def fixture(tmp_path_factory):
    root = tmp_path_factory.mktemp("synthdata")
    truth = write_fixture(
        root,
        n_companies=4,
        n_weeks=160,
        switch_prob=0.05,
        missing_prob=0.05,
        seed=101,
        planted=default_planted(),
        signal_scale=2.0,
    )
    return root, truth


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    """A 20-row ``date,y,f0,f1`` dataset file, for quick ``pricedir train`` runs."""
    rng = np.random.default_rng(3)
    rows = [
        f"{day},{int(rng.random() < 0.5)},{rng.random()!r},{rng.random()!r}"
        for day in weekly_dates(20)
    ]
    file = tmp_path_factory.mktemp("tiny") / "TINY.csv"
    file.write_text("date,y,f0,f1\n" + "\n".join(rows) + "\n")
    return file


# Flag values for the train property test: well-formed ones, small enough to
# keep a run to a few steps, and malformed strings.
MALFORMED = st.sampled_from(["", " ", "x", "1.5", "1e1", "0x2", "-", "[1]", "2,"])
HIDDEN_SIZES = st.lists(st.integers(min_value=-1, max_value=5), max_size=3)
# A probability-like flag value: in [0, 1] mostly, any float otherwise.
FRACTION = st.one_of(st.floats(min_value=0.0, max_value=1.0), st.floats()).map(repr)


# A one-layer model for the 2-feature ``tiny_dataset``, and one 3 inputs wide.
TINY_MODEL = {"layer_sizes": [2, 1], "weights": [[[0.5, 0.5]]], "biases": [[0.0]], "metadata": {}}
WIDE_MODEL = {**TINY_MODEL, "layer_sizes": [3, 1], "weights": [[[0.5, 0.5, 0.5]]]}
# A report document in the form ``pipeline`` writes, cut to the keys ``report``
# reads, with one company ok and one failed.
REPORT = {
    "companies": [
        {"ticker": "C000", "status": "ok", "eval": {"accuracy": 0.6875, "n_test": 32}},
        {"ticker": "C001", "status": "failed", "error": "need n > m + 1 rows, have n=2, m=8"},
    ],
    "n_companies": 2,
    "n_ok": 1,
    "n_failed": 1,
    "mean_accuracy": 0.6875,
}
EVALUATE = ["evaluate", "--dataset", "{data}", "--model", "{model}"]
BUILD = ["build", "--paths.membership_dir", "{membership}", "--paths.panels_dir", "{panels}",
         "--paths.output_dir", "{built}"]

# A value other than the default for every config field, as a config file holds it.
NON_DEFAULT = {
    "paths.membership_dir": "m",
    "paths.panels_dir": "p",
    "paths.output_dir": "o",
    "dataset.price_column": "close",
    "dataset.lag_features": ["total_return", "volume"],
    "dataset.max_missing_fraction": 0.25,
    "dataset.train_fraction": 0.7,
    "logit.alpha": 0.1,
    "logit.tol": 1e-06,
    "logit.max_iter": 50,
    "mlp.hidden_sizes": [4, 2],
    "mlp.epochs": 7,
    "mlp.learning_rate": 0.2,
    "mlp.batch_size": 16,
    "mlp.seed": 3,
    "mlp.threshold": 0.6,
    "target_mode": "membership",
    "tickers": ["C001", "C000"],
}

# Any text for a config flag, with no "/" (so a path field stays under the
# test's working directory) and none of what an argv cannot hold (NUL, or
# a surrogate that no byte decodes to).
FLAG_TEXT = st.one_of(
    st.text(st.characters(exclude_categories=("Cs",), exclude_characters="/\x00"), max_size=12),
    st.sampled_from(["", "[]", "null", "C000", "C000,", "C000,C000", '["C000"]', "-1", "0",
                     "nan", "1e400", "[1, 2]", "price", "in_index", "date", "membership"]),
)


# One byte edit of a file: delete the byte at a position, insert a token
# there, or cut the file short there (positions wrap around the length).
BYTE_EDIT = st.one_of(
    st.tuples(st.just("delete"), st.integers(min_value=0)),
    st.tuples(st.just("insert"), st.integers(min_value=0),
              st.sampled_from([b"\r", b"\x00", b"\xff", b'"', b"nan", b"1e309"])),
    st.tuples(st.just("truncate"), st.integers(min_value=0)),
)


def edit_bytes(data, edits):
    """``data`` with each ``BYTE_EDIT`` applied in turn."""
    for kind, at, *token in edits:
        at %= len(data) + 1
        if kind == "delete":
            data = data[:at] + data[at + 1:]
        elif kind == "insert":
            data = data[:at] + token[0] + data[at:]
        else:
            data = data[:at]
    return data


def mostly(good):
    """A value from ``good`` four times in five, else a malformed string."""
    return st.integers(min_value=0, max_value=4).flatmap(lambda k: good if k else MALFORMED)


def run_quietly(argv):
    """``main(argv)`` with its output captured: ``(code, stdout, stderr)``.

    Asserts what any argv must give: no traceback, and ``error:`` on
    stderr when the exit code is not 0.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            np.errstate(all="ignore"):
        code = main(argv)
    event(f"{argv[0]} exit {code}")
    assert "Traceback" not in err.getvalue(), argv
    if code:
        assert "error:" in err.getvalue(), argv
    return code, out.getvalue(), err.getvalue()


def small_config(root, out_name="out"):
    cfg = PipelineConfig()
    cfg.paths.membership_dir = str(root / "membership")
    cfg.paths.panels_dir = str(root / "panels")
    cfg.paths.output_dir = str(root / out_name)
    cfg.mlp.epochs = 60
    return cfg


class TestConfig:
    def test_defaults_validate(self):
        PipelineConfig().validate()

    def test_load_and_override(self, tmp_path):
        file = tmp_path / "config.json"
        file.write_text(json.dumps({"mlp": {"epochs": 40}, "target_mode": "direction"}))
        cfg = load_config(file)
        assert cfg.mlp.epochs == 40
        apply_overrides(cfg, {"mlp.epochs": "25", "dataset.train_fraction": "0.7",
                              "mlp.hidden_sizes": "4,2", "tickers": "C000,C001"})
        assert cfg.mlp.epochs == 25
        assert cfg.dataset.train_fraction == 0.7
        assert cfg.mlp.hidden_sizes == [4, 2]
        assert cfg.tickers == ["C000", "C001"]

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"mlp": {"epochz": 1}})
        with pytest.raises(ConfigError):
            config_from_dict({"nonsense": {}})
        # retired fields: old config files that still carry them are rejected
        with pytest.raises(ConfigError):
            config_from_dict({"workers": 2})
        with pytest.raises(ConfigError):
            config_from_dict({"cohort": {}})
        with pytest.raises(ConfigError):
            apply_overrides(PipelineConfig(), {"mlp.epochz": "3"})

    def test_wrong_value_types_rejected(self):
        for doc, field in (
            ({"mlp": {"epochs": "500"}}, "mlp.epochs"),
            ({"mlp": {"hidden_sizes": "8"}}, "mlp.hidden_sizes"),
            ({"tickers": "C000"}, "tickers"),
        ):
            with pytest.raises(ConfigError, match=field):
                config_from_dict(doc).validate()
        # an int is a valid float
        assert config_from_dict({"mlp": {"learning_rate": 1}}).mlp.learning_rate == 1
        # flag values get the same element checks as config files
        for dotted, text in (
            ("mlp.hidden_sizes", "[1.5, 2.9]"),
            ("dataset.lag_features", "[1, null]"),
        ):
            with pytest.raises(ConfigError, match=dotted):
                apply_overrides(PipelineConfig(), {dotted: text})
        cfg = apply_overrides(PipelineConfig(), {"mlp.hidden_sizes": "[4, 2]",
                                                 "dataset.lag_features": "a, b"})
        assert cfg.mlp.hidden_sizes == [4, 2]
        assert cfg.dataset.lag_features == ["a", "b"]

    def test_range_validation(self):
        cfg = PipelineConfig()
        cfg.dataset.train_fraction = 1.5
        with pytest.raises(ConfigError):
            cfg.validate()
        cfg = PipelineConfig()
        cfg.target_mode = "sideways"
        with pytest.raises(ConfigError):
            cfg.validate()
        cfg = PipelineConfig()
        cfg.paths.panels_dir = cfg.paths.membership_dir
        with pytest.raises(ConfigError):
            cfg.validate()
        for doc, field in (
            ({"tickers": []}, "tickers"),
            ({"tickers": ["C000", "C000"]}, "tickers"),
            ({"dataset": {"lag_features": [""]}}, "dataset.lag_features"),
            ({"dataset": {"price_column": ""}}, "dataset.price_column"),
        ):
            with pytest.raises(ConfigError, match=field):
                config_from_dict(doc).validate()
        # each range rule of ``validate``, at a value just outside it; NaN
        # compares false with everything, so a plain range check lets it pass
        float_rules = {
            "dataset.train_fraction": ["0", "1", "1.5"],
            "dataset.max_missing_fraction": ["-0.1", "1.1"],
            "logit.alpha": ["0", "1.01"],
            "logit.tol": ["0", "-1e-8", "inf"],
            "mlp.threshold": ["0", "1"],
            "mlp.learning_rate": ["-0.1", "inf", "-inf"],
        }
        int_rules = {
            "logit.max_iter": ["0"],
            "mlp.epochs": ["0", "-1"],
            "mlp.batch_size": ["0"],
            "mlp.hidden_sizes": ["[4, 0]", "[-1]"],
        }
        for dotted, texts in {**float_rules, **int_rules}.items():
            for text in texts + ["nan"] * (dotted in float_rules):
                cfg = apply_overrides(PipelineConfig(), {dotted: text})
                with pytest.raises(ConfigError, match=rf"^{dotted} must "):
                    cfg.validate()

    def test_missing_file(self, tmp_path, monkeypatch, capsys):
        missing = tmp_path / "nope.json"
        with pytest.raises(ConfigError):
            load_config(missing)
        assert main(["build", "--config", str(missing)]) == 1
        assert capsys.readouterr().err == (
            f"error: config file {missing}: cannot read (No such file or directory)\n"
        )
        not_utf8 = tmp_path / "latin1.json"
        not_utf8.write_bytes(b'{"mlp": {}}\xff')
        with pytest.raises(ConfigError):
            load_config(not_utf8)
        # nested deeper than the JSON parser recurses: a fault, not a traceback
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000 + "]" * 100000)
        assert main(["build", "--config", str(deep)]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: config file {deep} is not valid JSON: maximum recursion depth exceeded"
        )
        # JSON whose root is not an object
        not_object = tmp_path / "list.json"
        not_object.write_text("[]")
        assert main(["build", "--config", str(not_object)]) == 1
        assert capsys.readouterr().err == (
            f"error: config {not_object}: root must be a JSON object\n"
        )
        # an unknown key or a wrong type names the file as well as the field
        bad_field = tmp_path / "bad_field.json"
        for doc, message in (
            ({"mlp": {"epochz": 1}}, "unknown config keys ['mlp.epochz']"),
            ({"mlp": {"epochs": "x"}}, "config field 'mlp.epochs' must be int, got 'x'"),
            ({"mlp": {"epochs": 0}}, "mlp.epochs must be >= 1"),
        ):
            bad_field.write_text(json.dumps(doc))
            assert main(["build", "--config", str(bad_field)]) == 1
            assert capsys.readouterr().err == f"error: config {bad_field}: {message}\n"
        # a file that exists but whose read fails, as a device file's may
        def unreadable(self, *args, **kwargs):
            raise OSError(errno.EIO, "Input/output error")

        monkeypatch.setattr(Path, "read_bytes", unreadable)
        assert main(["build", "--config", str(not_utf8)]) == 1
        assert capsys.readouterr().err == (
            f"error: config file {not_utf8}: cannot read (Input/output error)\n"
        )

    def test_every_field_is_the_same_by_flag_and_by_file(self, tmp_path, monkeypatch):
        """Each field of ``FIELDS`` set by its flag, in both list forms,
        gives the config that a file setting it gives; and ``build`` has
        exactly one flag per field."""
        monkeypatch.delenv(ENV_CONFIG_VAR, raising=False)
        parser = cli.build_parser()

        def config(*argv):
            return cli._load_pipeline_config(parser.parse_args(["build", *argv])).to_dict()

        assert set(NON_DEFAULT) == set(FIELDS)
        file = tmp_path / "config.json"
        for dotted, value in NON_DEFAULT.items():
            section, _, name = dotted.rpartition(".")
            file.write_text(json.dumps({section: {name: value}} if section else {name: value}))
            by_file = config("--config", str(file))
            assert by_file != PipelineConfig().to_dict(), dotted
            forms = [json.dumps(value), ",".join(map(str, value))] if isinstance(value, list) \
                else [str(value)]
            for text in forms:
                assert config(f"--{dotted}", text) == by_file, (dotted, text)
        subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        flags = [flag for action in subparsers.choices["build"]._actions
                 for flag in action.option_strings
                 if flag not in ("-h", "--help", "--config")]
        assert sorted(flags) == sorted(f"--{dotted}" for dotted in FIELDS)


class TestBuildCompanyDataset:
    def test_direction_mode_excludes_price_and_labels_from_prices(self, fixture):
        root, truth = fixture
        cfg = small_config(root)
        snapshots = load_membership_dir(cfg.paths.membership_dir)
        panel = parse_company_panel((root / "panels" / "C000.csv").read_text(), "C000")
        ds, info = build_company_dataset(panel, snapshots, cfg)
        assert "in_index" not in panel.columns  # the caller's panel is left as it was
        assert "price" not in ds.feature_names
        assert "in_index" in ds.feature_names
        assert "total_return_lag1w" in ds.feature_names
        assert set(np.unique(ds.y)) <= {0, 1}
        assert ds.X.min() >= 0.0 and ds.X.max() <= 1.0

    def test_membership_mode_uses_indicator_as_target(self, fixture):
        root, truth = fixture
        cfg = small_config(root)
        cfg.target_mode = "membership"
        snapshots = load_membership_dir(cfg.paths.membership_dir)
        panel = parse_company_panel((root / "panels" / "C001.csv").read_text(), "C001")
        ds, _ = build_company_dataset(panel, snapshots, cfg)
        assert "in_index" not in ds.feature_names
        assert "price" not in ds.feature_names
        from pricedir.dataset import membership_indicator

        by_date = dict(zip(panel.dates, membership_indicator(panel, snapshots)))
        assert all(int(by_date[d]) == y for d, y in zip(ds.dates, ds.y))

    def test_lag_of_the_indicator(self, fixture):
        root, _ = fixture
        cfg = small_config(root)
        cfg.dataset.lag_features = ["in_index"]
        snapshots = load_membership_dir(cfg.paths.membership_dir)
        panel = parse_company_panel((root / "panels" / "C000.csv").read_text(), "C000")
        ds, _ = build_company_dataset(panel, snapshots, cfg)
        assert ds.feature_names[-2:] == ["in_index", "in_index_lag1w"]

    @pytest.mark.parametrize("mode,problem", [
        ("direction", "fewer than 2 consecutive usable prices in 'price'"),
        ("membership", "no row has all of"),
    ])
    def test_header_only_panel_is_a_data_error(self, fixture, mode, problem):
        root, _ = fixture
        cfg = small_config(root)
        cfg.target_mode = mode
        snapshots = load_membership_dir(cfg.paths.membership_dir)
        panel = parse_company_panel("date,price,total_return\n", "C000")
        with pytest.raises(DataError, match=problem):
            build_company_dataset(panel, snapshots, cfg)


class TestLoadMembershipDir:
    def test_files_read_in_name_order(self, tmp_path):
        days = ["2002-01-18", "2002-01-04", "2002-01-11"]
        for day in days:  # written out of order
            (tmp_path / f"constituents_{day}.csv").write_text(
                f"# effective_date={day}\nticker\nAAA\n"
            )
        (tmp_path / "notes.txt").write_text("not a membership file")
        (tmp_path / "upper.CSV").write_text("not a membership file")
        snapshots = load_membership_dir(tmp_path)
        assert [s.requested_date.isoformat() for s in snapshots] == sorted(days)

    def test_errors_name_the_problem(self, tmp_path):
        with pytest.raises(ConfigError, match="membership directory not found"):
            load_membership_dir(tmp_path / "absent")
        with pytest.raises(DataError, match="no membership files in"):
            load_membership_dir(tmp_path)
        for name in ("z.csv", "constituents_2002-01-04.csv", "a.csv"):
            (tmp_path / name).write_text("# effective_date=2002-01-04\nticker\nAAA\n")
        # the first misnamed file in name order is the one reported
        with pytest.raises(DataError) as info:
            load_membership_dir(tmp_path)
        assert str(info.value) == (
            f"{tmp_path / 'a.csv'}: membership files must be named constituents_YYYY-MM-DD.csv"
        )
        (tmp_path / "a.csv").unlink()
        (tmp_path / "z.csv").unlink()
        # named like a membership file, but its date is not a day
        (tmp_path / "constituents_2002-02-30.csv").write_text(
            "# effective_date=2002-02-28\nticker\nAAA\n"
        )
        with pytest.raises(DataError) as info:
            load_membership_dir(tmp_path)
        assert str(info.value) == (f"{tmp_path / 'constituents_2002-02-30.csv'}: "
                                   "membership files must be named constituents_YYYY-MM-DD.csv")
        (tmp_path / "constituents_2002-02-30.csv").unlink()
        (tmp_path / "constituents_2002-01-11.csv").write_text("# effective_date=2002-01-11\nticker\nB B\n")
        with pytest.raises(DataError) as info:
            load_membership_dir(tmp_path)
        assert str(info.value) == (
            f"{tmp_path / 'constituents_2002-01-11.csv'}, line 3: malformed ticker row 'B B'"
        )

    def test_a_ticker_is_one_object_across_snapshots(self, tmp_path):
        for day in ("2002-01-04", "2002-01-11"):
            (tmp_path / f"constituents_{day}.csv").write_text(
                f"# effective_date={day}\nticker\nAAA1\nBBB2\n"
            )
        first, second = (
            [t for t in s.constituents if t == "AAA1"][0] for s in load_membership_dir(tmp_path)
        )
        assert first is second


class TestRunPipeline:
    def test_report_structure_and_consistency(self, fixture):
        root, truth = fixture
        cfg = small_config(root, "out_main")
        report = run_pipeline(cfg)
        assert report["n_companies"] == 4
        assert report["n_ok"] == 4
        accs = [c["eval"]["accuracy"] for c in report["companies"]]
        assert report["mean_accuracy"] == pytest.approx(sum(accs) / 4)
        tickers = [c["ticker"] for c in report["companies"]]
        assert tickers == sorted(tickers)
        for company in report["companies"]:
            pvals = {c["name"]: c["p"] for c in company["logit"]["coefficients"]}
            for name in company["selected"]:
                assert pvals[name] < cfg.logit.alpha
            if not company["fallback_used"]:
                assert company["mlp_features"] == company["selected"]
            assert company["n_train"] + company["n_test"] == company["n_rows"]
        out = Path(cfg.paths.output_dir)
        assert (out / "report.json").is_file()
        assert (out / "report.txt").is_file()
        assert (out / "datasets" / "C000.csv").is_file()
        assert (out / "datasets" / "C000.meta.json").is_file()
        assert (out / "logit" / "C000.json").is_file()
        assert (out / "models" / "C000.json").is_file()

    def test_eval_record_layout(self, fixture, tmp_path, capsys):
        """The report's ``eval`` record has these keys in this order, with
        integer counts, and ``evaluate --out`` writes the same record."""
        root, _ = fixture
        cfg = small_config(root, "out_eval_layout")
        cfg.tickers = ["C000"]
        run_pipeline(cfg)
        out = Path(cfg.paths.output_dir)
        (entry,) = json.loads((out / "report.json").read_text())["companies"]
        counts = ["true_pos", "true_neg", "false_pos", "false_neg"]
        assert list(entry["eval"]) == ["n_test", "accuracy", *counts, "threshold"]
        assert all(type(entry["eval"][key]) is int for key in ["n_test", *counts])
        eval_file = tmp_path / "eval.json"
        assert main(["evaluate", "--dataset", str(out / "datasets" / "C000.csv"),
                     "--model", str(out / "models" / "C000.json"), "--out", str(eval_file)]) == 0
        assert list(json.loads(eval_file.read_text()).items()) == list(entry["eval"].items())

    def test_byte_identical_reports_across_runs(self, fixture):
        root, _ = fixture
        cfg = small_config(root, "out_det")
        run_pipeline(cfg)
        first = (Path(cfg.paths.output_dir) / "report.json").read_bytes()
        run_pipeline(cfg)
        second = (Path(cfg.paths.output_dir) / "report.json").read_bytes()
        assert first == second

    def test_ticker_subset(self, fixture):
        root, _ = fixture
        cfg = small_config(root, "out_sub")
        cfg.tickers = ["C002", "C000"]
        report = run_pipeline(cfg)
        assert [c["ticker"] for c in report["companies"]] == ["C000", "C002"]

    def test_unknown_ticker_rejected(self, fixture):
        from pricedir.errors import DataError

        root, _ = fixture
        cfg = small_config(root, "out_unknown")
        cfg.tickers = ["C000", "ZZZZ"]
        with pytest.raises(DataError, match="ZZZZ"):
            run_pipeline(cfg)

    def test_450_row_company_splits_360_90(self, tmp_path):
        # 451 generated weeks -> 450 labeled rows after the lag-trimmed
        # first week -> the 80/20 split lands exactly on 360/90
        write_fixture(
            tmp_path, n_companies=1, n_weeks=451, switch_prob=0.05,
            missing_prob=0.0, seed=77, planted=default_planted(), signal_scale=1.0,
        )
        cfg = small_config(tmp_path)
        cfg.mlp.epochs = 10
        report = run_pipeline(cfg)
        company = report["companies"][0]
        assert company["n_rows"] == 450
        assert (company["n_train"], company["n_test"]) == (360, 90)

    def test_fail_soft_records_failures(self, fixture, tmp_path):
        root, _ = fixture
        panels = tmp_path / "panels"
        panels.mkdir()
        good = (root / "panels" / "C000.csv").read_text()
        panels.joinpath("C000.csv").write_text(good)
        panels.joinpath("BAD.csv").write_text("date,foo\n2002-01-04,1.0\n2002-01-11,2.0\n")
        panels.joinpath("LATIN1.csv").write_bytes(good.encode("utf-8") + b"\xff\xfe\n")
        # a feature column named like the dataset file's label column
        panels.joinpath("YCOL.csv").write_text(good.replace(",noise_a,", ",y,", 1))
        # a bare carriage return inside the third line
        lines = good.split("\n")
        lines[2] = lines[2].replace(",", ",\r", 1)
        panels.joinpath("RETURN.csv").write_text("\n".join(lines), newline="")
        cfg = small_config(root, "out_failsoft")
        cfg.paths.panels_dir = str(panels)
        report = run_pipeline(cfg)
        status = {c["ticker"]: c["status"] for c in report["companies"]}
        assert status == {"BAD": "failed", "C000": "ok", "LATIN1": "failed",
                          "RETURN": "failed", "YCOL": "failed"}
        assert report["n_failed"] == 4
        assert "LATIN1.csv: not UTF-8" in report["companies"][2]["error"]
        assert report["companies"][3]["error"].startswith(
            f"{panels / 'RETURN.csv'}, line 3: new-line character seen in unquoted field"
        )
        assert report["companies"][4]["error"] == (
            "panel YCOL: feature column 'y' is the dataset file's label"
        )

    def test_all_failures_raise_pipeline_error(self, fixture, tmp_path):
        root, _ = fixture
        panels = tmp_path / "panels"
        panels.mkdir()
        panels.joinpath("BAD.csv").write_text("date,foo\n2002-01-04,1.0\n2002-01-11,2.0\n")
        cfg = small_config(root, "out_allfail")
        cfg.paths.panels_dir = str(panels)
        with pytest.raises(PipelineError):
            run_pipeline(cfg)

    def test_missing_panels_dir_fails_before_work(self, fixture):
        root, _ = fixture
        cfg = small_config(root, "out_nodir")
        cfg.paths.panels_dir = str(root / "does_not_exist")
        with pytest.raises(ConfigError):
            run_pipeline(cfg)

    def test_empty_selection_falls_back_to_every_dataset_column(self, fixture, tmp_path):
        """An empty selection, forced on C000 by a tiny ``logit.alpha``, and
        met at the default ``alpha`` by a C003 whose panel is pure noise."""
        root, _ = fixture
        forced = small_config(root, "out_fallback")
        forced.logit.alpha = 1e-12
        forced.tickers = ["C000"]
        snapshots = load_membership_dir(root / "membership")
        dates = [s.requested_date for s in snapshots]
        noise = PlantedModel(0.0, {}, ["total_return", "noise_a", "noise_b"])
        # seed 0's selection is empty; seeds 1-3 and 5-9 would do as well
        panel = generate_company_panel(
            noise, "C003", dates, membership_vector(snapshots, "C003"), 0.0, 0
        ).panel
        shutil.copytree(root / "panels", tmp_path / "panels")
        (tmp_path / "panels" / "C003.csv").write_text(panel_file_text(panel))
        pure_noise = small_config(root)
        pure_noise.paths.panels_dir = str(tmp_path / "panels")
        pure_noise.paths.output_dir = str(tmp_path / "out")
        pure_noise.tickers = ["C003"]
        for cfg in (forced, pure_noise):
            report = run_pipeline(cfg)
            company = report["companies"][0]
            ticker = company["ticker"]
            assert company["fallback_used"]
            assert company["selected"] == []
            # what ``pricedir train`` builds without ``--features``
            out = Path(cfg.paths.output_dir)
            dataset = read_dataset_csv((out / "datasets" / f"{ticker}.csv").read_text(), ticker)
            assert company["mlp_features"] == dataset.feature_names
            model = json.loads((out / "models" / f"{ticker}.json").read_text())
            assert model["layer_sizes"][0] == len(dataset.feature_names) > 4

    def test_edge_case_companies_run_end_to_end(self, fixture, tmp_path):
        """C000 gains a column that equals each row's label, so the logit
        sees perfect separation; C001 gains a copy of its ``sentiment``
        column, so its information matrix is below full rank and takes the
        ridge on every iteration: the fit converges and keeps neither copy.
        Both still train and score."""
        report = run_pipeline(edge_case_config(fixture[0], tmp_path))
        assert [c["status"] for c in report["companies"]] == ["ok"] * 4
        flags = {c["ticker"]: (c["logit"]["converged"], c["logit"]["separation_detected"],
                               c["fallback_used"]) for c in report["companies"]}
        assert flags["C000"] == (False, True, True)
        assert flags["C001"] == flags["C002"] == flags["C003"] == (True, False, False)
        assert report["companies"][1]["selected"] == ["trades", "noise_c", "total_return_lag1w"]

    def test_unconverged_fits_run_end_to_end(self, fixture, tmp_path):
        """At ``logit.max_iter`` 1 every edge-case company's fit stops after
        its one iteration: unconverged, the separable C000 not yet flagged
        as separated, and every company still trains and scores."""
        cfg = edge_case_config(fixture[0], tmp_path)
        cfg.logit.max_iter = 1
        report = run_pipeline(cfg)
        outcomes = [(c["ticker"], c["status"], c["logit"]["converged"],
                     c["logit"]["separation_detected"], c["logit"]["iterations"])
                    for c in report["companies"]]
        assert outcomes == [(t, "ok", False, False, 1) for t in ("C000", "C001", "C002", "C003")]


def edge_case_config(root: Path, tmp_path: Path) -> PipelineConfig:
    """``small_config`` at 2 epochs on the fixture's panels, with C000 given a
    ``leak`` column equal to each row's label (perfect separation) and C001
    a copy of its ``sentiment`` column (an information matrix below full rank)."""
    panels = tmp_path / "panels"
    shutil.copytree(root / "panels", panels)
    add_column(panels, "C000", "leak", lambda panel: direction_labels(panel, "price"))
    add_column(panels, "C001", "sentiment_copy", lambda panel: panel.columns["sentiment"])
    cfg = small_config(root)
    cfg.paths.panels_dir = str(panels)
    cfg.paths.output_dir = str(tmp_path / "out")
    cfg.mlp.epochs = 2
    return cfg


def add_column(panels: Path, ticker: str, name: str, values) -> None:
    """Rewrite ``panels/<ticker>.csv`` with one more column, ``values(panel)``."""
    panel = parse_company_panel((panels / f"{ticker}.csv").read_text(), ticker)
    columns = {**panel.columns, name: values(panel)}
    (panels / f"{ticker}.csv").write_text(panel_file_text(CompanyPanel(ticker, panel.dates, columns)))


def cli_in_child(*argv: str) -> tuple[int, str]:
    """``pricedir <argv>`` in a child process, killed after 60 s: its exit
    code and stderr."""
    src = str(Path(pipeline_mod.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "pricedir.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stderr


def output_tree(out: Path) -> dict[str, bytes]:
    return {str(f.relative_to(out)): f.read_bytes() for f in sorted(out.rglob("*")) if f.is_file()}


# Runs the pipeline on the fixture at ``argv[1]`` into ``argv[2]``, 20
# epochs, in this one process, and prints as JSON the OpenBLAS kernel it
# ran on (None when numpy's own OpenBLAS is not found) and the report's
# companies.
KERNEL_CHILD = """
import ctypes, json, sys
from pathlib import Path
import numpy
from pricedir import pipeline
from pricedir.config import PipelineConfig
root, out = map(Path, sys.argv[1:])
cfg = PipelineConfig()
cfg.paths.membership_dir, cfg.paths.panels_dir = str(root / "membership"), str(root / "panels")
cfg.paths.output_dir = str(out)
cfg.mlp.epochs = 20
pipeline._cpu_count = lambda: 1  # no worker forks
companies = pipeline.run_pipeline(cfg)["companies"]
corename = None
for lib in (Path(numpy.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*"):
    get = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
    get.restype = ctypes.c_char_p
    corename = get().decode()
print(json.dumps({"corename": corename, "companies": companies}))
"""


class TestWorkers:
    def test_outputs_do_not_depend_on_worker_count(self, fixture, tmp_path, monkeypatch):
        # C000, C001 and C003 share 128 training rows, C002 has 124 and BAD
        # fails to prepare.  The ticker-sorted panels are dealt out round
        # robin: 1 worker trains the three 128-row companies in one stack;
        # 2 take [BAD, C001, C003] and [C000, C002]; 3 take [BAD, C002],
        # [C000, C003] and [C001]; 8 are capped at 5, one company each, so
        # every company trains alone and BAD's worker trains nothing
        root, _ = fixture
        panels = tmp_path / "panels"
        panels.mkdir()
        for file in (root / "panels").glob("*.csv"):
            panels.joinpath(file.name).write_bytes(file.read_bytes())
        panels.joinpath("BAD.csv").write_text("date,foo\n2002-01-04,1.0\n2002-01-11,2.0\n")
        cfg = small_config(root)
        cfg.paths.panels_dir = str(panels)
        cfg.paths.output_dir = str(tmp_path / "out")
        trees = []
        for workers in (1, 2, 3, 8):
            monkeypatch.setattr(pipeline_mod, "_cpu_count", lambda: workers)
            shutil.rmtree(tmp_path / "out", ignore_errors=True)
            report = run_pipeline(cfg)
            assert [c["status"] for c in report["companies"]] == ["failed"] + ["ok"] * 4
            assert [c["n_train"] for c in report["companies"][1:]] == [128, 128, 124, 128]
            trees.append(output_tree(tmp_path / "out"))
        assert len(trees[0]) == 2 + 4 * 4
        assert trees[0] == trees[1] == trees[2] == trees[3]

    @pytest.mark.parametrize("edit", ["shuffle-panel-rows", "ticker-without-panel"])
    def test_input_edits_that_change_no_output_byte(self, fixture, tmp_path, edit):
        """Two exact metamorphic relations, each run in the same input and
        output paths as the unedited inputs: shuffling the data rows of one
        panel file, and listing a ticker that has no panel in every
        membership file, leave every output file byte-identical."""
        root, _ = fixture
        inputs = tmp_path / "inputs"
        for name in ("membership", "panels"):
            shutil.copytree(root / name, inputs / name)
        cfg = small_config(inputs)
        cfg.mlp.epochs = 2
        out = Path(cfg.paths.output_dir)

        def run():
            shutil.rmtree(out, ignore_errors=True)
            run_pipeline(cfg)
            return output_tree(out)

        before = run()
        if edit == "shuffle-panel-rows":
            panel = inputs / "panels" / "C001.csv"
            header, *rows = panel.read_text().splitlines(keepends=True)
            shuffled = random.Random(7).sample(rows, len(rows))
            assert shuffled != rows
            panel.write_text(header + "".join(shuffled))
        else:
            for file in (inputs / "membership").glob("*.csv"):
                file.write_text(file.read_text() + "ZZZ9\n")
        assert len(before) == 2 + 4 * 4
        assert run() == before

    @pytest.mark.parametrize("edit", ["scale-a-column", "leave-a-company-out",
                                      "add-a-sparse-column"])
    def test_input_edits_with_an_exact_effect(self, fixture, tmp_path, edit):
        """Three exact metamorphic relations, each run in the same input and
        output paths as the unedited inputs.  Multiplying every ``sentiment``
        cell of one panel by 4 changes only that column's raw range in its
        ``.meta.json``, exactly 4 times; leaving a company out of ``tickers``
        keeps every other company's files; a column with a value in only
        every third row of one panel is dropped, and changes only that
        company's ``dropped_columns``."""
        root, _ = fixture
        inputs = tmp_path / "inputs"
        for name in ("membership", "panels"):
            shutil.copytree(root / name, inputs / name)
        cfg = small_config(inputs)
        cfg.mlp.epochs = 2
        out = Path(cfg.paths.output_dir)

        def run():
            shutil.rmtree(out, ignore_errors=True)
            run_pipeline(cfg)
            return output_tree(out)

        def edit_panel(ticker, edit_row):
            panel = inputs / "panels" / f"{ticker}.csv"
            header, *lines = panel.read_text().splitlines()
            rows = [edit_row(k, dict(zip(header.split(","), line.split(","))))
                    for k, line in enumerate(lines)]
            text = [",".join(rows[0].keys()), *(",".join(row.values()) for row in rows)]
            panel.write_text("\n".join(text) + "\n")

        def times_4(_, row):
            if row["sentiment"]:
                row["sentiment"] = repr(float(row["sentiment"]) * 4)
            return row

        before = run()
        if edit == "scale-a-column":
            edit_panel("C000", times_4)
        elif edit == "leave-a-company-out":
            cfg.tickers = ["C000", "C001", "C003"]
        else:
            edit_panel("C001", lambda k, row: {**row, "sparse": "0.5" if k % 3 == 0 else ""})
        after = run()
        changed = {name for name in before.keys() | after.keys()
                   if before.get(name) != after.get(name)}
        if edit == "scale-a-column":
            assert changed == {"datasets/C000.meta.json"}
            old, new = (json.loads(tree["datasets/C000.meta.json"]) for tree in (before, after))
            for key in ("raw_min", "raw_max"):
                assert new["columns"]["sentiment"][key] == 4 * old["columns"]["sentiment"][key]
                new["columns"]["sentiment"][key] = old["columns"]["sentiment"][key]
            assert new == old
        elif edit == "leave-a-company-out":
            assert changed == {"report.json", "report.txt", *pipeline_mod.company_files("C002")}
            assert not [name for name in after if "C002" in name]
        else:
            assert changed == {"datasets/C001.meta.json", "report.json"}
            docs = [(json.loads(tree["datasets/C001.meta.json"]),
                     json.loads(tree["report.json"])["companies"][1]) for tree in (before, after)]
            (old_meta, old_entry), (new_meta, new_entry) = docs
            assert new_meta["dropped_columns"] == [*old_meta["dropped_columns"], "sparse"]
            assert new_entry["dropped_columns"] == new_meta["dropped_columns"]
            assert {**new_meta, "dropped_columns": old_meta["dropped_columns"]} == old_meta
            new_report = json.loads(after["report.json"])
            new_report["companies"][1]["dropped_columns"] = old_entry["dropped_columns"]
            assert new_report == json.loads(before["report.json"])

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("phase", ["prepare", "train", "diverge", "document", "finish"])
    def test_unexpected_exception_fails_one_company(
        self, fixture, monkeypatch, capfd, phase, workers
    ):
        # C002 is the only company with 124 training rows, so it trains
        # alone and a fault in "train" (a ``train_stack`` fault fails the
        # whole stack) fails it alone; a "document" fault fails only its
        # company, in any stack (see the next test); "diverge" is not a
        # fault but a training outcome
        module, name, is_c002 = {
            "prepare": (
                pipeline_mod, "build_company_dataset", lambda panel, *_: panel.ticker == "C002"
            ),
            "train": (mlp_mod, "train_stack", lambda _, data, **__: len(data[0].y) == 124),
            "diverge": (mlp_mod, "train_stack", lambda _, data, **__: len(data[0].y) == 124),
            "document": (
                mlp_mod, "model_to_dict", lambda _, metadata: metadata["ticker"] == "C002"
            ),
            "finish": (mlp_mod, "evaluate", lambda _, test_ds, *__: test_ds.ticker == "C002"),
        }[phase]
        real = getattr(module, name)

        def faulty(*args, **kwargs):
            if not is_c002(*args, **kwargs):
                return real(*args, **kwargs)
            if phase == "diverge":
                diverged = TrainingDivergedError("non-finite loss at epoch 1")
                return [diverged for _ in real(*args, **kwargs)]
            raise ZeroDivisionError("planted fault")

        monkeypatch.setattr(module, name, faulty)
        monkeypatch.setattr(pipeline_mod, "_cpu_count", lambda: workers)
        root, _ = fixture
        cfg = small_config(root, f"out_fault_{phase}{workers}")
        report = run_pipeline(cfg)
        status = {c["ticker"]: c["status"] for c in report["companies"]}
        assert status == {"C000": "ok", "C001": "ok", "C002": "failed", "C003": "ok"}
        err = capfd.readouterr().err
        if phase == "diverge":
            assert report["companies"][2]["error"] == "non-finite loss at epoch 1"
            assert "unexpected error" not in err
        else:
            assert report["companies"][2]["error"] == "ZeroDivisionError: planted fault"
            assert "C002: unexpected error\nTraceback (most recent call last):" in err
            assert "ZeroDivisionError: planted fault" in err
        # a company that fails in any phase leaves no file; the others keep theirs
        out = Path(cfg.paths.output_dir)
        assert sorted(f.name for f in out.rglob("C00*")) == sorted(
            f"C00{i}{ext}" for i in (0, 1, 3) for ext in (".csv", ".meta.json", ".json", ".json")
        )

    def test_document_fault_fails_one_company_of_its_stack(self, fixture, monkeypatch, capfd):
        """C000 trains in one stack with C001 and C003 (128 training rows
        each): a fault while building C000's model document fails C000
        alone, and the others keep their four files."""
        real = mlp_mod.model_to_dict

        def faulty(model, metadata):
            if metadata["ticker"] == "C000":
                raise ZeroDivisionError("planted fault")
            return real(model, metadata)

        monkeypatch.setattr(mlp_mod, "model_to_dict", faulty)
        monkeypatch.setattr(pipeline_mod, "_cpu_count", lambda: 1)
        root, _ = fixture
        cfg = small_config(root, "out_fault_shared_document")
        cfg.mlp.epochs = 2
        report = run_pipeline(cfg)
        assert [(c["ticker"], c["status"], c.get("n_train")) for c in report["companies"]] == [
            ("C000", "failed", None), ("C001", "ok", 128), ("C002", "ok", 124), ("C003", "ok", 128)
        ]
        assert report["companies"][0]["error"] == "ZeroDivisionError: planted fault"
        assert "C000: unexpected error\nTraceback (most recent call last):" in capfd.readouterr().err
        out = Path(cfg.paths.output_dir)
        assert sorted(f.name for f in out.rglob("C00*")) == sorted(
            f"C00{i}{ext}" for i in (1, 2, 3) for ext in (".csv", ".meta.json", ".json", ".json")
        )

    def test_stack_fault_fails_each_company_of_its_stack(self, fixture, monkeypatch, capfd):
        """A ``train_stack`` fault in the stack of C000, C001 and C003 (128
        training rows each) fails those three, each with its own traceback
        on stderr; C002 (124 rows) trains in its own stack and keeps its
        four files."""
        real = mlp_mod.train_stack

        def faulty(models, datasets, **kwargs):
            if len(datasets[0].y) == 128:
                raise ZeroDivisionError("planted fault")
            return real(models, datasets, **kwargs)

        monkeypatch.setattr(mlp_mod, "train_stack", faulty)
        monkeypatch.setattr(pipeline_mod, "_cpu_count", lambda: 1)
        root, _ = fixture
        cfg = small_config(root, "out_fault_shared_stack")
        cfg.mlp.epochs = 2
        report = run_pipeline(cfg)
        assert [(c["ticker"], c["status"]) for c in report["companies"]] == [
            ("C000", "failed"), ("C001", "failed"), ("C002", "ok"), ("C003", "failed")
        ]
        for i in (0, 1, 3):
            assert report["companies"][i]["error"] == "ZeroDivisionError: planted fault"
        err = capfd.readouterr().err
        for ticker in ("C000", "C001", "C003"):
            assert err.count(f"{ticker}: unexpected error\nTraceback (most recent call last):") == 1
        assert err.count("unexpected error") == 3
        assert err.count("ZeroDivisionError: planted fault") == 3
        out = Path(cfg.paths.output_dir)
        assert sorted(f.name for f in out.rglob("C00*")) == sorted(
            f"C002{ext}" for ext in (".csv", ".meta.json", ".json", ".json")
        )

    def test_outcome_does_not_depend_on_the_warnings_filter(self, fixture, tmp_path, capfd):
        """A learning rate that overflows numpy on the way gives the same
        report entries with RuntimeWarnings as errors as with every warning
        ignored, and no company fails as an unexpected error."""
        root, _ = fixture
        cfg = small_config(root)
        cfg.mlp.epochs = 3
        cfg.mlp.learning_rate = 1.7e308
        entries = []
        for action in ("error", "ignore"):
            cfg.paths.output_dir = str(tmp_path / action)
            with warnings.catch_warnings():
                warnings.simplefilter(action)
                entries.append(run_pipeline(cfg)["companies"])
        assert entries[0] == entries[1]
        assert "unexpected error" not in capfd.readouterr().err

    def test_kernel_independent_outputs_match_under_an_older_blas_kernel(self, fixture, tmp_path):
        """Output bytes hold for one OpenBLAS kernel and numpy SIMD level;
        across them the datasets, the selections, the logit's convergence
        and separation flags and the statuses stay the same, C001 with a
        copy of its ``sentiment`` column included.  One run has the default
        environment, the other the Nehalem kernel forced and this CPU's
        dispatched numpy SIMD levels off."""
        try:
            from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
        except ImportError:  # numpy 1
            from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
        root, _ = fixture
        fixture_copy = tmp_path / "fixture"
        for name in ("membership", "panels"):
            shutil.copytree(root / name, fixture_copy / name)
        add_column(fixture_copy / "panels", "C001", "sentiment_copy",
                   lambda panel: panel.columns["sentiment"])
        src = str(Path(pipeline_mod.__file__).parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        simd_on = [name for name in __cpu_dispatch__ if __cpu_features__.get(name)]
        forced = {"OPENBLAS_CORETYPE": "Nehalem", "NPY_DISABLE_CPU_FEATURES": " ".join(simd_on)}
        runs = {}
        for name, extra in (("forced", forced), ("default", {})):
            proc = subprocess.run(
                [sys.executable, "-c", KERNEL_CHILD, str(fixture_copy), str(tmp_path / name)],
                env={**env, **extra}, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            runs[name] = json.loads(proc.stdout)
            if runs["forced"]["corename"] != "Nehalem":
                pytest.skip(f"OPENBLAS_CORETYPE=Nehalem ran on {runs['forced']['corename']!r}: "
                            "numpy's own OpenBLAS is missing or not an x86 DYNAMIC_ARCH build")
        keys = ("ticker", "status", "selected", "fallback_used", "n_rows", "n_train", "n_test")
        forced_run, default_run = (
            [{**{key: company.get(key) for key in keys},
              **{flag: company["logit"][flag] for flag in ("converged", "separation_detected")}}
             for company in runs[name]["companies"]]
            for name in ("forced", "default")
        )
        assert [company["status"] for company in default_run] == ["ok"] * 4
        assert forced_run == default_run
        forced_datasets, default_datasets = (
            {n: data for n, data in output_tree(tmp_path / name).items() if n.startswith("datasets/")}
            for name in ("forced", "default")
        )
        assert len(default_datasets) == 2 * 4
        assert forced_datasets == default_datasets

    @pytest.mark.parametrize("command", ["pipeline", "build"])
    def test_rerun_removes_a_failed_companys_earlier_files(
        self, fixture, tmp_path, capfd, command
    ):
        """A company that fails on a re-run into the same ``paths.output_dir``
        loses the files an earlier run wrote for it; every other company's
        files stay as they were."""
        root, _ = fixture
        panels = tmp_path / "panels"
        shutil.copytree(root / "panels", panels)
        out = tmp_path / "out"
        argv = [
            command,
            "--paths.membership_dir", str(root / "membership"),
            "--paths.panels_dir", str(panels),
            "--paths.output_dir", str(out),
            "--mlp.epochs", "2",
        ]

        def company_trees():
            tree = output_tree(out)
            c000 = {name for name in tree if "C000" in name}
            return c000, {n: b for n, b in tree.items() if n not in c000 and "report" not in n}

        assert main(argv) == 0
        c000_before, others_before = company_trees()
        assert len(c000_before) == (4 if command == "pipeline" else 2)
        assert len(others_before) == 3 * len(c000_before)
        header = (panels / "C000.csv").read_text().split("\n")[0]
        (panels / "C000.csv").write_text(header + "\n")
        assert main(argv) == (0 if command == "pipeline" else 2)
        assert "Traceback" not in capfd.readouterr().err
        assert company_trees() == (set(), others_before)
        assert not list(out.rglob("C000*"))

    def test_dead_worker_ends_the_run_with_exit_3(self, fixture, tmp_path, monkeypatch, capfd):
        """A worker process that dies (here by ``os._exit`` while it prepares
        C003) ends the run with exit 3 and a message, not a traceback, and
        no report is written."""
        parent = os.getpid()
        real = pipeline_mod._prepare

        def dying(ticker, *args):
            if ticker == "C003" and os.getpid() != parent:
                os._exit(1)
            return real(ticker, *args)

        monkeypatch.setattr(pipeline_mod, "_prepare", dying)
        monkeypatch.setattr(pipeline_mod, "_cpu_count", lambda: 2)
        root, _ = fixture
        out = tmp_path / "out"
        assert main([
            "pipeline",
            "--paths.membership_dir", str(root / "membership"),
            "--paths.panels_dir", str(root / "panels"),
            "--paths.output_dir", str(out),
            "--mlp.epochs", "2",
        ]) == 3
        err = capfd.readouterr().err
        assert err == "error: a worker process died, so no report was written\n"
        assert not (out / "report.json").exists()

    def test_write_atomic_replaces_through_a_temp_file(self, tmp_path, monkeypatch):
        target = tmp_path / "report.txt"
        target.write_text("old", "utf-8")
        renames = []
        real_replace = os.replace

        def replace(src, dst):
            renames.append((Path(src), Path(dst)))
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        write_files(tmp_path, {"report.txt": "new \u00e9\n"})
        assert target.read_bytes() == "new \u00e9\n".encode("utf-8")
        ((temp, dst),) = renames
        assert dst == target and temp.parent == tmp_path and str(os.getpid()) in temp.name
        # a write that fails keeps the old file and leaves no temp file
        with pytest.raises(UnicodeEncodeError):
            write_files(tmp_path, {"report.txt": "\ud800"})
        assert target.read_bytes() == "new \u00e9\n".encode("utf-8")
        assert [f.name for f in tmp_path.iterdir()] == ["report.txt"]

    def test_pipeline_leaves_no_temp_file(self, fixture):
        root, _ = fixture
        cfg = small_config(root, "out_atomic")
        report = run_pipeline(cfg)
        out = Path(cfg.paths.output_dir)
        assert not [f for f in out.rglob("*") if f.name.endswith(".tmp")]
        assert (out / "report.json").read_text("utf-8") == render_report(report, "json")
        assert (out / "report.txt").read_text("utf-8") == render_report(report, "text")


class TestRenderReport:
    def one_company_report(self, accuracy):
        return {
            "companies": [
                {
                    "ticker": "C000",
                    "status": "ok",
                    "eval": {"accuracy": accuracy},
                }
            ],
            "mean_accuracy": accuracy,
        }

    def test_percentage_formatting(self):
        text = render_report(self.one_company_report(0.6876), "text")
        assert "C000" in text
        assert "68.76%" in text

    def test_json_roundtrip(self, fixture):
        root, _ = fixture
        cfg = small_config(root, "out_roundtrip")
        report = run_pipeline(cfg)
        again = json.loads(render_report(report, "json"))
        assert again == report

    def test_empty_report_rejected(self):
        with pytest.raises(ValidationError):
            render_report({"companies": []}, "text")

    def test_failures_listed(self):
        report = self.one_company_report(0.7)
        report["companies"].append(
            {"ticker": "C009", "status": "failed", "error": "boom"}
        )
        text = render_report(report, "text")
        assert "C009: boom" in text


class TestCohortReport:
    def test_document_shape(self, fixture):
        root, _ = fixture
        snapshots = load_membership_dir(root / "membership")
        doc = cohort_report(snapshots, per_group=1, seed=5, allow_deficient=True)
        assert len(doc["groups"]) == 5
        assert len(doc["group_boundaries"]) == 6
        assert doc["generator"] == "numpy-pcg64"
        total = sum(g["size"] for g in doc["groups"])
        assert total == 4
        assert doc["sample"]


class TestCli:
    def test_pipeline_subcommand_and_seed_override(self, fixture, capsys):
        root, _ = fixture
        out = root / "out_cli"
        code = main([
            "pipeline",
            "--paths.membership_dir", str(root / "membership"),
            "--paths.panels_dir", str(root / "panels"),
            "--paths.output_dir", str(out),
            "--mlp.epochs", "30",
            "--mlp.seed", "5",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "Company Name | Accuracy" in captured.out
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["mlp"]["seed"] == 5

    def test_config_file_via_env_var(self, fixture, tmp_path, monkeypatch, capsys):
        root, _ = fixture
        config = {
            "paths": {
                "membership_dir": str(root / "membership"),
                "panels_dir": str(root / "panels"),
                "output_dir": str(tmp_path / "out_env"),
            },
            "mlp": {"epochs": 25},
            "tickers": ["C000"],
        }
        file = tmp_path / "config.json"
        file.write_text(json.dumps(config))
        monkeypatch.setenv("PRICEDIR_CONFIG", str(file))
        assert main(["pipeline"]) == 0
        report = json.loads((tmp_path / "out_env" / "report.json").read_text())
        assert report["n_companies"] == 1

    def test_configuration_error_exits_1(self, tmp_path, capsys):
        code = main([
            "pipeline",
            "--paths.membership_dir", str(tmp_path / "m"),
            "--paths.panels_dir", str(tmp_path / "p"),
            "--paths.output_dir", str(tmp_path / "o"),
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_flag_value_exits_1(self, fixture, capsys):
        root, _ = fixture
        code = main([
            "pipeline",
            "--paths.membership_dir", str(root / "membership"),
            "--paths.panels_dir", str(root / "panels"),
            "--paths.output_dir", str(root / "out_badflag"),
            "--mlp.epochs", "many",
        ])
        assert code == 1

    def test_data_error_exits_2(self, fixture, tiny_dataset, tmp_path, capsys):
        code = main(["logit", "--dataset", str(tmp_path / "missing.csv")])
        assert code == 2
        bad_report = tmp_path / "report.json"
        bad_report.write_text('{"companies": [')
        assert main(["report", "--input", str(bad_report)]) == 2
        assert str(bad_report) in capsys.readouterr().err
        # a report or model document nested deeper than the JSON parser recurses
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000 + "]" * 100000)
        for what, argv in (("report", ["report", "--input", str(deep)]),
                           ("model", ["evaluate", "--dataset", str(tiny_dataset),
                                      "--model", str(deep)])):
            assert main(argv) == 2
            assert capsys.readouterr().err.startswith(
                f"error: {what} file {deep} is not valid JSON: maximum recursion depth exceeded"
            )
        # well-formed JSON that is not a report, or has a company neither ok nor failed
        unknown_status = {**REPORT, "companies": [{**REPORT["companies"][0], "status": "k"},
                                                  REPORT["companies"][1]]}
        for text in ('[]', '{"companies": [{"ticker": "A"}]}', json.dumps(unknown_status)):
            bad_report.write_text(text)
            for fmt in ("text", "json"):
                assert main(["report", "--format", fmt, "--input", str(bad_report)]) == 2
                assert str(bad_report) in capsys.readouterr().err
        # a format argparse does not offer is a usage error, before the file is read
        with pytest.raises(SystemExit) as info:
            main(["report", "--format", "xml", "--input", str(bad_report)])
        assert info.value.code == 2
        assert "invalid choice: 'xml'" in capsys.readouterr().err
        not_utf8 = tmp_path / "latin1.csv"
        not_utf8.write_bytes(b"date,y,a\n2002-01-04,1,0.5\xff\n")
        assert main(["logit", "--dataset", str(not_utf8)]) == 2
        assert str(not_utf8) in capsys.readouterr().err
        stray_return = tmp_path / "return.csv"
        stray_return.write_bytes(b"date,y,a\n2002-01-04,1,0.5\r7\n")
        assert main(["logit", "--dataset", str(stray_return)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {stray_return}, line 2: new-line character seen in unquoted field"
        )
        # a dataset file without its label column, or with a label other than 0 and 1
        for name, text, problem in (("no_label.csv", "date,x,a", "missing 'y' column"),
                                    ("label_2.csv", "date,y,a", "'y' must contain only 0 and 1")):
            bad = tmp_path / name
            bad.write_text(f"{text}\n2002-01-04,1,0.5\n2002-01-11,2,0.5\n")
            for argv in (["logit"], ["train", "--out", str(tmp_path / "model.json")],
                         ["evaluate", "--model", str(tmp_path / "model.json")]):
                assert main([*argv, "--dataset", str(bad)]) == 2
                assert capsys.readouterr().err == f"error: {bad}: {problem}\n"
        # a dataset file with an empty cell: its last, in the test part
        text = tiny_dataset.read_text()
        emptied = tmp_path / "emptied.csv"
        emptied.write_text(text[:text.rindex(",") + 1] + "\n")
        for argv in (["logit"], ["train", "--out", str(tmp_path / "model.json")],
                     ["evaluate", "--model", str(tmp_path / "model.json")]):
            assert main([*argv, "--dataset", str(emptied)]) == 2
            assert capsys.readouterr().err == (
                f"error: {emptied}, line 21, column 'f1': empty cell\n"
            )
        # a dataset file whose header lacks one of the model's features
        lost = tmp_path / "tiny_lost.csv"
        lost.write_text(tiny_dataset.read_text().replace("date,y,f0,f1\n", "date,y,f0,f\n", 1))
        model = tmp_path / "features.json"
        model.write_text(json.dumps({**TINY_MODEL, "metadata": {"features": ["f0", "f1"]}}))
        assert main(["evaluate", "--dataset", str(lost), "--model", str(model)]) == 2
        assert capsys.readouterr().err == (
            f"error: {lost}: missing the model's feature columns ['f1']\n"
        )
        # a dataset file with too few rows to fit the logit or to split
        rows = ["2002-01-04,1,0.5,0.25", "2002-01-11,0,0.75,0.5"]
        for n in (0, 1, 2):
            short = tmp_path / f"short{n}.csv"
            short.write_text("\n".join(["date,y,f0,f1", *rows[:n]]) + "\n")
            assert main(["logit", "--dataset", str(short)]) == 2
            assert capsys.readouterr().err == (
                f"error: dataset short{n}: need n > m + 1 rows, have n={n}, m=2\n"
            )
            assert main(["train", "--dataset", str(short), "--out", str(tmp_path / "m.json")]) == 2
            assert capsys.readouterr().err == (
                f"error: dataset short{n}: need at least 5 rows, have {n}\n"
            )
        # a cohort group smaller than the sample, without --allow-deficient
        root, _ = fixture
        assert main(["cohort", "--membership-dir", str(root / "membership"),
                     "--per-group", "10"]) == 2
        assert capsys.readouterr().err == "error: group 0 has 1 members, need 10\n"
        # membership files that list no ticker
        empty = tmp_path / "no_tickers"
        empty.mkdir()
        (empty / "constituents_2002-01-04.csv").write_text("# effective_date=2002-01-04\nticker\n")
        assert main(["cohort", "--membership-dir", str(empty)]) == 2
        assert capsys.readouterr().err == f"error: no membership file in {empty} lists a ticker\n"

    def test_panels_that_give_no_dataset_exit_2(self, fixture, tmp_path, capsys):
        """A panels directory without a panel file, and, in membership target
        mode at ``dataset.max_missing_fraction`` 0, a panel in which every
        feature column has a blank cell, are data errors that name them."""
        root, _ = fixture
        panels = tmp_path / "panels"
        panels.mkdir()
        base = ["--paths.membership_dir", str(root / "membership"),
                "--paths.panels_dir", str(panels), "--paths.output_dir", str(tmp_path / "out"),
                "--mlp.epochs", "2"]
        assert main(["pipeline", *base]) == 2
        assert capsys.readouterr().err == f"error: no panel files in {panels}\n"
        header, first, second, *rest = (root / "panels" / "C000.csv").read_text().splitlines()
        date, price, *features = second.split(",")
        blanked = ",".join([date, price, *[""] * len(features)])
        (panels / "C000.csv").write_text("\n".join([header, first, blanked, *rest]) + "\n")
        sparse = [*base, "--target_mode", "membership", "--dataset.max_missing_fraction", "0"]
        problem = "panel C000: every feature column was dropped"
        assert main(["build", *sparse]) == 2
        assert capsys.readouterr().err == f"error: C000: {problem}\n"
        assert main(["pipeline", *sparse]) == 3
        assert capsys.readouterr().err == f"error: no company succeeded (C000: {problem})\n"

    def test_diverging_train_exits_2(self, tmp_path, capsys):
        """A loss that turns non-finite exits 2 naming the epoch, and writes no model."""
        rng = np.random.default_rng(2)
        X = rng.random((60, 4))
        y = (rng.random(60) < X.mean(axis=1)).astype(int)
        X = (X - 0.5) * 1e200  # signed and huge: the sigmoids saturate and the loss turns NaN
        dataset = tmp_path / "BIG.csv"
        dataset.write_text("date,y,f0,f1,f2,f3\n" + "".join(
            f"{day},{label},{','.join(map(repr, row))}\n"
            for day, label, row in zip(weekly_dates(60), y, X.tolist())
        ))
        model = tmp_path / "model.json"
        code = main(["train", "--dataset", str(dataset), "--out", str(model),
                     "--mlp.hidden_sizes", "[]", "--mlp.batch_size", "16",
                     "--mlp.learning_rate", "0.5", "--mlp.epochs", "4"])
        assert code == 2
        assert capsys.readouterr().err == "error: non-finite loss at epoch 1\n"
        assert not model.exists()

    def test_pipeline_error_exits_3(self, fixture, tmp_path, capsys):
        root, _ = fixture
        panels = tmp_path / "panels"
        panels.mkdir()
        panels.joinpath("BAD.csv").write_text("date,foo\n2002-01-04,1.0\n2002-01-11,2.0\n")
        code = main([
            "pipeline",
            "--paths.membership_dir", str(root / "membership"),
            "--paths.panels_dir", str(panels),
            "--paths.output_dir", str(tmp_path / "out"),
        ])
        assert code == 3

    def test_build_logit_train_evaluate_chain(self, fixture, tmp_path, capsys):
        root, _ = fixture
        out = tmp_path / "chain"
        base = [
            "--paths.membership_dir", str(root / "membership"),
            "--paths.panels_dir", str(root / "panels"),
            "--paths.output_dir", str(out),
        ]
        assert main(["build", *base, "--tickers", "C000"]) == 0
        dataset = out / "datasets" / "C000.csv"
        assert dataset.is_file()

        assert main(["logit", "--dataset", str(dataset),
                     "--out", str(tmp_path / "logit.json")]) == 0
        logit_doc = json.loads((tmp_path / "logit.json").read_text())
        assert logit_doc["ticker"] == "C000"
        assert {c["name"] for c in logit_doc["coefficients"]} >= {"intercept", "in_index"}

        model_path = tmp_path / "model.json"
        assert main(["train", "--dataset", str(dataset), "--out", str(model_path),
                     "--mlp.epochs", "30", "--features", "in_index,sentiment,trades"]) == 0
        model_doc = json.loads(model_path.read_text())
        assert model_doc["layer_sizes"][0] == 3
        for hidden in ("a", "[1.5, 2.9]"):
            assert main(["train", "--dataset", str(dataset), "--out", str(model_path),
                         "--mlp.hidden_sizes", hidden]) == 1
            assert "bad value for 'mlp.hidden_sizes'" in capsys.readouterr().err
        for rate in ("nan", "inf", "-inf"):
            assert main(["train", "--dataset", str(dataset), "--out", str(tmp_path / "bad.json"),
                         "--mlp.epochs", "2", f"--mlp.learning_rate={rate}"]) == 1
            assert "mlp.learning_rate must be finite and >= 0" in capsys.readouterr().err
        assert not (tmp_path / "bad.json").exists()

        assert main(["evaluate", "--dataset", str(dataset),
                     "--model", str(model_path)]) == 0
        captured = capsys.readouterr()
        assert "C000 | " in captured.out
        assert "%" in captured.out

        # a broken model file ends in an error exit naming the problem
        not_json = tmp_path / "not_json.json"
        not_json.write_text("{ nope")
        assert main(["evaluate", "--dataset", str(dataset), "--model", str(not_json)]) == 2
        assert str(not_json) in capsys.readouterr().err
        no_sizes = tmp_path / "no_sizes.json"
        no_sizes.write_text(json.dumps({"weights": [], "biases": []}))
        assert main(["evaluate", "--dataset", str(dataset), "--model", str(no_sizes)]) == 1
        assert "layer_sizes" in capsys.readouterr().err

    def test_evaluate_splits_at_the_models_train_fraction(self, tiny_dataset, tmp_path):
        """A model trained at one ``dataset.train_fraction`` is tested on
        the rows after its own training part, whatever the fraction given
        to ``evaluate``; a model file without the key uses the config's."""
        model_file, eval_file = tmp_path / "model.json", tmp_path / "eval.json"
        data = ["--dataset", str(tiny_dataset)]
        assert main(["train", *data, "--out", str(model_file), "--mlp.epochs", "1",
                     "--dataset.train_fraction", "0.9"]) == 0
        doc = json.loads(model_file.read_text())
        assert doc["metadata"]["train_fraction"] == 0.9

        def n_test(*flags):
            assert main(["evaluate", *data, "--model", str(model_file),
                         "--out", str(eval_file), *flags]) == 0
            return json.loads(eval_file.read_text())["n_test"]

        assert n_test() == n_test("--dataset.train_fraction", "0.7") == 2  # 18 rows trained
        del doc["metadata"]["train_fraction"]
        model_file.write_text(json.dumps(doc))
        assert n_test() == 4 and n_test("--dataset.train_fraction", "0.9") == 2

    @pytest.mark.parametrize("alpha", ["0.05", "1e-12"])
    def test_step_by_step_reproduces_pipeline(self, fixture, tmp_path, capsys, alpha):
        """build, logit, train on logit's selection (on every column, without
        ``--features``, when it is empty), evaluate, each given the pipeline's
        own argv: the pipeline's files."""
        root, _ = fixture
        config = [
            "--paths.membership_dir", str(root / "membership"),
            "--paths.panels_dir", str(root / "panels"),
            "--tickers", "C000",
            "--mlp.seed", "5",
            "--mlp.epochs", "40",
            "--dataset.train_fraction", "0.75",
            "--mlp.hidden_sizes", "4,3",
            "--logit.alpha", alpha,
        ]
        piped = tmp_path / "piped"
        assert main(["pipeline", *config, "--paths.output_dir", str(piped)]) == 0
        assert main(["build", *config, "--paths.output_dir", str(tmp_path / "built")]) == 0
        dataset = str(tmp_path / "built" / "datasets" / "C000.csv")
        logit_file, model_file, eval_file = (
            tmp_path / name for name in ("logit.json", "model.json", "eval.json")
        )
        assert main(["logit", *config, "--dataset", dataset, "--out", str(logit_file)]) == 0
        selected = json.loads(logit_file.read_text())["selected"]
        assert bool(selected) == (alpha == "0.05")
        features = ["--features", ",".join(selected)] if selected else []
        assert main(["train", *config, "--dataset", dataset, "--out", str(model_file),
                     *features]) == 0
        assert main(["evaluate", *config, "--dataset", dataset, "--model", str(model_file),
                     "--out", str(eval_file)]) == 0
        assert logit_file.read_bytes() == (piped / "logit" / "C000.json").read_bytes()
        assert model_file.read_bytes() == (piped / "models" / "C000.json").read_bytes()
        (entry,) = json.loads((piped / "report.json").read_text())["companies"]
        assert eval_file.read_text() == json.dumps(entry["eval"], indent=2) + "\n"
        metadata = json.loads(model_file.read_text())["metadata"]
        assert entry["seeds"] == {"init": metadata["init_seed"], "train": metadata["shuffle_seed"]}
        assert entry["final_train_loss"] == metadata["final_loss"]

    @pytest.mark.parametrize("argv, model, named", [
        pytest.param(EVALUATE, WIDE_MODEL, "model expects 3 features", id="model-width"),
        pytest.param(EVALUATE, {**TINY_MODEL, "metadata": []}, "'metadata'",
                     id="metadata-not-object"),
        pytest.param(EVALUATE, {**TINY_MODEL, "metadata": {"features": 7}}, "'features'",
                     id="features-not-names"),
        *(pytest.param(EVALUATE, {**TINY_MODEL, "metadata": {"train_fraction": value}},
                       "model metadata key 'train_fraction' must be a number in (0, 1)",
                       id=f"train-fraction-{value!r}")
          for value in (1.0, 0.0, -0.5, float("nan"), 1, True, "0.8", None)),
        pytest.param(["train", "--dataset", "{data}", "--mlp.epochs", "1", "--out", "{missing}"],
                     TINY_MODEL, "--out {missing}", id="train-out"),
        pytest.param(["logit", "--dataset", "{data}", "--out", "{taken}"],
                     TINY_MODEL, "--out {taken}", id="logit-out"),
        pytest.param([*EVALUATE, "--out", "{missing}"], TINY_MODEL, "--out {missing}",
                     id="evaluate-out"),
        pytest.param(["cohort", "--membership-dir", "{membership}", "--per-group", "1",
                      "--allow-deficient", "--out", "{taken}"],
                     TINY_MODEL, "--out {taken}", id="cohort-out"),
        pytest.param(["cohort", "--membership-dir", "{membership}", "--per-group", "1",
                      "--allow-deficient", "--seed", "-1"],
                     TINY_MODEL, "--seed must be >= 0, got -1", id="cohort-negative-seed"),
        pytest.param(["cohort", "--membership-dir", "{membership}", "--per-group", "0"],
                     TINY_MODEL, "--per-group must be >= 1, got 0", id="cohort-per-group-0"),
        *(pytest.param(["synth", "--out", "{built}", "--companies", "2", "--weeks", "10", *flag],
                       TINY_MODEL, named, id=f"synth{'='.join(flag)}")
          for flag, named in (
              (["--companies", "0"], "--companies must be >= 1, got 0"),
              (["--weeks", "2"], "--weeks must be >= 3, got 2"),
              (["--switch-prob", "2"], "--switch-prob must be in [0, 1], got 2.0"),
              (["--missing-prob", "nan"], "--missing-prob must be in [0, 1], got nan"),
          )),
        pytest.param(["train", "--dataset", "{data}", "--mlp.epochs", "1", "--features", "f0,f0",
                      "--out", "{taken}/model.json"],
                     TINY_MODEL, "dataset TINY: repeated columns ['f0']", id="train-features-repeat"),
        pytest.param(["train", "--dataset", "{data}", "--mlp.epochs", "1", "--features", "f0,f9",
                      "--out", "{taken}/model.json"],
                     TINY_MODEL, "dataset TINY: unknown columns ['f9']", id="train-features-unknown"),
        pytest.param(EVALUATE, {**TINY_MODEL, "metadata": {"features": ["f0", "f0"]}},
                     "model file {model}: model metadata key 'features' must name 2 distinct "
                     "columns, got ['f0', 'f0']", id="evaluate-features-repeat"),
        pytest.param(EVALUATE, {**TINY_MODEL, "metadata": {"features": ["f0"]}},
                     "model file {model}: model metadata key 'features' must name 2 distinct "
                     "columns, got ['f0']", id="evaluate-features-cut"),
        pytest.param(EVALUATE, {**TINY_MODEL, "metadata": {"train_fraction": 1}},
                     "model file {model}: model metadata key 'train_fraction'",
                     id="evaluate-train-fraction-names-the-model"),
        pytest.param(EVALUATE, {**TINY_MODEL, "weights": [[[float("nan"), 0.5]]]}, "'weights'",
                     id="weights-not-finite"),
        pytest.param(EVALUATE, {**TINY_MODEL, "biases": [[float("inf")]]}, "'biases'",
                     id="biases-not-finite"),
        pytest.param(EVALUATE, {**TINY_MODEL, "weights": [[["0.5", "0.5"]]]}, "'weights'",
                     id="weights-strings"),
        pytest.param(EVALUATE, {**TINY_MODEL, "biases": [[True]]}, "'biases'",
                     id="biases-bool"),
        pytest.param(EVALUATE, {**TINY_MODEL, "weights": [[[10**400, 0.5]]]}, "'weights'",
                     id="weights-int-overflows-float"),
        pytest.param(EVALUATE, {**TINY_MODEL, "weights": functools.reduce(
                         lambda value, _: [value], range(600), 0.5)},
                     "model file {model}: model document key 'weights'", id="weights-nested-600"),
        pytest.param(EVALUATE, {**TINY_MODEL, "layer_sizes": "21"}, "'layer_sizes'",
                     id="layer-sizes-string"),
        pytest.param(EVALUATE, {**TINY_MODEL, "layer_sizes": [2.7, 1]}, "'layer_sizes'",
                     id="layer-sizes-float"),
        pytest.param(EVALUATE, {**TINY_MODEL, "layer_sizes": [2, True]}, "'layer_sizes'",
                     id="layer-sizes-bool"),
        pytest.param(EVALUATE, {**TINY_MODEL, "layer_sizes": [2], "weights": [], "biases": []},
                     "'layer_sizes'", id="layer-sizes-no-output"),
        pytest.param(EVALUATE, {**TINY_MODEL, "layer_sizes": [], "weights": [], "biases": []},
                     "'layer_sizes'", id="layer-sizes-empty"),
        pytest.param(EVALUATE, {**TINY_MODEL, "layer_sizes": [2, 3],
                                "weights": [[[0.5, 0.5]] * 3], "biases": [[0.0] * 3]},
                     "'layer_sizes'", id="layer-sizes-3-outputs"),
        pytest.param([*BUILD, "--mlp.hidden_sizes=" + "[" * 100000], TINY_MODEL,
                     "bad value for 'mlp.hidden_sizes'", id="build-hidden-sizes-nested"),
        pytest.param(["logit", "--dataset", "{data}", "--logit.alpha", "7"], TINY_MODEL,
                     "logit.alpha", id="logit-alpha"),
        pytest.param(["logit", "--dataset", "{data}", "--logit.tol", "nan"], TINY_MODEL,
                     "logit.tol", id="logit-tol-nan"),
        pytest.param(["logit", "--dataset", "{data}", "--logit.max_iter", "0"], TINY_MODEL,
                     "logit.max_iter", id="logit-max-iter-0"),
        *(pytest.param([*BUILD, f"--{dotted}={text}"], TINY_MODEL, f"{dotted} must",
                       id=f"build-{dotted}={text!r}")
          for dotted, text in (
              ("tickers", ""), ("tickers", "[]"), ("tickers", "C000,"),
              ("tickers", "C000,C000"), ("dataset.lag_features", ""),
              ("dataset.lag_features", "total_return,total_return"),
              ("dataset.price_column", ""), ("mlp.epochs", "0"), ("mlp.batch_size", "0"),
              ("mlp.learning_rate", "-1"), ("mlp.threshold", "1"), ("mlp.hidden_sizes", "0"),
              ("dataset.max_missing_fraction", "1.5"),
          )),
    ])
    def test_malformed_input_exits_1_naming_it(
        self, fixture, tiny_dataset, tmp_path, capsys, argv, model, named
    ):
        """A malformed model file, a config value out of range, an empty or
        repeated name (ticker, lag feature, price column, network feature),
        a ``synth`` or ``cohort`` flag out of range or an unwritable ``--out`` (a missing
        directory, or a directory in the file's place) exits 1 with a
        message that names it, and leaves no file behind."""
        root, _ = fixture
        paths = {
            "data": tiny_dataset,
            "model": tmp_path / "model.json",
            "missing": tmp_path / "no_such_dir" / "out.json",
            "taken": tmp_path / "taken",
            "membership": root / "membership",
            "panels": root / "panels",
            "built": tmp_path / "built",
        }
        paths["model"].write_text(json.dumps(model))
        paths["taken"].mkdir()

        def fill(text):
            return text.format(**{key: str(path) for key, path in paths.items()})

        assert main([fill(arg) for arg in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and fill(named) in err
        assert sorted(f.name for f in tmp_path.rglob("*")) == ["model.json", "taken"]

    def test_fifo_as_out_is_refused(self, tiny_dataset, tmp_path, capsys):
        """An ``--out`` that names a FIFO exits 1 naming it and stays a FIFO:
        the rename into place would have replaced it with a regular file."""
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        for argv in (["logit"], ["train", "--mlp.epochs", "1"]):
            assert main([*argv, "--dataset", str(tiny_dataset), "--out", str(fifo)]) == 1
            err = capsys.readouterr().err
            assert err == f"error: --out {fifo}: cannot write (exists and is not a regular file)\n"
            assert fifo.is_fifo()
            assert [f.name for f in tmp_path.iterdir()] == ["fifo"]

    @pytest.mark.parametrize("command, blocked, problem", [
        pytest.param("build", "", "cannot create datasets/", id="build-out-is-file"),
        pytest.param("build", "datasets", "cannot create datasets/", id="build-datasets-is-file"),
        pytest.param("pipeline", "", "cannot create datasets/", id="pipeline-out-is-file"),
        pytest.param("pipeline", "models", "cannot create models/", id="pipeline-models-is-file"),
        pytest.param("pipeline", "report.json/", "cannot write report.json",
                     id="pipeline-report-is-dir"),
    ])
    def test_unusable_output_dir_exits_1_naming_it(
        self, fixture, tmp_path, capfd, command, blocked, problem
    ):
        """A file where the output directory or one of its subdirectories
        goes, or a directory where ``report.json`` goes, exits 1 naming
        ``paths.output_dir`` with no traceback, and stays as it was."""
        root, _ = fixture
        out = tmp_path / "out"
        blocker = out / blocked
        if blocked.endswith("/"):
            blocker.mkdir(parents=True)
        else:
            blocker.parent.mkdir(parents=True, exist_ok=True)
            blocker.write_text("in the way")
        code = main([
            command,
            "--paths.membership_dir", str(root / "membership"),
            "--paths.panels_dir", str(root / "panels"),
            "--paths.output_dir", str(out),
            "--mlp.epochs", "2",
            "--tickers", "C000",
        ])
        assert code == 1
        err = capfd.readouterr().err
        assert err.startswith(f"error: paths.output_dir {out}: {problem} (")
        assert "Traceback" not in err
        assert blocker.is_dir() if blocked.endswith("/") else blocker.read_text() == "in the way"
        assert not [f for f in tmp_path.rglob("*") if f.name.endswith(".tmp")]

    # two workers fork, one runs in-process; the forked case's id is the file's name
    @pytest.mark.parametrize("blocked, workers", [
        pytest.param(blocked, workers, id=blocked + suffix)
        for workers, suffix in ((2, ""), (1, "-in-process"))
        for blocked in (
            "datasets/C000.csv", "datasets/C000.meta.json", "logit/C000.json", "models/C000.json",
        )
    ])
    def test_blocked_company_file_fails_that_company(
        self, fixture, tmp_path, capfd, monkeypatch, blocked, workers
    ):
        """A directory in place of one company's output file fails that company
        with a message naming ``paths.output_dir`` and the file, and no
        traceback; the other company runs, and the directory stays.  The
        company leaves no other file, whichever of its files is blocked,
        whether it runs in-process or in a worker."""
        monkeypatch.setattr(pipeline_mod, "_cpu_count", lambda: workers)
        root, _ = fixture
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        base = [
            "--paths.membership_dir", str(root / "membership"),
            "--paths.panels_dir", str(root / "panels"),
            "--paths.output_dir", str(out),
            "--mlp.epochs", "2",
            "--tickers", "C000,C001",
        ]
        problem = (
            f"paths.output_dir {out}: cannot write {blocked} (exists and is not a regular file)"
        )
        assert main(["pipeline", *base]) == 0
        assert "Traceback" not in capfd.readouterr().err
        report = json.loads((out / "report.json").read_text())
        c000, c001 = report["companies"]
        assert (c000["status"], c000["error"]) == ("failed", problem)
        assert c001["status"] == "ok"
        assert (out / blocked).is_dir()
        if blocked.startswith("datasets/"):
            assert main(["build", *base]) == 2
            captured = capfd.readouterr()
            assert captured.err == f"error: C000: {problem}\n"
            assert captured.out == f"built C001: {c001['n_rows']} rows\n"
            assert (out / blocked).is_dir()
        assert not [f for f in out.rglob("*") if f.name.endswith(".tmp")]
        c000_files = [str(f.relative_to(out)) for f in out.rglob("C000*")]
        assert c000_files == [blocked]

    def test_build_and_pipeline_write_identical_datasets(self, fixture, tmp_path, capsys):
        root, _ = fixture
        base = [
            "--paths.membership_dir", str(root / "membership"),
            "--paths.panels_dir", str(root / "panels"),
            "--mlp.epochs", "5",
            "--tickers", "C000,C001",
        ]
        assert main(["build", *base, "--paths.output_dir", str(tmp_path / "b")]) == 0
        assert main(["pipeline", *base, "--paths.output_dir", str(tmp_path / "p")]) == 0
        cfg = small_config(root)
        snapshots = load_membership_dir(cfg.paths.membership_dir)
        for ticker in ("C000", "C001"):
            for name in (f"{ticker}.csv", f"{ticker}.meta.json"):
                built = (tmp_path / "b" / "datasets" / name).read_bytes()
                piped = (tmp_path / "p" / "datasets" / name).read_bytes()
                assert built == piped, name
            # the sidecar is the build's ``info``, its columns ``assemble_dataset``'s record
            meta = json.loads((tmp_path / "b" / "datasets" / f"{ticker}.meta.json").read_text())
            assert list(meta) == ["ticker", "dropped_columns", "timespan", "n_rows", "columns"]
            header = (tmp_path / "b" / "datasets" / f"{ticker}.csv").read_text().split("\n", 1)[0]
            assert ["date", "y", *meta["columns"]] == header.split(",")
            for record in meta["columns"].values():
                assert list(record) == [
                    "raw_min", "raw_max", "mean_used", "imputed_count", "degenerate"
                ]
            panel = parse_company_panel((root / "panels" / f"{ticker}.csv").read_text(), ticker)
            _, info = build_company_dataset(panel, snapshots, cfg)
            assert meta == {"ticker": ticker, **info}

    def test_fixture_and_built_datasets_have_pinned_bytes(self, tmp_path):
        """A small uncalibrated fixture with missing cells, and the datasets
        ``build`` makes from it, keep their exact bytes.  Neither step calls
        BLAS: PCG64 draws, ``repr`` and elementwise numpy operations are all
        there is, so the digests hold on any platform."""
        fixture = tmp_path / "fixture"
        write_fixture(fixture, n_companies=3, n_weeks=60, switch_prob=0.1, missing_prob=0.2,
                      seed=5, planted=default_planted(), signal_scale=1.0)
        assert main(["build", "--paths.membership_dir", str(fixture / "membership"),
                     "--paths.panels_dir", str(fixture / "panels"),
                     "--paths.output_dir", str(tmp_path / "built")]) == 0

        def tree_digest(root):
            # each file in path order: its relative path, a NUL, then its bytes
            digest = hashlib.sha256()
            for file in sorted(p for p in root.rglob("*") if p.is_file()):
                digest.update(str(file.relative_to(root)).encode() + b"\0")
                digest.update(file.read_bytes())
            return digest.hexdigest()

        assert tree_digest(fixture) == (
            "6a9d2a495a54fc4bfac80fcd1a4d7fc2e64c8bc4a09821f30cd5b376b9a91b41"
        )
        assert tree_digest(tmp_path / "built" / "datasets") == (
            "e770e9b56e063f1bf17e69914a63a93045b4622908388ff9d780e5d0bc058cd6"
        )

    def test_build_fails_soft(self, fixture, tmp_path, capsys):
        root, _ = fixture
        panels = tmp_path / "panels"
        panels.mkdir()
        for ticker in ("C000", "C002"):
            panels.joinpath(f"{ticker}.csv").write_bytes(
                (root / "panels" / f"{ticker}.csv").read_bytes()
            )
        panels.joinpath("C001.csv").write_text("date,foo\n2002-01-04,1.0\n2002-01-11,2.0\n")
        # a feature column named like the dataset file's label column
        panels.joinpath("C003.csv").write_text(
            (root / "panels" / "C003.csv").read_text().replace(",noise_a,", ",y,", 1)
        )
        out = tmp_path / "out"
        code = main([
            "build",
            "--paths.membership_dir", str(root / "membership"),
            "--paths.panels_dir", str(panels),
            "--paths.output_dir", str(out),
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: C001: ")
        assert captured.err.endswith(
            "error: C003: panel C003: feature column 'y' is the dataset file's label\n"
        )
        assert "built C000" in captured.out and "built C002" in captured.out
        built = sorted(p.name for p in (out / "datasets").iterdir())
        assert built == ["C000.csv", "C000.meta.json", "C002.csv", "C002.meta.json"]

    def test_directory_in_place_of_input_file_is_a_data_error(self, fixture, tmp_path, capfd):
        root, _ = fixture
        panels = tmp_path / "panels"
        shutil.copytree(root / "panels", panels)
        (panels / "ZZZ.csv").mkdir()
        base = [
            "--paths.membership_dir", str(root / "membership"),
            "--paths.panels_dir", str(panels),
            "--mlp.epochs", "2",
        ]
        # build reports the company and builds the rest
        assert main(["build", *base, "--paths.output_dir", str(tmp_path / "b")]) == 2
        captured = capfd.readouterr()
        assert captured.err.startswith(f"error: ZZZ: {panels / 'ZZZ.csv'}: cannot read")
        assert "Traceback" not in captured.err and "built C003" in captured.out
        # pipeline records a data error for it and runs the rest
        assert main(["pipeline", *base, "--paths.output_dir", str(tmp_path / "p")]) == 0
        assert "Traceback" not in capfd.readouterr().err
        report = json.loads((tmp_path / "p" / "report.json").read_text())
        zzz = report["companies"][-1]
        assert zzz["ticker"] == "ZZZ" and zzz["status"] == "failed"
        assert zzz["error"].startswith(f"{panels / 'ZZZ.csv'}: cannot read")
        assert report["n_ok"] == 4
        # among the membership files it stops the run before any work
        membership = tmp_path / "membership"
        shutil.copytree(root / "membership", membership)
        (membership / "constituents_2099-01-01.csv").mkdir()
        base[1] = str(membership)
        assert main(["pipeline", *base, "--paths.output_dir", str(tmp_path / "m")]) == 2
        err = capfd.readouterr().err
        assert err.startswith(f"error: {membership / 'constituents_2099-01-01.csv'}: cannot read")
        assert "Traceback" not in err and not (tmp_path / "m").exists()
        # as a step's dataset, model or report file; a JSON document is named as such
        dataset = str(tmp_path / "b" / "datasets" / "C000.csv")
        for what, argv in (("", ["logit", "--dataset", str(panels / "ZZZ.csv")]),
                           ("model file ", ["evaluate", "--dataset", dataset,
                                            "--model", str(panels / "ZZZ.csv")]),
                           ("report file ", ["report", "--input", str(panels / "ZZZ.csv")])):
            assert main(argv) == 2
            err = capfd.readouterr().err
            assert err.startswith(f"error: {what}{panels / 'ZZZ.csv'}: cannot read (Is a directory)")

    def test_fifo_in_place_of_input_file_is_a_data_error(self, fixture, tmp_path):
        """A FIFO among the panels, the membership files or as a step's
        dataset is refused unopened, so the command exits 2 naming it
        instead of waiting for a writer.  Each command runs in one child
        process under a timeout, so a hang fails the test and leaves no
        process behind."""
        root, _ = fixture
        panels, membership = tmp_path / "panels", tmp_path / "membership"
        shutil.copytree(root / "panels", panels)
        shutil.copytree(root / "membership", membership)
        build = ["build", "--paths.membership_dir", str(membership),
                 "--paths.panels_dir", str(panels), "--paths.output_dir", str(tmp_path / "out")]
        os.mkfifo(panels / "ZZZ.csv")
        code, err = cli_in_child(*build)
        assert code == 2
        assert err == f"error: ZZZ: {panels / 'ZZZ.csv'}: cannot read (not a regular file)\n"
        assert len(list((tmp_path / "out" / "datasets").iterdir())) == 2 * 4
        code, err = cli_in_child("logit", "--dataset", str(panels / "ZZZ.csv"))
        assert (code, err) == (2, f"error: {panels / 'ZZZ.csv'}: cannot read (not a regular file)\n")
        fifo = membership / "constituents_2099-01-01.csv"
        os.mkfifo(fifo)
        code, err = cli_in_child(*build)
        assert (code, err) == (2, f"error: {fifo}: cannot read (not a regular file)\n")

    def test_fifo_as_config_or_among_synth_outputs_exits_1(self, tmp_path):
        """A FIFO given as ``--config``, or in place of a file ``synth``
        would write, exits 1 naming it without opening it; ``synth`` writes
        nothing.  Each command runs in a child process under a timeout, so
        a hang fails the test and leaves no process behind."""
        config = tmp_path / "config.fifo"
        os.mkfifo(config)
        assert cli_in_child("pipeline", "--config", str(config)) == (
            1, f"error: config file {config}: cannot read (not a regular file)\n"
        )
        out = tmp_path / "fx"
        (out / "panels").mkdir(parents=True)
        os.mkfifo(out / "panels" / "C001.csv")
        code, err = cli_in_child("synth", "--out", str(out), "--companies", "3", "--weeks", "50")
        assert (code, err) == (1, f"error: --out {out}: cannot write {out / 'panels' / 'C001.csv'} "
                                  "(exists and is not a regular file)\n")
        assert sorted(str(f.relative_to(out)) for f in out.rglob("*")) == ["panels", "panels/C001.csv"]

    def test_overlapping_membership_weeks_exit_2(self, fixture, tmp_path, capsys):
        """A membership file requested fewer than 7 days after another would
        put a row date in two weeks: ``pipeline``, ``build`` and ``cohort``
        refuse the directory, naming both files."""
        root, _ = fixture
        membership = tmp_path / "membership"
        shutil.copytree(root / "membership", membership)
        first = min(membership.glob("*.csv"))
        requested = date.fromisoformat(first.stem.removeprefix("constituents_"))
        close = membership / f"constituents_{requested + timedelta(days=2)}.csv"
        close.write_text(f"# effective_date={requested + timedelta(days=2)}\nticker\nC000\n")
        config = ["--paths.membership_dir", str(membership),
                  "--paths.panels_dir", str(root / "panels"),
                  "--paths.output_dir", str(tmp_path / "out")]
        for argv in (["pipeline", *config], ["build", *config],
                     ["cohort", "--membership-dir", str(membership), "--allow-deficient"]):
            assert main(argv) == 2
            assert capsys.readouterr().err == (
                f"error: {first} and {close}: requested dates fewer than 7 days apart, "
                "so their weeks overlap\n"
            )
        assert not (tmp_path / "out").exists()

    def test_a_long_value_is_echoed_short(self, fixture, tmp_path, capsys):
        """A flag or config value of any length is quoted in one short line
        that names its field, and exits 1."""
        root, _ = fixture
        config = tmp_path / "long.json"
        config.write_text(json.dumps({"mlp": {"epochs": "x" * 300}}))
        tickers = ",".join([f"T{i:04d}" for i in range(5000)] + ["T0000"])
        for flags, named in (
            (["--mlp.hidden_sizes=" + "[" * 100000], "bad value for 'mlp.hidden_sizes'"),
            (["--mlp.learning_rate=" + "x" * 100000], "bad value for 'mlp.learning_rate'"),
            (["--tickers", tickers], "tickers must hold distinct non-empty names"),
            (["--config", str(config)], "config field 'mlp.epochs' must be int"),
        ):
            assert main(["build", "--paths.membership_dir", str(root / "membership"),
                         "--paths.panels_dir", str(root / "panels"),
                         "--paths.output_dir", str(tmp_path / "out"), *flags]) == 1
            err = capsys.readouterr().err
            assert named in err
            assert err.count("\n") == 1 and len(err) < 300 + len(str(config))

    def test_a_byte_order_mark_changes_no_built_byte(self, fixture, tmp_path, capsys):
        """A panel and a membership file saved with a leading UTF-8 byte order
        mark, as spreadsheets save them, build the bytes they build without."""
        root, _ = fixture
        marked = tmp_path / "marked"
        for part in ("membership", "panels"):
            shutil.copytree(root / part, marked / part)
        for file in (marked / "panels" / "C000.csv", min((marked / "membership").glob("*.csv"))):
            file.write_bytes(b"\xef\xbb\xbf" + file.read_bytes())
        for source, out in ((root, "plain"), (marked, "marked")):
            assert main(["build", "--paths.membership_dir", str(source / "membership"),
                         "--paths.panels_dir", str(source / "panels"),
                         "--paths.output_dir", str(tmp_path / "built" / out),
                         "--tickers", "C000"]) == 0
        built = output_tree(tmp_path / "built" / "plain")
        assert output_tree(tmp_path / "built" / "marked") == built and len(built) == 2

    def test_cohort_subcommand(self, fixture, capsys):
        root, _ = fixture
        code = main([
            "cohort", "--membership-dir", str(root / "membership"),
            "--per-group", "1", "--seed", "3", "--allow-deficient",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["groups"]) == 5
        assert doc["seed"] == 3

    def test_report_subcommand(self, fixture, tmp_path, capsys):
        root, _ = fixture
        cfg = small_config(root, "out_report_cmd")
        run_pipeline(cfg)
        code = main(["report", "--input",
                     str(Path(cfg.paths.output_dir) / "report.json")])
        assert code == 0
        assert "Company Name | Accuracy" in capsys.readouterr().out

    def test_synth_subcommand(self, tmp_path, capsys):
        code = main([
            "synth", "--out", str(tmp_path / "fx"), "--companies", "2",
            "--weeks", "30", "--seed", "3", "--signal-scale", "1.0",
        ])
        assert code == 0
        assert (tmp_path / "fx" / "truth.json").is_file()
        assert len(list((tmp_path / "fx" / "membership").glob("*.csv"))) == 30

    def test_synth_refuses_a_file_as_out_and_a_non_finite_scale(self, tmp_path, capsys):
        """Each exits 1 naming the flag (both, for a scale given with
        ``--calibrate``), with no traceback, and writes nothing."""
        taken = tmp_path / "taken"
        taken.write_text("in the way")
        small = ["--companies", "2", "--weeks", "30"]
        assert main(["synth", "--out", str(taken), *small]) == 1
        assert capsys.readouterr().err == (
            f"error: --out {taken}: cannot write {taken / 'membership'} (Not a directory)\n"
        )
        assert taken.read_text() == "in the way"
        for scale in ("nan", "inf", "-inf"):
            assert main(["synth", "--out", str(tmp_path / "fx"), *small,
                         f"--signal-scale={scale}"]) == 1
            assert capsys.readouterr().err == f"error: --signal-scale must be finite, got {scale}\n"
        assert main(["synth", "--out", str(tmp_path / "fx"), *small,
                     "--calibrate", "--signal-scale", "9"]) == 1
        assert capsys.readouterr().err == "error: --signal-scale and --calibrate exclude each other\n"
        assert [f.name for f in tmp_path.iterdir()] == ["taken"]

    @settings(max_examples=60, deadline=None)
    @given(
        epochs=mostly(st.integers(min_value=-1, max_value=3).map(str)),
        batch_size=mostly(st.integers(min_value=-1, max_value=40).map(str)),
        learning_rate=mostly(st.one_of(st.floats(min_value=0.0, max_value=2.0), st.floats()).map(repr)),
        hidden_sizes=mostly(st.one_of(
            HIDDEN_SIZES.map(lambda sizes: ",".join(map(str, sizes))),
            HIDDEN_SIZES.map(json.dumps),
        )),
    )
    def test_train_flags_exit_cleanly(self, tiny_dataset, epochs, batch_size,
                                      learning_rate, hidden_sizes):
        """Any flag values end in exit 0, 1 or 2 (a diverged loss), with
        ``error:`` and no traceback."""
        model_path = tiny_dataset.with_name("model.json")
        model_path.unlink(missing_ok=True)
        code, out, err = run_quietly([
            "train", "--dataset", str(tiny_dataset), "--out", str(model_path),
            f"--mlp.epochs={epochs}", f"--mlp.batch_size={batch_size}",
            f"--mlp.learning_rate={learning_rate}", f"--mlp.hidden_sizes={hidden_sizes}",
        ])
        assert code in (0, 1, 2)
        if not code:
            assert model_path.is_file() and out.startswith("trained TINY")

    @settings(max_examples=60, deadline=None)
    @given(dotted=st.sampled_from(sorted(FIELDS)), text=FLAG_TEXT)
    def test_any_config_flag_exits_cleanly(self, fixture, tmp_path_factory, dotted, text):
        """``build`` with any text for any config flag ends in exit 0 to 3,
        with ``error:`` and no traceback."""
        root, _ = fixture
        workdir = tmp_path_factory.getbasetemp() / "any_config_flag"
        workdir.mkdir(exist_ok=True)
        cwd = os.getcwd()
        os.chdir(workdir)  # where a relative path field points
        try:
            code, out, _ = run_quietly([
                "build", "--paths.membership_dir", str(root / "membership"),
                "--paths.panels_dir", str(root / "panels"), "--paths.output_dir", "out",
                "--tickers", "C000", f"--{dotted}={text}",
            ])
        finally:
            os.chdir(cwd)
        assert code in (0, 1, 2, 3)
        if not code:
            assert out.startswith("built C000")

    @settings(max_examples=60, deadline=None)
    @given(
        alpha=mostly(FRACTION),
        threshold=mostly(FRACTION),
        train_fraction=mostly(FRACTION),
    )
    def test_logit_and_evaluate_flags_exit_cleanly(self, tiny_dataset, alpha, threshold,
                                                   train_fraction):
        """Any ``logit.alpha``, ``mlp.threshold`` or ``dataset.train_fraction``
        ends in exit 0 or 1, or 2 for a split of the 20 rows that leaves a
        part empty, with ``error:`` and no traceback."""
        model_path = tiny_dataset.with_name("tiny_model.json")
        model_path.write_text(json.dumps(TINY_MODEL))
        data = ["--dataset", str(tiny_dataset)]
        code, out, _ = run_quietly(["logit", *data, f"--logit.alpha={alpha}"])
        assert code in (0, 1)
        if not code:
            assert json.loads(out)["ticker"] == "TINY"
        code, out, err = run_quietly([
            "evaluate", *data, "--model", str(model_path),
            f"--mlp.threshold={threshold}", f"--dataset.train_fraction={train_fraction}",
        ])
        assert code in (0, 1) or (code == 2 and err.endswith(" leaves a part empty\n"))
        if not code:
            assert "\nTINY | " in out

    @settings(max_examples=60, deadline=None)
    @given(edits=st.lists(BYTE_EDIT, min_size=1, max_size=4))
    @example(edits=[("insert", 20, b"\r")])  # inside the first row's date
    def test_edited_dataset_file_exits_cleanly(self, tiny_dataset, edits):
        """``logit`` on a byte-edited dataset file ends in exit 0 or 2 (a
        data error, an empty cell included), with ``error:`` and no
        traceback."""
        edited = tiny_dataset.with_name("edited.csv")
        edited.write_bytes(edit_bytes(tiny_dataset.read_bytes(), edits))
        code, out, _ = run_quietly(["logit", "--dataset", str(edited)])
        assert code in (0, 2)
        if not code:
            assert json.loads(out)["ticker"] == "edited"

    @settings(max_examples=60, deadline=None)
    @given(edits=st.lists(BYTE_EDIT, min_size=1, max_size=4))
    @example(edits=[("insert", 70, b"\r")])  # inside the first row's date
    def test_edited_panel_file_exits_cleanly(self, fixture, tmp_path_factory, edits):
        """``build`` on a byte-edited panel file ends in exit 0 to 3, with
        ``error:`` and no traceback."""
        root, _ = fixture
        panels = tmp_path_factory.getbasetemp() / "edited_panels"
        panels.mkdir(exist_ok=True)
        original = (root / "panels" / "C000.csv").read_bytes()
        (panels / "C000.csv").write_bytes(edit_bytes(original, edits))
        code, out, _ = run_quietly([
            "build", "--paths.membership_dir", str(root / "membership"),
            "--paths.panels_dir", str(panels), "--paths.output_dir", str(panels / "out"),
        ])
        assert code in (0, 1, 2, 3)
        if not code:
            assert out.startswith("built C000")

    @settings(max_examples=60, deadline=None)
    @given(edits=st.lists(BYTE_EDIT, min_size=1, max_size=4))
    def test_edited_panel_file_pipeline_exits_cleanly(self, fixture, tmp_path_factory, edits):
        """``pipeline`` on a byte-edited panel file, alone in its directory
        (so the run stays in this process), ends in exit 0 to 3, with
        ``error:``, no traceback and no ``unexpected error``."""
        root, _ = fixture
        panels = tmp_path_factory.getbasetemp() / "edited_pipeline_panels"
        panels.mkdir(exist_ok=True)
        original = (root / "panels" / "C000.csv").read_bytes()
        (panels / "C000.csv").write_bytes(edit_bytes(original, edits))
        code, out, err = run_quietly([
            "pipeline", "--paths.membership_dir", str(root / "membership"),
            "--paths.panels_dir", str(panels), "--paths.output_dir", str(panels / "out"),
            "--mlp.epochs", "1",
        ])
        assert code in (0, 1, 2, 3)
        assert "unexpected error" not in err
        if not code:
            assert "\nC000 " in out

    @settings(max_examples=60, deadline=None)
    @given(which=st.integers(min_value=0), edits=st.lists(BYTE_EDIT, min_size=1, max_size=4))
    @example(which=0, edits=[("insert", 3, b"\xff")])  # not UTF-8, in the header
    def test_edited_membership_file_exits_cleanly(self, fixture, tmp_path_factory, which,
                                                  edits):
        """``cohort --allow-deficient`` with one byte-edited membership file
        ends in exit 0 to 3, with ``error:`` and no traceback."""
        root, _ = fixture
        membership = tmp_path_factory.getbasetemp() / "edited_membership"
        if not membership.exists():
            shutil.copytree(root / "membership", membership)
        files = sorted(membership.iterdir())
        file = files[which % len(files)]
        original = file.read_bytes()
        file.write_bytes(edit_bytes(original, edits))
        try:
            code, out, _ = run_quietly(["cohort", "--membership-dir", str(membership),
                                        "--per-group", "1", "--allow-deficient"])
        finally:
            file.write_bytes(original)
        assert code in (0, 1, 2, 3)
        if not code:
            assert len(json.loads(out)["groups"]) == 5

    @pytest.mark.parametrize("argv,document,made", [
        pytest.param(["evaluate", "--dataset", "{data}", "--model", "{edited}"],
                     {**TINY_MODEL, "metadata": {"features": ["f0", "f1"], "train_fraction": 0.8}},
                     "\nTINY | ", id="model"),
        pytest.param(["report", "--input", "{edited}"], REPORT, "Company Name | ", id="report"),
        pytest.param(["logit", "--dataset", "{data}", "--config", "{edited}"],
                     PipelineConfig().to_dict(), '"ticker": "TINY"', id="config"),
    ])
    @settings(max_examples=60, deadline=None)
    @given(edits=st.lists(BYTE_EDIT, min_size=1, max_size=4))
    @example(edits=[("delete", 66)])  # the report's "ok" becomes "k"
    def test_edited_json_file_exits_cleanly(self, tiny_dataset, argv, document, made, edits):
        """``evaluate`` on a byte-edited model file, ``report`` on a report
        file and ``logit`` with a config file end in exit 0 to 3, with
        ``error:`` and no traceback.  A report that renders has a line for
        each of its companies: a table row or a failed entry."""
        edited = tiny_dataset.with_name("edited.json")
        edited.write_bytes(edit_bytes(json.dumps(document, indent=2).encode(), edits))
        code, out, _ = run_quietly([arg.format(data=tiny_dataset, edited=edited) for arg in argv])
        assert code in (0, 1, 2, 3)
        if not code:
            assert made in out
            if argv[0] == "report":
                lines = out.splitlines()
                for company in json.loads(edited.read_bytes())["companies"]:
                    ticker = company["ticker"]
                    assert (any(line.split(" | ")[0].rstrip() == ticker for line in lines)
                            or f"  {ticker}: {company['error']}" in lines)
