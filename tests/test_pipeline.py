import contextlib
import io
import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from pricedir.cli import main
from pricedir.cohort import cohort_report
from pricedir.config import PipelineConfig, apply_overrides, config_from_dict, load_config
from pricedir.errors import (
    ConfigError,
    DataError,
    PipelineError,
    TrainingDivergedError,
    ValidationError,
)
from pricedir import mlp as mlp_mod
from pricedir import pipeline as pipeline_mod
from pricedir.ingest import parse_company_panel
from pricedir.pipeline import (
    build_company_dataset,
    load_membership_dir,
    render_report,
    run_pipeline,
    write_atomic,
)
from pricedir.synth import default_planted, derive_seed, write_fixture

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


# A one-layer model for the 2-feature ``tiny_dataset``, and one 3 inputs wide.
TINY_MODEL = {"layer_sizes": [2, 1], "weights": [[[0.5, 0.5]]], "biases": [[0.0]], "metadata": {}}
WIDE_MODEL = {**TINY_MODEL, "layer_sizes": [3, 1], "weights": [[[0.5, 0.5, 0.5]]]}
EVALUATE = ["evaluate", "--dataset", "{data}", "--model", "{model}"]


def mostly(good):
    """A value from ``good`` four times in five, else a malformed string."""
    return st.integers(min_value=0, max_value=4).flatmap(lambda k: good if k else MALFORMED)


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
        # NaN compares false with everything, so a plain range check lets it pass
        for dotted in ("mlp.learning_rate", "logit.tol"):
            for text in ("nan", "inf"):
                cfg = apply_overrides(PipelineConfig(), {dotted: text})
                with pytest.raises(ConfigError):
                    cfg.validate()

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.json")
        not_utf8 = tmp_path / "latin1.json"
        not_utf8.write_bytes(b'{"mlp": {}}\xff')
        with pytest.raises(ConfigError):
            load_config(not_utf8)


class TestBuildCompanyDataset:
    def test_direction_mode_excludes_price_and_labels_from_prices(self, fixture):
        root, truth = fixture
        cfg = small_config(root)
        snapshots = load_membership_dir(cfg.paths.membership_dir)
        panel = parse_company_panel((root / "panels" / "C000.csv").read_text(), "C000")
        ds, info = build_company_dataset(panel, snapshots, cfg)
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
        from pricedir.dataset import attach_membership_indicator

        with_indicator = attach_membership_indicator(panel, snapshots)
        indicator = with_indicator.column("in_index")
        by_date = dict(zip(with_indicator.dates, indicator))
        assert all(int(by_date[d]) == y for d, y in zip(ds.dates, ds.y))


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
        (tmp_path / "constituents_2002-01-11.csv").write_text("# effective_date=2002-01-11\nticker\nB B\n")
        with pytest.raises(DataError) as info:
            load_membership_dir(tmp_path)
        assert str(info.value) == (
            f"{tmp_path / 'constituents_2002-01-11.csv'}, line 3: malformed ticker row 'B B'"
        )


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
        cfg = small_config(root, "out_failsoft")
        cfg.paths.panels_dir = str(panels)
        report = run_pipeline(cfg)
        status = {c["ticker"]: c["status"] for c in report["companies"]}
        assert status == {"BAD": "failed", "C000": "ok", "LATIN1": "failed"}
        assert report["n_failed"] == 2
        assert "LATIN1.csv: not UTF-8" in report["companies"][2]["error"]

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

    def test_empty_selection_falls_back_to_canonical_features(self, fixture):
        root, _ = fixture
        cfg = small_config(root, "out_fallback")
        cfg.logit.alpha = 1e-12
        cfg.tickers = ["C000"]
        report = run_pipeline(cfg)
        company = report["companies"][0]
        assert company["fallback_used"]
        assert company["selected"] == []
        # the canonical four, in the dataset's column order
        assert company["mlp_features"] == [
            "sentiment", "trades", "in_index", "total_return_lag1w"
        ]


def output_tree(out: Path) -> dict[str, bytes]:
    return {str(f.relative_to(out)): f.read_bytes() for f in sorted(out.rglob("*")) if f.is_file()}


class TestWorkers:
    def test_outputs_do_not_depend_on_worker_count(self, fixture, tmp_path, monkeypatch):
        # C000, C001 and C003 share a stack of 128 training rows: 2 workers
        # cut it into two parts, 3 workers into three
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
        for workers in (1, 2, 3):
            monkeypatch.setattr(pipeline_mod, "_cpu_count", lambda: workers)
            shutil.rmtree(tmp_path / "out", ignore_errors=True)
            report = run_pipeline(cfg)
            assert [c["status"] for c in report["companies"]] == ["failed"] + ["ok"] * 4
            assert [c["n_train"] for c in report["companies"][1:]] == [128, 128, 124, 128]
            trees.append(output_tree(tmp_path / "out"))
        assert len(trees[0]) == 2 + 4 * 4
        assert trees[0] == trees[1] == trees[2]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("phase", ["prepare", "train", "diverge", "finish"])
    def test_unexpected_exception_fails_one_company(
        self, fixture, monkeypatch, capfd, phase, workers
    ):
        # C002 is the only company with 124 training rows, so it trains
        # alone; "diverge" is not a fault but a training outcome
        module, name, is_c002 = {
            "prepare": (
                pipeline_mod, "build_company_dataset", lambda panel, *_: panel.ticker == "C002"
            ),
            "train": (mlp_mod, "train_stack", lambda _, data, **__: len(data[0].y) == 124),
            "diverge": (mlp_mod, "train_stack", lambda _, data, **__: len(data[0].y) == 124),
            "finish": (mlp_mod, "model_to_dict", lambda _, metadata: metadata["ticker"] == "C002"),
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
        # a company that fails after prepare keeps the files prepare wrote
        out = Path(cfg.paths.output_dir)
        assert not (out / "models" / "C002.json").exists()
        for name in ("datasets/C002.csv", "logit/C002.json"):
            assert (out / name).exists() == (phase != "prepare"), name

    def test_write_atomic_replaces_through_a_temp_file(self, tmp_path, monkeypatch):
        target = tmp_path / "report.txt"
        target.write_text("old", "utf-8")
        renames = []
        real_replace = os.replace

        def replace(src, dst):
            renames.append((Path(src), Path(dst)))
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        write_atomic(target, "new \u00e9\n")
        assert target.read_bytes() == "new \u00e9\n".encode("utf-8")
        ((temp, dst),) = renames
        assert dst == target and temp.parent == tmp_path and str(os.getpid()) in temp.name
        # a write that fails keeps the old file and leaves no temp file
        with pytest.raises(UnicodeEncodeError):
            write_atomic(target, "\ud800")
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

    def test_unknown_format_rejected(self):
        with pytest.raises(ValidationError):
            render_report(self.one_company_report(0.5), "xml")

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
            "--seed", "5",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "Company Name | Accuracy" in captured.out
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["mlp"]["seed"] == derive_seed(5, "mlp")

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

    def test_data_error_exits_2(self, tmp_path, capsys):
        code = main(["logit", "--dataset", str(tmp_path / "missing.csv")])
        assert code == 2
        bad_report = tmp_path / "report.json"
        bad_report.write_text('{"companies": [')
        assert main(["report", "--input", str(bad_report)]) == 2
        assert str(bad_report) in capsys.readouterr().err
        # well-formed JSON that is not a report
        for text in ('[]', '{"companies": [{"ticker": "A"}]}'):
            bad_report.write_text(text)
            for fmt in ("text", "json"):
                assert main(["report", "--format", fmt, "--input", str(bad_report)]) == 2
                assert str(bad_report) in capsys.readouterr().err
        not_utf8 = tmp_path / "latin1.csv"
        not_utf8.write_bytes(b"date,y,a\n2002-01-04,1,0.5\xff\n")
        assert main(["logit", "--dataset", str(not_utf8)]) == 2
        assert str(not_utf8) in capsys.readouterr().err

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
                     "--epochs", "30", "--features", "in_index,sentiment,trades"]) == 0
        model_doc = json.loads(model_path.read_text())
        assert model_doc["layer_sizes"][0] == 3
        for hidden in ("a", "[1.5, 2.9]"):
            assert main(["train", "--dataset", str(dataset), "--out", str(model_path),
                         "--hidden-sizes", hidden]) == 1
            assert "--hidden-sizes" in capsys.readouterr().err
        for rate in ("nan", "inf", "-inf"):
            assert main(["train", "--dataset", str(dataset), "--out", str(tmp_path / "bad.json"),
                         "--epochs", "2", f"--learning-rate={rate}"]) == 1
            assert "learning_rate must be finite" in capsys.readouterr().err
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

    def test_step_by_step_reproduces_pipeline(self, fixture, tmp_path, capsys):
        """build, logit, train on logit's selection, evaluate: the pipeline's files."""
        root, _ = fixture
        base = [
            "--paths.membership_dir", str(root / "membership"),
            "--paths.panels_dir", str(root / "panels"),
            "--tickers", "C000",
        ]
        piped = tmp_path / "piped"
        assert main(["pipeline", *base, "--paths.output_dir", str(piped),
                     "--mlp.epochs", "40"]) == 0
        assert main(["build", *base, "--paths.output_dir", str(tmp_path / "built")]) == 0
        dataset = str(tmp_path / "built" / "datasets" / "C000.csv")
        logit_file, model_file, eval_file = (
            tmp_path / name for name in ("logit.json", "model.json", "eval.json")
        )
        assert main(["logit", "--dataset", dataset, "--out", str(logit_file)]) == 0
        selected = json.loads(logit_file.read_text())["selected"]
        assert selected  # so the pipeline trains on it, not on the fallback
        assert main(["train", "--dataset", dataset, "--out", str(model_file),
                     "--epochs", "40", "--features", ",".join(selected)]) == 0
        assert main(["evaluate", "--dataset", dataset, "--model", str(model_file),
                     "--out", str(eval_file)]) == 0
        assert logit_file.read_bytes() == (piped / "logit" / "C000.json").read_bytes()
        assert model_file.read_bytes() == (piped / "models" / "C000.json").read_bytes()
        (entry,) = json.loads((piped / "report.json").read_text())["companies"]
        assert eval_file.read_text() == json.dumps(entry["eval"], indent=2) + "\n"

    @pytest.mark.parametrize("argv, model, named", [
        pytest.param(EVALUATE, WIDE_MODEL, "model expects 3 features", id="model-width"),
        pytest.param(EVALUATE, {**TINY_MODEL, "metadata": []}, "'metadata'",
                     id="metadata-not-object"),
        pytest.param(EVALUATE, {**TINY_MODEL, "metadata": {"features": 7}}, "'features'",
                     id="features-not-names"),
        pytest.param(["train", "--dataset", "{data}", "--epochs", "1", "--out", "{missing}"],
                     TINY_MODEL, "--out {missing}", id="train-out"),
        pytest.param(["logit", "--dataset", "{data}", "--out", "{taken}"],
                     TINY_MODEL, "--out {taken}", id="logit-out"),
        pytest.param([*EVALUATE, "--out", "{missing}"], TINY_MODEL, "--out {missing}",
                     id="evaluate-out"),
        pytest.param(["cohort", "--membership-dir", "{membership}", "--per-group", "1",
                      "--allow-deficient", "--out", "{taken}"],
                     TINY_MODEL, "--out {taken}", id="cohort-out"),
        pytest.param(EVALUATE, {**TINY_MODEL, "weights": [[[float("nan"), 0.5]]]}, "'weights'",
                     id="weights-not-finite"),
        pytest.param(EVALUATE, {**TINY_MODEL, "biases": [[float("inf")]]}, "'biases'",
                     id="biases-not-finite"),
        pytest.param(EVALUATE, {**TINY_MODEL, "layer_sizes": "21"}, "'layer_sizes'",
                     id="layer-sizes-string"),
        pytest.param(EVALUATE, {**TINY_MODEL, "layer_sizes": [2.7, 1]}, "'layer_sizes'",
                     id="layer-sizes-float"),
        pytest.param(EVALUATE, {**TINY_MODEL, "layer_sizes": [2, True]}, "'layer_sizes'",
                     id="layer-sizes-bool"),
        pytest.param(["logit", "--dataset", "{data}", "--alpha", "7"], TINY_MODEL,
                     "logit.alpha", id="logit-alpha"),
        pytest.param(["logit", "--dataset", "{data}", "--tol", "nan"], TINY_MODEL,
                     "logit.tol", id="logit-tol-nan"),
        pytest.param(["logit", "--dataset", "{data}", "--max-iter", "0"], TINY_MODEL,
                     "logit.max_iter", id="logit-max-iter-0"),
    ])
    def test_malformed_input_exits_1_naming_it(
        self, fixture, tiny_dataset, tmp_path, capsys, argv, model, named
    ):
        """A malformed model file, a bad ``logit`` flag or an unwritable
        ``--out`` (a missing directory, or a directory in the file's
        place) exits 1 with a message that names it, and leaves no file
        behind."""
        root, _ = fixture
        paths = {
            "data": tiny_dataset,
            "model": tmp_path / "model.json",
            "missing": tmp_path / "no_such_dir" / "out.json",
            "taken": tmp_path / "taken",
            "membership": root / "membership",
        }
        paths["model"].write_text(json.dumps(model))
        paths["taken"].mkdir()

        def fill(text):
            return text.format(**{key: str(path) for key, path in paths.items()})

        assert main([fill(arg) for arg in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and fill(named) in err
        assert sorted(f.name for f in tmp_path.rglob("*")) == ["model.json", "taken"]

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
        for ticker in ("C000", "C001"):
            for name in (f"{ticker}.csv", f"{ticker}.meta.json"):
                built = (tmp_path / "b" / "datasets" / name).read_bytes()
                piped = (tmp_path / "p" / "datasets" / name).read_bytes()
                assert built == piped, name

    def test_build_fails_soft(self, fixture, tmp_path, capsys):
        root, _ = fixture
        panels = tmp_path / "panels"
        panels.mkdir()
        for ticker in ("C000", "C002"):
            panels.joinpath(f"{ticker}.csv").write_bytes(
                (root / "panels" / f"{ticker}.csv").read_bytes()
            )
        panels.joinpath("C001.csv").write_text("date,foo\n2002-01-04,1.0\n2002-01-11,2.0\n")
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
        """Any flag values end in exit 0, 1 or 2, with ``error:`` and no traceback."""
        model_path = tiny_dataset.with_name("model.json")
        model_path.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        argv = ["train", "--dataset", str(tiny_dataset), "--out", str(model_path),
                f"--epochs={epochs}", f"--batch-size={batch_size}",
                f"--learning-rate={learning_rate}", f"--hidden-sizes={hidden_sizes}"]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                np.errstate(all="ignore"):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects a value with exit 2
                code = exc.code
        event(f"exit {code}")
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err.getvalue()
        if code:
            assert "error:" in err.getvalue(), argv
        else:
            assert model_path.is_file() and out.getvalue().startswith("trained TINY")
