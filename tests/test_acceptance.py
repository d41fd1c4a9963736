"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
per-criterion timing.  Fixture seeds are fixed so every run is a
deterministic regression check.
"""

import csv
import time
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from pricedir.cohort import group_boundaries, partition_into_fifths, sample_cohort
from pricedir.config import PipelineConfig
from pricedir.dataset import (
    direction_labels,
    impute_missing,
    normalize_column,
    split_features,
)
from pricedir.errors import DataError
from pricedir.logit import fit_logit, select_features
from pricedir.mlp import init_network
from pricedir import pipeline as pipeline_mod
from pricedir.pipeline import run_pipeline
from pricedir.synth import (
    PlantedModel,
    default_planted,
    derive_seed,
    generate_company_panel,
    generate_membership_series,
    membership_vector,
    ticker_name,
    write_fixture,
)

from conftest import backprop_gradients, bce_loss, forward, make_panel


def report_line(name, ok, detail=""):
    print(f"[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())


@pytest.fixture(scope="module")
def e2e_run(tmp_path_factory):
    """Calibrated 10-company fixture plus one full default-config run."""
    root = tmp_path_factory.mktemp("e2e")
    truth = write_fixture(
        root,
        n_companies=10,
        n_weeks=2000,
        switch_prob=0.05,
        missing_prob=0.0,
        seed=42,
        planted=default_planted(),
        calibrate=True,
    )
    cfg = PipelineConfig()
    cfg.paths.membership_dir = str(root / "membership")
    cfg.paths.panels_dir = str(root / "panels")
    cfg.paths.output_dir = str(root / "out")
    started = time.monotonic()
    report = run_pipeline(cfg)
    elapsed = time.monotonic() - started
    return root, truth, report, elapsed


class TestAcceptance:
    def test_logit_mle_matches_grid_search_oracle(self):
        started = time.monotonic()
        x = np.array([i / 20 for i in range(1, 21)])
        y = np.array([0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 1, 1, 0, 1, 1, 0, 1, 1, 1, 1])

        grid = np.arange(-5.0, 5.0 + 0.005, 0.01)
        best = (-np.inf, 0.0, 0.0)
        for b0 in grid:
            eta = b0 + np.outer(grid, x)
            ll = (eta * y).sum(axis=1) - np.logaddexp(0.0, eta).sum(axis=1)
            k = int(np.argmax(ll))
            if ll[k] > best[0]:
                best = (float(ll[k]), float(b0), float(grid[k]))
        fit = fit_logit(x.reshape(-1, 1), y)
        elapsed = time.monotonic() - started
        err0 = abs(fit.beta[0] - best[1])
        err1 = abs(fit.beta[1] - best[2])
        ok = err0 < 1e-2 and err1 < 1e-2 and elapsed < 5.0
        report_line(
            "logit-mle-grid-oracle", ok,
            f"(|d_b0|={err0:.4f}, |d_b1|={err1:.4f}, {elapsed:.1f}s)",
        )
        assert err0 < 1e-2 and err1 < 1e-2
        assert elapsed < 5.0

    def test_logit_consistency_on_planted_synthetic_data(self):
        # fixed fixture: base seeds 30..39; 0.15 is ~1.5 asymptotic standard
        # errors for the uniform-feature coefficient at this n, so the
        # criterion tolerates one stray seed out of ten
        started = time.monotonic()
        planted = PlantedModel(
            0.0,
            {"in_index": 2.0, "trades": -1.5},
            ["noise_a", "noise_b", "noise_c", "noise_d"],
        )
        names = planted.feature_names
        passes = 0
        for seed in range(30, 40):
            snaps = generate_membership_series(5001, 1, 0.05, derive_seed(seed, "m"))
            dates = [s.requested_date for s in snaps]
            vec = membership_vector(snaps, ticker_name(0))
            company = generate_company_panel(
                planted, "C000", dates, vec, 0.0, derive_seed(seed, "p")
            )
            X = np.column_stack([company.design[n] for n in names])
            fit = fit_logit(X, company.true_labels, feature_names=names)
            selected = select_features(fit, 0.05)
            coef_ok = (
                abs(fit.beta[1] - 2.0) < 0.15 and abs(fit.beta[2] + 1.5) < 0.15
            )
            sel_ok = (
                "in_index" in selected
                and "trades" in selected
                and sum(1 for s in selected if s.startswith("noise")) <= 1
            )
            passes += coef_ok and sel_ok
        elapsed = time.monotonic() - started
        ok = passes >= 9 and elapsed < 30.0
        report_line("logit-consistency", ok, f"({passes}/10 seeds, {elapsed:.1f}s)")
        assert passes >= 9
        assert elapsed < 30.0

    def test_gradient_check_against_finite_differences(self):
        started = time.monotonic()
        h = 1e-5
        worst = 0.0
        for sizes, seed in (([3, 4, 1], 21), ([4, 8, 1], 22)):
            model = init_network(sizes, seed=seed)
            rng = np.random.default_rng(seed + 100)
            for k in range(20):
                x = rng.random(sizes[0])
                y = float(k % 2)
                gw, gb = backprop_gradients(model, x, y)

                def loss():
                    out, _ = forward(model, x)
                    return bce_loss(y, out)

                for analytic, params in ((gw, model.weights), (gb, model.biases)):
                    for grad, param in zip(analytic, params):
                        for idx in np.ndindex(param.shape):
                            orig = param[idx]
                            param[idx] = orig + h
                            up = loss()
                            param[idx] = orig - h
                            down = loss()
                            param[idx] = orig
                            numeric = (up - down) / (2 * h)
                            rel = abs(grad[idx] - numeric) / max(
                                1e-8, abs(grad[idx]) + abs(numeric)
                            )
                            worst = max(worst, rel)
        elapsed = time.monotonic() - started
        ok = worst < 1e-5 and elapsed < 10.0
        report_line(
            "gradient-finite-difference", ok,
            f"(worst rel err {worst:.2e}, {elapsed:.1f}s)",
        )
        assert worst < 1e-5
        assert elapsed < 10.0

    def test_end_to_end_accuracy_band(self, e2e_run):
        root, truth, report, elapsed = e2e_run
        assert 0.73 <= truth["pooled_bayes_accuracy"] <= 0.77

        inside = 0
        details = []
        for company in report["companies"]:
            ticker = company["ticker"]
            with open(root / "truth" / f"{ticker}.csv") as fh:
                rows = list(csv.DictReader(fh))
            by_date = {
                r["date"]: (int(r["true_label"]), int(r["bayes_pred"])) for r in rows
            }
            with open(root / "out" / "datasets" / f"{ticker}.csv") as fh:
                ds_rows = list(csv.DictReader(fh))
            test_rows = ds_rows[-company["n_test"]:]
            bayes_test = sum(
                by_date[r["date"]][0] == by_date[r["date"]][1] for r in test_rows
            ) / len(test_rows)
            accuracy = company["eval"]["accuracy"]
            if 0.65 <= accuracy <= bayes_test + 0.02:
                inside += 1
            details.append(f"{ticker}={accuracy:.3f}/b{bayes_test:.3f}")
        ok = inside >= 8 and elapsed < 120.0
        report_line(
            "end-to-end-70pct-band", ok,
            f"({inside}/10 in band, pooled bayes "
            f"{truth['pooled_bayes_accuracy']:.4f}, pipeline {elapsed:.1f}s)",
        )
        assert inside >= 8, details
        assert elapsed < 120.0

    def test_label_inversion_recovers_generator_truth(self):
        snaps = generate_membership_series(800, 1, 0.05, seed=55)
        dates = [s.requested_date for s in snaps]
        vec = membership_vector(snaps, ticker_name(0))
        company = generate_company_panel(
            default_planted(), ticker_name(0), dates, vec, 0.0, seed=56
        )
        labels = direction_labels(company.panel, "price")
        mismatches = sum(
            1 for got, want in zip(labels[1:], company.true_labels) if got != want
        )
        ok = np.isnan(labels[0]) and mismatches == 0
        report_line("label-inversion", ok, f"({mismatches} mismatches over 799 rows)")
        assert mismatches == 0

    def test_documented_friday_fallback(self, tmp_path):
        # the Friday's file holds the Thursday list; one effective 8 days
        # earlier would reach into the previous week and is rejected
        (tmp_path / "constituents_2004-04-09.csv").write_text(
            "# effective_date=2004-04-08\nticker\nAAA\n"
        )
        (resolved,) = pipeline_mod.load_membership_dir(tmp_path)
        ok = resolved.effective_date == date(2004, 4, 8)
        report_line("date-fallback", ok, f"(resolved {resolved.effective_date.isoformat()})")
        assert resolved.requested_date == date(2004, 4, 9)
        assert resolved.effective_date == date(2004, 4, 8)
        (tmp_path / "constituents_2004-04-09.csv").write_text(
            "# effective_date=2004-04-01\nticker\nAAA\n"
        )
        with pytest.raises(DataError, match=r"8 days before requested date 2004-04-09 \(max 6\)"):
            pipeline_mod.load_membership_dir(tmp_path)

    def test_normalization_and_imputation_suite(self):
        rng = np.random.default_rng(77)
        worst_mean_drift = 0.0
        for _ in range(200):
            n = int(rng.integers(2, 50))
            values = list(rng.normal(0.0, 100.0, size=n))
            for i in range(n):
                if rng.random() < 0.2 and n > 1:
                    values[i] = None
            observed = [v for v in values if v is not None]
            if not observed:
                continue
            normalized, lo, hi = normalize_column(values)
            present = [v for v in normalized if not np.isnan(v)]
            assert all(0.0 <= v <= 1.0 for v in present)
            if hi > lo:
                assert normalized[values.index(lo)] == 0.0
                assert normalized[values.index(hi)] == 1.0
            filled, mean_used, _ = impute_missing(normalized)
            drift = abs(sum(filled) / len(filled) - sum(present) / len(present))
            worst_mean_drift = max(worst_mean_drift, drift)

        constant, lo, hi = normalize_column([4.2, 4.2, None, 4.2])
        np.testing.assert_array_equal(constant, [0.0, 0.0, np.nan, 0.0])
        assert lo == hi == 4.2
        ok = worst_mean_drift < 1e-12
        report_line(
            "normalization-suite", ok, f"(worst mean drift {worst_mean_drift:.2e})"
        )
        assert worst_mean_drift < 1e-12

    def test_pipeline_reports_are_byte_identical(self, e2e_run, monkeypatch):
        root, _, _, _ = e2e_run
        cfg = PipelineConfig()
        cfg.paths.membership_dir = str(root / "membership")
        cfg.paths.panels_dir = str(root / "panels")
        cfg.paths.output_dir = str(root / "out_det")
        cfg.mlp.epochs = 60
        cfg.tickers = ["C000", "C001", "C002", "C003"]
        run_pipeline(cfg)
        first = (Path(cfg.paths.output_dir) / "report.json").read_bytes()
        run_pipeline(cfg)
        second = (Path(cfg.paths.output_dir) / "report.json").read_bytes()
        # and in this process, the four companies in one stack
        monkeypatch.setattr(pipeline_mod, "_cpu_count", lambda: 1)
        run_pipeline(cfg)
        one_worker = (Path(cfg.paths.output_dir) / "report.json").read_bytes()
        ok = first == second == one_worker
        report_line("pipeline-determinism", ok, f"({len(first)} bytes)")
        assert first == second == one_worker

    def test_model_does_not_depend_on_stack_composition(self, e2e_run):
        # the full run trains all 10 companies (1600 training rows each) in
        # one stack; a one-ticker run trains C000 in a stack of one
        root, _, _, _ = e2e_run
        cfg = PipelineConfig()
        cfg.paths.membership_dir = str(root / "membership")
        cfg.paths.panels_dir = str(root / "panels")
        cfg.paths.output_dir = str(root / "out_c000")
        cfg.tickers = ["C000"]
        run_pipeline(cfg)
        alone = (root / "out_c000" / "models" / "C000.json").read_bytes()
        stacked = (root / "out" / "models" / "C000.json").read_bytes()
        ok = alone == stacked
        report_line("stack-composition-independence", ok, f"({len(alone)} bytes)")
        assert alone == stacked

    def test_split_arithmetic(self):
        def build(n):
            from pricedir.dataset import assemble_dataset

            panel = make_panel(a=[float(i % 5) for i in range(n)])
            return assemble_dataset(panel, [i % 2 for i in range(n)], ["a"])[0]

        train450, test450 = split_features(build(450), ["a"], 0.8)
        train7, test7 = split_features(build(7), ["a"], 0.8)
        ok = (
            (train450.n_rows, test450.n_rows) == (360, 90)
            and (train7.n_rows, test7.n_rows) == (6, 1)
        )
        report_line(
            "split-arithmetic", ok,
            f"(450 -> {train450.n_rows}/{test450.n_rows}, "
            f"7 -> {train7.n_rows}/{test7.n_rows})",
        )
        assert (train450.n_rows, test450.n_rows) == (360, 90)
        assert (train7.n_rows, test7.n_rows) == (6, 1)

    def test_cohort_partition_and_sampling(self):
        counts = {f"T{c:04d}": c for c in range(0, 1041)}
        boundaries = group_boundaries(counts)
        expected = [0.0 + k * (1040.0 - 0.0) / 5 for k in range(6)]
        groups = partition_into_fifths(counts)
        union = set()
        disjoint = True
        for g in groups:
            disjoint = disjoint and not (union & g)
            union |= g
        partition_ok = disjoint and union == set(counts)
        sample = sample_cohort(groups, per_group=10, seed=1040)
        ok = boundaries == expected and partition_ok and len(sample) == 50
        report_line(
            "cohort-partition", ok,
            f"(boundaries {boundaries}, sample size {len(sample)})",
        )
        assert boundaries == expected
        assert partition_ok
        assert len(sample) == 50
