import json
from datetime import date

import numpy as np
import pytest

from pricedir.dataset import direction_labels
from pricedir.errors import ValidationError
from pricedir.ingest import parse_company_panel, parse_membership_file
from pricedir.logit import fit_logit, sigmoid
from pricedir.synth import (
    PlantedModel,
    calibrate_signal_scale,
    default_planted,
    derive_seed,
    generate_company_panel,
    generate_membership_series,
    membership_vector,
    ticker_name,
    write_fixture,
)

from conftest import assert_panels_equal


def bayes_accuracy(
    planted: PlantedModel, design: dict[str, np.ndarray], labels
) -> float:
    """Accuracy of the optimal rule sigmoid(eta) >= 0.5 on realized labels."""
    labels = np.asarray(labels, dtype=int)
    first = next(iter(design.values()))
    eta = np.full(len(first), planted.intercept_true)
    for name, coef in planted.beta_true.items():
        eta += coef * np.asarray(design[name], dtype=float)
    pred = (sigmoid(eta) >= 0.5).astype(int)
    if len(pred) != len(labels):
        raise ValidationError("design and labels are misaligned")
    return float(np.mean(pred == labels))


def flat_model(intercept=0.0, **betas):
    return PlantedModel(intercept_true=intercept, beta_true=betas,
                        noise_features=["noise_a"])


def series_inputs(n_weeks=400, n_companies=1, switch_prob=0.05, seed=7):
    snaps = generate_membership_series(n_weeks, n_companies, switch_prob, seed)
    dates = [s.requested_date for s in snaps]
    vector = membership_vector(snaps, ticker_name(0))
    return snaps, dates, vector


class TestMembershipSeries:
    def test_fridays_from_2002(self):
        snaps = generate_membership_series(3, 2, 0.1, seed=1)
        assert snaps[0].requested_date == date(2002, 1, 4)
        assert snaps[1].requested_date == date(2002, 1, 11)
        assert all(s.effective_date == s.requested_date for s in snaps)

    def test_switch_zero_is_frozen(self):
        snaps = generate_membership_series(50, 8, 0.0, seed=3)
        first = snaps[0].constituents
        assert all(s.constituents == first for s in snaps)

    def test_switch_one_alternates(self):
        snaps = generate_membership_series(20, 6, 1.0, seed=4)
        members = [s.constituents for s in snaps]
        assert all(members[i] == members[i % 2] for i in range(len(members)))
        assert members[0] != members[1]

    def test_flip_frequency_law_of_large_numbers(self):
        n_weeks, n_companies = 1040, 20
        snaps = generate_membership_series(n_weeks, n_companies, 0.05, seed=5)
        flips = 0
        for i in range(n_companies):
            vec = membership_vector(snaps, ticker_name(i))
            flips += sum(a != b for a, b in zip(vec, vec[1:]))
        rate = flips / ((n_weeks - 1) * n_companies)
        assert 0.03 <= rate <= 0.07

    def test_deterministic(self):
        a = generate_membership_series(30, 5, 0.2, seed=9)
        b = generate_membership_series(30, 5, 0.2, seed=9)
        assert [s.constituents for s in a] == [s.constituents for s in b]


class TestGenerateCompanyPanel:
    def test_fair_coin_when_no_signal(self):
        _, dates, vector = series_inputs(n_weeks=1001)
        company = generate_company_panel(
            flat_model(sentiment=0.0), ticker_name(0), dates, vector, 0.0, seed=11
        )
        mean = np.mean(company.true_labels)
        assert 0.45 <= mean <= 0.55

    def test_saturated_intercept_all_ones_and_rising_price(self):
        _, dates, vector = series_inputs(n_weeks=120)
        company = generate_company_panel(
            flat_model(intercept=10.0, sentiment=0.0),
            ticker_name(0), dates, vector, 0.0, seed=12,
        )
        assert all(lbl == 1 for lbl in company.true_labels)
        prices = company.panel.column("price")
        assert all(b > a for a, b in zip(prices, prices[1:]))

    def test_deterministic_per_seed(self):
        _, dates, vector = series_inputs(n_weeks=60)
        a = generate_company_panel(default_planted(), "C000", dates, vector, 0.2, seed=13)
        b = generate_company_panel(default_planted(), "C000", dates, vector, 0.2, seed=13)
        assert a.true_labels == b.true_labels
        assert_panels_equal(a.panel, b.panel)

    def test_price_path_encodes_labels_exactly(self):
        _, dates, vector = series_inputs(n_weeks=500)
        company = generate_company_panel(
            default_planted(), "C000", dates, vector, 0.0, seed=14
        )
        labels = direction_labels(company.panel, "price")
        assert np.isnan(labels[0])
        np.testing.assert_array_equal(labels[1:], company.true_labels)

    def test_missingness_only_outside_price(self):
        _, dates, vector = series_inputs(n_weeks=300)
        company = generate_company_panel(
            default_planted(), "C000", dates, vector, 0.3, seed=15
        )
        assert not np.isnan(company.panel.column("price")).any()
        missing = sum(
            np.isnan(company.panel.column(name)).sum()
            for name in company.panel.feature_names
            if name != "price"
        )
        assert missing > 0

    def test_lagged_feature_uses_prior_week(self):
        _, dates, vector = series_inputs(n_weeks=50)
        planted = PlantedModel(0.0, {"total_return_lag1w": 2.0}, [])
        company = generate_company_panel(planted, "C000", dates, vector, 0.0, seed=16)
        raw = company.panel.column("total_return")
        np.testing.assert_allclose(company.design["total_return_lag1w"], raw[:-1])

    def test_planted_coefficients_recovered(self):
        # fixed fixture seed; 0.15 is ~1.5 asymptotic se for the uniform
        # feature at n=5000, so not every seed sits inside it
        _, dates, vector = series_inputs(n_weeks=5001, switch_prob=0.05)
        planted = PlantedModel(
            0.0, {"in_index": 2.0, "trades": -1.5},
            ["noise_a", "noise_b", "noise_c", "noise_d"],
        )
        company = generate_company_panel(planted, "C000", dates, vector, 0.0, seed=19)
        names = planted.feature_names
        X = np.column_stack([company.design[n] for n in names])
        fit = fit_logit(X, company.true_labels, feature_names=names)
        assert abs(fit.beta[names.index("in_index") + 1] - 2.0) < 0.15
        assert abs(fit.beta[names.index("trades") + 1] + 1.5) < 0.15


class TestPlantedModel:
    def test_overlap_rejected(self):
        with pytest.raises(ValidationError):
            PlantedModel(0.0, {"a": 1.0}, ["a"])

    def test_scaled(self):
        planted = flat_model(sentiment=2.0)
        assert planted.scaled(0.5).beta_true["sentiment"] == 1.0
        assert planted.scaled(0.5).noise_features == planted.noise_features


class TestBayesAccuracy:
    def test_no_signal_is_a_coin_flip(self):
        _, dates, vector = series_inputs(n_weeks=5001)
        planted = flat_model(sentiment=0.0)
        company = generate_company_panel(planted, "C000", dates, vector, 0.0, seed=18)
        acc = bayes_accuracy(planted, company.design, company.true_labels)
        assert abs(acc - 0.5) <= 0.03

    def test_saturated_intercept_is_perfect(self):
        _, dates, vector = series_inputs(n_weeks=200)
        planted = flat_model(intercept=10.0, sentiment=0.0)
        company = generate_company_panel(planted, "C000", dates, vector, 0.0, seed=19)
        assert bayes_accuracy(planted, company.design, company.true_labels) == 1.0

    def test_matches_stored_predictions(self):
        _, dates, vector = series_inputs(n_weeks=300)
        planted = default_planted()
        company = generate_company_panel(planted, "C000", dates, vector, 0.0, seed=20)
        assert company.bayes_accuracy() == bayes_accuracy(
            planted, company.design, company.true_labels
        )

    def test_calibration_lands_in_window(self):
        snaps, dates, vector = series_inputs(n_weeks=2001)
        companies = [(ticker_name(0), dates, vector, derive_seed(21, "panel", "C000"))]
        scale, acc = calibrate_signal_scale(default_planted(), companies)
        assert 0.73 <= acc <= 0.77
        assert scale > 0


class TestDeriveSeed:
    def test_stable_and_distinct(self):
        assert derive_seed(7, "panel", "C000") == derive_seed(7, "panel", "C000")
        assert derive_seed(7, "panel", "C000") != derive_seed(7, "panel", "C001")
        assert derive_seed(7, "panel", "C000") != derive_seed(8, "panel", "C000")
        assert 0 <= derive_seed(7, "x") < 2**63


class TestWriteFixture:
    def test_files_roundtrip_through_ingest(self, tmp_path):
        truth = write_fixture(
            tmp_path, n_companies=3, n_weeks=40, switch_prob=0.1,
            missing_prob=0.1, seed=23, planted=default_planted(), signal_scale=1.0,
        )
        membership_files = sorted((tmp_path / "membership").glob("*.csv"))
        assert len(membership_files) == 40
        snaps = []
        for file in membership_files:
            requested = date.fromisoformat(file.stem.split("_")[1])
            snaps.append(parse_membership_file(file.read_text(), requested, str(file)))
        regenerated = generate_membership_series(40, 3, 0.1, derive_seed(23, "membership"))
        assert [s.constituents for s in snaps] == [s.constituents for s in regenerated]

        for entry in truth["companies"]:
            panel_file = tmp_path / "panels" / f"{entry['ticker']}.csv"
            panel = parse_company_panel(panel_file.read_text(), entry["ticker"])
            company = generate_company_panel(
                default_planted().scaled(truth["signal_scale"]),
                entry["ticker"],
                [s.requested_date for s in regenerated],
                membership_vector(regenerated, entry["ticker"]),
                0.1,
                entry["seed"],
            )
            assert_panels_equal(panel, company.panel)

    def test_failed_calibration_writes_nothing(self, tmp_path):
        """The calibration runs before any directory or file is made: with
        two labelled weeks the pooled accuracy is 0, 0.5 or 1, never in the
        window."""
        out = tmp_path / "fixture"
        with pytest.raises(ValidationError, match="calibration failed"):
            write_fixture(out, n_companies=1, n_weeks=3, switch_prob=0.05,
                          missing_prob=0.0, seed=7, planted=default_planted(), calibrate=True)
        assert not out.exists()

    def test_refused_last_file_writes_nothing(self, tmp_path):
        """Every file is made before the first is written: a directory where
        ``truth.json``, the last file, goes leaves no other file."""
        (tmp_path / "truth.json").mkdir()
        with pytest.raises(FileExistsError) as caught:
            write_fixture(tmp_path, n_companies=2, n_weeks=10, switch_prob=0.05,
                          missing_prob=0.0, seed=7, planted=default_planted())
        assert caught.value.filename == str(tmp_path / "truth.json")
        assert [f.name for f in tmp_path.iterdir()] == ["truth.json"]

    def test_truth_document_contents(self, tmp_path):
        truth = write_fixture(
            tmp_path, n_companies=2, n_weeks=30, switch_prob=0.05,
            missing_prob=0.0, seed=29, planted=default_planted(), signal_scale=2.0,
        )
        loaded = json.loads((tmp_path / "truth.json").read_text())
        assert loaded == truth
        assert loaded["planted"]["beta"]["in_index"] == 4.0  # scaled by 2
        assert loaded["generator"] == "numpy-pcg64"
        assert len(loaded["companies"]) == 2
        truth_rows = (tmp_path / "truth" / "C000.csv").read_text().splitlines()
        assert truth_rows[0] == "date,true_label,bayes_pred"
        assert len(truth_rows) == 30  # header + 29 labeled weeks

    def test_calibrated_pooled_accuracy_is_the_written_tally(self, tmp_path):
        """With missing cells, the truth document's scale and pooled accuracy
        are what the calibration returns, and the pooled accuracy is the hit
        rate of the written ``truth/`` rows."""
        truth = write_fixture(
            tmp_path, n_companies=3, n_weeks=300, switch_prob=0.05,
            missing_prob=0.2, seed=31, planted=default_planted(), calibrate=True,
        )
        snaps = generate_membership_series(300, 3, 0.05, derive_seed(31, "membership"))
        dates = [s.requested_date for s in snaps]
        companies = [
            (t, dates, membership_vector(snaps, t), derive_seed(31, "panel", t))
            for t in (ticker_name(i) for i in range(3))
        ]
        scale, pooled = calibrate_signal_scale(default_planted(), companies)
        assert (truth["signal_scale"], truth["pooled_bayes_accuracy"]) == (scale, pooled)
        hits = total = 0
        for file in sorted((tmp_path / "truth").glob("*.csv")):
            for row in file.read_text().splitlines()[1:]:
                _, label, pred = row.split(",")
                hits += label == pred
                total += 1
        assert total == 3 * 299
        assert hits / total == pooled
