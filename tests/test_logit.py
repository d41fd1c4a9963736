import math
import time

import numpy as np
import pytest

from pricedir.config import PipelineConfig
from pricedir.dataset import build_company_dataset
from pricedir.errors import DataError, ValidationError
from pricedir.ingest import CompanyPanel, parse_company_panel
from pricedir.logit import (
    RIDGE,
    _solve_information,
    _two_sided_pvalues,
    fit_logit,
    select_features,
    sigmoid,
)
from pricedir.pipeline import load_membership_dir
from pricedir.synth import default_planted, write_fixture


# --- independent oracles ----------------------------------------------------

def fitted_probability(fit, x):
    """P(y = 1 | x) under a fit: the sigmoid of the linear predictor."""
    return sigmoid(fit.beta[0] + fit.beta[1:] @ np.asarray(x, dtype=float))


def loglik(b0, b1, x, y):
    eta = b0 + b1 * x
    return float(np.sum(y * eta - np.logaddexp(0.0, eta)))


def grid_search_mle(x, y, lo=-5.0, hi=5.0, step=0.01):
    """Brute-force 2-D grid search over (intercept, slope)."""
    grid = np.arange(lo, hi + step / 2, step)
    best = (-np.inf, None, None)
    for b0 in grid:
        eta = b0 + np.outer(grid, x)
        ll = (eta * y).sum(axis=1) - np.logaddexp(0.0, eta).sum(axis=1)
        k = int(np.argmax(ll))
        if ll[k] > best[0]:
            best = (float(ll[k]), float(b0), float(grid[k]))
    return best[1], best[2]


def erf_series(x, terms=80):
    """Maclaurin series for erf, independent of math.erf/erfc."""
    total = 0.0
    for n in range(terms):
        total += (-1) ** n * x ** (2 * n + 1) / (math.factorial(n) * (2 * n + 1))
    return 2.0 / math.sqrt(math.pi) * total


@pytest.fixture(scope="module")
def collinear_design(tmp_path_factory):
    """``(X, y)`` of C001 of the pipeline tests' synthetic fixture, built
    with a copy of its ``sentiment`` column."""
    root = tmp_path_factory.mktemp("collinear")
    write_fixture(root, n_companies=4, n_weeks=160, switch_prob=0.05, missing_prob=0.05,
                  seed=101, planted=default_planted(), signal_scale=2.0)
    panel = parse_company_panel((root / "panels" / "C001.csv").read_text(), "C001")
    panel = CompanyPanel("C001", panel.dates, {**panel.columns,
                                               "sentiment_copy": panel.columns["sentiment"]})
    dataset, _ = build_company_dataset(
        panel, load_membership_dir(root / "membership"), PipelineConfig()
    )
    return dataset.X, dataset.y


# fixed 20-row single-feature fixture; its MLE sits well inside [-5, 5]^2
X20 = np.array([i / 20 for i in range(1, 21)])
Y20 = np.array([0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 1, 1, 0, 1, 1, 0, 1, 1, 1, 1])


class TestFitLogit:
    def test_intercept_only_balanced(self):
        fit = fit_logit(np.empty((4, 0)), [0, 1, 0, 1])
        assert fit.beta[0] == 0.0
        assert fit.converged
        assert fitted_probability(fit, []) == pytest.approx(0.5)

    def test_intercept_only_three_quarters(self):
        fit = fit_logit(np.empty((4, 0)), [1, 1, 1, 0])
        assert fit.beta[0] == pytest.approx(math.log(3.0), abs=1e-6)

    def test_intercept_only_against_1d_grid(self):
        y = np.array([1, 1, 1, 0], dtype=float)
        grid = np.arange(-5.0, 5.0, 0.001)
        lls = [y.sum() * b - 4 * np.logaddexp(0.0, b) for b in grid]
        oracle = grid[int(np.argmax(lls))]
        fit = fit_logit(np.empty((4, 0)), y)
        assert fit.beta[0] == pytest.approx(oracle, abs=2e-3)

    def test_single_feature_matches_grid_search(self):
        start = time.monotonic()
        b0, b1 = grid_search_mle(X20, Y20)
        fit = fit_logit(X20.reshape(-1, 1), Y20)
        elapsed = time.monotonic() - start
        assert fit.converged
        assert abs(fit.beta[0] - b0) < 1e-2
        assert abs(fit.beta[1] - b1) < 1e-2
        assert elapsed < 5.0

    def test_first_order_optimality(self):
        rng = np.random.default_rng(3)
        X = rng.random((120, 3))
        eta = 1.5 * X[:, 0] - 2.0 * X[:, 1]
        y = (rng.random(120) < sigmoid(eta)).astype(float)
        fit = fit_logit(X, y, tol=1e-8)
        Xd = np.hstack([np.ones((120, 1)), X])
        score = Xd.T @ (y - sigmoid(Xd @ fit.beta))
        assert np.max(np.abs(score)) < 10 * 1e-8

    def test_loglik_history_non_decreasing(self):
        rng = np.random.default_rng(4)
        X = rng.random((80, 2))
        y = (rng.random(80) < sigmoid(2.0 * X[:, 0] - 1.0)).astype(float)
        fit = fit_logit(X, y)
        assert all(b >= a - 1e-12 for a, b in zip(fit.ll_history, fit.ll_history[1:]))

    def test_affine_rescaling_invariance(self):
        rng = np.random.default_rng(5)
        X = rng.random((60, 2))
        y = (rng.random(60) < sigmoid(X[:, 0] - 2.0 * X[:, 1] + 0.3)).astype(float)
        fit = fit_logit(X, y)
        scaled = X.copy()
        scaled[:, 0] *= 100.0
        fit_scaled = fit_logit(scaled, y)
        assert fit_scaled.beta[1] * 100.0 == pytest.approx(fit.beta[1], abs=1e-6)
        assert fit_scaled.z_score[1] == pytest.approx(fit.z_score[1], abs=1e-6)
        assert fit_scaled.p_value[1] == pytest.approx(fit.p_value[1], abs=1e-6)
        x = X[7]
        x_scaled = scaled[7]
        assert fitted_probability(fit_scaled, x_scaled) == pytest.approx(
            fitted_probability(fit, x), abs=1e-6
        )

    def test_separation_detected(self):
        # perfectly separated at x = 0.5 on the usual [0, 1] feature scale
        X = np.array([[0.1], [0.2], [0.8], [0.9]])
        y = np.array([0, 0, 1, 1])
        fit = fit_logit(X, y)
        assert fit.separation_detected
        assert not fit.converged
        assert np.max(np.abs(fit.beta)) > 30.0

    def test_duplicated_column_survives_via_ridge(self, collinear_design):
        """Two designs with a duplicated column: a random one, and C001 of
        the pipeline tests' fixture with a copy of its ``sentiment`` column,
        whose first information matrix some LAPACK kernels' LU solves to a
        finite step of order 1e15 without raising.  Each information matrix
        is below full rank, so the solve ridges it, and the fit stays finite."""
        rng = np.random.default_rng(6)
        x = rng.random(40)
        y = (rng.random(40) < sigmoid(2.0 * x - 1.0)).astype(float)
        for X, y in ((np.column_stack([x, x]), y), collinear_design):
            fit = fit_logit(X, y)
            assert np.all(np.isfinite(fit.beta))
            # the first Newton step's system: beta = 0, so every weight is 1/4
            Xd = np.hstack([np.ones((len(y), 1)), X])
            H, rhs = Xd.T @ (0.25 * Xd), Xd.T @ (y - 0.5)
            assert np.linalg.matrix_rank(H) < len(H)
            ridged = np.linalg.solve(H + RIDGE * np.eye(len(H)), rhs)
            np.testing.assert_array_equal(_solve_information(H, rhs), ridged)

    def test_singular_even_with_ridge(self):
        H = np.full((2, 2), np.nan)
        with pytest.raises(DataError, match="information matrix singular even with ridge term"):
            _solve_information(H, np.ones(2))

    def test_validation_errors(self):
        # too few rows is a fault of the data, as a short dataset file is
        with pytest.raises(DataError, match=r"need n > m \+ 1 rows, have n=3, m=2"):
            fit_logit(np.ones((3, 2)), [0, 1, 1])
        with pytest.raises(ValidationError, match="X must be a 2-D matrix"):
            fit_logit(np.arange(4.0), [0, 1, 0, 1])
        with pytest.raises(ValidationError):
            fit_logit(np.array([[np.inf], [0.0], [1.0], [2.0]]), [0, 1, 0, 1])
        with pytest.raises(ValidationError):
            fit_logit(np.ones((4, 1)), [0, 1, 2, 1])


class TestSigmoid:
    def test_sigmoid_values(self):
        assert sigmoid(0.0) == pytest.approx(0.5)
        assert float(sigmoid(1.0)) == pytest.approx(0.7310585786300049, abs=1e-12)
        # beta = (-1, 2), x = (1) -> sigmoid(1)
        assert 1.0 / (1.0 + math.exp(-(-1.0 + 2.0 * 1.0))) == pytest.approx(
            0.7310585786300049
        )

    def test_branch_free_sigmoid_matches_masked_form(self):
        def masked(eta):
            out = np.empty_like(eta)
            pos = eta >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
            e = np.exp(eta[~pos])
            out[~pos] = e / (1.0 + e)
            return out

        special = np.array([0.0, -0.0, 800.0, -800.0, 1e-300, -1e-300,
                            np.inf, -np.inf, np.nan])
        rng = np.random.default_rng(0)
        for eta in (special, rng.normal(scale=20.0, size=(257, 7))):
            # assert_array_equal matches NaN with NaN whatever its sign bit
            np.testing.assert_array_equal(sigmoid(eta), masked(eta))
        assert sigmoid(-0.0) == 0.5 and isinstance(sigmoid(-0.0), float)

    def test_monotone_in_positive_coefficient(self):
        fit = fit_logit(X20.reshape(-1, 1), Y20)
        assert fit.beta[1] > 0
        xs = np.linspace(0.0, 1.0, 25)
        probs = [fitted_probability(fit, [x]) for x in xs]
        assert all(b > a for a, b in zip(probs, probs[1:]))


def two_sided_p(z: float) -> float:
    return float(_two_sided_pvalues(np.array([z]))[0])


class TestTwoSidedPvalues:
    def test_against_erf_series(self):
        for z in np.linspace(-3.0, 3.0, 61):
            series = 1.0 - erf_series(abs(z) / math.sqrt(2.0))
            assert two_sided_p(z) == pytest.approx(series, abs=1e-10)

    def test_p_at_zero(self):
        assert two_sided_p(0.0) == pytest.approx(1.0)

    def test_p_at_critical_value(self):
        assert two_sided_p(1.959964) == pytest.approx(0.05, abs=1e-6)

    def test_p_limit(self):
        assert two_sided_p(40.0) == pytest.approx(0.0, abs=1e-300)


class TestWaldSelection:
    def test_pvalues_match_fit_fields(self):
        fit = fit_logit(X20.reshape(-1, 1), Y20)
        np.testing.assert_array_equal(fit.z_score, fit.beta / fit.std_err)
        wald = [math.erfc(abs(z) / math.sqrt(2.0)) for z in fit.beta / fit.std_err]
        np.testing.assert_allclose(fit.p_value, wald, atol=1e-12)

    def test_pvalues_are_erfc_exactly(self):
        """p is erfc(|z|/sqrt(2)) to the bit, so a large |z| keeps a positive p
        where 2*(1 - Phi(|z|)) rounds to 0 (above |z| of about 8.3)."""
        rng = np.random.default_rng(11)
        X = rng.normal(size=(1000, 2))
        y = (rng.random(1000) < sigmoid(X[:, 0])).astype(float)
        fit = fit_logit(X, y)
        for z, p in zip(fit.z_score, fit.p_value):
            assert p == math.erfc(abs(z) / math.sqrt(2.0))
        assert fit.z_score[1] > 9 and fit.p_value[1] > 0.0

    def test_threshold_filter(self):
        fit = fit_logit(X20.reshape(-1, 1), Y20, feature_names=["f1"])
        fit.p_value = np.array([0.9, 0.01])
        assert select_features(fit, 0.05) == ["f1"]
        fit.p_value = np.array([0.9, 0.2])
        assert select_features(fit, 0.05) == []

    def test_vacuous_threshold_selects_everything(self):
        rng = np.random.default_rng(8)
        X = rng.random((50, 3))
        y = (rng.random(50) < 0.5).astype(float)
        fit = fit_logit(X, y, feature_names=["a", "b", "c"])
        assert select_features(fit, 1.0) == ["a", "b", "c"]

    def test_planted_signal_selected(self):
        rng = np.random.default_rng(9)
        n = 5000
        member = (rng.random(n) < 0.5).astype(float)
        trades = rng.random(n)
        noise = rng.random((n, 4))
        eta = 2.0 * member - 1.5 * trades
        y = (rng.random(n) < sigmoid(eta)).astype(float)
        X = np.column_stack([member, trades, noise])
        names = ["in_index", "trades", "n1", "n2", "n3", "n4"]
        fit = fit_logit(X, y, feature_names=names)
        selected = select_features(fit, 0.05)
        assert "in_index" in selected
        assert "trades" in selected
        assert abs(fit.beta[1] - 2.0) < 0.15
        assert abs(fit.beta[2] + 1.5) < 0.15
