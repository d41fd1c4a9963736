"""Synthetic membership series and company panels with planted parameters.

The generator plants known logistic coefficients, emits files in exactly
the ingest formats, and keeps the ground truth (labels, design rows, and
the optimal predictor's calls) so the whole pipeline can be checked
against a known answer.

Determinism: one PCG64 stream per call, consumed in a fixed order
(membership: initial states then weekly flips; panel: base feature
columns in declared order, then label uniforms, then missingness masks
in the same column order).  Per-company seeds derive from the master
seed by hashing, see ``derive_seed``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from .cohort import GENERATOR_NAME
from .config import DatasetConfig
from .dataset import LAG_SUFFIX, MEMBERSHIP_COLUMN
from .errors import ValidationError
from .ingest import (
    CompanyPanel,
    MembershipSnapshot,
    json_text,
    membership_file_name,
    membership_file_text,
    panel_file_text,
    table_text,
    write_files,
)
from .logit import sigmoid

FIRST_FRIDAY = date(2002, 1, 4)

INITIAL_PRICE = 100.0
UP_STEP = 1.01
DOWN_STEP = 0.99

# Where --calibrate puts the pooled Bayes accuracy: the acceptance suite's band.
BAYES_WINDOW = (0.73, 0.77)


def derive_seed(master: int, *parts) -> int:
    """Mix a master seed with string/int parts into a fresh 63-bit seed.

    SHA-256 over ``master|part|part...`` so derived streams are stable
    across runs and platforms (unlike the builtin hash()).
    """
    text = "|".join([str(int(master))] + [str(p) for p in parts])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True)
class PlantedModel:
    """Ground-truth logistic model behind a synthetic dataset.

    ``beta_true`` maps signal feature names to nonzero coefficients;
    ``noise_features`` are generated but carry zero true weight.  A name
    ending in ``_lag1w`` weights the prior week's value of its base
    column; ``in_index`` weights the membership indicator.
    """

    intercept_true: float
    beta_true: dict[str, float]
    noise_features: list[str] = field(default_factory=list)

    def __post_init__(self):
        overlap = set(self.beta_true) & set(self.noise_features)
        if overlap:
            raise ValidationError(f"features in both beta and noise: {sorted(overlap)}")
        if len(set(self.noise_features)) != len(self.noise_features):
            raise ValidationError("duplicate noise feature names")

    @property
    def feature_names(self) -> list[str]:
        return list(self.beta_true) + list(self.noise_features)

    def scaled(self, factor: float) -> "PlantedModel":
        return PlantedModel(
            self.intercept_true,
            {k: v * factor for k, v in self.beta_true.items()},
            list(self.noise_features),
        )


def ticker_name(i: int) -> str:
    return f"C{i:03d}"


def generate_membership_series(
    n_weeks: int, n_companies: int, switch_prob: float, seed: int
) -> list[MembershipSnapshot]:
    """Two-state Markov membership per company over consecutive Fridays.

    Week 1 includes each company independently with probability 0.5;
    every later week each company flips membership with ``switch_prob``.
    """
    tickers = [ticker_name(i) for i in range(n_companies)]
    rng = np.random.default_rng(seed)
    state = rng.random(n_companies) < 0.5
    snapshots = []
    for week in range(n_weeks):
        if week > 0:
            state ^= rng.random(n_companies) < switch_prob
        friday = FIRST_FRIDAY + timedelta(weeks=week)
        members = frozenset(t for t, present in zip(tickers, state) if present)
        snapshots.append(MembershipSnapshot(friday, friday, members))
    return snapshots


def membership_vector(
    snapshots: list[MembershipSnapshot], ticker: str
) -> list[int]:
    """Per-week 0/1 presence of one ticker across the snapshot series."""
    return [1 if ticker in s.constituents else 0 for s in snapshots]


@dataclass
class SyntheticCompany:
    """One generated company plus its ground truth.

    ``true_labels``, ``design`` rows, and ``bayes_pred`` align with
    ``panel.dates[1:]`` (week 1 onward; week 0 has no prior week).
    """

    ticker: str
    panel: CompanyPanel
    true_labels: list[int]
    design: dict[str, np.ndarray]
    bayes_pred: list[int]

    @property
    def label_dates(self) -> list[date]:
        return self.panel.dates[1:]

    @property
    def bayes_hits(self) -> int:
        """Weeks on which the optimal call matches the realized label."""
        return sum(p == t for p, t in zip(self.bayes_pred, self.true_labels))

    def bayes_accuracy(self) -> float:
        return self.bayes_hits / len(self.true_labels)


def _base_columns(planted: PlantedModel) -> list[str]:
    """Raw panel columns implied by the planted feature names, in order."""
    bases: list[str] = []
    for name in planted.feature_names:
        if name == MEMBERSHIP_COLUMN:
            continue
        base = name[: -len(LAG_SUFFIX)] if name.endswith(LAG_SUFFIX) else name
        if base not in bases:
            bases.append(base)
    return bases


def generate_company_panel(
    planted: PlantedModel,
    ticker: str,
    dates: list[date],
    in_index: list[int],
    missing_prob: float,
    seed: int,
) -> SyntheticCompany:
    """Generate one company's panel whose price path encodes planted labels.

    Raw features are i.i.d. uniform on [0, 1]; for weeks t >= 1 a label
    is drawn as Bernoulli(sigmoid(intercept + beta . x_t)), where x_t
    takes the membership value and any lagged feature from week t-1.
    The price steps +1% on label 1 and -1% on label 0, so the sign of
    the weekly change encodes the label exactly.  Non-price cells are
    then deleted independently with ``missing_prob``.
    """
    n = len(dates)
    if len(in_index) != n:
        raise ValidationError("in_index must align with dates")

    rng = np.random.default_rng(seed)
    bases = _base_columns(planted)
    raw = {name: rng.random(n) for name in bases}
    membership = np.asarray(in_index, dtype=float)

    design: dict[str, np.ndarray] = {}
    for name in planted.feature_names:
        if name == MEMBERSHIP_COLUMN:
            design[name] = membership[1:]
        elif name.endswith(LAG_SUFFIX):
            design[name] = raw[name[: -len(LAG_SUFFIX)]][:-1]
        else:
            design[name] = raw[name][1:]

    eta = np.full(n - 1, planted.intercept_true)
    for name, coef in planted.beta_true.items():
        eta += coef * design[name]
    prob = sigmoid(eta)
    labels = (rng.random(n - 1) < prob).astype(int)
    bayes_pred = (prob >= 0.5).astype(int)

    steps = np.where(labels == 1, UP_STEP, DOWN_STEP)
    columns = {DatasetConfig.price_column: np.cumprod(np.r_[INITIAL_PRICE, steps])}
    for name in bases:
        columns[name] = np.where(rng.random(n) < missing_prob, np.nan, raw[name])

    panel = CompanyPanel(ticker, list(dates), columns)
    return SyntheticCompany(
        ticker=ticker,
        panel=panel,
        true_labels=labels.tolist(),
        design=design,
        bayes_pred=bayes_pred.tolist(),
    )


def calibrate_signal_scale(
    planted: PlantedModel,
    companies: list[tuple[str, list[date], list[int], int]],
) -> tuple[float, float]:
    """Binary-search a coefficient scale whose pooled Bayes accuracy is in BAYES_WINDOW.

    ``companies`` holds (ticker, dates, in_index, seed) tuples; every
    candidate scale replays the same seeds, so accuracy is a monotone
    step function of the scale and the search is deterministic.

    Returns (scale, pooled_accuracy).
    """
    target_lo, target_hi = BAYES_WINDOW

    def pooled(scale: float) -> float:
        model = planted.scaled(scale)
        hits = total = 0
        for ticker, dates, in_index, seed in companies:
            company = generate_company_panel(model, ticker, dates, in_index, 0.0, seed)
            hits += company.bayes_hits
            total += len(company.true_labels)
        return hits / total

    lo, hi = 0.0, 1.0
    while pooled(hi) < target_hi and hi < 2.0**20:
        lo, hi = hi, hi * 2.0
    for _ in range(60):
        mid = (lo + hi) / 2.0
        acc = pooled(mid)
        if target_lo <= acc <= target_hi:
            return mid, acc
        if acc < target_lo:
            lo = mid
        else:
            hi = mid
    raise ValidationError(
        f"calibration failed to land in [{target_lo}, {target_hi}]"
    )


def default_planted() -> PlantedModel:
    """Fixture default: membership, lagged total return, sentiment, trades
    carry signal; three extra columns are pure noise."""
    return PlantedModel(
        intercept_true=0.0,
        beta_true={
            MEMBERSHIP_COLUMN: 2.0,
            "total_return" + LAG_SUFFIX: 1.5,
            "sentiment": 1.5,
            "trades": -1.5,
        },
        noise_features=["noise_a", "noise_b", "noise_c"],
    )


def write_fixture(
    out_dir: str | Path,
    n_companies: int,
    n_weeks: int,
    switch_prob: float,
    missing_prob: float,
    seed: int,
    planted: PlantedModel,
    signal_scale: float | None = None,
    calibrate: bool = False,
) -> dict:
    """Write a complete synthetic fixture under ``out_dir``.

    Layout: ``membership/constituents_<date>.csv`` per week,
    ``panels/<ticker>.csv`` per company, per-row ground truth under
    ``truth/``, and ``truth.json`` with the planted parameters and Bayes
    accuracies, all in one ``write_files`` call: a failed calibration or a
    refused target leaves no file.  Returns the truth document.
    """
    snapshots = generate_membership_series(
        n_weeks, n_companies, switch_prob, derive_seed(seed, "membership")
    )
    dates = [s.requested_date for s in snapshots]
    tickers = [ticker_name(i) for i in range(n_companies)]
    company_inputs = [
        (t, dates, membership_vector(snapshots, t), derive_seed(seed, "panel", t))
        for t in tickers
    ]

    if calibrate:
        scale, _ = calibrate_signal_scale(planted, company_inputs)
    else:
        scale = 1.0 if signal_scale is None else signal_scale
    model = planted.scaled(scale)
    files = {f"membership/{membership_file_name(s.requested_date)}": membership_file_text(s)
             for s in snapshots}
    companies = []
    hits = total = 0
    for ticker, dts, vector, company_seed in company_inputs:
        company = generate_company_panel(model, ticker, dts, vector, missing_prob, company_seed)
        files[f"panels/{ticker}.csv"] = panel_file_text(company.panel)
        files[f"truth/{ticker}.csv"] = table_text(
            ["true_label", "bayes_pred"], company.label_dates,
            [company.true_labels, company.bayes_pred])
        hits += company.bayes_hits
        total += len(company.true_labels)
        companies.append(
            {
                "ticker": ticker,
                "seed": company_seed,
                "bayes_accuracy": company.bayes_accuracy(),
            }
        )

    truth = {
        "seed": seed,
        "n_weeks": n_weeks,
        "n_companies": n_companies,
        "switch_prob": switch_prob,
        "missing_prob": missing_prob,
        "signal_scale": scale,
        "calibrated": calibrate,
        # missingness is drawn after the labels, so this is the calibrated value
        "pooled_bayes_accuracy": hits / total,
        "planted": {
            "intercept": model.intercept_true,
            "beta": dict(model.beta_true),
            "noise_features": list(model.noise_features),
        },
        "companies": companies,
        "generator": GENERATOR_NAME,
    }
    files["truth.json"] = json_text(truth)
    write_files(Path(out_dir), files)
    return truth
