"""Per-company dataset construction.

Turns a raw company panel plus the weekly membership snapshots into a
normalized, imputed, labeled matrix: membership indicator, direction
label, one-week lags, sparse-column removal, timespan trimming, min-max
normalization, mean imputation, and the chronological train/test split.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from datetime import date
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (
    EmptyColumnError,
    EmptyTimespanError,
    InsufficientHistoryError,
    InvalidSplitError,
    UncoveredDateError,
    ValidationError,
)
from .ingest import (
    MAX_FALLBACK_DAYS,
    CompanyPanel,
    MembershipSnapshot,
    parse_company_panel,
)

MEMBERSHIP_COLUMN = "in_index"
LAG_SUFFIX = "_lag1w"


@dataclass
class ColumnMeta:
    """Normalization and imputation record for one feature column."""

    raw_min: float
    raw_max: float
    observed_mean_normalized: float
    imputed_count: int
    degenerate: bool = False


@dataclass
class LabeledDataset:
    """Aligned, fully numeric (X, y) for one company.

    Every entry of X lies in [0, 1]; y holds only 0 and 1; dates are
    strictly increasing and row-aligned with X and y.
    """

    ticker: str
    dates: list[date]
    feature_names: list[str]
    X: np.ndarray
    y: np.ndarray
    column_meta: dict[str, ColumnMeta] = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.dates)
        if self.X.shape != (n, len(self.feature_names)) or self.y.shape != (n,):
            raise ValidationError(
                f"dataset {self.ticker}: misaligned shapes "
                f"(X {self.X.shape}, y {self.y.shape}, {n} dates)"
            )
        for prev, nxt in zip(self.dates, self.dates[1:]):
            if nxt <= prev:
                raise ValidationError(
                    f"dataset {self.ticker}: dates not strictly increasing"
                )

    @property
    def n_rows(self) -> int:
        return len(self.dates)

    def select_columns(self, names: Sequence[str]) -> "LabeledDataset":
        """Column subset in the given order (used to hand models their features)."""
        missing = [n for n in names if n not in self.feature_names]
        if missing:
            raise ValidationError(f"dataset {self.ticker}: unknown columns {missing}")
        idx = [self.feature_names.index(n) for n in names]
        return LabeledDataset(
            self.ticker,
            list(self.dates),
            list(names),
            self.X[:, idx].copy(),
            self.y.copy(),
            {n: self.column_meta[n] for n in names if n in self.column_meta},
        )


def attach_membership_indicator(
    panel: CompanyPanel, snapshots: list[MembershipSnapshot]
) -> CompanyPanel:
    """Add the 0/1 ``in_index`` column from the covering weekly snapshots.

    Each row date must fall inside exactly one snapshot week
    [requested - 6 days, requested]; rows outside every week raise
    UncoveredDateError listing the offending dates.
    """
    if not snapshots:
        raise ValidationError("attach_membership_indicator needs snapshots")
    ordered = sorted(snapshots, key=lambda s: s.requested_date)
    requested = _ordinals([s.requested_date for s in ordered])
    member = np.fromiter(
        (panel.ticker in s.constituents for s in ordered), bool, len(ordered)
    )
    days = _ordinals(panel.dates)
    # the first week ending on or after each day is the only one that can cover it
    week = np.minimum(np.searchsorted(requested, days), len(ordered) - 1)
    covered = (days <= requested[week]) & (days >= requested[week] - MAX_FALLBACK_DAYS)
    if not covered.all():
        uncovered = [panel.dates[t].isoformat() for t in np.flatnonzero(~covered)]
        raise UncoveredDateError(
            f"panel {panel.ticker}: no snapshot week covers {uncovered}"
        )
    return panel.with_columns({MEMBERSHIP_COLUMN: member[week].astype(float)})


def _ordinals(days: Sequence[date]) -> np.ndarray:
    return np.fromiter(map(date.toordinal, days), np.int64, len(days))


def attach_direction_label(panel: CompanyPanel, price_column: str) -> np.ndarray:
    """Week-over-week price direction labels aligned to the panel rows.

    label[t] is 1.0 when price rose from t-1 to t and 0.0 otherwise (a
    flat price counts as non-increase).  The first row and any row whose
    own or prior price is missing get NaN.
    """
    prices = panel.column(price_column)
    labels = np.full(panel.n_rows, np.nan)
    now, before = prices[1:], prices[:-1]
    labels[1:] = np.where(np.isnan(now) | np.isnan(before), np.nan, now > before)
    if np.isnan(labels).all():
        raise InsufficientHistoryError(
            f"panel {panel.ticker}: fewer than 2 consecutive usable prices "
            f"in {price_column!r}"
        )
    return labels


def attach_lagged_features(
    panel: CompanyPanel, features: Sequence[str]
) -> CompanyPanel:
    """Add ``<f>_lag1w`` columns holding each feature's prior-week value."""
    return panel.with_columns(
        {name + LAG_SUFFIX: np.r_[np.nan, panel.column(name)[:-1]] for name in features}
    )


def drop_sparse_columns(
    panel: CompanyPanel, max_missing_fraction: float
) -> tuple[CompanyPanel, list[str]]:
    """Remove columns whose missing fraction strictly exceeds the threshold."""
    if not 0.0 <= max_missing_fraction <= 1.0:
        raise ValidationError("max_missing_fraction must be in [0, 1]")
    if panel.n_rows == 0:
        return panel, []
    missing = {name: np.isnan(col).mean() for name, col in panel.columns.items()}
    dropped = [name for name, share in missing.items() if share > max_missing_fraction]
    return panel.without_columns(dropped), dropped


def trim_timespan(panel: CompanyPanel, required: Sequence[str]) -> CompanyPanel:
    """Cut the panel to its longest usable contiguous stretch of rows.

    Rows where every required column is missing split the panel into
    candidate runs; each run is then trimmed so it starts and ends on a
    row where all required columns are present (interior gaps stay, for
    imputation).  The longest trimmed run wins, ties going to the more
    recent one.  No fully-present row anywhere raises EmptyTimespanError.
    """
    if not required:
        raise ValidationError("trim_timespan needs at least one required column")
    missing = np.isnan(np.column_stack([panel.column(name) for name in required]))
    anchors = np.flatnonzero(~missing.any(axis=1))
    if not anchors.size:
        raise EmptyTimespanError(
            f"panel {panel.ticker}: no row has all of {list(required)} present"
        )
    # Anchors with the same count of void rows before them share a run.
    run = np.cumsum(missing.all(axis=1))[anchors]
    new_run = np.r_[True, run[1:] != run[:-1]]
    starts = anchors[new_run]
    stops = anchors[np.r_[new_run[1:], True]] + 1
    # the last of the longest runs, so ties go to the more recent one
    best = len(starts) - 1 - int(np.argmax((stops - starts)[::-1]))
    start, stop = int(starts[best]), int(stops[best])
    columns = {name: v[start:stop] for name, v in panel.columns.items()}
    return CompanyPanel(panel.ticker, panel.dates[start:stop], columns)


def normalize_column(values: Sequence[float]) -> tuple[np.ndarray, float, float]:
    """Min-max scale observed values into [0, 1]; NaN (missing) stays NaN.

    ``None`` entries count as missing.  A constant column maps every
    observed value to 0.0 (degenerate range, recorded via raw_min ==
    raw_max in the column metadata).
    """
    values = np.asarray(values, dtype=float)
    observed = values[~np.isnan(values)]
    if not observed.size:
        raise EmptyColumnError("cannot normalize a column with no observed values")
    if not np.isfinite(observed).all():
        raise ValidationError("cannot normalize non-finite values")
    raw_min = float(observed.min())
    raw_max = float(observed.max())
    span = raw_max - raw_min
    if not math.isfinite(span):
        raise ValidationError("column range overflows floating point")
    # a degenerate range scales by 1 so every observed value maps to 0.0
    return (values - raw_min) / (span or 1.0), raw_min, raw_max


def impute_missing(values: Sequence[float]) -> tuple[np.ndarray, float, int]:
    """Fill missing (NaN or ``None``) entries with the mean of the observed ones.

    The mean is summed left to right, one addition at a time, so it does
    not depend on the Python or numpy version (``np.sum`` sums pairwise
    and Python 3.12's ``sum`` compensates).
    """
    values = np.asarray(values, dtype=float)
    missing = np.isnan(values)
    observed = values[~missing]
    if not observed.size:
        raise EmptyColumnError("cannot impute a column with no observed values")
    mean_used = float(np.cumsum(observed)[-1] / observed.size)
    return np.where(missing, mean_used, values), mean_used, int(missing.sum())


def _matrix(columns: list[np.ndarray], n_rows: int) -> np.ndarray:
    """Columns side by side as an (n_rows, len(columns)) matrix, even with none."""
    return np.column_stack([np.empty((n_rows, 0)), *columns])


def assemble_dataset(
    panel: CompanyPanel,
    labels: Sequence[float],
    feature_names: Sequence[str],
) -> LabeledDataset:
    """Normalize and impute the named features, keep labeled rows, build (X, y).

    ``labels`` holds 0/1 per panel row; NaN (or ``None``) marks a row
    without a label, which is left out.
    """
    labels = np.asarray(labels, dtype=float)
    if labels.shape != (panel.n_rows,):
        raise ValidationError(
            f"panel {panel.ticker}: {len(labels)} labels for {panel.n_rows} rows"
        )
    filled: dict[str, np.ndarray] = {}
    meta: dict[str, ColumnMeta] = {}
    for name in feature_names:
        normalized, raw_min, raw_max = normalize_column(panel.column(name))
        column, mean_used, imputed_count = impute_missing(normalized)
        filled[name] = column
        meta[name] = ColumnMeta(
            raw_min=raw_min,
            raw_max=raw_max,
            observed_mean_normalized=mean_used,
            imputed_count=imputed_count,
            degenerate=raw_min == raw_max,
        )
    keep = ~np.isnan(labels)
    X = _matrix([filled[name] for name in feature_names], panel.n_rows)[keep]
    dates = [day for day, kept in zip(panel.dates, keep) if kept]
    return LabeledDataset(
        panel.ticker, dates, list(feature_names), X, labels[keep].astype(int), meta
    )


def chronological_split(
    ds: LabeledDataset, train_fraction: float
) -> tuple[LabeledDataset, LabeledDataset]:
    """First ceil(fraction * n) rows train, the rest test; no shuffling.

    The ceiling is taken in exact decimal arithmetic so 0.8 of 450 rows
    is 360, not 361 from float round-up.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValidationError("train_fraction must be in (0, 1)")
    n = ds.n_rows
    if n < 5:
        raise ValidationError(f"dataset {ds.ticker}: need at least 5 rows, have {n}")
    n_train = math.ceil(Fraction(str(train_fraction)) * n)
    if n_train <= 0 or n_train >= n:
        raise InvalidSplitError(
            f"dataset {ds.ticker}: split {n_train}/{n - n_train} leaves a part empty"
        )

    def part(lo: int, hi: int) -> LabeledDataset:
        return LabeledDataset(
            ds.ticker,
            ds.dates[lo:hi],
            list(ds.feature_names),
            ds.X[lo:hi].copy(),
            ds.y[lo:hi].copy(),
            dict(ds.column_meta),
        )

    return part(0, n_train), part(n_train, n)


def dataset_csv_text(ds: LabeledDataset) -> str:
    """Serialize a labeled dataset as ``date,y,<feature...>`` CSV."""
    out = io.StringIO()
    # Feature names may need quoting; dates and float reprs never do.
    csv.writer(out, lineterminator="\n").writerow(["date", "y"] + ds.feature_names)
    for day, label, row in zip(ds.dates, ds.y.tolist(), ds.X.tolist()):
        out.write(",".join([day.isoformat(), str(int(label)), *map(repr, row)]) + "\n")
    return out.getvalue()


def read_dataset_csv(content, ticker: str, source: str = "<dataset>") -> LabeledDataset:
    """Read back a ``date,y,<feature...>`` CSV written by dataset_csv_text."""
    panel = parse_company_panel(content, ticker, source=source)
    if "y" not in panel.columns:
        raise ValidationError(f"{source}: missing 'y' column")
    labels = panel.column("y")
    if not np.isin(labels, (0.0, 1.0)).all():
        raise ValidationError(f"{source}: 'y' must contain only 0 and 1")
    names = [n for n in panel.feature_names if n != "y"]
    X = _matrix([panel.columns[n] for n in names], panel.n_rows)
    return LabeledDataset(ticker, panel.dates, names, X, labels.astype(int), {})
