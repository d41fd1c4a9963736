"""Per-company dataset construction, and the dataset file format.

``build_company_dataset`` holds the build order, on one dict of the
panel's columns.  Each step returns what it computes (a column, a dict
of columns, a list of names or a row range); min-max normalization and
mean imputation follow.  The build's ``info`` is the
``datasets/<ticker>.meta.json`` document.  ``split_features`` cuts the
network's (train, test) pair out of a built dataset.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from datetime import date
from fractions import Fraction
from typing import Sequence

import numpy as np

from .config import TARGET_DIRECTION, PipelineConfig
from .errors import DataError, ValidationError
from .ingest import (
    MAX_FALLBACK_DAYS,
    CompanyPanel,
    MembershipSnapshot,
    check_increasing,
    parse_company_panel,
    table_text,
)

MEMBERSHIP_COLUMN = "in_index"
LAG_SUFFIX = "_lag1w"
# The label's column in a dataset file, after ``date`` and before the features.
LABEL_COLUMN = "y"
LISTED_DATES = 10  # an uncovered-dates error lists the first ones, then how many more


@dataclass
class LabeledDataset:
    """Aligned, fully numeric (X, y) for one company; ``__post_init__``
    checks the shapes and that the dates strictly increase.  The build
    puts every entry of X in [0, 1] and y in {0, 1}; ``read_dataset_csv``
    checks y and refuses empty cells, but takes X's values as written.
    """

    ticker: str
    dates: list[date]
    feature_names: list[str]
    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        n = len(self.dates)
        if self.X.shape != (n, len(self.feature_names)) or self.y.shape != (n,):
            raise ValidationError(
                f"dataset {self.ticker}: misaligned shapes "
                f"(X {self.X.shape}, y {self.y.shape}, {n} dates)"
            )
        check_increasing(self.dates, f"dataset {self.ticker}")

    @property
    def n_rows(self) -> int:
        return len(self.dates)


def build_company_dataset(
    panel: CompanyPanel,
    snapshots: list[MembershipSnapshot],
    cfg: PipelineConfig,
) -> tuple[LabeledDataset, dict]:
    """Run the full dataset chain for one company: ``(dataset, info)``.

    Order: membership indicator, lag columns, labels, sparse-column drop,
    timespan trim, then normalize/impute/assemble.  The raw price column
    is the label source and is never handed to the models; in membership
    target mode the indicator becomes the label and is likewise excluded
    from the features.  ``info`` holds, in sidecar order, ``dropped_columns``,
    ``timespan``, ``n_rows`` and ``columns`` (``assemble_dataset``'s record).
    """
    dcfg = cfg.dataset
    # a panel whose columns dict is the build's own, to add columns to
    panel = CompanyPanel(panel.ticker, panel.dates, panel.columns)
    _add_columns(panel, {MEMBERSHIP_COLUMN: membership_indicator(panel, snapshots)})
    _add_columns(panel, lagged_features(panel, dcfg.lag_features))

    if cfg.target_mode == TARGET_DIRECTION:
        labels = direction_labels(panel, dcfg.price_column)
        exclude, required_price = {dcfg.price_column}, [dcfg.price_column]
    else:
        labels = panel.column(MEMBERSHIP_COLUMN)
        exclude, required_price = {dcfg.price_column, MEMBERSHIP_COLUMN}, []

    features = {n: v for n, v in panel.columns.items() if n not in exclude}
    dropped = sparse_columns(features, dcfg.max_missing_fraction)
    features = {n: v for n, v in features.items() if n not in dropped}
    if not features:
        raise DataError(f"panel {panel.ticker}: every feature column was dropped")

    start, stop = trim_timespan(panel, [*features, *required_price])
    kept = {name: values[start:stop] for name, values in features.items()}
    trimmed = CompanyPanel(panel.ticker, panel.dates[start:stop], kept)
    dataset, columns = assemble_dataset(trimmed, labels[start:stop], list(features))
    info = {
        "dropped_columns": dropped,
        "timespan": [trimmed.dates[0].isoformat(), trimmed.dates[-1].isoformat()],
        "n_rows": dataset.n_rows,
        "columns": columns,
    }
    return dataset, info


def _add_columns(panel: CompanyPanel, new: dict[str, np.ndarray]) -> None:
    for name, values in new.items():
        if name in panel.columns:
            raise ValidationError(f"panel {panel.ticker}: column {name!r} already exists")
        panel.columns[name] = values


def membership_indicator(
    panel: CompanyPanel, snapshots: list[MembershipSnapshot]
) -> np.ndarray:
    """Each panel row's 0/1 ``in_index`` value, from the covering weekly snapshots.

    Each row date must fall inside exactly one snapshot week
    [requested - 6 days, requested]; rows outside every week raise
    DataError listing the first ``LISTED_DATES`` offending dates.
    """
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
        rows = np.flatnonzero(~covered)
        listed = [panel.dates[t].isoformat() for t in rows[:LISTED_DATES]]
        more = f" and {len(rows) - LISTED_DATES} more" if len(rows) > LISTED_DATES else ""
        raise DataError(f"panel {panel.ticker}: no snapshot week covers {listed}{more}")
    return member[week].astype(float)


def _ordinals(days: Sequence[date]) -> np.ndarray:
    return np.fromiter(map(date.toordinal, days), np.int64, len(days))


def direction_labels(panel: CompanyPanel, price_column: str) -> np.ndarray:
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
        raise DataError(
            f"panel {panel.ticker}: fewer than 2 consecutive usable prices "
            f"in {price_column!r}"
        )
    return labels


def lagged_features(panel: CompanyPanel, features: Sequence[str]) -> dict[str, np.ndarray]:
    """``<f>_lag1w`` columns holding each feature's prior-week value."""
    return {name + LAG_SUFFIX: np.r_[np.nan, panel.column(name)][:-1] for name in features}


def sparse_columns(columns: dict[str, np.ndarray], max_missing_fraction: float) -> list[str]:
    """The names of the columns whose missing fraction strictly exceeds the threshold."""
    # a column without rows misses nothing (and the mean of no cells warns)
    return [
        name for name, values in columns.items()
        if values.size and np.isnan(values).mean() > max_missing_fraction
    ]


def trim_timespan(panel: CompanyPanel, required: Sequence[str]) -> tuple[int, int]:
    """The rows ``[start, stop)`` of the panel's longest usable contiguous stretch.

    Rows where every required column is missing split the panel into
    candidate runs; each run is then trimmed so it starts and ends on a
    row where all required columns are present (interior gaps stay, for
    imputation).  The longest trimmed run wins, ties going to the more
    recent one.  No fully-present row anywhere raises DataError.
    """
    missing = np.isnan(np.column_stack([panel.column(name) for name in required]))
    anchors = np.flatnonzero(~missing.any(axis=1))
    if not anchors.size:
        raise DataError(f"panel {panel.ticker}: no row has all of {list(required)} present")
    # Anchors with the same count of void rows before them share a run.
    run = np.cumsum(missing.all(axis=1))[anchors]
    new_run = np.r_[True, run[1:] != run[:-1]]
    starts = anchors[new_run]
    stops = anchors[np.r_[new_run[1:], True]] + 1
    # the last of the longest runs, so ties go to the more recent one
    best = len(starts) - 1 - int(np.argmax((stops - starts)[::-1]))
    return int(starts[best]), int(stops[best])


def normalize_column(values: Sequence[float]) -> tuple[np.ndarray, float, float]:
    """Min-max scale observed values into [0, 1]; NaN (missing) stays NaN.

    ``None`` entries count as missing.  A constant column maps every
    observed value to 0.0 (degenerate range, recorded via raw_min ==
    raw_max in the column's record).
    """
    values = np.asarray(values, dtype=float)
    observed = values[~np.isnan(values)]
    if not observed.size:
        raise DataError("cannot normalize a column with no observed values")
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
        raise DataError("cannot impute a column with no observed values")
    mean_used = float(np.cumsum(observed)[-1] / observed.size)
    return np.where(missing, mean_used, values), mean_used, int(missing.sum())


def _matrix(columns: list[np.ndarray], n_rows: int) -> np.ndarray:
    """Columns side by side as an (n_rows, len(columns)) matrix, even with none."""
    return np.column_stack([np.empty((n_rows, 0)), *columns])


def assemble_dataset(
    panel: CompanyPanel,
    labels: Sequence[float],
    feature_names: Sequence[str],
) -> tuple[LabeledDataset, dict[str, dict]]:
    """Normalize and impute the named features, keep labeled rows, build (X, y).

    ``labels`` holds 0/1 per panel row; NaN (or ``None``) marks a row
    without a label, which is left out.  Returns ``(dataset, columns)``:
    ``columns[name]`` records that column's scaling and imputation as
    ``raw_min``, ``raw_max``, ``mean_used``, ``imputed_count`` and
    ``degenerate``.
    """
    labels = np.asarray(labels, dtype=float)
    if labels.shape != (panel.n_rows,):
        raise ValidationError(
            f"panel {panel.ticker}: {len(labels)} labels for {panel.n_rows} rows"
        )
    if LABEL_COLUMN in feature_names:
        raise DataError(
            f"panel {panel.ticker}: feature column {LABEL_COLUMN!r} is the dataset file's label"
        )
    filled: dict[str, np.ndarray] = {}
    columns: dict[str, dict] = {}
    for name in feature_names:
        normalized, raw_min, raw_max = normalize_column(panel.column(name))
        filled[name], mean_used, imputed_count = impute_missing(normalized)
        columns[name] = {
            "raw_min": raw_min,
            "raw_max": raw_max,
            "mean_used": mean_used,
            "imputed_count": imputed_count,
            "degenerate": raw_min == raw_max,
        }
    keep = ~np.isnan(labels)
    X = _matrix([filled[name] for name in feature_names], panel.n_rows)[keep]
    dates = [day for day, kept in zip(panel.dates, keep) if kept]
    dataset = LabeledDataset(panel.ticker, dates, list(feature_names), X, labels[keep].astype(int))
    return dataset, columns


def split_features(
    ds: LabeledDataset, names: Sequence[str], train_fraction: float
) -> tuple[LabeledDataset, LabeledDataset]:
    """The columns ``names`` of ``ds``, in that order, split into (train, test);
    no ``names`` takes every column, in the dataset's order.

    The first ceil(fraction * n) rows train, the rest test; no shuffling.
    The ceiling is taken in exact decimal arithmetic so 0.8 of 450 rows
    is 360, not 361 from float round-up.  The chosen columns are copied
    once; both parts are row slices of that copy and of ``ds.y``.
    """
    names = names or ds.feature_names
    missing = [n for n in names if n not in ds.feature_names]
    if missing:
        raise ValidationError(f"dataset {ds.ticker}: unknown columns {missing}")
    repeated = sorted({n for n in names if names.count(n) > 1})
    if repeated:
        raise ValidationError(f"dataset {ds.ticker}: repeated columns {repeated}")
    n = ds.n_rows
    if n < 5:
        raise DataError(f"dataset {ds.ticker}: need at least 5 rows, have {n}")
    n_train = math.ceil(Fraction(str(train_fraction)) * n)
    if n_train <= 0 or n_train >= n:
        raise DataError(
            f"dataset {ds.ticker}: split {n_train}/{n - n_train} leaves a part empty"
        )
    # ``take`` copies in C order; ``X[:, idx]`` gives F order, which matmul may round differently
    X = ds.X.take([ds.feature_names.index(n) for n in names], axis=1)

    def part(rows: slice) -> LabeledDataset:
        return LabeledDataset(ds.ticker, ds.dates[rows], list(names), X[rows], ds.y[rows])

    return part(slice(0, n_train)), part(slice(n_train, n))


def dataset_csv_text(ds: LabeledDataset) -> str:
    """Serialize a labeled dataset as ``date,y,<feature...>`` CSV."""
    columns = [ds.y.tolist(), *ds.X.T.tolist()]
    return table_text([LABEL_COLUMN, *ds.feature_names], ds.dates, columns)


def read_dataset_csv(content: str, ticker: str, source: str = "<dataset>") -> LabeledDataset:
    """Read back the text of a ``date,y,<feature...>`` CSV written by dataset_csv_text.

    Unlike a panel file, a dataset file has no missing values: an empty
    cell is a DataError that names its line and column.
    """
    panel = parse_company_panel(content, ticker, source=source)
    if LABEL_COLUMN not in panel.columns:
        raise DataError(f"{source}: missing {LABEL_COLUMN!r} column")
    labels = panel.column(LABEL_COLUMN)
    names = [n for n in panel.feature_names if n != LABEL_COLUMN]
    X = _matrix([panel.columns[n] for n in names], panel.n_rows)
    if np.isnan(labels).any() or np.isnan(X).any():
        # the parse sorted the rows by date: read the text again for the line
        rows = csv.reader(io.StringIO(content))
        header = next(rows)
        for lineno, row in enumerate(rows, start=2):
            for name, cell in zip(header, row):
                if cell == "":
                    raise DataError(f"{source}, line {lineno}, column {name!r}: empty cell")
    if not np.isin(labels, (0.0, 1.0)).all():
        raise DataError(f"{source}: {LABEL_COLUMN!r} must contain only 0 and 1")
    return LabeledDataset(ticker, panel.dates, names, X, labels.astype(int))
