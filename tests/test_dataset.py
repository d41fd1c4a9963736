import math
from bisect import bisect_left
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pricedir.dataset import (
    LabeledDataset,
    assemble_dataset,
    attach_direction_label,
    attach_lagged_features,
    attach_membership_indicator,
    chronological_split,
    dataset_csv_text,
    drop_sparse_columns,
    impute_missing,
    normalize_column,
    read_dataset_csv,
    trim_timespan,
)
from pricedir.errors import (
    EmptyColumnError,
    EmptyTimespanError,
    InsufficientHistoryError,
    InvalidSplitError,
    UncoveredDateError,
    ValidationError,
)

from pricedir.ingest import MAX_FALLBACK_DAYS, CompanyPanel, MembershipSnapshot

from conftest import make_panel, make_snapshots, weekly_dates


class TestMembershipIndicator:
    def test_present_and_absent(self):
        panel = make_panel(ticker="A", price=[10.0, 11.0])
        snaps = make_snapshots([{"A"}, {"B"}])
        out = attach_membership_indicator(panel, snaps)
        np.testing.assert_array_equal(out.column("in_index"), [1.0, 0.0])

    def test_first_six_weeks_in(self):
        panel = make_panel(ticker="A", price=[float(i) for i in range(10)])
        snaps = make_snapshots([{"A"}] * 6 + [set()] * 4)
        out = attach_membership_indicator(panel, snaps)
        np.testing.assert_array_equal(out.column("in_index"), [1.0] * 6 + [0.0] * 4)

    def test_row_inside_week_window_covered(self):
        # Tuesday before the Friday snapshot still belongs to that week
        panel = make_panel(ticker="A", n=1, start=date(2002, 1, 1), price=[10.0])
        snaps = make_snapshots([{"A"}])  # requested Friday 2002-01-04
        out = attach_membership_indicator(panel, snaps)
        np.testing.assert_array_equal(out.column("in_index"), [1.0])

    def test_uncovered_date_error_lists_dates(self):
        panel = make_panel(ticker="A", n=2, start=date(2010, 1, 1), price=[1.0, 2.0])
        snaps = make_snapshots([{"A"}])
        with pytest.raises(UncoveredDateError, match="2010-01-01"):
            attach_membership_indicator(panel, snaps)

    def test_uncovered_dates_listed_in_row_order(self):
        # snapshots for weeks 1, 2 and 4 (week 3 missing), given out of order;
        # rows fall before the first week, in the gap and after the last week
        weeks = weekly_dates(5)
        snaps = [
            MembershipSnapshot(day, day, frozenset({"A"}))
            for day in (weeks[4], weeks[1], weeks[2])
        ]
        days = [weeks[0], weeks[1], weeks[2] + timedelta(days=3), weeks[3], weeks[4],
                weeks[4] + timedelta(days=1)]
        panel = CompanyPanel("A", days, {"price": [1.0] * len(days)})
        with pytest.raises(UncoveredDateError) as info:
            attach_membership_indicator(panel, snaps)
        assert str(info.value) == (
            "panel A: no snapshot week covers "
            "['2002-01-04', '2002-01-21', '2002-01-25', '2002-02-02']"
        )

    @given(st.data())
    def test_matches_reference_loop(self, data):
        weeks = weekly_dates(12)
        kept = data.draw(st.lists(st.sampled_from(weeks), min_size=1, unique=True))
        snaps = [
            MembershipSnapshot(
                day,
                day - timedelta(days=data.draw(st.integers(0, MAX_FALLBACK_DAYS))),
                frozenset(data.draw(st.sets(st.sampled_from(["A", "B"])))),
            )
            for day in kept
        ]
        offsets = data.draw(st.sets(st.integers(-10, 7 * 12 + 10), min_size=1))
        days = [weeks[0] + timedelta(days=k) for k in sorted(offsets)]
        panel = CompanyPanel("A", days, {"price": [1.0] * len(days)})
        try:
            want = reference_indicator(panel, snaps)
        except UncoveredDateError as exc:
            with pytest.raises(UncoveredDateError) as info:
                attach_membership_indicator(panel, snaps)
            assert str(info.value) == str(exc)
        else:
            got = attach_membership_indicator(panel, snaps).column("in_index")
            np.testing.assert_array_equal(got, want)


def reference_indicator(panel, snapshots):
    """The row-by-row form of the indicator: bisect, then the week-window test."""
    ordered = sorted(snapshots, key=lambda s: s.requested_date)
    requested = [s.requested_date for s in ordered]
    indicator = np.zeros(panel.n_rows)
    uncovered = []
    for t, day in enumerate(panel.dates):
        i = bisect_left(requested, day)
        week_start = i < len(ordered) and requested[i] - timedelta(days=MAX_FALLBACK_DAYS)
        if i == len(ordered) or not week_start <= day <= requested[i]:
            uncovered.append(day)
        elif panel.ticker in ordered[i].constituents:
            indicator[t] = 1.0
    if uncovered:
        raise UncoveredDateError(
            f"panel {panel.ticker}: no snapshot week covers "
            f"{[d.isoformat() for d in uncovered]}"
        )
    return indicator


class TestDirectionLabel:
    def test_rise_is_one(self):
        labels = attach_direction_label(make_panel(price=[10.0, 10.5]), "price")
        np.testing.assert_array_equal(labels, [np.nan, 1])

    def test_fall_is_zero(self):
        labels = attach_direction_label(make_panel(price=[10.0, 9.9]), "price")
        np.testing.assert_array_equal(labels, [np.nan, 0])

    def test_flat_counts_as_non_increase(self):
        labels = attach_direction_label(make_panel(price=[10.0, 10.0]), "price")
        np.testing.assert_array_equal(labels, [np.nan, 0])

    def test_hand_built_five_rows(self):
        labels = attach_direction_label(
            make_panel(price=[10.0, 10.5, 10.5, 9.0, 12.0]), "price"
        )
        np.testing.assert_array_equal(labels, [np.nan, 1, 0, 0, 1])
        assert sum(l == 1 for l in labels) == 2
        assert sum(l == 0 for l in labels) == 2

    def test_missing_prices_excluded(self):
        labels = attach_direction_label(
            make_panel(price=[10.0, None, 11.0, 12.0]), "price"
        )
        np.testing.assert_array_equal(labels, [np.nan, np.nan, np.nan, 1])

    def test_insufficient_history(self):
        with pytest.raises(InsufficientHistoryError):
            attach_direction_label(make_panel(price=[10.0, None, 11.0]), "price")

    def test_unknown_column(self):
        with pytest.raises(ValidationError):
            attach_direction_label(make_panel(price=[1.0, 2.0]), "close")


class TestLaggedFeatures:
    def test_shift_by_one(self):
        panel = make_panel(ret=[1.0, 2.0, 3.0])
        out = attach_lagged_features(panel, ["ret"])
        np.testing.assert_array_equal(out.column("ret_lag1w"), [np.nan, 1.0, 2.0])

    def test_missing_propagates(self):
        panel = make_panel(ret=[1.0, None, 3.0])
        out = attach_lagged_features(panel, ["ret"])
        np.testing.assert_array_equal(out.column("ret_lag1w"), [np.nan, 1.0, np.nan])

    def test_missing_count_is_one_plus_source_missing(self):
        source = [1.0, None, None, 4.0, None, 6.0]
        out = attach_lagged_features(make_panel(ret=source), ["ret"])
        lag = out.column("ret_lag1w")
        expected = 1 + sum(v is None for v in source[:-1])
        assert np.isnan(lag).sum() == expected

    def test_unknown_feature(self):
        with pytest.raises(ValidationError):
            attach_lagged_features(make_panel(ret=[1.0]), ["nope"])


class TestDropSparseColumns:
    def test_fully_missing_dropped(self):
        panel = make_panel(a=[None, None], b=[1.0, 2.0])
        out, dropped = drop_sparse_columns(panel, 0.5)
        assert dropped == ["a"]
        assert out.feature_names == ["b"]

    def test_complete_column_kept(self):
        panel = make_panel(a=[1.0, 2.0])
        out, dropped = drop_sparse_columns(panel, 0.0)
        assert dropped == []

    def test_strict_boundary(self):
        six_of_ten = [None] * 6 + [1.0] * 4
        five_of_ten = [None] * 5 + [1.0] * 5
        panel = make_panel(a=six_of_ten, b=five_of_ten)
        out, dropped = drop_sparse_columns(panel, 0.5)
        assert dropped == ["a"]
        assert "b" in out.feature_names


class TestTrimTimespan:
    def test_fully_populated_unchanged(self):
        panel = make_panel(a=[1.0, 2.0, 3.0])
        out = trim_timespan(panel, ["a"])
        assert out.dates == panel.dates
        np.testing.assert_array_equal(out.column("a"), panel.column("a"))

    def test_single_run(self):
        values = [None] * 5 + [1.0] * 16 + [None] * 9
        out = trim_timespan(make_panel(a=values), ["a"])
        assert out.n_rows == 16
        assert out.dates == weekly_dates(30)[5:21]

    def test_equal_runs_tie_breaks_to_later(self):
        values = [1.0] * 8 + [None] * 3 + [1.0] * 8
        out = trim_timespan(make_panel(a=values), ["a"])
        assert out.n_rows == 8
        assert out.dates == weekly_dates(19)[11:]

    def test_longer_early_run_still_wins(self):
        values = [1.0] * 9 + [None] + [1.0] * 8
        out = trim_timespan(make_panel(a=values), ["a"])
        assert out.dates == weekly_dates(18)[:9]

    def test_interior_gap_in_one_required_column_survives(self):
        panel = make_panel(
            a=[1.0, None, 3.0, 4.0],
            b=[1.0, 2.0, 3.0, 4.0],
        )
        out = trim_timespan(panel, ["a", "b"])
        assert out.n_rows == 4
        np.testing.assert_array_equal(out.column("a"), [1.0, np.nan, 3.0, 4.0])

    def test_edges_trimmed_to_fully_present_rows(self):
        panel = make_panel(
            a=[None, 2.0, 3.0, 4.0, None],
            b=[1.0, 2.0, 3.0, None, None],
        )
        out = trim_timespan(panel, ["a", "b"])
        assert out.n_rows == 2
        np.testing.assert_array_equal(out.column("a"), [2.0, 3.0])

    def test_no_usable_row(self):
        with pytest.raises(EmptyTimespanError):
            trim_timespan(make_panel(a=[None, None]), ["a"])

    def test_empty_required_rejected(self):
        with pytest.raises(ValidationError):
            trim_timespan(make_panel(a=[1.0]), [])


class TestNormalizeColumn:
    def test_endpoints(self):
        normalized, lo, hi = normalize_column([2.0, 4.0, 8.0])
        assert normalized[0] == 0.0
        assert normalized[2] == 1.0
        assert (lo, hi) == (2.0, 8.0)

    def test_interior_value(self):
        normalized, _, _ = normalize_column([2.0, 4.0, 8.0])
        assert normalized[1] == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_missing_stays_missing(self):
        normalized, _, _ = normalize_column([2.0, None, 8.0])
        assert np.isnan(normalized[1])

    def test_constant_column_maps_to_zero(self):
        normalized, lo, hi = normalize_column([3.0, 3.0, None])
        np.testing.assert_array_equal(normalized, [0.0, 0.0, np.nan])
        assert lo == hi == 3.0

    def test_all_missing_rejected(self):
        with pytest.raises(EmptyColumnError):
            normalize_column([None, None])

    def test_non_finite_values_rejected(self):
        with pytest.raises(ValidationError):
            normalize_column([1.0, float("inf")])
        with pytest.raises(ValidationError):
            normalize_column([-1.7e308, 1.7e308])  # range overflows

    @given(
        values=st.lists(
            st.floats(min_value=-1e12, max_value=1e12, allow_nan=False),
            min_size=2,
            max_size=60,
        )
    )
    def test_affine_order_preserving_into_unit_interval(self, values):
        normalized, lo, hi = normalize_column(values)
        assert all(0.0 <= v <= 1.0 for v in normalized)
        if hi > lo:
            assert normalized[values.index(lo)] == 0.0
            assert normalized[values.index(hi)] == 1.0
            # monotone: a smaller raw value never normalizes above a larger one
            order = sorted(range(len(values)), key=lambda i: values[i])
            for i, j in zip(order, order[1:]):
                assert normalized[i] <= normalized[j]


class TestImputeMissing:
    def test_symmetric_mean(self):
        filled, mean_used, count = impute_missing([0.0, None, 1.0])
        np.testing.assert_array_equal(filled, [0.0, 0.5, 1.0])
        assert mean_used == 0.5
        assert count == 1

    def test_no_missing_identity(self):
        filled, mean_used, count = impute_missing([0.2, 0.4])
        np.testing.assert_array_equal(filled, [0.2, 0.4])
        assert count == 0

    def test_two_missing(self):
        filled, mean_used, count = impute_missing([0.2, 0.4, None, None])
        assert mean_used == pytest.approx(0.3, abs=1e-15)
        assert filled == pytest.approx([0.2, 0.4, 0.3, 0.3])
        assert count == 2

    def test_all_missing_rejected(self):
        with pytest.raises(EmptyColumnError):
            impute_missing([None])

    def test_mean_summed_left_to_right(self):
        # one addition at a time, ten 0.1s sum to 0.9999999999999999;
        # pairwise (np.sum) and compensated (math.fsum, Python 3.12's sum)
        # summation give 1.0
        assert np.sum([0.1] * 10) == math.fsum([0.1] * 10) == 1.0
        filled, mean_used, count = impute_missing([0.1] * 10 + [None])
        assert mean_used == 0.9999999999999999 / 10
        assert filled[-1] == mean_used

    @given(
        values=st.lists(
            st.one_of(st.none(), st.floats(min_value=0.0, max_value=1.0, allow_nan=False)),
            min_size=1,
            max_size=60,
        )
    )
    def test_mean_preserved_and_observed_unchanged(self, values):
        observed = [v for v in values if v is not None]
        if not observed:
            return
        filled, mean_used, count = impute_missing(values)
        assert count == len(values) - len(observed)
        for orig, new in zip(values, filled):
            if orig is not None:
                assert new == orig
        assert abs(sum(filled) / len(filled) - sum(observed) / len(observed)) < 1e-12


class TestAssembleDataset:
    def test_shape_contract(self):
        panel = make_panel(a=[1.0, 2.0, 3.0], b=[1.0, 0.0, 1.0],
                           c=[5.0, 6.0, 7.0], d=[0.1, 0.2, 0.3])
        ds = assemble_dataset(panel, [1, 0, 1], ["a", "b", "c", "d"])
        assert ds.X.shape == (3, 4)
        assert len(ds.y) == 3

    def test_binary_indicator_survives_normalization(self):
        panel = make_panel(in_index=[1.0, 0.0, 1.0, 1.0])
        ds = assemble_dataset(panel, [None, 0, 1, 1], ["in_index"])
        assert set(np.unique(ds.X[:, 0])) <= {0.0, 1.0}
        assert list(ds.X[:, 0]) == [0.0, 1.0, 1.0]

    def test_six_row_hand_computed_matrix(self):
        # price:   100  101  100.5 100.5  --   103   -> labels - 1 0 0 - -
        # vol:       2    4    --     8    5    6
        # in_index:  1    0     1     1    0    0
        panel = make_panel(
            price=[100.0, 101.0, 100.5, 100.5, None, 103.0],
            vol=[2.0, 4.0, None, 8.0, 5.0, 6.0],
            in_index=[1.0, 0.0, 1.0, 1.0, 0.0, 0.0],
        )
        panel = attach_lagged_features(panel, ["vol"])
        labels = attach_direction_label(panel, "price")
        np.testing.assert_array_equal(labels, [np.nan, 1, 0, 0, np.nan, np.nan])
        ds = assemble_dataset(panel, labels, ["in_index", "vol", "vol_lag1w"])

        # vol scaled over {2,4,8,5,6}: [0, 1/3, imputed 0.5, 1, 0.5, 2/3]
        # vol_lag1w over {2,4,8,5}:    [imp, 0, 1/3, imp, 1, 0.5], mean 11/24
        expected = np.array(
            [
                [0.0, 1.0 / 3.0, 0.0],
                [1.0, 0.5, 1.0 / 3.0],
                [1.0, 1.0, 11.0 / 24.0],
            ]
        )
        np.testing.assert_allclose(ds.X, expected, atol=1e-12)
        assert list(ds.y) == [1, 0, 0]
        assert ds.dates == weekly_dates(6)[1:4]
        meta = ds.column_meta["vol"]
        assert (meta.raw_min, meta.raw_max) == (2.0, 8.0)
        assert meta.imputed_count == 1
        assert meta.observed_mean_normalized == pytest.approx(0.5)
        assert ds.column_meta["vol_lag1w"].observed_mean_normalized == pytest.approx(11.0 / 24.0)

    def test_misaligned_labels_rejected(self):
        panel = make_panel(a=[1.0, 2.0])
        with pytest.raises(ValidationError):
            assemble_dataset(panel, [1], ["a"])


class TestDatasetCsv:
    def test_header_quoted_rows_roundtrip(self):
        X = np.array([[0.1, 1.0 / 3.0], [1.0, 5e-324]])
        ds = LabeledDataset("A", weekly_dates(2), ["plain", "a,b"], X, np.array([1, 0]))
        text = dataset_csv_text(ds)
        assert text.splitlines() == [
            'date,y,plain,"a,b"',
            "2002-01-04,1,0.1,0.3333333333333333",
            "2002-01-11,0,1.0,5e-324",
        ]
        again = read_dataset_csv(text, "A")
        assert again.feature_names == ["plain", "a,b"]
        assert np.array_equal(again.X, X) and np.array_equal(again.y, ds.y)

    def test_no_feature_columns(self):
        ds = LabeledDataset("A", weekly_dates(2), [], np.empty((2, 0)), np.array([0, 1]))
        assert dataset_csv_text(ds) == "date,y\n2002-01-04,0\n2002-01-11,1\n"


class TestChronologicalSplit:
    def build(self, n):
        panel = make_panel(a=[float(i % 7) for i in range(n)])
        return assemble_dataset(panel, [i % 2 for i in range(n)], ["a"])

    def test_cancom_scale_split(self):
        train, test = chronological_split(self.build(450), 0.8)
        assert (train.n_rows, test.n_rows) == (360, 90)

    def test_exact_division(self):
        train, test = chronological_split(self.build(10), 0.8)
        assert (train.n_rows, test.n_rows) == (8, 2)

    def test_ceiling_on_non_divisible(self):
        train, test = chronological_split(self.build(7), 0.8)
        assert (train.n_rows, test.n_rows) == (6, 1)

    def test_order_preserved(self):
        train, test = chronological_split(self.build(20), 0.8)
        assert max(train.dates) < min(test.dates)
        assert train.dates + test.dates == self.build(20).dates

    def test_too_small_rejected(self):
        with pytest.raises(ValidationError):
            chronological_split(self.build(4), 0.8)

    def test_empty_part_rejected(self):
        with pytest.raises(InvalidSplitError):
            chronological_split(self.build(5), 0.9)

    def test_fraction_range_checked(self):
        with pytest.raises(ValidationError):
            chronological_split(self.build(10), 1.0)

    @given(
        n=st.integers(min_value=5, max_value=600),
        frac=st.sampled_from([0.5, 0.6, 0.7, 0.75, 0.8, 0.9]),
    )
    def test_sizes_follow_exact_ceiling(self, n, frac):
        from fractions import Fraction

        try:
            train, test = chronological_split(self.build(n), frac)
        except InvalidSplitError:
            assert math.ceil(Fraction(str(frac)) * n) >= n
            return
        assert train.n_rows == math.ceil(Fraction(str(frac)) * n)
        assert train.n_rows + test.n_rows == n


class TestLagAlignment:
    def test_lag_equals_prior_normalized_value_when_fully_observed(self):
        values = [3.0, 9.0, 1.0, 7.0, 5.0, 4.0, 8.0]
        panel = make_panel(f=values)
        panel = attach_lagged_features(panel, ["f"])
        labels = [None] + [1] * 6
        ds = assemble_dataset(panel, labels, ["f", "f_lag1w"])
        # row t of the dataset is panel row t+1
        norm_f = [(v - 1.0) / 8.0 for v in values]
        lag_lo, lag_hi = min(values[:-1]), max(values[:-1])
        for t in range(ds.n_rows):
            source = values[t]  # panel row (t+1) - 1
            assert ds.X[t, 1] == pytest.approx((source - lag_lo) / (lag_hi - lag_lo))
            assert ds.X[t, 0] == pytest.approx(norm_f[t + 1])
