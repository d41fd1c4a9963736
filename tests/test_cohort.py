import math

import pytest
from hypothesis import given, strategies as st

from pricedir.cohort import (
    group_boundaries,
    membership_counts,
    partition_into_fifths,
    sample_cohort,
)
from pricedir.errors import DataError

from conftest import make_snapshots


class TestMembershipCounts:
    def test_full_presence(self):
        snaps = make_snapshots([{"A"}, {"A"}, {"A"}])
        assert membership_counts(snaps) == {"A": 3}

    def test_only_observed_tickers_counted(self):
        snaps = make_snapshots([{"A"}, {"A"}])
        assert "Z" not in membership_counts(snaps)

    def test_enumerated_counts(self):
        snaps = make_snapshots([{"A", "B"}, {"A"}, {"A", "C"}])
        assert membership_counts(snaps) == {"A": 3, "B": 1, "C": 1}


class TestPartitionIntoFifths:
    def test_equal_width_boundaries(self):
        counts = {"z": 0, "h": 100, "m": 40}
        groups = partition_into_fifths(counts)
        assert "z" in groups[0]
        assert "h" in groups[4]
        assert "m" in groups[2]

    def test_degenerate_range_all_group_zero(self):
        counts = {"a": 7, "b": 7, "c": 7}
        groups = partition_into_fifths(counts)
        assert groups[0] == {"a", "b", "c"}
        assert all(not g for g in groups[1:])

    def test_wide_range_example(self):
        # lo=1, hi=1040, w=207.8; floor((c-1)/207.8) puts these in 0..4
        values = [1, 259, 520, 781, 1040]
        for c, expected in zip(values, range(5)):
            assert min(math.floor((c - 1) / 207.8), 4) == expected
        counts = {f"t{c}": c for c in values}
        groups = partition_into_fifths(counts)
        for c, expected in zip(values, range(5)):
            assert f"t{c}" in groups[expected]

    def test_boundaries_formula(self):
        counts = {"a": 0, "b": 1040}
        assert group_boundaries(counts) == [0.0, 208.0, 416.0, 624.0, 832.0, 1040.0]

    @given(
        values=st.lists(st.integers(min_value=0, max_value=1040), min_size=1, max_size=200)
    )
    def test_partition_property(self, values):
        counts = {f"t{i}": c for i, c in enumerate(values)}
        groups = partition_into_fifths(counts)
        sizes = sum(len(g) for g in groups)
        assert sizes == len(counts)
        union = set()
        for g in groups:
            assert not (union & g)
            union |= g
        assert union == set(counts)

    @given(
        values=st.lists(st.integers(min_value=0, max_value=2000), min_size=2, max_size=200)
    )
    def test_group_edges_property(self, values):
        counts = {f"t{i}": c for i, c in enumerate(values)}
        lo, hi = min(values), max(values)
        if hi == lo:
            return
        w = (hi - lo) / 5
        groups = partition_into_fifths(counts)
        for k, g in enumerate(groups):
            for t in g:
                c = counts[t]
                assert lo + k * w <= c or math.isclose(lo + k * w, c)
                if c != hi:
                    assert c < lo + (k + 1) * w


def ten_by_five():
    return [{f"g{k}m{i}" for i in range(10)} for k in range(5)]


class TestSampleCohort:
    def test_exhaustive_sample(self):
        sample = sample_cohort(ten_by_five(), per_group=10, seed=1)
        assert len(sample) == 50

    def test_deficient_group_error_names_group(self):
        groups = ten_by_five()
        groups[3] = {"a", "b", "c", "d"}
        with pytest.raises(DataError, match="group 3 has 4 members, need 10"):
            sample_cohort(groups, per_group=10, seed=1)

    def test_allow_deficient_takes_all(self):
        groups = ten_by_five()
        groups[3] = {"a", "b", "c", "d"}
        sample = sample_cohort(groups, per_group=10, seed=1, allow_deficient=True)
        assert {"a", "b", "c", "d"} <= sample
        assert len(sample) == 44

    def test_seed_determinism(self):
        groups = [{f"g{k}m{i}" for i in range(30)} for k in range(5)]
        assert sample_cohort(groups, 10, seed=42) == sample_cohort(groups, 10, seed=42)

    def test_different_seeds_usually_differ(self):
        groups = [{f"g{k}m{i}" for i in range(30)} for k in range(5)]
        assert sample_cohort(groups, 10, seed=1) != sample_cohort(groups, 10, seed=2)

    def test_without_replacement_size(self):
        groups = [{f"g{k}m{i}" for i in range(25)} for k in range(5)]
        sample = sample_cohort(groups, 7, seed=9)
        assert len(sample) == 35  # 5 * 7 distinct tickers
