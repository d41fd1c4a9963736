"""Membership counting, equal-width grouping, and cohort sampling.

Companies are grouped by how many weekly snapshots contained them: the
count range [lo, hi] is cut into five equal-width bins and a fixed
number of tickers is sampled from each bin with a seeded generator.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from .errors import DataError
from .ingest import MembershipSnapshot

N_GROUPS = 5

# Pinned so cohorts are reproducible across runs; recorded in report output.
GENERATOR_NAME = "numpy-pcg64"


def membership_counts(snapshots: list[MembershipSnapshot]) -> dict[str, int]:
    """Ticker -> number of snapshots containing it, for every ticker observed."""
    counts = Counter(t for snapshot in snapshots for t in snapshot.constituents)
    return dict(sorted(counts.items()))


def group_boundaries(counts: dict[str, int]) -> list[float]:
    """The six bin edges lo + k*(hi-lo)/5 for k = 0..5."""
    lo, hi = min(counts.values()), max(counts.values())
    return [lo + k * (hi - lo) / N_GROUPS for k in range(N_GROUPS + 1)]


def partition_into_fifths(counts: dict[str, int]) -> list[set[str]]:
    """Split the tickers into five equal-width bins of the count range.

    A count c lands in group min(floor((c - lo) / w), 4) with
    w = (hi - lo) / 5, so the maximum count closes the top bin.  A
    degenerate range (hi == lo) puts everything in group 0.  The group
    index is the position in the returned list.
    """
    lo, hi = min(counts.values()), max(counts.values())
    width = (hi - lo) / N_GROUPS or 1.0  # a degenerate range: every (c - lo) is 0
    groups: list[set[str]] = [set() for _ in range(N_GROUPS)]
    for ticker, count in counts.items():
        groups[min(math.floor((count - lo) / width), N_GROUPS - 1)].add(ticker)
    return groups


def sample_cohort(
    groups: list[set[str]],
    per_group: int,
    seed: int,
    allow_deficient: bool = False,
) -> set[str]:
    """Sample ``per_group`` tickers without replacement from each group.

    Deterministic for a fixed seed (PCG64 over the sorted member list).
    A group smaller than ``per_group`` raises DataError unless
    ``allow_deficient`` is set, in which case all its members are taken.
    """
    rng = np.random.default_rng(seed)
    sample: set[str] = set()
    for index, group in enumerate(groups):
        members = sorted(group)
        if len(members) < per_group:
            if not allow_deficient:
                raise DataError(f"group {index} has {len(members)} members, need {per_group}")
            sample.update(members)
            continue
        picks = rng.permutation(len(members))[:per_group]
        sample.update(members[i] for i in picks)
    return sample


def cohort_report(
    snapshots: list[MembershipSnapshot],
    per_group: int,
    seed: int,
    allow_deficient: bool = False,
) -> dict:
    """Counts, equal-width groups, and the sampled cohort as a JSON document."""
    counts = membership_counts(snapshots)
    groups = partition_into_fifths(counts)
    sample = sample_cohort(groups, per_group, seed, allow_deficient)
    return {
        "group_boundaries": group_boundaries(counts),
        "groups": [
            {"index": index, "size": len(group), "members": sorted(group)}
            for index, group in enumerate(groups)
        ],
        "sample": sorted(sample),
        "per_group": per_group,
        "seed": seed,
        "generator": GENERATOR_NAME,
    }
