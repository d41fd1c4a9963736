"""Membership counting, equal-width grouping, and cohort sampling.

Companies are grouped by how many weekly snapshots contained them: the
count range [lo, hi] is cut into five equal-width bins and a fixed
number of tickers is sampled from each bin with a seeded generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ValidationError
from .ingest import MembershipSnapshot

N_GROUPS = 5

# Pinned so cohorts are reproducible across runs; recorded in report output.
GENERATOR_NAME = "numpy-pcg64"


@dataclass(frozen=True)
class MembershipCount:
    ticker: str
    count: int

    def __post_init__(self):
        if self.count < 0:
            raise ValidationError(f"negative membership count for {self.ticker}")


@dataclass
class GroupAssignment:
    group_index: int
    members: set[str]


def membership_counts(snapshots: list[MembershipSnapshot]) -> list[MembershipCount]:
    """Count, per ticker ever observed, the snapshots containing it."""
    if not snapshots:
        raise ValidationError("membership_counts needs at least one snapshot")
    counts: dict[str, int] = {}
    for snapshot in snapshots:
        for ticker in snapshot.constituents:
            counts[ticker] = counts.get(ticker, 0) + 1
    return [MembershipCount(t, counts[t]) for t in sorted(counts)]


def group_boundaries(counts: list[MembershipCount]) -> list[float]:
    """The six bin edges lo + k*(hi-lo)/5 for k = 0..5."""
    if not counts:
        raise ValidationError("group_boundaries needs at least one count")
    lo = min(c.count for c in counts)
    hi = max(c.count for c in counts)
    return [lo + k * (hi - lo) / N_GROUPS for k in range(N_GROUPS + 1)]


def partition_into_fifths(counts: list[MembershipCount]) -> list[GroupAssignment]:
    """Assign each ticker to one of five equal-width bins of the count range.

    A count c lands in group min(floor((c - lo) / w), 4) with
    w = (hi - lo) / 5, so the maximum count closes the top bin.  A
    degenerate range (hi == lo) puts everything in group 0.
    """
    if not counts:
        raise ValidationError("partition_into_fifths needs at least one count")
    lo = min(c.count for c in counts)
    hi = max(c.count for c in counts)
    groups = [GroupAssignment(k, set()) for k in range(N_GROUPS)]
    if hi == lo:
        groups[0].members = {c.ticker for c in counts}
        return groups
    width = (hi - lo) / N_GROUPS
    for item in counts:
        k = min(math.floor((item.count - lo) / width), N_GROUPS - 1)
        groups[k].members.add(item.ticker)
    return groups


def sample_cohort(
    groups: list[GroupAssignment],
    per_group: int,
    seed: int,
    allow_deficient: bool = False,
) -> set[str]:
    """Sample ``per_group`` tickers without replacement from each group.

    Deterministic for a fixed seed (PCG64 over the sorted member list).
    A group smaller than ``per_group`` raises DataError unless
    ``allow_deficient`` is set, in which case all its members are taken.
    """
    if per_group < 1:
        raise ValidationError("per_group must be >= 1")
    rng = np.random.default_rng(seed)
    sample: set[str] = set()
    for group in sorted(groups, key=lambda g: g.group_index):
        members = sorted(group.members)
        if len(members) < per_group:
            if not allow_deficient:
                raise DataError(
                    f"group {group.group_index} has {len(members)} members, need {per_group}"
                )
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
            {
                "index": g.group_index,
                "size": len(g.members),
                "members": sorted(g.members),
            }
            for g in groups
        ],
        "sample": sorted(sample),
        "per_group": per_group,
        "seed": seed,
        "generator": GENERATOR_NAME,
    }
