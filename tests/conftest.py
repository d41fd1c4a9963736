from datetime import date, timedelta

import numpy as np

from pricedir.ingest import CompanyPanel, MembershipSnapshot


def weekly_dates(n, start=date(2002, 1, 4)):
    return [start + timedelta(weeks=k) for k in range(n)]


def make_panel(ticker="TST", n=None, start=date(2002, 1, 4), **columns):
    """Build a CompanyPanel from keyword columns on consecutive Fridays."""
    if n is None:
        n = len(next(iter(columns.values())))
    return CompanyPanel(ticker, weekly_dates(n, start), {k: list(v) for k, v in columns.items()})


def assert_panels_equal(got, want):
    """Same ticker, dates and column names; cells equal, NaN where NaN."""
    assert (got.ticker, got.dates, got.feature_names) == (
        want.ticker, want.dates, want.feature_names
    )
    for name in want.feature_names:
        np.testing.assert_array_equal(got.columns[name], want.columns[name])


def make_snapshots(members_per_week, start=date(2002, 1, 4)):
    """One snapshot per entry; each entry is an iterable of member tickers."""
    return [
        MembershipSnapshot(day, day, frozenset(members))
        for day, members in zip(weekly_dates(len(members_per_week), start), members_per_week)
    ]
