import math
from datetime import date, timedelta

import numpy as np

from pricedir import mlp
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


def forward(model, x):
    """One row's network output and every layer's activations, the input
    first, through the kernels that training runs."""
    x = np.asarray(x, dtype=float).ravel()
    acts = mlp._forward(model, x.reshape(1, -1))
    return float(acts[-1][0, 0]), [x] + [a[0] for a in acts]


def bce_loss(y, yhat):
    """Binary cross-entropy with the network's output clamp applied."""
    yhat = min(max(yhat, mlp.OUTPUT_EPS), 1.0 - mlp.OUTPUT_EPS)
    return -(y * math.log(yhat) + (1.0 - y) * math.log(1.0 - yhat))


def backprop_gradients(model, x, y):
    """One row's loss gradients (the target may be fractional), as
    (weights, biases), from a one-row step plan of a stack of one."""
    _, _, net, grad_net = mlp._pack([model])
    _, gradients, _ = mlp._step_plan(net, grad_net, 1, 1)
    gradients([np.asarray(x, dtype=float).reshape(1, -1)], np.asarray([[float(y)]]))
    return mlp._company(grad_net, 0)
