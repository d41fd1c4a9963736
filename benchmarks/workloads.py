"""Workload definitions and the seeded input generators behind them.

Every input file is made through ``pricedir.synth`` from the workload's
seed, so the same seed gives byte-identical inputs.  ``acceptance`` goes
through ``synth.write_fixture`` (what ``pricedir synth`` runs); ``wide``
is assembled here from ``synth.generate_company_panel`` because it needs
per-company listing weeks and missing-cell rates.

The total work of a workload does not depend on the seed: the seed
picks the data and which ticker gets which (listing week, missing rate)
pair, never how many rows or cells there are.  Timings from different
seeds are therefore comparable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import timedelta
from pathlib import Path

import numpy as np

from pricedir import synth
from pricedir.ingest import membership_file_text, panel_file_text

SWITCH_PROB = 0.05
# Ragged inputs: the latest listing week, as a share of the series, and the
# highest per-company missing-cell rate.  With the default
# max_missing_fraction of 0.5 the top rates make the sparse-column drop
# remove whole columns, so companies keep different feature sets.
RAGGED_LATEST_LISTING = 2 / 3
RAGGED_MAX_MISSING = 0.56
# Planted bad panels in ragged inputs: too few weeks to fit anything, and
# weeks after the last snapshot, which no membership week covers.
SHORT_TICKER = "SHORT"
UNCOVERED_TICKER = "UNCOVERED"
SHORT_WEEKS = 3
UNCOVERED_WEEKS = 60


@dataclass(frozen=True)
class Workload:
    """One benchmark input shape plus the config it runs under.

    Why each workload exists is recorded in BENCHMARK.json and README.md.
    ``companies`` panels are generated and the pipeline runs the first
    ``run_companies`` of them (all when None).  ``ragged`` switches from
    ``synth.write_fixture`` to staggered listings, per-company missing
    rates and the planted bad panels, whose tickers are
    ``planted_failures``; every other company must succeed.
    ``band_gate`` turns on the acceptance suite's accuracy band check.
    """

    name: str
    companies: int
    weeks: int
    epochs: int
    run_companies: int | None = None
    ragged: bool = False
    band_gate: bool = False
    planted_failures: tuple[str, ...] = ()

    @property
    def planned_ok(self) -> int:
        return self.run_companies or self.companies

    @property
    def attempted(self) -> int:
        return self.planned_ok + len(self.planted_failures)

    def config_overrides(self) -> dict:
        """Config fields that differ from ``PipelineConfig()``."""
        overrides = {"mlp": {"epochs": self.epochs}}
        if self.run_companies:
            overrides["tickers"] = [synth.ticker_name(i) for i in range(self.run_companies)]
        return overrides


# ``acceptance`` generates the acceptance suite's fixture and runs 2 of its
# 10 companies for 250 epochs instead of all 10 for the default 500: a run
# takes 1.5 to 4 s, so one invocation holds 11 to 20 runs for its 90th
# percentile, and training is still about 90% of a run.  ``wide`` trains
# for 2 epochs, so parsing, dataset building and file writes dominate; a
# run takes 0.7 to 1.5 s.
WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="acceptance", companies=10, weeks=2000, epochs=250, run_companies=2, band_gate=True
        ),
        Workload(
            name="wide",
            companies=20,
            weeks=1500,
            epochs=2,
            ragged=True,
            planted_failures=(SHORT_TICKER, UNCOVERED_TICKER),
        ),
    )
}


def build_inputs(wl: Workload, seed: int, out: Path) -> None:
    """Write the workload's membership/, panels/ and truth/ under ``out``."""
    if wl.ragged:
        _write_ragged(wl, seed, out)
    else:
        synth.write_fixture(
            out,
            n_companies=wl.companies,
            n_weeks=wl.weeks,
            switch_prob=SWITCH_PROB,
            missing_prob=0.0,
            seed=seed,
            planted=synth.default_planted(),
            calibrate=True,
        )


def _ragged_shapes(wl: Workload) -> list[tuple[int, float]]:
    """(listing week, missing rate) pairs, one per good company.

    Later listings (fewer rows) get lower missing rates, so that the
    shortest histories still keep enough fully observed rows to fit.
    """
    n = wl.companies
    latest = int(wl.weeks * RAGGED_LATEST_LISTING)
    return [
        (round(latest * k / max(n - 1, 1)), RAGGED_MAX_MISSING * (n - 1 - k) / max(n - 1, 1))
        for k in range(n)
    ]


def _write_ragged(wl: Workload, seed: int, out: Path) -> None:
    snapshots = synth.generate_membership_series(
        wl.weeks, wl.companies, SWITCH_PROB, synth.derive_seed(seed, "membership")
    )
    dates = [s.requested_date for s in snapshots]
    tickers = [synth.ticker_name(i) for i in range(wl.companies)]
    shapes = _ragged_shapes(wl)
    order = np.random.default_rng(synth.derive_seed(seed, "ragged")).permutation(len(shapes))

    inputs = []
    for ticker, k in zip(tickers, order):
        start, missing = shapes[k]
        vector = synth.membership_vector(snapshots, ticker)[start:]
        inputs.append(
            (ticker, dates[start:], vector, synth.derive_seed(seed, "panel", ticker), missing)
        )

    planted = synth.default_planted()
    scale, _ = synth.calibrate_signal_scale(planted, [item[:4] for item in inputs])
    model = planted.scaled(scale)

    membership_dir, panels_dir, truth_dir = (out / d for d in ("membership", "panels", "truth"))
    for d in (membership_dir, panels_dir, truth_dir):
        d.mkdir(parents=True, exist_ok=True)
    for snapshot in snapshots:
        name = f"constituents_{snapshot.requested_date.isoformat()}.csv"
        (membership_dir / name).write_text(membership_file_text(snapshot), "utf-8")

    for ticker, dts, vector, company_seed, missing in inputs:
        company = synth.generate_company_panel(model, ticker, dts, vector, missing, company_seed)
        (panels_dir / f"{ticker}.csv").write_text(panel_file_text(company.panel), "utf-8")
        lines = ["date,true_label,bayes_pred"]
        lines.extend(
            f"{d.isoformat()},{label},{pred}"
            for d, label, pred in zip(company.label_dates, company.true_labels, company.bayes_pred)
        )
        (truth_dir / f"{ticker}.csv").write_text("\n".join(lines) + "\n", "utf-8")

    bad = {
        SHORT_TICKER: dates[:SHORT_WEEKS],
        UNCOVERED_TICKER: [dates[-1] + timedelta(weeks=w + 1) for w in range(UNCOVERED_WEEKS)],
    }
    for ticker, dts in bad.items():
        company = synth.generate_company_panel(
            model, ticker, dts, [0] * len(dts), 0.0, synth.derive_seed(seed, "panel", ticker)
        )
        (panels_dir / f"{ticker}.csv").write_text(panel_file_text(company.panel), "utf-8")

    truth = {"seed": seed, "signal_scale": scale, "shapes": [list(s) for s in shapes]}
    (out / "truth.json").write_text(json.dumps(truth, indent=2) + "\n", "utf-8")
