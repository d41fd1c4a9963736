"""Parsers for the two raw inputs: weekly constituent lists and company panels.

Both inputs are plain UTF-8 CSV.  A constituent file starts with a
``# effective_date=YYYY-MM-DD`` comment line, then a ``ticker`` header,
then one ticker per row.  A panel file has a ``date`` column plus named
numeric columns; an empty cell is a missing value, never zero.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from datetime import date
from typing import Sequence

import numpy as np

from .errors import DataValidationError, ParseError, ValidationError

# A nominal week is the requested day plus the six days before it, so a
# fallback can never reach into the previous week's snapshot.
MAX_FALLBACK_DAYS = 6

EFFECTIVE_DATE_PREFIX = "# effective_date="


@dataclass(frozen=True)
class MembershipSnapshot:
    """One weekly record of which tickers constitute the index.

    ``requested_date`` is the nominal day of the week (a Friday in normal
    use); ``effective_date`` is the day the data actually comes from,
    at most ``MAX_FALLBACK_DAYS`` earlier.
    """

    requested_date: date
    effective_date: date
    constituents: frozenset[str]

    def __post_init__(self):
        if self.effective_date > self.requested_date:
            raise ValidationError(
                f"effective date {self.effective_date} is after requested "
                f"date {self.requested_date}"
            )
        gap = (self.requested_date - self.effective_date).days
        if gap > MAX_FALLBACK_DAYS:
            raise ValidationError(
                f"effective date {self.effective_date} is {gap} days before "
                f"requested date {self.requested_date} (max {MAX_FALLBACK_DAYS})"
            )
        if "" in self.constituents:
            raise ValidationError("constituent tickers must be non-empty")


@dataclass(eq=False)
class CompanyPanel:
    """Per-company, date-ordered rows of named numeric features.

    Stored column-major: ``columns[name][t]`` is the value of ``name`` at
    ``dates[t]``.  Each column is a float64 array with NaN marking a
    missing cell; any float sequence is accepted and converted, ``None``
    becoming NaN.  Rows are strictly increasing in date.  Treat instances
    and their arrays as immutable; every operation on a panel returns a
    new one.  ``==`` is identity: compare columns with ``np.array_equal``.
    """

    ticker: str
    dates: list[date]
    columns: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        for prev, nxt in zip(self.dates, self.dates[1:]):
            if nxt <= prev:
                raise ValidationError(
                    f"panel {self.ticker}: dates not strictly increasing "
                    f"({prev} then {nxt})"
                )
        self.columns = {n: np.asarray(v, dtype=float) for n, v in self.columns.items()}
        for name, values in self.columns.items():
            if values.shape != (len(self.dates),):
                raise ValidationError(
                    f"panel {self.ticker}: column {name!r} has shape {values.shape} "
                    f"for {len(self.dates)} rows"
                )

    @property
    def n_rows(self) -> int:
        return len(self.dates)

    @property
    def feature_names(self) -> list[str]:
        return list(self.columns)

    def column(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise ValidationError(f"panel {self.ticker}: unknown column {name!r}")
        return self.columns[name]

    def with_columns(self, new: dict[str, np.ndarray]) -> "CompanyPanel":
        """Return a panel with ``new`` columns appended (names must be fresh)."""
        for name in new:
            if name in self.columns:
                raise ValidationError(
                    f"panel {self.ticker}: column {name!r} already exists"
                )
        return CompanyPanel(self.ticker, self.dates, {**self.columns, **new})

    def without_columns(self, names: Sequence[str]) -> "CompanyPanel":
        drop = set(names)
        kept = {n: v for n, v in self.columns.items() if n not in drop}
        return CompanyPanel(self.ticker, self.dates, kept)


def _as_text(content, source: str) -> str:
    """Return the text of bytes, a str, or a readable stream, decoded as UTF-8."""
    data = content if isinstance(content, (bytes, str)) else content.read()
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text (byte {exc.start})", source=source) from None


def parse_membership_file(
    content, requested_date: date, source: str = "<membership>"
) -> MembershipSnapshot:
    """Parse one weekly constituent file into a MembershipSnapshot.

    Args:
        content: bytes, text, or a readable stream with the file body.
        requested_date: the nominal day this snapshot was requested for.
        source: file name used in error messages.

    Raises:
        ParseError: content that is not UTF-8, or a malformed header or
            ticker row.
        DataValidationError: empty file, duplicate ticker, or an
            effective date outside the weekly window.
    """
    # rows end at "\n" only (str.splitlines would also break them at form
    # feeds and other separators); one "\r" before it is part of the ending
    lines = _as_text(content, source).replace("\r\n", "\n").split("\n")
    if lines[-1] == "":
        lines.pop()  # the final newline ends a row, it does not start one
    if not lines:
        raise DataValidationError(f"{source}: empty membership file")
    header = lines[0]
    if not header.startswith(EFFECTIVE_DATE_PREFIX):
        raise ParseError(
            f"expected {EFFECTIVE_DATE_PREFIX!r} header", source=source, line=1
        )
    try:
        effective = date.fromisoformat(header[len(EFFECTIVE_DATE_PREFIX):].strip())
    except ValueError:
        raise ParseError("invalid effective date", source=source, line=1) from None
    if len(lines) < 2 or lines[1].strip() != "ticker":
        raise ParseError("expected 'ticker' column header", source=source, line=2)

    seen: set[str] = set()
    for lineno, raw in enumerate(lines[2:], start=3):
        # one whitespace-free token: not empty, no inner whitespace
        words = raw.split()
        if len(words) != 1 or "," in raw:
            raise ParseError(
                f"malformed ticker row {raw!r}", source=source, line=lineno
            )
        ticker = words[0]
        if ticker in seen:
            raise DataValidationError(
                f"{source}, line {lineno}: duplicate ticker {ticker!r}"
            )
        seen.add(ticker)

    try:
        return MembershipSnapshot(requested_date, effective, frozenset(seen))
    except ValidationError as exc:
        raise DataValidationError(f"{source}: {exc}") from exc


def membership_file_text(snapshot: MembershipSnapshot) -> str:
    """Serialize a snapshot back into the constituent file format.

    A snapshot may legitimately list zero tickers (synthetic churn can
    empty a small index for a week); the header lines still round-trip.
    """
    lines = [f"{EFFECTIVE_DATE_PREFIX}{snapshot.effective_date.isoformat()}", "ticker"]
    lines.extend(sorted(snapshot.constituents))
    return "\n".join(lines) + "\n"


def parse_company_panel(content, ticker: str, source: str = "<panel>") -> CompanyPanel:
    """Parse a company history CSV into a CompanyPanel.

    Rows are re-sorted ascending by date.  Empty cells become NaN.
    Raises ParseError on content that is not UTF-8 and, with row/column
    context, on malformed cells; DataValidationError on duplicate dates.
    """
    reader = csv.reader(io.StringIO(_as_text(content, source)))
    rows = list(reader)
    if not rows:
        raise DataValidationError(f"{source}: empty panel file")
    header = rows[0]
    if not header or header[0] != "date":
        raise ParseError("first column must be 'date'", source=source, line=1)
    names = header[1:]
    if not names:
        raise ParseError("panel needs at least one feature column", source=source, line=1)
    if len(set(names)) != len(names):
        raise ParseError("duplicate column names in header", source=source, line=1)
    if any(not n for n in names):
        raise ParseError("empty column name in header", source=source, line=1)

    dates: list[date] = []
    cells: list[float] = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ParseError(
                f"expected {len(header)} cells, found {len(row)}",
                source=source,
                line=lineno,
            )
        try:
            dates.append(date.fromisoformat(row[0]))
        except ValueError:
            raise ParseError(
                f"invalid date {row[0]!r}", source=source, line=lineno, column="date"
            ) from None
        for name, cell in zip(names, row[1:]):
            if cell == "":
                cells.append(math.nan)
                continue
            try:
                value = float(cell)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                # also catches literal "inf"/"nan" cells, which float() accepts
                raise ParseError(
                    f"non-numeric cell {cell!r}",
                    source=source,
                    line=lineno,
                    column=name,
                )
            cells.append(value)

    if len(set(dates)) != len(dates):
        dupes = sorted({d for d in dates if dates.count(d) > 1})
        raise DataValidationError(
            f"{source}: duplicate dates {[d.isoformat() for d in dupes]}"
        )
    order = sorted(range(len(dates)), key=dates.__getitem__)
    table = np.array(cells, dtype=float).reshape(len(dates), len(names))[order].T.copy()
    return CompanyPanel(ticker, [dates[t] for t in order], dict(zip(names, table)))


def panel_file_text(panel: CompanyPanel) -> str:
    """Serialize a panel back into the panel CSV format (round-trip safe)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["date"] + panel.feature_names)
    cells = [
        ["" if math.isnan(v) else repr(v) for v in panel.columns[name].tolist()]
        for name in panel.feature_names
    ]
    for t, day in enumerate(panel.dates):
        writer.writerow([day.isoformat()] + [column[t] for column in cells])
    return out.getvalue()
