"""Readers for the two raw inputs, and the writers of pricedir's text files.

Every input file, CSV or JSON, is UTF-8 text that ``read_text`` reads and
decodes, the one place where bytes become text; the parsers take that text.
Every output file is written by ``write_files``, the one place where text
becomes a file.
A constituent file starts with a ``# effective_date=YYYY-MM-DD`` comment
line, then a ``ticker`` header, then one ticker per row.  A panel file has
a ``date`` column plus named numeric columns; an empty cell is a missing
value, never zero.
"""

from __future__ import annotations

import contextlib
import csv
import errno
import io
import json
import math
import os
import stat
import sys
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path

import numpy as np

from .errors import DataError, ValidationError

# A nominal week is the requested day plus the six days before it, so a
# fallback can never reach into the previous week's snapshot.
WEEK_DAYS = 7
MAX_FALLBACK_DAYS = WEEK_DAYS - 1

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


def check_increasing(dates: list[date], owner: str) -> None:
    """ValidationError naming ``owner`` and the first offending pair unless
    ``dates`` strictly increase: the row order of a panel and of a dataset."""
    for prev, nxt in zip(dates, dates[1:]):
        if nxt <= prev:
            raise ValidationError(f"{owner}: dates not strictly increasing ({prev} then {nxt})")


@dataclass(eq=False)
class CompanyPanel:
    """Per-company, date-ordered rows of named numeric features.

    Stored column-major: ``columns[name][t]`` is the value of ``name`` at
    ``dates[t]``.  Each column is a float64 array with NaN marking a
    missing cell; any float sequence is accepted and converted, ``None``
    becoming NaN.  Rows are strictly increasing in date.  Each panel gets
    a ``columns`` dict of its own, but may share its arrays: treat them
    as read-only.  ``==`` is identity: compare columns with ``np.array_equal``.
    """

    ticker: str
    dates: list[date]
    columns: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        check_increasing(self.dates, f"panel {self.ticker}")
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


def read_text(path: Path) -> str:
    """The text of an input file, decoded from UTF-8 once, without a leading
    byte order mark.  A file that cannot be read (a directory in its place,
    say) is a DataError that names it.  So is a FIFO or a device, refused
    before it is opened: reading a FIFO would block.  So is a byte that is
    not UTF-8, named by its offset in the file."""
    try:
        if stat.S_IFMT(path.stat().st_mode) not in (stat.S_IFREG, stat.S_IFDIR):
            raise DataError(f"{path}: cannot read (not a regular file)")
        data = path.read_bytes()
    except OSError as exc:
        raise DataError(f"{path}: cannot read ({exc.strerror or exc})") from exc
    try:  # a mark decodes to U+FEFF, so an offset past it is still the file's
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text (byte {exc.start})") from None


def read_json(path: Path, what: str):
    """The JSON document in ``what``'s file at ``path``.  A file that
    ``read_text`` refuses, that is not JSON or that nests deeper than the
    parser recurses is a DataError that names it."""
    try:
        return json.loads(read_text(path))
    except DataError as exc:
        raise DataError(f"{what} file {exc}") from exc
    except (ValueError, RecursionError) as exc:  # not JSON, or nested too deep
        raise DataError(f"{what} file {path} is not valid JSON: {exc}") from exc


def parse_membership_file(
    content: str, requested_date: date, source: str = "<membership>"
) -> MembershipSnapshot:
    """Parse one weekly constituent file into a MembershipSnapshot.

    Args:
        content: the file's text, as ``read_text`` gives it.
        requested_date: the nominal day this snapshot was requested for.
        source: file name used in error messages.

    Raises:
        DataError: an empty file, a malformed header or ticker row, a
            duplicate ticker, or an effective date outside the weekly window.
    """
    # rows end at "\n" only (str.splitlines would also break them at form
    # feeds and other separators); one "\r" before it is part of the ending
    lines = content.replace("\r\n", "\n").split("\n")
    if lines[-1] == "":
        lines.pop()  # the final newline ends a row, it does not start one
    if not lines:
        raise DataError(f"{source}: empty membership file")
    header = lines[0]
    if not header.startswith(EFFECTIVE_DATE_PREFIX):
        raise DataError(f"{source}, line 1: expected {EFFECTIVE_DATE_PREFIX!r} header")
    try:
        effective = date.fromisoformat(header[len(EFFECTIVE_DATE_PREFIX):].strip())
    except ValueError:
        raise DataError(f"{source}, line 1: invalid effective date") from None
    if len(lines) < 2 or lines[1].strip() != "ticker":
        raise DataError(f"{source}, line 2: expected 'ticker' column header")

    seen: set[str] = set()
    for lineno, raw in enumerate(lines[2:], start=3):
        # one whitespace-free token: not empty, no inner whitespace
        words = raw.split()
        if len(words) != 1 or "," in raw:
            raise DataError(f"{source}, line {lineno}: malformed ticker row {raw!r}")
        ticker = sys.intern(words[0])
        if ticker in seen:
            raise DataError(f"{source}, line {lineno}: duplicate ticker {ticker!r}")
        seen.add(ticker)

    try:
        return MembershipSnapshot(requested_date, effective, frozenset(seen))
    except ValidationError as exc:
        raise DataError(f"{source}: {exc}") from exc


def membership_file_text(snapshot: MembershipSnapshot) -> str:
    """Serialize a snapshot back into the constituent file format.

    A snapshot may legitimately list zero tickers (synthetic churn can
    empty a small index for a week); the header lines still round-trip.
    """
    lines = [f"{EFFECTIVE_DATE_PREFIX}{snapshot.effective_date.isoformat()}", "ticker"]
    lines.extend(sorted(snapshot.constituents))
    return "\n".join(lines) + "\n"


def membership_file_name(requested: date) -> str:
    """The constituent file name of week ``requested``; ``membership_file_date`` reads it back."""
    return f"constituents_{requested.isoformat()}.csv"


def membership_file_date(file: Path) -> date:
    """The requested date that ``file``'s name holds, the inverse of
    ``membership_file_name``.  Any other name, a date that is not a day
    (2002-02-30) included, is a DataError that names the file."""
    with contextlib.suppress(ValueError):  # the round trip refuses every other form of a date
        requested = date.fromisoformat(file.name[len("constituents_"):-len(".csv")])
        if membership_file_name(requested) == file.name:
            return requested
    raise DataError(f"{file}: membership files must be named constituents_YYYY-MM-DD.csv")


def parse_company_panel(content: str, ticker: str, source: str = "<panel>") -> CompanyPanel:
    """Parse a company history CSV's text, as ``read_text`` gives it, into a
    CompanyPanel.

    Rows are re-sorted ascending by date.  Empty cells become NaN.
    Raises DataError on text that is not CSV, on a malformed header or
    cell (naming its line and column) and on duplicate dates.
    """
    reader = csv.reader(io.StringIO(content))
    try:
        rows = list(reader)
    except csv.Error as exc:  # a bare "\r" inside a line, say
        raise DataError(f"{source}, line {reader.line_num}: {exc}") from None
    if not rows:
        raise DataError(f"{source}: empty panel file")
    header = rows[0]
    if not header or header[0] != "date":
        raise DataError(f"{source}, line 1: first column must be 'date'")
    names = header[1:]
    if not names:
        raise DataError(f"{source}, line 1: panel needs at least one feature column")
    if len(set(names)) != len(names):
        raise DataError(f"{source}, line 1: duplicate column names in header")
    if any(not n for n in names):
        raise DataError(f"{source}, line 1: empty column name in header")

    dates: list[date] = []
    cells: list[float] = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise DataError(
                f"{source}, line {lineno}: expected {len(header)} cells, found {len(row)}"
            )
        try:
            dates.append(date.fromisoformat(row[0]))
        except ValueError:
            raise DataError(
                f"{source}, line {lineno}, column 'date': invalid date {row[0]!r}"
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
                raise DataError(
                    f"{source}, line {lineno}, column {name!r}: non-numeric cell {cell!r}"
                )
            cells.append(value)

    if len(set(dates)) != len(dates):
        dupes = sorted({d for d in dates if dates.count(d) > 1})
        raise DataError(f"{source}: duplicate dates {[d.isoformat() for d in dupes]}")
    order = sorted(range(len(dates)), key=dates.__getitem__)
    table = np.array(cells, dtype=float).reshape(len(dates), len(names))[order].T.copy()
    return CompanyPanel(ticker, [dates[t] for t in order], dict(zip(names, table)))


def table_text(names: list[str], dates: list[date], columns: list[list]) -> str:
    """Panel, dataset and truth files' CSV: a ``date,<name...>`` header quoted where
    needed, then per date its ISO date and each value's exact ``repr``, NaN as empty."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(["date", *names])
    rows = zip(*columns) if columns else [()] * len(dates)
    body = "".join([",".join([d.isoformat(), *map(repr, r)]) + "\n" for d, r in zip(dates, rows)])
    # below the header only NaN's repr holds "nan" (a date or a number's repr is digits,
    # ".", "e", "+", "-" or "inf"); the header keeps a column named "financials" intact
    return out.getvalue() + body.replace("nan", "")


def panel_file_text(panel: CompanyPanel) -> str:
    """Serialize a panel back into the panel CSV format (round-trip safe)."""
    columns = [column.tolist() for column in panel.columns.values()]
    return table_text(panel.feature_names, panel.dates, columns)


def json_text(doc) -> str:
    """``doc`` as indented JSON with a final newline, as pricedir writes every document."""
    return json.dumps(doc, indent=2) + "\n"


def write_files(out_dir: Path, files: dict[str, str]) -> None:
    """Write each ``name: text`` of ``files`` under ``out_dir`` as UTF-8.

    First a name whose place holds something other than a regular file (a
    directory, a FIFO) is refused with FileExistsError, before anything is
    written or made: the rename below would replace it.  Then the
    directories the names contain are made, ``out_dir`` only through them.
    Then each file is written to a temp file beside it and renamed into
    place, so no reader, nor a worker writing the same directory, sees half
    a file.  A failed write leaves no temp file and raises an OSError
    naming the target; the files written before it stay.
    """
    targets = {out_dir / name: text for name, text in files.items()}
    for path in targets:
        try:
            mode = path.stat().st_mode
        except (FileNotFoundError, NotADirectoryError):  # nothing there yet, or mkdir's to refuse
            continue
        if not stat.S_ISREG(mode):
            raise FileExistsError(errno.EEXIST, "exists and is not a regular file", str(path))
    for directory in dict.fromkeys(path.parent for path in targets):
        if directory != out_dir:
            directory.mkdir(parents=True, exist_ok=True)
    for path, text in targets.items():
        data = text.encode("utf-8")
        temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            temp.write_bytes(data)
            os.replace(temp, path)
        except OSError as exc:
            temp.unlink(missing_ok=True)
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
