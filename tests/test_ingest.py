import csv
import io
import math
import pickle
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pricedir.config import load_config
from pricedir.dataset import LabeledDataset, read_dataset_csv
from pricedir.errors import (
    DataError,
    PricedirError,
    ValidationError,
)
from pricedir.ingest import (
    CompanyPanel,
    MembershipSnapshot,
    membership_file_date,
    membership_file_name,
    membership_file_text,
    panel_file_text,
    parse_company_panel,
    parse_membership_file,
    read_json,
    read_text,
)

from conftest import assert_panels_equal


def membership_text(effective, tickers):
    return f"# effective_date={effective}\nticker\n" + "".join(t + "\n" for t in tickers)


def reference_panel_text(panel):
    """The panel writer as first written: ``csv.writer`` on every row."""
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


def reference_ticker_rows(lines, source):
    """The ticker-row check as first written (a per-character ``isspace``
    scan): the constituents, or the error the parser must raise."""
    seen = set()
    for lineno, raw in enumerate(lines, start=3):
        ticker = raw.strip()
        if not ticker or "," in ticker or any(c.isspace() for c in ticker):
            return DataError(f"{source}, line {lineno}: malformed ticker row {raw!r}")
        if ticker in seen:
            return DataError(f"{source}, line {lineno}: duplicate ticker {ticker!r}")
        seen.add(ticker)
    return frozenset(seen)


class TestParseMembershipFile:
    @given(rows=st.lists(st.text(alphabet="AB,. \t\u00a0\u2003\x1f\u3000", max_size=4), max_size=6))
    def test_ticker_rows_match_reference_check(self, rows):
        text = "# effective_date=2002-01-04\nticker\n" + "\n".join(rows)
        want = reference_ticker_rows(text.splitlines()[2:], "m.csv")
        if isinstance(want, Exception):
            with pytest.raises(type(want)) as info:
                parse_membership_file(text, date(2002, 1, 4), source="m.csv")
            assert str(info.value) == str(want)
        else:
            assert parse_membership_file(text, date(2002, 1, 4)).constituents == want

    def test_thursday_fallback_header(self):
        # nominal Friday requested, file effective the Thursday before
        text = membership_text("2004-04-08", [f"T{i:03d}" for i in range(600)])
        snap = parse_membership_file(text, date(2004, 4, 9))
        assert snap.requested_date == date(2004, 4, 9)
        assert snap.effective_date == date(2004, 4, 8)
        assert len(snap.constituents) == 600

    def test_single_ticker_same_day(self):
        snap = parse_membership_file(
            membership_text("2002-01-04", ["AAA"]), date(2002, 1, 4)
        )
        assert snap.constituents == frozenset({"AAA"})
        assert snap.effective_date == snap.requested_date

    def test_duplicate_ticker_rejected(self):
        text = membership_text("2002-01-04", ["AAA", "AAA"])
        with pytest.raises(DataError, match="duplicate ticker"):
            parse_membership_file(text, date(2002, 1, 4))

    def test_empty_content_rejected(self):
        with pytest.raises(DataError, match="empty"):
            parse_membership_file("", date(2002, 1, 4))

    def test_zero_tickers_is_a_valid_small_index_week(self):
        snap = parse_membership_file(
            membership_text("2002-01-04", []), date(2002, 1, 4)
        )
        assert snap.constituents == frozenset()

    def test_malformed_row_has_line_number(self):
        text = membership_text("2002-01-04", ["AAA", "B B"])
        with pytest.raises(DataError, match="line 4"):
            parse_membership_file(text, date(2002, 1, 4))

    def test_rows_end_at_newline_only(self):
        # str.splitlines would break these rows at \x1c and at the form feed
        text = membership_text("2002-01-04", ["AAA", "AB\x1cCD"])
        with pytest.raises(DataError, match=r"line 4: malformed ticker row 'AB\\x1cCD'"):
            parse_membership_file(text, date(2002, 1, 4), source="m.csv")
        text = membership_text("2002-01-04", ["A\x0cB", "C D"])
        with pytest.raises(DataError, match=r"line 3: malformed ticker row 'A\\x0cB'"):
            parse_membership_file(text, date(2002, 1, 4), source="m.csv")

    def test_crlf_line_endings(self):
        text = membership_text("2002-01-04", ["AAA", "BBB"]).replace("\n", "\r\n")
        snap = parse_membership_file(text, date(2002, 1, 4))
        assert snap.constituents == frozenset({"AAA", "BBB"})
        text = membership_text("2002-01-04", ["AAA", "B B"]).replace("\n", "\r\n")
        with pytest.raises(DataError, match=r"line 4: malformed ticker row 'B B'$"):
            parse_membership_file(text, date(2002, 1, 4), source="m.csv")

    def test_bad_header_line(self):
        with pytest.raises(DataError, match="line 1"):
            parse_membership_file("effective=2002-01-04\nticker\nAAA\n", date(2002, 1, 4))

    def test_effective_after_requested_rejected(self):
        text = membership_text("2002-01-11", ["AAA"])
        with pytest.raises(DataError, match="effective date 2002-01-11 is after requested date"):
            parse_membership_file(text, date(2002, 1, 4))

    def test_effective_gap_beyond_window_rejected(self):
        text = membership_text("2002-01-04", ["AAA"])
        with pytest.raises(DataError, match=r"7 days before requested date 2002-01-11 \(max 6\)"):
            parse_membership_file(text, date(2002, 1, 11))


class TestMembershipSnapshot:
    @given(gap=st.integers(min_value=0, max_value=6))
    def test_gap_within_window_accepted(self, gap):
        requested = date(2004, 4, 9)
        snap = MembershipSnapshot(requested, requested - timedelta(days=gap), frozenset({"A"}))
        assert 0 <= (snap.requested_date - snap.effective_date).days <= 6

    @given(gap=st.integers(min_value=7, max_value=400))
    def test_gap_beyond_window_rejected(self, gap):
        requested = date(2004, 4, 9)
        with pytest.raises(ValidationError):
            MembershipSnapshot(requested, requested - timedelta(days=gap), frozenset({"A"}))

    def test_empty_identifier_rejected(self):
        with pytest.raises(ValidationError):
            MembershipSnapshot(date(2002, 1, 4), date(2002, 1, 4), frozenset({""}))

    def test_roundtrip_through_file_text(self):
        snap = MembershipSnapshot(
            date(2004, 4, 9), date(2004, 4, 8), frozenset({"AAA", "BBB"})
        )
        again = parse_membership_file(membership_file_text(snap), snap.requested_date)
        assert again == snap


class TestMembershipFileDate:
    @given(st.dates(min_value=date(1, 1, 1)))
    def test_inverts_the_file_name(self, requested):
        assert membership_file_date(Path(membership_file_name(requested))) == requested

    @pytest.mark.parametrize("name", [
        "constituents_20020104.csv",  # forms that date.fromisoformat accepts
        "constituents_2002-W01-5.csv",
        "constituents_2002-01-04.CSV",
        "xconstituents_2002-01-04.csv",
    ])
    def test_near_misses_are_refused(self, tmp_path, name):
        with pytest.raises(DataError) as info:
            membership_file_date(tmp_path / name)
        assert str(info.value) == (
            f"{tmp_path / name}: membership files must be named constituents_YYYY-MM-DD.csv"
        )


PANEL_TEXT = """date,price,trades
2002-01-04,10.0,100
2002-01-11,10.5,
2002-01-18,9.9,120
"""


class TestParseCompanyPanel:
    def test_empty_cell_is_missing(self):
        panel = parse_company_panel(PANEL_TEXT, "TST")
        assert panel.n_rows == 3
        np.testing.assert_array_equal(panel.column("trades"), [100.0, np.nan, 120.0])
        np.testing.assert_array_equal(panel.column("price"), [10.0, 10.5, 9.9])

    def test_rows_resorted_ascending(self):
        shuffled = (
            "date,price\n"
            "2002-01-18,9.9\n"
            "2002-01-04,10.0\n"
            "2002-01-11,10.5\n"
        )
        panel = parse_company_panel(shuffled, "TST")
        assert panel.dates == [date(2002, 1, 4), date(2002, 1, 11), date(2002, 1, 18)]
        np.testing.assert_array_equal(panel.column("price"), [10.0, 10.5, 9.9])

    def test_duplicate_date_rejected(self):
        text = "date,price\n2002-01-04,10.0\n2002-01-04,10.5\n"
        with pytest.raises(DataError, match="duplicate dates"):
            parse_company_panel(text, "TST")

    def test_non_numeric_cell_located(self):
        text = "date,price,trades\n2002-01-04,10.0,abc\n"
        with pytest.raises(DataError, match="line 2.*'trades'"):
            parse_company_panel(text, "TST", source="x.csv")

    def test_non_finite_cells_rejected(self):
        for bad in ("inf", "-inf", "nan"):
            text = f"date,price\n2002-01-04,{bad}\n"
            with pytest.raises(DataError, match="'price'"):
                parse_company_panel(text, "TST")

    def test_bad_date_located(self):
        text = "date,price\nnot-a-date,10.0\n"
        with pytest.raises(DataError, match="'date'"):
            parse_company_panel(text, "TST")

    def test_ragged_row_rejected(self):
        text = "date,price,trades\n2002-01-04,10.0\n"
        with pytest.raises(DataError, match="line 2"):
            parse_company_panel(text, "TST")

    def test_missing_feature_columns_rejected(self):
        with pytest.raises(DataError):
            parse_company_panel("date\n2002-01-04\n", "TST")

    def test_parse_error_survives_pickling(self):
        with pytest.raises(DataError) as info:
            parse_company_panel("date,price\n2002-01-04,x\n", "TST", source="p.csv")
        sent = info.value
        back = pickle.loads(pickle.dumps(sent))
        assert type(back) is DataError
        assert str(back) == str(sent) == "p.csv, line 2, column 'price': non-numeric cell 'x'"

    @given(
        names=st.lists(
            st.sampled_from(["a", "a,b", 'say "hi"', "financials", "nan"]),
            unique=True, max_size=5,
        ),
        n_rows=st.integers(min_value=1, max_value=30),
        data=st.data(),
    )
    def test_serialize_parse_roundtrip(self, names, n_rows, data):
        """The panel writer renders what the ``csv.writer`` version rendered,
        for names that need quoting or contain ``nan`` and for any finite
        float, and the reader gives the panel back bit for bit."""
        cells = st.one_of(
            st.none(),
            st.floats(allow_nan=False, allow_infinity=False),
            st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1.7e308, -1.7e308]),
        )
        panel = CompanyPanel(
            "TST",
            [date(2002, 1, 4) + timedelta(weeks=k) for k in range(n_rows)],
            {name: data.draw(st.lists(cells, min_size=n_rows, max_size=n_rows)) for name in names},
        )
        text = panel_file_text(panel)
        assert text == reference_panel_text(panel)
        if not names:  # the reader needs a feature column: a date-only file is refused
            with pytest.raises(DataError, match="at least one feature column"):
                parse_company_panel(text, "TST")
            return
        again = parse_company_panel(text, "TST")
        assert_panels_equal(again, panel)
        for name in names:
            assert again.columns[name].tobytes() == panel.columns[name].tobytes()


class TestCompanyPanel:
    def test_dates_must_increase(self):
        with pytest.raises(ValidationError):
            CompanyPanel("TST", [date(2002, 1, 4), date(2002, 1, 4)], {"a": [1.0, 2.0]})

    def test_column_lengths_must_match(self):
        with pytest.raises(ValidationError):
            CompanyPanel("TST", [date(2002, 1, 4)], {"a": [1.0, 2.0]})

    def test_unknown_column(self):
        panel = parse_company_panel(PANEL_TEXT, "TST")
        with pytest.raises(ValidationError):
            panel.column("nope")


def csv_reader_error(text):
    """The CSV reader's own text for what it refuses in ``text``."""
    with pytest.raises(csv.Error) as info:
        list(csv.reader([text]))
    return str(info.value)


MEMBERSHIP_HEAD = "# effective_date=2002-01-04\nticker\n"


@pytest.mark.parametrize("read, content, message", [
    ("membership", MEMBERSHIP_HEAD.encode() + b"AAA\n\xff\n",
     "m.csv: not UTF-8 text (byte 39)"),
    ("membership", "effective=2002-01-04\nticker\nAAA\n",
     "m.csv, line 1: expected '# effective_date=' header"),
    ("membership", "# effective_date=2002-13-01\nticker\nAAA\n",
     "m.csv, line 1: invalid effective date"),
    ("membership", "# effective_date=2002-01-04\ntickers\nAAA\n",
     "m.csv, line 2: expected 'ticker' column header"),
    ("membership", MEMBERSHIP_HEAD + "AAA\nB B\n", "m.csv, line 4: malformed ticker row 'B B'"),
    ("panel", b"date,price\n2002-01-04,1.5\xff\n", "p.csv: not UTF-8 text (byte 25)"),
    ("panel", "date,price\n2002-01-04,1\r5\n",
     "p.csv, line 2: " + csv_reader_error("1\r5")),
    ("panel", "price,date\n1.5,2002-01-04\n", "p.csv, line 1: first column must be 'date'"),
    ("panel", "date\n2002-01-04\n", "p.csv, line 1: panel needs at least one feature column"),
    ("panel", "date,price,price\n", "p.csv, line 1: duplicate column names in header"),
    ("panel", "date,price,\n", "p.csv, line 1: empty column name in header"),
    ("panel", "date,price,trades\n2002-01-04,10.0\n", "p.csv, line 2: expected 3 cells, found 2"),
    ("panel", "date,price\nnot-a-date,1.5\n",
     "p.csv, line 2, column 'date': invalid date 'not-a-date'"),
    ("panel", "date,price\n2002-01-04,x\n", "p.csv, line 2, column 'price': non-numeric cell 'x'"),
    ("dataset", "date,x,a\n2002-01-04,1,0.5\n", "d.csv: missing 'y' column"),
    ("dataset", "date,y,a\n2002-01-04,2,0.5\n", "d.csv: 'y' must contain only 0 and 1"),
    ("dataset", "date,y,a\n2002-01-04,1,0.5\n2002-01-11,,0.25\n",
     "d.csv, line 3, column 'y': empty cell"),
    # the line in file order, though the row comes first by date
    ("dataset", "date,y,a,b\n2002-01-11,1,0.5,0.25\n2002-01-04,0,,0.5\n",
     "d.csv, line 3, column 'a': empty cell"),
])
def test_file_faults_name_their_place(read, content, message, tmp_path, monkeypatch):
    """Each malformed membership, panel or dataset file, read by ``read_text``
    as the pipeline reads it, gives this exact text, which names the file
    and, where it is known, the byte or the line and column (the exit code
    of each is pinned by the CLI tests)."""
    monkeypatch.chdir(tmp_path)
    file = Path(f"{read[0]}.csv")
    file.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
    with pytest.raises(PricedirError) as info:
        text = read_text(file)
        if read == "membership":
            parse_membership_file(text, date(2002, 1, 4), source=str(file))
        elif read == "panel":
            parse_company_panel(text, "TST", source=str(file))
        else:
            read_dataset_csv(text, "TST", source=str(file))
    assert str(info.value) == message


BOM = b"\xef\xbb\xbf"


class TestReadText:
    def test_one_leading_bom_is_dropped(self, tmp_path):
        """A spreadsheet's byte order mark does not reach the parsers (the
        CLI tests build a marked panel); one further in is text."""
        file = tmp_path / "marked.csv"
        file.write_bytes(BOM + BOM + b"a" + BOM)
        assert read_text(file) == "\ufeffa\ufeff"

    def test_a_bad_byte_after_a_bom_is_named_by_its_file_offset(self, tmp_path):
        file = tmp_path / "p.csv"
        file.write_bytes(BOM + b"ab\xffc")
        with pytest.raises(DataError) as info:
            read_text(file)
        assert str(info.value) == f"{file}: not UTF-8 text (byte 5)"

    def test_a_json_file_shares_the_decoder(self, tmp_path):
        """A config with a byte order mark loads; a JSON file with a bad
        byte gets the CSV files' message, after its kind."""
        config = tmp_path / "c.json"
        config.write_bytes(BOM + b'{"mlp": {"epochs": 3}}')
        assert load_config(config).mlp.epochs == 3
        config.write_bytes(b'{"tickers": ["\xff"]}')
        with pytest.raises(DataError) as info:
            read_json(config, "model")
        assert str(info.value) == f"model file {config}: not UTF-8 text (byte 14)"


def test_panel_and_dataset_dates_share_one_order_rule():
    """A panel and a dataset refuse the same out-of-order dates, naming the
    first offending pair."""
    days = [date(2002, 1, 4), date(2002, 1, 11), date(2002, 1, 11)]
    with pytest.raises(ValidationError) as info:
        CompanyPanel("TST", days, {"a": [0.5] * 3})
    assert str(info.value) == "panel TST: dates not strictly increasing (2002-01-11 then 2002-01-11)"
    with pytest.raises(ValidationError) as info:
        LabeledDataset("TST", [days[1], days[0], days[1] + timedelta(7)], ["a"],
                       np.zeros((3, 1)), np.zeros(3, dtype=int))
    assert str(info.value) == (
        "dataset TST: dates not strictly increasing (2002-01-11 then 2002-01-04)"
    )
