import pickle
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pricedir.errors import (
    DataValidationError,
    ParseError,
    UnresolvableWeekError,
    ValidationError,
)
from pricedir.ingest import (
    CompanyPanel,
    MembershipSnapshot,
    membership_file_text,
    panel_file_text,
    parse_company_panel,
    parse_membership_file,
    resolve_weekly_date,
)

from conftest import assert_panels_equal


def membership_text(effective, tickers):
    return f"# effective_date={effective}\nticker\n" + "".join(t + "\n" for t in tickers)


def reference_ticker_rows(lines, source):
    """The ticker-row check as first written (a per-character ``isspace``
    scan): the constituents, or the error the parser must raise."""
    seen = set()
    for lineno, raw in enumerate(lines, start=3):
        ticker = raw.strip()
        if not ticker or "," in ticker or any(c.isspace() for c in ticker):
            return ParseError(f"malformed ticker row {raw!r}", source=source, line=lineno)
        if ticker in seen:
            return DataValidationError(f"{source}, line {lineno}: duplicate ticker {ticker!r}")
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
        with pytest.raises(DataValidationError, match="duplicate ticker"):
            parse_membership_file(text, date(2002, 1, 4))

    def test_empty_content_rejected(self):
        with pytest.raises(DataValidationError, match="empty"):
            parse_membership_file("", date(2002, 1, 4))

    def test_zero_tickers_is_a_valid_small_index_week(self):
        snap = parse_membership_file(
            membership_text("2002-01-04", []), date(2002, 1, 4)
        )
        assert snap.constituents == frozenset()

    def test_malformed_row_has_line_number(self):
        text = membership_text("2002-01-04", ["AAA", "B B"])
        with pytest.raises(ParseError, match="line 4"):
            parse_membership_file(text, date(2002, 1, 4))

    def test_bad_header_line(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_membership_file("effective=2002-01-04\nticker\nAAA\n", date(2002, 1, 4))

    def test_effective_after_requested_rejected(self):
        text = membership_text("2002-01-11", ["AAA"])
        with pytest.raises(DataValidationError):
            parse_membership_file(text, date(2002, 1, 4))

    def test_effective_gap_beyond_window_rejected(self):
        text = membership_text("2002-01-04", ["AAA"])
        with pytest.raises(DataValidationError):
            parse_membership_file(text, date(2002, 1, 11))

    def test_accepts_bytes(self):
        text = membership_text("2002-01-04", ["AAA"]).encode("utf-8")
        snap = parse_membership_file(text, date(2002, 1, 4))
        assert snap.constituents == frozenset({"AAA"})


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


class TestResolveWeeklyDate:
    def test_friday_falls_back_to_thursday(self):
        available = [date(2004, 4, 1), date(2004, 4, 8), date(2004, 4, 15)]
        assert resolve_weekly_date(date(2004, 4, 9), available) == date(2004, 4, 8)

    def test_requested_date_present(self):
        available = [date(2004, 4, 2), date(2004, 4, 9)]
        assert resolve_weekly_date(date(2004, 4, 9), available) == date(2004, 4, 9)

    def test_eight_day_gap_unresolvable(self):
        # 2004-04-09 minus 2004-04-01 is 8 days, two past the window
        assert (date(2004, 4, 9) - date(2004, 4, 1)).days == 8
        with pytest.raises(UnresolvableWeekError):
            resolve_weekly_date(date(2004, 4, 9), [date(2004, 4, 1)])

    def test_six_day_gap_is_still_inside_window(self):
        assert resolve_weekly_date(date(2004, 4, 9), [date(2004, 4, 3)]) == date(2004, 4, 3)

    def test_no_earlier_date_at_all(self):
        with pytest.raises(UnresolvableWeekError):
            resolve_weekly_date(date(2004, 4, 9), [date(2004, 4, 10)])

    def test_empty_available_rejected(self):
        with pytest.raises(ValidationError):
            resolve_weekly_date(date(2004, 4, 9), [])

    @given(
        offsets=st.lists(st.integers(min_value=0, max_value=2000), min_size=1, max_size=50),
        req_offset=st.integers(min_value=0, max_value=2000),
    )
    def test_idempotent(self, offsets, req_offset):
        base = date(2002, 1, 4)
        available = sorted({base + timedelta(days=o) for o in offsets})
        requested = base + timedelta(days=req_offset)
        try:
            resolved = resolve_weekly_date(requested, available)
        except UnresolvableWeekError:
            return
        assert resolve_weekly_date(resolved, available) == resolved
        assert 0 <= (requested - resolved).days <= 6


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
        with pytest.raises(DataValidationError, match="duplicate dates"):
            parse_company_panel(text, "TST")

    def test_non_numeric_cell_located(self):
        text = "date,price,trades\n2002-01-04,10.0,abc\n"
        with pytest.raises(ParseError, match="line 2.*'trades'"):
            parse_company_panel(text, "TST", source="x.csv")

    def test_non_finite_cells_rejected(self):
        for bad in ("inf", "-inf", "nan"):
            text = f"date,price\n2002-01-04,{bad}\n"
            with pytest.raises(ParseError, match="'price'"):
                parse_company_panel(text, "TST")

    def test_bad_date_located(self):
        text = "date,price\nnot-a-date,10.0\n"
        with pytest.raises(ParseError, match="'date'"):
            parse_company_panel(text, "TST")

    def test_ragged_row_rejected(self):
        text = "date,price,trades\n2002-01-04,10.0\n"
        with pytest.raises(ParseError, match="line 2"):
            parse_company_panel(text, "TST")

    def test_missing_feature_columns_rejected(self):
        with pytest.raises(ParseError):
            parse_company_panel("date\n2002-01-04\n", "TST")

    def test_parse_error_survives_pickling(self):
        with pytest.raises(ParseError) as info:
            parse_company_panel("date,price\n2002-01-04,x\n", "TST", source="p.csv")
        sent = info.value
        back = pickle.loads(pickle.dumps(sent))
        assert type(back) is ParseError
        assert str(back) == str(sent) == "p.csv, line 2, column 'price': non-numeric cell 'x'"
        assert (back.source, back.line, back.column) == ("p.csv", 2, "price")

    @given(
        data=st.lists(
            st.tuples(
                st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False, width=32)),
                st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False, width=32)),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_serialize_parse_roundtrip(self, data):
        base = date(2002, 1, 4)
        panel = CompanyPanel(
            "TST",
            [base + timedelta(weeks=k) for k in range(len(data))],
            {
                "a": [row[0] for row in data],
                "b": [row[1] for row in data],
            },
        )
        again = parse_company_panel(panel_file_text(panel), "TST")
        assert_panels_equal(again, panel)


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
