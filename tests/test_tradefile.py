"""Trade CSV ingest and export: sessions, validation, round trips."""
import csv
import functools
import io
import tempfile
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from zoneinfo import ZoneInfo, ZoneInfoNotFoundError

from tickzone.domain import NO_QUOTE, SUBTICKS_PER_TICK, AssetSpec, TickGrid, TradeEvent, TradeTape
from tickzone.errors import IngestError, ParameterError, TickzoneError
from tickzone.estimators import build_daily_record
from tickzone.tradefile import (
    _STAMP_RANGE,
    FULL_DAY,
    TRADE_CSV_HEADER,
    SessionFilter,
    _distinct,
    _first,
    _leading_ints,
    _read_columns,
    _record_error,
    _TradeColumns,
    ingest_trades,
    write_tape_csv,
)

# 2009-06-01T00:00:00Z
_JUN1_UTC_MS = 1_243_814_400_000


def _write(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return path


def _header():
    return "timestamp_ms,price,size,bid,ask"


class TestSessionFilter:
    def test_from_text(self):
        s = SessionFilter.from_text("08:00-17:15")
        assert (s.open_seconds, s.close_seconds) == (28800, 62100)
        assert s.length_seconds == 33300.0
        assert s.label() == "08:00-17:15"

    def test_midnight_close(self):
        s = SessionFilter.from_text("00:00-24:00")
        assert s.close_seconds == 86400
        assert FULL_DAY.label() == "00:00-24:00"

    def test_malformed_text(self):
        for bad in ("08:00", "8h-17h", "08:00-17:15-18:00", "25:00-26:00", "08:61-09:00", "24:01-24:30"):
            with pytest.raises(ParameterError):
                SessionFilter.from_text(bad)

    def test_window_must_be_forward(self):
        with pytest.raises(ParameterError):
            SessionFilter.from_text("17:00-08:00")
        with pytest.raises(ParameterError):
            SessionFilter(100, 100)

    def test_unknown_timezone(self):
        with pytest.raises(ZoneInfoNotFoundError):
            SessionFilter(0, 3600, tz="Mars/Olympus")

    def test_open_epoch_ms_utc(self):
        assert FULL_DAY.open_epoch_ms(date(2009, 6, 1)) == _JUN1_UTC_MS

    def test_open_epoch_ms_respects_dst(self):
        # Berlin is UTC+2 on 2009-06-01, so 08:00 local is 06:00Z
        s = SessionFilter.from_text("08:00-17:15", tz="Europe/Berlin")
        assert s.open_epoch_ms(date(2009, 6, 1)) == _JUN1_UTC_MS + 6 * 3600 * 1000
        # and UTC+1 in winter
        assert s.open_epoch_ms(date(2009, 1, 5)) % 86_400_000 == 7 * 3600 * 1000

    def test_locate_inverts_open(self, tmp_path):
        # a print stamped at the open lands on that day, at time zero
        s = SessionFilter.from_text("08:00-17:15", tz="Europe/Berlin")
        p = _write(tmp_path / "o.csv", [_header(), f"{s.open_epoch_ms(date(2009, 6, 1))},100.5,1,,"])
        (day,) = ingest_trades(p, _asset(), session=s)
        assert day.date == date(2009, 6, 1)
        assert list(day.tape.times) == [0.0]

    def test_print_at_a_2400_close_ends_that_day(self, tmp_path):
        session = SessionFilter.from_text("23:00-24:00")
        open_ms = session.open_epoch_ms(date(2009, 6, 1))
        p = _write(tmp_path / "late.csv", [_header(), f"{open_ms},100.5,1,,", f"{open_ms + 3_600_000},101,1,,"])
        (day,) = ingest_trades(p, _asset(), session=session)
        assert day.date == date(2009, 6, 1)
        assert list(day.tape.times) == [0.0, 3600.0]
        assert list(day.tape.prices()) == [100.5, 101.0]

    def test_print_at_midnight_opens_a_session_that_opens_at_0000(self, tmp_path):
        jun2 = _JUN1_UTC_MS + 86_400_000
        p = _write(tmp_path / "mid.csv", [_header(), f"{jun2 - 3_600_000},100.5,1,,", f"{jun2},101,1,,"])
        for session in (FULL_DAY, SessionFilter.from_text("00:00-01:00")):
            days = ingest_trades(p, _asset(), session=session)
            assert [d.date for d in days][-1] == date(2009, 6, 2)
            assert list(days[-1].tape.times) == [0.0]
            assert list(days[-1].tape.prices()) == [101.0]


class TestReadTradeRows:
    """Read-phase checks, which cover every row of a file whether or not it is in session."""

    def test_happy_path_with_blank_line(self, tmp_path):
        p = _write(
            tmp_path / "t.csv",
            [_header(), "1000,100.5,3,100.0,100.5", "", "2000,100.5,1,,"],
        )
        (day,) = ingest_trades(p, _asset())
        assert day.date == date(1970, 1, 1)
        tape = day.tape
        assert list(tape.times) == [1.0, 2.0]
        assert list(tape.prices()) == [100.5, 100.5]
        assert (tape.grid.text(tape.bid_q[0]), tape.grid.text(tape.ask_q[0])) == ("100", "100.5")
        assert (tape.bid_q[1], tape.ask_q[1]) == (NO_QUOTE, NO_QUOTE)
        # the blank line still counts: the row after it is line 4
        bad = _write(
            tmp_path / "t2.csv",
            [_header(), "1000,100.5,3,100.0,100.5", "", "2000,100.5,x,,"],
        )
        with pytest.raises(IngestError) as err:
            ingest_trades(bad, _asset())
        assert err.value.line == 4

    def test_empty_file(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("")
        with pytest.raises(IngestError, match="empty"):
            ingest_trades(p, _asset())

    def test_bad_header(self, tmp_path):
        p = _write(tmp_path / "h.csv", ["time,price,qty,bid,ask", "1,100,1,,"])
        with pytest.raises(IngestError, match="bad header"):
            ingest_trades(p, _asset())

    def test_field_count(self, tmp_path):
        p = _write(tmp_path / "f.csv", [_header(), "1000,100.5,3"])
        with pytest.raises(IngestError) as err:
            ingest_trades(p, _asset())
        assert err.value.line == 2

    def test_bad_timestamp(self, tmp_path):
        p = _write(tmp_path / "ts.csv", [_header(), "noon,100.5,3,,"])
        with pytest.raises(IngestError, match="bad timestamp"):
            ingest_trades(p, _asset())

    def test_decreasing_timestamps(self, tmp_path):
        p = _write(tmp_path / "d.csv", [_header(), "2000,100.5,1,,", "1000,100.5,1,,"])
        with pytest.raises(IngestError, match="non-decreasing") as err:
            ingest_trades(p, _asset())
        assert err.value.line == 3

    def test_equal_timestamps_allowed(self, tmp_path):
        p = _write(tmp_path / "eq.csv", [_header(), "1000,100.5,1,,", "1000,101.0,1,,"])
        assert len(ingest_trades(p, _asset())[0].tape) == 2

    def test_bad_size(self, tmp_path):
        p = _write(tmp_path / "s.csv", [_header(), "1000,100.5,-2,,"])
        with pytest.raises(IngestError, match="negative size"):
            ingest_trades(p, _asset())
        p2 = _write(tmp_path / "s2.csv", [_header(), "1000,100.5,many,,"])
        with pytest.raises(IngestError, match="bad size"):
            ingest_trades(p2, _asset())

    def test_missing_price(self, tmp_path):
        p = _write(tmp_path / "mp.csv", [_header(), "1000,,1,,"])
        with pytest.raises(IngestError, match="missing price"):
            ingest_trades(p, _asset())

    def test_header_only_file_has_no_days(self, tmp_path, caplog):
        p = _write(tmp_path / "ho.csv", [_header()])
        with caplog.at_level("WARNING"):
            assert ingest_trades(p, _asset()) == []
        assert any("no trades inside session" in r.message for r in caplog.records)

    def test_read_checks_cover_rows_outside_the_session(self, tmp_path):
        # a bad row after the session still fails the file, before any grid check
        session = SessionFilter.from_text("08:00-09:00")
        open_ms = session.open_epoch_ms(date(2009, 6, 1))
        p = _write(
            tmp_path / "late.csv",
            [_header(), f"{open_ms},100.3,1,,", f"{open_ms + 7_200_000},100.5,-1,,"],
        )
        with pytest.raises(IngestError, match="negative size") as err:
            ingest_trades(p, _asset(), session=session)
        assert err.value.line == 3

    def _assert_error(self, path, line, message, session=None):
        with pytest.raises(IngestError) as err:
            ingest_trades(path, _asset(), session=session)
        assert err.value.line == line
        assert str(err.value) == f"{path}:{line}: {message}"

    def test_non_utf8_byte(self, tmp_path):
        p = tmp_path / "latin1.csv"
        p.write_bytes(b"timestamp_ms,price,size,bid,ask\r\n1000,100.5,1,,\r\n\r\n2000,100.5,1,,\xe9\r\n")
        self._assert_error(p, 4, "file is not UTF-8 text")

    def test_field_of_200_kb(self, tmp_path):
        # a long field is shown by its first 40 characters and its length
        huge = "x" * 200_000
        p = _write(tmp_path / "huge.csv", [_header(), "1000,100.5,1,,", f"{huge},100.5,1,,"])
        self._assert_error(p, 3, f"bad timestamp '{'x' * 40}…' (200000 characters)")

    def test_price_of_200_kb(self, tmp_path):
        huge = "x" * 200_000
        p = _write(tmp_path / "huge.csv", [_header(), f"{_JUN1_UTC_MS},100.5,1,,", f"{_JUN1_UTC_MS + 1},{huge},1,,"])
        self._assert_error(p, 3, f"price: malformed price '{'x' * 40}…' (200000 characters)")

    @pytest.mark.parametrize("size, shown", [("y" * 40, repr("y" * 40)), ("y" * 41, f"'{'y' * 40}…' (41 characters)")])
    def test_field_shown_whole_up_to_40_characters(self, tmp_path, size, shown):
        p = _write(tmp_path / "size.csv", [_header(), "1000,100.5,1,,", f"2000,100.5,{size},,"])
        self._assert_error(p, 3, f"bad size {shown}")

    def test_nul_byte(self, tmp_path):
        p = _write(tmp_path / "nul.csv", [_header(), "1000,100.5,1,,", "2000\0,100.5,1,,"])
        self._assert_error(p, 3, "bad timestamp '2000\\x00'")

    @pytest.mark.parametrize("row", ['2000,"100.5",1,,', '2000,"100,5",1,,'])
    def test_quoted_field(self, tmp_path, row):
        p = _write(tmp_path / "q.csv", [_header(), "1000,100.5,1,,", row, "3000,100.5,x,,"])
        self._assert_error(p, 3, "quoted fields are not supported")

    @pytest.mark.parametrize("stamp", ["100000000000000000000000", "-100000000000000000"])
    def test_timestamp_out_of_range(self, tmp_path, stamp):
        # a read check: the row fails although no session can contain it
        session = SessionFilter.from_text("08:00-09:00")
        p = _write(tmp_path / "ts.csv", [_header(), "1000,100.5,1,,", f"{stamp},100.5,1,,", "3000,x,1,,"])
        self._assert_error(p, 3, f"timestamp {stamp} out of range", session=session)

    def test_price_out_of_range(self, tmp_path):
        # a grid check: it applies to in-session rows only, after the read checks
        big = "1000000000000000000000000000000"
        p = _write(tmp_path / "px.csv", [_header(), f"{_JUN1_UTC_MS},100.5,1,,", f"{_JUN1_UTC_MS + 1},{big},1,,"])
        self._assert_error(p, 3, f"price: price {big} is out of range for tick 0.5")
        assert ingest_trades(p, _asset(), session=SessionFilter.from_text("08:00-09:00")) == []


def _asset(tick=0.5, eta=0.25):
    return AssetSpec("ING", tick, eta=eta)


def _day_file(tmp_path, name, offsets_prices, day=date(2009, 6, 1), session=None, quotes=True):
    """Rows at open+offset seconds; price from the list; one-tick quotes."""
    session = session or FULL_DAY
    open_ms = session.open_epoch_ms(day)
    lines = [_header()]
    for off, price in offsets_prices:
        bid = f"{price - 0.5:g}" if quotes else ""
        ask = f"{price:g}" if quotes else ""
        lines.append(f"{open_ms + int(off * 1000)},{price:g},1,{bid},{ask}")
    return _write(tmp_path / name, lines)


class TestIngestTrades:
    def test_single_trade_day(self, tmp_path):
        p = _day_file(tmp_path, "one.csv", [(10.0, 100.5)])
        days = ingest_trades(p, _asset())
        assert len(days) == 1
        assert days[0].date == date(2009, 6, 1)
        tape = days[0].tape
        assert len(tape) == 1
        assert tape.n_changes == 0
        assert tape.opening_price == 100.5

    def test_first_row_anchors_the_day(self, tmp_path):
        # the file cannot say whether its first print moved the price
        p = _day_file(tmp_path, "a.csv", [(1.0, 100.5), (2.0, 101.0), (3.0, 100.5)])
        tape = ingest_trades(p, _asset())[0].tape
        assert tape.opening_price == 100.5
        assert list(tape.change_directions) == [1, -1]

    def test_maturity_selection_keeps_busiest_file(self, tmp_path):
        thin = _day_file(tmp_path, "h0.csv", [(1.0, 100.0), (2.0, 100.0), (3.0, 100.0)])
        busy = _day_file(tmp_path, "h1.csv", [(float(i), 101.0) for i in range(1, 6)])
        days = ingest_trades([thin, busy], _asset())
        assert len(days) == 1
        assert days[0].tape.opening_price == 101.0
        assert len(days[0].tape) == 5

    def test_session_boundaries_inclusive(self, tmp_path):
        session = SessionFilter.from_text("08:00-09:00")
        rows = [(-0.001, 100.5), (0.0, 100.5), (600.0, 100.5), (3600.0, 100.5), (3600.001, 100.5)]
        p = _day_file(tmp_path, "b.csv", rows, session=session)
        days = ingest_trades(p, _asset(), session=session)
        tape = days[0].tape
        assert len(tape) == 3
        assert tape.times[0] == 0.0
        assert tape.times[-1] == 3600.0
        assert tape.session_length == 3600.0

    def test_same_millisecond_prints_keep_order(self, tmp_path):
        session = SessionFilter.from_text("08:00-09:00")
        p = _day_file(tmp_path, "ms.csv", [(5.0, 100.5), (5.0, 101.0)], session=session)
        tape = ingest_trades(p, _asset(), session=session)[0].tape
        assert np.all(np.diff(tape.times) > 0)
        assert list(tape.prices()) == [100.5, 101.0]
        assert tape.times[1] == pytest.approx(5.001)

    def test_empty_session_warns_and_skips(self, tmp_path, caplog):
        session = SessionFilter.from_text("08:00-09:00")
        p = _day_file(tmp_path, "out.csv", [(7200.0, 100.5)], session=session)
        with caplog.at_level("WARNING"):
            days = ingest_trades(p, _asset(), session=session)
        assert days == []
        assert any("no trades inside session" in r.message for r in caplog.records)

    def test_off_grid_price(self, tmp_path):
        p = _write(tmp_path / "og.csv", [_header(), f"{_JUN1_UTC_MS},100.3,1,,"])
        with pytest.raises(IngestError, match="price") as err:
            ingest_trades(p, _asset())
        assert err.value.line == 2

    def test_inverted_quotes(self, tmp_path):
        p = _write(tmp_path / "iq.csv", [_header(), f"{_JUN1_UTC_MS},100.5,1,101.0,100.5"])
        with pytest.raises(IngestError, match="ask must exceed bid"):
            ingest_trades(p, _asset())

    def test_fractional_spread(self, tmp_path):
        # bid on the half-tick sub-lattice makes the spread 1.5 ticks
        p = _write(tmp_path / "fs.csv", [_header(), f"{_JUN1_UTC_MS},100.5,1,100.125,100.5"])
        with pytest.raises(IngestError, match="whole number of ticks"):
            ingest_trades(p, AssetSpec("ING", 0.25, eta=0.2), tick_text="0.25")

    def test_two_tick_jump(self, tmp_path):
        p = _day_file(tmp_path, "jump.csv", [(1.0, 100.5), (2.0, 101.5)])
        with pytest.raises(IngestError, match="more than one tick"):
            ingest_trades(p, _asset())

    def test_ingest_is_idempotent(self, tmp_path):
        p = _day_file(tmp_path, "tw.csv", [(1.0, 100.5), (2.0, 101.0), (3.0, 101.0), (4.0, 100.5)])
        a = ingest_trades(p, _asset())[0].tape
        b = ingest_trades(p, _asset())[0].tape
        for col in ("times", "price_q", "bid_q", "ask_q", "changed", "direction"):
            assert np.array_equal(getattr(a, col), getattr(b, col))
        assert a.opening_price_q == b.opening_price_q

    def test_multi_day_file_splits(self, tmp_path):
        lines = [_header()]
        for d in (date(2009, 6, 1), date(2009, 6, 2)):
            base = FULL_DAY.open_epoch_ms(d)
            lines.append(f"{base + 1000},100.5,1,,")
            lines.append(f"{base + 2000},101,1,,")
        p = _write(tmp_path / "md.csv", lines)
        days = ingest_trades(p, _asset())
        assert [d.date for d in days] == [date(2009, 6, 1), date(2009, 6, 2)]
        assert all(len(d.tape) == 2 for d in days)

    def test_tick_text_must_match_asset(self, tmp_path):
        p = _day_file(tmp_path, "tt.csv", [(1.0, 100.5)])
        with pytest.raises(ParameterError, match="disagrees"):
            ingest_trades(p, _asset(tick=0.5), tick_text="0.25")


class TestWriteRoundTrip:
    def _tape(self, tick=0.5):
        a = _asset(tick)
        events = [
            TradeEvent(1.0, 100.5, 100.0, 100.5, False, 0),
            TradeEvent(2.5, 101.0, 100.5, 101.0, True, 1),
            TradeEvent(3.75, 101.5, 101.0, 101.5, True, 1),
            TradeEvent(9.001, 101.0, 101.0, 101.5, True, -1),
        ]
        return TradeTape.from_events(a, events, session_length=3600.0, opening_price=100.5)

    def test_round_trip_is_bit_identical(self, tmp_path):
        session = SessionFilter.from_text("08:00-09:00", tz="Europe/Berlin")
        day = date(2009, 6, 1)
        tape = self._tape()
        out = tmp_path / "rt.csv"
        write_tape_csv(tape, out, day, session)
        back = ingest_trades(out, _asset(), session=session)
        assert len(back) == 1 and back[0].date == day
        got = back[0].tape
        for col in ("times", "price_q", "bid_q", "ask_q", "changed", "direction"):
            assert np.array_equal(getattr(tape, col), getattr(got, col)), col
        assert got.opening_price_q == tape.opening_price_q
        assert build_daily_record(got, "2009-06-01") == build_daily_record(tape, "2009-06-01")

    def test_bytes_match_a_csv_writer_row_by_row(self, tmp_path):
        session = SessionFilter.from_text("08:00-09:00", tz="Europe/Berlin")
        day = date(2009, 6, 1)
        tape = self._tape()
        tape.bid_q[2] = NO_QUOTE
        out = tmp_path / "w.csv"
        write_tape_csv(tape, out, day, session)
        expect = io.StringIO()
        writer = csv.writer(expect)
        writer.writerow(["timestamp_ms", "price", "size", "bid", "ask"])
        for i in range(len(tape)):
            quotes = ["" if q == NO_QUOTE else tape.grid.text(q) for q in (tape.bid_q[i], tape.ask_q[i])]
            ts = session.open_epoch_ms(day) + int(round(float(tape.times[i]) * 1000.0))
            writer.writerow([ts, tape.grid.text(tape.price_q[i]), 1] + quotes)
        assert out.read_bytes() == expect.getvalue().encode()

    def test_missing_quotes_round_trip_blank(self, tmp_path):
        a = _asset()
        events = [
            TradeEvent(1.0, 100.5, None, None, False, 0),
            TradeEvent(2.0, 100.5, 100.0, 100.5, False, 0),
        ]
        tape = TradeTape.from_events(a, events, session_length=60.0, opening_price=100.5)
        out = tmp_path / "nq.csv"
        write_tape_csv(tape, out, date(2009, 6, 1), FULL_DAY)
        text = out.read_text().splitlines()
        assert text[1].endswith(",1,,")
        got = ingest_trades(out, _asset())[0].tape
        assert got.bid_q[0] == NO_QUOTE and got.ask_q[0] == NO_QUOTE
        assert got.bid_q[1] != NO_QUOTE

    def test_awkward_tick_prints_exact_decimals(self, tmp_path):
        a = AssetSpec("BUS", 7.8125, eta=0.2)
        events = [
            TradeEvent(1.0, 101.5625, None, None, False, 0),
            TradeEvent(2.0, 109.375, 101.5625, 109.375, True, 1),
        ]
        tape = TradeTape.from_events(a, events, session_length=60.0, opening_price=101.5625)
        out = tmp_path / "frac.csv"
        write_tape_csv(tape, out, date(2009, 6, 1), FULL_DAY)
        body = out.read_text()
        assert "101.5625" in body and "109.375" in body
        got = ingest_trades(out, a)[0].tape
        assert np.array_equal(got.price_q, tape.price_q)


# ------------------------------------------------------------------ properties

_TICKS = ("0.5", "0.01", "0.25", "7.8125", "0.005", "1")
_ZONES = ("Europe/Berlin", "America/New_York", "Australia/Lord_Howe")
# one-hour sessions whose open never falls in a summer-time gap
_HOUR_SESSIONS = ("00:00-01:00", "08:00-09:00", "12:15-13:15", "22:30-23:30")
_SUB = SUBTICKS_PER_TICK


def _record_or_error(tape):
    try:
        return build_daily_record(tape, "d")
    except TickzoneError as exc:
        return type(exc), str(exc)


@st.composite
def _tape_files(draw):
    """A valid one-hour tape with its tick text, session and day."""
    tick = draw(st.sampled_from(_TICKS))
    grid = TickGrid(tick)
    asset = AssetSpec("PRP", float(tick), eta=0.25)
    session = SessionFilter.from_text(
        draw(st.sampled_from(_HOUR_SESSIONS)), tz=draw(st.sampled_from(_ZONES + ("UTC",)))
    )
    day = draw(st.dates(date(2008, 1, 1), date(2010, 12, 31)))
    n = draw(st.integers(1, 40))
    ms = sorted(draw(st.sets(st.integers(0, 3_600_000), min_size=n, max_size=n)))
    moves = [0] + draw(st.lists(st.sampled_from((-1, 0, 1)), min_size=n - 1, max_size=n - 1))
    price_q = (1000 + np.cumsum(moves)) * _SUB
    bid_q = np.full(n, NO_QUOTE, dtype=np.int64)
    ask_q = np.full(n, NO_QUOTE, dtype=np.int64)
    for i in range(n):
        sides = draw(st.sampled_from(("", "b", "a", "ba")))
        # quotes may sit between ticks, but the spread is whole ticks
        bid = price_q[i] - draw(st.integers(0, 2)) * _SUB - draw(st.sampled_from((0, _SUB // 2, _SUB // 4)))
        if "b" in sides:
            bid_q[i] = bid
        if "a" in sides:
            ask_q[i] = bid + draw(st.integers(1, 3)) * _SUB
    direction = np.sign(np.diff(price_q, prepend=price_q[0])).astype(np.int8)
    tape = TradeTape(
        asset, np.asarray(ms) / 1000.0, price_q, bid_q, ask_q, direction != 0, direction,
        session_length=3600.0, opening_price_q=int(price_q[0]), grid=grid,
    )
    return tape, tick, session, day


@given(_tape_files())
@settings(max_examples=60, deadline=None)
def test_write_then_ingest_gives_the_same_tape(case):
    tape, tick, session, day = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rt.csv"
        write_tape_csv(tape, path, day, session)
        back = ingest_trades(path, tape.asset, session=session, tick_text=tick)
    assert [d.date for d in back] == [day]
    got = back[0].tape
    for col in ("times", "price_q", "bid_q", "ask_q", "changed", "direction"):
        assert np.array_equal(getattr(tape, col), getattr(got, col)), col
    assert (got.opening_price_q, got.session_length) == (tape.opening_price_q, tape.session_length)
    assert _record_or_error(got) == _record_or_error(tape)


_CORRUPTIONS = (
    "timestamp", "size", "negative size", "missing price", "malformed price", "fine price",
    "off-grid price", "malformed bid", "two-tick jump", "crossed quote", "fractional spread",
    "backwards timestamp", "short row", "long row",
)


_NOT_DECIMALS = ("noon", "0x10", "7-", "1..5", "inf")
_NOT_INTEGERS = _NOT_DECIMALS + ("1.5", "12e3", "")


def _corrupt(fields, prev, grid, kind, bad_int, bad_decimal):
    """Spoil one row's fields in place; returns the message ingest must give."""
    price = fields[1]
    q = grid.subticks_from_text(price)
    if kind == "timestamp":
        fields[0] = bad_int
        return f"bad timestamp {bad_int!r}"
    if kind == "size":
        fields[2] = bad_int
        return f"bad size {bad_int!r}"
    if kind == "negative size":
        fields[2] = "-3"
        return "negative size -3"
    if kind == "missing price":
        fields[1] = " "
        return "missing price"
    if kind == "malformed price":
        fields[1] = bad_decimal
        return f"price: malformed price {bad_decimal!r}"
    if kind == "fine price":
        fields[1] = price + ("" if "." in price else ".") + "000000000001"
        return f"price: price {fields[1]} is finer than the sub-tick lattice of tick {grid.tick_text}"
    if kind == "off-grid price":
        fields[1] = grid.text(q + _SUB // 2)
        return f"price {fields[1]} off the tick grid"
    if kind == "malformed bid":
        fields[3] = bad_decimal
        return f"bid: malformed price {bad_decimal!r}"
    if kind == "two-tick jump":
        fields[1] = grid.text(grid.subticks_from_text(prev[1]) + 2 * _SUB)
        return "price jumped more than one tick; outside the one-tick model"
    if kind == "crossed quote":
        fields[3], fields[4] = grid.text(q), grid.text(q - _SUB)
        return "ask must exceed bid"
    if kind == "fractional spread":
        fields[3], fields[4] = grid.text(q - _SUB // 2), grid.text(q + _SUB)
        return "spread is not a whole number of ticks"
    if kind == "backwards timestamp":
        fields[0] = str(int(prev[0]) - 1)
        return "timestamps must be non-decreasing"
    if kind == "short row":
        del fields[-1]
        return "expected 5 fields, got 4"
    fields.append("1")
    return "expected 5 fields, got 6"


@given(
    _tape_files(),
    st.sampled_from(_CORRUPTIONS),
    st.sampled_from(_NOT_INTEGERS),
    st.sampled_from(_NOT_DECIMALS),
    st.lists(st.sampled_from(("", "   ")), max_size=2),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_one_corrupted_cell_names_its_line(case, kind, bad_int, bad_decimal, blanks, data):
    tape, tick, session, day = case
    needs_previous = kind in ("two-tick jump", "backwards timestamp")
    assume(len(tape) > 1 or not needs_previous)
    row = data.draw(st.integers(1 if needs_previous else 0, len(tape) - 1))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bad.csv"
        write_tape_csv(tape, path, day, session)
        lines = path.read_text().splitlines()
        records = [line.split(",") for line in lines[1:]]
        message = _corrupt(records[row], records[row - 1], tape.grid, kind, bad_int, bad_decimal)
        lines[1:] = [",".join(r) for r in records]
        lines[1 + row:1 + row] = blanks
        _write(path, lines)
        with pytest.raises(IngestError) as err:
            ingest_trades(path, tape.asset, session=session, tick_text=tick)
    line = 2 + row + len(blanks)
    assert err.value.line == line
    assert str(err.value) == f"{path}:{line}: {message}"


_UTC_2008 = 1_199_145_600_000  # 2008-01-01T00:00:00Z
_UTC_2011 = 1_293_840_000_000  # 2011-01-01T00:00:00Z
_DAY_MS = 86_400_000
# sessions whose open never falls in a summer-time gap of the three zones
_LOCATE_SESSIONS = (
    "00:00-24:00", "01:00-04:00", "00:30-02:15", "01:45-02:45", "03:00-17:15", "21:30-23:59",
)


def _utc(ms):
    return datetime(1970, 1, 1, tzinfo=timezone.utc) + timedelta(milliseconds=ms)


@functools.lru_cache(maxsize=None)
def _offset_change_days(tz):
    """UTC midnights (epoch ms) of the 2008-2010 days on which ``tz`` changes its offset."""
    zone = ZoneInfo(tz)
    days = range(_UTC_2008, _UTC_2011, _DAY_MS)
    offsets = [_utc(ms).astimezone(zone).utcoffset() for ms in days]
    return tuple(ms for ms, a, b in zip(days, offsets, offsets[1:]) if a != b)


def _oracle_days(stamps, session):
    """Per local day, the tape times of the in-session stamps, one datetime per stamp."""
    zone = ZoneInfo(session.tz)
    days = {}
    for ms in stamps:
        local = _utc(ms).astimezone(zone)
        clock_ms = (local.hour * 3600 + local.minute * 60 + local.second) * 1000 + local.microsecond // 1000
        if session.open_seconds * 1000 <= clock_ms <= session.close_seconds * 1000:
            days.setdefault(local.date(), []).append(ms)
    return [
        (day, [(ms - session.open_epoch_ms(day)) / 1000.0 for ms in got])
        for day, got in sorted(days.items())
    ]


def _assert_located_like_oracle(stamps, session, tmp_dir):
    path = _write(Path(tmp_dir) / "loc.csv", [_header()] + [f"{ms},100,1,," for ms in stamps])
    got = ingest_trades(path, AssetSpec("LOC", 1.0), session=session)
    assert [(d.date, list(d.tape.times)) for d in got] == _oracle_days(stamps, session)


@st.composite
def _located_stamps(draw):
    tz = draw(st.sampled_from(_ZONES))
    near_change = st.tuples(
        st.sampled_from(_offset_change_days(tz)), st.integers(-2 * _DAY_MS, 3 * _DAY_MS)
    ).map(sum)
    stamps = draw(
        st.lists(st.one_of(st.integers(_UTC_2008, _UTC_2011 - 1), near_change), min_size=1, max_size=80)
    )
    return sorted(set(stamps)), SessionFilter.from_text(draw(st.sampled_from(_LOCATE_SESSIONS)), tz=tz)


@given(_located_stamps())
@settings(max_examples=80, deadline=None)
def test_session_location_matches_a_datetime_per_row(case):
    stamps, session = case
    with tempfile.TemporaryDirectory() as tmp:
        _assert_located_like_oracle(stamps, session, tmp)


@pytest.mark.parametrize("tz", _ZONES)
@pytest.mark.parametrize("window", ("00:00-24:00", "01:45-02:45"))
def test_session_location_across_both_2009_changes(tz, window, tmp_path):
    # a file from March to November has the same offset at both ends
    start, stop = 1_235_865_600_000, 1_258_070_400_000  # 2009-03-01, 2009-11-13 (UTC)
    stamps = set(range(start, stop, 25_931_017))  # a stamp every 7.2 h
    for change in _offset_change_days(tz):
        if start <= change < stop:
            stamps.update(range(change - _DAY_MS, change + 2 * _DAY_MS, 299_993))  # every 5 min
    session = SessionFilter.from_text(window, tz=tz)
    assert sum(start <= c < stop for c in _offset_change_days(tz)) == 2
    _assert_located_like_oracle(sorted(stamps), session, tmp_path)


def _csv_module_read_columns(path: Path) -> _TradeColumns:
    """The ``csv.reader`` form of ``_read_columns``, kept as the oracle of the tokenizer."""
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise IngestError("file is empty", path=path)
        if [h.strip() for h in header] != TRADE_CSV_HEADER:
            raise IngestError(
                f"bad header {header!r}, expected {','.join(TRADE_CSV_HEADER)}", path=path
            )
        recs = list(reader)
    widths = np.fromiter(map(len, recs), np.intp, len(recs))
    blank = widths == 0
    blank[widths == 1] = [not recs[i][0].strip() for i in np.flatnonzero(widths == 1)]
    lines = np.flatnonzero(~blank) + 2
    if blank.any():
        recs, widths = [rec for rec, b in zip(recs, blank) if not b], widths[~blank]
    good = recs[: _first(widths != 5)]
    ts_col, price_col, size_col, bid_col, ask_col = ([rec[k] for rec in good] for k in range(5))
    stamps = np.array(_leading_ints(ts_col), dtype=np.int64)
    price = _distinct(price_col)
    end = min(
        _first(np.diff(stamps, prepend=stamps[:1]) < 0),
        _first(np.array(_leading_ints(size_col)) < 0),
        _first(np.array([not v.strip() for v in price[0]], dtype=bool)[price[1]]),
    )
    if end < len(recs):
        prev_ts = int(stamps[end - 1]) if end else None
        raise IngestError(_record_error(recs[end], prev_ts), path=path, line=int(lines[end]))
    return _TradeColumns(path, lines, stamps, [price, _distinct(bid_col), _distinct(ask_col)])


def _columns_or_error(read, path):
    """A reader's columns as lists, or the line and text of its error."""
    try:
        cols = read(path)
    except IngestError as exc:
        return exc.line, str(exc)
    return cols.lines.tolist(), cols.stamps.tolist(), [(values, codes.tolist()) for values, codes in cols.texts]


_LINE_ENDS = st.sampled_from(("\n", "\r\n", "\r"))
_SCRAPS = st.text("0123456789.,- \n\r", max_size=30)


@st.composite
def _quote_free_files(draw):
    """Valid rows, with any line end, mixed with scraps of digits, separators and line ends."""
    header = draw(_SCRAPS) if draw(st.integers(0, 9)) == 0 else ",".join(TRADE_CSV_HEADER)
    parts, ts = [header, draw(_LINE_ENDS)], 1_243_814_400_000
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 3)):
            ts += draw(st.integers(0, 5000))
            price = draw(st.sampled_from(("100", "100.5", " 101 ", "99.25")))
            bid, ask = draw(st.lists(st.sampled_from(("", "100", "100.5", " 101")), min_size=2, max_size=2))
            parts += [f"{ts},{price},{draw(st.integers(0, 9))},{bid},{ask}", draw(_LINE_ENDS)]
        else:
            parts.append(draw(_SCRAPS))
    return "".join(parts)


@given(_quote_free_files())
@settings(max_examples=300, deadline=None)
def test_tokenizer_reads_like_the_csv_module(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scraps.csv"
        path.write_bytes(text.encode())
        try:
            want = _columns_or_error(_csv_module_read_columns, path)
        except OverflowError:
            assume(False)  # a timestamp beyond int64 ends the oracle in a traceback
        got = _columns_or_error(_read_columns, path)
    if isinstance(got[1], str) and got[1].endswith(" out of range"):
        # the oracle has no range check: it stops on a later row or keeps the stamp
        stops_later = isinstance(want[1], str) and want[0] >= got[0]
        assert stops_later or any(ts not in _STAMP_RANGE for ts in want[1])
    else:
        assert got == want
