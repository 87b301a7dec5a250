"""Trade CSV ingest and export: sessions, validation, round trips."""
import csv
import errno
import functools
import io
import os
import tempfile
import time
import tracemalloc
from datetime import date, datetime, timedelta, timezone
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from zoneinfo import ZoneInfo

from conftest import tape_from_rows
from tickzone.domain import NO_QUOTE, SUBTICKS_PER_TICK, AssetSpec, TradeTape
from tickzone.errors import IngestError, ParameterError, TickzoneError, show_field
from tickzone.estimators import build_daily_record
from tickzone.pipeline import simulate_to_csv
from tickzone import tradefile
from tickzone.simulator import EfficientPathSpec, TapeConfig, simulate_day
from tickzone.tradefile import (
    _STAMP_RANGE,
    FULL_DAY,
    TRADE_CSV_HEADER,
    SessionFilter,
    _first,
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
        assert s.elapsed_seconds(date(2009, 6, 1)) == 33300.0
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
        with pytest.raises(ParameterError, match="^unknown time zone 'Mars/Olympus'$"):
            SessionFilter(0, 3600, tz="Mars/Olympus")

    def test_time_zone_outside_the_zone_database(self):
        # zoneinfo refuses a key that climbs out of its search path with a ValueError
        with pytest.raises(ParameterError, match="^unknown time zone '../etc'$"):
            SessionFilter.from_text("08:00-09:00", tz="../etc")

    def test_open_epoch_ms_utc(self):
        assert FULL_DAY.open_epoch_ms(date(2009, 6, 1)) == _JUN1_UTC_MS

    def test_open_epoch_ms_respects_dst(self):
        # Berlin is UTC+2 on 2009-06-01, so 08:00 local is 06:00Z
        s = SessionFilter.from_text("08:00-17:15", tz="Europe/Berlin")
        assert s.open_epoch_ms(date(2009, 6, 1)) == _JUN1_UTC_MS + 6 * 3600 * 1000
        # and UTC+1 in winter
        assert s.open_epoch_ms(date(2009, 1, 5)) % 86_400_000 == 7 * 3600 * 1000

    @pytest.mark.parametrize("tz, day, window, utc", [
        # in Sao Paulo 00:00 became 01:00 that night, at 03:00Z: a skipped open opens at the jump
        ("America/Sao_Paulo", date(2018, 11, 4), "00:30-02:00", datetime(2018, 11, 4, 3, tzinfo=timezone.utc)),
        ("Europe/Berlin", date(2009, 3, 29), "02:30-04:00", datetime(2009, 3, 29, 1, tzinfo=timezone.utc)),
        # Lord Howe moves half an hour, 02:00 to 02:30, at 15:30Z
        ("Australia/Lord_Howe", date(2009, 10, 4), "02:15-04:00", datetime(2009, 10, 3, 15, 30, tzinfo=timezone.utc)),
        # an open the clock reads twice opens the first time
        ("Europe/Berlin", date(2009, 10, 25), "02:30-04:00", datetime(2009, 10, 25, 0, 30, tzinfo=timezone.utc)),
    ])
    def test_open_is_the_first_instant_the_local_clock_reads_it(self, tz, day, window, utc):
        assert SessionFilter.from_text(window, tz=tz).open_epoch_ms(day) == utc.timestamp() * 1000

    @pytest.mark.parametrize("tz, day, window, seconds", [
        ("Europe/Berlin", date(2009, 6, 1), "08:00-17:15", 33_300.0),
        # the clock skips the open, 00:00 to 01:00, and the session lasts an hour
        ("America/Sao_Paulo", date(2018, 11, 4), "00:30-02:00", 3_600.0),
        # the clock goes back, 03:00 to 02:00, inside the session
        ("Europe/Berlin", date(2009, 10, 25), "01:00-04:00", 14_400.0),
        # ... and reads the close twice: the session ends at the first reading, after which the clock reads
        # past the close for half an hour
        ("Europe/Berlin", date(2009, 10, 25), "00:00-02:30", 9_000.0),
        # the clock skips the close, 02:00 to 03:00: the session ends the millisecond before the jump
        ("Europe/Berlin", date(2009, 3, 29), "01:00-02:30", 3_599.999),
    ])
    def test_elapsed_session_ends_where_the_clock_first_reads_past_the_close(self, tz, day, window, seconds):
        session = SessionFilter.from_text(window, tz=tz)
        assert session.elapsed_seconds(day) == seconds
        end = session.open_epoch_ms(day) + round(seconds * 1000)
        # a stamp at the end is in that day's session and one a millisecond later is not
        located = session.rows_by_day(np.array([end, end + 1]))
        assert located == {day: slice(0, 1)}

    def test_locate_inverts_open(self, tmp_path):
        # a print stamped at the open lands on that day, at time zero
        s = SessionFilter.from_text("08:00-17:15", tz="Europe/Berlin")
        p = _write(tmp_path / "o.csv", [_header(), f"{s.open_epoch_ms(date(2009, 6, 1))},100.5,1,,"])
        (day,) = ingest_trades([p], _asset(), s, [])
        assert day.date == date(2009, 6, 1)
        assert list(day.tape.times) == [0.0]

    def test_print_at_a_2400_close_ends_that_day(self, tmp_path):
        session = SessionFilter.from_text("23:00-24:00")
        open_ms = session.open_epoch_ms(date(2009, 6, 1))
        p = _write(tmp_path / "late.csv", [_header(), f"{open_ms},100.5,1,,", f"{open_ms + 3_600_000},101,1,,"])
        (day,) = ingest_trades([p], _asset(), session, [])
        assert day.date == date(2009, 6, 1)
        assert list(day.tape.times) == [0.0, 3600.0]
        assert list(day.tape.grid.currency(day.tape.price_q)) == [100.5, 101.0]

    def test_print_at_midnight_opens_a_session_that_opens_at_0000(self, tmp_path):
        jun2 = _JUN1_UTC_MS + 86_400_000
        p = _write(tmp_path / "mid.csv", [_header(), f"{jun2 - 3_600_000},100.5,1,,", f"{jun2},101,1,,"])
        for session in (FULL_DAY, SessionFilter.from_text("00:00-01:00")):
            days = ingest_trades([p], _asset(), session, [])
            assert [d.date for d in days][-1] == date(2009, 6, 2)
            assert list(days[-1].tape.times) == [0.0]
            assert list(days[-1].tape.grid.currency(days[-1].tape.price_q)) == [101.0]


class TestReadTradeRows:
    """Read-phase checks, which cover every row of a file whether or not it is in session."""

    def test_happy_path_with_blank_line(self, tmp_path):
        p = _write(
            tmp_path / "t.csv",
            [_header(), "1000,100.5,3,100.0,100.5", "", "2000,100.5,1,,"],
        )
        (day,) = ingest_trades([p], _asset(), FULL_DAY, [])
        assert day.date == date(1970, 1, 1)
        tape = day.tape
        assert list(tape.times) == [1.0, 2.0]
        assert list(tape.grid.currency(tape.price_q)) == [100.5, 100.5]
        assert (tape.grid.text(tape.bid_q[0]), tape.grid.text(tape.ask_q[0])) == ("100", "100.5")
        assert (tape.bid_q[1], tape.ask_q[1]) == (NO_QUOTE, NO_QUOTE)
        # the blank line still counts: the row after it is line 4
        bad = _write(
            tmp_path / "t2.csv",
            [_header(), "1000,100.5,3,100.0,100.5", "", "2000,100.5,x,,"],
        )
        with pytest.raises(IngestError) as err:
            ingest_trades([bad], _asset(), FULL_DAY, [])
        assert err.value.line == 4

    def test_empty_file(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("")
        with pytest.raises(IngestError) as err:
            ingest_trades([p], _asset(), FULL_DAY, [])
        # an error without a line puts a space after the path, as one with a line does
        assert str(err.value) == f"{p}: file is empty"
        assert err.value.line is None

    def test_bad_header(self, tmp_path):
        p = _write(tmp_path / "h.csv", ["time,price,qty,bid,ask", "1,100,1,,"])
        with pytest.raises(IngestError, match="bad header"):
            ingest_trades([p], _asset(), FULL_DAY, [])

    def test_field_count(self, tmp_path):
        p = _write(tmp_path / "f.csv", [_header(), "1000,100.5,3"])
        with pytest.raises(IngestError) as err:
            ingest_trades([p], _asset(), FULL_DAY, [])
        assert err.value.line == 2

    def test_bad_timestamp(self, tmp_path):
        p = _write(tmp_path / "ts.csv", [_header(), "noon,100.5,3,,"])
        with pytest.raises(IngestError, match="bad timestamp"):
            ingest_trades([p], _asset(), FULL_DAY, [])

    def test_decreasing_timestamps(self, tmp_path):
        p = _write(tmp_path / "d.csv", [_header(), "2000,100.5,1,,", "1000,100.5,1,,"])
        with pytest.raises(IngestError, match="non-decreasing") as err:
            ingest_trades([p], _asset(), FULL_DAY, [])
        assert err.value.line == 3

    def test_equal_timestamps_allowed(self, tmp_path):
        p = _write(tmp_path / "eq.csv", [_header(), "1000,100.5,1,,", "1000,101.0,1,,"])
        assert len(ingest_trades([p], _asset(), FULL_DAY, [])[0].tape) == 2

    def test_bad_size(self, tmp_path):
        p = _write(tmp_path / "s.csv", [_header(), "1000,100.5,-2,,"])
        with pytest.raises(IngestError, match="negative size"):
            ingest_trades([p], _asset(), FULL_DAY, [])
        p2 = _write(tmp_path / "s2.csv", [_header(), "1000,100.5,many,,"])
        with pytest.raises(IngestError, match="bad size"):
            ingest_trades([p2], _asset(), FULL_DAY, [])

    def test_missing_price(self, tmp_path):
        p = _write(tmp_path / "mp.csv", [_header(), "1000,,1,,"])
        with pytest.raises(IngestError, match="missing price"):
            ingest_trades([p], _asset(), FULL_DAY, [])

    def test_header_only_file_has_no_days(self, tmp_path):
        p = _write(tmp_path / "ho.csv", [_header()])
        skipped = []
        assert ingest_trades([p], _asset(), FULL_DAY, skipped) == []
        assert skipped == [f"ingest {p}: no trades inside session 00:00-24:00"]

    def test_read_checks_cover_rows_outside_the_session(self, tmp_path):
        # a bad row after the session still fails the file, before any grid check
        session = SessionFilter.from_text("08:00-09:00")
        open_ms = session.open_epoch_ms(date(2009, 6, 1))
        p = _write(
            tmp_path / "late.csv",
            [_header(), f"{open_ms},100.3,1,,", f"{open_ms + 7_200_000},100.5,-1,,"],
        )
        with pytest.raises(IngestError, match="negative size") as err:
            ingest_trades([p], _asset(), session, [])
        assert err.value.line == 3

    def _assert_error(self, path, line, message, session=FULL_DAY):
        with pytest.raises(IngestError) as err:
            ingest_trades([path], _asset(), session, [])
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

    @pytest.mark.parametrize("width", [40, 41, 100_000])
    def test_long_header_is_shown_short(self, tmp_path, width):
        # a header line of up to 40 characters is shown as its fields, a longer one by its head and length
        head = "timestamp_ms,price,size,bid," + "a" * (width - 28)
        p = _write(tmp_path / "head.csv", [head, "1000,100.5,1,,"])
        shown = repr(head.split(",")) if width <= 40 else f"'{head[:40]}…' ({width} characters)"
        with pytest.raises(IngestError) as err:
            ingest_trades([p], _asset(), FULL_DAY, [])
        assert str(err.value) == f"{p}: bad header {shown}, expected {','.join(TRADE_CSV_HEADER)}"

    def test_parsing_runs_before_the_quote_checks(self, tmp_path):
        # a crossed quote on line 2 and a malformed bid on line 3: every winning row is
        # parsed before the tape checks its quotes, so line 3 is reported
        p = _write(
            tmp_path / "order.csv",
            [_header(), f"{_JUN1_UTC_MS},100.5,1,101.0,100.5", f"{_JUN1_UTC_MS + 1},100.5,1,x,"],
        )
        self._assert_error(p, 3, "bid: malformed price 'x'")

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

    @pytest.mark.parametrize("column", ["timestamp", "size"])
    @pytest.mark.parametrize("text", ["+5", "1_000", "\u0661\u0662"])
    def test_int_forms_outside_the_grammar(self, tmp_path, column, text):
        # int() reads a plus sign, underscores and non-ASCII digits; a stamp or size may not hold them
        fields = [str(_JUN1_UTC_MS + 1), "100.5", "1", "", ""]
        fields[0 if column == "timestamp" else 2] = text
        p = _write(tmp_path / "n.csv", [_header(), f"{_JUN1_UTC_MS},100.5,1,,", ",".join(fields)])
        self._assert_error(p, 3, f"bad {column} {text!r}")

    @pytest.mark.parametrize("column", ["timestamp", "size"])
    def test_int_longer_than_int_reads(self, tmp_path, column):
        # int() reads at most 4300 digits by default; a longer stamp or size is a bad one
        fields = [str(_JUN1_UTC_MS + 1), "100.5", "1", "", ""]
        fields[0 if column == "timestamp" else 2] = "1" * 5000
        p = _write(tmp_path / "l.csv", [_header(), f"{_JUN1_UTC_MS},100.5,1,,", ",".join(fields)])
        self._assert_error(p, 3, f"bad {column} {show_field('1' * 5000)}")

    def test_padded_stamp_and_size_are_read(self, tmp_path):
        rows = [f" \t{_JUN1_UTC_MS}\t ,100.5,\t 3 ,,", f"{_JUN1_UTC_MS + 1},101,-0,,"]
        p = _write(tmp_path / "pad.csv", [_header()] + rows)
        assert _read_columns(p).stamps.tolist() == [_JUN1_UTC_MS, _JUN1_UTC_MS + 1]
        (day,) = ingest_trades([p], _asset(), FULL_DAY, [])
        assert list(day.tape.times) == [0.0, 0.001]

    @pytest.mark.parametrize("make", ["missing", "directory"])
    def test_unreadable_path(self, tmp_path, make):
        p = tmp_path / "trades.csv"
        if make == "directory":
            p.mkdir()
        reason = os.strerror(errno.ENOENT if make == "missing" else errno.EISDIR)
        with pytest.raises(IngestError) as err:
            ingest_trades([p], _asset(), FULL_DAY, [])
        assert str(err.value) == f"{p}: cannot read file: {reason}"

    @pytest.mark.parametrize("column, message", [
        (1, "price: malformed price"), (0, "bad timestamp"), (2, "bad size"),
    ])
    def test_wide_field_in_a_long_file_stays_in_memory_bounds(self, tmp_path, column, message):
        # one 200 kB field among 50k rows: a rows-by-field-width array would take 10 GB
        lines = [_header()] + [f"{_JUN1_UTC_MS + i},100.5,1,100,100.5" for i in range(50_000)]
        fields = lines[40_001].split(",")
        fields[column] = "x" * 200_000
        lines[40_001] = ",".join(fields)
        p = _write(tmp_path / "wide.csv", lines)
        tracemalloc.start()
        try:
            with pytest.raises(IngestError) as err:
                ingest_trades([p], _asset(), FULL_DAY, [])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert err.value.line == 40_002
        assert str(err.value).startswith(f"{p}:40002: {message} 'xxx")
        assert peak < 32 * 2**20  # the reader and the tape build take 16-20 MiB here

    def test_price_out_of_range(self, tmp_path):
        # a grid check: it applies to in-session rows only, after the read checks
        big = "1000000000000000000000000000000"
        p = _write(tmp_path / "px.csv", [_header(), f"{_JUN1_UTC_MS},100.5,1,,", f"{_JUN1_UTC_MS + 1},{big},1,,"])
        self._assert_error(p, 3, f"price: price {big} is out of range for tick 0.5")
        assert ingest_trades([p], _asset(), SessionFilter.from_text("08:00-09:00"), []) == []


    @pytest.mark.parametrize("price, cause", [
        ("201/2", "malformed price '201/2'"),
        ("1_00.5", "malformed price '1_00.5'"),
        ("\uff11\uff10\uff10.\uff15", "malformed price '\uff11\uff10\uff10.\uff15'"),
        ("1e99999999", "price 1e99999999 is out of range for tick 0.5"),
        ("1e9999999", "price 1e9999999 is out of range for tick 0.5"),
    ])
    def test_price_outside_the_ascii_grammar_or_range_fails_within_a_second(self, tmp_path, price, cause):
        # Python's Fraction reads the first three as 100.5 and builds a 10**99999999 integer for the fourth
        for column in ("price", "bid"):
            row = f"{_JUN1_UTC_MS + 1},{price},1,,100.5" if column == "price" else f"{_JUN1_UTC_MS + 1},100.5,1,{price},"
            p = _write(tmp_path / f"{column}.csv", [_header(), f"{_JUN1_UTC_MS},100.5,1,,", row])
            start = time.perf_counter()
            self._assert_error(p, 3, f"{column}: {cause}")
            assert time.perf_counter() - start < 1.0


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
        days = ingest_trades([p], _asset(), FULL_DAY, [])
        assert len(days) == 1
        assert days[0].date == date(2009, 6, 1)
        tape = days[0].tape
        assert len(tape) == 1
        assert tape.n_changes == 0
        assert tape.opening_price == 100.5

    def test_first_row_anchors_the_day(self, tmp_path):
        # the file cannot say whether its first print moved the price
        p = _day_file(tmp_path, "a.csv", [(1.0, 100.5), (2.0, 101.0), (3.0, 100.5)])
        tape = ingest_trades([p], _asset(), FULL_DAY, [])[0].tape
        assert tape.opening_price == 100.5
        assert list(tape.change_directions) == [1, -1]

    def test_maturity_selection_keeps_busiest_file(self, tmp_path):
        thin = _day_file(tmp_path, "h0.csv", [(1.0, 100.0), (2.0, 100.0), (3.0, 100.0)])
        busy = _day_file(tmp_path, "h1.csv", [(float(i), 101.0) for i in range(1, 6)])
        skipped = []
        days = ingest_trades([thin, busy], _asset(), FULL_DAY, skipped)
        assert len(days) == 1
        assert days[0].tape.opening_price == 101.0
        assert len(days[0].tape) == 5
        assert skipped == [
            f"ingest {thin} 2009-06-01: lost the maturity choice to {busy} (5 trades inside session against 3)"
        ]

    def test_a_file_given_twice_is_read_once(self, tmp_path, monkeypatch):
        p = _day_file(tmp_path, "a.csv", [(1.0, 100.5), (2.0, 101.0)])
        (tmp_path / "link.csv").symlink_to(p)
        monkeypatch.chdir(tmp_path)
        read = []
        monkeypatch.setattr(tradefile, "_read_columns", lambda path: read.append(path) or _read_columns(path))
        skipped = []
        (day,) = ingest_trades(["a.csv", "./a.csv", p, "link.csv"], _asset(), FULL_DAY, skipped)
        assert read == [p]  # under the first of its paths in path order
        assert len(day.tape) == 2
        assert skipped == []  # a file never loses the maturity choice to itself

    def test_session_boundaries_inclusive(self, tmp_path):
        session = SessionFilter.from_text("08:00-09:00")
        rows = [(-0.001, 100.5), (0.0, 100.5), (600.0, 100.5), (3600.0, 100.5), (3600.001, 100.5)]
        p = _day_file(tmp_path, "b.csv", rows, session=session)
        days = ingest_trades([p], _asset(), session, [])
        tape = days[0].tape
        assert len(tape) == 3
        assert tape.times[0] == 0.0
        assert tape.times[-1] == 3600.0
        assert tape.session_length == 3600.0

    def test_prints_sharing_the_close_stamp_stay_at_the_close(self, tmp_path):
        session = SessionFilter.from_text("08:00-09:00")
        p = _day_file(tmp_path, "close.csv", [(3599.0, 100.5), (3600.0, 100.5), (3600.0, 101.0)], session=session)
        tape = ingest_trades([p], _asset(), session, [])[0].tape
        assert list(tape.times) == [3599.0, 3600.0, 3600.0]
        assert tape.session_length == 3600.0

    def test_same_millisecond_prints_keep_order(self, tmp_path):
        session = SessionFilter.from_text("08:00-09:00")
        p = _day_file(tmp_path, "ms.csv", [(5.0, 100.5), (5.0, 101.0)], session=session)
        tape = ingest_trades([p], _asset(), session, [])[0].tape
        assert list(tape.times) == [5.0, 5.0]
        assert list(tape.grid.currency(tape.price_q)) == [100.5, 101.0]

    def test_empty_session_is_a_skip(self, tmp_path):
        session = SessionFilter.from_text("08:00-09:00")
        p = _day_file(tmp_path, "out.csv", [(7200.0, 100.5)], session=session)
        skipped = []
        assert ingest_trades([p], _asset(), session, skipped) == []
        assert skipped == [f"ingest {p}: no trades inside session 08:00-09:00"]

    def test_off_grid_price(self, tmp_path):
        p = _write(tmp_path / "og.csv", [_header(), f"{_JUN1_UTC_MS},100.3,1,,"])
        with pytest.raises(IngestError, match="price") as err:
            ingest_trades([p], _asset(), FULL_DAY, [])
        assert err.value.line == 2

    def test_inverted_quotes(self, tmp_path):
        p = _write(tmp_path / "iq.csv", [_header(), f"{_JUN1_UTC_MS},100.5,1,101.0,100.5"])
        with pytest.raises(IngestError, match="ask must exceed bid"):
            ingest_trades([p], _asset(), FULL_DAY, [])

    def test_fractional_spread(self, tmp_path):
        # bid on the half-tick sub-lattice makes the spread 1.5 ticks
        p = _write(tmp_path / "fs.csv", [_header(), f"{_JUN1_UTC_MS},100.5,1,100.125,100.5"])
        with pytest.raises(IngestError, match="whole number of ticks"):
            ingest_trades([p], AssetSpec("ING", "0.25", eta=0.2), FULL_DAY, [])

    def test_two_tick_jump(self, tmp_path):
        p = _day_file(tmp_path, "jump.csv", [(1.0, 100.5), (2.0, 101.5)])
        with pytest.raises(IngestError, match="more than one tick"):
            ingest_trades([p], _asset(), FULL_DAY, [])

    def test_ingest_is_idempotent(self, tmp_path):
        p = _day_file(tmp_path, "tw.csv", [(1.0, 100.5), (2.0, 101.0), (3.0, 101.0), (4.0, 100.5)])
        a = ingest_trades([p], _asset(), FULL_DAY, [])[0].tape
        b = ingest_trades([p], _asset(), FULL_DAY, [])[0].tape
        for col in ("times", "price_q", "bid_q", "ask_q"):
            assert np.array_equal(getattr(a, col), getattr(b, col))
        assert a.opening_price_q == b.opening_price_q

    def test_multi_day_file_splits(self, tmp_path):
        lines = [_header()]
        for d in (date(2009, 6, 1), date(2009, 6, 2)):
            base = FULL_DAY.open_epoch_ms(d)
            lines.append(f"{base + 1000},100.5,1,,")
            lines.append(f"{base + 2000},101,1,,")
        p = _write(tmp_path / "md.csv", lines)
        days = ingest_trades([p], _asset(), FULL_DAY, [])
        assert [d.date for d in days] == [date(2009, 6, 1), date(2009, 6, 2)]
        assert all(len(d.tape) == 2 for d in days)

    def test_first_bad_file_in_path_order_raises(self, tmp_path):
        # the later path is quick to fail; the earlier one fails only on its last row
        lines = [_header()] + [f"{_JUN1_UTC_MS + i},100.5,1,," for i in range(20_001)]
        lines[-1] = lines[-1].replace(",1,", ",y,")
        slow = _write(tmp_path / "a.csv", lines)
        quick = _write(tmp_path / "b.csv", [_header(), "x,100.5,1,,"])
        with pytest.raises(IngestError) as err:
            ingest_trades([quick, slow], _asset(), FULL_DAY, [])
        assert str(err.value) == f"{slow}:20002: bad size 'y'"

    def test_skip_of_an_earlier_file_is_kept_when_a_later_file_raises(self, tmp_path):
        session = SessionFilter.from_text("08:00-09:00")
        outside = _day_file(tmp_path, "a.csv", [(7200.0, 100.5)], session=session)
        bad = _write(tmp_path / "b.csv", [_header(), "x,100.5,1,,"])
        skipped = []
        with pytest.raises(IngestError, match="bad timestamp") as err:
            ingest_trades([bad, outside], _asset(), session, skipped)
        assert err.value.path == bad
        assert skipped == [f"ingest {outside}: no trades inside session 08:00-09:00"]

    def test_many_files_read_like_one_at_a_time(self, tmp_path):
        rng = np.random.default_rng(7)
        paths = []
        for d in range(5):
            day = date(2009, 6, 1) + timedelta(days=d)
            # a back month on alternate days, which wins the day it trades most
            for name, n in (("M", 3_000), ("U", 4_000 if d == 3 else 500 if d % 2 else 0)):
                if n:
                    ticks = 201 + np.cumsum(rng.integers(-1, 2, n))
                    rows = [(float(s), t / 2) for s, t in zip(np.sort(rng.uniform(0, 80_000, n)), ticks.tolist())]
                    paths.append(_day_file(tmp_path, f"{name}_{d}.csv", rows, day=day))
        got = ingest_trades(paths, _asset(), FULL_DAY, [])
        singles = [{d.date: d.tape for d in ingest_trades([p], _asset(), FULL_DAY, [])} for p in sorted(paths)]
        want = {}
        for by_day in singles:
            for day, tape in by_day.items():
                if day not in want or len(tape) > len(want[day]):
                    want[day] = tape
        assert [d.date for d in got] == sorted(want)
        for day, tape in got:
            for col in ("times", "price_q", "bid_q", "ask_q"):
                assert np.array_equal(getattr(tape, col), getattr(want[day], col))
            assert (tape.session_length, tape.opening_price_q) == (want[day].session_length, want[day].opening_price_q)
        assert len(got[3].tape) == 4_000

    def test_a_file_takes_at_most_five_times_its_size(self, tmp_path):
        # a front-month day of a DAX-like future: 46k one-tick moves with one-tick quotes, 1.6 MB
        ticks = 8_000 + np.cumsum(np.random.default_rng(0).integers(-1, 2, 46_000))
        lines = [_header()] + [
            f"{_JUN1_UTC_MS + 1_800 * i},{t / 2:g},{1 + i % 7},{(t - 1) / 2:g},{t / 2:g}"
            for i, t in enumerate(ticks.tolist())
        ]
        p = _write(tmp_path / "day.csv", lines)
        tracemalloc.start()
        try:
            days = ingest_trades([p], _asset(), FULL_DAY, [])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(days[0].tape) == 46_000
        assert peak <= 5 * p.stat().st_size


class TestWriteRoundTrip:
    def _tape(self, tick=0.5):
        a = _asset(tick)
        rows = [
            (1.0, 100.5, 100.0, 100.5),
            (2.5, 101.0, 100.5, 101.0),
            (3.75, 101.5, 101.0, 101.5),
            (9.001, 101.0, 101.0, 101.5),
        ]
        return tape_from_rows(a, rows, session_length=3600.0, opening_price=100.5)

    def test_round_trip_is_bit_identical(self, tmp_path):
        session = SessionFilter.from_text("08:00-09:00", tz="Europe/Berlin")
        day = date(2009, 6, 1)
        tape = self._tape()
        out = tmp_path / "rt.csv"
        write_tape_csv(tape, out, day, session)
        back = ingest_trades([out], _asset(), session, [])
        assert len(back) == 1 and back[0].date == day
        got = back[0].tape
        for col in ("times", "price_q", "bid_q", "ask_q"):
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
        rows = [
            (1.0, 100.5, None, None),
            (2.0, 100.5, 100.0, 100.5),
        ]
        tape = tape_from_rows(a, rows, session_length=60.0, opening_price=100.5)
        out = tmp_path / "nq.csv"
        write_tape_csv(tape, out, date(2009, 6, 1), FULL_DAY)
        text = out.read_text().splitlines()
        assert text[1].endswith(",1,,")
        got = ingest_trades([out], _asset(), FULL_DAY, [])[0].tape
        assert got.bid_q[0] == NO_QUOTE and got.ask_q[0] == NO_QUOTE
        assert got.bid_q[1] != NO_QUOTE

    def test_awkward_tick_prints_exact_decimals(self, tmp_path):
        a = AssetSpec("BUS", 7.8125, eta=0.2)
        rows = [
            (1.0, 101.5625, None, None),
            (2.0, 109.375, 101.5625, 109.375),
        ]
        tape = tape_from_rows(a, rows, session_length=60.0, opening_price=101.5625)
        out = tmp_path / "frac.csv"
        write_tape_csv(tape, out, date(2009, 6, 1), FULL_DAY)
        body = out.read_text()
        assert "101.5625" in body and "109.375" in body
        got = ingest_trades([out], a, FULL_DAY, [])[0].tape
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
    """A valid one-hour tape on a tick given as text, with its session and day."""
    tick = draw(st.sampled_from(_TICKS))
    asset = AssetSpec("PRP", tick, eta=0.25)
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
    tape = TradeTape(
        asset, np.asarray(ms) / 1000.0, price_q, bid_q, ask_q,
        session_length=3600.0, opening_price_q=int(price_q[0]),
    )
    return tape, session, day


@given(_tape_files())
@settings(max_examples=60, deadline=None)
def test_write_then_ingest_gives_the_same_tape(case):
    tape, session, day = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rt.csv"
        write_tape_csv(tape, path, day, session)
        back = ingest_trades([path], tape.asset, session, [])
    assert [d.date for d in back] == [day]
    got = back[0].tape
    for col in ("times", "price_q", "bid_q", "ask_q"):
        assert np.array_equal(getattr(tape, col), getattr(got, col)), col
    assert (got.opening_price_q, got.session_length) == (tape.opening_price_q, tape.session_length)
    assert _record_or_error(got) == _record_or_error(tape)


@st.composite
def _tick_texts(draw):
    """Plain decimal text of a tick from 1e-10 to below 1e5, with up to 34 significant digits."""
    digits = draw(st.integers(1, 34))
    mantissa = draw(st.integers(10 ** (digits - 1), 10**digits - 1))
    return format(Decimal(mantissa).scaleb(draw(st.integers(-9, 5)) - digits), "f")


@given(
    tick=_tick_texts(),
    x0_ticks=st.floats(-5e12, 5e12),
    vol_ticks=st.floats(0.0, 0.2),
    fills=st.floats(0.0, 0.05),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_simulated_day_reads_back_on_any_decimal_tick(tick, x0_ticks, vol_ticks, fills, seed):
    asset = AssetSpec("PRP", tick, eta=0.25)
    session, day = SessionFilter.from_text("08:00-09:00", tz="Europe/Berlin"), date(2009, 6, 1)
    spec = EfficientPathSpec(x0=x0_ticks * asset.tick_value, volatility=vol_ticks * asset.tick_value, horizon=3600.0)
    try:
        tape, _ = simulate_day(spec, asset, TapeConfig(trade_intensity=fills, seed=seed))
    except ParameterError:  # an opening price too many ticks from 0
        assume(False)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sim.csv"
        write_tape_csv(tape, path, day, session)
        back = ingest_trades([path], AssetSpec("PRP", tick), session, [])
    assert [d.date for d in back] == ([day] if len(tape) else [])
    for got in (d.tape for d in back):
        for col in ("times", "price_q", "bid_q", "ask_q"):
            assert np.array_equal(getattr(tape, col), getattr(got, col)), col
        assert got.opening_price_q == tape.opening_price_q


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
    tape, session, day = case
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
            ingest_trades([path], tape.asset, session, [])
    line = 2 + row + len(blanks)
    assert err.value.line == line
    assert str(err.value) == f"{path}:{line}: {message}"


_UTC_2008 = 1_199_145_600_000  # 2008-01-01T00:00:00Z
_UTC_2011 = 1_293_840_000_000  # 2011-01-01T00:00:00Z
_DAY_MS = 86_400_000
# the 02:15 open falls in the spring gap of all three zones, so it opens at the jump
_LOCATE_SESSIONS = (
    "00:00-24:00", "01:00-04:00", "00:30-02:15", "01:45-02:45", "02:15-04:00", "03:00-17:15", "21:30-23:59",
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
    """Per local day, the tape times of the in-session stamps, one datetime per stamp.

    A stamp is in a date's session when it lies from the open to the open plus the elapsed session, both
    included; of the stamp's local date and the dates either side, the latest such date wins.
    """
    zone = ZoneInfo(session.tz)
    days = {}
    for ms in stamps:
        local = _utc(ms).astimezone(zone).date()
        held = [
            d for d in (local - timedelta(days=1), local, local + timedelta(days=1))
            if session.open_epoch_ms(d) <= ms <= session.open_epoch_ms(d) + round(session.elapsed_seconds(d) * 1000)
        ]
        if held:
            days.setdefault(held[-1], []).append(ms)
    return [
        (day, [(ms - session.open_epoch_ms(day)) / 1000.0 for ms in got])
        for day, got in sorted(days.items())
    ]


@pytest.mark.parametrize("tz, window, utc, day", [
    # the clock reads 02:30 first at 00:30Z and falls back at 01:00Z: 02:15 CET lies inside that day
    ("Europe/Berlin", "02:30-04:00", datetime(2009, 10, 25, 1, 15), date(2009, 10, 25)),
    # ... and reads 02:30 first at 00:30Z, where the day ends: 02:00 CET lies outside it
    ("Europe/Berlin", "00:00-02:30", datetime(2009, 10, 25, 1, 0), None),
    # the clock skips 02:00-03:00, and all of 02:15-02:45 with it
    ("Europe/Berlin", "02:15-02:45", datetime(2009, 3, 29, 1, 0), None),
    # Sao Paulo skips 00:00-01:00 at 03:00Z: the millisecond before closes the 3rd and the jump opens the 4th
    ("America/Sao_Paulo", "00:00-24:00", datetime(2018, 11, 4, 2, 59, 59, 999000), date(2018, 11, 3)),
    ("America/Sao_Paulo", "00:00-24:00", datetime(2018, 11, 4, 3, 0), date(2018, 11, 4)),
    # a stamp that closes one date and opens the next goes to the next
    ("UTC", "00:00-24:00", datetime(2009, 6, 2), date(2009, 6, 2)),
    ("UTC", "23:00-24:00", datetime(2009, 6, 2), date(2009, 6, 1)),
])
def test_a_stamp_lies_in_the_session_whose_epoch_interval_holds_it(tz, window, utc, day):
    session = SessionFilter.from_text(window, tz=tz)
    ms = round(utc.replace(tzinfo=timezone.utc).timestamp() * 1000)
    assert session.rows_by_day(np.array([ms])) == ({} if day is None else {day: slice(0, 1)})
    assert [d for d, _ in _oracle_days([ms], session)] == ([] if day is None else [day])


def _assert_located_like_oracle(stamps, session, tmp_dir):
    path = _write(Path(tmp_dir) / "loc.csv", [_header()] + [f"{ms},100,1,," for ms in stamps])
    got = ingest_trades([path], AssetSpec("LOC", 1.0), session, [])
    assert [(d.date, list(d.tape.times)) for d in got] == _oracle_days(stamps, session)


@st.composite
def _located_stamps(draw):
    # Sao Paulo's clock changes at midnight; it stays out of _ZONES, where 00:00-01:00 has no time on 2018-11-04
    tz = draw(st.sampled_from(_ZONES + ("America/Sao_Paulo",)))
    near_change = st.tuples(
        st.sampled_from(_offset_change_days(tz)), st.integers(-2 * _DAY_MS, 3 * _DAY_MS)
    ).map(sum)
    stamps = draw(
        st.lists(st.one_of(st.integers(_UTC_2008, _UTC_2011 - 1), near_change), min_size=1, max_size=80)
    )
    return sorted(set(stamps)), SessionFilter.from_text(draw(st.sampled_from(_LOCATE_SESSIONS)), tz=tz)


@given(_located_stamps())
# the first UTC day ends after the autumn change of 2008 and the last stamp follows the spring change of 2010
@example(([1_224_979_200_000, 1_224_982_800_000, 1_269_738_000_000], SessionFilter(1800, 8100, "Europe/Berlin")))
# Berlin's clock skips 02:15 on 2009-03-29, so the day opens at the jump, 01:00Z, and 01:05Z is 5 minutes in
@example(([1_238_288_700_000, 1_238_289_600_000], SessionFilter(8100, 14400, "Europe/Berlin")))
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


@st.composite
def _clock_change_days(draw):
    """A session, a day within one of a 2009 clock change in its zone (by UTC date), and a seed."""
    tz = draw(st.sampled_from(_ZONES + ("America/Sao_Paulo",)))
    change = draw(st.sampled_from([ms for ms in _offset_change_days(tz) if _utc(ms).year == 2009]))
    day = _utc(change).date() + timedelta(days=draw(st.integers(-1, 1)))
    session = SessionFilter.from_text(draw(st.sampled_from(_LOCATE_SESSIONS + ("02:30-04:00",))), tz=tz)
    return session, day, draw(st.integers(0, 2**32 - 1))


@given(_clock_change_days())
# the clock reads 02:30-03:00 twice, and the day runs from the first 02:30 to 04:00
@example((SessionFilter.from_text("02:30-04:00", tz="Europe/Berlin"), date(2009, 10, 25), 1))
# the clock reads 01:45-02:00 twice, and the day runs from the first 01:45 to 02:45
@example((SessionFilter.from_text("01:45-02:45", tz="America/New_York"), date(2009, 11, 1), 1))
@settings(max_examples=40, deadline=None)
def test_a_simulated_clock_change_day_reads_back_whole(case):
    session, day, seed = case
    asset = AssetSpec("CLK", "0.01", eta=0.25)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "day.csv"
        tape, _ = simulate_to_csv(asset, 0.002, 100.0, 0.05, seed, session, day, path)
        written = len(path.read_text().splitlines()) - 1
        back = ingest_trades([path], AssetSpec("CLK", "0.01"), session, [])
    assert written == len(tape)
    assert [(d.date, len(d.tape)) for d in back] == ([(day, written)] if written else [])
    for got in (d.tape for d in back):
        for col in ("times", "price_q", "bid_q", "ask_q"):
            assert np.array_equal(getattr(tape, col), getattr(got, col)), col
        assert (got.opening_price_q, got.session_length) == (tape.opening_price_q, tape.session_length)
        assert _record_or_error(got) == _record_or_error(tape)


def test_a_day_of_shared_milliseconds_reads_back_whole(tmp_path):
    # at 2,000 fills a second, 86% of the prints share their millisecond with another print
    session = SessionFilter.from_text("08:00-08:01")
    asset = AssetSpec("BSY", "0.01", eta=0.25)
    path = tmp_path / "busy.csv"
    tape, _ = simulate_to_csv(asset, 0.002, 100.0, 2000.0, 1, session, date(2009, 6, 1), path)
    [got] = ingest_trades([path], AssetSpec("BSY", "0.01"), session, [])
    assert len(got.tape) == len(tape) == len(path.read_text().splitlines()) - 1
    assert np.array_equal(got.tape.times, tape.times)
    assert np.any(np.diff(tape.times) == 0)
    assert tape.times[-1] <= tape.session_length == got.tape.session_length == 60.0


def _narrowed_out(text: str) -> bool:
    """Whether ``int()`` reads ``text`` only through a form the trade-file grammar leaves out.

    Those forms are a ``+`` sign, ``_`` between digits, non-ASCII digits and
    whitespace other than ASCII spaces and tabs around the number.
    """
    return not text.isascii() or "+" in text or "_" in text or text.strip() != text.strip(" \t")


def _leading_ints(texts):
    """The integers of ``texts`` up to the first text that is not one."""
    values = []
    for text in texts:
        if _narrowed_out(text):
            break
        try:
            values.append(int(text))
        except ValueError:
            break
    return values


def _distinct(texts):
    index = {v: i for i, v in enumerate(dict.fromkeys(texts))}
    return list(index), np.array([index[v] for v in texts], dtype=np.intp)


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
    texts = [[values[c] for c in codes.tolist()] for values, codes in cols.texts]  # each row's text
    return cols.lines.tolist(), cols.stamps.tolist(), texts


_LINE_ENDS = st.sampled_from(("\n", "\r\n", "\r"))
_SCRAPS = st.text("0123456789.,- \n\r\t+_\u0661", max_size=30)


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
