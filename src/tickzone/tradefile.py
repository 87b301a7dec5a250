"""Trade CSV reading and writing.

Files carry one trade per row with the header
``timestamp_ms,price,size,bid,ask``: a UTC epoch timestamp in whole
milliseconds, decimal prices, and the pre-trade quotes (which may be blank).
They are UTF-8 text with unquoted fields and ``\\n``, ``\\r\\n`` or ``\\r`` line ends.
Prices are parsed exactly against the asset's tick grid, so grid checks and
spread statistics never depend on binary float rounding.

Both directions work a column at a time; ingest finds a failing row with array
masks and words its error with the one scalar check of its phase.
"""
from __future__ import annotations

import bisect
import contextlib
import logging
from dataclasses import dataclass
from datetime import date as date_type
from datetime import datetime, time, timedelta, timezone
from itertools import compress, repeat, takewhile
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Union
from zoneinfo import ZoneInfo

import numpy as np

from .domain import NO_QUOTE, SUBTICKS_PER_TICK, AssetSpec, TickGrid, TradeTape
from .errors import IngestError, OffGridError, ParameterError, show_field

logger = logging.getLogger(__name__)

TRADE_CSV_HEADER = ["timestamp_ms", "price", "size", "bid", "ask"]

_DAY_MS = 86_400_000
_EPOCH_ORDINAL = date_type(1970, 1, 1).toordinal()
# epoch ms whose local dates stay inside the datetime range at any UTC offset
_STAMP_RANGE = range(
    (date_type(1, 1, 3).toordinal() - _EPOCH_ORDINAL) * _DAY_MS,
    (date_type(9999, 12, 29).toordinal() - _EPOCH_ORDINAL) * _DAY_MS,
)


def _parse_session_clock(text: str) -> int:
    """'HH:MM' to seconds since local midnight; '24:00' closes the day."""
    parts = text.strip().split(":")
    if len(parts) != 2 or not all(p.isdigit() for p in parts):
        raise ParameterError(f"malformed session time {text!r}, expected HH:MM")
    hh, mm = int(parts[0]), int(parts[1])
    if hh == 24 and mm == 0:
        return 86400
    if not (0 <= hh < 24 and 0 <= mm < 60):
        raise ParameterError(f"session time {text!r} out of range")
    return hh * 3600 + mm * 60


@dataclass(frozen=True)
class SessionFilter:
    """A trading session window in an exchange's local wall-clock time.

    The window is inclusive of both endpoints so a final trade stamped
    exactly at the close survives the millisecond rounding of timestamps.
    """

    open_seconds: int
    close_seconds: int
    tz: str = "UTC"

    def __post_init__(self):
        if not (0 <= self.open_seconds < self.close_seconds <= 86400):
            raise ParameterError("session must satisfy 0 <= open < close <= 24:00")
        ZoneInfo(self.tz)  # fail fast on unknown zones

    @classmethod
    def from_text(cls, text: str, tz: str = "UTC") -> "SessionFilter":
        parts = text.strip().split("-")
        if len(parts) != 2:
            raise ParameterError(f"malformed session {text!r}, expected HH:MM-HH:MM")
        return cls(_parse_session_clock(parts[0]), _parse_session_clock(parts[1]), tz=tz)

    @property
    def length_seconds(self) -> float:
        return float(self.close_seconds - self.open_seconds)

    def label(self) -> str:
        def clock(s):
            return f"{s // 3600:02d}:{s % 3600 // 60:02d}"

        return f"{clock(self.open_seconds)}-{clock(self.close_seconds)}"

    def open_epoch_ms(self, day: date_type) -> int:
        """UTC epoch milliseconds of this session's open on ``day``."""
        midnight = datetime.combine(day, time(0), tzinfo=ZoneInfo(self.tz))
        opened = midnight + timedelta(seconds=self.open_seconds)
        return int(round(opened.timestamp() * 1000))

    def rows_by_day(self, stamps: np.ndarray) -> Dict[date_type, np.ndarray]:
        """Indices of the in-session stamps per local date, for non-decreasing UTC stamps.

        The UTC offset is piecewise constant. It is read at the first stamp of
        each UTC day and at the last stamp; where two readings differ, the
        first stamp with the new offset is found by bisection. Rows keep file
        order within a date even where a change at local midnight steps back.
        """
        zone = ZoneInfo(self.tz)

        def offset(i: int) -> int:
            utc = datetime.fromtimestamp(int(stamps[i]) // 1000, tz=timezone.utc)
            return utc.astimezone(zone).utcoffset() // timedelta(milliseconds=1)

        if len(stamps) == 0:
            return {}
        samples = [0, *(np.flatnonzero(np.diff(stamps // _DAY_MS)) + 1).tolist(), len(stamps) - 1]
        starts, offsets = [0], [offset(0)]
        for a, b in zip(samples, samples[1:]):
            if offset(b) != offsets[-1]:
                moved = bisect.bisect_left(range(a, b), True, key=lambda i: offset(i) != offsets[-1])
                starts.append(a + moved)
                offsets.append(offset(b))
        local = stamps + np.repeat(offsets, np.diff([*starts, len(stamps)]))
        # a stamp at local midnight closes a 24:00 session, unless the session opens at 00:00
        late = int(self.close_seconds == 86400 and self.open_seconds > 0)
        day, clock = np.divmod(local - late, _DAY_MS)
        clock += late
        rows = np.flatnonzero((clock >= self.open_seconds * 1000) & (clock <= self.close_seconds * 1000))
        rows = rows[np.argsort(day[rows], kind="stable")]
        days, firsts = np.unique(day[rows], return_index=True)
        dates = (date_type.fromordinal(_EPOCH_ORDINAL + d) for d in days.tolist())
        return dict(zip(dates, np.split(rows, firsts[1:])))


FULL_DAY = SessionFilter(0, 86400, tz="UTC")


def write_tape_csv(tape: TradeTape, path: Union[str, Path], day: date_type, session: SessionFilter) -> None:
    """Write a tape in the trade CSV format, anchored at the session open."""
    stamps = session.open_epoch_ms(day) + np.rint(tape.times * 1000.0).astype(np.int64)
    values, codes = np.unique(np.concatenate([tape.price_q, tape.bid_q, tape.ask_q]), return_inverse=True)
    texts = np.array(["" if q == NO_QUOTE else tape.grid.text(q) for q in values.tolist()], dtype=object)
    prices, bids, asks = (cells.tolist() for cells in np.split(texts[codes], 3))
    rows = zip(stamps.tolist(), prices, bids, asks)
    body = "".join([f"{ts},{price},1,{bid},{ask}\r\n" for ts, price, bid, ask in rows])
    Path(path).write_text(",".join(TRADE_CSV_HEADER) + "\r\n" + body, newline="")


class DayTape(NamedTuple):
    date: date_type
    tape: TradeTape


class _TradeColumns(NamedTuple):
    """One file's data rows; a text column is (distinct values, each row's code)."""

    path: Path
    lines: np.ndarray
    stamps: np.ndarray
    texts: List[tuple]  # price, bid, ask


def _distinct(texts: Sequence[str]) -> tuple:
    index = {v: i for i, v in enumerate(dict.fromkeys(texts))}
    return list(index), np.fromiter(map(index.__getitem__, texts), np.intp, len(texts))


def _leading_ints(texts: Sequence[str]) -> List[int]:
    """The integers of ``texts`` up to the first text that is not one."""
    values: List[int] = []
    with contextlib.suppress(ValueError):
        values.extend(map(int, texts))  # keeps what was appended before int() failed
    return values


def _leading_stamps(texts: Sequence[str]) -> np.ndarray:
    """The timestamps of ``texts`` up to the first text that is not one in range."""
    values = _leading_ints(texts)
    try:
        stamps = np.array(values, dtype=np.int64)
    except OverflowError:  # a value beyond int64 is out of range too; cut there
        stamps = np.array(list(takewhile(_STAMP_RANGE.__contains__, values)), dtype=np.int64)
    return stamps[: _first((stamps < _STAMP_RANGE.start) | (stamps >= _STAMP_RANGE.stop))]


def _first(mask: np.ndarray) -> int:
    return int(np.argmax(mask)) if mask.any() else len(mask)


def _record_error(rec: List[str], prev_ts: Optional[int]) -> Optional[str]:
    """The first read-check failure of one record, in check order."""
    if len(rec) != 5:
        return f"expected 5 fields, got {len(rec)}"
    ts_text, price, size_text, _, _ = (f.strip() for f in rec)
    try:
        ts = int(ts_text)
    except ValueError:
        return f"bad timestamp {show_field(ts_text)}"
    if ts not in _STAMP_RANGE:
        return f"timestamp {show_field(ts_text, str)} out of range"
    if prev_ts is not None and ts < prev_ts:
        return "timestamps must be non-decreasing"
    try:
        size = int(size_text)
    except ValueError:
        return f"bad size {show_field(size_text)}"
    if size < 0:
        return f"negative size {size}"
    return None if price else "missing price"


def read_text(path: Path) -> str:
    """The text of a UTF-8 file; a byte that is not UTF-8 is an IngestError at its line."""
    data = path.read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[: exc.start].decode("utf-8")
        line = before.count("\n") + before.count("\r") - before.count("\r\n") + 1
        raise IngestError("file is not UTF-8 text", path=path, line=line) from None


def _lines(path: Path) -> List[str]:
    """The file's lines, each ended by ``\\n``, ``\\r\\n`` or ``\\r``; a final line end starts no line."""
    lines = read_text(path).replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def _columns(rows: List[str]) -> List[List[str]]:
    """The five field columns of five-field ``rows``, up to the first row that holds a quote."""
    joined = ",".join(rows)
    if '"' in joined:  # a quoted row fails where it stands, whatever its comma count
        return _columns(rows[: next(i for i, row in enumerate(rows) if '"' in row)])
    fields = joined.split(",") if joined else []
    return [fields[k::5] for k in range(5)]


def _read_columns(path: Path) -> _TradeColumns:
    """Read one trade file and run the read checks on every row.

    Fields are unquoted, so a row is its line split at commas: each line's
    comma count gives its field count, and the five-field rows are split all
    at once, so no list is made per row for the garbage collector to scan.
    """
    recs = _lines(path)
    if not recs:
        raise IngestError("file is empty", path=path)
    head = recs.pop(0)
    header = head.split(",") if head else []
    if [h.strip() for h in header] != TRADE_CSV_HEADER:
        raise IngestError(f"bad header {header!r}, expected {','.join(TRADE_CSV_HEADER)}", path=path)
    widths = np.fromiter(map(str.count, recs, repeat(",")), np.intp, len(recs)) + 1
    blank = widths == 1
    blank[blank] = [not recs[i].strip() for i in np.flatnonzero(blank)]
    lines = np.flatnonzero(~blank) + 2
    if blank.any():
        recs, widths = list(compress(recs, ~blank)), widths[~blank]
    ts_col, price_col, size_col, bid_col, ask_col = _columns(recs[: _first(widths != 5)])
    stamps = _leading_stamps(ts_col)
    price = _distinct(price_col)
    # each mask covers the rows its column parsed for: the earliest first failure is the failing row
    end = min(
        _first(np.diff(stamps, prepend=stamps[:1]) < 0),
        _first(np.array(_leading_ints(size_col)) < 0),
        _first(np.array([not v.strip() for v in price[0]], dtype=bool)[price[1]]),
    )
    if end < len(recs):
        prev_ts = int(stamps[end - 1]) if end else None
        rec = recs[end]
        message = "quoted fields are not supported" if '"' in rec else _record_error(rec.split(","), prev_ts)
        raise IngestError(message, path=path, line=int(lines[end]))
    return _TradeColumns(path, lines, stamps, [price, _distinct(bid_col), _distinct(ask_col)])


def _check_quotes(grid: TickGrid, price: str, bid: str, ask: str) -> Union[str, List[int]]:
    """Sub-ticks of one in-session row's price, bid and ask, or its first grid or quote failure."""
    q: List[int] = []
    for what, text in (("price", price.strip()), ("bid", bid.strip()), ("ask", ask.strip())):
        try:
            q.append(grid.subticks_from_text(text) if text else NO_QUOTE)
        except OffGridError as exc:
            return f"{what}: {exc}"
        if len(q) == 1 and q[0] % SUBTICKS_PER_TICK != 0:
            return f"price {show_field(text, str)} off the tick grid"
    if NO_QUOTE not in q[1:] and q[2] <= q[1]:
        return "ask must exceed bid"
    if NO_QUOTE not in q[1:] and (q[2] - q[1]) % SUBTICKS_PER_TICK != 0:
        return "spread is not a whole number of ticks"
    return q


def _build_day_tape(
    asset: AssetSpec, grid: TickGrid, day: date_type, cols: _TradeColumns, rows: np.ndarray,
    session: SessionFilter,
) -> TradeTape:
    # the grid and quote checks read only a row's three texts, so each
    # distinct (price, bid, ask) is checked once; `key` numbers them per row
    key = np.zeros(len(rows), dtype=np.int64)
    for values, codes in cols.texts:
        _, firsts, key = np.unique(key * len(values) + codes[rows], return_index=True, return_inverse=True)
    checked = [_check_quotes(grid, *(values[codes[rows[i]]] for values, codes in cols.texts)) for i in firsts]
    failed = np.array([isinstance(c, str) for c in checked])[key]
    if failed.any():
        i = int(np.argmax(failed))
        raise IngestError(checked[key[i]], path=cols.path, line=int(cols.lines[rows[i]]))
    price_q, bid_q, ask_q = np.array(checked, dtype=np.int64)[key].T.copy()
    delta = np.diff(price_q, prepend=price_q[:1])
    jumps = np.abs(delta) > SUBTICKS_PER_TICK
    if jumps.any():
        raise IngestError(
            "price jumped more than one tick; outside the one-tick model",
            path=cols.path, line=int(cols.lines[rows[np.argmax(jumps)]]),
        )
    # identical-millisecond prints are pushed forward to keep times strict
    ramp = np.arange(len(rows), dtype=np.int64)
    ms = np.maximum.accumulate(cols.stamps[rows] - session.open_epoch_ms(day) - ramp) + ramp
    direction = np.sign(delta).astype(np.int8)
    session_length = max(session.length_seconds, ms[-1] / 1000.0)
    return TradeTape(
        asset, ms / 1000.0, price_q, bid_q, ask_q, direction != 0, direction,
        session_length=session_length, opening_price_q=int(price_q[0]), grid=grid,
    )


def ingest_trades(
    paths: Union[str, Path, Sequence[Union[str, Path]]],
    asset: AssetSpec,
    session: Optional[SessionFilter] = None,
    tick_text: Optional[str] = None,
) -> List[DayTape]:
    """Ingest one or more trade files into per-day tapes.

    Every row of every file passes the read checks first. Rows outside the
    session window are then dropped. When several files cover the same day
    (different contract maturities), the file with the most in-session
    trades wins, and only its rows get the grid and quote checks; ties go to
    the lexicographically first path so reruns stay deterministic. Days with
    an empty session are skipped with a warning.
    """
    if isinstance(paths, (str, Path)):
        paths = [paths]
    session = session or FULL_DAY
    grid = TickGrid(tick_text) if tick_text is not None else TickGrid(asset.tick_value)
    if abs(grid.tick_value - asset.tick_value) > 1e-12 * asset.tick_value:
        raise ParameterError(f"tick_text {tick_text!r} disagrees with asset tick {asset.tick_value!r}")

    per_file: List[tuple[_TradeColumns, Dict[date_type, np.ndarray]]] = []
    for p in sorted(Path(p) for p in paths):
        cols = _read_columns(p)
        per_file.append((cols, session.rows_by_day(cols.stamps)))
        if not per_file[-1][1]:
            logger.warning("%s: no trades inside session %s", p, session.label())

    out: List[DayTape] = []
    for day in sorted({d for _, by_day in per_file for d in by_day}):
        candidates = [(cols, by_day[day]) for cols, by_day in per_file if day in by_day]
        # max keeps the first candidate on ties; per_file holds sorted paths
        best, rows = max(candidates, key=lambda c: len(c[1]))
        if len(candidates) > 1:
            logger.info(
                "%s %s: kept %s with %d trades, discarded %d other file(s)",
                asset.asset_id, day, best.path, len(rows), len(candidates) - 1,
            )
        out.append(DayTape(date=day, tape=_build_day_tape(asset, grid, day, best, rows, session)))
    return out
