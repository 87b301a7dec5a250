"""Trade CSV reading and writing.

Files carry one trade per row with the header
``timestamp_ms,price,size,bid,ask``: a UTC epoch timestamp in whole
milliseconds, decimal prices, and the pre-trade quotes (which may be blank).
They are UTF-8 text with unquoted fields and ``\\n``, ``\\r\\n`` or ``\\r`` line ends.
Prices are parsed exactly against the asset's tick grid, so grid checks and
spread statistics never depend on binary float rounding.

Both directions work a column at a time. Ingest reads each file as one byte
array, finds a failing row with array masks and words its error with the one
scalar check of its phase. The writer lays rows out as records of byte fields
from tables of stamp digits and distinct quote rows, and writes them at once.
"""
from __future__ import annotations

import bisect
import contextlib
import functools
import os
import re
from dataclasses import dataclass
from datetime import date as date_type
from datetime import datetime, time, timedelta
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Union
from zoneinfo import ZoneInfo, ZoneInfoNotFoundError

import numpy as np

from .domain import NO_QUOTE, SUBTICKS_PER_TICK, AssetSpec, TickGrid, TradeTape
from .errors import IngestError, OffGridError, ParameterError, TapeError, show_field, writing

TRADE_CSV_HEADER = ["timestamp_ms", "price", "size", "bid", "ask"]
_DIGITS = np.array([f"{i:03d}".encode() for i in range(1000)])  # the three digits of 0-999

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

    On each local date the session is one interval of UTC time, from
    :meth:`open_epoch_ms` for :meth:`elapsed_seconds`; the writer anchors a
    day there and ingest keeps the rows inside it. The interval includes both
    ends so a final trade stamped exactly at the close survives the
    millisecond rounding of timestamps.
    """

    open_seconds: int
    close_seconds: int
    tz: str = "UTC"

    def __post_init__(self):
        if not (0 <= self.open_seconds < self.close_seconds <= 86400):
            raise ParameterError("session must satisfy 0 <= open < close <= 24:00")
        try:
            ZoneInfo(self.tz)
        except (ZoneInfoNotFoundError, ValueError):
            raise ParameterError(f"unknown time zone {self.tz!r}") from None

    @classmethod
    def from_text(cls, text: str, tz: str = "UTC") -> "SessionFilter":
        parts = text.strip().split("-")
        if len(parts) != 2:
            raise ParameterError(f"malformed session {text!r}, expected HH:MM-HH:MM")
        return cls(_parse_session_clock(parts[0]), _parse_session_clock(parts[1]), tz=tz)

    def label(self) -> str:
        def clock(s):
            return f"{s // 3600:02d}:{s % 3600 // 60:02d}"

        return f"{clock(self.open_seconds)}-{clock(self.close_seconds)}"

    def open_epoch_ms(self, day: date_type) -> int:
        """UTC epoch milliseconds of the first instant at which the local clock reads this session's open on
        ``day``; where a clock change skips the open, that is the instant of the jump."""
        return self._reading_ms(day, self.open_seconds)

    def elapsed_seconds(self, day: date_type) -> float:
        """Seconds from the open instant of ``day`` to the first instant at which the local clock reads the close,
        or to the millisecond before the jump where a clock change skips the close."""
        return (self._reading_ms(day, self.close_seconds, closing=True) - self.open_epoch_ms(day)) / 1000.0

    def _reading_ms(self, day: date_type, seconds: int, closing: bool = False) -> int:
        zone = ZoneInfo(self.tz)
        wall = datetime.combine(day, time(0), tzinfo=zone) + timedelta(seconds=seconds)
        at, early = (round(wall.replace(fold=f).timestamp()) for f in (0, 1))
        if early < at:  # a gap: the old offset reads the time late, the new one early, and the jump lies between
            naive = wall.replace(tzinfo=None)
            at = early + bisect.bisect_left(
                range(early, at), True, key=lambda s: datetime.fromtimestamp(s, zone).replace(tzinfo=None) >= naive)
            return at * 1000 - (1 if closing else 0)
        return at * 1000

    def rows_by_day(self, stamps: np.ndarray) -> Dict[date_type, slice]:
        """The rows of each local date's session, for non-decreasing UTC stamps.

        A date's session is the epoch interval from :meth:`open_epoch_ms` to
        the end that :meth:`elapsed_seconds` gives, both ends included, found
        by two searches. A session holds its stamps within a day of theirs, so
        the dates tried are each stamp's UTC date and the dates either side. A
        stamp that closes one date and opens the next goes to the next. Dates
        with no rows are left out.
        """
        utc_days = stamps // _DAY_MS
        utc_days = utc_days[np.flatnonzero(np.diff(utc_days, prepend=utc_days[:1] - 1))].tolist()
        tried = sorted({d + k for d in utc_days for k in (-1, 0, 1)})
        dates = [date_type.fromordinal(_EPOCH_ORDINAL + d) for d in tried]
        starts = np.searchsorted(stamps, [self.open_epoch_ms(d) for d in dates], "left")
        closes = [self._reading_ms(d, self.close_seconds, closing=True) for d in dates]
        stops = np.searchsorted(stamps, closes, "right")
        stops = np.minimum(stops, np.append(starts[1:], len(stamps)))
        return {d: slice(a, b) for d, a, b in zip(dates, starts.tolist(), stops.tolist()) if a < b}


FULL_DAY = SessionFilter(0, 86400, tz="UTC")


def write_tape_csv(tape: TradeTape, path: Union[str, Path], day: date_type, session: SessionFilter) -> None:
    """Write a tape in the trade CSV format, anchored at the session open.

    A stamp that ingest would refuse as out of range is a ParameterError, and nothing is written.
    Each row is a record of byte fields, filled a column at a time from tables: a stamp's sign and
    billions (its whole text if under 10**9 in magnitude), its lower nine digits in three groups of
    three, and the rest of the row from the tape's distinct (price, bid, ask) rows, each quote formatted
    once. The file is the header and the records' bytes less their null padding, in one write.
    """
    stamps = session.open_epoch_ms(day) + np.rint(tape.times * 1000.0).astype(np.int64)
    outside = (stamps < _STAMP_RANGE.start) | (stamps >= _STAMP_RANGE.stop)
    if outside.any():
        raise ParameterError(f"{path}: timestamp {stamps[outside][0]} out of range")
    quotes = np.stack((tape.price_q, tape.bid_q, tape.ask_q))
    order = np.lexsort(quotes)
    quotes = quotes.take(order, axis=1)
    new = np.ones(len(order), dtype=bool)  # where each distinct (price, bid, ask) starts among the sorted ones
    np.any(quotes[:, 1:] != quotes[:, :-1], axis=0, out=new[1:])
    tail_codes = np.empty_like(order)
    tail_codes[order] = np.cumsum(new) - 1
    quotes = quotes[:, new]
    text = {q: tape.grid.text(q) for q in np.unique(quotes).tolist()} | {NO_QUOTE: ""}
    tails = np.array([f",{text[p]},1,{text[b]},{text[a]}\r\n".encode() for p, b, a in quotes.T.tolist()], "S")
    billions, lows = np.divmod(np.abs(stamps), 10**9)
    billions *= np.sign(stamps)
    heads, head_codes = np.unique(billions, return_inverse=True)
    small = np.flatnonzero(billions == 0)
    head_codes[small] = len(heads) + np.arange(len(small))
    heads = np.array([str(s).encode() for s in heads.tolist() + stamps[small].tolist()], "S")
    rows = np.empty(len(stamps), [("head", heads.dtype), ("d6", "S3"), ("d3", "S3"), ("d0", "S3"), ("tail", tails.dtype)])
    rows["head"] = heads.take(head_codes)
    for k in (6, 3, 0):
        rows[f"d{k}"] = _DIGITS.take(lows // 10**k % 1000)
        rows[f"d{k}"][small] = b""
    rows["tail"] = tails.take(tail_codes)
    body = rows.view(np.uint8)
    with writing(path), open(path, "wb") as f:
        f.write(",".join(TRADE_CSV_HEADER).encode() + b"\r\n")
        f.write(body[body != 0])


class DayTape(NamedTuple):
    date: date_type
    tape: TradeTape


class _TradeColumns(NamedTuple):
    """One file's data rows; a text column is (distinct values, each row's code)."""

    path: Path
    lines: np.ndarray
    stamps: np.ndarray
    texts: List[tuple]  # price, bid, ask


def _first(mask: np.ndarray) -> int:
    return int(np.argmax(mask)) if mask.any() else len(mask)


_COMMA, _LF, _CR = b",\n\r"
_SLACK = b"\n" + bytes(8)  # a closing line end, so the last line ends like the others, and room for 8-byte reads past it
_INT_TEXT = re.compile(r"-?[0-9]+")  # a stamp or size, once ASCII spaces and tabs around it are stripped
_INT_LIMIT = 10**18  # larger magnitudes read as this, which no stamp reaches
# by k = 0-8: the first k bytes of an 8-byte word, comma padding for the rest, and the last k bytes
_WORD_KEEP = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)
_WORD_PAD = np.uint64(int.from_bytes(b"," * 8, "little")) & ~_WORD_KEEP
_WORD_TOP = ~_WORD_KEEP[::-1]
_ZEROS, _SIXES, _HIGH_NIBBLES = (np.uint64(int.from_bytes(c * 8, "little")) for c in (b"0", b"\x06", b"\xf0"))


def _ints(data: bytes, words: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each comma-ended field ``data[start:stop]`` as an integer, and whether it reads as one.

    ``words[i]`` is the 8 bytes from ``data[i]`` on. A field of 1-16 digits is
    read from the two words that end at its comma (one word while no field is
    longer than 8 bytes), with the bytes before it taken as zeros, 8 digits at
    a time; any other field is read by :func:`_int_or_shown`. Values beyond
    ``±10**18`` read as ``±10**18``.
    """
    sizes = stops - starts
    back = (8,) if sizes.max(initial=0) <= 8 else (16, 8)  # where each word starts, counted back from the comma
    # each pass works on x in place, with t as its one scratch array
    x = words[np.stack([stops - k for k in back], dtype=np.intp)]
    t = _WORD_TOP.take(np.stack([np.clip(sizes + (8 - k), 0, 8) for k in back]))
    # the bytes of the words that lie before the field, in the line or the header before it, read as zeros
    x &= t
    np.invert(t, out=t)
    t &= _ZEROS
    x |= t
    # a byte is a digit if its high nibble is 3 and adding 6 keeps it so
    digits = np.bitwise_and(x, _HIGH_NIBBLES, out=t) == _ZEROS
    np.add(x, _SIXES, out=t)
    t &= _HIGH_NIBBLES
    digits &= t == _ZEROS
    plain = (sizes > 0) & (sizes <= 16) & digits.all(axis=0)
    # digit pairs, then quads, then all 8: in a little-endian word the first digit is the low byte
    x &= 0x0F0F0F0F0F0F0F0F
    for shift, scale, keep in ((8, 10, 0x00FF00FF00FF00FF), (16, 100, 0x0000FFFF0000FFFF), (32, 10000, 0xFFFFFFFF)):
        np.right_shift(x, shift, out=t)
        x *= scale
        x += t
        x &= keep
    values = x[-1].astype(np.int64)
    if len(back) == 2:
        values += x[0].astype(np.int64) * 10**8
    for i in np.flatnonzero(~plain).tolist():
        v = _int_or_shown(data[starts[i] : stops[i]].decode())
        plain[i] = isinstance(v, int)
        if plain[i]:
            values[i] = max(-_INT_LIMIT, min(v, _INT_LIMIT))
    return values, plain


def _texts(data: bytes, words: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> tuple:
    """The distinct texts of the fields ``data[start:stop]``, and each field's code.

    ``words[i]`` is the 8 bytes from ``data[i]`` on. A field is keyed by its
    8-byte words, the last one padded with commas, which no field holds. Fields
    with the same number of words are told apart by one sort of their keys;
    fields with different numbers differ in length. The texts come in that
    order, by number of words and then by key. Only the distinct texts are
    decoded.
    """
    sizes = stops - starts
    if sizes.max(initial=0) > 8:
        n_words = np.maximum((sizes + 7) // 8, 1)
        widths = np.flatnonzero(np.bincount(n_words)).tolist()
    else:  # every field is one word
        widths = [1] if len(sizes) else []
    codes = np.empty(len(starts), dtype=starts.dtype)
    used: List[int] = []  # a field of each distinct text
    for w in widths:
        rows = np.arange(len(starts)) if len(widths) == 1 else np.flatnonzero(n_words == w)
        held = (sizes[rows] - 8 * (w - 1)).astype(np.intp)
        keys = words[starts[rows].astype(np.intp)[:, None] + np.arange(0, 8 * w, 8)]
        last = keys[:, -1]
        last &= _WORD_KEEP[held]
        last |= _WORD_PAD[held]
        del held, last  # the view would keep the unsorted keys alive
        keys = keys.view(f"V{8 * w}")[:, 0] if w > 1 else keys[:, 0]
        perm = np.argsort(keys)
        keys = keys[perm]
        new = np.concatenate(([True], keys[1:] != keys[:-1]))
        codes[rows[perm]] = np.cumsum(new) + (len(used) - 1)
        used += rows[perm[new]].tolist()
    texts = [data[a:b].decode() for a, b in zip(starts[used].tolist(), stops[used].tolist())]
    return texts, codes


def _int_or_shown(field: str) -> Union[int, str]:
    """A stamp or size field's integer, or the text its error shows.

    The text is the field stripped of whitespace, as ``int()`` reads it, or of
    only spaces and tabs where other whitespace is all that keeps it from
    reading as an integer.
    """
    text = field.strip(" \t")
    if _INT_TEXT.fullmatch(text):
        with contextlib.suppress(ValueError):  # int() reads at most sys.get_int_max_str_digits() digits
            return int(text)
        return text
    return text if _INT_TEXT.fullmatch(field.strip()) else field.strip()


def _record_error(rec: List[str], prev_ts: Optional[int]) -> Optional[str]:
    """The first read-check failure of one record, in check order."""
    if len(rec) != 5:
        return f"expected 5 fields, got {len(rec)}"
    ts, size = _int_or_shown(rec[0]), _int_or_shown(rec[2])
    if isinstance(ts, str):
        return f"bad timestamp {show_field(ts)}"
    if ts not in _STAMP_RANGE:
        return f"timestamp {show_field(rec[0].strip(), str)} out of range"
    if prev_ts is not None and ts < prev_ts:
        return "timestamps must be non-decreasing"
    if isinstance(size, str):
        return f"bad size {show_field(size)}"
    if size < 0:
        return f"negative size {size}"
    return None if rec[1].strip() else "missing price"


def _read_utf8(path: Path, slack: bytes = b"") -> bytearray:
    """The bytes of a UTF-8 file, read into one buffer that ends in ``slack``.

    An unreadable file or a byte that is not UTF-8 is an IngestError.
    """
    try:
        with path.open("rb") as f:
            data = bytearray(os.fstat(f.fileno()).st_size + len(slack))
            n = f.readinto(data)
            data[n:] = (f.read() if n == len(data) else b"") + slack  # a file longer than its stated size
    except OSError as exc:
        raise IngestError(f"cannot read file: {exc.strerror or exc}", path=path) from None
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            before = data[: exc.start]
            line = before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n") + 1
            raise IngestError("file is not UTF-8 text", path=path, line=line) from None
    return data


def read_text(path: Path) -> str:
    """The text of a UTF-8 file; an unreadable file or a byte that is not UTF-8 is an IngestError."""
    return _read_utf8(path).decode("utf-8")


def _read_columns(path: Path) -> _TradeColumns:
    """Read one trade file and run the read checks on every row.

    The file is one byte array. Its line ends and commas are found once: a
    line's comma count gives its field count, and the commas of the five-field
    rows bound every field. Stamps and sizes are parsed from their digit bytes
    and price texts keyed by their bytes, in array passes over all rows; only
    the distinct price texts and a failing row are decoded. Bounds and codes
    are int32 in a file under 2 GiB, and the separator arrays are dropped once
    the field bounds are known.
    """
    data = _read_utf8(path, _SLACK)
    if len(data) == len(_SLACK):
        raise IngestError("file is empty", path=path)
    buf = np.frombuffer(data, dtype=np.uint8)
    index = np.int32 if len(buf) < 2**31 else np.int64
    # a comma, \n or \r is a byte of at most ','; so is a space, tab or quote, which the next mask drops
    seps = np.flatnonzero(buf[: -len(_SLACK) + 1] <= _COMMA).astype(index)
    kind = buf[seps]
    keep = (kind == _COMMA) | (kind == _LF) | (kind == _CR)
    has_cr = _CR in data
    if has_cr:
        keep &= (kind != _LF) | (buf[seps - 1] != _CR)  # a \r\n pair ends its line at the \r
    if not keep.all():
        seps, kind = seps[keep], kind[keep]
    ends = np.flatnonzero(kind != _COMMA).astype(index)  # the index in seps of each line's end
    stops = seps[ends]
    starts = stops[:-1] + 1
    if has_cr:
        starts += (kind[ends[:-1]] == _CR) & (buf[starts] == _LF)
    starts = np.concatenate(([0], starts), dtype=index)
    commas = np.diff(ends, prepend=-1) - 1

    head = data[: stops[0]].decode()
    header = head.split(",") if head else []
    if [h.strip() for h in header] != TRADE_CSV_HEADER:
        shown = show_field(head, lambda _: repr(header))
        raise IngestError(f"bad header {shown}, expected {','.join(TRADE_CSV_HEADER)}", path=path)
    # a blank line (the closing line end adds one to a file ending in a line end) is skipped with its line end
    blank = commas == 0  # not the header, which has four commas
    blank[blank] = [not data[a:b].decode().strip() for a, b in zip(starts[blank].tolist(), stops[blank].tolist())]
    rows = np.flatnonzero(~blank)[1:].astype(index)  # line indices of the data rows
    seps = np.delete(seps, ends[blank])
    # a row that is not five unquoted fields fails where it stands; each row before it holds five separators
    quote = data.find(b'"')
    failed = min(_first(~blank & (commas != 4)), len(stops) if quote < 0 else int(np.searchsorted(stops, quote)))
    good = int(np.searchsorted(rows, failed))
    c0, c1, c2, c3, last = seps[5 : 5 * (good + 1)].reshape(good, 5).T
    first = starts[rows[:good]]
    del seps, kind, ends, commas, blank
    words = np.ndarray((len(buf) - 7,), dtype="<u8", buffer=buf, strides=(1,))
    stamps, stamp_ok = _ints(data, words, first, c0)
    stamps = stamps[: _first(~stamp_ok | (stamps < _STAMP_RANGE.start) | (stamps >= _STAMP_RANGE.stop))]
    sizes, size_ok = _ints(data, words, c1 + 1, c2)
    bad_size = _first(~size_ok | (sizes < 0))
    del stamp_ok, sizes, size_ok
    price, bid, ask = (_texts(data, words, a + 1, b) for a, b in ((c0, c1), (c2, c3), (c3, last)))
    # each mask covers the rows its column parsed for: the earliest first failure is the failing row
    end = min(
        _first(np.diff(stamps, prepend=stamps[:1]) < 0),
        bad_size,
        _first(np.array([not v.strip() for v in price[0]], dtype=bool)[price[1]]),
    )
    lines = rows + 1
    if end < len(rows):
        prev_ts = int(stamps[end - 1]) if end else None
        rec = data[starts[rows[end]] : stops[rows[end]]].decode()
        message = "quoted fields are not supported" if '"' in rec else _record_error(rec.split(","), prev_ts)
        raise IngestError(message, path=path, line=int(lines[end]))
    return _TradeColumns(path, lines, stamps, [price, bid, ask])


def _subticks(grid: TickGrid, what: str, text: str) -> Union[int, str]:
    """Sub-ticks of one price, bid or ask text (a blank quote is NO_QUOTE), or why it fails to parse."""
    text = text.strip()
    if not text:
        return NO_QUOTE
    try:
        q = grid.subticks_from_text(text)
    except OffGridError as exc:
        return f"{what}: {exc}"
    if what == "price" and q % SUBTICKS_PER_TICK != 0:
        return f"price {show_field(text, str)} off the tick grid"
    return q


def _parse_column(
    subticks: Callable[[str, str], Union[int, str]], what: str, column: tuple, rows: slice
) -> tuple[Optional[np.ndarray], int, Optional[str]]:
    """Sub-ticks of the rows' cells, parsing each distinct text they use once.

    Returns (sub-ticks, the number of rows, None), or (None, first failing row in ``rows``, its message).
    """
    values, codes = column
    row_codes = codes[rows].astype(np.intp)  # numpy indexes faster with intp than with the int32 codes
    used = np.zeros(len(values), dtype=bool)
    used[row_codes] = True
    cells = [subticks(what, v) if u else 0 for v, u in zip(values, used.tolist())]
    i = _first(np.array([isinstance(c, str) for c in cells])[row_codes])
    if i < len(row_codes):
        return None, i, cells[row_codes[i]]
    return np.array(cells, dtype=np.int64)[row_codes], i, None


def _build_day_tape(
    asset: AssetSpec, subticks: Callable[[str, str], Union[int, str]], day: date_type,
    cols: _TradeColumns, rows: slice, session: SessionFilter,
) -> TradeTape:
    # the tape itself checks the quotes and the moves
    parsed = [_parse_column(subticks, what, column, rows) for what, column in zip(("price", "bid", "ask"), cols.texts)]
    _, i, message = min(parsed, key=lambda p: p[1])  # on a tie, price before bid before ask
    if message is not None:
        raise IngestError(message, path=cols.path, line=int(cols.lines[rows.start + i]))
    price_q, bid_q, ask_q = (q for q, _, _ in parsed)
    times = (cols.stamps[rows] - session.open_epoch_ms(day)) / 1000.0
    try:
        return TradeTape(
            asset, times, price_q, bid_q, ask_q,
            session_length=session.elapsed_seconds(day), opening_price_q=int(price_q[0]),
        )
    except TapeError as exc:
        raise IngestError(exc.message, path=cols.path, line=int(cols.lines[rows.start + exc.row])) from None


def ingest_trades(
    paths: Sequence[Union[str, Path]], asset: AssetSpec, session: SessionFilter, skipped: List[str]
) -> List[DayTape]:
    """Ingest an asset's trade files into per-day tapes; what is left out goes to ``skipped``.

    Each file is read once, however many of ``paths`` name it, one at a time
    in path order: the first file in that order that fails raises, and an
    earlier file's skip is already in ``skipped``. Every row of every file
    passes the read checks first. Rows outside the session window are then
    dropped; a file with none inside is a skip. When several files cover the
    same day (different contract maturities), the file with the most
    in-session trades wins; ties go to the lexicographically first path so
    reruns stay deterministic, and each losing file is a skip naming the
    winner. Only the winner's rows are parsed against the grid and built into
    the tape, which checks the quotes and the one-tick rule.
    """
    files: Dict[str, Path] = {}  # each file once, under the first of its paths in path order
    for p in sorted(Path(p) for p in paths):
        files.setdefault(os.path.realpath(p), p)
    per_file: List[tuple[_TradeColumns, Dict[date_type, slice]]] = []
    for p in files.values():
        cols = _read_columns(p)
        per_file.append((cols, session.rows_by_day(cols.stamps)))
        if not per_file[-1][1]:
            skipped.append(f"ingest {p}: no trades inside session {session.label()}")

    subticks = functools.cache(functools.partial(_subticks, asset.grid))  # the asset's days share most of their texts
    out: List[DayTape] = []
    for day in sorted({d for _, by_day in per_file for d in by_day}):
        candidates = [(cols, by_day[day]) for cols, by_day in per_file if day in by_day]
        # max keeps the first candidate on ties; per_file holds sorted paths
        best, rows = max(candidates, key=lambda c: c[1].stop - c[1].start)
        for cols, lost in candidates:
            if cols is not best:
                skipped.append(
                    f"ingest {cols.path} {day}: lost the maturity choice to {best.path} "
                    f"({rows.stop - rows.start} trades inside session against {lost.stop - lost.start})"
                )
        out.append(DayTape(date=day, tape=_build_day_tape(asset, subticks, day, best, rows, session)))
    return out
