"""Vendor-style trade files for the ``ingest_replay`` workload.

The files are made here, from numpy and the standard library only, so that
every version of ``tickzone`` reads identical bytes for a given seed. Each
file covers 07:00-18:00 Europe/Berlin wall-clock time; the session the
pipeline is told about is 08:00-17:15, so the rows outside it must be
dropped. Some days carry a second, thinner contract maturity that the
ingest must discard, and the days straddle the switch to summer time on
2009-03-29.

The two contracts take their trade rate, zone ratio and share of one-tick
spreads from the DAX and Bund rows of ``src/tickzone/data/reference_futures.csv``
(version 2009.1); the figures are copied here so that the files do not
change when that table does. Trades arrive uniformly over the file's hours
at the session's rate, with millisecond stamps, so some prints share a
millisecond.

Price changes follow the uncertainty-zone model on the trade level: each
change continues the previous direction with probability
``2 eta / (1 + 2 eta)``. At the model's equilibrium the volatility per trade
equals the implicit spread ``eta * tick``; with ``M`` trades and ``N``
changes over a day this gives ``N / M = eta / 2`` (see
``tickzone.simulator.equilibrium_fill_rate``), which is the share of trades
that move the price here. A trade that moves the price up prints at the ask
and one that moves it down at the bid; the others take either side. Quotes
are one tick wide in the reference share of trades and two ticks wide in
the rest, and prices are exact decimal text on the tick grid.
"""
from __future__ import annotations

from dataclasses import dataclass
from datetime import date, datetime, time, timedelta
from pathlib import Path
from typing import Dict, List, Tuple
from zoneinfo import ZoneInfo

import numpy as np

TZ = "Europe/Berlin"
SESSION = ("08:00", "17:15")
FILE_HOURS = (7, 18)
FIRST_DAY = date(2009, 3, 27)
N_DAYS = 4
DAY_SCALE = 1.0  # share of a reference day's trades in each front-month file
# The back month is a benchmark choice, not data: it only has to trade less than
# the front month, so that it loses the maturity choice.
BACK_SHARE = 0.1


@dataclass(frozen=True)
class VendorAsset:
    asset_id: str
    tick_text: str
    start_price_ticks: int  # near the March 2009 price level
    reference_id: str  # its row in the reference table
    trades_per_day: int  # over the reference session
    session_hours: float  # length of the reference session
    eta: float
    frac_one_tick: float  # percentage of trades quoted with a one-tick spread

    @property
    def rows_per_file(self) -> int:
        hours = FILE_HOURS[1] - FILE_HOURS[0]
        return round(self.trades_per_day / self.session_hours * hours * DAY_SCALE)


ASSETS = (
    VendorAsset("FDAX", "0.5", 8_000, "DAX", 39_573, 9.5, 0.275, 72.7),
    VendorAsset("FGBL", "0.01", 12_300, "Bund", 25_182, 9.25, 0.138, 98.1),
)


@dataclass(frozen=True)
class ExpectedDay:
    """What a correct ingest must produce for one asset-day."""

    m_trades: int
    eta_hat: float
    frac_one_tick: float


@dataclass(frozen=True)
class VendorFiles:
    """The expected asset-days, keyed by (asset id, ISO date), and the data rows of each file."""

    days: Dict[Tuple[str, str], ExpectedDay]
    rows: Dict[Path, int]


def _epoch_ms(day: date, clock: time) -> int:
    return int(datetime.combine(day, clock, tzinfo=ZoneInfo(TZ)).timestamp()) * 1000


def _clock(text: str) -> time:
    hh, mm = text.split(":")
    return time(int(hh), int(mm))


def _price_texts(tick_text: str, ticks: np.ndarray) -> np.ndarray:
    """Exact decimal text of ``ticks * tick`` for an array of tick counts."""
    whole, _, frac = tick_text.partition(".")
    scale = 10 ** len(frac)
    step = int(whole or "0") * scale + int(frac or "0")
    uniq, inverse = np.unique(ticks, return_inverse=True)
    texts = []
    for k in uniq.tolist():
        units = k * step
        texts.append(f"{units // scale}.{units % scale:0{len(frac)}d}" if frac else str(units))
    return np.array(texts, dtype=object)[inverse]


def _day_file(
    rng: np.random.Generator, asset: VendorAsset, day: date, n_rows: int
) -> Tuple[str, ExpectedDay]:
    """One file's text and what its in-session rows must yield."""
    t0 = _epoch_ms(day, time(FILE_HOURS[0]))
    t1 = _epoch_ms(day, time(FILE_HOURS[1]))
    stamps = np.sort(rng.integers(t0, t1, size=n_rows))

    moves = rng.random(n_rows) < asset.eta / 2.0
    moves[0] = False
    n_moves = int(moves.sum())
    p_continue = 2.0 * asset.eta / (1.0 + 2.0 * asset.eta)
    flips = np.where(rng.random(n_moves) < p_continue, 1, -1)
    if n_moves:
        flips[0] = 1 if rng.random() < 0.5 else -1
    step = np.zeros(n_rows, dtype=np.int64)
    step[moves] = np.cumprod(flips)
    ticks = asset.start_price_ticks + np.cumsum(step)
    at_ask = np.where(moves, step > 0, rng.random(n_rows) < 0.5)
    spread = np.where(rng.random(n_rows) < asset.frac_one_tick / 100.0, 1, 2)
    bids = np.where(at_ask, ticks - spread, ticks)

    price = _price_texts(asset.tick_text, ticks)
    bid = _price_texts(asset.tick_text, bids)
    ask = _price_texts(asset.tick_text, bids + spread)
    size = rng.integers(1, 51, size=n_rows)
    lines = ["timestamp_ms,price,size,bid,ask"]
    lines += [
        f"{s},{p},{q},{b},{a}"
        for s, p, q, b, a in zip(stamps.tolist(), price, size.tolist(), bid, ask)
    ]

    open_ms = _epoch_ms(day, _clock(SESSION[0]))
    close_ms = _epoch_ms(day, _clock(SESSION[1]))
    keep = (stamps >= open_ms) & (stamps <= close_ms)
    m_trades = int(keep.sum())
    kept = np.diff(ticks[keep])
    dirs = np.sign(kept[kept != 0])
    continuations = int(np.count_nonzero(dirs[1:] == dirs[:-1]))
    alternations = len(dirs) - 1 - continuations
    eta_hat = continuations / (2.0 * alternations) if alternations else float("nan")
    one_tick = float(np.count_nonzero(spread[keep] == 1)) / m_trades * 100.0 if m_trades else float("nan")
    return "\n".join(lines) + "\n", ExpectedDay(m_trades, eta_hat, one_tick)


def write_vendor_files(root: Path, seed: int) -> VendorFiles:
    """Write the trade files under ``root/<ASSET>/`` and say what they hold.

    For each (asset id, ISO date) the result gives the in-session row count,
    zone-ratio estimate and one-tick share of the file the ingest must keep
    for that day, and for each file its number of data rows.
    """
    days: Dict[Tuple[str, str], ExpectedDay] = {}
    rows: Dict[Path, int] = {}
    for ai, asset in enumerate(ASSETS):
        folder = root / asset.asset_id
        folder.mkdir(parents=True, exist_ok=True)
        for di in range(N_DAYS):
            day = FIRST_DAY + timedelta(days=di)
            rng = np.random.default_rng([seed, ai, di])
            stamp = day.strftime("%Y%m%d")
            files: List[Tuple[str, int]] = [(f"{asset.asset_id}_{stamp}_M9.csv", asset.rows_per_file)]
            if di % 2 == 1:
                files.append((f"{asset.asset_id}_{stamp}_U9.csv", round(asset.rows_per_file * BACK_SHARE)))
            best = None
            for name, n_rows in files:
                text, exp = _day_file(rng, asset, day, n_rows)
                (folder / name).write_text(text)
                rows[folder / name] = n_rows
                if best is None or exp.m_trades > best.m_trades:
                    best = exp
            days[(asset.asset_id, day.isoformat())] = best
    return VendorFiles(days, rows)


def config_lines() -> List[str]:
    """The pipeline config keys that describe these files."""
    lines = [f"session = {SESSION[0]}-{SESSION[1]}", f"timezone = {TZ}"]
    lines += [f"tick_value.{a.asset_id} = {a.tick_text}" for a in ASSETS]
    return lines
