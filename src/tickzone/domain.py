"""Core value types shared by the simulator, the estimators and the I/O layer.

Traded prices and quotes live on an exchange tick grid. To keep grid
membership tests exact, tapes hold prices as integer multiples of a sub-tick
quantum (one millionth of a tick) and convert to floats only for statistics.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import OffGridError, ParameterError, show_field

SUBTICKS_PER_TICK = 1_000_000

# Sentinel for a trade without quotes (some vendor files carry blanks).
NO_QUOTE = np.iinfo(np.int64).min
# Largest parsed price magnitude, in sub-ticks; differences of two stay inside int64.
_MAX_SUBTICKS = 2**62 - 1


@dataclass(frozen=True)
class AssetSpec:
    """Static parameters of one instrument.

    ``eta`` is the zone half-width ratio: around every potential traded price
    sits a band of total width ``2 * eta * tick_value`` inside which the
    efficient price can trade on both sides of the book. ``eta`` may be None
    for ingested data where it is estimated rather than assumed.
    """

    asset_id: str
    tick_value: float
    eta: Optional[float] = None

    def __post_init__(self):
        if not self.asset_id:
            raise ParameterError("asset_id must be non-empty")
        if not (isinstance(self.tick_value, (int, float)) and self.tick_value > 0):
            raise ParameterError(f"tick_value must be > 0, got {self.tick_value!r}")
        if self.eta is not None and not (0.0 < self.eta <= 1.0):
            raise ParameterError(f"eta must lie in (0, 1], got {self.eta!r}")

    @property
    def implicit_spread(self) -> float:
        """Width of the buy/sell band, ``2 * eta * tick_value``."""
        if self.eta is None:
            raise ParameterError(f"asset {self.asset_id} has no eta set")
        return 2.0 * self.eta * self.tick_value

    def require_eta(self) -> float:
        if self.eta is None:
            raise ParameterError(f"asset {self.asset_id} has no eta set")
        return self.eta


class TickGrid:
    """Exact arithmetic on one asset's price grid.

    Prices are counted in integer sub-ticks (tick / 1e6). Construction from a
    decimal string keeps the tick value exact, so membership tests on parsed
    CSV prices never suffer binary rounding.
    """

    __slots__ = ("tick_text", "tick_fraction", "tick_value", "quantum", "_parse_cache")

    def __init__(self, tick_value):
        if isinstance(tick_value, float):
            text = repr(tick_value)
        else:
            text = str(tick_value).strip()
        try:
            frac = Fraction(text)
            Decimal(text)  # reject non-decimal spellings such as '1/8'
        except (ValueError, ZeroDivisionError, InvalidOperation):
            raise ParameterError(f"tick value {text!r} is not a decimal number") from None
        if frac <= 0:
            raise ParameterError(f"tick value must be > 0, got {text}")
        self.tick_text = text
        self.tick_fraction = frac
        self.tick_value = float(frac)
        self.quantum = self.tick_value / SUBTICKS_PER_TICK
        # ingest checks each distinct (price, bid, ask) row, so a price text recurs
        self._parse_cache = {}

    def subticks_from_text(self, text: str) -> int:
        """Parse a decimal price string to sub-ticks, exactly."""
        cached = self._parse_cache.get(text)
        if cached is not None:
            return cached
        try:
            q = Fraction(text.strip()) * SUBTICKS_PER_TICK / self.tick_fraction
        except (ValueError, ZeroDivisionError):
            raise OffGridError(f"malformed price {show_field(text)}") from None
        if q.denominator != 1:
            raise OffGridError(
                f"price {show_field(text, str)} is finer than the sub-tick lattice of tick {self.tick_text}"
            )
        if abs(q) > _MAX_SUBTICKS:
            raise OffGridError(f"price {show_field(text, str)} is out of range for tick {self.tick_text}")
        self._parse_cache[text] = int(q)
        return self._parse_cache[text]

    def subticks_from_currency(self, x: float) -> int:
        """Convert a float price known to sit on the lattice."""
        q = round(x / self.quantum)
        if abs(x - q * self.quantum) > 1e-9 * self.tick_value:
            raise OffGridError(f"price {x!r} is not on the sub-tick lattice")
        return q

    def currency(self, q) -> float:
        """Sub-ticks to float currency. Accepts scalars or arrays."""
        if isinstance(q, np.ndarray):
            return q * self.quantum
        return float(q) * self.quantum

    def text(self, q: int) -> str:
        """Sub-ticks to an exact decimal string."""
        d = Decimal(int(q)) * Decimal(self.tick_text) / Decimal(SUBTICKS_PER_TICK)
        return format(d.normalize(), "f")

    def on_tick(self, q: int) -> bool:
        return q % SUBTICKS_PER_TICK == 0

    def tick_index(self, q: int) -> int:
        if not self.on_tick(q):
            raise OffGridError(f"{q} sub-ticks is not a whole tick")
        return q // SUBTICKS_PER_TICK

    def nearest_tick_index(self, x: float) -> int:
        """Index of the grid point nearest to ``x``; exact halves round down."""
        return math.ceil(x / self.tick_value - 0.5)

    def __eq__(self, other):
        return isinstance(other, TickGrid) and self.tick_fraction == other.tick_fraction

    def __hash__(self):
        return hash(self.tick_fraction)

    def __repr__(self):
        return f"TickGrid({self.tick_text})"


@dataclass(frozen=True)
class TradeEvent:
    """One trade with its pre-trade quotes, for building small tapes."""

    time: float
    price: float
    pre_bid: Optional[float]
    pre_ask: Optional[float]
    changed_price: bool
    direction: int


class TradeTape:
    """Time-ordered trades of one asset-day, stored as column arrays.

    Prices and quotes are integer sub-ticks on ``grid``. Times are seconds
    since session open with millisecond resolution, strictly increasing.
    A trade either repeats the previous traded price (direction 0) or moves
    it by exactly one tick (direction +1 or -1); the first trade's direction
    is taken against ``opening_price_q``.
    """

    def __init__(
        self,
        asset: AssetSpec,
        times,
        price_q,
        bid_q,
        ask_q,
        changed,
        direction,
        session_length: float,
        opening_price_q: int,
        grid: Optional[TickGrid] = None,
    ):
        self.asset = asset
        self.grid = grid if grid is not None else TickGrid(asset.tick_value)
        self.times = np.asarray(times, dtype=np.float64)
        self.price_q = np.asarray(price_q, dtype=np.int64)
        self.bid_q = np.asarray(bid_q, dtype=np.int64)
        self.ask_q = np.asarray(ask_q, dtype=np.int64)
        self.changed = np.asarray(changed, dtype=bool)
        self.direction = np.asarray(direction, dtype=np.int8)
        self.session_length = float(session_length)
        self.opening_price_q = int(opening_price_q)
        self._change_idx: Optional[np.ndarray] = None
        self._validate()

    # ------------------------------------------------------------------ build

    @classmethod
    def from_events(
        cls,
        asset: AssetSpec,
        events: Sequence[TradeEvent],
        session_length: float,
        opening_price: float,
        grid: Optional[TickGrid] = None,
    ) -> "TradeTape":
        """Build a tape from scalar events (mainly for tests and small data)."""
        g = grid if grid is not None else TickGrid(asset.tick_value)
        times = [e.time for e in events]
        price_q = [g.subticks_from_currency(e.price) for e in events]
        bid_q = [NO_QUOTE if e.pre_bid is None else g.subticks_from_currency(e.pre_bid) for e in events]
        ask_q = [NO_QUOTE if e.pre_ask is None else g.subticks_from_currency(e.pre_ask) for e in events]
        return cls(
            asset,
            times,
            price_q,
            bid_q,
            ask_q,
            [e.changed_price for e in events],
            [e.direction for e in events],
            session_length,
            g.subticks_from_currency(opening_price),
            grid=g,
        )

    def _validate(self):
        n = len(self.times)
        for name, arr in (
            ("price_q", self.price_q),
            ("bid_q", self.bid_q),
            ("ask_q", self.ask_q),
            ("changed", self.changed),
            ("direction", self.direction),
        ):
            if len(arr) != n:
                raise ParameterError(f"column {name} has length {len(arr)}, expected {n}")
        if self.session_length <= 0:
            raise ParameterError("session_length must be > 0")
        if n == 0:
            return
        if self.times[0] < 0 or self.times[-1] > self.session_length + 1e-9:
            raise ParameterError("trade times must lie within [0, session_length]")
        if n > 1 and not np.all(np.diff(self.times) > 0):
            i = int(np.argmin(np.diff(self.times) > 0))
            raise ParameterError(f"trade times must be strictly increasing (row {i + 1})")
        if np.any(self.price_q % SUBTICKS_PER_TICK != 0):
            i = int(np.argmax(self.price_q % SUBTICKS_PER_TICK != 0))
            raise OffGridError(f"traded price off the tick grid at row {i}")
        if self.opening_price_q % SUBTICKS_PER_TICK != 0:
            raise OffGridError("opening price off the tick grid")
        bad_dir = ~np.isin(self.direction, (-1, 0, 1))
        if np.any(bad_dir):
            raise ParameterError(f"direction outside {{-1,0,1}} at row {int(np.argmax(bad_dir))}")
        if np.any(self.changed != (self.direction != 0)):
            i = int(np.argmax(self.changed != (self.direction != 0)))
            raise ParameterError(f"changed_price and direction disagree at row {i}")
        prev = np.concatenate(([self.opening_price_q], self.price_q[:-1]))
        delta = self.price_q - prev
        expect = self.direction.astype(np.int64) * SUBTICKS_PER_TICK
        if np.any(delta != expect):
            i = int(np.argmax(delta != expect))
            raise ParameterError(
                f"price move at row {i} is not one tick in the flagged direction"
            )
        have = (self.bid_q != NO_QUOTE) & (self.ask_q != NO_QUOTE)
        if np.any(have):
            spread = self.ask_q[have] - self.bid_q[have]
            if np.any(spread <= 0):
                raise ParameterError("pre_ask must exceed pre_bid")
            if np.any(spread % SUBTICKS_PER_TICK != 0):
                raise ParameterError("quoted spread must be a whole number of ticks")

    # ------------------------------------------------------------------ views

    def __len__(self) -> int:
        return len(self.times)

    @property
    def n_trades(self) -> int:
        return len(self.times)

    @property
    def n_changes(self) -> int:
        return len(self.change_indices)

    @property
    def change_indices(self) -> np.ndarray:
        if self._change_idx is None:
            self._change_idx = np.flatnonzero(self.changed)
        return self._change_idx

    @property
    def change_times(self) -> np.ndarray:
        return self.times[self.change_indices]

    @property
    def change_subticks(self) -> np.ndarray:
        return self.price_q[self.change_indices]

    @property
    def change_prices(self) -> np.ndarray:
        return self.grid.currency(self.change_subticks)

    @property
    def change_directions(self) -> np.ndarray:
        return self.direction[self.change_indices]

    @property
    def opening_price(self) -> float:
        return self.grid.currency(self.opening_price_q)

    def prices(self) -> np.ndarray:
        return self.grid.currency(self.price_q)

    def quote_mask(self) -> np.ndarray:
        """True where both pre-trade quotes are present."""
        return (self.bid_q != NO_QUOTE) & (self.ask_q != NO_QUOTE)

    def __repr__(self):
        return (
            f"TradeTape({self.asset.asset_id}, trades={self.n_trades}, "
            f"changes={self.n_changes}, span={self.session_length:g}s)"
        )
