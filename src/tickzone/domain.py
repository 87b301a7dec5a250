"""Core value types shared by the simulator, the estimators and the I/O layer.

Traded prices and quotes live on an exchange tick grid. To keep grid
membership tests exact, tapes hold prices as integer multiples of a sub-tick
quantum (one millionth of a tick) and convert to floats only for statistics.
"""
from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal
from typing import Optional, Tuple

import numpy as np

from .errors import OffGridError, ParameterError, TapeError, show_field

_SUBTICK_DIGITS = 6
SUBTICKS_PER_TICK = 10**_SUBTICK_DIGITS
# products and decimal shifts are exact in this context, whatever the length of the tick's text
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)

# Sentinel for a trade without quotes (some vendor files carry blanks).
NO_QUOTE = np.iinfo(np.int64).min
# Largest parsed price magnitude, in sub-ticks; differences of two stay inside int64.
_MAX_SUBTICKS = 2**62 - 1
# The one grammar of a tick or price text: ASCII digits with an optional sign, point and exponent.
# Python's own readers take more ('201/2', '1_00.5', non-ASCII digits, 'nan'), and these are errors.
# Written so that no text matches it in two ways, because a regex that can split a run of digits
# between two groups takes time quadratic in the run's length to refuse it.
_DECIMAL = re.compile(r"([+-]?)(\d+(?:\.\d*)?|\.\d+)(?:[eE]([+-]?\d+))?", re.ASCII)
# A price is read against the tick with integers of up to this many digits plus 20.
_TICK_DIGITS = 1000
# An exponent of more digits than this is read as +-10**19, past every range the grid checks.
_EXPONENT_DIGITS = 18


def _decimal_parts(text: str) -> Optional[Tuple[bool, str, int]]:
    """(negative, digits, exponent) of value ``int(digits) * 10**exponent``, or None if ``text`` is no decimal.

    ``digits`` has no leading or trailing zeros ('' for zero), and is found in time linear in the text.
    """
    m = _DECIMAL.fullmatch(text)
    if m is None:
        return None
    sign, mantissa, exp = m.groups()
    whole, _, frac = mantissa.partition(".")
    digits = (whole + frac).lstrip("0")
    significant = digits.rstrip("0")
    body = (exp or "").lstrip("+-").lstrip("0")
    power = int(body or 0) if len(body) <= _EXPONENT_DIGITS else 10**19
    if exp and exp[0] == "-":
        power = -power
    return sign == "-", significant, power - len(frac) + len(digits) - len(significant)


@dataclass(frozen=True)
class AssetSpec:
    """Static parameters of one instrument.

    ``grid`` is the exact tick grid; it may be given as a :class:`TickGrid`,
    as decimal text or as any real number, which is read as its float's
    ``repr``. ``tick_value`` is the tick as a float. ``eta`` is the zone
    half-width ratio: around every potential traded price sits a band of
    total width ``2 * eta * tick_value`` inside which the efficient price can
    trade on both sides of the book. ``eta`` may be None for ingested data
    where it is estimated rather than assumed.
    """

    asset_id: str
    grid: TickGrid
    eta: Optional[float] = None

    def __post_init__(self):
        if not self.asset_id:
            raise ParameterError("asset_id must be non-empty")
        if self.asset_id == "ALL":
            raise ParameterError("asset id 'ALL' names the pooled fit")
        if not isinstance(self.grid, TickGrid):
            object.__setattr__(self, "grid", TickGrid(self.grid))
        if self.eta is not None and not (0.0 < self.eta <= 1.0):
            raise ParameterError(f"eta must lie in (0, 1], got {self.eta!r}")

    @property
    def tick_value(self) -> float:
        return self.grid.tick_value

    def require_eta(self) -> float:
        if self.eta is None:
            raise ParameterError(f"asset {self.asset_id} has no eta set")
        return self.eta


class TickGrid:
    """Exact arithmetic on one asset's price grid.

    Prices are counted in integer sub-ticks (tick / 1e6). Construction from a
    decimal string keeps the tick value exact, so membership tests on parsed
    CSV prices never suffer binary rounding. The tick and every price are
    read as plain ASCII decimals (see ``_DECIMAL``).
    """

    __slots__ = ("tick_text", "tick_value", "quantum", "exact_quantum", "_digits", "_exponent", "_magnitude")

    def __init__(self, tick_value):
        if isinstance(tick_value, numbers.Real):  # a numpy float reads like the Python float
            text = repr(float(tick_value))
        else:
            text = str(tick_value).strip()
        parts = _decimal_parts(text)
        if parts is None:
            raise ParameterError(f"tick value {show_field(text)} is not a decimal number")
        negative, digits, exponent = parts
        if negative or not digits:
            raise ParameterError(f"tick value must be > 0, got {show_field(text, str)}")
        if len(digits) > _TICK_DIGITS:
            raise ParameterError(f"tick value {show_field(text, str)} has more than {_TICK_DIGITS} significant digits")
        # float() reads the digits and exponent in time linear in their length, whatever the exponent
        self.tick_value = float(f"{digits}e{exponent}")
        self.quantum = self.tick_value / SUBTICKS_PER_TICK
        if not (math.isfinite(self.tick_value) and self.quantum > 0):
            raise ParameterError(
                f"tick value {show_field(text, str)} is out of range: its float or its sub-tick quantum "
                f"(tick / 10^{_SUBTICK_DIGITS}) is 0 or infinite"
            )
        self.tick_text = text
        # the tick is _digits * 10**_exponent, _digits without trailing zeros; _magnitude is its leading digit's power
        self._digits, self._exponent, self._magnitude = int(digits), exponent, exponent + len(digits) - 1
        self.exact_quantum = Decimal(f"{digits}e{exponent - _SUBTICK_DIGITS}")

    def subticks_from_text(self, text: str) -> int:
        """Parse a decimal price string to sub-ticks, exactly, in time linear in its length."""
        parts = _decimal_parts(text.strip())
        if parts is None:
            raise OffGridError(f"malformed price {show_field(text)}")
        negative, digits, exponent = parts
        if not digits:
            return 0
        # q = digits * 10**shift / tick digits, neither ending in 0: a negative shift leaves a 10 in the
        # denominator, and |q| > 10**(price magnitude - tick magnitude + 5) >= 10**19 is out of range
        shift = exponent + _SUBTICK_DIGITS - self._exponent
        finer = shift < 0
        huge = not finer and exponent + len(digits) - 1 - self._magnitude >= 14
        if not (finer or huge):  # so the exact product has at most the tick's digits plus 20
            q, rest = divmod(int(digits) * 10**shift, self._digits)
            finer, huge = rest != 0, q > _MAX_SUBTICKS
        if finer:
            raise OffGridError(
                f"price {show_field(text, str)} is finer than the sub-tick lattice of tick {self.tick_text}"
            )
        if huge:
            raise OffGridError(f"price {show_field(text, str)} is out of range for tick {self.tick_text}")
        return -q if negative else q

    def currency(self, q) -> float:
        """Sub-ticks to float currency. Accepts scalars or arrays."""
        return q * self.quantum

    def text(self, q: int) -> str:
        """Sub-ticks to an exact decimal string."""
        return format(_EXACT.multiply(int(q), self.exact_quantum).normalize(_EXACT), "f")

    def nearest_tick_index(self, x: float) -> int:
        """Index of the grid point nearest to ``x``; exact halves round down."""
        return math.ceil(x / self.tick_value - 0.5)

    def __eq__(self, other):
        return isinstance(other, TickGrid) and (self._digits, self._exponent) == (other._digits, other._exponent)

    def __hash__(self):
        return hash((self._digits, self._exponent))

    def __repr__(self):
        return f"TickGrid({self.tick_text})"


def _first_fault(mask: np.ndarray, message: str) -> None:
    """Raise a TapeError at the first row where ``mask`` is set."""
    if mask.any():
        raise TapeError(message, int(np.argmax(mask)))


class TradeTape:
    """Time-ordered trades of one asset-day, stored as column arrays.

    Prices and quotes are integer sub-ticks on the asset's grid. Times are seconds
    since session open with millisecond resolution, non-decreasing: prints
    sharing a millisecond keep it.
    A trade either repeats the previous traded price or moves it by exactly
    one tick, so ``direction`` (0, +1 or -1 per trade) is derived from the
    prices; the first trade's move is taken against ``opening_price_q``.

    Construction is the one check of a tape. A row that breaks a rule raises
    a :class:`TapeError` naming the row; rows are checked rule by rule:
    non-decreasing times, prices on the tick grid, quotes (the ask above
    the bid by a whole number of ticks, where both are present), and moves of
    at most one tick.
    """

    def __init__(
        self,
        asset: AssetSpec,
        times,
        price_q,
        bid_q,
        ask_q,
        session_length: float,
        opening_price_q: int,
    ):
        self.asset = asset
        self.grid = asset.grid
        self.times = np.asarray(times, dtype=np.float64)
        self.price_q = np.asarray(price_q, dtype=np.int64)
        self.bid_q = np.asarray(bid_q, dtype=np.int64)
        self.ask_q = np.asarray(ask_q, dtype=np.int64)
        self.session_length = float(session_length)
        self.opening_price_q = int(opening_price_q)
        self.direction = np.sign(self._validate()).astype(np.int8)
        self.change_indices = np.flatnonzero(self.direction)

    def _validate(self) -> np.ndarray:
        """Check the tape; returns each trade's price move in sub-ticks."""
        n = len(self.times)
        for name, arr in (("price_q", self.price_q), ("bid_q", self.bid_q), ("ask_q", self.ask_q)):
            if len(arr) != n:
                raise ParameterError(f"column {name} has length {len(arr)}, expected {n}")
        if self.session_length <= 0:
            raise ParameterError("session_length must be > 0")
        moves = np.diff(self.price_q, prepend=self.opening_price_q)
        if n == 0:
            return moves
        if self.times[0] < 0 or self.times[-1] > self.session_length + 1e-9:
            raise ParameterError("trade times must lie within [0, session_length]")
        _first_fault(~(np.diff(self.times, prepend=-np.inf) >= 0), "trade times must be non-decreasing")
        _first_fault(self.price_q % SUBTICKS_PER_TICK != 0, "traded price off the tick grid")
        if self.opening_price_q % SUBTICKS_PER_TICK != 0:
            raise OffGridError("opening price off the tick grid")
        quoted = np.flatnonzero(self.quote_mask())
        spread = self.ask_q[quoted] - self.bid_q[quoted]
        crossed = spread <= 0
        broken = crossed | (spread % SUBTICKS_PER_TICK != 0)
        if broken.any():
            i = int(np.argmax(broken))
            message = "ask must exceed bid" if crossed[i] else "spread is not a whole number of ticks"
            raise TapeError(message, int(quoted[i]))
        jumps = np.abs(moves) > SUBTICKS_PER_TICK
        _first_fault(jumps, "price jumped more than one tick; outside the one-tick model")
        return moves

    # ------------------------------------------------------------------ views

    def __len__(self) -> int:
        return len(self.times)

    @property
    def n_changes(self) -> int:
        return len(self.change_indices)

    @property
    def change_times(self) -> np.ndarray:
        return self.times[self.change_indices]

    @property
    def change_prices(self) -> np.ndarray:
        return self.grid.currency(self.price_q[self.change_indices])

    @property
    def change_directions(self) -> np.ndarray:
        return self.direction[self.change_indices]

    @property
    def opening_price(self) -> float:
        return self.grid.currency(self.opening_price_q)

    def quote_mask(self) -> np.ndarray:
        """True where both pre-trade quotes are present."""
        return (self.bid_q != NO_QUOTE) & (self.ask_q != NO_QUOTE)

    def __repr__(self):
        return (
            f"TradeTape({self.asset.asset_id}, trades={len(self)}, "
            f"changes={self.n_changes}, span={self.session_length:g}s)"
        )
