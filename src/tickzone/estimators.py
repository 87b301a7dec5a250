"""Estimators built on tick-by-tick price changes.

The zone half-width ratio is estimated from the mix of continuations and
alternations in the direction of successive one-tick moves. Plugging it back
into the traded prices undoes the microstructure rounding and yields an
efficient-price proxy whose squared increments estimate integrated variance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

import numpy as np

from .domain import SUBTICKS_PER_TICK, TradeTape
from .errors import (
    DegenerateTapeError,
    DomainError,
    InsufficientDataError,
    ParameterError,
    PartialDataError,
)

# Raw estimates above this, or of zero, are kept but flagged; regressions drop them by default.
ETA_FLAG_THRESHOLD = 0.55


@dataclass(frozen=True)
class AlternationCounts:
    """Direction comparisons between successive price changes."""

    n_alternations: int
    n_continuations: int

    def __post_init__(self):
        if self.n_alternations < 0 or self.n_continuations < 0:
            raise ParameterError("counts must be >= 0")


def count_alternations(directions) -> AlternationCounts:
    """Tally continuations and alternations of the price-change direction.

    ``directions`` holds +1 or -1 per price change, such as a tape's
    ``change_directions``. The first change has no predecessor and enters no
    comparison, so the counts always sum to one less than the number of changes.
    """
    d = np.asarray(directions, dtype=np.int64)
    if not np.all(np.abs(d) == 1):  # abs(INT64_MIN) wraps to a negative
        raise ParameterError("directions must be +1 or -1")
    if len(d) < 2:
        raise InsufficientDataError(
            f"need at least 2 price changes to compare directions, got {len(d)}"
        )
    same = d[1:] == d[:-1]
    return AlternationCounts(
        n_alternations=int(np.count_nonzero(~same)),
        n_continuations=int(np.count_nonzero(same)),
    )


def estimate_eta(counts: AlternationCounts) -> float:
    """Zone half-width ratio: continuations over twice the alternations."""
    if counts.n_alternations == 0:
        raise DegenerateTapeError("no alternations; eta estimator is undefined")
    return counts.n_continuations / (2.0 * counts.n_alternations)


def recover_efficient_prices(changes, eta_hat: float, tick_value: float):
    """Efficient-price proxy at change times.

    Each traded price is pulled back toward the barrier it crossed:
    X = P - sign(move) * (1/2 - eta_hat) * tick. With the true ratio this
    lands exactly on the crossing barrier. The formula holds for any
    ``eta_hat >= 0``, so days estimating no continuations or a ratio above
    one still get a variance estimate.

    ``changes`` is a tape or a ``(times, prices, directions)`` tuple of
    arrays over the price changes. Returns (times, values) arrays.
    """
    if not eta_hat >= 0.0:
        raise ParameterError(f"eta_hat must be >= 0, got {eta_hat!r}")
    if tick_value <= 0:
        raise ParameterError("tick_value must be > 0")
    if isinstance(changes, TradeTape):
        t, p, d = changes.change_times, changes.change_prices, changes.change_directions
    else:
        t, p, d = (np.asarray(a) for a in changes)
    xhat = p - d * (0.5 - eta_hat) * tick_value
    return t, xhat


def estimate_integrated_variance(xhat) -> float:
    """Sum of squared increments of the recovered efficient price."""
    x = np.asarray(xhat, dtype=float)
    if len(x) < 2:
        raise InsufficientDataError("need at least 2 recovered prices")
    d = np.diff(x)
    return float(d @ d)


# Most points a signature grid may have. Sampling holds two arrays of 8 B per point
# at once, 16 B in all, so a curve peaks at about 1.6 GB; a 24-h session sampled
# every millisecond has 8.64e7 points.
_MAX_GRID_POINTS = 10**8


def check_sampling(samples_per_second: float, lag_max: int, session_length: float) -> None:
    """The checks of :func:`signature_plot`'s grid over ``session_length`` seconds, which do not read the tape."""
    if not 0 < samples_per_second < math.inf:
        raise ParameterError(f"samples_per_second must be finite and > 0, got {samples_per_second!r}")
    if lag_max < 1:
        raise ParameterError("lag_max must be >= 1")
    points = session_length * samples_per_second + 1.0
    if not points <= _MAX_GRID_POINTS:
        raise ParameterError(
            f"samples_per_second {samples_per_second!r} over a {session_length:g}-s session gives a grid of "
            f"{points:.3g} points, more than the limit of {_MAX_GRID_POINTS:.0e}"
        )


def signature_plot(tape: TradeTape, samples_per_second: float = 1.0, lag_max: int = 50) -> Dict[int, float]:
    """Realized variance against the sampling lag, as ``{lag: realized_variance}``.

    The traded price is sampled on the grid j / samples_per_second with
    previous-tick interpolation (the opening price before the first trade).
    For each lag the realized variance sums squared increments of every
    ``lag``-th sample. The lags run from 1 to ``lag_max`` in increasing order.
    """
    check_sampling(samples_per_second, lag_max, tape.session_length)
    if len(tape) == 0:
        raise InsufficientDataError("empty tape")
    span = tape.session_length * samples_per_second
    if span < lag_max:
        raise InsufficientDataError(
            f"tape must span at least lag_max/samples_per_second seconds ({lag_max / samples_per_second:g}s)"
        )
    n_grid = int(math.floor(span + 1e-9)) + 1
    ladder = np.concatenate(([tape.opening_price], tape.change_prices))
    # of the grid times, their indices and the sampled prices, two are alive at a time
    sampled = ladder[np.searchsorted(tape.change_times, np.arange(n_grid) / samples_per_second, side="right")]
    # each lag's increments are freed before the next lag's are taken
    return {lag: estimate_integrated_variance(sampled[::lag]) for lag in range(1, lag_max + 1)}


def roll_implicit_measure(eta: float, tick_value: float) -> float:
    """Closed-form Roll spread of the one-tick dynamics.

    sqrt((2 - 4 eta) / (1 + 2 eta)) * tick; zero at eta = 1/2, undefined above.
    """
    if not (0.0 < eta <= 1.0):
        raise ParameterError(f"eta must lie in (0, 1], got {eta!r}")
    if tick_value <= 0:
        raise ParameterError("tick_value must be > 0")
    if eta > 0.5:
        raise DomainError(f"Roll measure needs eta <= 1/2, got {eta}")
    return math.sqrt((2.0 - 4.0 * eta) / (1.0 + 2.0 * eta)) * tick_value


def empirical_roll_measure(change_prices) -> float:
    """Sample Roll spread sqrt(-2 cov) from traded prices at change times.

    Uses the lag-one autocovariance of the one-tick increments. Returns 0
    when the sample autocovariance comes out non-negative.
    """
    p = np.asarray(change_prices, dtype=float)
    if len(p) < 3:
        raise InsufficientDataError("need at least 3 change prices")
    d = np.diff(p)
    cov = float(np.cov(d[1:], d[:-1])[0, 1])
    return math.sqrt(-2.0 * cov) if cov < 0 else 0.0


def spread_stats(tape: TradeTape) -> tuple[float, float]:
    """(average quoted spread in currency, percentage of trades quoted at one tick)."""
    if len(tape) == 0:
        raise InsufficientDataError("empty tape")
    have = tape.quote_mask()
    if not np.all(have):
        rows = np.flatnonzero(~have)
        shown = ", ".join(str(r) for r in rows[:20])
        more = "" if len(rows) <= 20 else f" (+{len(rows) - 20} more)"
        raise PartialDataError(f"missing quotes on rows {shown}{more}", rows=rows)
    spread_q = tape.ask_q - tape.bid_q
    avg = float(np.mean(spread_q)) * tape.grid.quantum
    one_tick = float(np.count_nonzero(spread_q == SUBTICKS_PER_TICK)) / len(tape) * 100.0
    return avg, one_tick


@dataclass(frozen=True)
class DailyRecord:
    """Per asset-day inputs to the spread-volatility regression."""

    date: str
    asset_id: str
    eta_hat: float
    alpha: float
    sigma_hat: float
    m_trades: int
    avg_spread: float
    frac_one_tick: float

    def __post_init__(self):
        for name in ("eta_hat", "alpha", "sigma_hat", "avg_spread", "frac_one_tick"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.eta_hat < 0:
            raise ParameterError("eta_hat must be >= 0")
        if self.alpha <= 0:
            raise ParameterError("alpha must be > 0")
        if self.sigma_hat < 0:
            raise ParameterError("sigma_hat must be >= 0")
        if self.m_trades < 1:
            raise ParameterError("m_trades must be >= 1")
        if self.avg_spread < self.alpha - 1e-12:
            raise ParameterError("avg_spread cannot be below one tick")
        if not (0.0 <= self.frac_one_tick <= 100.0):
            raise ParameterError("frac_one_tick is a percentage")

    @property
    def eta_flagged(self) -> bool:
        """True when the raw estimate is zero (no continuations) or suspiciously
        high for a large-tick asset."""
        return not 0.0 < self.eta_hat <= ETA_FLAG_THRESHOLD


def build_daily_record(tape: TradeTape, date: str = "") -> DailyRecord:
    """Compose the per-day estimates from one tape.

    Raises InsufficientDataError for days with fewer than two price changes.
    Errors are raised unchanged: a caller that reports them names the asset and day.
    """
    counts = count_alternations(tape.change_directions)
    eta_hat = estimate_eta(counts)
    _, xhat = recover_efficient_prices(tape, eta_hat, tape.asset.tick_value)
    variance = estimate_integrated_variance(xhat)
    avg_spread, frac_one_tick = spread_stats(tape)
    return DailyRecord(
        date=date,
        asset_id=tape.asset.asset_id,
        eta_hat=eta_hat,
        alpha=tape.asset.tick_value,
        sigma_hat=math.sqrt(variance),
        m_trades=len(tape),
        avg_spread=avg_spread,
        frac_one_tick=frac_one_tick,
    )
