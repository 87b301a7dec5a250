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


def recover_efficient_prices(prices, directions, eta_hat: float, tick_value: float) -> np.ndarray:
    """Efficient-price proxy at the price changes.

    Each traded price is pulled back toward the barrier it crossed:
    X = P - sign(move) * (1/2 - eta_hat) * tick. With the true ratio this
    lands exactly on the crossing barrier. The formula holds for any
    ``eta_hat >= 0``, so days estimating no continuations or a ratio above
    one still get a variance estimate.

    ``prices`` and ``directions`` are a tape's ``change_prices`` and ``change_directions``.
    """
    if not eta_hat >= 0.0:
        raise ParameterError(f"eta_hat must be >= 0, got {eta_hat!r}")
    if tick_value <= 0:
        raise ParameterError("tick_value must be > 0")
    return np.asarray(prices) - np.asarray(directions) * (0.5 - eta_hat) * tick_value


def estimate_integrated_variance(xhat) -> float:
    """Sum of squared increments of the recovered efficient price."""
    x = np.asarray(xhat, dtype=float)
    if len(x) < 2:
        raise InsufficientDataError("need at least 2 recovered prices")
    d = np.diff(x)
    return float(d @ d)


# Most lags a signature curve may have: 10^6 lags hold about 100 MB of curve and take 25-50 s on 5,000 changes.
_MAX_LAGS = 10**6


def check_sampling(samples_per_second: float, lag_max: int) -> None:
    """The checks of :func:`signature_plot`'s sampling, which do not read the tape."""
    if not 0 < samples_per_second < math.inf:
        raise ParameterError(f"samples_per_second must be finite and > 0, got {samples_per_second!r}")
    if not 1 <= lag_max <= _MAX_LAGS:
        raise ParameterError(f"lag_max must lie in [1, {_MAX_LAGS}], got {lag_max!r}")


def signature_plot(tape: TradeTape, samples_per_second: float = 1.0, lag_max: int = 50) -> Dict[int, float]:
    """Realized variance against the sampling lag, as ``{lag: realized_variance}``.

    The traded price is sampled on the grid j / samples_per_second with
    previous-tick interpolation (the opening price before the first trade).
    For each lag the realized variance sums squared increments of every
    ``lag``-th sample. The lags run from 1 to ``lag_max`` in increasing order.
    The grid is not built: memory grows with the changes plus the lags.
    """
    check_sampling(samples_per_second, lag_max)
    if len(tape) == 0:
        raise InsufficientDataError("empty tape")
    span = tape.session_length * samples_per_second
    if span == math.inf:
        raise ParameterError(f"samples_per_second {samples_per_second!r} over {tape.session_length:g} s overflows")
    if span < lag_max:
        raise InsufficientDataError(
            f"tape must span at least lag_max/samples_per_second seconds ({lag_max / samples_per_second:g}s)"
        )
    t = np.concatenate(([0.0], tape.change_times))  # the opening price is a change at time 0
    ladder = np.concatenate(([tape.opening_price], tape.change_prices))
    # each change's first grid index k: the first with k / samples_per_second >= t, by the grid's own division
    k = np.ceil(t * samples_per_second)
    k += k / samples_per_second < t
    k -= (k >= 1) & ((k - 1) / samples_per_second >= t)
    last = np.floor(span + 1e-9)  # the last grid index
    curve = {}
    for lag in range(1, lag_max + 1):
        first = np.ceil(k / lag)  # the sample of this lag that first reads each change
        n = np.searchsorted(first, last // lag, side="right")
        d = np.diff(ladder[:n][np.append(first[1:n] != first[: n - 1], True)])  # the last change each sample reads
        curve[lag] = float(d @ d)
    return curve


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
    directions = tape.change_directions
    eta_hat = estimate_eta(count_alternations(directions))
    xhat = recover_efficient_prices(tape.change_prices, directions, eta_hat, tape.asset.tick_value)
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
