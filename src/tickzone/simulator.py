"""Simulation of large-tick traded prices driven by a latent efficient price.

The efficient price is a driftless Brownian motion whose volatility is
constant or piecewise constant. The traded price sits on the tick grid and
moves by one tick exactly when the efficient price reaches a barrier half a
tick plus one zone half-width away from the last traded price.

The change sequence is sampled event by event, with no time grid. In
business time (the integrated variance ``∫ sigma^2 dt``) the efficient price
is a standard Brownian motion, so each change is its exit from an interval:

- the first change of the day leaves the band around the opening price;
- every later change leaves ``(-2 eta tick, tick)`` around the barrier just
  crossed, continuing the last move on the ``tick`` side. These exits are
  independent and identically distributed.

Exit times and sides are exact: walks on symmetric intervals. The sides
alone steer a walk; each step's time is its interval's squared half-width
times a unit exit time, and all the unit exit times of one batch of walks
come from one inversion of the theta-series distribution. Business time maps
back to clock time through the piecewise-linear integrated variance, so a
zero-volatility stretch gets no changes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence, Tuple, Union

import numpy as np
from scipy import special

from .domain import SUBTICKS_PER_TICK, AssetSpec, TickGrid, TradeTape
from .errors import ParameterError

Schedule = Union[float, Sequence[Tuple[float, float]]]


def _schedule_pieces(sched: Schedule) -> tuple[np.ndarray, np.ndarray]:
    """Normalize a volatility schedule to (start_times, values), first piece at t=0."""
    if isinstance(sched, (int, float)):
        return np.array([0.0]), np.array([float(sched)])
    pieces = sorted((float(t), float(v)) for t, v in sched)
    if not pieces:
        raise ParameterError("volatility schedule is empty")
    starts = np.array([t for t, _ in pieces])
    values = np.array([v for _, v in pieces])
    if starts[0] > 0.0:
        raise ParameterError("volatility schedule must start at time 0")
    if len(np.unique(starts)) != len(starts):
        raise ParameterError("volatility schedule has duplicate breakpoints")
    return starts, values


@dataclass(frozen=True)
class EfficientPathSpec:
    """Parameters of the latent price: start value, volatility and horizon.

    ``volatility`` is either a constant or a piecewise-constant schedule
    given as (start_time, value) pairs, in price units per square-root
    second. The latent price has no drift.
    """

    x0: float
    volatility: Schedule
    horizon: float = 1.0

    def __post_init__(self):
        if self.horizon <= 0:
            raise ParameterError(f"horizon must be > 0, got {self.horizon!r}")
        _, vols = _schedule_pieces(self.volatility)
        if np.any(vols < 0):
            raise ParameterError("volatility must be >= 0 everywhere")


def _variance_clock(spec: EfficientPathSpec) -> tuple[np.ndarray, np.ndarray]:
    """Knots (times, integrated variance) of the piecewise-linear business clock.

    The times run from 0 to the horizon; the last variance is the exact
    integral of sigma^2 over the day.
    """
    starts, vols = _schedule_pieces(spec.volatility)
    keep = starts < spec.horizon
    times = np.append(starts[keep], spec.horizon)
    variance = np.concatenate(([0.0], np.cumsum(vols[keep] ** 2 * np.diff(times))))
    return times, variance


def _as_rng(rng) -> np.random.Generator:
    if rng is None:
        return np.random.default_rng(0)
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


# Odd numbers 2k+1 and signs (-1)^k of the first five theta-series terms. On
# its own side of t = 1/2 either series below then errs by less than 1e-25.
_ODD = 2.0 * np.arange(5) + 1.0
_SIGN = (-1.0) ** np.arange(5)


def _series(weights: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """sum_k weights[k] * terms[k], one elementwise product and sum per term.

    Each element is rounded the same wherever it sits in the array; a BLAS
    product may round an element by its place.
    """
    return sum(w * term for w, term in zip(weights, terms))


def _long_time_tail(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log P(T > t) for the unit exit time T, and its derivative in t."""
    e = np.exp(-np.outer(_ODD**2, t) * (math.pi**2 / 8.0))
    survival = (4.0 / math.pi) * _series(_SIGN / _ODD, e)
    density = (math.pi / 2.0) * _series(_SIGN * _ODD, e)
    return np.log(survival), -density / survival


def _short_time_tail(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log P(T <= t) for the unit exit time T, and its derivative in t."""
    z = np.outer(_ODD, 1.0 / np.sqrt(2.0 * t))
    cdf = 2.0 * _series(_SIGN, special.erfc(z))
    density = 2.0 * _series(_SIGN * _ODD, np.exp(-z * z)) / np.sqrt(2.0 * math.pi * t**3)
    return np.log(cdf), density / cdf


_SURVIVAL_AT_HALF = float(np.exp(_long_time_tail(np.array([0.5]))[0][0]))


def _newton(tail, t: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Solve tail(t) = target in place by Newton's method, to a relative step of 1e-13.

    Both log tails are monotone and concave in t (the unit exit time is a sum
    of independent exponentials), so from a start where tail(t) < target
    every step moves toward the root and, up to rounding, not past it. Each
    element stops at its own first small step, so that, with the tails'
    elementwise sums, its root does not depend on the rest of the batch.
    """
    todo = np.arange(len(t))
    for _ in range(100):
        value, slope = tail(t[todo])
        step = (value - target[todo]) / slope
        t[todo] -= step
        todo = todo[np.abs(step) > 1e-13 * t[todo]]
        if not len(todo):
            break
    return t


def _unit_exit_times(u: np.ndarray) -> np.ndarray:
    """Exit times of a standard Brownian motion from (-1, 1) with survival probabilities ``u``.

    ``u`` must lie in the open interval (0, 1). Newton's method inverts the
    long-time series of log P(T > t) when the root lies beyond 1/2 and the
    short-time series of log P(T <= t) below it. It starts where the series'
    first term alone hits the target; the omitted terms lower either tail,
    so the start lies where tail(t) < target.
    """
    t = np.empty_like(u)
    long = u < _SURVIVAL_AT_HALF
    if long.any():
        s = u[long]
        t[long] = _newton(_long_time_tail, (8.0 / math.pi**2) * np.log(4.0 / (math.pi * s)), np.log(s))
    if not long.all():
        q = 1.0 - u[~long]
        t[~long] = _newton(_short_time_tail, 0.5 / special.erfcinv(q / 2.0) ** 2, np.log(q))
    return t


def _interval_exits(
    lo: float, hi: float, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Times and sides of ``n`` exits of a standard Brownian motion from (-lo, hi).

    Returns (exit_times, exited_at_hi). From a point x the motion first
    leaves the largest interval centred on x inside (-lo, hi) after c^2 T,
    with c its half-width and T a unit exit time, on either side with equal
    odds and independently of T. One of the two sides is a boundary, so at
    least half of the walks finish each round.

    Only the sides steer the walks. Each round keeps its walks, its c^2 and
    its survival draws; the unit exit times of all rounds are then inverted
    in one solve and added to each walk in round order.
    """
    x = np.zeros(n)
    at_hi = np.zeros(n, dtype=bool)
    live = np.arange(n)
    walks, scales, survivals = [], [], []
    while len(live):
        xl = x[live]
        c = np.minimum(xl + lo, hi - xl)
        draws = rng.random((2, len(live)))
        walks.append(live)
        scales.append(c * c)
        survivals.append(draws[0])
        up = draws[1] < 0.5
        hit_hi = up & (hi - xl <= c)
        done = hit_hi | (~up & (xl + lo <= c))
        at_hi[live[done]] = hit_hi[done]
        x[live] = np.where(up, xl + c, xl - c)
        live = live[~done]
    # the shift moves a draw of 0 into the open interval and leaves draws near 1 as they are
    steps = np.concatenate(scales) * _unit_exit_times(np.concatenate(survivals) + 2.0**-55)
    # bincount adds the steps in the order given, so each walk's in round order
    return np.bincount(np.concatenate(walks), weights=steps, minlength=n), at_hi


def _change_sequence(
    start: float, eta: float, budget: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Business times and directions of the price changes of one day, in tick units.

    ``start`` is the latent price's offset from the opening grid point in
    ticks, and business time is measured in squared ticks up to ``budget``.
    """
    first, first_up = _interval_exits(0.5 + eta + start, 0.5 + eta - start, 1, rng)
    elapsed = [first]
    turns = [np.where(first_up, 1, -1)]
    # later exits from (-2 eta, 1) have mean 2 eta and squared coefficient of
    # variation (1 + 4 eta^2) / (6 eta)
    mean = 2.0 * eta
    cv = math.sqrt((1.0 + 4.0 * eta**2) / (6.0 * eta))
    end = float(first[0])
    while end < budget:
        # the expected number of exits still needed plus four standard
        # deviations, so that one batch nearly always covers the day
        need = (budget - end) / mean
        gaps, continued = _interval_exits(2.0 * eta, 1.0, int(need + 4.0 * cv * math.sqrt(need)) + 1, rng)
        elapsed.append(end + np.cumsum(gaps))
        turns.append(np.where(continued, 1, -1))
        end = float(elapsed[-1][-1])
    times = np.concatenate(elapsed)
    n = int(np.searchsorted(times, budget))
    return times[:n], np.cumprod(np.concatenate(turns)[:n]).astype(np.int8)


class PriceChangeSeries:
    """Traded-price moves as columns: when, to what, which way, and where the
    efficient price was (the barrier value) when each happened."""

    def __init__(self, times, new_prices, directions, efficient_prices):
        self.times = np.asarray(times, dtype=np.float64)
        self.new_prices = np.asarray(new_prices, dtype=np.float64)
        self.directions = np.asarray(directions, dtype=np.int8)
        self.efficient_prices = np.asarray(efficient_prices, dtype=np.float64)
        n = len(self.times)
        if not (len(self.new_prices) == len(self.directions) == len(self.efficient_prices) == n):
            raise ParameterError("price change columns must have equal length")

    def __len__(self) -> int:
        return len(self.times)

    def __repr__(self):
        return f"PriceChangeSeries(n={len(self)})"


@dataclass(frozen=True)
class TapeConfig:
    """Knobs for dressing a change sequence into a full tape.

    ``trade_intensity`` is the Poisson rate (per second) of trades that do
    not move the price; they print at the prevailing traded price.
    """

    trade_intensity: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.trade_intensity < 0:
            raise ParameterError("trade_intensity must be >= 0")


@dataclass(frozen=True)
class TrueParams:
    """Ground truth attached to a simulated day, for estimator checks."""

    eta: float
    tick_value: float
    integrated_variance: float
    n_price_changes: int
    price_changes: PriceChangeSeries = field(repr=False, default=None)


def _strictly_increasing_ms(times: np.ndarray) -> np.ndarray:
    """Quantize seconds to milliseconds; colliding stamps are pushed forward."""
    ms = np.round(times * 1000.0).astype(np.int64)
    if len(ms) > 1:
        ramp = np.arange(len(ms), dtype=np.int64)
        ms = np.maximum.accumulate(ms - ramp) + ramp
    return ms


def generate_tape(
    changes: PriceChangeSeries,
    cfg: TapeConfig,
    asset: AssetSpec,
    horizon: float,
    opening_price: float,
    rng=None,
) -> TradeTape:
    """Merge price changes with Poisson fill trades into a trade tape.

    Every trade carries the one-tick quote bracket consistent with the side
    it hit: a trade that moves the price up prints at the ask, one that moves
    it down prints at the bid, and a fill prints at whichever side the next
    price move will take out. Times are recorded at millisecond resolution.

    The tape is the vendor-file view of the day: a trade file alone cannot
    show whether its first row moved the price, so the first row is always
    recorded as a non-change and the tape opens at that row's price. The
    model-true change sequence stays available in ``changes``.
    """
    if horizon <= 0:
        raise ParameterError("horizon must be > 0")
    grid = TickGrid(asset.tick_value)
    k_open = grid.nearest_tick_index(opening_price)
    if abs(opening_price - k_open * asset.tick_value) > 1e-9 * asset.tick_value:
        raise ParameterError(f"opening price {opening_price!r} is not on the tick grid")
    if len(changes) and (changes.times[0] < 0 or changes.times[-1] > horizon + 1e-9):
        raise ParameterError("price change times must lie within [0, horizon]")

    gen = _as_rng(cfg.seed if rng is None else rng)
    n_fill = int(gen.poisson(cfg.trade_intensity * horizon)) if cfg.trade_intensity > 0 else 0
    fill_times = np.sort(gen.random(n_fill)) * horizon if n_fill else np.empty(0)

    ch_ticks = np.round(changes.new_prices / asset.tick_value).astype(np.int64)
    n_ch = len(changes)
    all_times = np.concatenate([changes.times, fill_times])
    order = np.argsort(all_times, kind="stable")
    times = all_times[order]
    is_change = order < n_ch

    ticks = np.empty(len(times), dtype=np.int64)
    direction = np.zeros(len(times), dtype=np.int8)
    if n_ch:
        ticks[is_change] = ch_ticks
        direction[is_change] = changes.directions
        # a fill repeats the last changed price before it, or the opening price
        last_change = np.searchsorted(changes.times, times[~is_change], side="right") - 1
        fill_ticks = np.where(last_change >= 0, ch_ticks[np.maximum(last_change, 0)], k_open)
        ticks[~is_change] = fill_ticks
    else:
        ticks[:] = k_open

    # quote bracket per trade: was this print at the ask or at the bid?
    if n_ch:
        nxt = np.searchsorted(changes.times, times, side="left")
        next_dir = np.where(nxt < n_ch, changes.directions[np.minimum(nxt, n_ch - 1)], -changes.directions[-1])
    else:
        next_dir = np.ones(len(times), dtype=np.int8)
    at_ask = np.where(is_change, direction > 0, next_dir < 0)

    price_q = ticks * SUBTICKS_PER_TICK
    bid_q = np.where(at_ask, price_q - SUBTICKS_PER_TICK, price_q)
    ask_q = np.where(at_ask, price_q, price_q + SUBTICKS_PER_TICK)

    # vendor-view convention: the first row never counts as a change
    opening_q = k_open * SUBTICKS_PER_TICK
    if len(times):
        is_change[0] = False
        direction[0] = 0
        opening_q = int(price_q[0])

    ms = _strictly_increasing_ms(times)
    t_canon = ms / 1000.0
    session_length = max(horizon, float(t_canon[-1]) if len(t_canon) else horizon)
    return TradeTape(
        asset=asset,
        times=t_canon,
        price_q=price_q,
        bid_q=bid_q,
        ask_q=ask_q,
        changed=is_change,
        direction=direction,
        session_length=session_length,
        opening_price_q=opening_q,
        grid=grid,
    )


def equilibrium_fill_rate(asset: AssetSpec, sigma: float, horizon: float) -> float:
    """Fill intensity making volatility per trade match the implicit spread.

    Targets M = (sigma * sqrt(t) / (eta * alpha))^2 total trades; the expected
    number of price changes sigma^2 t / (2 eta alpha^2) is subtracted off.
    """
    eta = asset.require_eta()
    alpha = asset.tick_value
    if sigma <= 0 or horizon <= 0:
        raise ParameterError("sigma and horizon must be > 0")
    target = (sigma / (eta * alpha)) ** 2
    changes = sigma**2 / (2.0 * eta * alpha**2)
    return max(0.0, target - changes)


def simulate_day(
    path_spec: EfficientPathSpec,
    asset: AssetSpec,
    cfg: TapeConfig,
) -> tuple[TradeTape, TrueParams]:
    """Simulate one asset-day end to end, deterministically in ``cfg.seed``.

    The seed is split into independent streams for the price changes and
    the fill trades. The day opens at the grid point nearest to the path
    start (exact halves round down), which lies strictly inside the band.
    """
    eta = asset.require_eta()
    alpha = asset.tick_value
    change_rng, fill_rng = (np.random.default_rng(s) for s in np.random.SeedSequence(cfg.seed).spawn(2))
    knot_t, knot_v = _variance_clock(path_spec)
    knot_b = knot_v / alpha**2
    k0 = TickGrid(alpha).nearest_tick_index(path_spec.x0)
    business, directions = _change_sequence(path_spec.x0 / alpha - k0, eta, float(knot_b[-1]), change_rng)
    # invert the business clock; a change never falls in a zero-volatility piece
    piece = np.searchsorted(knot_b, business, side="right") - 1
    rate = np.diff(knot_b) / np.diff(knot_t)
    times = knot_t[piece] + (business - knot_b[piece]) / rate[piece]
    ticks = k0 + np.cumsum(directions, dtype=np.int64)
    barriers = (ticks + directions * (eta - 0.5)) * alpha
    changes = PriceChangeSeries(times, ticks * alpha, directions, barriers)
    tape = generate_tape(changes, cfg, asset, path_spec.horizon, k0 * alpha, rng=fill_rng)
    truth = TrueParams(
        eta=eta,
        tick_value=alpha,
        integrated_variance=float(knot_v[-1]),
        n_price_changes=len(changes),
        price_changes=changes,
    )
    return tape, truth
