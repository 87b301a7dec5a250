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
alone steer the walks of a batch, all along one orbit; each step's time is
its interval's squared half-width times a unit exit time. Each batch of
walks draws the unit exit times of all its rounds in one call of Devroye's
alternating-series sampler ("On exact simulation algorithms for some
distributions related to Jacobi theta functions", Statist. Probab. Lett. 79,
2009), which needs elementary functions only. Business time maps back to
clock time through the piecewise-linear integrated variance, so a
zero-volatility stretch gets no changes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence, Tuple, Union

import numpy as np

from .domain import _MAX_SUBTICKS, SUBTICKS_PER_TICK, AssetSpec, TradeTape
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
    second. The latent price has no drift. ``knots`` holds the business
    clock that :func:`_variance_clock` makes of them, computed once here.
    """

    x0: float
    volatility: Schedule
    horizon: float = 1.0
    knots: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not math.isfinite(self.x0):
            raise ParameterError(f"x0 must be finite, got {self.x0!r}")
        if not self.horizon > 0:
            raise ParameterError(f"horizon must be > 0, got {self.horizon!r}")
        starts, vols = _schedule_pieces(self.volatility)
        if not np.all(np.isfinite(vols) & (vols >= 0)):
            raise ParameterError(f"volatility must be finite and >= 0 everywhere, got {self.volatility!r}")
        with np.errstate(over="ignore"):
            object.__setattr__(self, "knots", _variance_clock(starts, vols, self.horizon))
        if not np.isfinite(self.knots[1][-1]):
            raise ParameterError(
                f"volatility {self.volatility!r} over {self.horizon!r} s has an integrated variance beyond the float range"
            )


def _variance_clock(starts: np.ndarray, vols: np.ndarray, horizon: float) -> tuple[np.ndarray, np.ndarray]:
    """Knots (times, integrated variance) of the piecewise-linear business clock, read-only.

    The times run from 0 to the horizon; the last variance is the exact
    integral of sigma^2 over the day.
    """
    keep = starts < horizon
    times = np.append(starts[keep], horizon)
    variance = np.concatenate(([0.0], np.cumsum(vols[keep] ** 2 * np.diff(times))))
    times.flags.writeable = variance.flags.writeable = False
    return times, variance


# Devroye's cut between the two forms of the exit-time density, and the masses of the
# proposal envelope on each side of it: the density's first long-time term beyond the
# cut, and Marsaglia's normal-tail envelope of its first short-time term below it.
_CUT = 0.64
_RIGHT = 4.0 / math.pi * math.exp(-math.pi**2 * _CUT / 8.0)
_LEFT = 4.0 * math.sqrt(_CUT / (2.0 * math.pi)) * math.exp(-0.5 / _CUT)


def _below_series(y: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Whether y < 1 - 3 q^2 + 5 q^6 - 7 q^12 + ... = sum_n (-1)^n (2n+1) q^(n(n+1)), for 0 <= q < 0.05.

    The terms fall, so the partial sums close in on the sum from alternate
    sides. The first that passes y decides: an odd one, a lower bound, that
    y lies below; an even one, an upper bound, that it does not. The first
    two decide all but about 6 in 10,000 of the sampler's proposals. Once the
    terms round to nothing the partial sums stand still, and the next one decides.
    """
    partial = 1.0 - 3.0 * q * q
    below = y < partial
    todo = np.flatnonzero(~below & (y < 1.0))
    partial, n = partial[todo], 1
    while len(todo):
        n += 1
        term = (2 * n + 1) * q[todo] ** (n * (n + 1))
        if n % 2:
            partial -= term
            done = y[todo] < partial
            below[todo[done]] = True
        else:
            partial += term
            done = y[todo] >= partial
        todo, partial = todo[~done], partial[~done]
    return below


def _unit_exit_times(n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` exit times of a standard Brownian motion from (-1, 1), exactly, by Devroye's alternating series.

    The density of the exit time T is sum_n (-1)^n a_n(t), where a_n / a_0 =
    (2n+1) q^(n(n+1)) on both sides of the cut, with q = exp(-pi^2 t / 2)
    beyond it and exp(-2 / t) below it; q < 0.044 on both. Beyond the cut, a_0
    is in proportion to the density of 0.64 + 8 E / pi^2 for an exponential E.
    Below it, t = 1 / Z^2 for a normal Z past 1.25, which Marsaglia's tail
    method draws as Z^2 = 1.5625 + 2 E, kept with probability 1.25 / Z. A side
    is chosen with odds R : L, the envelope's masses ``_RIGHT`` and ``_LEFT``,
    and a proposal is kept when its uniform y, stretched by Z / 1.25 below the
    cut, lies below the series, with q = q_cut exp(-4 E) on both sides: with
    probability 1 / (R + L) = 0.86. A batch of need (R + L) + 4 sqrt(need) + 1
    proposals keeps what is still needed plus about nine standard deviations,
    so one batch nearly always does; the first ``n`` kept, in order, are the
    draws.
    """
    kept = np.empty(0)
    while len(kept) < n:
        need = n - len(kept)
        m = int(need * (_RIGHT + _LEFT) + 4.0 * math.sqrt(need)) + 1
        right = rng.random(m) * (_RIGHT + _LEFT) < _RIGHT
        e = rng.standard_exponential(m)
        grow = np.where(right, 1.0, 1.0 + (2.0 * _CUT) * e)  # (Z / 1.25)^2 below the cut
        y = rng.random(m) * np.sqrt(grow)
        q = np.exp(-4.0 * e) * np.where(right, math.exp(-math.pi**2 * _CUT / 2.0), math.exp(-2.0 / _CUT))
        t = np.where(right, _CUT + (8.0 / math.pi**2) * e, _CUT / grow)
        kept = np.concatenate([kept, t[_below_series(y, q)][:need]])
    return kept


def _interval_exits(lo: float, hi: float, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Sides and times of ``n`` exits of a standard Brownian motion from (-lo, hi): (exited_at_hi, times).

    From x the motion first leaves the largest interval centred on x inside
    (-lo, hi) after c^2 T, with c its half-width and T a unit exit time, on
    either side with equal odds and independently of T. All walks start at 0
    and one side is a boundary (both at a tie), so the live walks share one
    orbit x. In Python floats it rounds as numpy does, so the draws and every
    double are those of walks held one by one. The sides of every round are
    drawn first, then the unit exit times of all rounds in one call.
    """
    x = 0.0
    at_hi = np.zeros(n, dtype=bool)
    live = np.arange(n)
    walks, scales = [], []
    while len(live):
        to_lo, to_hi = x + lo, hi - x
        c = min(to_lo, to_hi)
        walks.append(live)
        scales.append(c * c)
        up = rng.random(len(live)) < 0.5
        if to_hi <= to_lo:  # the walks that go up finish at hi, and at a tie the others at lo
            at_hi[live[up]] = True
            live, x = (live[~up] if to_hi < to_lo else live[:0]), x - c
        else:
            live, x = live[up], x + c
    sizes = [len(w) for w in walks]
    steps = np.repeat(scales, sizes) * _unit_exit_times(sum(sizes), rng)
    # bincount adds the steps in the order given, so each walk's in round order
    return at_hi, np.bincount(np.concatenate(walks), weights=steps, minlength=n)


def _change_sequence(
    start: float, eta: float, budget: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Business times and directions of the price changes of one day, in tick units.

    ``start`` is the latent price's offset from the opening grid point in
    ticks, and business time is measured in squared ticks up to ``budget``.
    The day's first exit comes first; then each batch of later exits is sized
    to cover what is left of the budget, and only a batch that falls short is
    followed by another.
    """
    # later exits from (-2 eta, 1) have mean 2 eta and squared coefficient of
    # variation (1 + 4 eta^2) / (6 eta)
    mean = 2.0 * eta
    cv = math.sqrt((1.0 + 4.0 * eta**2) / (6.0 * eta))
    at_hi, first = _interval_exits(0.5 + eta + start, 0.5 + eta - start, 1, rng)
    ups, elapsed = [at_hi], [first]
    while elapsed[-1][-1] < budget:
        # the expected number of exits that cover what is left plus four standard
        # deviations, so that one batch nearly always covers the day
        need = (budget - elapsed[-1][-1]) / mean
        at_hi, steps = _interval_exits(2.0 * eta, 1.0, int(need + 4.0 * cv * math.sqrt(need)) + 1, rng)
        ups.append(at_hi)
        elapsed.append(elapsed[-1][-1] + np.cumsum(steps))
    times = np.concatenate(elapsed)
    n = int(np.searchsorted(times, budget))
    return times[:n], np.cumprod(np.where(np.concatenate(ups), 1, -1)[:n]).astype(np.int8)


class PriceChangeSeries(NamedTuple):
    """Traded-price moves as columns: when, to what, which way, and where the
    efficient price was (the barrier value) when each happened."""

    times: np.ndarray
    new_prices: np.ndarray
    directions: np.ndarray
    efficient_prices: np.ndarray


@dataclass(frozen=True)
class TapeConfig:
    """Knobs for dressing a change sequence into a full tape.

    ``trade_intensity`` is the Poisson rate (per second) of trades that do
    not move the price; they print at the prevailing traded price.
    """

    trade_intensity: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.trade_intensity) and self.trade_intensity >= 0):
            raise ParameterError(f"trade_intensity must be finite and >= 0, got {self.trade_intensity!r}")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class TrueParams:
    """Ground truth attached to a simulated day, for estimator checks."""

    eta: float
    integrated_variance: float
    n_price_changes: int
    price_changes: PriceChangeSeries = field(repr=False, default=None)


def equilibrium_fill_rate(asset: AssetSpec, sigma: float, horizon: float) -> float:
    """Fill intensity making volatility per trade match the implicit spread.

    Targets M = (sigma * sqrt(t) / (eta * alpha))^2 total trades; the expected
    number of price changes sigma^2 t / (2 eta alpha^2) is subtracted off.
    """
    eta = asset.require_eta()
    alpha = asset.tick_value
    for name, value in (("volatility sigma", sigma), ("horizon", horizon)):
        if not (math.isfinite(value) and value > 0):
            raise ParameterError(f"{name} must be finite and > 0, got {value!r}")
    try:
        target = (sigma / (eta * alpha)) ** 2
        changes = sigma**2 / (2.0 * eta * alpha**2)
    except OverflowError:
        raise ParameterError(f"sigma {sigma!r} is too large: its fill rate overflows a float") from None
    return max(0.0, target - changes)


# Most trades one day may expect. A change costs about 185 B of peak memory and a
# fill 100 B, so a day stays under about 2 GB; the largest reference day has 118,530 trades.
_MAX_TRADES = 10**7


def simulate_day(
    path_spec: EfficientPathSpec,
    asset: AssetSpec,
    cfg: TapeConfig,
) -> tuple[TradeTape, TrueParams]:
    """Simulate one asset-day end to end, deterministically in ``cfg.seed``.

    One generator seeded with ``cfg.seed`` draws the price changes and then
    the Poisson fill trades, so the changes do not depend on the fill rate.
    The day opens at the grid point nearest to the path start (exact halves
    round down), which lies strictly inside the band. Every print sits on a
    one-tick quote: a change at the ask if it moved the price up and at the
    bid if down, a fill at the prevailing price on the side the next change
    takes out. Times are whole milliseconds. As in a vendor file, the first
    row never counts as a change and the tape opens at its price; the
    model-true changes are in ``TrueParams.price_changes``. The changes come
    from :func:`_change_sequence` in business time and map back to clock time
    through the spec's ``knots``. A day that expects more than
    ``_MAX_TRADES`` trades, or that opens so far from 0 that its prices could
    leave the sub-tick range, is a ParameterError.
    """
    eta = asset.require_eta()
    alpha = asset.tick_value
    horizon = path_spec.horizon
    knot_t, knot_v = path_spec.knots
    # a variance past the float range in squared ticks (or 0 / 0 where the tick's square
    # underflows) gives an inf or NaN count, which the bound below rejects
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        knot_b = knot_v / np.square(alpha)
    expected = float(knot_b[-1]) / (2.0 * eta) + cfg.trade_intensity * horizon
    if not expected <= _MAX_TRADES:
        raise ParameterError(f"a day of {expected:.3g} expected trades is more than the limit of {_MAX_TRADES:.0e}")
    # every price of the day, up to _MAX_TRADES ticks from the opening one, must fit the sub-tick range
    k0 = asset.grid.nearest_tick_index(path_spec.x0) if math.isfinite(path_spec.x0 / alpha) else math.inf
    if abs(k0) + _MAX_TRADES > _MAX_SUBTICKS // SUBTICKS_PER_TICK:
        raise ParameterError(f"x0 {path_spec.x0!r} lies too many ticks of {alpha!r} from 0 for the sub-tick range")
    rng = np.random.default_rng(cfg.seed)
    business, directions = _change_sequence(path_spec.x0 / alpha - k0, eta, float(knot_b[-1]), rng)
    # invert the business clock; a change never falls in a zero-volatility piece
    piece = np.searchsorted(knot_b, business, side="right") - 1
    rate = np.diff(knot_b) / np.diff(knot_t)
    times = knot_t[piece] + (business - knot_b[piece]) / rate[piece]
    ticks = k0 + np.cumsum(directions, dtype=np.int64)

    fill_times = np.sort(rng.random(rng.poisson(cfg.trade_intensity * horizon))) * horizon
    # a fill repeats the last changed price before it, on the side the next change takes out
    fill_ticks = np.concatenate(([k0], ticks))[np.searchsorted(times, fill_times, side="right")]
    next_moves = np.append(directions, -directions[-1] if len(directions) else 1)
    fill_at_ask = next_moves[np.searchsorted(times, fill_times, side="left")] < 0
    # merged by time; on a tie the change prints first
    all_times = np.concatenate([times, fill_times])
    order = np.argsort(all_times, kind="stable")
    # whole milliseconds, none after the horizon's last one, so every print lies in the session
    seconds = np.minimum(np.round(all_times[order] * 1000.0), math.floor(horizon * 1000.0)) / 1000.0
    price_q = np.concatenate([ticks, fill_ticks])[order] * SUBTICKS_PER_TICK
    bid_q = price_q - np.concatenate([directions > 0, fill_at_ask])[order] * SUBTICKS_PER_TICK
    tape = TradeTape(
        asset=asset,
        times=seconds,
        price_q=price_q,
        bid_q=bid_q,
        ask_q=bid_q + SUBTICKS_PER_TICK,
        session_length=horizon,
        opening_price_q=price_q[0] if len(price_q) else k0 * SUBTICKS_PER_TICK,
    )
    barriers = (ticks + directions * (eta - 0.5)) * alpha
    truth = TrueParams(
        eta=eta,
        integrated_variance=float(knot_v[-1]),
        n_price_changes=len(times),
        price_changes=PriceChangeSeries(times, ticks * alpha, directions, barriers),
    )
    return tape, truth
