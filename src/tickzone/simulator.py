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
its interval's squared half-width times a unit exit time. The unit exit
times of a day's first exit and of its batch of later ones come from one
inversion of the theta-series distribution. Business time maps back to
clock time through the piecewise-linear integrated variance, so a
zero-volatility stretch gets no changes.

The inversion sums 4 terms of the long-time series and 3 of the short-time
one. Each series is used on its own side of t = 1/2, where the first term
left out is below 1e-21 of the partial sum: under half an ulp, so neither it
nor any later term could change a double. The short-time series needs erfc
only at arguments of 1 and above, which Cody's rational approximations give
in numpy. Each side starts from a closed form close enough for one step,
with S(1/2) = P(T > 1/2) between them:

- For u < S(1/2), x = exp(-pi^2 t / 8) solves x - x^9/3 + x^25/5 - x^49/7 =
  pi u / 4 = c, by products alone. Its series reversion in y = c^8 to y^4
  starts within 1.9e-9 relative at t = 1/2 (the next term, 13846/135 y^5),
  less beyond. A Newton step leaves at most 12 x^8 < 0.09 of its square: 3e-19.
- Otherwise z = 1/sqrt(2t) solves erfc z - erfc 3z + erfc 5z = q/2 = (1 - u)/2.
  AS 70's root of erfc z = q/2, moved by the leading terms of erfc 3z, starts
  within 4.7e-7 relative, worst near z = 1. A Halley step cubes the error and
  scales it by about 0.16: to 2e-20. The step is taken on t to second order.
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


def _theta_terms(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Odd numbers 2k+1 and signs (-1)^k of the first ``n`` theta-series terms."""
    k = np.arange(n)
    return 2.0 * k + 1.0, (-1.0) ** k


# Terms each series keeps. On its own side of t = 1/2 the first term left out
# is below 1e-21 of the partial sum (x^81 / 9 of x, and erfc(7z) of erfc(z)
# for z >= 1), so it and every later one round away.
_LONG_TERMS = _theta_terms(4)
_SHORT_TERMS = _theta_terms(3)


def _series(weights: np.ndarray, terms: Sequence[np.ndarray]) -> np.ndarray:
    """sum_k weights[k] * terms[k], one elementwise product and sum per term.

    Each element is rounded the same wherever it sits in the array; a BLAS
    product may round an element by its place.
    """
    out = weights[0] * terms[0]
    for w, term in zip(weights[1:], terms[1:]):
        out += w * term
    return out


def _theta_powers(x: np.ndarray, n: int) -> list:
    """x^((2k+1)^2) for k < ``n`` by products alone: each is the one before times x^(8k)."""
    x8 = np.square(np.square(x * x))
    out, step = [x], x8
    for _ in range(n - 1):
        out.append(out[-1] * step)
        step = step * x8
    return out


def _horner(coefs: Sequence[float], x: np.ndarray) -> np.ndarray:
    """coefs[0] x^n + coefs[1] x^(n-1) + ... + coefs[n] by Horner's rule."""
    out = coefs[0] * x
    out += coefs[1]
    for c in coefs[2:]:
        out *= x
        out += c
    return out


# W. J. Cody, "Rational Chebyshev approximations for the error function",
# Math. Comp. 23 (1969) 631-637, as in his CALERF: erfc(z) = exp(-z^2) P(z) / Q(z)
# on [0.46875, 4], and exp(-z^2) (1/sqrt(pi) - w R(w) / S(w)) / z with w = 1/z^2 above.
_CODY_P = (2.15311535474403846e-8, 5.64188496988670089e-1, 8.88314979438837594e00,
           6.61191906371416295e01, 2.98635138197400131e02, 8.81952221241769090e02,
           1.71204761263407058e03, 2.05107837782607147e03, 1.23033935479799725e03)
_CODY_Q = (1.0, 1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02,
           1.62138957456669019e03, 3.29079923573345963e03, 4.36261909014324716e03,
           3.43936767414372164e03, 1.23033935480374942e03)
_CODY_R = (1.63153871373020978e-2, 3.05326634961232344e-1, 3.60344899949804439e-1,
           1.25781726111229246e-1, 1.60837851487422766e-2, 6.58749161529837803e-4)
_CODY_S = (1.0, 2.56852019228982242e00, 1.87295284992346725e00, 5.27905102951428412e-1,
           6.05183413124413191e-2, 2.33520497626869185e-3)
_INV_SQRT_PI = 5.6418958354775628695e-1


def _erfcx(z: np.ndarray) -> np.ndarray:
    """exp(z^2) erfc(z) for z >= 0.46875, elementwise: the rational part of Cody's erfc."""
    flat = z.ravel()
    out = np.empty_like(flat)
    near = flat <= 4.0
    i = np.flatnonzero(near)
    y = flat[i]
    out[i] = _horner(_CODY_P, y) / _horner(_CODY_Q, y)
    i = np.flatnonzero(~near)
    y = flat[i]
    w = 1.0 / (y * y)
    out[i] = (_INV_SQRT_PI - w * _horner(_CODY_R, w) / _horner(_CODY_S, w)) / y
    return out.reshape(z.shape)


def _exp_minus_square(z: np.ndarray) -> np.ndarray:
    """exp(-z^2) as Cody takes it: exp(-s^2) exp(-(z - s)(z + s)) with s = z cut to sixteenths.

    s^2 is exact, so the rounding of z^2 never enters an exponent as large as z^2;
    times :func:`_erfcx` this is erfc(z) to within 1e-15 relative.
    """
    s = np.trunc(z * 16.0) / 16.0
    return np.exp(-s * s) * np.exp(-(z - s) * (z + s))


# R. E. Odeh and J. O. Evans, algorithm AS 70, Applied Statistics 23 (1974) 96-97:
# with v = sqrt(-2 log p), v + P(v) / Q(v) is the normal upper-tail quantile of p
# to within 1.5e-8 for 1e-20 < p <= 1/2.
_AS70_P = (-0.453642210148e-4, -0.204231210245e-1, -0.342242088547, -1.0, -0.322232431088)
_AS70_Q = (0.38560700634e-2, 0.103537752850, 0.531103462366, 0.588581570495, 0.993484626060e-1)


def _normal_upper_quantile(p: np.ndarray) -> np.ndarray:
    v = np.sqrt(-2.0 * np.log(p))
    return v + _horner(_AS70_P, v) / _horner(_AS70_Q, v)


_X_AT_HALF = math.exp(-math.pi**2 / 16.0)
_SURVIVAL_AT_HALF = float(4.0 / math.pi * sum(s / o * _X_AT_HALF ** (o * o) for o, s in zip(*_LONG_TERMS)))


def _long_exit_times(u: np.ndarray) -> np.ndarray:
    """Unit exit times for survival probabilities ``u`` below S(1/2): one Newton step in x."""
    odd, sign = _LONG_TERMS
    c = (math.pi / 4.0) * u
    y = np.square(np.square(c * c))  # the series reversion of x - x^9/3 + ... = c in y = c^8, to y^4
    x = c + c * y * _horner((2669.0 / 135.0, 62.0 / 15.0, 1.0, 1.0 / 3.0), y)
    powers = _theta_powers(x, len(odd))
    # c < x < 2c, so x - c is exact and the residual rounds once
    residual = (x - c) + _series(sign[1:] / odd[1:], powers[1:])
    # the slope times x is sum_k sign_k odd_k x^(odd_k^2)
    x -= x * residual / _series(sign * odd, powers)
    return (-8.0 / math.pi**2) * np.log(x)


def _halley_step(z: np.ndarray, half: np.ndarray) -> np.ndarray:
    """Halley's step at ``z`` toward the root of log(erfc z - erfc 3z + erfc 5z - ...) = log(half)."""
    odd, sign = _SHORT_TERMS
    gauss = _theta_powers(_exp_minus_square(z), len(odd))  # exp(-z^2), exp(-9 z^2), ...
    cdf = _series(sign, [g * e for g, e in zip(gauss, _erfcx(odd[:, None] * z))])
    # the residual, which rounds once in cdf / half, and the first two derivatives of log cdf in z
    value = np.log(cdf / half)
    slope = (-2.0 * _INV_SQRT_PI) * _series(sign * odd, gauss) / cdf
    curve = (4.0 * _INV_SQRT_PI) * z * _series(sign * odd**3, gauss) / cdf - slope * slope
    return 2.0 * value * slope / (2.0 * slope * slope - value * curve)


def _short_exit_times(q: np.ndarray) -> np.ndarray:
    """Unit exit times for P(T <= t) = ``q`` above 1 - S(1/2): one Halley step in z."""
    # AS 70 at P(N > sqrt(2) z) = q / 4 gives the root of erfc z = q / 2 for a standard normal N; the
    # omitted erfc 3z = exp(-9 z^2) (1 - 1 / (18 z^2) + ...) / (3 z sqrt(pi)) moves that root so
    z = math.sqrt(0.5) * _normal_upper_quantile(0.25 * q)
    z -= np.exp(-8.0 * z * z) / (6.0 * z) * (1.0 - 1.0 / (18.0 * z * z))
    s = _halley_step(z, 0.5 * q) / z
    # the step moves t = 1 / (2 z^2) to t / (1 - s)^2 = t (1 + 2s + 3s^2), up to 4 s^3 < 1e-18 of t;
    # taken on t, it is not held to the values of 1 / (2 z^2) at doubles z, up to 4 ulps of t apart
    t = 0.5 / (z * z)
    return t + t * (s * (2.0 + 3.0 * s))


def _unit_exit_times(u: np.ndarray) -> np.ndarray:
    """Exit times of a standard Brownian motion from (-1, 1) with survival probabilities ``u``.

    ``u`` must lie in the open interval (0, 1). A side of t = 1/2 with no draws is not solved.
    """
    t = np.empty_like(u)
    long, short = np.flatnonzero(u < _SURVIVAL_AT_HALF), np.flatnonzero(u >= _SURVIVAL_AT_HALF)
    if len(long):
        t[long] = _long_exit_times(u[long])
    if len(short):
        t[short] = _short_exit_times(1.0 - u[short])
    return t


def _interval_walk(
    lo: float, hi: float, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, list, list, list]:
    """Sides of ``n`` exits of a standard Brownian motion from (-lo, hi), and what timing them needs.

    Returns (exited_at_hi, walks, scales, survivals): per round, the live walks,
    their one c^2 and their survival draws. From x the motion first leaves the
    largest interval centred on x inside (-lo, hi) after c^2 T, with c its
    half-width and T a unit exit time, on either side with equal odds and
    independently of T. All walks start at 0 and one side is a boundary (both at
    a tie), so the live walks share one orbit x. In Python floats it rounds as
    numpy does, so the draws and every double are those of walks held one by one.
    """
    x = 0.0
    at_hi = np.zeros(n, dtype=bool)
    live = np.arange(n)
    walks, scales, survivals = [], [], []
    while len(live):
        to_lo, to_hi = x + lo, hi - x
        c = min(to_lo, to_hi)
        draws = rng.random((2, len(live)))
        walks.append(live)
        scales.append(c * c)
        survivals.append(draws[0])
        up = draws[1] < 0.5
        if to_hi <= to_lo:  # the walks that go up finish at hi, and at a tie the others at lo
            at_hi[live[up]] = True
            live, x = (live[~up] if to_hi < to_lo else live[:0]), x - c
        else:
            live, x = live[up], x + c
    return at_hi, walks, scales, survivals


def _walk_times(runs: Sequence[tuple]) -> np.ndarray:
    """Exit times of the walks of each of ``runs`` of :func:`_interval_walk`, one run after another.

    The unit exit times of all rounds of all runs are inverted in one solve and
    added to each walk in round order.
    """
    walks, scales, survivals, n = [], [], [], 0
    for at_hi, run_walks, run_scales, run_survivals in runs:
        walks += [n + w for w in run_walks]
        scales += run_scales
        survivals += run_survivals
        n += len(at_hi)
    # the shift moves a draw of 0 into the open interval and leaves draws near 1 as they are
    steps = np.repeat(scales, [len(w) for w in walks]) * _unit_exit_times(np.concatenate(survivals) + 2.0**-55)
    # bincount adds the steps in the order given, so each walk's in round order
    return np.bincount(np.concatenate(walks), weights=steps, minlength=n)


def _change_sequence(
    start: float, eta: float, budget: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Business times and directions of the price changes of one day, in tick units.

    ``start`` is the latent price's offset from the opening grid point in
    ticks, and business time is measured in squared ticks up to ``budget``.
    Each round walks a batch of later exits sized to cover what is left of
    the budget, and one solve times it; the first round also walks the day's
    first exit, which is exit 0 of its running sum. Only a batch that falls
    short is followed by another round.
    """
    # later exits from (-2 eta, 1) have mean 2 eta and squared coefficient of
    # variation (1 + 4 eta^2) / (6 eta)
    mean = 2.0 * eta
    cv = math.sqrt((1.0 + 4.0 * eta**2) / (6.0 * eta))
    runs = [_interval_walk(0.5 + eta + start, 0.5 + eta - start, 1, rng)]
    elapsed, turns, end = [], [], 0.0
    while not elapsed or end < budget:
        # the expected number of exits that cover what is left plus four standard
        # deviations, so that one batch nearly always covers the day
        need = (budget - end) / mean
        runs.append(_interval_walk(2.0 * eta, 1.0, int(need + 4.0 * cv * math.sqrt(need)) + 1, rng))
        elapsed.append(end + np.cumsum(_walk_times(runs)))
        turns.append(np.where(np.concatenate([at_hi for at_hi, *_ in runs]), 1, -1))
        end, runs = float(elapsed[-1][-1]), []
    times = np.concatenate(elapsed)
    n = int(np.searchsorted(times, budget))
    return times[:n], np.cumprod(np.concatenate(turns)[:n]).astype(np.int8)


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


# Most trades one day may expect. A change costs about 285 B of peak memory,
# so a day stays under about 3 GB; the largest reference day has 118,530 trades.
_MAX_TRADES = 10**7


def simulate_day(
    path_spec: EfficientPathSpec,
    asset: AssetSpec,
    cfg: TapeConfig,
) -> tuple[TradeTape, TrueParams]:
    """Simulate one asset-day end to end, deterministically in ``cfg.seed``.

    The seed is split into independent streams for the price changes and
    the Poisson fill trades. The day opens at the grid point nearest to the
    path start (exact halves round down), which lies strictly inside the band.
    Every print sits on a one-tick quote: a change at the ask if it moved the
    price up and at the bid if down, a fill at the prevailing price on the
    side the next change takes out. Times are whole milliseconds. As in a
    vendor file, the first row never counts as a change and the tape opens at
    its price; the model-true changes are in ``TrueParams.price_changes``.
    The changes come from :func:`_change_sequence` in business time, with one
    exit-time solve for the day, and map back to clock time through the
    spec's ``knots``. A day that expects more than ``_MAX_TRADES`` trades, or
    that opens so far from 0 that its prices could leave the sub-tick range,
    is a ParameterError.
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
    change_rng, fill_rng = (np.random.default_rng(s) for s in np.random.SeedSequence(cfg.seed).spawn(2))
    business, directions = _change_sequence(path_spec.x0 / alpha - k0, eta, float(knot_b[-1]), change_rng)
    # invert the business clock; a change never falls in a zero-volatility piece
    piece = np.searchsorted(knot_b, business, side="right") - 1
    rate = np.diff(knot_b) / np.diff(knot_t)
    times = knot_t[piece] + (business - knot_b[piece]) / rate[piece]
    ticks = k0 + np.cumsum(directions, dtype=np.int64)

    fill_times = np.sort(fill_rng.random(fill_rng.poisson(cfg.trade_intensity * horizon))) * horizon
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
