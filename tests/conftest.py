"""Shared simulation fixtures.

The long constant-volatility days are built once per session and shared
between the estimator unit tests and the acceptance gate. The simulator draws
them change by change, so a day costs time in proportion to its price
changes. Seeds are pinned; every number derived from these fixtures is
reproducible bit for bit.
"""
import math
import os
import time
import warnings
from typing import Dict, NamedTuple, Tuple

import numpy as np
import pytest
from hypothesis import settings

from tickzone import (
    NO_QUOTE,
    AssetSpec,
    EfficientPathSpec,
    ParameterError,
    TapeConfig,
    TradeTape,
    TrueParams,
    simulate_day,
)
from tickzone.simulator import _interval_exits


# When a property fails, Hypothesis imports this module to suggest a patch. With
# some libcst versions that import warns of a deprecation inside libcst, which
# pyproject.toml makes an error that stops the whole session. Imported here
# first, with deprecation warnings ignored, the failure stays one failed test.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

# In CI, property tests draw the same examples on every run, so a failure there
# reproduces locally with CI=1; without CI set, Hypothesis keeps its defaults.
settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


def tape_from_rows(asset: AssetSpec, rows, session_length: float, opening_price: float) -> TradeTape:
    """A tape from (time, price, bid, ask) rows; a quote of None is absent."""
    def q(x):
        return NO_QUOTE if x is None else asset.grid.subticks_from_text(str(x))

    times = [r[0] for r in rows]
    price_q, bid_q, ask_q = ([q(r[k]) for r in rows] for k in (1, 2, 3))
    return TradeTape(asset, times, price_q, bid_q, ask_q, session_length, q(opening_price))


def first_passage_frequencies(eta: float, n_trials: int, seed: int = 0) -> Tuple[float, float]:
    """Monte Carlo check of the crossing probabilities: (reverted share, continued share).

    Samples exact exits of driftless Brownian paths from a fresh crossing,
    with barriers 2*eta ticks below and one tick above, and reports the
    fraction absorbed at each side. The odds depend on neither the tick value
    nor the volatility, so both are one. The sampler walks on symmetric
    intervals, leaving each on either side with equal odds, so it never uses
    the gambler's-ruin odds that it checks.
    """
    if not (0.0 < eta <= 1.0):
        raise ParameterError(f"eta must lie in (0, 1], got {eta!r}")
    if n_trials < 1:
        raise ParameterError("n_trials must be >= 1")
    continued = _interval_exits(2.0 * eta, 1.0, n_trials, np.random.default_rng(seed))[0]
    n_up = int(np.count_nonzero(continued))
    return (n_trials - n_up) / n_trials, n_up / n_trials


class SimDay(NamedTuple):
    tape: TradeTape
    truth: TrueParams


class SimDays(NamedTuple):
    days: Dict[float, SimDay]
    build_seconds: float


# (eta, sigma^2 per second, seed); horizons of 80000 s give roughly
# 32000 / 48000 / 60000 price changes, so estimator noise sits well inside
# the acceptance tolerances. (At 20000 s the variance estimate's error had a
# standard deviation of 0.028 at eta 0.10 over 200 seeds, and one seed in
# eight missed criterion 3's 0.05; at 80000 s it is 0.013.)
_SIM_PARAMS: Tuple[Tuple[float, float, int], ...] = (
    (0.10, 8e-6, 13),
    (0.25, 3e-5, 19),
    (0.40, 6e-5, 18),
)
SIM_TICK = 0.01
SIM_HORIZON = 80000.0


@pytest.fixture(scope="session")
def sim_days() -> SimDays:
    """Constant-sigma days at three zone ratios, no fill trades."""
    t0 = time.perf_counter()
    days: Dict[float, SimDay] = {}
    for eta, sigma2, seed in _SIM_PARAMS:
        asset = AssetSpec(f"SIM{round(eta * 100):02d}", SIM_TICK, eta=eta)
        spec = EfficientPathSpec(
            x0=100.0, volatility=math.sqrt(sigma2), horizon=SIM_HORIZON
        )
        tape, truth = simulate_day(spec, asset, TapeConfig(trade_intensity=0.0, seed=seed))
        days[eta] = SimDay(tape=tape, truth=truth)
    return SimDays(days=days, build_seconds=time.perf_counter() - t0)


@pytest.fixture(scope="session")
def flat_tape() -> TradeTape:
    """A very long day at the break-even ratio 1/2.

    The long horizon (about 222,000 price changes) pins the sampled realized
    variance to within a fraction of a percent.
    """
    asset = AssetSpec("FLAT", 1.0, eta=0.5)
    spec = EfficientPathSpec(x0=100.0, volatility=1.0 / 6.0, horizon=8_000_000.0)
    tape, _ = simulate_day(spec, asset, TapeConfig(trade_intensity=0.0, seed=7))
    return tape
