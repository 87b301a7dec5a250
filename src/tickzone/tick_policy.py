"""Exit odds and market-order cost at a zone ratio, its forecast across a tick-size change, and its inverse.

Right after a price change the efficient price sits on the barrier it just
crossed: one tick from the barrier that would continue the move, and one
buy/sell-band width from the barrier that would revert it. The two exit
probabilities follow from the gambler's ruin and drive who pays whom.

A tick change rescales the zone ratio through the spread-volatility fit: per
trade volatility is invariant, trade counts scale as a power of the tick
ratio (count elasticity beta, with presets 1 and 1/2), and the quoted spread
snaps to the new tick. Solving the fitted line for the new ratio gives the
forecast; solving the forecast for ratio 1/2 gives the tick that would make
market orders exactly break even.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from importlib import resources
from typing import List, Optional, Tuple

from .errors import DomainError, MissingFitError, ParameterError

BETA_PRESETS = (1.0, 0.5)
VERSIONS = (1, 2, 3)

# Version 2 replaces the fitted intercept ratio p2/p1 by a pooled 0.1;
# version 3 drops the quoted-spread term entirely.
_POOLED_RATIO = 0.1


@dataclass(frozen=True)
class TickScenario:
    """A contemplated tick change for one asset.

    ``alpha0``/``eta0`` describe the current regime, ``alpha`` the candidate
    tick (unused when solving for the optimal one). ``p1_0``/``p2_0`` are the
    asset's spread-volatility coefficients, needed by version 1 only.
    ``m0``/``sigma0`` (trades per day, daily volatility) refine the
    large-tick check.
    """

    alpha0: float
    eta0: float
    alpha: Optional[float] = None
    p1_0: Optional[float] = None
    p2_0: Optional[float] = None
    beta: float = 1.0
    m0: Optional[float] = None
    sigma0: Optional[float] = None

    def __post_init__(self):
        if not 0 < self.alpha0 < math.inf:
            raise ParameterError(f"alpha0 must be finite and > 0, got {self.alpha0!r}")
        if self.alpha is not None and not 0 < self.alpha < math.inf:
            raise ParameterError(f"alpha must be finite and > 0, got {self.alpha!r}")
        if not 0 < self.eta0 < math.inf:
            raise ParameterError(f"eta0 must be finite and > 0, got {self.eta0!r}")
        for name, value in (("p1_0", self.p1_0), ("p2_0", self.p2_0)):
            if value is not None and not math.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value!r}")
        if not (0.0 < self.beta < 2.0):
            raise DomainError(f"beta must lie in (0, 2), got {self.beta!r}")
        if self.m0 is not None and not 1 <= self.m0 < math.inf:
            raise ParameterError(f"m0 must be finite and >= 1, got {self.m0!r}")
        if self.sigma0 is not None and not 0 <= self.sigma0 < math.inf:
            raise ParameterError(f"sigma0 must be finite and >= 0, got {self.sigma0!r}")


def crossing_probabilities(eta: float) -> Tuple[float, float]:
    """(probability the next move reverts, probability it continues).

    A reversion needs the efficient price to travel 2*eta*alpha against
    one tick for a continuation, hence (1, 2*eta) / (1 + 2*eta).
    """
    if not (0.0 < eta <= 1.0):
        raise ParameterError(f"eta must lie in (0, 1], got {eta!r}")
    return 1.0 / (1.0 + 2.0 * eta), 2.0 * eta / (1.0 + 2.0 * eta)


def market_order_cost(eta: float, tick_value: float) -> float:
    """Expected loss of a market order against the next efficient price.

    Half a tick paid over the mid, minus the zone half-width the efficient
    price has already conceded: alpha/2 - eta*alpha. Negative above
    eta = 1/2, where market orders stop subsidizing the book.
    """
    return tick_value * (0.5 - eta)


@dataclass(frozen=True)
class EtaForecast:
    eta_pred: float
    in_large_tick_regime: bool
    warning: Optional[str] = None


def scale_trade_count(m0: float, alpha0: float, alpha: float, beta: float) -> float:
    """Daily trade count under the new tick, M0 * (alpha0/alpha)^beta.

    Returned as a float: the scaling must stay exact under composition, so
    no rounding to whole trades.
    """
    if m0 < 1:
        raise ParameterError("m0 must be >= 1")
    if alpha0 <= 0 or alpha <= 0:
        raise ParameterError("tick values must be > 0")
    if beta <= 0:
        raise DomainError(f"beta must be > 0, got {beta!r}")
    return m0 * (alpha0 / alpha) ** beta


def check_large_tick_regime(tick_value: float, sigma: float, m_trades: float) -> bool:
    """True while half a tick covers the volatility per trade."""
    if tick_value <= 0:
        raise ParameterError("tick_value must be > 0")
    if sigma < 0:
        raise ParameterError("sigma must be >= 0")
    if m_trades < 1:
        raise ParameterError("m_trades must be >= 1")
    return 0.5 * tick_value >= sigma / math.sqrt(m_trades)


def _coefficients(s: TickScenario, version: int) -> Tuple[float, float]:
    """The coefficients (p1, p2) of the forecast line of one version.

    Version 1 is the asset's own fit, version 2 a unit slope with the pooled
    intercept ratio, version 3 the bare power law.
    """
    if version == 1:
        if s.p1_0 is None or s.p1_0 <= 0:
            raise MissingFitError("version 1 needs fit coefficients with p1_0 > 0")
        return s.p1_0, s.p2_0 if s.p2_0 is not None else 0.0
    if version == 2:
        return 1.0, _POOLED_RATIO
    if version == 3:
        return 1.0, 0.0
    raise ParameterError(f"version must be one of {VERSIONS}")


def predict_eta(s: TickScenario, version: int = 1) -> EtaForecast:
    """Forecast the zone ratio after moving the tick from alpha0 to alpha.

    With r = p2/p1 the forecast line is (eta0 + r) * (alpha0/alpha)^(1 - beta/2) - r,
    so every version agrees when the tick is unchanged.
    """
    p1, p2 = _coefficients(s, version)
    if s.alpha is None:
        raise ParameterError("scenario needs the candidate tick alpha")
    ratio = p2 / p1
    eta = (s.eta0 + ratio) * (s.alpha0 / s.alpha) ** (1.0 - 0.5 * s.beta) - ratio
    if not math.isfinite(eta):
        raise DomainError(f"alpha0 {s.alpha0!r} over alpha {s.alpha!r} with p2 / p1 = {ratio:.6g} puts the forecast "
                          "ratio out of the float range")
    warning = None
    if not (0.0 < eta <= 0.5):
        warning = (
            f"predicted ratio {eta:.4g} leaves (0, 1/2]; the one-tick spread "
            "assumption is breaking down"
        )
    if s.sigma0 is not None and s.m0 is not None:
        m_new = scale_trade_count(s.m0, s.alpha0, s.alpha, s.beta)
        regime = check_large_tick_regime(s.alpha, s.sigma0, m_new)
    else:
        regime = 0.0 < eta <= 0.5
    return EtaForecast(eta_pred=eta, in_large_tick_regime=regime, warning=warning)


def optimal_tick(s: TickScenario, version: int = 1) -> float:
    """The tick value whose forecast ratio is exactly 1/2.

    Solves the forecast line of :func:`predict_eta` at 1/2; the exponent
    1/(1 - beta/2) requires beta < 2 (already enforced by the scenario). A
    tick that overflows or underflows to 0 is a DomainError.
    """
    p1, p2 = _coefficients(s, version)
    at_half = 0.5 * p1 + p2
    if at_half == 0:  # the line is then 1/2 at every tick or at none
        raise DomainError(f"fit p1 {p1!r}, p2 {p2!r} with 0.5 p1 + p2 = 0 gives no single tick")
    base = (s.eta0 * p1 + p2) / at_half
    if base <= 0:
        raise DomainError("scenario implies a non-positive tick")
    try:
        tick = s.alpha0 * base ** (1.0 / (1.0 - 0.5 * s.beta))
    except OverflowError:
        tick = math.inf
    if not 0.0 < tick < math.inf:
        raise DomainError(f"beta {s.beta!r} puts the optimal tick {s.alpha0!r} * {base:.6g} ** (1 / (1 - beta / 2)) "
                          "out of the float range")
    return tick


# --------------------------------------------------------------------- fixture

@dataclass(frozen=True)
class ReferenceAsset:
    """One row of the shipped 2009 futures estimates."""

    asset_id: str
    tick_value: float
    trades_per_day: float
    eta: float
    frac_one_tick: float
    p1: float
    p2: float

    def scenario(self, beta: float = 1.0, alpha: Optional[float] = None) -> TickScenario:
        return TickScenario(
            alpha0=self.tick_value,
            eta0=self.eta,
            alpha=alpha,
            p1_0=self.p1,
            p2_0=self.p2,
            beta=beta,
            m0=self.trades_per_day,
        )


def load_reference_assets() -> List[ReferenceAsset]:
    """Parse the packaged futures fixture (comment lines start with '#')."""
    text = resources.files("tickzone").joinpath("data/reference_futures.csv").read_text()
    rows = [line for line in text.splitlines() if line.strip() and not line.startswith("#")]
    out = []
    for rec in csv.DictReader(rows):
        out.append(
            ReferenceAsset(
                asset_id=rec["asset_id"],
                tick_value=float(rec["tick_value"]),
                trades_per_day=float(rec["trades_per_day"]),
                eta=float(rec["eta"]),
                frac_one_tick=float(rec["frac_one_tick"]),
                p1=float(rec["p1"]),
                p2=float(rec["p2"]),
            )
        )
    return out

