"""Post-trade dynamics and the cost balance of a one-tick market.

Right after a price change the efficient price sits on the barrier it just
crossed: one tick from the barrier that would continue the move, and one
buy/sell-band width from the barrier that would revert it. The two exit
probabilities follow from the gambler's ruin and drive who pays whom.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .domain import AssetSpec
from .errors import ParameterError
from .simulator import _interval_walk

DEFAULT_WYART_C = 2.0


def crossing_probabilities(eta: float) -> Tuple[float, float]:
    """(probability the next move reverts, probability it continues).

    A reversion needs the efficient price to travel 2*eta*alpha against
    one tick for a continuation, hence (1, 2*eta) / (1 + 2*eta).
    """
    if not (0.0 < eta <= 1.0):
        raise ParameterError(f"eta must lie in (0, 1], got {eta!r}")
    return 1.0 / (1.0 + 2.0 * eta), 2.0 * eta / (1.0 + 2.0 * eta)


def market_order_cost(asset: AssetSpec) -> float:
    """Expected loss of a market order against the next efficient price.

    Half a tick paid over the mid, minus the zone half-width the efficient
    price has already conceded: alpha/2 - eta*alpha. Negative above
    eta = 1/2, where market orders stop subsidizing the book.
    """
    eta = asset.require_eta()
    return asset.tick_value * (0.5 - eta)


def market_maker_pnl(avg_spread: float, sigma_per_trade: float, c: float = DEFAULT_WYART_C) -> float:
    """Per-trade gain of a liquidity provider, S/2 - (c/2) * sigma_per_trade.

    ``c`` scales the adverse-selection charge; the sensible range is [1, 2]
    and the conservative default is 2.
    """
    if avg_spread <= 0:
        raise ParameterError("avg_spread must be > 0")
    if sigma_per_trade < 0:
        raise ParameterError("sigma_per_trade must be >= 0")
    if not (1.0 <= c <= 2.0):
        raise ParameterError(f"c must lie in [1, 2], got {c!r}")
    return 0.5 * avg_spread - 0.5 * c * sigma_per_trade


@dataclass(frozen=True)
class EquilibriumReport:
    """Diagnostics attached to estimate and predict outputs."""

    eta: float
    p_revert: float
    p_continue: float
    market_order_cost: float
    maker_pnl_per_trade: Optional[float] = None

    def __post_init__(self):
        if abs(self.p_revert + self.p_continue - 1.0) > 1e-12:
            raise ParameterError("crossing probabilities must sum to 1")


def equilibrium_report(
    asset: AssetSpec,
    sigma_per_trade: Optional[float] = None,
    c: float = DEFAULT_WYART_C,
) -> EquilibriumReport:
    p_rev, p_cont = crossing_probabilities(asset.require_eta())
    pnl = None
    if sigma_per_trade is not None:
        pnl = market_maker_pnl(asset.tick_value, sigma_per_trade, c=c)
    return EquilibriumReport(
        eta=asset.require_eta(),
        p_revert=p_rev,
        p_continue=p_cont,
        market_order_cost=market_order_cost(asset),
        maker_pnl_per_trade=pnl,
    )


def first_passage_frequencies(eta: float, n_trials: int, seed: int = 0) -> Tuple[float, float]:
    """Monte Carlo check of the crossing probabilities.

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
    continued = _interval_walk(2.0 * eta, 1.0, n_trials, np.random.default_rng(seed))[0]
    n_up = int(np.count_nonzero(continued))
    return (n_trials - n_up) / n_trials, n_up / n_trials
