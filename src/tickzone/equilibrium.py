"""Post-trade dynamics and the cost balance of a one-tick market.

Right after a price change the efficient price sits on the barrier it just
crossed: one tick from the barrier that would continue the move, and one
buy/sell-band width from the barrier that would revert it. The two exit
probabilities follow from the gambler's ruin and drive who pays whom.
"""
from __future__ import annotations

from typing import Tuple

from .errors import ParameterError


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

