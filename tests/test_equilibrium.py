"""Post-change exit odds and the cost of a market order."""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import first_passage_frequencies
from tickzone.errors import ParameterError
from tickzone.estimators import DailyRecord
from tickzone.pipeline import _daily_diagnostics, fmt_float
from tickzone.tick_policy import crossing_probabilities, market_order_cost


class TestCrossingProbabilities:
    def test_half_ratio_is_symmetric(self):
        assert crossing_probabilities(0.5) == (0.5, 0.5)

    def test_hand_values(self):
        p_rev, p_cont = crossing_probabilities(0.25)
        assert p_rev == pytest.approx(2.0 / 3.0)
        assert p_cont == pytest.approx(1.0 / 3.0)
        assert crossing_probabilities(0.1)[0] == pytest.approx(5.0 / 6.0)

    def test_sum_to_one_across_ratios(self):
        for eta in np.linspace(0.01, 1.0, 34):
            p_rev, p_cont = crossing_probabilities(float(eta))
            assert p_rev + p_cont == pytest.approx(1.0, abs=1e-12)
            assert 0.0 < p_cont <= p_rev or eta >= 0.5

    def test_reversion_dominates_below_half(self):
        for eta in (0.05, 0.2, 0.45):
            p_rev, p_cont = crossing_probabilities(eta)
            assert p_rev > p_cont

    def test_eta_bounds(self):
        for bad in (0.0, -0.2, 1.0001):
            with pytest.raises(ParameterError):
                crossing_probabilities(bad)


class TestMarketOrderCost:
    def test_hand_values(self):
        assert market_order_cost(0.25, 1.0) == pytest.approx(0.25)
        assert market_order_cost(0.5, 1.0) == 0.0
        assert market_order_cost(0.1, 0.5) == pytest.approx(0.2)

    def test_sign_flips_above_half(self):
        assert market_order_cost(0.8, 1.0) < 0

    def test_decreasing_in_eta(self):
        costs = [market_order_cost(e, 1.0) for e in np.linspace(0.05, 0.95, 19)]
        assert all(a > b for a, b in zip(costs, costs[1:]))

    def test_matches_exit_lottery(self):
        # price the taker's bet directly: win one zone width plus half a tick
        # on a reversion, lose the same on a continuation
        rng = np.random.default_rng(41)
        n = 400_000
        tick = 1.0
        for eta in (0.1, 0.25, 0.4):
            p_rev, _ = crossing_probabilities(eta)
            stake = (0.5 + eta) * tick
            payoff = np.where(rng.random(n) < p_rev, stake, -stake)
            tol = 4.0 * stake / math.sqrt(n)
            assert float(payoff.mean()) == pytest.approx(market_order_cost(eta, tick), abs=tol)


class TestEquilibriumReport:
    """The diagnostics a daily record carries: market-order cost and the two crossing probabilities."""

    @given(st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
    def test_probabilities_must_sum_to_one(self, eta):
        p_revert, p_continue = crossing_probabilities(eta)
        assert abs(p_revert + p_continue - 1.0) <= 1e-12

    def test_report_fields(self):
        record = DailyRecord("d", "X", eta_hat=0.25, alpha=1.0, sigma_hat=0.1, m_trades=10,
                             avg_spread=1.0, frac_one_tick=100.0)
        assert _daily_diagnostics(record) == [fmt_float(0.25), fmt_float(2.0 / 3.0), fmt_float(1.0 / 3.0)]

    def test_construction_valid_across_ratios(self):
        for eta in np.linspace(0.02, 1.0, 25):
            record = DailyRecord("d", "X", eta_hat=float(eta), alpha=0.01, sigma_hat=0.1, m_trades=10,
                                 avg_spread=0.01, frac_one_tick=100.0)
            assert all(_daily_diagnostics(record))
        # a kept day outside (0, 1] still gets its cost, with no crossing odds
        flagged = DailyRecord("d", "X", eta_hat=2.5, alpha=0.5, sigma_hat=0.1, m_trades=10,
                              avg_spread=0.5, frac_one_tick=100.0)
        assert _daily_diagnostics(flagged) == [fmt_float(-1.0), "", ""]


class TestFirstPassageFrequencies:
    def test_symmetric_case_small_sample(self):
        f_rev, f_cont = first_passage_frequencies(0.5, 2000, seed=3)
        assert f_rev == pytest.approx(0.5, abs=0.05)
        assert f_cont == pytest.approx(0.5, abs=0.05)

    def test_every_trial_absorbed_once(self):
        f_rev, f_cont = first_passage_frequencies(0.25, 1500, seed=9)
        assert f_rev + f_cont == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_in_seed(self):
        a = first_passage_frequencies(0.3, 500, seed=11)
        b = first_passage_frequencies(0.3, 500, seed=11)
        assert a == b

    def test_validation(self):
        with pytest.raises(ParameterError):
            first_passage_frequencies(0.0, 100)
        with pytest.raises(ParameterError):
            first_passage_frequencies(1.5, 100)
        with pytest.raises(ParameterError):
            first_passage_frequencies(0.25, 0)
