"""Post-change exit odds, order costs, and the maker/taker balance."""
import math

import numpy as np
import pytest

from tickzone.domain import AssetSpec
from tickzone.equilibrium import (
    DEFAULT_WYART_C,
    EquilibriumReport,
    crossing_probabilities,
    equilibrium_report,
    first_passage_frequencies,
    market_maker_pnl,
    market_order_cost,
)
from tickzone.errors import ParameterError


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
        assert market_order_cost(AssetSpec("X", 1.0, eta=0.25)) == pytest.approx(0.25)
        assert market_order_cost(AssetSpec("X", 1.0, eta=0.5)) == 0.0
        assert market_order_cost(AssetSpec("X", 0.5, eta=0.1)) == pytest.approx(0.2)

    def test_sign_flips_above_half(self):
        assert market_order_cost(AssetSpec("X", 1.0, eta=0.8)) < 0

    def test_decreasing_in_eta(self):
        costs = [market_order_cost(AssetSpec("X", 1.0, eta=e)) for e in np.linspace(0.05, 0.95, 19)]
        assert all(a > b for a, b in zip(costs, costs[1:]))

    def test_requires_eta(self):
        with pytest.raises(ParameterError):
            market_order_cost(AssetSpec("X", 1.0))

    def test_matches_exit_lottery(self):
        # price the taker's bet directly: win one zone width plus half a tick
        # on a reversion, lose the same on a continuation
        rng = np.random.default_rng(41)
        n = 400_000
        for eta in (0.1, 0.25, 0.4):
            asset = AssetSpec("X", 1.0, eta=eta)
            p_rev, _ = crossing_probabilities(eta)
            stake = (0.5 + eta) * asset.tick_value
            payoff = np.where(rng.random(n) < p_rev, stake, -stake)
            tol = 4.0 * stake / math.sqrt(n)
            assert float(payoff.mean()) == pytest.approx(market_order_cost(asset), abs=tol)


class TestMarketMakerPnl:
    def test_break_even_spread_is_exact_zero(self):
        for c in (1.0, 1.5, 2.0):
            for sigma in (0.3, 0.017, 2.5):
                assert market_maker_pnl(c * sigma, sigma, c=c) == 0.0

    def test_hand_value(self):
        assert market_maker_pnl(1.0, 0.3, c=2.0) == pytest.approx(0.2)

    def test_closure(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            s = float(rng.uniform(0.01, 2.0))
            sig = float(rng.uniform(0.0, 1.0))
            c = float(rng.uniform(1.0, 2.0))
            assert market_maker_pnl(s, sig, c=c) == pytest.approx(0.5 * (s - c * sig), rel=1e-12, abs=1e-15)

    def test_default_charge_is_conservative(self):
        assert DEFAULT_WYART_C == 2.0
        assert market_maker_pnl(1.0, 0.4) == pytest.approx(0.1)

    def test_validation(self):
        with pytest.raises(ParameterError):
            market_maker_pnl(0.0, 0.1)
        with pytest.raises(ParameterError):
            market_maker_pnl(1.0, -0.1)
        for bad_c in (0.9, 2.1):
            with pytest.raises(ParameterError):
                market_maker_pnl(1.0, 0.1, c=bad_c)


class TestEquilibriumReport:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ParameterError):
            EquilibriumReport(eta=0.25, p_revert=0.6, p_continue=0.5, market_order_cost=0.25)

    def test_report_fields(self):
        asset = AssetSpec("X", 1.0, eta=0.25)
        rep = equilibrium_report(asset)
        assert rep.eta == 0.25
        assert rep.p_revert == pytest.approx(2.0 / 3.0)
        assert rep.p_continue == pytest.approx(1.0 / 3.0)
        assert rep.market_order_cost == pytest.approx(0.25)
        assert rep.maker_pnl_per_trade is None

    def test_report_with_maker_pnl(self):
        asset = AssetSpec("X", 1.0, eta=0.25)
        rep = equilibrium_report(asset, sigma_per_trade=0.3, c=1.5)
        assert rep.maker_pnl_per_trade == pytest.approx(market_maker_pnl(1.0, 0.3, c=1.5))

    def test_construction_valid_across_ratios(self):
        for eta in np.linspace(0.02, 1.0, 25):
            equilibrium_report(AssetSpec("X", 0.01, eta=float(eta)))


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
