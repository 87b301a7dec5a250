"""Tick-change forecasts, the break-even tick, and the shipped fixture."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tickzone.errors import DomainError, ParameterError, TickzoneError
from tickzone.pipeline import fmt_float, tick_table
from tickzone.tick_policy import (
    BETA_PRESETS,
    VERSIONS,
    TickScenario,
    check_large_tick_regime,
    load_reference_assets,
    optimal_tick,
    predict_eta,
    scale_trade_count,
)


def _bobl():
    return TickScenario(alpha0=5.0, eta0=0.268, p1_0=0.91, p2_0=0.08)


class TestTickScenario:
    def test_validation(self):
        # out of range, not a number or infinite: each value is named in its error
        bad_values = {
            "alpha0": (0.0, math.nan, math.inf),
            "alpha": (-1.0, math.nan, math.inf),
            "eta0": (0.0, math.nan, math.inf),
            "m0": (0, math.nan, math.inf),
            "sigma0": (-1.0, math.nan, math.inf),
        }
        for name, values in bad_values.items():
            for bad in values:
                with pytest.raises(ParameterError, match=f"^{name} must"):
                    TickScenario(**{"alpha0": 1.0, "eta0": 0.2, name: bad})

    def test_count_elasticity_range(self):
        for bad in (0.0, 2.0, 2.5, -1.0):
            with pytest.raises(DomainError):
                TickScenario(alpha0=1.0, eta0=0.2, beta=bad)
        TickScenario(alpha0=1.0, eta0=0.2, beta=1.99)


class TestScaleTradeCount:
    def test_unchanged_tick_is_identity(self):
        assert scale_trade_count(12345.0, 0.01, 0.01, 1.0) == 12345.0

    def test_hand_values(self):
        assert scale_trade_count(1000.0, 1.0, 2.0, 1.0) == pytest.approx(500.0)
        assert scale_trade_count(10000.0, 1.0, 4.0, 0.5) == pytest.approx(5000.0)

    def test_composition_closure(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            m0 = float(rng.uniform(100, 1e5))
            a0, a1, a2 = rng.uniform(0.001, 10.0, size=3)
            beta = float(rng.uniform(0.1, 1.9))
            two_hops = scale_trade_count(scale_trade_count(m0, a0, a1, beta), a1, a2, beta)
            assert two_hops == pytest.approx(scale_trade_count(m0, a0, a2, beta), rel=1e-12)

    def test_validation(self):
        with pytest.raises(ParameterError):
            scale_trade_count(0.5, 1.0, 2.0, 1.0)
        with pytest.raises(ParameterError):
            scale_trade_count(100.0, 0.0, 2.0, 1.0)
        with pytest.raises(DomainError):
            scale_trade_count(100.0, 1.0, 2.0, 0.0)


class TestCheckLargeTickRegime:
    def test_zero_volatility_always_large(self):
        assert check_large_tick_regime(0.001, 0.0, 1)

    def test_hand_cases(self):
        assert not check_large_tick_regime(1.0, 100.0, 10_000)
        assert check_large_tick_regime(1.0, 40.0, 10_000)

    def test_validation(self):
        with pytest.raises(ParameterError):
            check_large_tick_regime(0.0, 1.0, 100)
        with pytest.raises(ParameterError):
            check_large_tick_regime(1.0, -1.0, 100)
        with pytest.raises(ParameterError):
            check_large_tick_regime(1.0, 1.0, 0)


class TestPredictEta:
    def test_unchanged_tick_returns_current_ratio(self):
        s = TickScenario(alpha0=5.0, eta0=0.268, alpha=5.0, p1_0=0.91, p2_0=0.08)
        for v in VERSIONS:
            assert predict_eta(s, version=v).eta_pred == pytest.approx(0.268, rel=1e-12)

    def test_tick_doubling_with_fit_coefficients(self):
        # doubling a 5-currency tick with unit count elasticity
        s = TickScenario(alpha0=5.0, eta0=0.268, alpha=10.0, p1_0=0.91, p2_0=0.08, beta=1.0)
        assert predict_eta(s, version=1).eta_pred == pytest.approx(0.164, abs=1e-3)

    def test_tick_doubling_sqrt_elasticity(self):
        s = TickScenario(alpha0=5.0, eta0=0.268, alpha=10.0, p1_0=0.91, p2_0=0.08, beta=0.5)
        assert predict_eta(s, version=1).eta_pred == pytest.approx(0.124, abs=1e-3)

    def test_elasticity_presets_bracket_measured_outcome(self):
        # the same contract traded at both ticks: 0.268 at 5, 0.142 at 10
        lo = predict_eta(TickScenario(5.0, 0.268, 10.0, 0.91, 0.08, beta=1.0), version=1).eta_pred
        hi = predict_eta(TickScenario(5.0, 0.268, 10.0, 0.91, 0.08, beta=0.5), version=1).eta_pred
        assert hi < 0.142 < lo

    def test_bare_power_law_quartering(self):
        s = TickScenario(alpha0=1.0, eta0=0.21, alpha=0.25, beta=1.0)
        assert predict_eta(s, version=3).eta_pred == 2.0 * 0.21

    def test_pooled_intercept_hand_value(self):
        s = TickScenario(alpha0=1.0, eta0=0.2, alpha=2.0, beta=1.0)
        expected = 0.3 / math.sqrt(2.0) - 0.1
        assert predict_eta(s, version=2).eta_pred == pytest.approx(expected, rel=1e-12)

    def test_warning_when_leaving_one_tick_regime(self):
        s = TickScenario(alpha0=1.0, eta0=0.3, alpha=0.25, beta=1.0)
        fc = predict_eta(s, version=3)
        assert fc.eta_pred == pytest.approx(0.6)
        assert fc.warning is not None
        assert not fc.in_large_tick_regime
        ok = predict_eta(TickScenario(alpha0=1.0, eta0=0.3, alpha=2.0, beta=1.0), version=3)
        assert ok.warning is None
        assert ok.in_large_tick_regime

    def test_regime_check_uses_scaled_counts_when_given(self):
        base = dict(alpha0=1.0, eta0=0.2, alpha=2.0, beta=1.0, m0=10_000.0)
        assert predict_eta(TickScenario(**base, sigma0=40.0), version=3).in_large_tick_regime
        assert not predict_eta(TickScenario(**base, sigma0=80.0), version=3).in_large_tick_regime

    def test_monotone_decreasing_in_new_tick(self):
        ticks = np.linspace(2.0, 20.0, 12)
        for v in VERSIONS:
            preds = [
                predict_eta(TickScenario(5.0, 0.268, float(a), 0.91, 0.08), version=v).eta_pred
                for a in ticks
            ]
            assert all(a > b for a, b in zip(preds, preds[1:]))

    def test_validation(self):
        s = TickScenario(alpha0=5.0, eta0=0.268, alpha=10.0, p1_0=0.91, p2_0=0.08)
        with pytest.raises(ParameterError):
            predict_eta(s, version=4)
        with pytest.raises(ParameterError):
            predict_eta(_bobl(), version=1)  # no candidate tick
        bare = TickScenario(alpha0=5.0, eta0=0.268, alpha=10.0)
        with pytest.raises(ParameterError):
            predict_eta(bare, version=1)


class TestOptimalTick:
    def test_break_even_at_half_needs_no_move(self):
        s = TickScenario(alpha0=7.0, eta0=0.5)
        assert optimal_tick(s, version=3) == 7.0

    def test_pooled_hand_value(self):
        s = TickScenario(alpha0=1.0, eta0=0.2, beta=1.0)
        assert optimal_tick(s, version=2) == pytest.approx(0.25, rel=1e-12)

    def test_forecast_at_the_optimal_tick_is_one_half(self):
        # solving then forecasting closes the loop, all versions and elasticities
        for eta0 in (0.1, 0.25, 0.4):
            for beta in (0.5, 1.0, 1.5):
                for p1, p2 in ((0.91, 0.08), (1.2, 0.0), (0.7, 0.2)):
                    s = TickScenario(alpha0=5.0, eta0=eta0, p1_0=p1, p2_0=p2, beta=beta)
                    for v in VERSIONS:
                        a_star = optimal_tick(s, version=v)
                        at_star = TickScenario(
                            alpha0=5.0, eta0=eta0, alpha=a_star, p1_0=p1, p2_0=p2, beta=beta
                        )
                        assert predict_eta(at_star, version=v).eta_pred == pytest.approx(0.5, rel=1e-12)

    def test_fit_version_collapses_without_spread_term(self):
        # p1 = 1, p2 = 0 makes the fitted and bare formulas identical floats
        s13 = TickScenario(alpha0=5.0, eta0=0.268, alpha=10.0, p1_0=1.0, p2_0=0.0, beta=0.5)
        assert optimal_tick(s13, version=1) == optimal_tick(s13, version=3)
        assert predict_eta(s13, version=1).eta_pred == predict_eta(s13, version=3).eta_pred

    def test_fit_version_collapses_onto_pooled_intercept(self):
        s12 = TickScenario(alpha0=5.0, eta0=0.268, alpha=10.0, p1_0=1.0, p2_0=0.1, beta=1.0)
        assert optimal_tick(s12, version=1) == optimal_tick(s12, version=2)
        assert predict_eta(s12, version=1).eta_pred == predict_eta(s12, version=2).eta_pred

    @pytest.mark.parametrize("eta0", [0.7, 0.2])
    def test_tick_past_the_float_range(self, eta0):
        # the power 1 / (1 - beta / 2) = 2e7 overflows for a base above 1 and underflows to 0 below it
        s = TickScenario(alpha0=0.01, eta0=eta0, beta=1.9999999)
        with pytest.raises(DomainError, match="beta 1.9999999 puts the optimal tick .* out of the float range"):
            optimal_tick(s, version=3)

    def test_validation(self):
        with pytest.raises(ParameterError):
            optimal_tick(_bobl(), version=0)
        with pytest.raises(ParameterError):
            optimal_tick(TickScenario(alpha0=5.0, eta0=0.268), version=1)


class TestReferenceFixture:
    def test_row_count_and_ids(self):
        refs = load_reference_assets()
        assert [r.asset_id for r in refs] == [
            "BUS5", "DJ", "EURO", "SP", "Bobl 1", "Bobl 2",
            "Bund", "DAX", "ESX", "Schatz", "CL",
        ]

    def test_shared_fit_across_tick_regimes(self):
        by_id = {r.asset_id: r for r in load_reference_assets()}
        assert (by_id["Bobl 1"].p1, by_id["Bobl 1"].p2) == (0.91, 0.08)
        assert (by_id["Bobl 2"].p1, by_id["Bobl 2"].p2) == (0.91, 0.08)
        assert by_id["Bobl 1"].tick_value == 5.0
        assert by_id["Bobl 2"].tick_value == 10.0

    def test_all_rows_are_large_tick(self):
        for r in load_reference_assets():
            assert 0.0 < r.eta < 0.5
            assert r.frac_one_tick > 70.0
            assert r.trades_per_day > 1000

    def test_scenario_builder(self):
        ref = next(r for r in load_reference_assets() if r.asset_id == "Bobl 1")
        s = ref.scenario(beta=0.5, alpha=10.0)
        assert (s.alpha0, s.eta0, s.alpha, s.beta) == (5.0, 0.268, 10.0, 0.5)
        assert (s.p1_0, s.p2_0, s.m0) == (0.91, 0.08, 18531.0)


def _reference_scenarios(assets=None):
    return {a.asset_id: a.scenario() for a in assets or load_reference_assets()}


class TestOptimalTickTable:
    def test_spot_values_against_fixture(self):
        header, rows = tick_table(_reference_scenarios(), BETA_PRESETS, VERSIONS, [])
        by_id = {row[0]: dict(zip(header, row)) for row in rows}
        assert float(by_id["BUS5"]["v1_beta1"]) == pytest.approx(2.7, abs=0.1)
        assert float(by_id["BUS5"]["v1_beta0.5"]) == pytest.approx(3.8, abs=0.1)
        assert float(by_id["ESX"]["v1_beta1"]) == pytest.approx(1.3, abs=0.1)

    def test_full_grid_shape(self):
        skipped = []
        header, rows = tick_table(_reference_scenarios(), BETA_PRESETS, VERSIONS, skipped)
        assert header == ["asset_id", "tick_value"] + [
            f"v{v}_beta{b:g}" for v in VERSIONS for b in BETA_PRESETS
        ]
        assert len(rows) == 11 and not skipped
        for row in rows:
            assert len(row) == len(header) and all(row)

    def test_subset_matches_direct_call(self):
        bus5 = next(r for r in load_reference_assets() if r.asset_id == "BUS5")
        header, rows = tick_table(_reference_scenarios([bus5]), (1.0,), (1,), [])
        assert header == ["asset_id", "tick_value", "v1_beta1"]
        v1 = optimal_tick(bus5.scenario(beta=1.0), version=1)
        assert rows == [["BUS5", fmt_float(bus5.tick_value), fmt_float(v1)]]

    def test_betas_sharing_a_label_are_rejected(self):
        with pytest.raises(ParameterError, match="share a column label"):
            tick_table(_reference_scenarios(), (1.0000001, 1.0), VERSIONS, [])

    def test_blank_cell_names_its_cause(self):
        # eta0 p1 + p2 = 0.15 * 0.366 - 0.074 < 0: the version-1 line gives no positive tick
        scenario = TickScenario(alpha0=0.01, eta0=0.15, p1_0=0.366, p2_0=-0.074)
        skipped = []
        header, rows = tick_table({"A3": scenario}, BETA_PRESETS, VERSIONS, skipped)
        cells = dict(zip(header, rows[0]))
        assert cells["v1_beta1"] == cells["v1_beta0.5"] == ""
        assert all(cells[f"v{v}_beta{b:g}"] for v in (2, 3) for b in BETA_PRESETS)
        assert skipped == [
            "optimal_ticks A3 v1 beta1: scenario implies a non-positive tick",
            "optimal_ticks A3 v1 beta0.5: scenario implies a non-positive tick",
        ]

    @settings(max_examples=300, deadline=None)
    @given(eta0=st.floats(), p1=st.floats(), p2=st.floats(), beta=st.floats())
    # 0.5 p1 + p2 = 0 divides by zero in the version-1 line, and so does 0 / 0 at eta0 = 1/2
    @example(eta0=0.2, p1=1.0, p2=-0.5, beta=1.0)
    @example(eta0=0.5, p1=1.0, p2=-0.5, beta=1.0)
    def test_any_fit_and_beta_give_a_table_or_a_tickzone_error(self, eta0, p1, p2, beta):
        try:
            scenario = TickScenario(alpha0=0.01, eta0=eta0, p1_0=p1, p2_0=p2)
            skipped = []
            header, rows = tick_table({"A": scenario}, (beta,), VERSIONS, skipped)
        except TickzoneError:
            return
        assert len(rows[0]) == len(header) == 2 + len(VERSIONS)
        # a blank cell is named in skipped, and a filled one holds a positive finite tick
        assert len(skipped) == rows[0][2:].count("")
        assert all(0.0 < float(cell) < math.inf for cell in rows[0][2:] if cell)
