"""Estimator unit tests with hand-computed oracles."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import tape_from_rows
from tickzone.domain import AssetSpec, TradeTape
from tickzone.errors import (
    DegenerateTapeError,
    DomainError,
    InsufficientDataError,
    ParameterError,
    PartialDataError,
)
from tickzone.estimators import (
    ETA_FLAG_THRESHOLD,
    AlternationCounts,
    DailyRecord,
    build_daily_record,
    check_sampling,
    count_alternations,
    empirical_roll_measure,
    estimate_eta,
    estimate_integrated_variance,
    recover_efficient_prices,
    roll_implicit_measure,
    signature_plot,
    spread_stats,
)
from tickzone.regression import fit_spread_vol
from tickzone.simulator import EfficientPathSpec, TapeConfig, simulate_day


def _asset(tick=0.5, eta=0.25):
    return AssetSpec("TST", tick, eta=eta)


def _tape_from_moves(directions, tick=0.5, opening=100.0):
    """One trade per move, one second apart, one-tick quotes under the print."""
    a = _asset(tick)
    rows = []
    price = opening
    for i, d in enumerate(directions):
        price += d * tick
        rows.append((float(i + 1), price, price - tick, price))
    return tape_from_rows(a, rows, session_length=len(directions) + 1.0, opening_price=opening)


class TestCountAlternations:
    def test_pure_alternation(self):
        c = count_alternations([1, -1, 1, -1, 1])
        assert c.n_alternations == 4
        assert c.n_continuations == 0

    def test_pure_continuation(self):
        c = count_alternations([1, 1, 1, 1])
        assert c.n_alternations == 0
        assert c.n_continuations == 3

    def test_mixed_hand_count(self):
        c = count_alternations([1, 1, -1, 1, -1, -1])
        assert (c.n_alternations, c.n_continuations) == (3, 2)

    def test_counts_sum_to_changes_minus_one(self):
        d = [1, -1, -1, 1, 1, 1, -1]
        c = count_alternations(d)
        assert c.n_alternations + c.n_continuations == len(d) - 1

    def test_needs_two_changes(self):
        with pytest.raises(InsufficientDataError):
            count_alternations([1])
        with pytest.raises(InsufficientDataError):
            count_alternations([])

    def test_zero_direction_rejected(self):
        # the abs of INT64_MIN wraps around to itself, so it must not pass for a direction either
        int64_min = np.iinfo(np.int64).min
        for d in ([1, 0, -1], [0], [0, 0], [1, int64_min], [int64_min], [-1, 2], [-3, 1]):
            with pytest.raises(ParameterError, match=r"directions must be \+1 or -1"):
                count_alternations(np.array(d, dtype=np.int64))

    def test_negative_counts_rejected(self):
        with pytest.raises(ParameterError):
            AlternationCounts(n_alternations=-1, n_continuations=0)


class TestEstimateEta:
    def test_no_continuations_gives_zero(self):
        assert estimate_eta(AlternationCounts(4, 0)) == 0.0

    def test_hand_values(self):
        assert estimate_eta(AlternationCounts(2, 1)) == 0.25
        assert estimate_eta(AlternationCounts(1, 1)) == 0.5
        assert estimate_eta(AlternationCounts(10, 30)) == 1.5

    def test_no_alternations_is_degenerate(self):
        with pytest.raises(DegenerateTapeError):
            estimate_eta(AlternationCounts(0, 7))


class TestRecoverEfficientPrices:
    def test_single_up_move(self):
        t, x = recover_efficient_prices((np.array([3.0]), np.array([101.0]), np.array([1])), 0.25, 1.0)
        assert t[0] == 3.0
        assert x[0] == pytest.approx(100.75)

    def test_half_ratio_is_identity(self):
        p = np.array([100.0, 100.5, 100.0])
        d = np.array([1, 1, -1])
        _, x = recover_efficient_prices((np.zeros(3), p, d), 0.5, 0.5)
        assert np.array_equal(x, p)

    def test_ratio_bounds(self):
        # the formula holds for any eta_hat >= 0; only negatives are rejected
        args = (np.array([0.0]), np.array([100.0]), np.array([1]))
        assert recover_efficient_prices(args, 0.0, 1.0)[1][0] == pytest.approx(99.5)
        assert recover_efficient_prices(args, 1.2, 1.0)[1][0] == pytest.approx(100.7)
        for bad in (-0.1, float("nan")):
            with pytest.raises(ParameterError):
                recover_efficient_prices(args, bad, 1.0)

    def test_tick_value_positive(self):
        args = (np.array([0.0]), np.array([100.0]), np.array([1]))
        with pytest.raises(ParameterError):
            recover_efficient_prices(args, 0.25, 0.0)

    def test_true_ratio_lands_on_barriers(self, sim_days):
        # with the true ratio the proxy reproduces the crossing levels exactly
        for eta, (tape, truth) in sim_days.days.items():
            ch = truth.price_changes
            _, xhat = recover_efficient_prices((ch.times, ch.new_prices, ch.directions), eta, 0.01)
            assert np.allclose(xhat, ch.efficient_prices, rtol=0, atol=1e-9)


class TestIntegratedVariance:
    def test_hand_value(self):
        assert estimate_integrated_variance([100.0, 100.75, 100.0]) == pytest.approx(1.125)

    def test_constant_prices(self):
        assert estimate_integrated_variance([100.0, 100.0, 100.0]) == 0.0

    def test_needs_two_points(self):
        with pytest.raises(InsufficientDataError):
            estimate_integrated_variance([100.0])


class TestSignaturePlot:
    def _single_jump_tape(self):
        a = _asset(tick=0.5)
        rows = [
            (2.0, 100.0, 99.5, 100.0),
            (10.3, 100.5, 100.0, 100.5),
            (70.0, 100.5, 100.0, 100.5),
        ]
        return tape_from_rows(a, rows, session_length=100.0, opening_price=100.0)

    def test_constant_tape_is_flat_zero(self):
        a = _asset()
        rows = [(5.0, 100.0, 99.5, 100.0)]
        tape = tape_from_rows(a, rows, session_length=60.0, opening_price=100.0)
        curve = signature_plot(tape, samples_per_second=1.0, lag_max=50)
        assert set(curve.values()) == {0.0}

    def test_single_jump_counts_once_at_every_lag(self):
        # any sampling stride crosses the lone jump exactly once
        curve = signature_plot(self._single_jump_tape(), samples_per_second=1.0, lag_max=50)
        assert list(curve.values()) == pytest.approx([0.25] * 50)

    def test_lags_and_values_sorted(self):
        # the lags come in increasing order, each with its own realized variance
        tape = self._single_jump_tape()
        curve = signature_plot(tape, samples_per_second=1.0, lag_max=3)
        assert list(curve) == [1, 2, 3]
        for lag, rv in curve.items():
            assert rv == signature_plot(tape, samples_per_second=1.0, lag_max=lag)[lag]

    def test_previous_tick_sampling_before_first_trade(self):
        # grid points before the first change read the opening price
        tape = self._single_jump_tape()
        curve = signature_plot(tape, samples_per_second=0.5, lag_max=2)
        # samples at t = 0,2,...: eleven points below 10.3s would all be opening
        assert curve[1] == pytest.approx(0.25)

    def test_validation(self):
        tape = self._single_jump_tape()
        for bad in (0.0, math.nan, math.inf):
            with pytest.raises(ParameterError):
                signature_plot(tape, samples_per_second=bad)
        with pytest.raises(ParameterError):
            signature_plot(tape, lag_max=0)
        with pytest.raises(InsufficientDataError):
            signature_plot(tape, samples_per_second=1.0, lag_max=200)
        empty = TradeTape(_asset(), [], [], [], [], 10.0, 200_000_000)
        with pytest.raises(InsufficientDataError):
            signature_plot(empty)

    def test_lag_bound_is_checked_without_a_tape(self):
        check_sampling(1e6, 10**6)
        for bad in (0, 10**6 + 1, 10**20):
            with pytest.raises(ParameterError, match=rf"lag_max must lie in \[1, 1000000\], got {bad}"):
                check_sampling(1.0, bad)

    def test_rate_that_overflows_the_span_is_refused(self):
        with pytest.raises(ParameterError, match=r"samples_per_second 1e\+307 over 100 s overflows"):
            signature_plot(self._single_jump_tape(), samples_per_second=1e307, lag_max=2)

    # 16 arrays of 8 B per change and 128 B per curve entry, plus 64 kB; a grid outgrows it at every rate here
    @pytest.mark.parametrize("samples_per_second, changes, lag_max", [
        (1e9, 1, 2), (1e300, 1, 2), (10_000.0, 20_000, 2_000), (1e6, 20_000, 50),
    ])
    def test_memory_grows_with_changes_plus_lags(self, samples_per_second, changes, lag_max):
        if changes == 1:
            tape = self._single_jump_tape()
        else:
            tape = _tape_from_moves([1, -1] * (changes // 2))
        tracemalloc.start()
        try:
            curve = signature_plot(tape, samples_per_second=samples_per_second, lag_max=lag_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(curve) == lag_max and all(rv > 0 for rv in curve.values())
        assert peak <= 128 * (tape.n_changes + lag_max) + 65_536


def _grid_signature(tape, samples_per_second, lag_max):
    """The signature curve from the materialised grid of every sample: the oracle of the event-time form."""
    n_grid = int(math.floor(tape.session_length * samples_per_second + 1e-9)) + 1
    ladder = np.concatenate(([tape.opening_price], tape.change_prices))
    sampled = ladder[np.searchsorted(tape.change_times, np.arange(n_grid) / samples_per_second, side="right")]
    return {lag: estimate_integrated_variance(sampled[::lag]) for lag in range(1, lag_max + 1)}


@st.composite
def _sampled_tapes(draw):
    """(samples per second, session length, change times, directions, lag_max) with a grid of at most 10^5 points;
    the rates are ratios of small integers, mostly not dyadic, some change times fall on or just after grid
    times, and some are tied."""
    rate = draw(st.integers(1, 1000)) / draw(st.integers(1, 9))
    session_length = draw(st.floats(1.0, 100.0))
    span = session_length * rate
    assume(span >= 1.0)
    on_grid = st.integers(0, math.floor(span)).map(lambda j: j / rate)
    just_after = on_grid.map(lambda t: math.nextafter(t, math.inf))
    anywhere = st.floats(0.0, session_length)
    times = sorted(draw(st.lists(st.one_of(on_grid, just_after, anywhere), min_size=1, max_size=40)))
    directions = draw(st.lists(st.sampled_from([-1, 1]), min_size=len(times), max_size=len(times)))
    return rate, session_length, times, directions, draw(st.integers(1, min(60, math.floor(span))))


@given(_sampled_tapes())
# a change at t = 0 is read by the sample at index 0, in place of the opening price
@example((1 / 3, 30.0, [0.0, 4.5], [1, -1], 3))
# a change on grid time 7 / rate, where t * rate rounds up to 7.000000000000001
@example((1000 / 7, 1.0, [7 / (1000 / 7), 7.5 / (1000 / 7)], [1, -1], 4))
# a change one ulp after grid time 3.0, where t * rate rounds down to 1.0
@example((1 / 3, 30.0, [math.nextafter(3.0, math.inf), 5.0], [1, -1], 2))
# three changes tied on grid time 3.0: the sample there reads the last of them
@example((1.0, 10.0, [3.0, 3.0, 3.0, 4.0], [1, -1, -1, 1], 2))
# two changes tied at t = 0: the sample at index 0 reads the second
@example((1 / 3, 30.0, [0.0, 0.0, 4.5], [1, 1, -1], 3))
@settings(max_examples=200, deadline=None)
def test_event_time_curve_equals_the_grid(case):
    rate, session_length, times, directions, lag_max = case
    rows, price = [], 100.0
    for t, d in zip(times, directions):
        price += d * 0.5
        rows.append((t, price, price - 0.5, price))
    tape = tape_from_rows(_asset(), rows, session_length=session_length, opening_price=100.0)
    curve = signature_plot(tape, samples_per_second=rate, lag_max=lag_max)
    want = _grid_signature(tape, rate, lag_max)
    assert list(curve) == list(want)
    for lag, rv in curve.items():
        assert rv == pytest.approx(want[lag], rel=1e-13, abs=0), lag


class TestRollMeasures:
    def test_implicit_hand_values(self):
        assert roll_implicit_measure(0.5, 1.0) == 0.0
        assert roll_implicit_measure(0.25, 1.0) == pytest.approx(math.sqrt(2.0 / 3.0))
        # the bound as the zone vanishes is sqrt(2) ticks
        assert roll_implicit_measure(1e-12, 2.0) == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-9)

    def test_implicit_validation(self):
        with pytest.raises(DomainError):
            roll_implicit_measure(0.6, 1.0)
        with pytest.raises(ParameterError):
            roll_implicit_measure(0.0, 1.0)
        with pytest.raises(ParameterError):
            roll_implicit_measure(1.5, 1.0)
        with pytest.raises(ParameterError):
            roll_implicit_measure(0.25, -1.0)

    def test_empirical_alternating_path(self):
        # a perfectly bouncing price has Roll spread sqrt(2) ticks
        alpha = 0.5
        p = 100.0 + alpha * (np.arange(1000) % 2)
        assert empirical_roll_measure(p) == pytest.approx(math.sqrt(2) * alpha, rel=0.02)

    def test_empirical_trending_path_clips_to_zero(self):
        p = 100.0 + 0.5 * np.arange(10)
        assert empirical_roll_measure(p) == 0.0

    def test_empirical_needs_three_prices(self):
        with pytest.raises(InsufficientDataError):
            empirical_roll_measure([100.0, 100.5])


class TestSpreadStats:
    def test_all_one_tick(self):
        tape = _tape_from_moves([1, -1, 1, 0])
        avg, frac = spread_stats(tape)
        assert avg == pytest.approx(0.5)
        assert frac == 100.0

    def test_mixed_widths(self):
        a = _asset(tick=0.5)
        rows = [
            (1.0, 100.0, 99.5, 100.0),
            (2.0, 100.0, 99.5, 100.5),
        ]
        tape = tape_from_rows(a, rows, session_length=10.0, opening_price=100.0)
        avg, frac = spread_stats(tape)
        assert avg == pytest.approx(0.75)
        assert frac == 50.0

    def test_missing_quotes_reported_with_rows(self):
        a = _asset(tick=0.5)
        rows = [
            (1.0, 100.0, 99.5, 100.0),
            (2.0, 100.0, None, None),
            (3.0, 100.0, None, 100.5),
        ]
        tape = tape_from_rows(a, rows, session_length=10.0, opening_price=100.0)
        with pytest.raises(PartialDataError) as err:
            spread_stats(tape)
        assert list(err.value.rows) == [1, 2]

    def test_empty_tape(self):
        empty = TradeTape(_asset(), [], [], [], [], 10.0, 200_000_000)
        with pytest.raises(InsufficientDataError):
            spread_stats(empty)


class TestDailyRecord:
    def _kw(self, **over):
        kw = dict(
            date="2009-06-01",
            asset_id="TST",
            eta_hat=0.2,
            alpha=0.5,
            sigma_hat=1.3,
            m_trades=500,
            avg_spread=0.55,
            frac_one_tick=92.0,
        )
        kw.update(over)
        return kw

    def test_valid(self):
        rec = DailyRecord(**self._kw())
        assert rec.asset_id == "TST"
        assert not rec.eta_flagged

    def test_validation(self):
        for bad in (
            {"eta_hat": -0.1},
            {"alpha": 0.0},
            {"sigma_hat": -1.0},
            {"m_trades": 0},
            {"avg_spread": 0.4},
            {"frac_one_tick": 101.0},
            {"frac_one_tick": -5.0},
        ):
            with pytest.raises(ParameterError):
                DailyRecord(**self._kw(**bad))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["eta_hat", "alpha", "sigma_hat", "avg_spread", "frac_one_tick"])
    def test_non_finite_value_is_refused(self, name, value):
        with pytest.raises(ParameterError, match=f"^{name} must be finite, got {value!r}$"):
            DailyRecord(**self._kw(**{name: value}))

    def test_spread_exactly_one_tick_allowed(self):
        DailyRecord(**self._kw(avg_spread=0.5))

    def test_flag_threshold_is_strict(self):
        assert DailyRecord(**self._kw(eta_hat=0.56)).eta_flagged
        assert not DailyRecord(**self._kw(eta_hat=ETA_FLAG_THRESHOLD)).eta_flagged


class TestBuildDailyRecord:
    def test_fields_match_component_estimators(self, sim_days):
        tape, _ = sim_days.days[0.25]
        rec = build_daily_record(tape, date="2026-03-02")
        counts = count_alternations(tape.change_directions)
        eta_hat = estimate_eta(counts)
        _, xhat = recover_efficient_prices(tape, eta_hat, 0.01)
        assert rec.date == "2026-03-02"
        assert rec.eta_hat == eta_hat
        assert rec.alpha == 0.01
        assert rec.sigma_hat == pytest.approx(math.sqrt(estimate_integrated_variance(xhat)), rel=1e-12)
        assert rec.m_trades == len(tape)
        assert (rec.avg_spread, rec.frac_one_tick) == spread_stats(tape)

    @pytest.mark.parametrize("date", ["2009-06-02", ""], ids=["dated", "undated"])
    def test_error_is_the_estimators_own(self, date):
        # the caller that reports the error names the asset and the day
        tape = _tape_from_moves([1])
        with pytest.raises(InsufficientDataError) as err:
            build_daily_record(tape, date=date)
        with pytest.raises(InsufficientDataError) as own:
            count_alternations(tape.change_directions)
        assert str(err.value) == str(own.value) == "need at least 2 price changes to compare directions, got 1"

    def test_deterministic(self, sim_days):
        tape, _ = sim_days.days[0.40]
        assert build_daily_record(tape, date="d") == build_daily_record(tape, date="d")

    def test_error_keeps_its_data(self):
        a = _asset(tick=0.5)
        rows = [
            (1.0, 100.5, 100.0, 100.5),
            (2.0, 100.0, None, None),
            (3.0, 100.5, 100.0, 100.5),
        ]
        tape = tape_from_rows(a, rows, session_length=10.0, opening_price=100.0)
        with pytest.raises(PartialDataError, match=r"^missing quotes on rows 1$") as err:
            build_daily_record(tape, date="2009-06-03")
        assert err.value.rows == [1]

    def test_out_of_range_ratios_are_kept(self):
        # five continuations against one alternation: eta_hat = 5 / 2
        high = build_daily_record(_tape_from_moves([1, 1, 1, 1, -1, -1, -1]), date="d")
        assert high.eta_hat == 2.5
        assert high.eta_flagged
        # no continuations at all: a zero ratio is flagged too
        zero = build_daily_record(_tape_from_moves([1, -1, 1, -1]), date="d")
        assert zero.eta_hat == 0.0
        assert zero.eta_flagged

    def test_flagged_day_left_out_of_the_fit(self):
        high = build_daily_record(_tape_from_moves([1, 1, 1, 1, -1, -1, -1]), date="d")
        zero = build_daily_record(_tape_from_moves([1, -1, 1, -1]), date="d")
        normal = [
            DailyRecord(
                date=f"d{i}", asset_id="TST", eta_hat=eta, alpha=0.5, sigma_hat=sigma,
                m_trades=m, avg_spread=spread, frac_one_tick=90.0,
            )
            for i, (eta, sigma, m, spread) in enumerate(
                [(0.2, 1.3, 500, 0.55), (0.3, 2.1, 900, 0.6), (0.25, 1.2, 400, 0.52),
                 (0.15, 1.9, 1200, 0.58), (0.35, 1.0, 300, 0.7)]
            )
        ]
        fit = fit_spread_vol(normal + [high, zero])
        assert fit.n_days == len(normal)
        assert fit == fit_spread_vol(normal)
        assert fit_spread_vol(normal + [high, zero], exclude_flagged=False).n_days == len(normal) + 2


@given(st.lists(st.sampled_from([-1, 1]), min_size=2, max_size=200))
@settings(max_examples=50, deadline=None)
def test_counts_invariant_under_sign_flip(moves):
    d = np.array(moves)
    c = count_alternations(d)
    assert c == count_alternations(-d)
    assert c.n_alternations + c.n_continuations == len(d) - 1


@given(
    st.lists(st.floats(min_value=-100, max_value=100), min_size=2, max_size=50),
    st.floats(min_value=-1000, max_value=1000),
)
@settings(max_examples=50, deadline=None)
def test_variance_shift_invariant(xs, shift):
    x = np.asarray(xs)
    base = estimate_integrated_variance(x)
    assert estimate_integrated_variance(x + shift) == pytest.approx(base, rel=1e-9, abs=1e-9)


@given(eta=st.floats(0.05, 0.5), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_variance_of_a_simulated_day_is_set_by_eta_hat_and_the_change_count(eta, seed):
    # a continuation moves the recovered price one tick and an alternation 2 eta_hat ticks; with
    # eta_hat = continuations / (2 alternations) the squared moves sum to 2 eta_hat alpha^2 (changes - 1)
    spec = EfficientPathSpec(x0=100.0, volatility=0.003, horizon=3600.0)
    tape, _ = simulate_day(spec, _asset(tick=0.01, eta=eta), TapeConfig(trade_intensity=0.2, seed=seed))
    try:
        record = build_daily_record(tape, date="d")
    except (InsufficientDataError, DegenerateTapeError):
        assume(False)
    identity = 2.0 * record.eta_hat * record.alpha**2 * (tape.n_changes - 1)
    assert record.sigma_hat**2 == pytest.approx(identity, rel=1e-11)
