"""Event-by-event price changes, their exit-time oracles, and tape assembly."""
import math
import tracemalloc

import numpy as np
import pytest

from tickzone import (
    AssetSpec,
    EfficientPathSpec,
    ParameterError,
    PriceChangeSeries,
    TapeConfig,
    equilibrium_fill_rate,
    generate_tape,
    simulate_day,
)
from tickzone import simulator
from tickzone.simulator import _interval_exits, _strictly_increasing_ms, _unit_exit_times


# ------------------------------------------------------------ latent price

class TestEfficientPath:
    def test_zero_volatility_path_is_constant(self):
        asset = AssetSpec("A", 1.0, eta=0.25)
        spec = EfficientPathSpec(x0=100.0, volatility=0.0, horizon=10.0)
        tape, truth = simulate_day(spec, asset, TapeConfig(trade_intensity=2.0, seed=0))
        assert truth.n_price_changes == 0
        assert truth.integrated_variance == 0.0
        assert len(tape) > 0
        assert np.all(tape.prices() == 100.0)

    def test_increment_variance_matches_sigma(self):
        # the latent price at its barrier hits is a martingale whose squared
        # increments add up to the integrated variance
        asset = AssetSpec("A", 0.01, eta=0.25)
        spec = EfficientPathSpec(x0=0.0, volatility=0.02, horizon=10_000.0)
        _, truth = simulate_day(spec, asset, TapeConfig(seed=42))
        assert truth.integrated_variance == pytest.approx(0.02**2 * 10_000.0, rel=1e-12)
        d = np.diff(truth.price_changes.efficient_prices)
        assert float(d @ d) == pytest.approx(truth.integrated_variance, rel=0.03)

    def test_piecewise_volatility_schedule(self):
        asset = AssetSpec("A", 0.01, eta=0.25)
        spec = EfficientPathSpec(x0=0.0, volatility=[(0.0, 0.0), (50.0, 0.1)], horizon=100.0)
        _, truth = simulate_day(spec, asset, TapeConfig(seed=1))
        times = truth.price_changes.times
        assert len(times) > 1000
        assert times[0] > 50.0  # silent first half
        assert truth.integrated_variance == pytest.approx(0.1**2 * 50.0, rel=1e-12)

    def test_schedule_validation(self):
        with pytest.raises(ParameterError, match="empty"):
            EfficientPathSpec(x0=0.0, volatility=[], horizon=1.0)
        with pytest.raises(ParameterError, match="start at time 0"):
            EfficientPathSpec(x0=0.0, volatility=[(1.0, 0.1)], horizon=2.0)
        with pytest.raises(ParameterError, match="duplicate"):
            EfficientPathSpec(x0=0.0, volatility=[(0.0, 0.1), (0.0, 0.2)], horizon=1.0)
        with pytest.raises(ParameterError, match=">= 0"):
            EfficientPathSpec(x0=0.0, volatility=-0.1, horizon=1.0)

    def test_spec_validation(self):
        with pytest.raises(ParameterError, match="horizon"):
            EfficientPathSpec(x0=0.0, volatility=1.0, horizon=0.0)
        with pytest.raises(ParameterError, match="horizon"):
            EfficientPathSpec(x0=0.0, volatility=1.0, horizon=-5.0)


# ------------------------------------------------------------- exit sampler

def _theta_survival(t: float) -> float:
    """P(T > t) for the exit time of a standard Brownian motion from (-1, 1), 200 terms."""
    return 4.0 / math.pi * sum(
        (-1) ** k / (2 * k + 1) * math.exp(-((2 * k + 1) ** 2) * math.pi**2 * t / 8.0)
        for k in range(200)
    )


def _per_round_interval_exits(lo, hi, n, rng):
    """The walk with one unit-exit-time solve per round: the oracle of the one-solve walk."""
    x = np.zeros(n)
    times = np.zeros(n)
    at_hi = np.zeros(n, dtype=bool)
    live = np.arange(n)
    while len(live):
        xl = x[live]
        c = np.minimum(xl + lo, hi - xl)
        draws = rng.random((2, len(live)))
        times[live] += c * c * _unit_exit_times(draws[0] + 2.0**-55)
        up = draws[1] < 0.5
        hit_hi = up & (hi - xl <= c)
        done = hit_hi | (~up & (xl + lo <= c))
        at_hi[live[done]] = hit_hi[done]
        x[live] = np.where(up, xl + c, xl - c)
        live = live[~done]
    return times, at_hi


class TestExactExits:
    def test_unit_exit_time_inverts_the_theta_series(self):
        u = np.concatenate(
            [np.logspace(-12, -1, 23), np.linspace(0.15, 0.85, 15), 1.0 - np.logspace(-1, -12, 23)]
        )
        t = _unit_exit_times(u)
        assert np.all(np.diff(t) < 0)
        for ui, ti in zip(u, t):
            assert abs(_theta_survival(float(ti)) - ui) <= 1e-13 + 1e-12 * ui

    @pytest.mark.parametrize("lo, hi", [(0.2, 1.0), (0.5, 1.0), (0.37, 0.91)])
    def test_exit_moments_and_sides(self, lo, hi):
        # closed forms for an exit from (-lo, hi): E tau = lo hi,
        # Var tau = lo hi (lo^2 + hi^2) / 3, P(exit at hi) = lo / (lo + hi)
        n = 200_000
        tau, at_hi = _interval_exits(lo, hi, n, np.random.default_rng(11))
        mean, var = lo * hi, lo * hi * (lo**2 + hi**2) / 3.0
        assert abs(tau.mean() - mean) <= 5.0 * math.sqrt(var / n)
        fourth = float(np.mean((tau - tau.mean()) ** 4))
        assert abs(tau.var() - var) <= 5.0 * math.sqrt((fourth - tau.var() ** 2) / n)
        p = lo / (lo + hi)
        assert abs(at_hi.mean() - p) <= 5.0 * math.sqrt(p * (1.0 - p) / n)

    @pytest.mark.parametrize("eta", [0.10, 0.25, 0.40])
    def test_mean_change_count(self, eta):
        # sigma^2 t / (2 eta tick^2) changes a day, with renewal-count spread
        asset = AssetSpec("A", 0.01, eta=eta)
        sigma, horizon, days = 0.003, 3600.0, 20
        spec = EfficientPathSpec(x0=100.0, volatility=sigma, horizon=horizon)
        counts = [simulate_day(spec, asset, TapeConfig(seed=s))[1].n_price_changes for s in range(days)]
        expected = sigma**2 * horizon / (2.0 * eta * 0.01**2)
        cv2 = (1.0 + 4.0 * eta**2) / (6.0 * eta)  # squared coefficient of variation of one exit
        assert abs(np.mean(counts) - expected) <= 5.0 * math.sqrt(expected * cv2 / days)

    def test_silent_hour_has_no_changes(self):
        asset = AssetSpec("A", 0.01, eta=0.25)
        s = 0.003
        schedule = [(0.0, s), (3600.0, 0.0), (7200.0, 2 * s)]
        spec = EfficientPathSpec(x0=100.0, volatility=schedule, horizon=10_800.0)
        _, truth = simulate_day(spec, asset, TapeConfig(seed=8))
        t = truth.price_changes.times
        assert np.count_nonzero((t > 3600.0) & (t < 7200.0)) == 0
        assert np.count_nonzero(t <= 3600.0) > 100
        assert np.count_nonzero(t >= 7200.0) > 100
        assert truth.integrated_variance == pytest.approx(s**2 * 3600.0 + (2 * s) ** 2 * 3600.0, rel=1e-12)

    def test_first_change_leaves_the_band_around_the_start(self):
        # starting 0.49 tick above the grid point, the up barrier is 0.26 tick
        # away and the down barrier 1.24: the first move is up with odds 1.24/1.5
        asset = AssetSpec("A", 0.01, eta=0.25)
        spec = EfficientPathSpec(x0=100.0049, volatility=0.1, horizon=1.0)
        n = 400
        firsts = [simulate_day(spec, asset, TapeConfig(seed=s))[1].price_changes.directions[0] for s in range(n)]
        ups = sum(d > 0 for d in firsts)
        p = 1.24 / 1.5
        assert abs(ups / n - p) <= 5.0 * math.sqrt(p * (1.0 - p) / n)

    @pytest.mark.parametrize(
        "lo, hi, n, seed",
        [(0.5, 1.0, 1, 0), (1.05, 0.45, 1, 3), (0.74, 0.26, 1, 4), (0.5, 1.0, 5_000, 1),
         (0.2, 1.0, 3_000, 2), (0.8, 1.0, 257, 5), (1.05, 0.45, 100, 6)],
    )
    def test_one_solve_matches_one_solve_per_round(self, lo, hi, n, seed):
        # off-centre (lo, hi) pairs are first-exit bands around a start off the grid point
        want = _per_round_interval_exits(lo, hi, n, np.random.default_rng(seed))
        got = _interval_exits(lo, hi, n, np.random.default_rng(seed))
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    def test_unit_exit_times_of_a_concatenation(self):
        # a root must not depend on the batch it is solved in, nor on its place in it
        rng = np.random.default_rng(12)
        for sizes in ([1, 1], [1, 2, 3, 4, 5], [1000, 1, 37], [4096, 513, 2, 2049, 7]):
            parts = [rng.random(k) + 2.0**-55 for k in sizes]
            whole = _unit_exit_times(np.concatenate(parts))
            assert np.array_equal(whole, np.concatenate([_unit_exit_times(u) for u in parts]))

    def test_one_unit_exit_solve_per_walk(self, monkeypatch):
        calls = {"walks": 0, "solves": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(simulator, "_interval_exits", counted("walks", simulator._interval_exits))
        monkeypatch.setattr(simulator, "_unit_exit_times", counted("solves", simulator._unit_exit_times))
        spec = EfficientPathSpec(x0=100.0037, volatility=0.01, horizon=3600.0)
        simulate_day(spec, AssetSpec("A", 0.01, eta=0.25), TapeConfig(seed=2))
        assert calls["walks"] >= 2  # the first exit and at least one batch of later ones
        assert calls["solves"] == calls["walks"]

    @pytest.mark.parametrize("u, solves", [([0.3], 1), ([0.9], 1), ([0.3, 0.9], 2)])
    def test_empty_branch_is_not_solved(self, monkeypatch, u, solves):
        calls = []
        newton = simulator._newton
        monkeypatch.setattr(simulator, "_newton", lambda *args: calls.append(1) or newton(*args))
        _unit_exit_times(np.array(u))
        assert len(calls) == solves

    def test_memory_grows_with_changes_not_time(self):
        # 1 h at sigma 0.03 is about 65k changes
        asset = AssetSpec("A", 0.01, eta=0.25)
        spec = EfficientPathSpec(x0=100.0, volatility=0.03, horizon=3600.0)
        tracemalloc.start()
        try:
            _, truth = simulate_day(spec, asset, TapeConfig(seed=3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert truth.n_price_changes > 60_000
        assert peak < 64 * 2**20


# ------------------------------------------------------------- zone crossing

class TestApplyUncertaintyZones:
    def test_constant_path_produces_no_changes(self):
        # volatility that only starts after the horizon never moves the price
        asset = AssetSpec("A", 1.0, eta=0.25)
        spec = EfficientPathSpec(x0=100.0, volatility=[(0.0, 0.0), (20.0, 1.0)], horizon=10.0)
        _, truth = simulate_day(spec, asset, TapeConfig(seed=0))
        assert len(truth.price_changes) == 0
        assert truth.integrated_variance == 0.0

    def test_crossings_sit_exactly_on_barriers(self, sim_days):
        for eta, (tape, truth) in sim_days.days.items():
            ch = truth.price_changes
            # the crossed barrier sits (eta - 1/2) ticks past the new price:
            # half a tick back to the zone edge, eta ticks into the zone
            barrier = ch.new_prices + ch.directions * (eta - 0.5) * 0.01
            assert np.allclose(ch.efficient_prices, barrier, rtol=0, atol=1e-9)

    def test_continuation_fraction_matches_exit_odds(self, sim_days):
        # successive moves continue with probability 2*eta/(1+2*eta)
        for eta, (tape, truth) in sim_days.days.items():
            d = truth.price_changes.directions
            frac = float(np.mean(d[1:] == d[:-1]))
            assert frac == pytest.approx(2 * eta / (1 + 2 * eta), abs=0.01)

    def test_times_ordered_and_inside_horizon(self, sim_days):
        for eta, (tape, truth) in sim_days.days.items():
            t = truth.price_changes.times
            assert np.all(np.diff(t) >= 0)
            assert t[0] >= 0.0
            assert t[-1] <= 80000.0 + 1e-9

    def test_deterministic_in_rng_seed(self):
        a = _interval_exits(0.5, 1.0, 1000, np.random.default_rng(9))
        b = _interval_exits(0.5, 1.0, 1000, np.random.default_rng(9))
        c = _interval_exits(0.5, 1.0, 1000, np.random.default_rng(10))
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])
        assert not np.array_equal(a[0], c[0])

    def test_series_column_validation(self):
        with pytest.raises(ParameterError, match="equal length"):
            PriceChangeSeries([1.0], [100.0, 101.0], [1], [0.0])


# ------------------------------------------------------------- tape assembly

def _changes():
    # up to 101 at t=10 across the barrier 100.75, back to 100 at t=30 across 100.25
    return PriceChangeSeries([10.0, 30.0], [101.0, 100.0], [1, -1], [100.75, 100.25])


class TestGenerateTape:
    def asset(self):
        return AssetSpec("A", 1.0, eta=0.25)

    def test_no_fills_keeps_only_changes(self):
        tape = generate_tape(_changes(), TapeConfig(trade_intensity=0.0), self.asset(), 100.0, 100.0)
        assert len(tape) == 2
        # the first file row never counts as a change; the tape opens there
        assert tape.n_changes == 1
        assert tape.opening_price == pytest.approx(101.0)
        assert np.allclose(tape.prices(), [101.0, 100.0])

    def test_fill_count_is_poisson(self):
        cfg = TapeConfig(trade_intensity=10.0, seed=2)
        tape = generate_tape(_changes(), cfg, self.asset(), 1000.0, 100.0)
        n_fills = len(tape) - 2
        assert abs(n_fills - 10_000) <= 300  # 3 sigma

    def test_fills_print_at_prevailing_price(self):
        cfg = TapeConfig(trade_intensity=1.0, seed=3)
        tape = generate_tape(_changes(), cfg, self.asset(), 100.0, 100.0)
        prices = tape.prices()
        level = tape.opening_price
        for i in range(len(tape)):
            if tape.changed[i]:
                level = prices[i]
            else:
                assert prices[i] == pytest.approx(level)

    def test_quotes_bracket_every_trade_at_one_tick(self):
        cfg = TapeConfig(trade_intensity=1.0, seed=4)
        tape = generate_tape(_changes(), cfg, self.asset(), 100.0, 100.0)
        assert tape.quote_mask().all()
        spread = tape.ask_q - tape.bid_q
        assert np.all(spread == spread[0])
        assert tape.grid.currency(int(spread[0])) == pytest.approx(1.0)
        # prints happen on a quote, never inside the bracket
        at_bid = tape.price_q == tape.bid_q
        at_ask = tape.price_q == tape.ask_q
        assert np.all(at_bid | at_ask)

    def test_changes_print_on_the_side_they_moved(self):
        tape = generate_tape(_changes(), TapeConfig(), self.asset(), 100.0, 100.0)
        up = tape.direction > 0
        assert np.all(tape.price_q[up] == tape.ask_q[up])
        down = tape.direction < 0
        assert np.all(tape.price_q[down] == tape.bid_q[down])

    def test_empty_change_series(self):
        cfg = TapeConfig(trade_intensity=0.5, seed=1)
        tape = generate_tape(PriceChangeSeries([], [], [], []), cfg, self.asset(), 100.0, 100.0)
        assert tape.n_changes == 0
        assert len(tape) > 0
        assert np.all(tape.prices() == 100.0)

    def test_validation(self):
        with pytest.raises(ParameterError, match="horizon"):
            generate_tape(_changes(), TapeConfig(), self.asset(), 0.0, 100.0)
        with pytest.raises(ParameterError, match="tick grid"):
            generate_tape(_changes(), TapeConfig(), self.asset(), 100.0, 100.5)
        with pytest.raises(ParameterError, match="within"):
            generate_tape(_changes(), TapeConfig(), self.asset(), 20.0, 100.0)
        with pytest.raises(ParameterError, match=">= 0"):
            TapeConfig(trade_intensity=-1.0)

    def test_millisecond_times_strictly_increasing(self):
        cfg = TapeConfig(trade_intensity=2000.0, seed=5)  # force collisions
        tape = generate_tape(_changes(), cfg, self.asset(), 40.0, 100.0)
        assert np.all(np.diff(tape.times) > 0)
        ms = np.round(tape.times * 1000).astype(np.int64)
        assert np.all(np.diff(ms) >= 1)


def test_ms_canonicalization_bumps_collisions():
    ms = _strictly_increasing_ms(np.array([0.0, 0.0, 0.0005, 0.001]))
    assert list(ms) == [0, 1, 2, 3]


def test_ms_canonicalization_is_idempotent():
    rng = np.random.default_rng(0)
    t = np.sort(rng.random(500) * 2.0)
    once = _strictly_increasing_ms(t)
    twice = _strictly_increasing_ms(once / 1000.0)
    assert np.array_equal(once, twice)
    assert np.all(np.diff(once) >= 1)


def test_ms_canonicalization_keeps_strict_inputs():
    t = np.array([0.001, 0.004, 0.009])
    assert list(_strictly_increasing_ms(t)) == [1, 4, 9]


# ------------------------------------------------------------- whole-day run

class TestSimulateDay:
    def test_deterministic_in_seed(self):
        asset = AssetSpec("A", 0.01, eta=0.25)
        spec = EfficientPathSpec(x0=100.0, volatility=0.003, horizon=600.0)
        a, ta = simulate_day(spec, asset, TapeConfig(trade_intensity=1.0, seed=21))
        b, tb = simulate_day(spec, asset, TapeConfig(trade_intensity=1.0, seed=21))
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.price_q, b.price_q)
        assert ta.integrated_variance == tb.integrated_variance
        c, _ = simulate_day(spec, asset, TapeConfig(trade_intensity=1.0, seed=22))
        assert not np.array_equal(a.times, c.times)

    def test_default_opening_price_rounds_half_down(self):
        asset = AssetSpec("A", 1.0, eta=0.5)
        spec = EfficientPathSpec(x0=100.5, volatility=0.0, horizon=10.0)
        tape, _ = simulate_day(spec, asset, TapeConfig(trade_intensity=0.5, seed=0))
        assert np.all(tape.prices() == 100.0)

    def test_truth_bookkeeping(self, sim_days):
        for eta, (tape, truth) in sim_days.days.items():
            assert truth.eta == eta
            assert truth.tick_value == pytest.approx(0.01)
            assert truth.n_price_changes == len(truth.price_changes)
            # the tape drops only the first-row change flag
            assert tape.n_changes == truth.n_price_changes - 1
            assert truth.integrated_variance > 0

    def test_requires_eta(self):
        spec = EfficientPathSpec(x0=100.0, volatility=0.001, horizon=10.0)
        with pytest.raises(ParameterError, match="eta"):
            simulate_day(spec, AssetSpec("A", 0.01), TapeConfig())


def test_equilibrium_fill_rate_formula():
    asset = AssetSpec("A", 0.01, eta=0.25)
    lam = equilibrium_fill_rate(asset, sigma=0.005, horizon=1.0)
    target = (0.005 / (0.25 * 0.01)) ** 2
    changes = 0.005**2 / (2 * 0.25 * 0.01**2)
    assert lam == pytest.approx(target - changes, rel=1e-12)
    with pytest.raises(ParameterError):
        equilibrium_fill_rate(asset, sigma=0.0, horizon=1.0)
    with pytest.raises(ParameterError):
        equilibrium_fill_rate(asset, sigma=0.005, horizon=0.0)


def test_fill_rate_balances_volatility_per_trade(sim_days):
    # with the equilibrium intensity, total trades make sigma*sqrt(t)/sqrt(M)
    # come out near the implicit spread half-width eta*alpha
    asset = AssetSpec("A", 0.01, eta=0.25)
    sigma = math.sqrt(3e-5)
    t = 80000.0
    lam = equilibrium_fill_rate(asset, sigma, t)
    n_changes = sim_days.days[0.25].truth.n_price_changes
    m_total = lam * t + n_changes
    vol_per_trade = sigma * math.sqrt(t) / math.sqrt(m_total)
    assert vol_per_trade == pytest.approx(0.25 * 0.01, rel=0.05)
