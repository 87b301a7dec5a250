"""Event-by-event price changes, their exit-time oracles, and tape assembly."""
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tickzone import (
    SUBTICKS_PER_TICK,
    AssetSpec,
    EfficientPathSpec,
    ParameterError,
    TapeConfig,
    TickzoneError,
    equilibrium_fill_rate,
    simulate_day,
)
from tickzone import simulator
from tickzone.simulator import _interval_exits, _unit_exit_times


# ------------------------------------------------------------ latent price

class TestEfficientPath:
    def test_zero_volatility_path_is_constant(self):
        asset = AssetSpec("A", 1.0, eta=0.25)
        spec = EfficientPathSpec(x0=100.0, volatility=0.0, horizon=10.0)
        tape, truth = simulate_day(spec, asset, TapeConfig(trade_intensity=2.0, seed=0))
        assert truth.n_price_changes == 0
        assert truth.integrated_variance == 0.0
        assert len(tape) > 0
        assert np.all(tape.grid.currency(tape.price_q) == 100.0)

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

def _held_one_by_one(lo, hi, n, rng):
    """Sides of ``n`` walks from 0 to the edge of (-lo, hi), each held on its own, and per round
    its live walks and their c^2 each: the sides' oracle of the shared-orbit walk."""
    x = np.zeros(n)
    at_hi = np.zeros(n, dtype=bool)
    live = np.arange(n)
    rounds = []
    while len(live):
        xl = x[live]
        c = np.minimum(xl + lo, hi - xl)
        rounds.append((live, c * c))
        up = rng.random(len(live)) < 0.5
        hit_hi = up & (hi - xl <= c)
        done = hit_hi | (~up & (xl + lo <= c))
        at_hi[live[done]] = hit_hi[done]
        x[live] = np.where(up, xl + c, xl - c)
        live = live[~done]
    return at_hi, rounds


def _timed_round_by_round(walk, rng):
    """Exit times of the walks of :func:`_held_one_by_one`: all unit exit times in one draw,
    c^2 T added to each walk round by round."""
    at_hi, rounds = walk
    unit = _unit_exit_times(sum(len(live) for live, _ in rounds), rng)
    times, k = np.zeros(len(at_hi)), 0
    for live, c2 in rounds:
        times[live] += c2 * unit[k:k + len(live)]
        k += len(live)
    return times


def _per_round_interval_exits(lo, hi, n, rng):
    """Sides and exit times of walks held one by one: the oracle of :func:`_interval_exits`."""
    walk = _held_one_by_one(lo, hi, n, rng)
    return walk[0], _timed_round_by_round(walk, rng)


def _reference_points():
    """(u, t) from data/unit_exit_times.csv, where P(T > t) = u: the t to 40 digits, read as doubles."""
    lines = (Path(__file__).parent / "data" / "unit_exit_times.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines if not line.startswith("#")]
    return np.array([[float(u), float(t)] for u, t in rows]).T


def _series_sum(q):
    """1 - 3 q^2 + 5 q^6 - 7 q^12 + ..., 200 terms, summed exactly and rounded once."""
    return math.fsum((-1) ** n * (2 * n + 1) * q ** (n * (n + 1)) for n in range(200))


_NEAR_CUT = (float(np.nextafter(0.64, 0.0)), 0.64, float(np.nextafter(0.64, 1.0)))


class TestExactExits:
    def test_draws_follow_the_40_digit_table(self):
        # the distance over the table's points is at most Kolmogorov's over all t, and for draws
        # of the true law sqrt(n) times that exceeds 1.95 with probability under 0.001
        u, at = _reference_points()
        n = 1_000_000
        t = np.sort(_unit_exit_times(n, np.random.default_rng(2009)))
        cdf = np.searchsorted(t, at, side="right") / n
        assert len(t) == n and t[0] > 0.0
        assert math.sqrt(n) * np.max(np.abs(cdf - (1.0 - u))) <= 1.95

    @pytest.mark.parametrize("n", [0, 1, 7, 5_000])
    def test_draws_exactly_as_many_as_asked(self, n):
        assert len(_unit_exit_times(n, np.random.default_rng(n))) == n

    # t at the cut of 0.64, one ulp either side of it, and in both tails, out to where q underflows to 0
    @pytest.mark.parametrize("side, t", [("long", t) for t in _NEAR_CUT + (20.0, 300.0)]
                             + [("short", t) for t in _NEAR_CUT + (0.05, 1e-3)])
    def test_alternating_series_decides_like_its_sum(self, side, t):
        q = math.exp(-math.pi**2 * t / 2.0) if side == "long" else math.exp(-2.0 / t)
        total = _series_sum(q)
        # y around the sum: 3 ulps off, beyond what the partial sums' roundings move, and at the
        # first partial sums, which leave it undecided
        up, down = total, total
        for _ in range(3):
            up, down = np.nextafter(up, 2.0), np.nextafter(down, 0.0)
        y = np.array([0.0, 0.5, 1.0 - 3.0 * q * q, (1.0 - 3.0 * q * q + total) / 2.0, down, up,
                      total - 1e-9, total + 1e-9, np.nextafter(1.0, 0.0), 1.0, 1.5])
        assert np.array_equal(simulator._below_series(y, np.full(len(y), q)), y < total)

    @pytest.mark.parametrize("lo, hi", [(0.2, 1.0), (0.5, 1.0), (0.37, 0.91)])
    def test_exit_moments_and_sides(self, lo, hi):
        # closed forms for an exit from (-lo, hi): E tau = lo hi,
        # Var tau = lo hi (lo^2 + hi^2) / 3, P(exit at hi) = lo / (lo + hi)
        n = 200_000
        at_hi, tau = _interval_exits(lo, hi, n, np.random.default_rng(11))
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
         (0.2, 1.0, 3_000, 2), (0.8, 1.0, 257, 5), (1.05, 0.45, 100, 6), (0.75, 0.75, 1, 7),
         (0.75, 0.75, 300, 8), (0.375, 1.125, 1, 9), (0.375, 1.125, 300, 10)],
    )
    def test_shared_orbit_matches_walks_held_one_by_one_at_the_edges(self, lo, hi, n, seed):
        # off-centre (lo, hi) pairs are first-exit bands around a start off the grid point; at
        # (0.75, 0.75) the first interval spans the band, so both sides are boundaries, and from
        # (0.375, 1.125) the walks that go on stand at 0.375, 0.75 from both sides in floats
        want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = _per_round_interval_exits(lo, hi, n, want_rng)
        got = _interval_exits(lo, hi, n, got_rng)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        # both drew the same numbers, so the next batch of a day starts from the same state
        assert got_rng.random() == want_rng.random()

    @settings(max_examples=100, deadline=None)
    @given(
        eta=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
        s=st.floats(min_value=-0.5, max_value=0.5, exclude_min=True),
        first=st.booleans(),
        n=st.integers(min_value=1, max_value=3_000),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_shared_orbit_matches_walks_held_one_by_one(self, eta, s, first, n, seed):
        # a day's first exit leaves (-(0.5 + eta + s), 0.5 + eta - s), every later one (-2 eta, 1)
        lo, hi = (0.5 + eta + s, 0.5 + eta - s) if first else (2.0 * eta, 1.0)
        want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = _per_round_interval_exits(lo, hi, n, want_rng)
        got = _interval_exits(lo, hi, n, got_rng)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @pytest.mark.parametrize(
        "start, eta, budget, seed, halvings",
        [(0.0, 0.25, 0.0, 0, 0), (0.37, 0.25, 0.01, 1, 0), (-0.49, 0.1, 50.0, 2, 0), (0.2, 0.4, 300.0, 3, 0),
         (0.5, 0.05, 1000.0, 4, 0), (-0.3, 1.0, 20.0, 5, 0), (0.3, 0.25, 10.0, 6, 3)],
    )
    def test_day_matches_walks_timed_one_round_at_a_time(self, monkeypatch, start, eta, budget, seed, halvings):
        # the first exit's sides and then its time, then while the budget is not passed each
        # batch's sides and then its times, sized from what is left, from one generator; batches
        # halved three times cover about a third of a budget of 20 mean exits, so a top-up follows
        want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        mean, cv = 2.0 * eta, math.sqrt((1.0 + 4.0 * eta**2) / (6.0 * eta))
        size = lambda left: max(1, (int(left / mean + 4.0 * cv * math.sqrt(left / mean)) + 1) >> halvings)
        at_hi, times = _per_round_interval_exits(0.5 + eta + start, 0.5 + eta - start, 1, want_rng)
        ups = [at_hi]
        while times[-1] < budget:
            at_hi, steps = _per_round_interval_exits(2.0 * eta, 1.0, size(budget - times[-1]), want_rng)
            times = np.concatenate([times, times[-1] + np.cumsum(steps)])
            ups.append(at_hi)
        n = np.searchsorted(times, budget)
        calls = []
        monkeypatch.setattr(simulator, "_interval_exits",
                            lambda lo, hi, n, rng: calls.append(n) or _interval_exits(lo, hi, max(1, n >> halvings), rng))
        got_times, got_directions = simulator._change_sequence(start, eta, budget, got_rng)
        # one walk call for the first exit and one for each batch; a budget that the first exit
        # passes (0 and 0.01 here) walks no batch, and only halved batches need a top-up
        assert len(calls) == len(ups)
        assert (len(ups) > 2) == (halvings > 0)
        assert np.array_equal(got_times, times[:n])
        assert np.array_equal(got_directions, np.cumprod(np.where(np.concatenate(ups), 1, -1)[:n]))
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_one_unit_exit_draw_per_batch_of_walks(self, monkeypatch):
        calls = {"walks": 0, "draws": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(simulator, "_interval_exits", counted("walks", simulator._interval_exits))
        monkeypatch.setattr(simulator, "_unit_exit_times", counted("draws", simulator._unit_exit_times))
        spec = EfficientPathSpec(x0=100.0037, volatility=0.01, horizon=3600.0)
        simulate_day(spec, AssetSpec("A", 0.01, eta=0.25), TapeConfig(seed=2))
        # the first exit and one batch of later ones, each timed by its own draw; no top-up
        assert calls == {"walks": 2, "draws": 2}

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
        assert len(truth.price_changes.times) == 0
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
        def walk(seed):
            return _interval_exits(0.5, 1.0, 1000, np.random.default_rng(seed))

        (a, ta), (b, tb), (_, tc) = walk(9), walk(9), walk(10)
        assert np.array_equal(ta, tb)
        assert np.array_equal(a, b)
        assert not np.array_equal(ta, tc)


# ------------------------------------------------------------- tape assembly

def _day(sigma, fills, seed, horizon=100.0):
    """A simulated day on a tick of 1, and its change sequence."""
    spec = EfficientPathSpec(x0=100.0, volatility=sigma, horizon=horizon)
    tape, truth = simulate_day(spec, AssetSpec("A", 1.0, eta=0.25), TapeConfig(trade_intensity=fills, seed=seed))
    return tape, truth.price_changes


class TestGenerateTape:
    """How simulate_day dresses its price changes into a tape."""

    def test_no_fills_keeps_only_changes(self):
        tape, changes = _day(sigma=0.3, fills=0.0, seed=1)
        assert len(tape) == len(changes.times) > 2
        # the first file row never counts as a change; the tape opens there
        assert tape.n_changes == len(tape) - 1
        assert tape.opening_price == changes.new_prices[0]
        assert np.array_equal(tape.grid.currency(tape.price_q), changes.new_prices)

    def test_fill_count_is_poisson(self):
        tape, changes = _day(sigma=0.1, fills=10.0, seed=2, horizon=1000.0)
        n_fills = len(tape) - len(changes.times)
        assert abs(n_fills - 10_000) <= 300  # 3 sigma

    def test_fills_print_at_prevailing_price(self):
        tape, changes = _day(sigma=0.3, fills=1.0, seed=3)
        # a fill repeats the price, so the tape moves only where the series does; the tape opens at
        # its first print, a fill at 100 or the day's first change, one tick away
        assert len(tape) > len(changes.times) > 2 and tape.opening_price_q == tape.price_q[0]
        assert abs(tape.opening_price - 100.0) <= 1.0
        assert np.array_equal(tape.change_prices, changes.new_prices)
        assert np.allclose(tape.change_times, changes.times, atol=0.002)

    def test_quotes_bracket_every_trade_at_one_tick(self):
        tape, changes = _day(sigma=0.3, fills=1.0, seed=4)
        assert tape.quote_mask().all()
        assert np.all(tape.ask_q - tape.bid_q == tape.grid.subticks_from_text("1"))
        # prints happen on a quote, never inside the bracket
        at_ask = tape.price_q == tape.ask_q
        assert np.all(at_ask | (tape.price_q == tape.bid_q))
        # a fill prints on the side the next change takes out; after the last one, a reversal
        fills = np.flatnonzero(tape.direction == 0)[1:]
        next_move = np.append(changes.directions, -changes.directions[-1])[
            np.searchsorted(changes.times, tape.times[fills])
        ]
        assert len(fills) > 10 and np.array_equal(at_ask[fills], next_move < 0)

    def test_changes_print_on_the_side_they_moved(self):
        tape, _ = _day(sigma=0.3, fills=1.0, seed=5)
        up = tape.direction > 0
        assert up.any() and np.all(tape.price_q[up] == tape.ask_q[up])
        down = tape.direction < 0
        assert down.any() and np.all(tape.price_q[down] == tape.bid_q[down])

    def test_empty_change_series(self):
        tape, changes = _day(sigma=0.0, fills=0.5, seed=1)
        assert len(changes.times) == 0 and tape.n_changes == 0
        assert len(tape) > 0
        assert np.all(tape.grid.currency(tape.price_q) == 100.0)

    def test_validation(self):
        with pytest.raises(ParameterError, match=">= 0"):
            TapeConfig(trade_intensity=-1.0)
        # 1e8 expected fills are refused before anything is drawn
        with pytest.raises(ParameterError, match="1e\\+08 expected trades"):
            _day(sigma=0.0, fills=1e6, seed=0)

    def test_millisecond_times_stay_inside_the_horizon(self):
        tape, _ = _day(sigma=0.3, fills=2000.0, seed=5, horizon=40.0)  # force collisions
        assert np.array_equal(np.round(tape.times * 1000.0) / 1000.0, tape.times)  # whole milliseconds
        assert np.all(np.diff(tape.times) >= 0)
        assert tape.times[-1] <= 40.0
        assert tape.session_length == 40.0


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

    def test_changes_do_not_depend_on_the_fill_rate(self):
        # one generator draws the day's changes before its fills
        asset = AssetSpec("A", 0.01, eta=0.25)
        spec = EfficientPathSpec(x0=100.0, volatility=0.003, horizon=600.0)
        quiet, busy = (simulate_day(spec, asset, TapeConfig(trade_intensity=rate, seed=21))[1].price_changes
                       for rate in (0.0, 5.0))
        assert len(quiet.times) > 10
        assert all(np.array_equal(a, b) for a, b in zip(quiet, busy))

    def test_default_opening_price_rounds_half_down(self):
        asset = AssetSpec("A", 1.0, eta=0.5)
        spec = EfficientPathSpec(x0=100.5, volatility=0.0, horizon=10.0)
        tape, _ = simulate_day(spec, asset, TapeConfig(trade_intensity=0.5, seed=0))
        assert np.all(tape.grid.currency(tape.price_q) == 100.0)

    def test_truth_bookkeeping(self, sim_days):
        for eta, (tape, truth) in sim_days.days.items():
            assert truth.eta == eta
            assert truth.n_price_changes == len(truth.price_changes.times)
            # the tape drops only the first-row change flag
            assert tape.n_changes == truth.n_price_changes - 1
            assert truth.integrated_variance > 0

    def test_opening_index_leaves_room_in_the_sub_tick_range(self, monkeypatch):
        # every price of the day, up to _MAX_TRADES ticks from the opening one, must fit the sub-tick range
        room = simulator._MAX_SUBTICKS // SUBTICKS_PER_TICK - simulator._MAX_TRADES
        asset, cfg = AssetSpec("A", 1.0, eta=0.25), TapeConfig(trade_intensity=0.5, seed=0)
        for x0 in (float(room), -float(room)):
            tape, _ = simulate_day(EfficientPathSpec(x0=x0, volatility=0.0, horizon=10.0), asset, cfg)
            assert tape.opening_price_q == int(x0) * SUBTICKS_PER_TICK
        monkeypatch.setattr(simulator, "_change_sequence", None)  # refused before anything is drawn
        for x0, tick in ((room + 1.0, 1.0), (-room - 1.0, 1.0), (100.0, 1e-17), (1e300, 1e-17)):
            spec = EfficientPathSpec(x0=x0, volatility=0.0, horizon=10.0)
            with pytest.raises(ParameterError, match=re.escape(f"x0 {x0!r} lies too many ticks of {tick!r}")):
                simulate_day(spec, AssetSpec("A", tick, eta=0.25), cfg)

    @settings(max_examples=80, deadline=None)
    @given(x0=st.floats(allow_nan=False, allow_infinity=False), tick=st.floats(min_value=1e-300, max_value=1e300))
    def test_any_opening_price_and_tick_give_a_day_or_a_tickzone_error(self, x0, tick):
        spec = EfficientPathSpec(x0=x0, volatility=0.0, horizon=60.0)
        try:
            tape, _ = simulate_day(spec, AssetSpec("A", tick, eta=0.25), TapeConfig(trade_intensity=0.1, seed=0))
        except TickzoneError:
            return
        assert np.all(tape.price_q == tape.opening_price_q)

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


@pytest.mark.parametrize(
    "sigma, horizon, named",
    [
        (math.inf, 1.0, "volatility sigma must be finite and > 0, got inf"),
        (math.nan, 1.0, "volatility sigma must be finite and > 0, got nan"),
        (-math.inf, 1.0, "volatility sigma must be finite and > 0, got -inf"),
        (-0.001, 1.0, "volatility sigma must be finite and > 0, got -0.001"),
        (0.005, math.inf, "horizon must be finite and > 0, got inf"),
        (0.005, -1.0, "horizon must be finite and > 0, got -1.0"),
    ],
)
def test_equilibrium_fill_rate_names_the_bad_value(sigma, horizon, named):
    with pytest.raises(ParameterError, match=f"^{re.escape(named)}$"):
        equilibrium_fill_rate(AssetSpec("A", 0.01, eta=0.25), sigma=sigma, horizon=horizon)


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
