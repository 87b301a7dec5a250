"""Value types: grids, asset parameters and tape validation."""
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tape_from_rows
from tickzone import (
    NO_QUOTE,
    SUBTICKS_PER_TICK,
    AssetSpec,
    OffGridError,
    ParameterError,
    TapeError,
    TickGrid,
    TradeTape,
)


# ---------------------------------------------------------------- AssetSpec

class TestAssetSpec:
    def test_eta_bounds(self):
        AssetSpec("A", 1.0, eta=1.0)  # closed upper end allowed
        with pytest.raises(ParameterError):
            AssetSpec("A", 1.0, eta=0.0)
        with pytest.raises(ParameterError):
            AssetSpec("A", 1.0, eta=1.01)
        with pytest.raises(ParameterError):
            AssetSpec("A", 1.0, eta=-0.1)

    def test_rejects_bad_tick_and_empty_id(self):
        with pytest.raises(ParameterError):
            AssetSpec("A", 0.0)
        with pytest.raises(ParameterError):
            AssetSpec("A", -1.0)
        with pytest.raises(ParameterError):
            AssetSpec("", 1.0)

    def test_eta_optional_until_needed(self):
        asset = AssetSpec("A", 1.0)
        with pytest.raises(ParameterError):
            asset.require_eta()

    def test_tick_as_text_or_number_gives_one_grid(self):
        specs = [AssetSpec("A", tick) for tick in ("0.01", " 0.010", 0.01, np.float64(0.01), TickGrid("0.01"))]
        assert all(s == specs[0] for s in specs) and len(set(specs)) == 1
        assert all(s.grid == TickGrid("0.01") and s.tick_value == 0.01 for s in specs)
        assert AssetSpec("A", "0.02") != specs[0]

    def test_tick_value_is_the_float_of_an_exact_grid(self):
        long = AssetSpec("A", "0.1000000000000000055511151231257827")
        assert long.tick_value == 0.1
        assert long != AssetSpec("A", 0.1) and long.grid.tick_text == "0.1000000000000000055511151231257827"

    def test_tape_reads_the_grid_of_its_asset(self):
        asset = AssetSpec("A", "7.8125")
        tape = TradeTape(asset, [1.0], [14 * SUBTICKS_PER_TICK], [NO_QUOTE], [NO_QUOTE], 10.0, 14 * SUBTICKS_PER_TICK)
        assert tape.grid is asset.grid and tape.grid.text(tape.price_q[0]) == "109.375"


# ----------------------------------------------------------------- TickGrid

class TestTickGrid:
    def test_exact_text_parse(self):
        grid = TickGrid("0.01")
        assert grid.subticks_from_text("100.01") == 10001 * SUBTICKS_PER_TICK
        assert grid.subticks_from_text("0.01") == SUBTICKS_PER_TICK
        assert grid.subticks_from_text("-0.02") == -2 * SUBTICKS_PER_TICK

    def test_text_round_trip(self):
        grid = TickGrid("0.01")
        for text in ("100.01", "99.99", "0.07", "12345.67"):
            assert grid.text(grid.subticks_from_text(text)) == text

    def test_half_tick_is_on_lattice_but_not_on_tick(self):
        grid = TickGrid("0.01")
        q = grid.subticks_from_text("100.005")
        assert q == 10000 * SUBTICKS_PER_TICK + SUBTICKS_PER_TICK // 2
        with pytest.raises(TapeError, match="off the tick grid"):
            TradeTape(AssetSpec("A", grid), [1.0], [q], [NO_QUOTE], [NO_QUOTE], 10.0, 0)

    def test_sub_lattice_price_rejected(self):
        grid = TickGrid("0.01")
        with pytest.raises(OffGridError):
            grid.subticks_from_text("0.0000000001")

    def test_malformed_price_rejected(self):
        grid = TickGrid("0.01")
        with pytest.raises(OffGridError):
            grid.subticks_from_text("abc")

    def test_tick_value_validation(self):
        with pytest.raises(ParameterError):
            TickGrid("0")
        with pytest.raises(ParameterError):
            TickGrid("-0.5")
        with pytest.raises(ParameterError):
            TickGrid("1/8")
        with pytest.raises(ParameterError):
            TickGrid("abc")

    @pytest.mark.parametrize("tick", ["1e-400", "1e400", "1e99999999", "5e-324", "1e-318"])
    def test_tick_whose_float_or_quantum_is_zero_or_infinite_is_refused(self, tick):
        # 1e-318 is a float, but its millionth is not; 1e99999999 is refused without building 10**99999999
        start = time.perf_counter()
        with pytest.raises(ParameterError, match=f"tick value {tick} is out of range"):
            TickGrid(tick)
        assert time.perf_counter() - start < 1.0

    def test_smallest_and_largest_ticks_in_range(self):
        assert TickGrid("1e-317").quantum > 0
        assert TickGrid("1e308").tick_value == 1e308

    @pytest.mark.parametrize("text", ["201/2", "1_00.5", "\uff11\uff10\uff10.\uff15", "nan", "inf", "0x10", "1e", "."])
    def test_tick_outside_the_ascii_decimal_grammar_is_refused(self, text):
        with pytest.raises(ParameterError, match="is not a decimal number"):
            TickGrid(text)

    def test_tick_of_more_than_1000_digits_is_refused(self):
        assert TickGrid("0." + "1" * 1000).tick_value == pytest.approx(1 / 9)
        with pytest.raises(ParameterError, match="more than 1000 significant digits"):
            TickGrid("0." + "1" * 1001)

    @pytest.mark.parametrize("text, q", [
        (".5", 50 * SUBTICKS_PER_TICK), ("5.", 500 * SUBTICKS_PER_TICK), ("+1E1", 1000 * SUBTICKS_PER_TICK),
        (" 1.00e-2 ", SUBTICKS_PER_TICK), ("-0", 0), ("0e99999999999999999999", 0),
        ("1e0000000000000000000000000000000000000002", 10000 * SUBTICKS_PER_TICK),
        ("-46116860184.27387903", -(2**62 - 1)),
    ])
    def test_price_forms_of_the_grammar(self, text, q):
        assert TickGrid("0.01").subticks_from_text(text) == q

    @pytest.mark.parametrize("text, cause", [
        ("201/2", "malformed price '201/2'"), ("1_00.5", "malformed price '1_00.5'"),
        ("\uff11\uff10\uff10.\uff15", "malformed price '\uff11\uff10\uff10.\uff15'"),
        ("1e99999999", "price 1e99999999 is out of range for tick 0.01"),
        ("1e9999999", "price 1e9999999 is out of range for tick 0.01"),
        ("-1e99999999", "price -1e99999999 is out of range for tick 0.01"),
        ("1e-99999999", "price 1e-99999999 is finer than the sub-tick lattice of tick 0.01"),
        ("1e-1" + "0" * 30, "price 1e-1000000000000000000000000000000 is finer than"),
        ("46116860184.27387904", "price 46116860184.27387904 is out of range for tick 0.01"),
        # a grammar that could split the run of digits between two groups would refuse these in quadratic time
        ("1" * 100_000 + "x", f"malformed price '{'1' * 40}…' (100001 characters)"),
        ("1" * 100_000 + "e" + "1" * 100_000 + "x", f"malformed price '{'1' * 40}…' (200002 characters)"),
    ])
    def test_price_outside_the_grammar_or_range_fails_at_once(self, text, cause):
        start = time.perf_counter()
        with pytest.raises(OffGridError) as err:
            TickGrid("0.01").subticks_from_text(text)
        assert time.perf_counter() - start < 1.0
        assert str(err.value).startswith(cause)

    def test_float_tick_matches_text_tick(self):
        assert TickGrid(0.01) == TickGrid("0.01")
        assert hash(TickGrid(0.01)) == hash(TickGrid("0.01"))
        assert TickGrid("0.01") != TickGrid("0.02")

    def test_numpy_float_tick_reads_like_the_python_float(self):
        for tick in (np.float64(0.01), np.float32(0.5), np.int64(2)):
            assert TickGrid(tick) == TickGrid(float(tick))
            assert TickGrid(tick).tick_text == repr(float(tick))

    def test_text_is_exact_for_a_tick_of_34_digits(self):
        grid = TickGrid("0.1000000000000000055511151231257827")
        assert grid.text(10**15) == "100000000.0000000055511151231257827"
        for q in (1, -7, 3 * 10**18 + 1, -(2**62 - 1)):
            assert grid.subticks_from_text(grid.text(q)) == q

    def test_currency_scalar_and_array(self):
        grid = TickGrid("0.01")
        assert grid.currency(SUBTICKS_PER_TICK) == pytest.approx(0.01)
        arr = grid.currency(np.array([0, SUBTICKS_PER_TICK, 2 * SUBTICKS_PER_TICK]))
        assert np.allclose(arr, [0.0, 0.01, 0.02])

    def test_nearest_tick_index_rounds_halves_down(self):
        grid = TickGrid("1")
        assert grid.nearest_tick_index(100.5) == 100
        assert grid.nearest_tick_index(100.5001) == 101
        assert grid.nearest_tick_index(100.4999) == 100
        assert grid.nearest_tick_index(100.0) == 100

    def test_large_tick_text(self):
        grid = TickGrid("7.8125")
        q = grid.subticks_from_text("109.375")  # 14 ticks
        assert q == 14 * SUBTICKS_PER_TICK
        assert grid.text(q) == "109.375"


# ---------------------------------------------------------------- TradeTape

def _rows():
    # (time, price, bid, ask): open at 100, one up move, a fill, one down move
    return [
        (0.5, 100.0, 100.0, 101.0),
        (1.0, 101.0, 100.0, 101.0),
        (2.5, 101.0, 101.0, 102.0),
        (3.0, 100.0, 100.0, 101.0),
    ]


def _tape():
    asset = AssetSpec("T", 1.0, eta=0.25)
    return tape_from_rows(asset, _rows(), session_length=10.0, opening_price=100.0)


def _fault(price_q, bid_q=None, ask_q=None, times=None, opening_q=0):
    """The TapeError of a tape built from these columns."""
    n = len(price_q)
    with pytest.raises(TapeError) as err:
        TradeTape(
            AssetSpec("T", 1.0),
            times if times is not None else np.arange(1.0, n + 1.0),
            price_q,
            bid_q if bid_q is not None else [NO_QUOTE] * n,
            ask_q if ask_q is not None else [NO_QUOTE] * n,
            10.0,
            opening_q,
        )
    return err.value


class TestTradeTape:
    def test_views(self):
        tape = _tape()
        assert len(tape) == 4
        assert len(tape) == 4
        assert tape.n_changes == 2
        assert list(tape.change_indices) == [1, 3]
        assert np.allclose(tape.change_times, [1.0, 3.0])
        assert np.allclose(tape.change_prices, [101.0, 100.0])
        assert list(tape.change_directions) == [1, -1]
        assert tape.opening_price == pytest.approx(100.0)
        assert np.allclose(tape.grid.currency(tape.price_q), [100.0, 101.0, 101.0, 100.0])
        assert tape.quote_mask().all()

    def test_event_round_trip(self):
        tape = _tape()
        columns = (tape.times,) + tuple(tape.grid.currency(c) for c in (tape.price_q, tape.bid_q, tape.ask_q))
        assert list(zip(*columns)) == _rows()

    def test_direction_follows_the_prices(self):
        assert list(_tape().direction) == [0, 1, 0, -1]
        asset = AssetSpec("T", 1.0)
        tape = TradeTape(asset, [1.0], [99 * SUBTICKS_PER_TICK], [NO_QUOTE], [NO_QUOTE], 10.0,
                         100 * SUBTICKS_PER_TICK)
        assert list(tape.direction) == [-1]
        assert list(tape.change_indices) == [0]

    def test_missing_quotes_round_trip(self):
        asset = AssetSpec("T", 1.0, eta=0.25)
        tape = tape_from_rows(asset, [(1.0, 100.0, None, None)], session_length=2.0, opening_price=100.0)
        assert tape.bid_q[0] == NO_QUOTE
        assert not tape.quote_mask().any()

    def test_rejects_decreasing_times(self):
        asset = AssetSpec("T", 1.0)
        with pytest.raises(ParameterError, match="non-decreasing"):
            TradeTape(asset, [1.0, 2.0, 3.0, 2.5], [0] * 4, [NO_QUOTE] * 4, [NO_QUOTE] * 4, 10.0, 0)
        # prints sharing a time keep it
        tape = TradeTape(asset, [1.0, 1.0, 1.0], [0] * 3, [NO_QUOTE] * 3, [NO_QUOTE] * 3, 10.0, 0)
        assert list(tape.times) == [1.0, 1.0, 1.0]

    def test_rejects_times_outside_session(self):
        asset = AssetSpec("T", 1.0)
        with pytest.raises(ParameterError, match="within"):
            TradeTape(asset, [11.0], [0], [NO_QUOTE], [NO_QUOTE], 10.0, 0)
        with pytest.raises(ParameterError, match="within"):
            TradeTape(asset, [-1.0], [0], [NO_QUOTE], [NO_QUOTE], 10.0, 0)

    def test_rejects_off_grid_price(self):
        asset = AssetSpec("T", 1.0)
        with pytest.raises(TapeError, match="off the tick grid"):
            TradeTape(asset, [1.0], [SUBTICKS_PER_TICK // 2], [NO_QUOTE], [NO_QUOTE], 10.0, 0)

    def test_rejects_off_grid_opening_price(self):
        asset = AssetSpec("T", 1.0)
        with pytest.raises(OffGridError, match="opening"):
            TradeTape(asset, [1.0], [0], [NO_QUOTE], [NO_QUOTE], 10.0, SUBTICKS_PER_TICK // 2)

    def test_rejects_two_tick_jump(self):
        asset = AssetSpec("T", 1.0)
        with pytest.raises(ParameterError, match="one tick"):
            TradeTape(asset, [1.0], [2 * SUBTICKS_PER_TICK], [NO_QUOTE], [NO_QUOTE], 10.0, 0)

    def test_rejects_inverted_quotes(self):
        asset = AssetSpec("T", 1.0)
        with pytest.raises(ParameterError, match="exceed"):
            TradeTape(asset, [1.0], [SUBTICKS_PER_TICK], [SUBTICKS_PER_TICK], [SUBTICKS_PER_TICK], 10.0, 0)

    def test_rejects_fractional_tick_spread(self):
        asset = AssetSpec("T", 1.0)
        with pytest.raises(ParameterError, match="whole"):
            TradeTape(asset, [1.0], [SUBTICKS_PER_TICK], [0], [SUBTICKS_PER_TICK + SUBTICKS_PER_TICK // 2],
                      10.0, 0)

    def test_rejects_column_length_mismatch(self):
        asset = AssetSpec("T", 1.0)
        with pytest.raises(ParameterError, match="length"):
            TradeTape(asset, [1.0, 2.0], [0], [NO_QUOTE], [NO_QUOTE], 10.0, 0)

    def test_rejects_nonpositive_session(self):
        asset = AssetSpec("T", 1.0)
        with pytest.raises(ParameterError, match="session_length"):
            TradeTape(asset, [], [], [], [], 0.0, 0)

    def test_empty_tape_is_valid(self):
        asset = AssetSpec("T", 1.0)
        tape = TradeTape(asset, [], [], [], [], 10.0, 0)
        assert len(tape) == 0
        assert tape.n_changes == 0

    def test_first_trade_checked_against_opening_price(self):
        asset = AssetSpec("T", 1.0)
        # first trade at 102 with opening 100 is a two-tick move
        with pytest.raises(ParameterError, match="one tick"):
            TradeTape(asset, [1.0], [102 * SUBTICKS_PER_TICK], [NO_QUOTE], [NO_QUOTE], 10.0,
                      100 * SUBTICKS_PER_TICK)
        # one tick up from the opening is fine
        TradeTape(asset, [1.0], [101 * SUBTICKS_PER_TICK], [NO_QUOTE], [NO_QUOTE], 10.0,
                  100 * SUBTICKS_PER_TICK)


_T = SUBTICKS_PER_TICK


class TestTapeError:
    """Each row rule names its first failing row, in the message and in ``row``."""

    def test_decreasing_time(self):
        err = _fault([0, 0, 0, 0], times=[1.0, 2.0, 3.0, 2.5])
        assert (err.row, err.message) == (3, "trade times must be non-decreasing")
        assert str(err) == "row 3: trade times must be non-decreasing"

    def test_off_grid_price(self):
        err = _fault([0, _T, _T + _T // 4])
        assert (err.row, err.message) == (2, "traded price off the tick grid")

    def test_crossed_quote(self):
        err = _fault([0, 0, 0], bid_q=[-_T, NO_QUOTE, 0], ask_q=[0, -_T, -_T])
        assert (err.row, err.message) == (2, "ask must exceed bid")
        assert str(err) == "row 2: ask must exceed bid"

    def test_fractional_spread(self):
        err = _fault([0, 0], bid_q=[-_T, -_T // 2], ask_q=[0, _T])
        assert (err.row, err.message) == (1, "spread is not a whole number of ticks")

    def test_first_broken_quote_wins_whichever_rule_it_breaks(self):
        err = _fault([0, 0, 0], bid_q=[-_T, -_T // 2, 0], ask_q=[0, _T, 0])
        assert (err.row, err.message) == (1, "spread is not a whole number of ticks")

    def test_jump(self):
        err = _fault([0, _T, 3 * _T])
        assert (err.row, err.message) == (2, "price jumped more than one tick; outside the one-tick model")

    def test_quotes_are_checked_before_moves(self):
        err = _fault([0, 2 * _T, 2 * _T], bid_q=[-_T, _T, 2 * _T], ask_q=[0, 2 * _T, 2 * _T])
        assert (err.row, err.message) == (2, "ask must exceed bid")

    def test_is_a_parameter_error(self):
        assert issubclass(TapeError, ParameterError)


def _exact_subticks(tick: str, text: str):
    """A price's sub-ticks read with exact fractions, or the cause that refuses it."""
    q = Fraction(text) * SUBTICKS_PER_TICK / Fraction(tick)
    if q.denominator != 1:
        return "finer"
    return q.numerator if abs(q) <= 2**62 - 1 else "range"


_PRICE_TEXTS = st.builds(
    lambda sign, whole, frac, exp: sign + (whole or ("" if frac[1:] else "0")) + frac + exp,
    st.sampled_from(["", "-", "+"]),
    st.text("0123456789", max_size=22),
    st.one_of(st.just(""), st.text("0123456789", max_size=12).map(lambda f: "." + f)),
    st.one_of(st.just(""), st.builds("e{}{}".format, st.sampled_from(["", "-", "+"]), st.integers(0, 40))),
)


@given(st.sampled_from(["0.01", "7.8125", "0.005", "0.03", "25", "3e5", "1e-10", "0.1000000000000000055511151231257827"]),
       _PRICE_TEXTS)
@settings(max_examples=500, deadline=None)
def test_price_reads_as_its_exact_fraction(tick, text):
    # a price both too large and off the lattice is refused as out of range, as the exponents show first
    want = _exact_subticks(tick, text)
    try:
        got = TickGrid(tick).subticks_from_text(text)
    except OffGridError as exc:
        got = "finer" if "finer than" in str(exc) else "range"
    assert got == want or (got, want) == ("range", "finer")
