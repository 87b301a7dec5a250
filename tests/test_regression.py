"""Regression-layer tests: exact planted fits, noise recovery, validation."""
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import tickzone
from tickzone.errors import CollinearityError, InsufficientDataError, ParameterError
from tickzone.estimators import DailyRecord
from tickzone.pipeline import fit_groups
from tickzone.regression import (
    REGRESSION_CSV_HEADER,
    RegressionFit,
    _t_quantile,
    design_matrix,
    fit_spread_vol,
)


def _record(eta, alpha, m, spread_mult=1.2, sigma=None, asset_id="A", date="d", p=(1.0, 0.1, 0.0)):
    """Asset-day whose response sits exactly on the plane unless sigma is given."""
    spread = alpha * spread_mult
    if sigma is None:
        sigma = p[0] * eta * alpha * math.sqrt(m) + p[1] * spread * math.sqrt(m) + p[2]
    return DailyRecord(
        date=date,
        asset_id=asset_id,
        eta_hat=eta,
        alpha=alpha,
        sigma_hat=sigma,
        m_trades=m,
        avg_spread=spread,
        frac_one_tick=90.0,
    )


def _exact_records(p=(1.0, 0.1, 0.0)):
    etas = [0.10, 0.18, 0.25, 0.32, 0.40, 0.45, 0.22, 0.35]
    alphas = [0.01, 0.01, 0.5, 0.5, 0.01, 0.5, 0.01, 0.5]
    ms = [1200, 5400, 900, 3000, 22000, 1500, 8000, 4700]
    mults = [1.0, 1.4, 1.1, 2.0, 1.0, 1.3, 1.8, 1.0]
    return [
        _record(e, a, m, spread_mult=w, p=p)
        for e, a, m, w in zip(etas, alphas, ms, mults)
    ]


def _noisy_records(seed=5, n=60, p=(1.0, 0.1, 0.0), noise=0.02):
    rng = np.random.default_rng(seed)
    recs = []
    for i in range(n):
        eta = rng.uniform(0.10, 0.45)
        alpha = rng.choice([0.005, 0.01, 0.025])
        m = int(rng.integers(1000, 20000))
        mult = 1.0 + 0.5 * rng.random()
        base = p[0] * eta * alpha * math.sqrt(m) + p[1] * alpha * mult * math.sqrt(m) + p[2]
        sigma = base * (1.0 + noise * rng.standard_normal())
        recs.append(_record(eta, alpha, m, spread_mult=mult, sigma=sigma, date=f"d{i}"))
    return recs


class TestFitSpreadVol:
    def test_exact_plane_recovered(self):
        fit = fit_spread_vol(_exact_records())
        assert fit.p1 == pytest.approx(1.0, abs=1e-9)
        assert fit.p2 == pytest.approx(0.1, abs=1e-9)
        assert fit.p3 == pytest.approx(0.0, abs=1e-9)
        assert fit.r2 == pytest.approx(1.0, abs=1e-9)
        assert fit.n_days == 8

    def test_exact_fit_intervals_are_tight_and_ordered(self):
        fit = fit_spread_vol(_exact_records())
        for est, (lo, hi) in ((fit.p1, fit.p1_ci), (fit.p2, fit.p2_ci), (fit.p3, fit.p3_ci)):
            assert lo <= est <= hi
            assert hi - lo < 1e-6

    def test_intercept_recovered(self):
        fit = fit_spread_vol(_exact_records(p=(0.8, 0.05, 3.0)))
        assert fit.p1 == pytest.approx(0.8, abs=1e-9)
        assert fit.p2 == pytest.approx(0.05, abs=1e-9)
        assert fit.p3 == pytest.approx(3.0, abs=1e-9)

    def test_noisy_intervals_bracket_truth(self):
        fit = fit_spread_vol(_noisy_records())
        assert fit.p1_ci[0] <= 1.0 <= fit.p1_ci[1]
        assert fit.p2_ci[0] <= 0.1 <= fit.p2_ci[1]
        assert fit.r2 > 0.95

    def test_residuals_orthogonal_to_design(self):
        recs = _noisy_records()
        fit = fit_spread_vol(recs)
        x, y = design_matrix(recs)
        resid = y - x @ np.array([fit.p1, fit.p2, fit.p3])
        assert np.allclose(x.T @ resid, 0.0, atol=1e-8)

    def test_too_few_records(self):
        with pytest.raises(InsufficientDataError):
            fit_spread_vol(_exact_records()[:3])

    def test_too_few_after_flag_filter(self):
        recs = _exact_records()[:3] + [
            _record(0.9, 0.01, 5000, date="f1"),
            _record(0.7, 0.01, 6000, date="f2"),
        ]
        with pytest.raises(InsufficientDataError):
            fit_spread_vol(recs)

    def test_collinear_regressors_rejected(self):
        # eta*alpha proportional to the spread makes the design rank 2
        recs = [
            _record(1.0, a, m, spread_mult=1.0, date=f"d{i}")
            for i, (a, m) in enumerate([(0.01, 1000), (0.01, 4000), (0.5, 2000), (0.5, 9000), (0.01, 16000)])
        ]
        with pytest.raises(CollinearityError):
            fit_spread_vol(recs, exclude_flagged=False)

    def test_constant_response_rejected(self):
        recs = [
            _record(e, 0.01, m, sigma=2.0, date=f"d{i}")
            for i, (e, m) in enumerate([(0.1, 1000), (0.2, 2000), (0.3, 4000), (0.4, 8000), (0.25, 500)])
        ]
        with pytest.raises(ParameterError):
            fit_spread_vol(recs)

    def test_currency_rescaling(self):
        # measuring prices in cents leaves slopes and fit quality alone
        base = _noisy_records(p=(0.9, 0.08, 0.5))
        scaled = [
            DailyRecord(
                date=r.date, asset_id=r.asset_id, eta_hat=r.eta_hat,
                alpha=r.alpha * 100, sigma_hat=r.sigma_hat * 100,
                m_trades=r.m_trades, avg_spread=r.avg_spread * 100,
                frac_one_tick=r.frac_one_tick,
            )
            for r in base
        ]
        f0 = fit_spread_vol(base)
        f1 = fit_spread_vol(scaled)
        assert f1.p1 == pytest.approx(f0.p1, rel=1e-9)
        assert f1.p2 == pytest.approx(f0.p2, rel=1e-9)
        assert f1.p3 == pytest.approx(f0.p3 * 100, rel=1e-9)
        assert f1.r2 == pytest.approx(f0.r2, rel=1e-12)

    def test_flagged_days_dropped_by_default(self):
        clean = _exact_records()
        tainted = clean + [_record(0.8, 0.01, 5000, sigma=50.0, date="junk")]
        fit = fit_spread_vol(tainted)
        assert fit.n_days == len(clean)
        assert fit.p1 == pytest.approx(1.0, abs=1e-9)
        kept = fit_spread_vol(tainted, exclude_flagged=False)
        assert kept.n_days == len(clean) + 1
        assert abs(kept.p1 - 1.0) > 1e-6


class TestRegressionFit:
    def _fit(self, **over):
        kw = dict(
            p1=1.0, p2=0.1, p3=0.0,
            p1_ci=(0.9, 1.1), p2_ci=(0.05, 0.15), p3_ci=(-0.1, 0.1),
            r2=0.98, n_days=10,
        )
        kw.update(over)
        return RegressionFit(**kw)

    def test_row_matches_header(self):
        row = self._fit().row("BUND")
        assert len(row) == len(REGRESSION_CSV_HEADER) == 11
        assert row[0] == "BUND"
        assert row[1:4] == [1.0, 0.9, 1.1]
        assert row[10] == 0.98

    def test_estimate_must_sit_inside_interval(self):
        with pytest.raises(ParameterError):
            self._fit(p1_ci=(1.1, 1.2))

    def test_r2_bounds(self):
        with pytest.raises(ParameterError):
            self._fit(r2=1.0001)


class TestFitGroups:
    def test_groups_sorted_pooled_last(self):
        recs = [_record(0.2 + 0.02 * i, 0.01, 1000 + 500 * i, asset_id="B", date=f"b{i}") for i in range(5)]
        recs += [_record(0.15 + 0.03 * i, 0.5, 2000 + 700 * i, asset_id="A", date=f"a{i}") for i in range(5)]
        skipped = []
        fits = fit_groups(recs, split_regimes=False, pool=True, keep_flagged=False, skipped=skipped)
        assert list(fits) == ["A", "B", "ALL"]
        assert [f.n_days for f in fits.values()] == [5, 5, 10]
        assert skipped == []

    def test_split_regimes_keys(self):
        recs = [_record(0.2 + 0.02 * i, 0.01, 1000 + 500 * i, asset_id="A", date=f"x{i}") for i in range(5)]
        recs += [_record(0.15 + 0.03 * i, 0.025, 2000 + 700 * i, asset_id="A", date=f"y{i}") for i in range(5)]
        fits = fit_groups(recs, split_regimes=True, pool=False, keep_flagged=False, skipped=[])
        assert list(fits) == ["A@0.01", "A@0.025"]
        fits = fit_groups(recs, split_regimes=False, pool=False, keep_flagged=False, skipped=[])
        assert list(fits) == ["A"]
        # ticks that agree to 6 significant digits are still two regimes: the key holds the records CSV's 12
        recs = [_record(0.2 + 0.02 * i, 0.1, 1000 + 500 * i, date=f"x{i}") for i in range(6)]
        recs += [_record(0.15 + 0.03 * i, 0.1000001, 2000 + 700 * i, date=f"y{i}") for i in range(6)]
        fits = fit_groups(recs, split_regimes=True, pool=False, keep_flagged=False, skipped=[])
        assert list(fits) == ["A@0.1", "A@0.1000001"]
        assert [fit.n_days for fit in fits.values()] == [6, 6]

    def test_unfittable_group_skipped_others_fitted(self):
        recs = [_record(0.2 + 0.02 * i, 0.01, 1000 + 500 * i, asset_id="A", date=f"a{i}") for i in range(5)]
        recs += [_record(0.15 + 0.03 * i, 0.5, 2000 + 700 * i, asset_id="C", date=f"c{i}") for i in range(3)]
        skipped = ["an earlier stage's skip"]
        fits = fit_groups(recs, split_regimes=False, pool=True, keep_flagged=False, skipped=skipped)
        assert list(fits) == ["A", "ALL"]
        assert fits["ALL"].n_days == 8
        # the skip is appended to the list handed in, after what is already there
        assert skipped == ["an earlier stage's skip", "regression C: need at least 4 usable asset-days, got 3"]

    def test_keep_flagged(self):
        recs = [_record(0.2 + 0.02 * i, 0.01, 1000 + 500 * i, date=f"a{i}") for i in range(5)]
        recs.append(_record(0.9, 0.01, 4000, date="high"))
        dropped = fit_groups(recs, split_regimes=False, pool=False, keep_flagged=False, skipped=[])
        kept = fit_groups(recs, split_regimes=False, pool=False, keep_flagged=True, skipped=[])
        assert (dropped["A"].n_days, kept["A"].n_days) == (5, 6)


def test_interval_quantile_matches_scipy():
    # scipy is the oracle here only; at dof 6 its own value lies 21 ulps from the true
    # quantile, and test_interval_quantile_brackets_the_root checks that dof exactly
    from scipy import stats

    dof = np.arange(1, 10_001)
    ours = np.array([_t_quantile(int(d)) for d in dof])
    ulps = np.abs(ours - stats.t.ppf(0.975, dof)) / np.spacing(ours)
    assert set(dof[ulps > 4].tolist()) <= {6}


@pytest.mark.parametrize("dof", range(2, 21, 2))
def test_interval_quantile_brackets_the_root(dof):
    # for even dof the upper tail is 1/2 - sin(th)/2 * sum_{j < dof/2} C(2j, j) / 4^j cos(th)^2j
    # (Abramowitz & Stegun 26.7.4), with sin(th)^2 = t^2 / (dof + t^2) and cos(th)^2 = dof / (dof + t^2):
    # whether it exceeds 1 - 0.975 is decided exactly in rationals
    alpha = 1 - Fraction(0.975)

    def tail_above_alpha(t):
        t2 = Fraction(t) ** 2
        c = dof / (dof + t2)
        s = sum(Fraction(math.comb(2 * j, j), 4**j) * c**j for j in range(dof // 2))
        return (1 - 2 * alpha) ** 2 > t2 / (dof + t2) * s * s

    t = _t_quantile(dof)
    assert tail_above_alpha(math.nextafter(t, 0.0)) and not tail_above_alpha(math.nextafter(t, math.inf))


def test_interval_quantile_for_large_dof():
    # the normal quantile plus the first two terms in 1/dof of the expansion in
    # Abramowitz & Stegun 26.7.5; the next one is below 2e-18 from dof 10^6 on
    z = 1.959963984540054
    for dof in (10**6, 10**8, 10**12):
        expansion = z + (z**3 + z) / (4 * dof) + (5 * z**5 + 16 * z**3 + 3 * z) / (96 * dof**2)
        assert _t_quantile(dof) == pytest.approx(expansion, rel=1e-15, abs=0)


# the README's round trip, run with scipy made unimportable: the program must not need it
_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
from tickzone.cli import main

with open("synth.cfg", "w") as fh:
    fh.write("out = run\\nseed = 3\\nsession = 08:00-09:00\\nsynthetic.A1.tick_value = 0.01\\n"
             "synthetic.A1.eta = 0.25\\nsynthetic.A1.sigma = 0.002\\nsynthetic.A1.days = 5\\n")
commands = [
    ["simulate", "--eta", "0.25", "--sigma", "0.003", "--session", "08:00-16:00", "--day", "2009-06-01",
     "--seed", "1", "--out", "day1.csv"],
    ["estimate", "day1.csv", "--tick-value", "0.01", "--session", "08:00-16:00", "--out", "daily.csv"],
    ["signature", "day1.csv", "--tick-value", "0.01", "--session", "08:00-16:00", "--out", "sig.csv"],
    ["predict", "--alpha0", "5", "--eta0", "0.268", "--alpha", "10", "--p1", "0.91", "--p2", "0.08"],
    ["optimal-tick", "--asset", "Bobl 1", "--asset", "Bund", "--out", "ticks.csv"],
    ["pipeline", "--config", "synth.cfg"],
    ["regress", "--records", "run/daily_records.csv", "--out", "fit.csv"],
]
codes = {args[0]: main(args) for args in commands}
print(codes, file=sys.stderr)
"""


def test_round_trip_runs_without_scipy(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(tickzone.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY], env=env, cwd=tmp_path, capture_output=True,
                         text=True, check=True)
    codes = "{'simulate': 0, 'estimate': 0, 'signature': 0, 'predict': 0, 'optimal-tick': 0, 'pipeline': 0, 'regress': 0}"
    assert out.stderr.splitlines()[-1] == codes
    assert (tmp_path / "run" / "regression.csv").exists() and (tmp_path / "fit.csv").exists()
