"""Acceptance gate: end-to-end checks at pinned tolerances.

Each test prints one ``[criterion N] label: PASS/FAIL (detail)`` line so a
plain pytest run doubles as a scorecard. Tolerances are fixed here and must
not be loosened to make a failing build green.
"""
import time
from datetime import date

import numpy as np

from conftest import first_passage_frequencies
from tickzone.domain import AssetSpec
from tickzone.estimators import (
    DailyRecord,
    build_daily_record,
    count_alternations,
    empirical_roll_measure,
    estimate_eta,
    estimate_integrated_variance,
    recover_efficient_prices,
    roll_implicit_measure,
    signature_plot,
)
from tickzone.pipeline import parse_config_text, run_pipeline
from tickzone.regression import fit_spread_vol
from tickzone.simulator import EfficientPathSpec, TapeConfig, simulate_day
from tickzone.tick_policy import (
    TickScenario,
    crossing_probabilities,
    load_reference_assets,
    optimal_tick,
    predict_eta,
)
from tickzone.tradefile import SessionFilter, ingest_trades, write_tape_csv

SIM_TICK = 0.01


def _report(capsys, num: int, label: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[criterion {num}] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {label}: {detail}"


# expected break-even ticks (currency), fit version 1, count elasticity 1 and 1/2
_EXPECTED_TICKS = {
    "BUS5": (2.7, 3.8),
    "DJ": (1.6, 2.3),
    "EURO": (3.1, 5.0),
    "SP": (0.3, 0.9),
    "Bobl 1": (1.8, 2.6),
    "Bobl 2": (1.6, 2.8),
    "Bund": (1.6, 2.9),
    "DAX": (4.9, 6.7),
    "ESX": (1.3, 2.6),
    "Schatz": (0.8, 1.5),
    "CL": (3.1, 4.6),
}


def test_criterion_1_reference_tick_table(capsys):
    refs = {r.asset_id: r for r in load_reference_assets()}
    t0 = time.perf_counter()
    worst = 0.0
    n_ok = 0
    for aid, (want_b1, want_b05) in _EXPECTED_TICKS.items():
        got_b1 = optimal_tick(refs[aid].scenario(beta=1.0), version=1)
        got_b05 = optimal_tick(refs[aid].scenario(beta=0.5), version=1)
        for got, want in ((got_b1, want_b1), (got_b05, want_b05)):
            err = abs(got - want)
            worst = max(worst, err)
            n_ok += err <= 0.1
    elapsed = time.perf_counter() - t0
    ok = n_ok == 22 and elapsed < 1.0
    _report(
        capsys, 1, "reference tick table", ok,
        f"{n_ok}/22 cells within 0.1 currency, worst {worst:.3f}, {elapsed:.3f}s",
    )


def test_criterion_2_tick_doubling_forecast(capsys):
    f_b1 = predict_eta(
        TickScenario(alpha0=5.0, eta0=0.268, alpha=10.0, p1_0=0.91, p2_0=0.08, beta=1.0),
        version=1,
    ).eta_pred
    f_b05 = predict_eta(
        TickScenario(alpha0=5.0, eta0=0.268, alpha=10.0, p1_0=0.91, p2_0=0.08, beta=0.5),
        version=1,
    ).eta_pred
    ok = abs(f_b1 - 0.164) <= 1e-3 and abs(f_b05 - 0.124) <= 1e-3 and f_b05 < 0.142 < f_b1
    _report(
        capsys, 2, "tick-doubling forecast", ok,
        f"elasticity 1 -> {f_b1:.4f} (target 0.164), 1/2 -> {f_b05:.4f} (target 0.124), "
        f"measured 0.142 bracketed: {f_b05 < 0.142 < f_b1}",
    )


def test_criterion_3_estimator_consistency(capsys, sim_days):
    t0 = time.perf_counter()
    worst_eta = 0.0
    worst_var = 0.0
    min_changes = 10**9
    for eta, (tape, truth) in sim_days.days.items():
        min_changes = min(min_changes, tape.n_changes)
        eta_hat = estimate_eta(count_alternations(tape.change_directions))
        _, xhat = recover_efficient_prices(tape, eta_hat, SIM_TICK)
        var_hat = estimate_integrated_variance(xhat)
        worst_eta = max(worst_eta, abs(eta_hat - eta))
        worst_var = max(worst_var, abs(var_hat / truth.integrated_variance - 1.0))
    total = sim_days.build_seconds + (time.perf_counter() - t0)
    ok = min_changes >= 5000 and worst_eta <= 0.02 and worst_var <= 0.05 and total < 60.0
    _report(
        capsys, 3, "estimator consistency", ok,
        f">= {min_changes} changes/day, max |eta_hat-eta| {worst_eta:.4f} (tol 0.02), "
        f"max variance error {worst_var:.4f} (tol 0.05), {total:.1f}s (limit 60)",
    )


def test_criterion_4_traded_price_variance_ratio(capsys, sim_days):
    worst = 0.0
    for eta, (tape, truth) in sim_days.days.items():
        d = np.diff(tape.grid.currency(tape.price_q))
        rv_traded = float(d @ d)
        ratio = rv_traded / truth.integrated_variance
        worst = max(worst, abs(ratio * 2.0 * eta - 1.0))
    ok = worst <= 0.05
    _report(
        capsys, 4, "traded-price variance ratio", ok,
        f"max |ratio * 2 eta - 1| = {worst:.4f} (tol 0.05) across eta 0.10/0.25/0.40",
    )


def test_criterion_5_post_change_crossing_frequencies(capsys):
    worst_mc = 0.0
    worst_closed = 0.0
    for eta in (0.10, 0.25, 0.40):
        p_rev, p_cont = crossing_probabilities(eta)
        # barrier-distance odds: one tick to continue, one band width to revert
        alpha = SIM_TICK
        d_rev, d_cont = 2.0 * eta * alpha, alpha
        worst_closed = max(
            worst_closed,
            abs(p_cont - d_rev / (d_rev + d_cont)),
            abs(p_rev - d_cont / (d_rev + d_cont)),
        )
        mc_rev, mc_cont = first_passage_frequencies(eta, 100_000, seed=17)
        worst_mc = max(worst_mc, abs(mc_rev - p_rev), abs(mc_cont - p_cont))
    ok = worst_mc <= 0.01 and worst_closed <= 1e-12
    _report(
        capsys, 5, "post-change crossing frequencies", ok,
        f"max Monte Carlo gap {worst_mc:.4f} (tol 0.01, 100k trials/ratio), "
        f"closed form vs barrier odds gap {worst_closed:.1e}",
    )


def test_criterion_6_signature_curve_shape(capsys, sim_days, flat_tape):
    curve = signature_plot(sim_days.days[0.25].tape, samples_per_second=1.0, lag_max=50)
    slope = float(np.polyfit(np.array(list(curve), dtype=float), list(curve.values()), 1)[0])
    flat = signature_plot(flat_tape, samples_per_second=1.0, lag_max=50)
    spread = max(flat.values()) / min(flat.values())
    ok = slope < 0.0 and 0.97 <= spread <= 1.03
    _report(
        capsys, 6, "signature curve shape", ok,
        f"bouncing tape slope {slope:.3e} (< 0), break-even tape max/min {spread:.4f} "
        f"(within [0.97, 1.03])",
    )


def test_criterion_7_roll_measure(capsys, sim_days):
    worst = 0.0
    for eta in (0.10, 0.25):
        tape, _ = sim_days.days[eta]
        emp = empirical_roll_measure(tape.change_prices)
        implied = roll_implicit_measure(eta, SIM_TICK)
        worst = max(worst, abs(emp / implied - 1.0))
    ok = worst <= 0.05
    _report(
        capsys, 7, "Roll measure", ok,
        f"max relative gap {worst:.4f} (tol 0.05) at eta 0.10/0.25",
    )


def _planted_records(rng, n=40, noise_frac=0.01):
    etas = rng.uniform(0.08, 0.5, size=n)
    alphas = rng.choice([0.005, 0.01, 0.025], size=n)
    ms = rng.integers(1000, 30000, size=n)
    spreads = alphas * (1.0 + 0.6 * rng.random(size=n))
    x1 = etas * alphas * np.sqrt(ms)
    x2 = spreads * np.sqrt(ms)
    clean = x1 + 0.1 * x2
    sigmas = clean + noise_frac * clean.mean() * rng.standard_normal(n)
    return [
        DailyRecord(
            date=f"d{i}", asset_id="PL", eta_hat=float(etas[i]), alpha=float(alphas[i]),
            sigma_hat=float(sigmas[i]), m_trades=int(ms[i]), avg_spread=float(spreads[i]),
            frac_one_tick=90.0,
        )
        for i in range(n)
    ]


_END_TO_END_CONFIG = """
mode = synthetic
out = {out}
seed = 2718
session = 08:00-10:00
synthetic.ETA15.tick_value = 0.01
synthetic.ETA15.eta = 0.15
synthetic.ETA15.sigma = 0.0035355
synthetic.ETA15.days = 20
synthetic.ETA15.sigma_jitter = 0.4
synthetic.ETA25.tick_value = 0.01
synthetic.ETA25.eta = 0.25
synthetic.ETA25.sigma = 0.0045644
synthetic.ETA25.days = 20
synthetic.ETA25.sigma_jitter = 0.4
synthetic.ETA40.tick_value = 0.01
synthetic.ETA40.eta = 0.40
synthetic.ETA40.sigma = 0.0057735
synthetic.ETA40.days = 20
synthetic.ETA40.sigma_jitter = 0.4
"""


def test_criterion_8_regression_recovery(capsys, tmp_path):
    # planted slopes: the 95% interval must cover the truth in >= 90/100 draws
    covered = 0
    for seed in range(100):
        fit = fit_spread_vol(_planted_records(np.random.default_rng([929, seed])))
        covered += fit.p1_ci[0] <= 1.0 <= fit.p1_ci[1]

    # noise-free records sit exactly on the plane
    exact = fit_spread_vol(_planted_records(np.random.default_rng(404), noise_frac=0.0))
    exact_ok = (
        exact.r2 >= 1.0 - 1e-9
        and abs(exact.p1 - 1.0) <= 1e-6
        and abs(exact.p2 - 0.1) <= 1e-6
    )

    # full pipeline: 60 simulated asset-days over three zone-ratio regimes
    config = parse_config_text(_END_TO_END_CONFIG.format(out=tmp_path / "run"))
    result = run_pipeline(config)
    pooled = result.fits["ALL"]
    e2e_ok = len(result.records) == 60 and 0.9 <= pooled.p1 <= 1.1

    ok = covered >= 90 and exact_ok and e2e_ok
    _report(
        capsys, 8, "regression recovery", ok,
        f"interval coverage {covered}/100 (need >= 90), exact fit r2-1 = {exact.r2 - 1.0:.1e}, "
        f"pooled slope on 60 simulated days {pooled.p1:.4f} (need [0.9, 1.1])",
    )


def test_criterion_9_round_trip_determinism(capsys, tmp_path):
    # (a) simulate -> CSV -> ingest must reproduce the in-memory record exactly
    session = SessionFilter.from_text("08:00-08:20")
    asset = AssetSpec("RT", SIM_TICK, eta=0.25)
    spec = EfficientPathSpec(x0=100.0, volatility=0.003, horizon=session.length_seconds)
    tape, _ = simulate_day(spec, asset, TapeConfig(trade_intensity=2.0, seed=5))
    csv_path = tmp_path / "rt.csv"
    write_tape_csv(tape, csv_path, date(2009, 6, 1), session)
    back = ingest_trades([csv_path], asset, session, [])[0].tape
    rec_mem = build_daily_record(tape, date="2009-06-01")
    rec_csv = build_daily_record(back, date="2009-06-01")
    cols_equal = all(
        np.array_equal(getattr(tape, c), getattr(back, c))
        for c in ("times", "price_q", "bid_q", "ask_q")
    )
    round_trip_ok = cols_equal and rec_mem == rec_csv

    # (b) the batch pipeline must be byte-identical across reruns of one seed
    text = (
        "mode = synthetic\nout = {out}\nseed = 44\nsession = 08:00-08:30\n"
        "synthetic.RT.tick_value = 0.01\nsynthetic.RT.eta = 0.25\n"
        "synthetic.RT.sigma = 0.002\nsynthetic.RT.days = 5\n"
    )
    res_a = run_pipeline(parse_config_text(text.format(out=tmp_path / "a")))
    res_b = run_pipeline(parse_config_text(text.format(out=tmp_path / "b")))
    outputs_equal = all(
        res_a.outputs[k].read_bytes() == res_b.outputs[k].read_bytes() for k in res_a.outputs
    )
    trades_a = sorted((tmp_path / "a" / "trades").rglob("*.csv"))
    trades_b = sorted((tmp_path / "b" / "trades").rglob("*.csv"))
    trades_equal = len(trades_a) == 5 and all(
        p.read_bytes() == q.read_bytes() for p, q in zip(trades_a, trades_b)
    )

    ok = round_trip_ok and outputs_equal and trades_equal
    _report(
        capsys, 9, "round-trip determinism", ok,
        f"CSV round trip exact: {round_trip_ok}; rerun byte-identical across "
        f"{len(res_a.outputs)} outputs and {len(trades_a)} trade files: "
        f"{outputs_equal and trades_equal}",
    )
