"""Command line front end.

Subcommands::

    simulate      simulate one asset-day and write it as a trade CSV
    estimate      per-day estimates from trade CSVs
    regress       spread-volatility regression over a daily records CSV
    predict       zone-ratio forecast for a contemplated tick change
    optimal-tick  implied optimal tick table for the bundled reference assets
    signature     realized-variance signature curve from trade CSVs
    pipeline      full batch run driven by a config file

Every command prints each item it skips as one
``skipped: <stage>[ <item>]: <cause>`` line on stderr, and a run that fails
ends in one ``error: <msg>`` line there (exit 1).
"""
from __future__ import annotations

import argparse
import re
import sys
from datetime import date as date_type
from pathlib import Path
from typing import List, Optional

from .domain import AssetSpec
from .errors import MissingFitError, ParameterError, TickzoneError
from .estimators import check_sampling, signature_plot
from .pipeline import (
    fit_groups,
    fmt_float,
    load_config,
    read_daily_records_csv,
    read_fills,
    records_from_files,
    run_pipeline,
    simulate_to_csv,
    tick_table,
    write_csv,
    write_daily_records_csv,
    write_regression_csv,
)
from .tick_policy import (
    BETA_PRESETS,
    VERSIONS,
    TickScenario,
    crossing_probabilities,
    load_reference_assets,
    market_order_cost,
    predict_eta,
)
from .tradefile import SessionFilter, ingest_trades


class _Parser(argparse.ArgumentParser):
    """An argument parser that takes every negative float text for a value, not for an option.

    argparse before Python 3.12 knows only the forms -5 and -.5, so ``--x0 -1e10``
    would read -1e10 as an unknown option. This sets argparse's internal
    ``_negative_number_matcher``; subparsers are made of the same class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+(\.\d*)?|\.\d+)([eE][-+]?\d+)?$|^-(inf|infinity|nan)$", re.I)

    def error(self, message):
        """Raise argparse's message, so that ``main`` ends in one ``error:`` line and exit 1, not usage and exit 2."""
        raise ParameterError(message)


def _session(args) -> SessionFilter:
    return SessionFilter.from_text(args.session, tz=args.timezone)


def _add_session_args(p: argparse.ArgumentParser, default: str) -> None:
    p.add_argument("--session", default=default, help="trading window HH:MM-HH:MM")
    p.add_argument("--timezone", default="UTC", help="IANA zone the window is quoted in")


def _cmd_simulate(args, skipped: List[str]) -> int:
    session = _session(args)
    asset = AssetSpec("SIM", args.tick_value, eta=args.eta)
    fills = read_fills(args.fills, "--fills")
    try:
        day = date_type.fromisoformat(args.day)
    except ValueError:
        raise ParameterError(f"--day {args.day!r} is not an ISO date (YYYY-MM-DD)") from None
    tape, truth = simulate_to_csv(asset, args.sigma, args.x0, fills, args.seed, session, day, Path(args.out))
    print(
        f"wrote {args.out}: {len(tape)} trades, {tape.n_changes} price changes, "
        f"integrated variance {fmt_float(truth.integrated_variance)}"
    )
    return 0


def _cmd_estimate(args, skipped: List[str]) -> int:
    records = records_from_files(AssetSpec(args.asset_id, args.tick_value), args.inputs, _session(args), skipped)
    write_daily_records_csv(records, args.out)
    return 0 if records else 1


def _cmd_regress(args, skipped: List[str]) -> int:
    records = read_daily_records_csv(args.records)
    fits = fit_groups(records, args.split_regimes, args.pool, args.keep_flagged, skipped)
    if not fits:
        raise TickzoneError("no group could be fitted")
    write_regression_csv(fits, args.out)
    return 0


def _cmd_predict(args, skipped: List[str]) -> int:
    flags = {"alpha0": "alpha0", "eta0": "eta0", "alpha": "alpha", "p1_0": "p1", "p2_0": "p2",
             "beta": "beta", "m0": "m0", "sigma0": "sigma0"}
    try:
        scenario = TickScenario(**{field: getattr(args, flag) for field, flag in flags.items()})
    except TickzoneError as exc:
        # each check names its field first; the user typed the flag
        field, _, rest = str(exc).partition(" ")
        raise type(exc)(f"--{flags[field]} {rest}") from None
    try:
        forecast = predict_eta(scenario, version=args.version)
    except MissingFitError:
        raise MissingFitError("--version 1 needs --p1 > 0") from None
    print(f"eta_pred: {fmt_float(forecast.eta_pred)}")
    print(f"in_large_tick_regime: {str(forecast.in_large_tick_regime).lower()}")
    if forecast.warning:
        print(f"warning: {forecast.warning}")
    try:
        p_revert, p_continue = crossing_probabilities(forecast.eta_pred)
    except TickzoneError:
        return 0
    print(f"p_revert: {fmt_float(p_revert)}")
    print(f"p_continue: {fmt_float(p_continue)}")
    print(f"market_order_cost: {fmt_float(market_order_cost(forecast.eta_pred, args.alpha))}")
    return 0


def _cmd_optimal_tick(args, skipped: List[str]) -> int:
    assets = load_reference_assets()
    if args.asset:
        wanted = set(args.asset)
        unknown = wanted - {a.asset_id for a in assets}
        if unknown:
            raise ParameterError(f"unknown asset(s): {', '.join(sorted(unknown))}")
        assets = [a for a in assets if a.asset_id in wanted]
    scenarios = {a.asset_id: a.scenario() for a in assets}
    write_csv(args.out, *tick_table(scenarios, args.beta or BETA_PRESETS, args.version or VERSIONS, skipped))
    return 0


def _cmd_signature(args, skipped: List[str]) -> int:
    # a bad value is an error before any file is read, not a skip per day
    check_sampling(args.samples_per_second, args.lag_max)
    asset = AssetSpec(args.asset_id, args.tick_value)
    day_tapes = ingest_trades(args.inputs, asset, _session(args), skipped)
    rows = []
    for day, tape in day_tapes:
        try:
            curve = signature_plot(tape, samples_per_second=args.samples_per_second, lag_max=args.lag_max)
        except TickzoneError as exc:
            skipped.append(f"signature {asset.asset_id} {day.isoformat()}: {exc}")
            continue
        rows += [[day.isoformat(), lag, fmt_float(rv)] for lag, rv in curve.items()]
    write_csv(args.out, ["date", "lag", "realized_variance"], rows)
    return 0 if rows else 1


def _cmd_pipeline(args, skipped: List[str]) -> int:
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
    if args.out:
        overrides["out"] = args.out
    if args.session:
        overrides["session"] = args.session
    config = load_config(args.config, overrides)
    result = run_pipeline(config, skipped)
    print(result.summary())
    return 0 if result.records else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tickzone",
        description="Large-tick market microstructure: simulation, estimation and tick policy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate one asset-day into a trade CSV")
    p.add_argument("--tick-value", default="0.01", help="tick value as decimal text")
    p.add_argument("--eta", type=float, required=True, help="zone ratio in (0, 1]")
    p.add_argument("--sigma", type=float, required=True, help="volatility per sqrt(second)")
    p.add_argument("--x0", type=float, default=100.0, help="efficient price at the open")
    p.add_argument("--fills", default="auto", help="'auto' or fill trades per second")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--day", default="2009-06-01", help="calendar date stamped on the file")
    p.add_argument("--out", required=True, help="output trade CSV path")
    _add_session_args(p, default="08:00-16:00")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("estimate", help="daily estimates from trade CSVs")
    p.add_argument("inputs", nargs="+", help="trade CSV files for one asset")
    p.add_argument("--tick-value", required=True, help="tick value as decimal text")
    p.add_argument("--asset-id", default="ASSET")
    p.add_argument("--out", help="output CSV (default stdout)")
    _add_session_args(p, default="00:00-24:00")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("regress", help="spread-volatility regression over daily records")
    p.add_argument("--records", required=True, help="daily records CSV from estimate/pipeline")
    p.add_argument("--split-regimes", action="store_true", help="fit tick-value regimes separately")
    p.add_argument("--keep-flagged", action="store_true", help="keep days with a flagged ratio")
    p.add_argument("--no-pool", dest="pool", action="store_false", help="skip the pooled ALL fit")
    p.add_argument("--out", help="output CSV (default stdout)")
    p.set_defaults(func=_cmd_regress)

    p = sub.add_parser("predict", help="forecast the zone ratio after a tick change")
    p.add_argument("--alpha0", type=float, required=True, help="current tick value")
    p.add_argument("--eta0", type=float, required=True, help="current zone ratio")
    p.add_argument("--alpha", type=float, required=True, help="candidate tick value")
    p.add_argument("--beta", type=float, default=1.0, help="trade-count elasticity in (0, 2)")
    p.add_argument("--version", type=int, default=1, choices=VERSIONS)
    p.add_argument("--p1", type=float, help="fitted slope (needed by version 1)")
    p.add_argument("--p2", type=float, help="fitted spread coefficient")
    p.add_argument("--m0", type=float, help="current trades per day")
    p.add_argument("--sigma0", type=float, help="current daily volatility")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("optimal-tick", help="optimal tick table for the reference assets")
    p.add_argument("--asset", action="append", help="restrict to this asset id (repeatable)")
    p.add_argument("--beta", action="append", type=float, help="elasticity preset (repeatable)")
    p.add_argument("--version", action="append", type=int, choices=VERSIONS, help="formula version (repeatable)")
    p.add_argument("--out", help="output CSV (default stdout)")
    p.set_defaults(func=_cmd_optimal_tick)

    p = sub.add_parser("signature", help="realized-variance signature curve")
    p.add_argument("inputs", nargs="+", help="trade CSV files for one asset")
    p.add_argument("--tick-value", required=True, help="tick value as decimal text")
    p.add_argument("--asset-id", default="ASSET")
    p.add_argument("--samples-per-second", type=float, default=1.0)
    p.add_argument("--lag-max", type=int, default=50)
    p.add_argument("--out", help="output CSV (default stdout)")
    _add_session_args(p, default="00:00-24:00")
    p.set_defaults(func=_cmd_signature)

    p = sub.add_parser("pipeline", help="run the batch pipeline from a config file")
    p.add_argument("--config", required=True, help="key = value config file")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out", help="override the output directory")
    p.add_argument("--session", help="override the session window")
    p.set_defaults(func=_cmd_pipeline)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    skipped: List[str] = []
    try:
        args = build_parser().parse_args(argv)
        code, error = args.func(args, skipped), None
    except TickzoneError as exc:
        code, error = 1, exc
    # the one place that prints a skip or an error: each skip once, then the error
    for msg in skipped:
        print(f"skipped: {msg}", file=sys.stderr)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
