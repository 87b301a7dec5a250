"""Batch pipeline turning trade files into daily estimates and reports.

Two modes share one code path. In ``ingest`` mode trade CSVs are read from
``input_dir/<ASSET>/*.csv``. In ``synthetic`` mode asset-days are simulated,
written out as trade CSVs under ``out/trades/``, and fed back through the
same ingestion machinery, so synthetic runs exercise exactly the parsing and
estimation used on real data.

Outputs, all under ``out``:

- ``daily_records.csv``   one row per asset-day with estimates and diagnostics
- ``regression.csv``      spread-volatility fit per asset (plus pooled ``ALL``)
- ``cloud_raw.csv``       points (eta*alpha*sqrt(M), sigma) with the y = x line
- ``cloud_adjusted.csv``  the same cloud after applying the fitted coefficients
- ``optimal_ticks.csv``   implied optimal tick sizes for the pipeline's assets
"""
from __future__ import annotations

import contextlib
import csv
import io
import logging
import math
import sys
from dataclasses import dataclass, field
from datetime import date as date_type
from datetime import timedelta
from fractions import Fraction
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .domain import AssetSpec
from .equilibrium import crossing_probabilities
from .errors import IngestError, ParameterError, TickzoneError, show_field
from .estimators import DailyRecord, build_daily_record
from .regression import REGRESSION_CSV_HEADER, RegressionFit, fit_spread_vol
from .simulator import EfficientPathSpec, TapeConfig, equilibrium_fill_rate, simulate_day
from .tick_policy import BETA_PRESETS, VERSIONS, TickScenario, optimal_tick
from .tradefile import SessionFilter, ingest_trades, read_text, write_tape_csv

logger = logging.getLogger(__name__)

DAILY_CSV_HEADER = [
    "date", "asset_id", "eta_hat", "alpha", "sigma_hat", "m_trades",
    "avg_spread", "frac_one_tick", "market_order_cost", "p_revert", "p_continue",
]
CLOUD_CSV_HEADER = ["x", "y", "ref"]
# the report files every run writes under ``out``, as ``<name>.csv``
REPORTS = ("daily_records", "regression", "cloud_raw", "cloud_adjusted", "optimal_ticks")


def fmt_float(v: float) -> str:
    """Canonical float rendering for every CSV the pipeline writes."""
    return f"{v:.12g}"


def write_csv(path: Union[str, Path, None], header: Sequence, rows: Iterable[Sequence]) -> None:
    """Write one report CSV to ``path``, or to stdout when ``path`` is None."""
    with open(path, "w", newline="") if path is not None else contextlib.nullcontext(sys.stdout) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


@dataclass(frozen=True)
class SyntheticAsset:
    """Parameters for one simulated asset in synthetic mode."""

    asset_id: str
    tick_text: str
    eta: float
    sigma: float
    days: int = 20
    x0: float = 100.0
    fills: Union[str, float] = "auto"
    sigma_jitter: float = 0.1

    def __post_init__(self):
        if self.days < 1:
            raise ParameterError(f"{self.asset_id}: days must be >= 1")
        if self.sigma <= 0:
            raise ParameterError(f"{self.asset_id}: sigma must be > 0")
        if not 0.0 <= self.sigma_jitter < 1.0:
            raise ParameterError(f"{self.asset_id}: sigma_jitter must lie in [0, 1)")
        if isinstance(self.fills, str) and self.fills != "auto":
            raise ParameterError(f"{self.asset_id}: fills must be 'auto' or a number")


@dataclass(frozen=True)
class PipelineConfig:
    mode: str
    out: Path
    seed: int = 0
    session: SessionFilter = field(default_factory=lambda: SessionFilter(0, 86400))
    pool: bool = True
    keep_flagged: bool = False
    start_date: date_type = date_type(2009, 6, 1)
    beta: Optional[float] = None
    input_dir: Optional[Path] = None
    tick_values: Mapping[str, str] = field(default_factory=dict)
    synthetic: Mapping[str, SyntheticAsset] = field(default_factory=dict)

    def __post_init__(self):
        if self.mode not in ("ingest", "synthetic"):
            raise ParameterError(f"mode must be 'ingest' or 'synthetic', got {self.mode!r}")
        if self.mode == "ingest" and self.input_dir is None:
            raise ParameterError("ingest mode needs input_dir")
        if self.mode == "synthetic" and not self.synthetic:
            raise ParameterError("synthetic mode needs at least one synthetic.<ID>.* block")


_TOP_KEYS = {
    "mode", "out", "seed", "session", "timezone", "beta", "pool", "keep_flagged",
    "start_date", "input_dir",
}
_SYN_KEYS = {"tick_value", "eta", "sigma", "days", "x0", "fills", "sigma_jitter"}


def _parse_bool(value: str, key: str) -> bool:
    low = value.lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ParameterError(f"{key}: expected a boolean, got {value!r}")


def parse_config_text(text: str, overrides: Optional[Mapping[str, str]] = None) -> PipelineConfig:
    """Parse ``key = value`` lines; '#' starts a comment, blank lines ignored."""
    raw: Dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"config line {lineno}: expected key = value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ParameterError(f"config line {lineno}: empty key or value")
        if key in raw:
            raise ParameterError(f"config line {lineno}: duplicate key {key!r}")
        raw[key] = value
    for key, value in (overrides or {}).items():
        raw[key] = value

    tick_values: Dict[str, str] = {}
    syn_params: Dict[str, Dict[str, str]] = {}
    for key in list(raw):
        if key.startswith("tick_value."):
            tick_values[key[len("tick_value."):]] = raw.pop(key)
        elif key.startswith("synthetic."):
            parts = key.split(".")
            if len(parts) != 3 or parts[2] not in _SYN_KEYS:
                raise ParameterError(
                    f"unknown synthetic key {key!r}; use synthetic.<ID>.<{'|'.join(sorted(_SYN_KEYS))}>"
                )
            syn_params.setdefault(parts[1], {})[parts[2]] = raw.pop(key)
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ParameterError(f"unknown config keys: {', '.join(sorted(unknown))}")
    if "out" not in raw:
        raise ParameterError("config needs an out directory")

    session = SessionFilter.from_text(raw.get("session", "00:00-24:00"), tz=raw.get("timezone", "UTC"))
    synthetic: Dict[str, SyntheticAsset] = {}
    for aid, params in sorted(syn_params.items()):
        missing = {"tick_value", "eta", "sigma"} - set(params)
        if missing:
            raise ParameterError(f"synthetic.{aid}: missing {', '.join(sorted(missing))}")
        fills: Union[str, float] = params.get("fills", "auto")
        if fills != "auto":
            fills = float(fills)
        synthetic[aid] = SyntheticAsset(
            asset_id=aid,
            tick_text=params["tick_value"],
            eta=float(params["eta"]),
            sigma=float(params["sigma"]),
            days=int(params.get("days", "20")),
            x0=float(params.get("x0", "100.0")),
            fills=fills,
            sigma_jitter=float(params.get("sigma_jitter", "0.1")),
        )
    return PipelineConfig(
        mode=raw.get("mode", "ingest" if "input_dir" in raw else "synthetic"),
        out=Path(raw["out"]),
        seed=int(raw.get("seed", "0")),
        session=session,
        pool=_parse_bool(raw.get("pool", "true"), "pool"),
        keep_flagged=_parse_bool(raw.get("keep_flagged", "false"), "keep_flagged"),
        start_date=date_type.fromisoformat(raw.get("start_date", "2009-06-01")),
        beta=float(raw["beta"]) if "beta" in raw else None,
        input_dir=Path(raw["input_dir"]) if "input_dir" in raw else None,
        tick_values=tick_values,
        synthetic=synthetic,
    )


def load_config(path: Union[str, Path], overrides: Optional[Mapping[str, str]] = None) -> PipelineConfig:
    return parse_config_text(Path(path).read_text(), overrides)


@dataclass
class PipelineResult:
    records: List[DailyRecord]
    fits: Dict[str, RegressionFit]
    skipped: List[str]
    outputs: Dict[str, Path]
    n_files: int = 0

    def summary(self) -> str:
        lines = [
            f"{len(self.records)} asset-day record(s) from {self.n_files} file(s); "
            f"{len(self.fits)} regression fit(s)"
        ]
        for name in sorted(self.outputs):
            lines.append(f"  wrote {self.outputs[name]}")
        if self.skipped:
            lines.append(f"{len(self.skipped)} item(s) skipped:")
            lines.extend(f"  {msg}" for msg in self.skipped)
        return "\n".join(lines)


def _synthesize(config: PipelineConfig) -> Dict[str, List[Path]]:
    """Simulate every configured asset-day and write it as a trade CSV."""
    trade_dir = config.out / "trades"
    files: Dict[str, List[Path]] = {}
    horizon = config.session.length_seconds
    for ai, aid in enumerate(sorted(config.synthetic)):
        syn = config.synthetic[aid]
        asset = AssetSpec(aid, float(Fraction(syn.tick_text)), eta=syn.eta)
        jitter_rng = np.random.default_rng([config.seed, 0x5117E5, ai])
        asset_dir = trade_dir / aid
        asset_dir.mkdir(parents=True, exist_ok=True)
        files[aid] = []
        for di in range(syn.days):
            sigma_day = syn.sigma * (1.0 + syn.sigma_jitter * (2.0 * jitter_rng.random() - 1.0))
            if syn.fills == "auto":
                intensity = equilibrium_fill_rate(asset, sigma_day, horizon)
            else:
                intensity = float(syn.fills)
            day_seed = int(np.random.SeedSequence([config.seed, ai, di]).generate_state(1)[0])
            spec = EfficientPathSpec(x0=syn.x0, volatility=sigma_day, horizon=horizon)
            tape, _ = simulate_day(spec, asset, TapeConfig(trade_intensity=intensity, seed=day_seed))
            day = config.start_date + timedelta(days=di)
            path = asset_dir / f"{day.isoformat()}.csv"
            write_tape_csv(tape, path, day, config.session)
            files[aid].append(path)
        logger.info("synthesized %d day(s) for %s", syn.days, aid)
    return files


def _discover(config: PipelineConfig, skipped: List[str]) -> tuple[Dict[str, List[Path]], Dict[str, str]]:
    """Map asset id -> trade files and asset id -> tick text for ingest mode."""
    files: Dict[str, List[Path]] = {}
    ticks: Dict[str, str] = {}
    root = config.input_dir
    if not root.is_dir():
        raise ParameterError(f"input_dir {root} is not a directory")
    for sub in sorted(p for p in root.iterdir() if p.is_dir()):
        aid = sub.name
        found = sorted(sub.glob("*.csv"))
        if not found:
            skipped.append(f"{aid}: no csv files under {sub}")
            continue
        if aid not in config.tick_values:
            skipped.append(f"{aid}: no tick_value.{aid} configured, asset skipped")
            continue
        files[aid] = found
        ticks[aid] = config.tick_values[aid]
    return files, ticks


def _daily_diagnostics(r: DailyRecord) -> List[str]:
    cost = r.alpha * (0.5 - r.eta_hat)
    try:
        p_revert, p_continue = crossing_probabilities(r.eta_hat)
        return [fmt_float(cost), fmt_float(p_revert), fmt_float(p_continue)]
    except TickzoneError:
        return [fmt_float(cost), "", ""]


def write_daily_records_csv(records: Sequence[DailyRecord], path: Union[str, Path, None]) -> None:
    """One row per record; ``path`` None writes to stdout."""
    rows = [
        [
            r.date, r.asset_id, fmt_float(r.eta_hat), fmt_float(r.alpha), fmt_float(r.sigma_hat),
            r.m_trades, fmt_float(r.avg_spread), fmt_float(r.frac_one_tick),
        ]
        + _daily_diagnostics(r)
        for r in records
    ]
    write_csv(path, DAILY_CSV_HEADER, rows)


def read_daily_records_csv(path: Union[str, Path]) -> List[DailyRecord]:
    """Read records written by :func:`write_daily_records_csv`.

    The trailing diagnostic columns are ignored; they are derived values and
    get recomputed on the next write.
    """
    path = Path(path)
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    try:
        rows = [(reader.line_num, row) for row in reader]
    except csv.Error as exc:
        raise IngestError(str(exc), path=path, line=reader.line_num) from None
    if not rows:
        raise IngestError("file is empty", path=path)
    header = rows.pop(0)[1]
    if header[: len(DAILY_CSV_HEADER)] != DAILY_CSV_HEADER and header != DAILY_CSV_HEADER[:8]:
        raise IngestError(f"bad header {header!r}", path=path)
    records: List[DailyRecord] = []
    for lineno, row in rows:
        if not row:
            continue
        if len(row) < 8:
            raise IngestError(f"expected at least 8 fields, got {len(row)}", path=path, line=lineno)
        fields = dict(zip(DAILY_CSV_HEADER[:8], row))
        for name in DAILY_CSV_HEADER[2:8]:
            try:
                fields[name] = (int if name == "m_trades" else float)(fields[name])
            except ValueError:
                raise IngestError(f"bad {name} {show_field(fields[name])}", path=path, line=lineno) from None
        try:
            records.append(DailyRecord(**fields))
        except TickzoneError as exc:
            raise IngestError(str(exc), path=path, line=lineno) from None
    return records


def emit_cloud_csv(records: Sequence[DailyRecord], path: Path, fit_for=None) -> int:
    """Write the spread-volatility cloud; returns the number of rows skipped.

    ``fit_for`` maps a record to its RegressionFit (or None to drop the row);
    when omitted the raw cloud (x = eta*alpha*sqrt(M), y = sigma) is written.
    The ``ref`` column repeats x so plots can draw the y = x line directly.
    """
    rows = []
    for r in records:
        base = r.eta_hat * r.alpha * math.sqrt(r.m_trades)
        if fit_for is None:
            x, y = base, r.sigma_hat
        else:
            fit = fit_for(r)
            if fit is None:
                continue
            x = fit.p1 * base
            y = r.sigma_hat - fit.p2 * r.avg_spread * math.sqrt(r.m_trades)
        rows.append([fmt_float(x), fmt_float(y), fmt_float(x)])
    write_csv(path, CLOUD_CSV_HEADER, rows)
    return len(records) - len(rows)


def fit_groups(
    records: Sequence[DailyRecord], split_regimes: bool, pool: bool, keep_flagged: bool
) -> Tuple[Dict[str, RegressionFit], List[str]]:
    """Fit each asset, or each asset and tick value, and with ``pool`` all records as ``ALL``.

    Returns the fits in report order (groups sorted, then ``ALL``) and one
    message per group that could not be fitted.
    """
    groups: Dict[str, List[DailyRecord]] = {}
    for r in records:
        groups.setdefault(f"{r.asset_id}@{r.alpha:g}" if split_regimes else r.asset_id, []).append(r)
    named = sorted(groups.items()) + ([("ALL", records)] if pool else [])
    fits: Dict[str, RegressionFit] = {}
    skipped: List[str] = []
    for key, group in named:
        try:
            fits[key] = fit_spread_vol(group, exclude_flagged=not keep_flagged)
        except TickzoneError as exc:
            skipped.append(f"regression {key}: {exc}")
    return fits, skipped


def write_regression_csv(fits: Mapping[str, RegressionFit], path: Union[str, Path, None]) -> None:
    """One row per fit, in the order of ``fits``; ``path`` None writes to stdout."""
    rows = [[key] + [fmt_float(v) for v in fit.row(key)[1:]] for key, fit in fits.items()]
    write_csv(path, REGRESSION_CSV_HEADER, rows)


def _tick_table_rows(
    records: Sequence[DailyRecord],
    fits: Mapping[str, RegressionFit],
    config: PipelineConfig,
    skipped: List[str],
) -> tuple[List[str], List[List[str]]]:
    betas = (config.beta,) if config.beta is not None else BETA_PRESETS
    header = ["asset_id", "tick_value"] + [f"v{v}_beta{b:g}" for v in VERSIONS for b in betas]
    rows: List[List[str]] = []
    for aid in sorted({r.asset_id for r in records}):
        recs = [r for r in records if r.asset_id == aid and (config.keep_flagged or not r.eta_flagged)]
        if not recs:
            skipped.append(f"optimal_ticks {aid}: every day flagged")
            continue
        eta0 = float(np.mean([r.eta_hat for r in recs]))
        if eta0 <= 0:
            skipped.append(f"optimal_ticks {aid}: mean zone ratio is zero")
            continue
        alpha0 = recs[-1].alpha
        fit = fits.get(aid) or fits.get("ALL")
        m0 = float(np.mean([r.m_trades for r in recs]))
        sigma0 = float(np.mean([r.sigma_hat for r in recs]))
        row = [aid, fmt_float(alpha0)]
        for version in VERSIONS:
            for beta in betas:
                try:
                    scenario = TickScenario(
                        alpha0=alpha0, eta0=eta0, beta=beta,
                        p1_0=fit.p1 if fit else None, p2_0=fit.p2 if fit else None,
                        m0=m0, sigma0=sigma0,
                    )
                    row.append(fmt_float(optimal_tick(scenario, version=version)))
                except TickzoneError:
                    row.append("")
        rows.append(row)
    return header, rows


def run_pipeline(config: PipelineConfig) -> PipelineResult:
    """Execute one full pipeline run; all outputs are deterministic in the config."""
    config.out.mkdir(parents=True, exist_ok=True)
    skipped: List[str] = []

    if config.mode == "synthetic":
        files = _synthesize(config)
        ticks = {aid: config.synthetic[aid].tick_text for aid in files}
    else:
        files, ticks = _discover(config, skipped)
    if not files:
        skipped.append(f"no input: nothing to ingest under {config.input_dir or config.out}")

    records: List[DailyRecord] = []
    for aid in sorted(files):
        asset = AssetSpec(aid, float(Fraction(ticks[aid])))
        for day, tape in ingest_trades(files[aid], asset, session=config.session, tick_text=ticks[aid]):
            try:
                records.append(build_daily_record(tape, date=day.isoformat()))
            except TickzoneError as exc:
                skipped.append(f"record {aid} {day.isoformat()}: {exc}")

    # each pipeline asset has one tick value, so its fit is keyed by the asset id
    fits, unfitted = fit_groups(records, False, config.pool, config.keep_flagged)
    skipped.extend(unfitted)

    outputs = {name: config.out / f"{name}.csv" for name in REPORTS}
    write_daily_records_csv(records, outputs["daily_records"])
    write_regression_csv(fits, outputs["regression"])
    emit_cloud_csv(records, outputs["cloud_raw"])

    pooled = fits.get("ALL") if config.pool else None
    dropped = emit_cloud_csv(records, outputs["cloud_adjusted"], lambda r: pooled or fits.get(r.asset_id))
    if dropped:
        skipped.append(f"cloud_adjusted: no fit for {dropped} record(s)")
    write_csv(outputs["optimal_ticks"], *_tick_table_rows(records, fits, config, skipped))

    n_files = sum(len(v) for v in files.values())
    for msg in skipped:
        logger.warning("skipped: %s", msg)
    return PipelineResult(records=records, fits=fits, skipped=skipped, outputs=outputs, n_files=n_files)
