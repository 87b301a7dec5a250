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

import csv
import io
import math
import sys
from dataclasses import dataclass, field, replace
from datetime import date as date_type
from datetime import timedelta
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .domain import AssetSpec, TradeTape
from .errors import IngestError, ParameterError, TickzoneError, show_field, writing
from .estimators import DailyRecord, build_daily_record
from .regression import REGRESSION_CSV_HEADER, RegressionFit, fit_spread_vol
from .simulator import EfficientPathSpec, TapeConfig, TrueParams, equilibrium_fill_rate, simulate_day
from .tick_policy import BETA_PRESETS, VERSIONS, TickScenario, crossing_probabilities, market_order_cost, optimal_tick
from .tradefile import FULL_DAY, SessionFilter, ingest_trades, read_text, write_tape_csv

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


def tick_table(
    scenarios: Mapping[str, TickScenario], betas: Sequence[float], versions: Sequence[int], skipped: List[str]
) -> Tuple[List[str], List[List[str]]]:
    """Header and rows of an optimal-tick table: one row per asset, one cell per (version, beta).

    A cell is blank where its version gives no tick, as version 1 without a
    fit does, and ``skipped`` gets a line naming the cell and the cause; a
    beta outside (0, 2), or two betas with one ``{b:g}`` label, raises.
    """
    labels = [f"{b:g}" for b in betas]
    if len(set(labels)) < len(labels):
        raise ParameterError(f"betas {list(betas)!r} share a column label in {labels!r}")
    header = ["asset_id", "tick_value"] + [f"v{v}_beta{b}" for v in versions for b in labels]
    rows = []
    for aid, scenario in scenarios.items():
        at_betas = [replace(scenario, beta=b) for b in betas]
        row = [aid, fmt_float(scenario.alpha0)]
        for v in versions:
            for s in at_betas:
                try:
                    row.append(fmt_float(optimal_tick(s, version=v)))
                except TickzoneError as exc:
                    row.append("")
                    skipped.append(f"optimal_ticks {aid} v{v} beta{s.beta:g}: {exc}")
        rows.append(row)
    return header, rows


def write_csv(path: Union[str, Path, None], header: Sequence, rows: Iterable[Sequence]) -> None:
    """Write one report CSV to ``path``, or to stdout when ``path`` is None."""
    if path is None:
        csv.writer(sys.stdout).writerows([header, *rows])
        return
    with writing(path), open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])


@dataclass(frozen=True)
class SyntheticAsset:
    """One simulated asset of synthetic mode: its asset (id, tick and zone ratio) and how to simulate it."""

    asset: AssetSpec
    sigma: float
    days: int = 20
    x0: float = 100.0
    fills: Union[str, float] = "auto"
    sigma_jitter: float = 0.1

    def __post_init__(self):
        key = f"synthetic.{self.asset.asset_id}"
        if self.days < 1:
            raise ParameterError(f"{key}.days must be >= 1, got {self.days!r}")
        if not 0 < self.sigma < math.inf:
            raise ParameterError(f"{key}.sigma must be finite and > 0, got {self.sigma!r}")
        if not math.isfinite(self.x0):
            raise ParameterError(f"{key}.x0 must be finite, got {self.x0!r}")
        if not 0.0 <= self.sigma_jitter < 1.0:
            raise ParameterError(f"{key}.sigma_jitter must lie in [0, 1), got {self.sigma_jitter!r}")
        object.__setattr__(self, "fills", read_fills(self.fills, f"{key}.fills"))
        if not (self.fills == "auto" or 0 <= self.fills < math.inf):
            raise ParameterError(f"{key}.fills must be 'auto' or finite and >= 0, got {self.fills!r}")


def read_fills(value: Union[str, float], source: str) -> Union[str, float]:
    """``'auto'``, or the fill rate ``value`` gives as a number; ``source`` names it in the error."""
    if value == "auto":
        return value
    try:
        return float(value)
    except ValueError:
        raise ParameterError(f"{source} must be 'auto' or a number, got {value!r}") from None


@dataclass(frozen=True)
class PipelineConfig:
    mode: str
    out: Path
    seed: int = 0
    session: SessionFilter = FULL_DAY
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
        # a key that only the other mode reads is refused, not ignored
        if self.mode == "ingest" and self.synthetic:
            raise ParameterError(f"synthetic.{min(self.synthetic)}.* needs mode = synthetic")
        if self.mode == "synthetic" and self.input_dir is not None:
            raise ParameterError("input_dir needs mode = ingest")
        if self.mode == "synthetic" and self.tick_values:
            raise ParameterError(f"tick_value.{min(self.tick_values)} needs mode = ingest")
        if self.beta is not None and not 0.0 < self.beta < 2.0:
            raise ParameterError(f"beta must lie in (0, 2), got {self.beta!r}")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")
        for aid, syn in self.synthetic.items():
            try:  # the last day must be a date, as each day's file is named by it
                self.start_date + timedelta(days=syn.days - 1)
            except OverflowError:
                raise ParameterError(f"start_date {self.start_date} with synthetic.{aid}.days = {syn.days} "
                                     "runs past the last date, 9999-12-31") from None


def _parse_bool(value: str) -> bool:
    low = value.lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


# how the text of each optional key is read; a key the config leaves out keeps its dataclass default
_TOP_VALUES = {
    "seed": int, "beta": float, "pool": _parse_bool, "keep_flagged": _parse_bool,
    "start_date": date_type.fromisoformat, "input_dir": Path,
}
_SYN_VALUES = {"eta": float, "sigma": float, "days": int, "x0": float, "sigma_jitter": float}
_TOP_KEYS = {"mode", "out", "session", "timezone", *_TOP_VALUES}
_SYN_KEYS = {"tick_value", "fills", *_SYN_VALUES}


def _read_values(texts: Mapping[str, str], readers: Mapping, prefix: str = "") -> Dict:
    """Each key of ``texts`` that ``readers`` knows, read from its text; a bad text names its key."""
    values = {}
    for key, text in texts.items():
        if key in readers:
            try:
                values[key] = readers[key](text)
            except ValueError as exc:
                raise ParameterError(f"{prefix}{key}: {exc}") from None
    return values


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
            if "/" in parts[1] or "\\" in parts[1]:  # the id names the asset's trade directory under out
                raise ParameterError(f"synthetic key {key!r}: the asset id must not hold '/' or '\\'")
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
        values = _read_values(params, _SYN_VALUES, f"synthetic.{aid}.")
        try:
            asset = AssetSpec(aid, params["tick_value"], eta=values.pop("eta"))
        except ParameterError as exc:
            raise ParameterError(f"synthetic.{aid}: {exc}") from None
        synthetic[aid] = SyntheticAsset(asset, fills=params.get("fills", "auto"), **values)
    return PipelineConfig(
        mode=raw.get("mode", "ingest" if "input_dir" in raw else "synthetic"),
        out=Path(raw["out"]),
        session=session,
        tick_values=tick_values,
        synthetic=synthetic,
        **_read_values(raw, _TOP_VALUES),
    )


def load_config(path: Union[str, Path], overrides: Optional[Mapping[str, str]] = None) -> PipelineConfig:
    return parse_config_text(read_text(Path(path)), overrides)


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
            lines.append(f"{len(self.skipped)} item(s) skipped")
        return "\n".join(lines)


def simulate_to_csv(
    asset: AssetSpec, sigma: float, x0: float, fills: Union[str, float], seed: int,
    session: SessionFilter, day: date_type, path: Path,
) -> Tuple[TradeTape, TrueParams]:
    """Simulate ``day`` over ``session`` into the trade file ``path``; ``fills`` is a rate or ``'auto'``."""
    horizon = session.elapsed_seconds(day)
    if horizon <= 0:
        raise ParameterError(f"the clock in {session.tz} skips all of session {session.label()} on {day}")
    intensity = equilibrium_fill_rate(asset, sigma, horizon) if fills == "auto" else fills
    spec = EfficientPathSpec(x0=x0, volatility=sigma, horizon=horizon)
    tape, truth = simulate_day(spec, asset, TapeConfig(trade_intensity=intensity, seed=seed))
    write_tape_csv(tape, path, day, session)
    return tape, truth


def _synthesize(config: PipelineConfig) -> List[Tuple[AssetSpec, List[Path]]]:
    """Simulate every configured asset-day and write it as a trade CSV; returns each asset with its files."""
    inputs: List[Tuple[AssetSpec, List[Path]]] = []
    for ai, (aid, syn) in enumerate(sorted(config.synthetic.items())):
        jitter_rng = np.random.default_rng([config.seed, 0x5117E5, ai])
        asset_dir = config.out / "trades" / aid
        with writing(asset_dir, "make directory"):
            asset_dir.mkdir(parents=True, exist_ok=True)
        paths: List[Path] = []
        for di in range(syn.days):
            sigma_day = syn.sigma * (1.0 + syn.sigma_jitter * (2.0 * jitter_rng.random() - 1.0))
            day_seed = int(np.random.SeedSequence([config.seed, ai, di]).generate_state(1)[0])
            day = config.start_date + timedelta(days=di)
            paths.append(asset_dir / f"{day.isoformat()}.csv")
            simulate_to_csv(syn.asset, sigma_day, syn.x0, syn.fills, day_seed, config.session, day, paths[-1])
        inputs.append((syn.asset, paths))
    return inputs


def _discover(config: PipelineConfig, skipped: List[str]) -> List[Tuple[AssetSpec, List[Path]]]:
    """Each asset under ``input_dir`` that has a configured tick, with its trade files."""
    inputs: List[Tuple[AssetSpec, List[Path]]] = []
    root = config.input_dir
    if not root.is_dir():
        raise ParameterError(f"input_dir {root} is not a directory")
    for sub in sorted(p for p in root.iterdir() if p.is_dir()):
        aid = sub.name
        found = sorted(sub.glob("*.csv"))
        if not found:
            skipped.append(f"ingest {aid}: no csv files under {sub}")
            continue
        if aid not in config.tick_values:
            skipped.append(f"ingest {aid}: no tick_value.{aid} configured, asset skipped")
            continue
        inputs.append((AssetSpec(aid, config.tick_values[aid]), found))
    return inputs


def records_from_files(
    asset: AssetSpec, paths: Sequence[Union[str, Path]], session: SessionFilter, skipped: List[str]
) -> List[DailyRecord]:
    """One record per day of the asset's trade files; each file or day left out goes to ``skipped``."""
    records: List[DailyRecord] = []
    for day, tape in ingest_trades(paths, asset, session, skipped):
        try:
            records.append(build_daily_record(tape, date=day.isoformat()))
        except TickzoneError as exc:
            skipped.append(f"record {asset.asset_id} {day}: {exc}")
    return records


def _daily_diagnostics(r: DailyRecord) -> List[str]:
    cost = market_order_cost(r.eta_hat, r.alpha)
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
        raise IngestError(f"bad header {show_field(','.join(header), lambda _: repr(header))}", path=path)
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
    records: Sequence[DailyRecord], split_regimes: bool, pool: bool, keep_flagged: bool, skipped: List[str]
) -> Dict[str, RegressionFit]:
    """Fit each asset, or each asset and tick value, and with ``pool`` all records as ``ALL``.

    Returns the fits in report order (groups sorted, then ``ALL``); each
    group that could not be fitted goes to ``skipped``.
    """
    groups: Dict[str, List[DailyRecord]] = {}
    for r in records:
        groups.setdefault(f"{r.asset_id}@{fmt_float(r.alpha)}" if split_regimes else r.asset_id, []).append(r)
    named = sorted(groups.items()) + ([("ALL", records)] if pool else [])
    fits: Dict[str, RegressionFit] = {}
    for key, group in named:
        try:
            fits[key] = fit_spread_vol(group, exclude_flagged=not keep_flagged)
        except TickzoneError as exc:
            skipped.append(f"regression {key}: {exc}")
    return fits


def write_regression_csv(fits: Mapping[str, RegressionFit], path: Union[str, Path, None]) -> None:
    """One row per fit, in the order of ``fits``; ``path`` None writes to stdout."""
    rows = [[key] + [fmt_float(v) for v in fit.row(key)[1:]] for key, fit in fits.items()]
    write_csv(path, REGRESSION_CSV_HEADER, rows)


def _tick_scenarios(
    records: Sequence[DailyRecord],
    fits: Mapping[str, RegressionFit],
    config: PipelineConfig,
    skipped: List[str],
) -> Dict[str, TickScenario]:
    """Each asset's current regime and fit as a tick scenario, in asset order."""
    scenarios: Dict[str, TickScenario] = {}
    for aid in sorted({r.asset_id for r in records}):
        recs = [r for r in records if r.asset_id == aid and (config.keep_flagged or not r.eta_flagged)]
        if not recs:
            skipped.append(f"optimal_ticks {aid}: every day flagged")
            continue
        eta0 = float(np.mean([r.eta_hat for r in recs]))
        if eta0 <= 0:
            skipped.append(f"optimal_ticks {aid}: mean zone ratio is zero")
            continue
        fit = fits.get(aid) or fits.get("ALL")
        scenarios[aid] = TickScenario(
            alpha0=recs[-1].alpha,
            eta0=eta0,
            p1_0=fit.p1 if fit else None,
            p2_0=fit.p2 if fit else None,
            m0=float(np.mean([r.m_trades for r in recs])),
            sigma0=float(np.mean([r.sigma_hat for r in recs])),
        )
    return scenarios


def run_pipeline(config: PipelineConfig, skipped: Optional[List[str]] = None) -> PipelineResult:
    """Execute one full pipeline run; all outputs are deterministic in the config.

    Each stage appends what it skips to ``skipped`` (a new list if None), so a run that fails leaves its skips there.
    """
    with writing(config.out, "make directory"):
        config.out.mkdir(parents=True, exist_ok=True)
    skipped = [] if skipped is None else skipped

    inputs = _synthesize(config) if config.mode == "synthetic" else _discover(config, skipped)
    if not inputs:
        skipped.append(f"ingest: no input under {config.input_dir or config.out}")

    records = [r for asset, paths in inputs for r in records_from_files(asset, paths, config.session, skipped)]
    # each pipeline asset has one tick value, so its fit is keyed by the asset id
    fits = fit_groups(records, False, config.pool, config.keep_flagged, skipped)

    outputs = {name: config.out / f"{name}.csv" for name in REPORTS}
    write_daily_records_csv(records, outputs["daily_records"])
    write_regression_csv(fits, outputs["regression"])
    emit_cloud_csv(records, outputs["cloud_raw"])

    pooled = fits.get("ALL")
    dropped = emit_cloud_csv(records, outputs["cloud_adjusted"], lambda r: pooled or fits.get(r.asset_id))
    if dropped:
        skipped.append(f"cloud_adjusted: no fit for {dropped} record(s)")
    betas = (config.beta,) if config.beta is not None else BETA_PRESETS
    scenarios = _tick_scenarios(records, fits, config, skipped)
    write_csv(outputs["optimal_ticks"], *tick_table(scenarios, betas, VERSIONS, skipped))

    n_files = sum(len(paths) for _, paths in inputs)
    return PipelineResult(records=records, fits=fits, skipped=skipped, outputs=outputs, n_files=n_files)
