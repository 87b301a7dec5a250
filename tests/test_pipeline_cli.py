"""Config parsing, the batch pipeline, and the command line front end."""
import csv
import errno
import math
import os
import re
import shutil
import time
from dataclasses import replace
from datetime import datetime
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tickzone.cli import build_parser
from tickzone.cli import main as cli_main
from tickzone.domain import AssetSpec
from tickzone.errors import IngestError, ParameterError, TickzoneError
from tickzone.estimators import DailyRecord
from tickzone.pipeline import (
    _SYN_KEYS,
    _TOP_KEYS,
    CLOUD_CSV_HEADER,
    DAILY_CSV_HEADER,
    PipelineConfig,
    SyntheticAsset,
    emit_cloud_csv,
    fmt_float,
    load_config,
    parse_config_text,
    read_daily_records_csv,
    run_pipeline,
    write_daily_records_csv,
)
from tickzone.regression import REGRESSION_CSV_HEADER, fit_spread_vol
from tickzone.tick_policy import load_reference_assets

_SYNTH_CONFIG = """
# two simulated assets, one hour each day
mode = synthetic
out = {out}
seed = 3
session = 08:00-09:00
synthetic.A1.tick_value = 0.01
synthetic.A1.eta = 0.25
synthetic.A1.sigma = 0.002
synthetic.A1.days = 6
synthetic.A2.tick_value = 0.01
synthetic.A2.eta = 0.4
synthetic.A2.sigma = 0.002
synthetic.A2.days = 6
"""


# the full `tickzone optimal-tick` table, 11 reference assets x 3 versions x 2 presets
_REFERENCE_TICK_TABLE = """\
asset_id,tick_value,v1_beta1,v1_beta0.5,v2_beta1,v2_beta0.5,v3_beta1,v3_beta0.5
BUS5,7.8125,2.70809932372,3.85513628764,2.4064453125,3.56325859336,1.69653125,2.82252579272
DJ,5,1.55942856843,2.29950129706,1.66272222222,2.3999552041,1.21032,1.94203390615
EURO,12.5,3.1161174321,4.95122369682,4.06125,5.90758284357,2.9282,4.75011176838
SP,12.5,0.251814695827,0.925459431058,0.6328125,1.71061931126,0.06125,0.360612463733
Bobl 1,5,1.83244395842,2.5606121534,1.88088888889,2.605546103,1.43648,2.17698978184
Bobl 2,10,1.52932163158,2.85977953736,1.62677777778,2.9800175435,0.80656,1.86677132021
Bund,10,1.56625501498,2.90563895755,1.57344444444,2.91452381865,0.76176,1.79698909974
DAX,12.5,4.89176220791,6.68775306918,4.8828125,6.67959354171,3.78125,5.63283373538
ESX,10,1.30138994026,2.5680588008,0.971361111111,2.11310206715,0.30276,0.971402009869
Schatz,5,0.7809152,1.45008207985,0.6845,1.32812505513,0.29768,0.762353571882
CL,10,3.09771755102,4.5781977148,2.98844444444,4.46988954137,2.07936,3.50983303172
"""


def _plane_records(n=6, asset_id="A", alpha=0.01):
    recs = []
    for i in range(n):
        eta = 0.15 + 0.05 * i
        m = 1000 + 700 * i
        mult = 1.0 + 0.1 * (i % 3)
        spread = alpha * mult
        sigma = 1.0 * eta * alpha * math.sqrt(m) + 0.1 * spread * math.sqrt(m)
        recs.append(
            DailyRecord(
                date=f"2009-06-{i + 1:02d}", asset_id=asset_id, eta_hat=eta, alpha=alpha,
                sigma_hat=sigma, m_trades=m, avg_spread=spread, frac_one_tick=95.0,
            )
        )
    return recs


def test_fmt_float():
    assert fmt_float(0.1) == "0.1"
    assert fmt_float(1.0) == "1"
    assert fmt_float(1 / 3) == "0.333333333333"
    assert fmt_float(1e-13) == "1e-13"


class TestParseConfig:
    def _minimal(self):
        return (
            "out = /tmp/x\n"
            "synthetic.A.tick_value = 0.01\n"
            "synthetic.A.eta = 0.25\n"
            "synthetic.A.sigma = 0.003\n"
        )

    def test_minimal_synthetic_defaults(self):
        cfg = parse_config_text(self._minimal())
        assert cfg.mode == "synthetic"
        assert cfg.out == Path("/tmp/x")
        assert cfg.seed == 0
        assert cfg.session.label() == "00:00-24:00"
        assert cfg.pool and not cfg.keep_flagged
        assert cfg.start_date.isoformat() == "2009-06-01"
        syn = cfg.synthetic["A"]
        assert (syn.asset.asset_id, syn.asset.grid.tick_text, syn.asset.eta, syn.sigma) == ("A", "0.01", 0.25, 0.003)
        assert (syn.days, syn.x0, syn.fills, syn.sigma_jitter) == (20, 100.0, "auto", 0.1)

    def test_mode_inferred_from_input_dir(self):
        cfg = parse_config_text("out = /tmp/x\ninput_dir = /tmp/in\ntick_value.B = 0.5\n")
        assert cfg.mode == "ingest"
        assert cfg.input_dir == Path("/tmp/in")
        assert cfg.tick_values == {"B": "0.5"}

    def test_comments_and_blanks_ignored(self):
        text = "# header\n\nout = /tmp/x  # trailing\n" + self._minimal().split("\n", 1)[1]
        assert parse_config_text(text).out == Path("/tmp/x")

    def test_overrides_win(self):
        cfg = parse_config_text(self._minimal(), overrides={"seed": "7", "session": "08:00-09:00"})
        assert cfg.seed == 7
        assert cfg.session.label() == "08:00-09:00"

    def test_session_timezone(self):
        cfg = parse_config_text(self._minimal() + "session = 08:00-17:15\ntimezone = Europe/Berlin\n")
        assert cfg.session.tz == "Europe/Berlin"
        assert (cfg.session.open_seconds, cfg.session.close_seconds) == (28800, 62100)

    def test_numeric_fills_and_jitter(self):
        cfg = parse_config_text(
            self._minimal() + "synthetic.A.fills = 250\nsynthetic.A.sigma_jitter = 0.4\n"
        )
        assert cfg.synthetic["A"].fills == 250.0
        assert cfg.synthetic["A"].sigma_jitter == 0.4

    def test_duplicate_key(self):
        with pytest.raises(ParameterError, match="duplicate key"):
            parse_config_text("out = a\nout = b\n")

    def test_missing_equals(self):
        with pytest.raises(ParameterError, match="key = value"):
            parse_config_text("out\n")

    def test_empty_value(self):
        with pytest.raises(ParameterError, match="empty key or value"):
            parse_config_text("out =\n")

    def test_unknown_top_key(self):
        with pytest.raises(ParameterError, match="unknown config keys"):
            parse_config_text(self._minimal() + "colour = blue\n")

    def test_workers_is_an_unknown_key(self):
        with pytest.raises(ParameterError, match="unknown config keys: workers$"):
            parse_config_text(self._minimal() + "workers = 2\n")

    def test_split_regimes_is_an_unknown_key(self):
        # every pipeline asset has one tick value, so there is one regime per asset
        with pytest.raises(ParameterError, match="unknown config keys: split_regimes$"):
            parse_config_text(self._minimal() + "split_regimes = true\n")

    def test_unknown_synthetic_key(self):
        with pytest.raises(ParameterError, match="unknown synthetic key"):
            parse_config_text(self._minimal() + "synthetic.A.drift = 1\n")

    def test_missing_synthetic_field(self):
        with pytest.raises(ParameterError, match="missing.*sigma"):
            parse_config_text("out = /tmp/x\nsynthetic.A.tick_value = 0.01\nsynthetic.A.eta = 0.2\n")

    def test_missing_out(self):
        with pytest.raises(ParameterError, match="out directory"):
            parse_config_text("seed = 1\n")

    def test_bad_bool(self):
        with pytest.raises(ParameterError, match="expected a boolean"):
            parse_config_text(self._minimal() + "pool = maybe\n")

    def test_bad_value_names_its_key(self):
        with pytest.raises(ParameterError, match="^seed: "):
            parse_config_text(self._minimal() + "seed = many\n")
        with pytest.raises(ParameterError, match="^synthetic.A.days: "):
            parse_config_text(self._minimal() + "synthetic.A.days = 2.5\n")


# every key a config may set, with one synthetic asset A
_CONFIG_KEYS = sorted(_TOP_KEYS) + [f"synthetic.A.{k}" for k in sorted(_SYN_KEYS)] + ["tick_value.A"]
# one line of text: no character that str.splitlines breaks at
_ONE_LINE = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"))
_EDGE_VALUES = st.sampled_from([
    "nan", "-inf", "1e400", "-1", "0", "9" * 5000, "1_0", "auto", "yes", "Europe/Berlin", "../UTC", "\x00",
    "08:00-09:00", "09:00-08:00", "24:00-25:00", "2009-02-30", "ingest", "synthetic", "0.01", "1e-400",
])


@given(st.dictionaries(st.sampled_from(_CONFIG_KEYS), st.one_of(_ONE_LINE, _EDGE_VALUES), min_size=1))
@settings(max_examples=300, deadline=None)
def test_config_text_gives_a_config_or_a_tickzone_error(values):
    lines = {"out": "run", "synthetic.A.tick_value": "0.01", "synthetic.A.eta": "0.25", "synthetic.A.sigma": "0.002"}
    text = "".join(f"{key} = {value}\n" for key, value in {**lines, **values}.items())
    try:
        config = parse_config_text(text)
    except TickzoneError:
        return
    assert isinstance(config, PipelineConfig)


class TestConfigValidation:
    def test_synthetic_asset_bounds(self):
        ok = dict(asset=AssetSpec("A", "0.01", eta=0.25), sigma=0.01)
        with pytest.raises(ParameterError, match=r"^synthetic\.A\.days must be >= 1, got 0$"):
            SyntheticAsset(**ok, days=0)
        with pytest.raises(ParameterError, match=r"^synthetic\.A\.sigma must be finite and > 0, got 0\.0$"):
            SyntheticAsset(**{**ok, "sigma": 0.0})
        with pytest.raises(ParameterError, match=r"^synthetic\.A\.sigma_jitter must lie in \[0, 1\), got 1\.0$"):
            SyntheticAsset(**ok, sigma_jitter=1.0)
        with pytest.raises(ParameterError, match=r"^synthetic\.A\.fills must be 'auto' or a number, got 'sometimes'$"):
            SyntheticAsset(**ok, fills="sometimes")

    def test_pipeline_config_bounds(self):
        with pytest.raises(ParameterError, match="mode"):
            PipelineConfig(mode="magic", out=Path("/tmp/x"))
        with pytest.raises(ParameterError, match="input_dir"):
            PipelineConfig(mode="ingest", out=Path("/tmp/x"))
        with pytest.raises(ParameterError, match="synthetic"):
            PipelineConfig(mode="synthetic", out=Path("/tmp/x"))

    def test_beta_outside_zero_two_raises(self):
        text = _SYNTH_CONFIG.format(out="/tmp/x")
        assert parse_config_text(text + "beta = 1.5\n").beta == 1.5
        for bad in ("3", "0", "2", "-0.5", "nan"):
            with pytest.raises(ParameterError, match=r"beta must lie in \(0, 2\)"):
                parse_config_text(text + f"beta = {bad}\n")


class TestDailyRecordsCsv:
    def test_round_trip(self, tmp_path):
        recs = _plane_records()
        path = tmp_path / "daily.csv"
        write_daily_records_csv(recs, path)
        header = path.read_text().splitlines()[0].split(",")
        assert header == DAILY_CSV_HEADER
        back = read_daily_records_csv(path)
        assert len(back) == len(recs)
        for a, b in zip(back, recs):
            assert (a.date, a.asset_id, a.m_trades) == (b.date, b.asset_id, b.m_trades)
            assert a.eta_hat == pytest.approx(b.eta_hat, rel=1e-10)
            assert a.sigma_hat == pytest.approx(b.sigma_hat, rel=1e-10)
            assert a.avg_spread == pytest.approx(b.avg_spread, rel=1e-10)

    def test_read_errors(self, tmp_path):
        empty = tmp_path / "e.csv"
        empty.write_text("")
        with pytest.raises(IngestError, match="empty"):
            read_daily_records_csv(empty)
        bad = tmp_path / "b.csv"
        bad.write_text("who,what\n")
        with pytest.raises(IngestError, match="bad header"):
            read_daily_records_csv(bad)
        short = tmp_path / "s.csv"
        short.write_text(",".join(DAILY_CSV_HEADER) + "\n2009-06-01,A,0.2\n")
        with pytest.raises(IngestError) as err:
            read_daily_records_csv(short)
        assert err.value.line == 2
        invalid = tmp_path / "i.csv"
        invalid.write_text(
            ",".join(DAILY_CSV_HEADER[:8]) + "\n2009-06-01,A,0.2,-1,0.5,100,0.01,90\n"
        )
        with pytest.raises(IngestError):
            read_daily_records_csv(invalid)

    _GOOD_ROW = "2009-06-01,A,0.2,0.01,0.5,100,0.01,90"

    def _assert_error(self, path, line, message):
        with pytest.raises(IngestError) as err:
            read_daily_records_csv(path)
        assert err.value.line == line
        assert str(err.value) == f"{path}:{line}: {message}"

    def test_byte_that_is_not_utf8(self, tmp_path):
        p = tmp_path / "ff.csv"
        p.write_bytes(f"{','.join(DAILY_CSV_HEADER)}\n{self._GOOD_ROW}\n2009-06-02,A,0.2\xff,".encode("latin-1"))
        self._assert_error(p, 3, "file is not UTF-8 text")

    def test_field_over_the_csv_field_limit(self, tmp_path):
        p = tmp_path / "huge.csv"
        p.write_text(f"{','.join(DAILY_CSV_HEADER)}\n{self._GOOD_ROW}\n2009-06-02,A,{'9' * 200_000},0.01\n")
        self._assert_error(p, 3, f"field larger than field limit ({csv.field_size_limit()})")

    def test_long_bad_number_is_shown_short(self, tmp_path):
        p = tmp_path / "long.csv"
        p.write_text(f"{','.join(DAILY_CSV_HEADER)}\n{self._GOOD_ROW.replace('0.2', 'x' * 100_000)}\n")
        self._assert_error(p, 2, f"bad eta_hat '{'x' * 40}…' (100000 characters)")


    @pytest.mark.parametrize("width", [40, 41, 100_000])
    def test_long_header_is_shown_short(self, tmp_path, width):
        # a header of up to 40 characters is shown as its fields, a longer one by its head and length
        head = "date,asset_id,eta_hat," + "a" * (width - 22)
        p = tmp_path / "head.csv"
        p.write_text(f"{head}\n{self._GOOD_ROW}\n")
        shown = repr(head.split(",")) if width <= 40 else f"'{head[:40]}…' ({width} characters)"
        with pytest.raises(IngestError) as err:
            read_daily_records_csv(p)
        assert str(err.value) == f"{p}: bad header {shown}"

class TestEmitCloud:
    def test_raw_cloud_points(self, tmp_path):
        recs = _plane_records(n=1)
        path = tmp_path / "raw.csv"
        emit_cloud_csv(recs, path)
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[0] == CLOUD_CSV_HEADER
        x, y, ref = (float(v) for v in rows[1])
        r = recs[0]
        assert x == pytest.approx(r.eta_hat * r.alpha * math.sqrt(r.m_trades), rel=1e-10)
        assert y == pytest.approx(r.sigma_hat, rel=1e-10)
        assert ref == x

    def test_adjusted_cloud_collapses_exact_fit_onto_diagonal(self, tmp_path):
        recs = _plane_records()
        fit = fit_spread_vol(recs)
        path = tmp_path / "adj.csv"
        dropped = emit_cloud_csv(recs, path, fit_for=lambda r: fit)
        assert dropped == 0
        for row in list(csv.reader(path.read_text().splitlines()))[1:]:
            x, y, ref = (float(v) for v in row)
            assert y == pytest.approx(x, rel=1e-9)
            assert ref == x

    def test_missing_fit_drops_rows(self, tmp_path):
        recs = _plane_records(n=4)
        fit = fit_spread_vol(_plane_records())
        path = tmp_path / "drop.csv"
        dropped = emit_cloud_csv(recs, path, fit_for=lambda r: fit if r.m_trades > 2000 else None)
        assert dropped == 2
        assert len(list(csv.reader(path.read_text().splitlines()))) == 1 + 2


@pytest.fixture(scope="module")
def synth_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth") / "out"
    cfg = parse_config_text(_SYNTH_CONFIG.format(out=out))
    return cfg, run_pipeline(cfg)


class TestRunPipelineSynthetic:
    def test_records_and_fits(self, synth_run):
        cfg, result = synth_run
        assert len(result.records) == 12
        assert result.n_files == 12
        assert sorted({r.asset_id for r in result.records}) == ["A1", "A2"]
        assert all(r.date.startswith("2009-06-") for r in result.records)
        assert list(result.fits) == ["A1", "A2", "ALL"]
        assert result.skipped == []

    def test_simulated_days_look_like_the_model(self, synth_run):
        _, result = synth_run
        for r in result.records:
            assert r.m_trades > 200
            assert 0.0 < r.eta_hat < 0.7
            assert r.avg_spread == pytest.approx(r.alpha)  # one-tick book
            assert r.frac_one_tick == 100.0

    def test_output_files_and_headers(self, synth_run, tmp_path):
        cfg, result = synth_run
        expect = {
            "daily_records": DAILY_CSV_HEADER,
            "regression": REGRESSION_CSV_HEADER,
            "cloud_raw": CLOUD_CSV_HEADER,
            "cloud_adjusted": CLOUD_CSV_HEADER,
            "optimal_ticks": None,
        }
        assert sorted(result.outputs) == sorted(expect)
        for name, header in expect.items():
            path = result.outputs[name]
            assert path.exists()
            first = path.read_text().splitlines()[0].split(",")
            if header is not None:
                assert first == header
        ticks_header = result.outputs["optimal_ticks"].read_text().splitlines()[0]
        assert ticks_header.startswith("asset_id,tick_value,v1_beta1")
        # the pipeline's tick table and the optimal-tick command are both made by `tick_table`
        reference = tmp_path / "reference_ticks.csv"
        assert cli_main(["optimal-tick", "--out", str(reference)]) == 0
        assert ticks_header == reference.read_text().splitlines()[0]

    def test_regression_rows_ordered_pooled_last(self, synth_run):
        _, result = synth_run
        rows = list(csv.reader(result.outputs["regression"].read_text().splitlines()))
        assert [r[0] for r in rows[1:]] == ["A1", "A2", "ALL"]

    def test_daily_csv_matches_records(self, synth_run):
        _, result = synth_run
        back = read_daily_records_csv(result.outputs["daily_records"])
        assert [(r.date, r.asset_id) for r in back] == [
            (r.date, r.asset_id) for r in result.records
        ]
        for a, b in zip(back, result.records):
            assert a.eta_hat == pytest.approx(b.eta_hat, rel=1e-10)
            assert a.m_trades == b.m_trades

    def test_summary_mentions_outputs(self, synth_run):
        _, result = synth_run
        text = result.summary()
        assert text.startswith("12 asset-day record(s) from 12 file(s); 3 regression fit(s)")
        assert text.count("wrote") == 5

    def test_own_fits_fill_the_tick_table_without_pool(self, tmp_path):
        # each asset's version-1 forecasts need its own fit when nothing is pooled
        cfg = parse_config_text(_SYNTH_CONFIG.format(out=tmp_path / "own"), {"pool": "false"})
        result = run_pipeline(cfg)
        assert list(result.fits) == ["A1", "A2"]
        rows = list(csv.DictReader(result.outputs["optimal_ticks"].read_text().splitlines()))
        assert [r["asset_id"] for r in rows] == ["A1", "A2"]
        v1 = [k for k in rows[0] if k.startswith("v1_")]
        assert v1 and all(r[k] != "" for r in rows for k in v1)

    def test_asset_too_short_to_fit_keeps_only_its_version_1_cells_blank(self, tmp_path):
        # two days are too few to fit S, and with nothing pooled only its version 1 has no coefficients
        short = "synthetic.S.tick_value = 0.01\nsynthetic.S.eta = 0.3\n"
        short += "synthetic.S.sigma = 0.002\nsynthetic.S.days = 2\n"
        cfg = parse_config_text(_SYNTH_CONFIG.format(out=tmp_path / "short") + short, {"pool": "false"})
        result = run_pipeline(cfg)
        assert list(result.fits) == ["A1", "A2"]
        assert any(msg.startswith("regression S: ") for msg in result.skipped)
        table = csv.DictReader(result.outputs["optimal_ticks"].read_text().splitlines())
        rows = {r["asset_id"]: r for r in table}
        assert list(rows) == ["A1", "A2", "S"]
        for key in rows["S"]:
            if key.startswith("v"):
                assert (rows["S"][key] == "") == key.startswith("v1_"), key
                assert rows["A1"][key] != ""
        cause = "version 1 needs fit coefficients with p1_0 > 0"
        blank = [msg for msg in result.skipped if msg.startswith("optimal_ticks ")]
        assert blank == [f"optimal_ticks S v1 beta{b}: {cause}" for b in ("1", "0.5")]

    def test_optimal_tick_past_the_float_range_is_a_named_blank_cell(self, tmp_path):
        # at eta 0.7 every base exceeds 1, and the power 1 / (1 - beta / 2) = 2e7 overflows
        extra = "synthetic.H.tick_value = 0.01\nsynthetic.H.eta = 0.7\nsynthetic.H.sigma = 0.002\nsynthetic.H.days = 5\n"
        cfg = parse_config_text(f"out = {tmp_path / 'hot'}\nseed = 3\nsession = 08:00-09:00\n" + extra,
                                {"beta": "1.9999999", "keep_flagged": "true"})
        result = run_pipeline(cfg)
        assert result.outputs["optimal_ticks"].read_text().splitlines() == [
            "asset_id,tick_value,v1_beta2,v2_beta2,v3_beta2", "H,0.01,,,"
        ]
        blank = [msg for msg in result.skipped if msg.startswith("optimal_ticks ")]
        assert [msg.split(":")[0] for msg in blank] == [f"optimal_ticks H v{v} beta2" for v in (1, 2, 3)]
        assert all("beta 1.9999999 puts the optimal tick 0.01 * 1." in msg for msg in blank)

    @pytest.mark.parametrize("extra, keep_flagged, cause", [
        # every simulated day's eta_hat comes out above the flag's 0.55
        ("synthetic.X.eta = 0.9\nsynthetic.X.sigma = 0.004\nsession = 08:00-08:20\n", "false", "every day flagged"),
        # at eta 0.01 a continuation is rare, and each day that has a record counts none: eta_hat 0
        ("synthetic.X.eta = 0.01\nsynthetic.X.sigma = 0.0003\nsession = 08:00-08:02\n", "true",
         "mean zone ratio is zero"),
    ])
    def test_asset_without_a_zone_ratio_has_no_tick_row(self, extra, keep_flagged, cause, tmp_path):
        text = f"out = {tmp_path / 'x'}\nseed = 3\nsynthetic.X.tick_value = 0.01\nsynthetic.X.days = 4\n" + extra
        result = run_pipeline(parse_config_text(text, {"keep_flagged": keep_flagged}))
        assert result.records
        assert [m for m in result.skipped if m.startswith("optimal_ticks ")] == [f"optimal_ticks X: {cause}"]
        assert result.outputs["optimal_ticks"].read_text().splitlines()[1:] == []

    def test_rerun_is_byte_identical(self, synth_run, tmp_path):
        cfg, result = synth_run
        cfg2 = parse_config_text(_SYNTH_CONFIG.format(out=tmp_path / "out2"))
        result2 = run_pipeline(cfg2)
        for name, path in result.outputs.items():
            assert path.read_bytes() == result2.outputs[name].read_bytes(), name
        first = sorted((cfg.out / "trades").rglob("*.csv"))
        second = sorted((tmp_path / "out2" / "trades").rglob("*.csv"))
        assert [p.name for p in first] == [p.name for p in second]
        for a, b in zip(first, second):
            assert a.read_bytes() == b.read_bytes(), a.name


class TestIngestModeEdges:
    def test_missing_input_dir(self, tmp_path):
        cfg = parse_config_text(f"out = {tmp_path / 'o'}\ninput_dir = {tmp_path / 'absent'}\n")
        with pytest.raises(ParameterError, match="not a directory"):
            run_pipeline(cfg)

    def test_empty_input_dir_reports_no_input(self, tmp_path):
        src = tmp_path / "in"
        src.mkdir()
        cfg = parse_config_text(f"out = {tmp_path / 'o'}\ninput_dir = {src}\n")
        result = run_pipeline(cfg)
        assert result.records == []
        assert any("no input" in msg for msg in result.skipped)

    def test_asset_without_tick_value_skipped(self, tmp_path, synth_run):
        run_cfg, _ = synth_run
        cfg = parse_config_text(
            f"out = {tmp_path / 'o'}\ninput_dir = {run_cfg.out / 'trades'}\ntick_value.A1 = 0.01\n"
        )
        result = run_pipeline(cfg)
        assert any("no tick_value.A2" in msg for msg in result.skipped)
        assert sorted({r.asset_id for r in result.records}) == ["A1"]
        assert len(result.records) == 6

    def test_record_skip_names_the_asset_and_day_once(self, tmp_path):
        (tmp_path / "in" / "A").mkdir(parents=True)
        (tmp_path / "in" / "A" / "d.csv").write_text("timestamp_ms,price,size,bid,ask\n1243843200000,100,1,,\n")
        cfg = parse_config_text(f"out = {tmp_path / 'o'}\ninput_dir = {tmp_path / 'in'}\ntick_value.A = 0.01\n")
        skipped = [msg for msg in run_pipeline(cfg).skipped if msg.startswith("record ")]
        assert skipped == ["record A 2009-06-01: need at least 2 price changes to compare directions, got 0"]


@pytest.fixture(scope="module")
def sim_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "sim.csv"
    rc = cli_main(
        [
            "simulate", "--eta", "0.25", "--sigma", "0.003",
            "--seed", "1", "--day", "2009-06-01", "--session", "08:00-08:10",
            "--out", str(path),
        ]
    )
    assert rc == 0
    return path


class TestCli:
    def test_simulate_writes_trade_csv(self, sim_csv, capsys):
        lines = sim_csv.read_text().splitlines()
        assert lines[0] == "timestamp_ms,price,size,bid,ask"
        assert len(lines) > 50

    def test_estimate(self, sim_csv, tmp_path, capsys):
        out = tmp_path / "daily.csv"
        rc = cli_main(
            [
                "estimate", str(sim_csv), "--tick-value", "0.01", "--asset-id", "SIM",
                "--session", "08:00-08:10", "--out", str(out),
            ]
        )
        assert rc == 0
        back = read_daily_records_csv(out)
        assert len(back) == 1
        assert back[0].date == "2009-06-01"
        assert 0.0 < back[0].eta_hat < 0.7

    @pytest.mark.parametrize("day, session, zone, hours", [
        pytest.param("2018-11-04", "00:30-02:00", "America/Sao_Paulo", 1.0, id="the clock skips the open"),
        pytest.param("2009-10-25", "01:00-04:00", "Europe/Berlin", 4.0, id="the clock goes back"),
        # the clock reads past 02:30 for half an hour before it reads 02:30 again, so the day ends the first time
        pytest.param("2009-10-25", "00:00-02:30", "Europe/Berlin", 2.5, id="the clock reads the close twice"),
        pytest.param("2009-10-25", "02:30-04:00", "Europe/Berlin", 2.5, id="the clock reads the open twice"),
    ])
    def test_clock_change_day_is_simulated_over_its_elapsed_session(self, day, session, zone, hours, tmp_path, capsys):
        where = ["--session", session, "--timezone", zone]
        trades, daily = tmp_path / "day.csv", tmp_path / "daily.csv"
        simulate = ["simulate", "--eta", "0.25", "--sigma", "0.002", "--day", day, "--out", str(trades), *where]
        assert cli_main(simulate) == 0
        stamps = [int(line.split(",")[0]) for line in trades.read_text().splitlines()[1:]]
        # the trades run from the open to the close as the local clock first reads it, and estimate keeps them all
        assert (stamps[-1] - stamps[0]) / 3.6e6 == pytest.approx(hours, abs=0.01)
        assert cli_main(["estimate", str(trades), "--tick-value", "0.01", "--out", str(daily), *where]) == 0
        (record,) = read_daily_records_csv(daily)
        assert record.m_trades == len(stamps)

    def test_estimate_degenerate_day_exits_nonzero(self, tmp_path, capsys):
        one = tmp_path / "one.csv"
        one.write_text("timestamp_ms,price,size,bid,ask\n1243814400000,100.5,1,100,100.5\n")
        rc = cli_main(["estimate", str(one), "--tick-value", "0.5", "--out", str(tmp_path / "o.csv")])
        assert rc == 1
        assert "skipped:" in capsys.readouterr().err

    def test_regress(self, tmp_path, capsys):
        records = tmp_path / "records.csv"
        write_daily_records_csv(_plane_records(), records)
        out = tmp_path / "fit.csv"
        rc = cli_main(["regress", "--records", str(records), "--out", str(out)])
        assert rc == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == REGRESSION_CSV_HEADER
        assert [r[0] for r in rows[1:]] == ["A", "ALL"]
        assert float(rows[1][1]) == pytest.approx(1.0, abs=1e-9)

    def test_regress_split_regimes(self, tmp_path, capsys):
        records = tmp_path / "records.csv"
        recs = _plane_records() + _plane_records(alpha=0.025)
        write_daily_records_csv(recs, records)
        out = tmp_path / "fit.csv"
        rc = cli_main(
            ["regress", "--records", str(records), "--split-regimes", "--no-pool", "--out", str(out)]
        )
        assert rc == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert [r[0] for r in rows[1:]] == ["A@0.01", "A@0.025"]

    def test_regress_unfittable_without_pool(self, tmp_path, capsys):
        records = tmp_path / "records.csv"
        write_daily_records_csv(_plane_records(n=3), records)
        rc = cli_main(["regress", "--records", str(records), "--no-pool"])
        assert rc == 1
        assert "no group could be fitted" in capsys.readouterr().err

    def test_predict_prints_forecast_and_exit_odds(self, capsys):
        rc = cli_main(
            [
                "predict", "--alpha0", "5", "--eta0", "0.268", "--alpha", "10",
                "--p1", "0.91", "--p2", "0.08",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        values = dict(line.split(": ", 1) for line in out.strip().splitlines())
        assert float(values["eta_pred"]) == pytest.approx(0.164, abs=1e-3)
        assert values["in_large_tick_regime"] == "true"
        eta = float(values["eta_pred"])
        assert float(values["p_revert"]) == pytest.approx(1 / (1 + 2 * eta), rel=1e-9)
        assert float(values["market_order_cost"]) == pytest.approx(10 * (0.5 - eta), rel=1e-9)

    def test_predict_without_coefficients_fails(self, capsys):
        rc = cli_main(["predict", "--alpha0", "5", "--eta0", "0.268", "--alpha", "10"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_predict_version_1_without_p1_names_the_flag(self, capsys):
        rc = cli_main(["predict", "--alpha0", "1", "--eta0", "0.2", "--alpha", "2", "--version", "1"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --version 1 needs --p1 > 0\n"

    @pytest.mark.parametrize("make", ["missing", "directory"])
    @pytest.mark.parametrize("command", ["estimate", "regress", "pipeline"])
    def test_unreadable_input_path(self, tmp_path, capsys, make, command):
        path = tmp_path / "input.csv"
        if make == "directory":
            path.mkdir()
        args = {
            "estimate": ["estimate", str(path), "--tick-value", "0.01"],
            "regress": ["regress", "--records", str(path)],
            "pipeline": ["pipeline", "--config", str(path)],
        }[command]
        assert cli_main(args) == 1
        reason = os.strerror(errno.ENOENT if make == "missing" else errno.EISDIR)
        assert capsys.readouterr().err == f"error: {path}: cannot read file: {reason}\n"

    def test_optimal_tick_single_asset(self, tmp_path, capsys):
        out = tmp_path / "ticks.csv"
        rc = cli_main(["optimal-tick", "--asset", "BUS5", "--out", str(out)])
        assert rc == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0][:4] == ["asset_id", "tick_value", "v1_beta1", "v1_beta0.5"]
        assert rows[1][0] == "BUS5"
        assert float(rows[1][2]) == pytest.approx(2.7, abs=0.1)
        assert float(rows[1][3]) == pytest.approx(3.8, abs=0.1)

    def test_optimal_tick_prints_the_reference_table(self, capsysbinary):
        assert cli_main(["optimal-tick"]) == 0
        assert capsysbinary.readouterr().out == _REFERENCE_TICK_TABLE.replace("\n", "\r\n").encode()

    def test_optimal_tick_names_the_cause_of_a_blank_cell(self, monkeypatch, capsys):
        # eta0 p1 + p2 = 0.15 * 0.366 - 0.074 < 0: the version-1 line gives no positive tick
        bus5 = next(a for a in load_reference_assets() if a.asset_id == "BUS5")
        a3 = replace(bus5, asset_id="A3", eta=0.15, p1=0.366, p2=-0.074)
        monkeypatch.setattr("tickzone.cli.load_reference_assets", lambda: [a3])
        assert cli_main(["optimal-tick"]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[1].startswith("A3,7.8125,,,")
        cause = "scenario implies a non-positive tick"
        assert captured.err == "".join(f"skipped: optimal_ticks A3 v1 beta{b}: {cause}\n" for b in ("1", "0.5"))

    def test_optimal_tick_past_the_float_range_is_blank_and_named(self, capsys):
        # 1 / (1 - beta / 2) = 2e7: every Bund base below 1 underflows to a tick of 0
        assert cli_main(["optimal-tick", "--asset", "Bund", "--beta", "1.9999999"]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines() == ["asset_id,tick_value,v1_beta2,v2_beta2,v3_beta2", "Bund,10,,,"]
        skips = captured.err.splitlines()
        assert [line.split(":")[1] for line in skips] == [f" optimal_ticks Bund v{v} beta2" for v in (1, 2, 3)]
        assert all("beta 1.9999999 puts the optimal tick 10.0 * 0." in line for line in skips)
        assert all(line.endswith("out of the float range") for line in skips)

    def test_predict_warning_prints_a_large_ratio_in_four_digits(self, capsys):
        args = ["predict", "--alpha0", "5", "--eta0", "0.268", "--alpha", "1e-300", "--beta", "0.01", "--version", "3"]
        assert cli_main(args) == 0
        warning = [line for line in capsys.readouterr().out.splitlines() if line.startswith("warning: ")]
        assert warning == ["warning: predicted ratio 4.203e+298 leaves (0, 1/2]; the one-tick spread "
                           "assumption is breaking down"]

    def test_optimal_tick_bad_beta(self, capsys):
        assert cli_main(["optimal-tick", "--beta", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: beta must lie in (0, 2), got 3.0\n"

    def test_optimal_tick_unknown_asset(self, capsys):
        rc = cli_main(["optimal-tick", "--asset", "NOPE"])
        assert rc == 1
        assert "unknown asset" in capsys.readouterr().err

    def test_signature(self, sim_csv, tmp_path, capsys):
        out = tmp_path / "sig.csv"
        rc = cli_main(
            [
                "signature", str(sim_csv), "--tick-value", "0.01", "--session", "08:00-08:10",
                "--lag-max", "20", "--out", str(out),
            ]
        )
        assert rc == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["date", "lag", "realized_variance"]
        assert [int(r[1]) for r in rows[1:]] == list(range(1, 21))
        assert all(r[0] == "2009-06-01" for r in rows[1:])

    @pytest.mark.parametrize("day, session, zone, rate", [
        # the clock goes back, so the session runs 4 h: 1.15e8 samples at 8000 a second, though its clock reads 3 h
        pytest.param("2009-10-25", "01:00-04:00", "Europe/Berlin", "8000", id="a clock-change day at 8000/s"),
        pytest.param("2009-06-01", "08:00-08:10", "UTC", "1e6", id="a million samples a second"),
    ])
    def test_signature_at_a_high_rate(self, day, session, zone, rate, tmp_path, capsys):
        where = ["--session", session, "--timezone", zone]
        trades, out = tmp_path / "day.csv", tmp_path / "sig.csv"
        simulate = ["simulate", "--eta", "0.25", "--sigma", "0.002", "--day", day, "--seed", "1", "--out", str(trades)]
        assert cli_main(simulate + where) == 0
        signature = ["signature", str(trades), "--tick-value", "0.01", "--samples-per-second", rate, "--lag-max", "2"]
        assert cli_main(signature + ["--out", str(out)] + where) == 0
        assert capsys.readouterr().err == ""
        rows = list(csv.reader(out.read_text().splitlines()))
        assert [r[:2] for r in rows[1:]] == [[day, "1"], [day, "2"]]
        assert all(float(r[2]) > 0 for r in rows[1:])

    def test_signature_skips_a_day_shorter_than_its_lags(self, tmp_path, capsys):
        # the clock goes back on 2009-10-25, so its session runs 4 h and the day before's 3 h;
        # 1200 lags at 0.1 samples a second need 12000 s
        where = ["--session", "01:00-04:00", "--timezone", "Europe/Berlin"]
        days = [tmp_path / f"{day}.csv" for day in ("2009-10-24", "2009-10-25")]
        for path in days:
            simulate = ["simulate", "--eta", "0.25", "--sigma", "0.002", "--day", path.stem, "--seed", "1"]
            assert cli_main(simulate + ["--out", str(path)] + where) == 0
        capsys.readouterr()
        out = tmp_path / "sig.csv"
        signature = ["signature", *map(str, days), "--tick-value", "0.01", "--samples-per-second", "0.1"]
        assert cli_main(signature + ["--lag-max", "1200", "--out", str(out)] + where) == 0
        assert capsys.readouterr().err == (
            "skipped: signature ASSET 2009-10-24: tape must span at least lag_max/samples_per_second seconds (12000s)\n"
        )
        rows = list(csv.reader(out.read_text().splitlines()))[1:]
        assert [r[:2] for r in rows] == [["2009-10-25", str(lag)] for lag in range(1, 1201)]

    @pytest.mark.parametrize("command", ["estimate", "regress", "signature", "optimal-tick"])
    def test_stdout_matches_out_file(self, command, sim_csv, tmp_path, capsysbinary):
        records = tmp_path / "records.csv"
        write_daily_records_csv(_plane_records(), records)
        session = ["--tick-value", "0.01", "--session", "08:00-08:10"]
        args = {
            "estimate": ["estimate", str(sim_csv)] + session,
            "regress": ["regress", "--records", str(records)],
            "signature": ["signature", str(sim_csv), "--lag-max", "20"] + session,
            "optimal-tick": ["optimal-tick", "--asset", "BUS5", "--asset", "Bund"],
        }[command]
        out = tmp_path / "out.csv"
        assert cli_main(args + ["--out", str(out)]) == 0
        assert capsysbinary.readouterr().out == b""
        assert cli_main(args) == 0
        printed = capsysbinary.readouterr().out
        # csv rows end in \r\n; stdout must carry the same bytes as the file
        assert printed.endswith(b"\r\n")
        assert printed == out.read_bytes()

    def test_pipeline_command(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            f"out = {out}\n"
            "seed = 11\n"
            "session = 08:00-08:30\n"
            "synthetic.P1.tick_value = 0.01\n"
            "synthetic.P1.eta = 0.25\n"
            "synthetic.P1.sigma = 0.002\n"
            "synthetic.P1.days = 4\n"
        )
        rc = cli_main(["pipeline", "--config", str(cfg)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "4 asset-day record(s) from 4 file(s)" in stdout
        assert (out / "daily_records.csv").exists()
        assert (out / "regression.csv").exists()

    def test_pipeline_session_flag_overrides_the_config(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            f"out = {out}\nsession = 08:00-08:30\nsynthetic.P1.tick_value = 0.01\n"
            "synthetic.P1.eta = 0.25\nsynthetic.P1.sigma = 0.002\nsynthetic.P1.days = 2\n"
        )
        assert cli_main(["pipeline", "--config", str(cfg), "--session", "10:00-10:05"]) == 0
        files = sorted((out / "trades" / "P1").glob("*.csv"))
        assert [p.name for p in files] == ["2009-06-01.csv", "2009-06-02.csv"]
        for path in files:
            open_ms = int(datetime.fromisoformat(f"{path.stem}T10:00+00:00").timestamp() * 1000)
            stamps = [int(line.split(",")[0]) for line in path.read_text().splitlines()[1:]]
            assert stamps and open_ms <= min(stamps) and max(stamps) <= open_ms + 5 * 60_000, path.name

    def test_records_without_a_fit_leave_the_adjusted_cloud_empty(self, tmp_path, capsys):
        # two days are too few to fit the asset or the pool, so every adjusted point is dropped
        out = tmp_path / "run"
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            f"out = {out}\nseed = 1\nsession = 08:00-08:30\nsynthetic.A.tick_value = 0.01\n"
            "synthetic.A.eta = 0.25\nsynthetic.A.sigma = 0.003\nsynthetic.A.days = 2\n"
        )
        assert cli_main(["pipeline", "--config", str(cfg)]) == 0
        assert (out / "cloud_adjusted.csv").read_text() == "x,y,ref\n"
        err = capsys.readouterr().err.splitlines()
        assert [line.split(": ")[1] for line in err] == [
            "regression A", "regression ALL", "cloud_adjusted", "optimal_ticks A v1 beta1", "optimal_ticks A v1 beta0.5"
        ]
        assert err[2] == "skipped: cloud_adjusted: no fit for 2 record(s)"

    def test_tick_of_34_digits_survives_the_round_trip(self, tmp_path, capsys):
        tick = "0.1000000000000000055511151231257827"  # the float 0.1 is this tick to 34 digits
        day = tmp_path / "d.csv"
        assert cli_main(_SIMULATE + ["--sigma", "0.003", "--tick-value", tick, "--out", str(day)]) == 0
        assert cli_main(["estimate", str(day), "--tick-value", tick, "--session", "08:00-08:10"]) == 0
        cfg = tmp_path / "cfg.txt"
        lines = [f"out = {tmp_path / 'run'}", "session = 08:00-09:00", f"synthetic.A.tick_value = {tick}",
                 "synthetic.A.eta = 0.25", "synthetic.A.sigma = 0.02", "synthetic.A.days = 3"]
        cfg.write_text("\n".join(lines) + "\n")
        assert cli_main(["pipeline", "--config", str(cfg)]) == 0
        assert [r.date for r in read_daily_records_csv(tmp_path / "run" / "daily_records.csv")] == [
            "2009-06-01", "2009-06-02", "2009-06-03"
        ]
        assert "Traceback" not in capsys.readouterr().err

    def test_pipeline_error_path(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"out = {tmp_path / 'o'}\ninput_dir = {tmp_path / 'absent'}\n")
        rc = cli_main(["pipeline", "--config", str(cfg)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")


_SYNTH_KEYS = {
    "session": "08:00-08:10", "synthetic.A.tick_value": "0.01", "synthetic.A.eta": "0.25",
    "synthetic.A.sigma": "0.002", "synthetic.A.days": "1",
}
_SIMULATE = ["simulate", "--eta", "0.25", "--session", "08:00-08:10"]


def _synth(key, value):
    return {**_SYNTH_KEYS, f"synthetic.A.{key}": value}


# (command line, config keys for `pipeline`, text the error must name); "{csv}" is a trade file,
# "{crossed}" the same file with the quotes of its line 3 swapped, "{records}" a daily records file
# with a nan cell and "{tmp}" an empty directory
@pytest.mark.parametrize(
    "args, config, named",
    [
        pytest.param(_SIMULATE + ["--sigma", "0.003", "--tick-value", "abc"], None, "tick value 'abc'",
                     id="simulate --tick-value abc"),
        pytest.param(["estimate", "{csv}", "--tick-value", "abc"], None, "tick value 'abc'",
                     id="estimate --tick-value abc"),
        pytest.param(["signature", "{csv}", "--tick-value", "abc"], None, "tick value 'abc'",
                     id="signature --tick-value abc"),
        pytest.param(["pipeline"], _synth("tick_value", "abc"), "tick value 'abc'",
                     id="synthetic.A.tick_value = abc"),
        pytest.param(["pipeline"], {"input_dir": "{inputs}", "tick_value.A": "abc"}, "tick value 'abc'",
                     id="tick_value.A = abc"),
        pytest.param(_SIMULATE + ["--sigma", "nan"], None, "volatility", id="simulate --sigma nan"),
        pytest.param(_SIMULATE + ["--sigma", "inf"], None, "volatility", id="simulate --sigma inf"),
        pytest.param(_SIMULATE + ["--sigma", "-inf"], None, "volatility sigma must be finite and > 0, got -inf",
                     id="simulate --sigma -inf"),
        pytest.param(_SIMULATE + ["--sigma", "-0.001"], None, "volatility sigma must be finite and > 0, got -0.001",
                     id="simulate --sigma -0.001"),
        pytest.param(["regress", "--records", "{records}"], None, "records.csv:2: avg_spread must be finite, got nan",
                     id="regress avg_spread nan"),
        pytest.param(_SIMULATE + ["--sigma", "0.003", "--x0", "inf"], None, "x0", id="simulate --x0 inf"),
        pytest.param(_SIMULATE + ["--sigma", "0.003", "--x0", "-inf"], None, "x0", id="simulate --x0 -inf"),
        pytest.param(_SIMULATE + ["--sigma", "0.003", "--fills", "nan"], None, "trade_intensity",
                     id="simulate --fills nan"),
        pytest.param(_SIMULATE + ["--sigma", "0.003", "--fills", "abc"], None,
                     "--fills must be 'auto' or a number, got 'abc'", id="simulate --fills abc"),
        pytest.param(["pipeline"], _synth("fills", "abc"), "synthetic.A.fills must be 'auto' or a number, got 'abc'",
                     id="synthetic.A.fills = abc"),
        pytest.param(["pipeline"], _synth("x0", "nan"), "x0", id="synthetic.A.x0 = nan"),
        pytest.param(["pipeline"], _synth("sigma", "nan"), "sigma", id="synthetic.A.sigma = nan"),
        pytest.param(["pipeline"], _synth("sigma", "inf"), "error: synthetic.A.sigma must be finite and > 0, got inf",
                     id="synthetic.A.sigma = inf"),
        pytest.param(["pipeline"], _synth("fills", "nan"),
                     "error: synthetic.A.fills must be 'auto' or finite and >= 0, got nan", id="synthetic.A.fills = nan"),
        # a tick whose float, or whose millionth, is 0 or infinite; 1e99999999 is refused before 10**99999999 is made
        pytest.param(_SIMULATE + ["--sigma", "0.003", "--tick-value", "1e-400"], None, "tick value 1e-400 is out of range",
                     id="simulate --tick-value 1e-400"),
        pytest.param(_SIMULATE + ["--sigma", "0.003", "--tick-value", "1e400"], None, "tick value 1e400 is out of range",
                     id="simulate --tick-value 1e400"),
        pytest.param(_SIMULATE + ["--sigma", "0.003", "--tick-value", "1e99999999"], None,
                     "tick value 1e99999999 is out of range", id="simulate --tick-value 1e99999999"),
        pytest.param(["pipeline"], _synth("tick_value", "1e-400"), "tick value 1e-400 is out of range",
                     id="synthetic.A.tick_value = 1e-400"),
        pytest.param(_SIMULATE + ["--sigma", "0.003", "--seed", "-1"], None, "seed must be >= 0, got -1",
                     id="simulate --seed -1"),
        pytest.param(["pipeline"], {**_SYNTH_KEYS, "seed": "-1"}, "seed must be >= 0, got -1", id="seed = -1"),
        pytest.param(["pipeline", "--seed", "-1"], _SYNTH_KEYS, "seed must be >= 0, got -1", id="pipeline --seed -1"),
        pytest.param(_SIMULATE + ["--sigma", "0.003", "--day", "2009-13-01"], None, "--day '2009-13-01'",
                     id="simulate --day 2009-13-01"),
        pytest.param(_SIMULATE + ["--sigma", "0.003", "--day", "yesterday"], None, "--day 'yesterday'",
                     id="simulate --day yesterday"),
        pytest.param(_SIMULATE + ["--sigma", "1e200"], None, "sigma", id="simulate --sigma 1e200"),
        pytest.param(["pipeline"], _synth("sigma", "1e200"), "sigma", id="synthetic.A.sigma = 1e200"),
        pytest.param(_SIMULATE + ["--sigma", "1e100"], None, "expected trades", id="simulate --sigma 1e100"),
        pytest.param(["pipeline"], _synth("sigma", "1e100"), "expected trades", id="synthetic.A.sigma = 1e100"),
        # about 4.8e7 changes and 6e8 fills over the 10-minute session
        pytest.param(_SIMULATE + ["--sigma", "2", "--fills", "0"], None, "4.8e+07 expected trades",
                     id="simulate --sigma 2 --fills 0"),
        pytest.param(_SIMULATE + ["--sigma", "0.003", "--fills", "1e6"], None, "6e+08 expected trades",
                     id="simulate --sigma 0.003 --fills 1e6"),
        # sigma^2 times the 600-s session overflows a float; so does sigma^2 alone at 1e200
        pytest.param(_SIMULATE + ["--sigma", "1e153", "--fills", "0"], None, "volatility 1e+153",
                     id="simulate --sigma 1e153 --fills 0"),
        pytest.param(_SIMULATE + ["--sigma", "1e200", "--fills", "0"], None, "volatility 1e+200",
                     id="simulate --sigma 1e200 --fills 0"),
        # a finite variance that overflows once divided by the squared tick
        pytest.param(_SIMULATE + ["--sigma", "1e140", "--fills", "0", "--tick-value", "1e-20"], None,
                     "inf expected trades", id="simulate --sigma 1e140 --fills 0 --tick-value 1e-20"),
        # an opening grid index past int64, and one whose prices in sub-ticks would wrap around in it
        pytest.param(_SIMULATE + ["--sigma", "1e-19", "--fills", "0", "--tick-value", "1e-17"], None,
                     "x0 100.0 lies too many ticks of 1e-17", id="simulate --sigma 1e-19 --fills 0 --tick-value 1e-17"),
        pytest.param(_SIMULATE + ["--sigma", "0.003", "--x0", "1e11"], None, "x0 100000000000.0 lies too many ticks of 0.01",
                     id="simulate --sigma 0.003 --x0 1e11"),
        pytest.param(["optimal-tick", "--beta", "1.0000001", "--beta", "1"], None, "share a column label",
                     id="optimal-tick --beta 1.0000001 --beta 1"),
        pytest.param(["signature", "{csv}", "--tick-value", "0.01", "--samples-per-second", "0"], None,
                     "samples_per_second", id="signature --samples-per-second 0"),
        pytest.param(["signature", "{csv}", "--tick-value", "0.01", "--samples-per-second", "nan"], None,
                     "samples_per_second", id="signature --samples-per-second nan"),
        # a lag bound is refused before any file is read, so the file need not exist
        pytest.param(["signature", "{tmp}/missing.csv", "--tick-value", "0.01", "--samples-per-second", "1e6",
                      "--lag-max", "2000000"], None, "lag_max must lie in [1, 1000000], got 2000000",
                     id="signature --samples-per-second 1e6"),
        pytest.param(["signature", "{tmp}/missing.csv", "--tick-value", "0.01", "--lag-max", "0"], None,
                     "lag_max must lie in [1, 1000000], got 0", id="signature --lag-max 0"),
        pytest.param(["signature", "{tmp}/missing.csv", "--tick-value", "0.01", "--lag-max", "1" + "0" * 20], None,
                     "lag_max must lie in [1, 1000000], got 100000000000000000000", id="signature --lag-max 1e20"),
        # a negative value in exponent form reaches the range check, not argparse's usage error
        pytest.param(["simulate", "--eta", "-1e-3", "--sigma", "0.003", "--session", "08:00-08:10"], None,
                     "eta must lie in (0, 1], got -0.001", id="simulate --eta -1e-3"),
        pytest.param(["predict", "--alpha0", "5", "--eta0", "nan", "--alpha", "10", "--version", "3"], None,
                     "eta0", id="predict --eta0 nan"),
        pytest.param(["predict", "--alpha0", "5", "--eta0", "0.2", "--alpha", "10", "--version", "3", "--m0", "nan"],
                     None, "m0", id="predict --m0 nan"),
        pytest.param(["predict", "--alpha0", "5", "--eta0", "0.268", "--alpha", "10", "--p1", "0.91", "--p2", "nan"],
                     None, "error: --p2 must be finite, got nan", id="predict --p2 nan"),
        # an infinite slope would read p2 / p1 as 0 and give version 3's forecast under version 1's name
        pytest.param(["predict", "--alpha0", "5", "--eta0", "0.268", "--alpha", "10", "--p1", "inf", "--p2", "0.08"],
                     None, "error: --p1 must be finite, got inf", id="predict --p1 inf"),
        # 5 / 1e-320 overflows to inf, and so would the forecast
        pytest.param(["predict", "--alpha0", "5", "--eta0", "0.268", "--alpha", "1e-320", "--p1", "0.91", "--p2", "0.08"],
                     None, "alpha 1e-320 with p2 / p1 = 0.0879121 puts the forecast ratio out of the float range",
                     id="predict --alpha 1e-320"),
        # argparse's own errors end in one line and exit 1 as well, not in its usage block and exit 2
        pytest.param(["estimate"], None, "the following arguments are required: inputs, --tick-value",
                     id="estimate with no arguments"),
        pytest.param(_SIMULATE + ["--sigma", "0.003", "--x0", "-12x"], None, "argument --x0: expected one argument",
                     id="simulate --x0 -12x"),
        pytest.param(_SIMULATE + ["--sigma", "abc"], None, "argument --sigma: invalid float value: 'abc'",
                     id="simulate --sigma abc"),
        pytest.param(["predict", "--alpha0", "5", "--eta0", "0.2", "--alpha", "10", "--bogus"], None,
                     "unrecognized arguments: --bogus", id="predict --bogus"),
        # an output that cannot be written names its path
        pytest.param(["estimate", "{csv}", "--tick-value", "0.01", "--out", "{tmp}/nodir/x.csv"], None,
                     "nodir/x.csv: cannot write file: No such file or directory", id="estimate --out nodir/x.csv"),
        pytest.param(["estimate", "{csv}", "--tick-value", "0.01", "--out", "."], None,
                     ".: cannot write file: Is a directory", id="estimate --out ."),
        pytest.param(_SIMULATE + ["--sigma", "0.003", "--out", "{tmp}/nodir/y.csv"], None,
                     "nodir/y.csv: cannot write file: No such file or directory", id="simulate --out nodir/y.csv"),
        pytest.param(["optimal-tick", "--out", "{tmp}/nodir/o.csv"], None,
                     "nodir/o.csv: cannot write file: No such file or directory", id="optimal-tick --out nodir/o.csv"),
        pytest.param(["signature", "{csv}", "--tick-value", "0.01", "--lag-max", "2", "--out", "{tmp}/nodir/s.csv"],
                     None, "nodir/s.csv: cannot write file: No such file or directory",
                     id="signature --out nodir/s.csv"),
        pytest.param(["pipeline", "--out", "{csv}/sub"], _SYNTH_KEYS, "sim.csv/sub: cannot make directory: Not a directory",
                     id="pipeline --out under a file"),
        # a simulated day is written only if ingest can read it back, and only if it is a date at all
        pytest.param(["simulate", "--eta", "0.25", "--sigma", "0.002", "--day", "0001-01-01", "--timezone",
                      "America/New_York", "--session", "00:00-00:10"], None,
                     "sim.csv: timestamp -62135579037810 out of range", id="simulate --day 0001-01-01"),
        # the clock skips 02:00-03:00 that day, so the session has no time to simulate
        pytest.param(["simulate", "--eta", "0.25", "--sigma", "0.002", "--day", "2009-03-29", "--timezone",
                      "Europe/Berlin", "--session", "02:15-02:45"], None,
                     "the clock in Europe/Berlin skips all of session 02:15-02:45 on 2009-03-29",
                     id="simulate a session the clock skips"),
        pytest.param(["pipeline"], {**_SYNTH_KEYS, "session": "02:15-02:45", "timezone": "Europe/Berlin",
                                    "start_date": "2009-03-28", "synthetic.A.days": "2"},
                     "the clock in Europe/Berlin skips all of session 02:15-02:45 on 2009-03-29",
                     id="pipeline over a session the clock skips"),
        pytest.param(["pipeline"], {**_SYNTH_KEYS, "start_date": "9999-12-31", "synthetic.A.days": "2"},
                     "start_date 9999-12-31 with synthetic.A.days = 2 runs past the last date",
                     id="start_date = 9999-12-31 with 2 days"),
        # the asset id names its trade directory under out, so a path there would write elsewhere
        pytest.param(["pipeline"], {k.replace(".A.", ".{tmp}/elsewhere."): v for k, v in _SYNTH_KEYS.items()},
                     "/elsewhere.tick_value': the asset id must not hold '/' or '\\'", id="synthetic.<path>.tick_value"),
        pytest.param(["pipeline"], {k.replace(".A.", ".A\\B."): v for k, v in _SYNTH_KEYS.items()},
                     "the asset id must not hold", id="synthetic.A\\B.tick_value"),
        # a crossed quote is an error naming its line
        pytest.param(["estimate", "{crossed}", "--tick-value", "0.01", "--session", "08:00-08:10"], None,
                     "crossed.csv:3: ask must exceed bid", id="estimate a crossed quote"),
    ],
)
def test_bad_value_ends_in_one_error_line(args, config, named, sim_csv, tmp_path, capsys):
    inputs = tmp_path / "inputs"
    (inputs / "A").mkdir(parents=True)
    (inputs / "A" / "day.csv").write_bytes(sim_csv.read_bytes())
    records = tmp_path / "records.csv"
    records.write_text(",".join(DAILY_CSV_HEADER[:8]) + "\n2009-06-01,A,0.2,0.01,0.003,500,nan,90\n")
    rows = sim_csv.read_text().splitlines()
    fields = rows[2].split(",")
    fields[3], fields[4] = fields[4], fields[3]
    crossed = tmp_path / "crossed.csv"
    crossed.write_text("\n".join(rows[:2] + [",".join(fields)] + rows[3:]) + "\n")
    args = [a.replace("{csv}", str(sim_csv)).replace("{crossed}", str(crossed)).replace("{records}", str(records))
            .replace("{tmp}", str(tmp_path)) for a in args]
    if args[0] == "simulate" and "--out" not in args:
        args += ["--out", str(tmp_path / "sim.csv")]
    if config is not None:
        lines = [f"out = {tmp_path / 'run'}"] + [f"{k} = {v}" for k, v in config.items()]
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("\n".join(lines).replace("{inputs}", str(inputs)).replace("{tmp}", str(tmp_path)) + "\n")
        args += ["--config", str(cfg)]
    assert cli_main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert named in err and err.count("\n") == 1


# the whole config is checked before A's valid days are simulated, so a bad value of B writes nothing
@pytest.mark.parametrize(
    "key, value, error",
    [
        pytest.param("days", "40", "start_date 9999-12-20 with synthetic.B.days = 40 runs past the last date, 9999-12-31",
                     id="synthetic.B.days = 40"),
        pytest.param("eta", "2", "synthetic.B: eta must lie in (0, 1], got 2.0", id="synthetic.B.eta = 2"),
        pytest.param("tick_value", "abc", "synthetic.B: tick value 'abc' is not a decimal number",
                     id="synthetic.B.tick_value = abc"),
        pytest.param("x0", "nan", "synthetic.B.x0 must be finite, got nan", id="synthetic.B.x0 = nan"),
        pytest.param("sigma", "inf", "synthetic.B.sigma must be finite and > 0, got inf", id="synthetic.B.sigma = inf"),
        pytest.param("fills", "-3", "synthetic.B.fills must be 'auto' or finite and >= 0, got -3.0",
                     id="synthetic.B.fills = -3"),
    ],
)
def test_a_bad_second_asset_stops_the_run_before_any_day(key, value, error, tmp_path, capsys):
    keys = {"session": "08:00-08:10", "synthetic.A.days": "2"}
    for aid in "AB":
        keys.update({f"synthetic.{aid}.tick_value": "0.01", f"synthetic.{aid}.eta": "0.25",
                     f"synthetic.{aid}.sigma": "0.002"})
    if key == "days":  # A's two days end on 9999-12-21
        keys["start_date"] = "9999-12-20"
    keys[f"synthetic.B.{key}"] = value
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in {"out": out, **keys}.items()))
    assert cli_main(["pipeline", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not out.exists()


@pytest.mark.parametrize("x0", ["-1e10", "-1E-3", "-5.", "-1.5e+2"])
def test_negative_value_in_either_spelling_writes_the_same_file(x0, tmp_path, capsys):
    # argparse reads only -5 and -.5 as numbers unless taught the exponent and trailing-dot forms
    written = []
    for name, spelling in (("apart", ["--x0", x0]), ("joined", [f"--x0={x0}"])):
        out = tmp_path / f"{name}.csv"
        assert cli_main(_SIMULATE + ["--sigma", "0.003", *spelling, "--out", str(out)]) == 0
        written.append(out.read_bytes())
    assert written[0] == written[1]
    assert capsys.readouterr().err == ""


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_:
        cli_main(["estimate", "--help"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith("usage: tickzone estimate")


def test_trade_directory_under_a_file_is_one_error_line(tmp_path, capsys):
    (tmp_path / "run").mkdir()
    (tmp_path / "run" / "trades").write_text("")
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("\n".join([f"out = {tmp_path / 'run'}"] + [f"{k} = {v}" for k, v in _SYNTH_KEYS.items()]) + "\n")
    assert cli_main(["pipeline", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {tmp_path / 'run' / 'trades' / 'A'}: cannot make directory: Not a directory\n"


def test_long_negative_text_that_is_no_number_is_refused_within_a_second():
    # a pattern that can split a run of digits two ways took 31.6 s on this argument
    start = time.perf_counter()
    with pytest.raises(ParameterError, match="--x0: expected one argument"):
        build_parser().parse_args(_SIMULATE + ["--sigma", "0.003", "--out", "x.csv", "--x0", "-" + "1" * 20_000 + "x"])
    assert time.perf_counter() - start < 1.0


_DEGENERATE_DAY = "timestamp_ms,price,size,bid,ask\n1243843200000,100,1,,\n"  # one trade on 2009-06-01
_DEGENERATE_SKIP = "record A 2009-06-01: need at least 2 price changes to compare directions, got 0"


def _ingest_config(tmp_path):
    """An ingest config over asset A (one degenerate day), B (no tick configured) and C (no files)."""
    for aid in "ABC":
        (tmp_path / "in" / aid).mkdir(parents=True)
    (tmp_path / "in" / "A" / "2009-06-01.csv").write_text(_DEGENERATE_DAY)
    (tmp_path / "in" / "B" / "2009-06-01.csv").write_text(_DEGENERATE_DAY)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"out = {tmp_path / 'out'}\ninput_dir = {tmp_path / 'in'}\ntick_value.A = 0.01\n")
    return cfg


def test_estimate_and_pipeline_skip_a_degenerate_day_in_one_text(tmp_path, capsys):
    cfg = _ingest_config(tmp_path)
    assert cli_main(["estimate", str(tmp_path / "in" / "A" / "2009-06-01.csv"), "--tick-value", "0.01",
                     "--asset-id", "A"]) == 1
    assert capsys.readouterr().err == f"skipped: {_DEGENERATE_SKIP}\n"
    assert cli_main(["pipeline", "--config", str(cfg)]) == 1
    assert f"skipped: {_DEGENERATE_SKIP}" in capsys.readouterr().err.splitlines()


@pytest.mark.parametrize("command", ["estimate", "regress", "optimal-tick", "pipeline"])
def test_each_skip_is_printed_once_on_stderr(command, tmp_path, capsys):
    if command == "estimate":
        good = tmp_path / "good.csv"
        assert cli_main(_SIMULATE + ["--sigma", "0.003", "--day", "2009-06-02", "--out", str(good)]) == 0
        bad = tmp_path / "bad.csv"
        bad.write_text(_DEGENERATE_DAY)
        args = ["estimate", str(good), str(bad), "--asset-id", "A", "--tick-value", "0.01", "--session", "08:00-08:10"]
        skips = [_DEGENERATE_SKIP]
    elif command == "regress":
        records = tmp_path / "records.csv"
        write_daily_records_csv(_plane_records() + _plane_records(n=3, asset_id="B"), records)
        args = ["regress", "--records", str(records)]
        skips = ["regression B: need at least 4 usable asset-days, got 3"]
    elif command == "optimal-tick":
        args = ["optimal-tick", "--asset", "Bund", "--beta", "1.9999999"]
        skips = None  # three blank cells, one per version
    else:
        cfg = _ingest_config(tmp_path)
        args = ["pipeline", "--config", str(cfg)]
        skips = run_pipeline(load_config(cfg)).skipped
    capsys.readouterr()
    cli_main(args)
    captured = capsys.readouterr()
    lines = [line for line in captured.err.splitlines() if not line.startswith("error: ")]
    assert all(line.startswith("skipped: ") for line in lines)  # nothing through the logger
    if skips is None:
        assert len(lines) == 3 and len(set(lines)) == 3
    else:
        assert lines == [f"skipped: {msg}" for msg in skips]
    # the pipeline summary counts the skips; stderr alone lists them
    assert not any(msg in captured.out for msg in (skips or []))
    if command == "pipeline":
        assert len(skips) == 4 and f"{len(skips)} item(s) skipped" in captured.out.splitlines()


def test_pipeline_that_fails_prints_its_skips_before_the_error(tmp_path, capsys):
    cfg = _ingest_config(tmp_path)
    (tmp_path / "in" / "A" / "2009-06-02.csv").write_text("timestamp_ms,price,size,bid,ask\n1243929600000,abc,1,,\n")
    assert cli_main(["pipeline", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "skipped: ingest B: no tick_value.B configured, asset skipped",
        f"skipped: ingest C: no csv files under {tmp_path / 'in' / 'C'}",
        f"error: {tmp_path / 'in' / 'A' / '2009-06-02.csv'}:2: price: malformed price 'abc'",
    ]


_SKIP_STAGES = re.compile(r"^skipped: (ingest|record|regression|cloud_adjusted|optimal_ticks|signature)[ :]")


def _every_command_inputs(tmp_path, sim_csv):
    """Trade files under ``in/A``: one day in two maturities, one degenerate day and one file
    outside the 08:00-08:10 session; ``in/B`` has no tick configured; ``gap.csv`` trades at
    01:05-01:40 in Sao Paulo on 2018-11-04, the night 00:00 became 01:00. Returns the paths the
    command lines name."""
    a, b = tmp_path / "in" / "A", tmp_path / "in" / "B"
    a.mkdir(parents=True)
    b.mkdir()
    lines = sim_csv.read_text().splitlines(keepends=True)
    shutil.copy(sim_csv, a / "M9.csv")
    (a / "U9.csv").write_text("".join(lines[:1] + lines[1::4]))  # the back month trades a quarter as much
    (a / "degenerate.csv").write_text("timestamp_ms,price,size,bid,ask\n1243929600000,100,1,,\n")  # 2009-06-02 08:00
    (a / "late.csv").write_text("timestamp_ms,price,size,bid,ask\n1243987200000,100,1,,\n")  # 2009-06-03 00:00
    shutil.copy(sim_csv, b / "M9.csv")
    gap = tmp_path / "gap.csv"  # one trade a minute from 03:05Z at the bid, 0, 1, 2, 1, 2, 3, 2, ... ticks up
    prices = [100 + (i // 3 + i % 3) / 100 for i in range(36)]
    gap.write_text("timestamp_ms,price,size,bid,ask\n" + "".join(
        f"{1_541_300_700_000 + 60_000 * i},{p:.2f},1,{p:.2f},{p + 0.01:.2f}\n" for i, p in enumerate(prices)))
    records = tmp_path / "records.csv"
    write_daily_records_csv(_plane_records() + _plane_records(n=3, asset_id="B"), records)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"out = {tmp_path / 'out'}\ninput_dir = {tmp_path / 'in'}\ntick_value.A = 0.01\n"
                   "session = 08:00-08:10\n")
    return {"A": a, "gap": gap, "records": records, "cfg": cfg, "tmp": tmp_path}


# (command line, exit code, stages its skips must come from); "{X}" is a name from _every_command_inputs
@pytest.mark.parametrize("args, code, stages", [
    pytest.param(_SIMULATE + ["--sigma", "0.003", "--out", "{tmp}/sim.csv"], 0, set(), id="simulate"),
    pytest.param(["estimate", "{A}/M9.csv", "{A}/degenerate.csv", "--tick-value", "0.01", "--asset-id", "A",
                  "--session", "08:00-08:10"], 0, {"record"}, id="estimate"),
    pytest.param(["estimate", "{gap}", "--tick-value", "0.01", "--session", "00:30-02:00", "--timezone",
                  "America/Sao_Paulo"], 0, set(), id="estimate a session whose open the clock skips"),
    pytest.param(["regress", "--records", "{records}"], 0, {"regression"}, id="regress"),
    pytest.param(["predict", "--alpha0", "5", "--eta0", "0.268", "--alpha", "10", "--p1", "0.91"], 0, set(),
                 id="predict"),
    pytest.param(["optimal-tick", "--asset", "Bund", "--beta", "1.9999999"], 0, {"optimal_ticks"}, id="optimal-tick"),
    pytest.param(["signature", "{A}/M9.csv", "{A}/late.csv", "--tick-value", "0.01", "--session", "08:00-08:10",
                  "--lag-max", "5"], 0, {"ingest"}, id="signature"),
    pytest.param(["pipeline", "--config", "{cfg}"], 0,
                 {"ingest", "record", "regression", "cloud_adjusted", "optimal_ticks"}, id="pipeline"),
    pytest.param(["estimate", "{A}/missing.csv", "--tick-value", "0.01"], 1, set(), id="estimate missing file"),
    pytest.param(_SIMULATE + ["--sigma", "0.003", "--out", "{tmp}/nodir/sim.csv"], 1, set(), id="simulate fails"),
    pytest.param(["regress", "--records", "{records}", "--out", "{tmp}"], 1, {"regression"}, id="regress fails"),
    pytest.param(["predict", "--alpha0", "5"], 1, set(), id="predict fails"),
    pytest.param(["optimal-tick", "--asset", "Nowhere"], 1, set(), id="optimal-tick fails"),
    pytest.param(["signature", "{A}/M9.csv", "{A}/late.csv", "--tick-value", "0.01", "--session", "08:00-08:10",
                  "--lag-max", "5", "--out", "{tmp}/nodir/sig.csv"], 1, {"ingest"}, id="signature fails"),
    pytest.param(["pipeline", "--config", "{cfg}", "--out", "{records}/sub"], 1, set(), id="pipeline fails"),
])
def test_every_command_reports_on_stderr_only_in_skip_and_error_lines(args, code, stages, sim_csv, tmp_path, capsys):
    names = _every_command_inputs(tmp_path, sim_csv)
    args = [a.format(**names) for a in args]
    capsys.readouterr()
    assert cli_main(args) == code
    lines = capsys.readouterr().err.splitlines()
    assert all(re.match(r"^(skipped|error): ", line) for line in lines), lines
    skips = [line for line in lines if line.startswith("skipped: ")]
    assert all(_SKIP_STAGES.match(line) for line in skips), skips
    assert {_SKIP_STAGES.match(line)[1] for line in skips} == stages
    assert sum(line.startswith("error: ") for line in lines) == code
    if args[0] == "pipeline" and code == 0:
        a = names["A"]
        for expected in (
            "skipped: ingest B: no tick_value.B configured, asset skipped",
            f"skipped: ingest {a / 'late.csv'}: no trades inside session 08:00-08:10",
            "skipped: record A 2009-06-02: need at least 2 price changes to compare directions, got 0",
        ):
            assert expected in skips
        (lost,) = [line for line in skips if "maturity" in line]
        assert re.fullmatch(
            rf"skipped: ingest {re.escape(str(a / 'U9.csv'))} 2009-06-01: lost the maturity choice to "
            rf"{re.escape(str(a / 'M9.csv'))} \(\d+ trades inside session against \d+\)", lost
        )
