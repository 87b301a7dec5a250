"""Config parsing, the batch pipeline, and the command line front end."""
import csv
import math
from pathlib import Path

import pytest

from tickzone.cli import main as cli_main
from tickzone.errors import IngestError, ParameterError
from tickzone.estimators import DailyRecord
from tickzone.pipeline import (
    CLOUD_CSV_HEADER,
    DAILY_CSV_HEADER,
    PipelineConfig,
    SyntheticAsset,
    emit_cloud_csv,
    fmt_float,
    parse_config_text,
    read_daily_records_csv,
    run_pipeline,
    write_daily_records_csv,
)
from tickzone.regression import REGRESSION_CSV_HEADER, fit_spread_vol

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
        assert (syn.tick_text, syn.eta, syn.sigma) == ("0.01", 0.25, 0.003)
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
        assert cfg.session.length_seconds == 33300.0

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


class TestConfigValidation:
    def test_synthetic_asset_bounds(self):
        ok = dict(asset_id="A", tick_text="0.01", eta=0.25, sigma=0.01)
        with pytest.raises(ParameterError):
            SyntheticAsset(**ok, days=0)
        with pytest.raises(ParameterError):
            SyntheticAsset(**{**ok, "sigma": 0.0})
        with pytest.raises(ParameterError):
            SyntheticAsset(**ok, sigma_jitter=1.0)
        with pytest.raises(ParameterError):
            SyntheticAsset(**ok, fills="sometimes")

    def test_pipeline_config_bounds(self):
        with pytest.raises(ParameterError, match="mode"):
            PipelineConfig(mode="magic", out=Path("/tmp/x"))
        with pytest.raises(ParameterError, match="input_dir"):
            PipelineConfig(mode="ingest", out=Path("/tmp/x"))
        with pytest.raises(ParameterError, match="synthetic"):
            PipelineConfig(mode="synthetic", out=Path("/tmp/x"))


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

    def test_output_files_and_headers(self, synth_run):
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


@pytest.fixture(scope="module")
def sim_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "sim.csv"
    rc = cli_main(
        [
            "simulate", "--asset-id", "SIM", "--eta", "0.25", "--sigma", "0.003",
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

    def test_optimal_tick_single_asset(self, tmp_path, capsys):
        out = tmp_path / "ticks.csv"
        rc = cli_main(["optimal-tick", "--asset", "BUS5", "--out", str(out)])
        assert rc == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0][:4] == ["asset_id", "tick_value", "v1_beta1", "v1_beta0.5"]
        assert rows[1][0] == "BUS5"
        assert float(rows[1][2]) == pytest.approx(2.7, abs=0.1)
        assert float(rows[1][3]) == pytest.approx(3.8, abs=0.1)

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

    def test_pipeline_error_path(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"out = {tmp_path / 'o'}\ninput_dir = {tmp_path / 'absent'}\n")
        rc = cli_main(["pipeline", "--config", str(cfg)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")
