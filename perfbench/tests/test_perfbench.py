"""Tests of the benchmark itself, at tiny input sizes.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""
import csv
import json
import os
import statistics
import sys
from datetime import date
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCE = ROOT / "src" / "tickzone" / "data" / "reference_futures.csv"


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Shrink every workload's inputs and keep set-up in this process."""
    monkeypatch.setattr(gen, "DAY_SCALE", 0.05)
    monkeypatch.setattr(
        workloads.SyntheticPipeline, "ASSETS", (("A", "0.01", 0.25, 500.0), ("B", "0.005", 0.15, 800.0))
    )
    monkeypatch.setattr(workloads.SyntheticPipeline, "DAYS", 2)
    monkeypatch.setattr(workloads.McSweep, "CHANGES", 300)
    # probes run in this process, so that they see the shrunk inputs too
    monkeypatch.setattr(
        run, "_probe_in_fresh_process",
        lambda args, kind: run.probe(args.workload, args.seed, kind, tmp_path / "probe"),
    )


def _files(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*.csv"))}


def _reference_rows() -> dict:
    lines = [line for line in REFERENCE.read_text().splitlines() if not line.startswith("#")]
    return {row["asset_id"]: row for row in csv.DictReader(lines)}


def _session_hours(text: str) -> float:
    open_, close = ((int(t[:2]) * 60 + int(t[3:])) / 60 for t in text.split("-"))
    return close - open_


def test_generator_is_deterministic_per_seed(tmp_path, monkeypatch):
    monkeypatch.setattr(gen, "DAY_SCALE", 0.03)
    first = gen.write_vendor_files(tmp_path / "a", seed=7)
    again = gen.write_vendor_files(tmp_path / "b", seed=7)
    gen.write_vendor_files(tmp_path / "c", seed=8)
    assert first.days == again.days
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    # every asset-day of the window, with a second maturity on every other day
    assert len(first.days) == len(gen.ASSETS) * gen.N_DAYS
    assert len(_files(tmp_path / "a")) == len(gen.ASSETS) * (gen.N_DAYS + gen.N_DAYS // 2)
    for path, rows in first.rows.items():
        assert path.read_text().count("\n") == rows + 1


def test_generator_at_full_size_has_shared_milliseconds(tmp_path):
    files = gen.write_vendor_files(tmp_path, seed=1)
    stamps = [line.split(",", 1)[0] for p in files.rows for line in p.read_text().splitlines()[1:]]
    assert len(set(stamps)) < len(stamps)


def test_sizes_come_from_the_reference_table():
    ref = _reference_rows()
    for asset in gen.ASSETS:
        row = ref[asset.reference_id]
        assert asset.trades_per_day == int(row["trades_per_day"])
        assert asset.eta == float(row["eta"])
        assert asset.frac_one_tick == float(row["frac_one_tick"])
        assert asset.session_hours == _session_hours(row["session"])
    rates = {aid: rate for aid, _, _, rate in workloads.SyntheticPipeline.ASSETS}
    for aid, ref_id in (("A", "Bobl 1"), ("B", "Bund")):
        row = ref[ref_id]
        assert rates[aid] == int(row["trades_per_day"]) / _session_hours(row["session"])
    changes = statistics.median(float(r["eta"]) / 2 * int(r["trades_per_day"]) for r in ref.values())
    assert abs(workloads.McSweep.CHANGES / changes - 1) < 0.01


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric(tiny, capsys, name, trace):
    code = run.main(["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)])
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert code == 0, out
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert f"{name} failed_frac = 0" in out
    assert not (ROOT / ".perfbench_work" / f"{name}-{os.getpid()}").exists()


def _drop_one_quiet_in_session_row(path: Path, day_key) -> None:
    """Delete a row that moves no price, so only the day's trade count changes."""
    lines = path.read_text().splitlines(keepends=True)
    day = date.fromisoformat(day_key[1])
    open_ms = gen._epoch_ms(day, gen._clock(gen.SESSION[0]))
    close_ms = gen._epoch_ms(day, gen._clock(gen.SESSION[1]))
    for i in range(2, len(lines) - 1):
        ts, price = lines[i].split(",")[:2]
        quiet = lines[i - 1].split(",")[1] == price == lines[i + 1].split(",")[1]
        if quiet and open_ms < int(ts) < close_ms:
            del lines[i]
            path.write_text("".join(lines))
            return
    raise AssertionError("no quiet in-session row")


def test_checker_fails_ingest_that_lost_one_in_session_row(tiny, tmp_path):
    wl = workloads.IngestReplay(seed=5, work=tmp_path)
    clean = wl.run_pass()
    assert clean.failed == 0 and clean.ok == len(wl.expected)

    key = ("FGBL", "2009-03-28")  # a day with two maturities; the front one wins
    _drop_one_quiet_in_session_row(tmp_path / "vendor" / "FGBL" / "FGBL_20090328_M9.csv", key)
    broken = wl.run_pass()
    assert broken.failed == 1
    assert broken.ok == len(wl.expected) - 1
    assert any("FGBL 2009-03-28: m_trades" in p for p in broken.problems)


def _traced_pass(wl) -> dict:
    tracer = tracing.Tracer(wl.file_rows)
    originals, missing = tracer.install(wl.trace_target, wl.entry_points)
    try:
        tracer.begin_pass()
        result = wl.run_pass()
    finally:
        tracer.uninstall(wl.trace_target, originals)
    assert result.failed == 0 and not missing
    return tracer.end_pass(1.0)


def test_traced_rows_and_bytes_read_match_the_inputs(tiny, tmp_path):
    wl = workloads.IngestReplay(seed=2, work=tmp_path / "ingest")
    counts = _traced_pass(wl)
    assert counts["tradefile.rows_read"] == sum(wl.file_rows.values())
    assert counts["tradefile.bytes_read"] == wl.input_bytes
    assert counts["tradefile.files_discarded"] == len(wl.file_rows) - len(wl.expected)
    assert counts["tradefile.rows_in_session"] >= sum(e.m_trades for e in wl.expected.values())

    wl = workloads.SyntheticPipeline(seed=2, work=tmp_path / "synthetic")
    counts = _traced_pass(wl)
    assert counts["tradefile.rows_read"] == counts["tradefile.rows_written"] == counts["simulator.trades"]
    assert counts["tradefile.bytes_read"] == counts["tradefile.bytes_written"] == wl.inputs()["input_bytes"]


def test_missing_sources_exit_nonzero(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "mc_sweep", "--seconds", "0"]) == 2
