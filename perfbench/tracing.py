"""Spans and counts recorded around the calls into each tickzone layer.

The spans are recorded from outside the program: ``Tracer.install`` swaps a
layer's entry point on a module (or namespace) for a wrapper that times
the call and counts its work without changing what the call does. Each
span carries its name, start, end, parent span and the pass it belongs to;
spans live in memory and are reduced to per-layer metrics after each pass.

The pipeline runs ingest and record building in a thread pool, so spans of
one layer can overlap and a layer's busy time (the sum of its span
durations) may exceed the wall time of the pass.
"""
from __future__ import annotations

import itertools
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Tuple

# entry point -> layer span name; the pipeline binds all six as module globals
ENTRY_POINTS = {
    "simulate_day": "simulator",
    "write_tape_csv": "tradefile.write",
    "ingest_trades": "tradefile.ingest",
    "build_daily_record": "estimators",
    "fit_spread_vol": "regression",
    "optimal_tick": "tick_policy",
}


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    span_id: int
    parent: int
    run: int


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


class Tracer:
    """Collects spans and counts for one traced pass at a time.

    ``file_rows`` gives the data rows of each trade file a pass reads, as the
    benchmark made them; the rows of each file the pass writes are added as
    it writes them. File sizes are read once the pass is over.
    """

    def __init__(self, file_rows: Dict[Path, int]):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self.file_rows = dict(file_rows)
        self._sized: List[Tuple[str, Path]] = []  # (count key, file) to add the size of after the pass
        self.run = 0
        self.root = 0
        self.spans: List[Span] = []
        self.counts: Counter = Counter()

    # ---------------------------------------------------------------- wiring

    def install(self, target, names) -> Tuple[Dict[str, Callable], List[str]]:
        """Wrap each named entry point found on ``target``.

        Returns the originals (for :meth:`uninstall`) and the names that
        ``target`` does not have, which are reported as missing.
        """
        originals, missing = {}, []
        for name in names:
            fn = getattr(target, name, None)
            if fn is None:
                missing.append(name)
                continue
            originals[name] = fn
            setattr(target, name, self._wrap(ENTRY_POINTS[name], fn, getattr(self, f"_count_{name}")))
        return originals, missing

    @staticmethod
    def uninstall(target, originals: Dict[str, Callable]) -> None:
        for name, fn in originals.items():
            setattr(target, name, fn)

    def _wrap(self, layer: str, fn: Callable, count: Callable) -> Callable:
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self.root
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self._close(layer, start, time.perf_counter(), span_id, parent, {f"{layer}.failed": 1})
                raise
            finally:
                stack.pop()
            # the clock stops before the counting, which is not the layer's work
            end = time.perf_counter()
            self._close(layer, start, end, span_id, parent, count(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, layer, start, end, span_id, parent, counts) -> None:
        with self._lock:
            self.spans.append(Span(layer, start, end, span_id, parent, self.run))
            self.counts.update(counts)

    # --------------------------------------------------------------- counting
    # Each takes the call's (args, kwargs, result) and returns counts to add.

    @staticmethod
    def _count_simulate_day(args, kwargs, result):
        tape, truth = result
        return {"simulator.calls": 1, "simulator.changes": truth.n_price_changes,
                "simulator.trades": len(tape)}

    def _count_write_tape_csv(self, args, kwargs, result):
        tape, path = args[0], Path(args[1])
        with self._lock:
            self.file_rows[path] = len(tape)  # write_tape_csv writes one row per trade
            self._sized.append(("tradefile.bytes_written", path))
        return {"tradefile.rows_written": len(tape)}

    def _count_ingest_trades(self, args, kwargs, result):
        paths = args[0]
        paths = [Path(paths)] if isinstance(paths, (str, Path)) else [Path(p) for p in paths]
        with self._lock:
            rows = sum(self.file_rows[p] for p in paths)
            self._sized += [("tradefile.bytes_read", p) for p in paths]
        # every benchmark file holds one session day, so each file not kept was discarded
        return {
            "tradefile.files_read": len(paths),
            "tradefile.rows_read": rows,
            "tradefile.rows_in_session": sum(len(day.tape) for day in result),
            "tradefile.files_discarded": len(paths) - len(result),
        }

    @staticmethod
    def _count_build_daily_record(args, kwargs, result):
        return {"estimators.records": 1}

    @staticmethod
    def _count_fit_spread_vol(args, kwargs, result):
        return {"regression.fits": 1}

    @staticmethod
    def _count_optimal_tick(args, kwargs, result):
        return {"tick_policy.calls": 1}

    # ----------------------------------------------------------------- passes

    def begin_pass(self) -> None:
        with self._lock:
            self.run += 1
            self.root = next(self._ids)
            self.spans = []
            self.counts = Counter()
            self._sized = []

    def end_pass(self, wall: float) -> Dict[str, float]:
        """Busy time per layer, pipeline self time and the pass's counts."""
        with self._lock:
            spans = [s for s in self.spans if s.run == self.run]
            counts = Counter(self.counts)
            sized, self._sized = self._sized, []
        for key, path in sized:
            counts[key] += path.stat().st_size
        busy: Counter = Counter()
        for s in spans:
            busy[s.name] += s.end - s.start
        covered = _union_length([(s.start, s.end) for s in spans if s.parent == self.root])
        out = {f"{layer}.busy": busy[layer] for layer in ENTRY_POINTS.values()}
        out.update(wall=wall, covered=covered)
        out.update(counts)
        return out


def _ratio(num: float, den: float) -> float:
    # a layer the workload never calls reports 0, not a division by zero
    return num / den if den else 0.0


def _count(key: str) -> Callable[[Counter], float]:
    return lambda c: c[key]


def _us_per(busy: str, count: str) -> Callable[[Counter], float]:
    return lambda c: 1e6 * _ratio(c[busy], c[count])


# per-layer metric -> (unit, entry point whose calls it measures, value from a pass's counts)
METRICS = {
    "simulator.busy_s": ("s", "simulate_day", _count("simulator.busy")),
    "simulator.calls": ("count", "simulate_day", _count("simulator.calls")),
    "simulator.changes": ("count", "simulate_day", _count("simulator.changes")),
    "simulator.trades": ("count", "simulate_day", _count("simulator.trades")),
    "simulator.us_per_change": ("us", "simulate_day", _us_per("simulator.busy", "simulator.changes")),
    "tradefile.write_s": ("s", "write_tape_csv", _count("tradefile.write.busy")),
    "tradefile.rows_written": ("count", "write_tape_csv", _count("tradefile.rows_written")),
    "tradefile.bytes_written": ("bytes", "write_tape_csv", _count("tradefile.bytes_written")),
    "tradefile.us_per_row_written": (
        "us", "write_tape_csv", _us_per("tradefile.write.busy", "tradefile.rows_written")
    ),
    "tradefile.ingest_s": ("s", "ingest_trades", _count("tradefile.ingest.busy")),
    "tradefile.files_read": ("count", "ingest_trades", _count("tradefile.files_read")),
    "tradefile.bytes_read": ("bytes", "ingest_trades", _count("tradefile.bytes_read")),
    "tradefile.rows_read": ("count", "ingest_trades", _count("tradefile.rows_read")),
    "tradefile.rows_in_session": ("count", "ingest_trades", _count("tradefile.rows_in_session")),
    "tradefile.files_discarded": ("count", "ingest_trades", _count("tradefile.files_discarded")),
    "tradefile.kept_row_ratio": (
        "ratio", "ingest_trades", lambda c: _ratio(c["tradefile.rows_in_session"], c["tradefile.rows_read"])
    ),
    "tradefile.us_per_row_read": (
        "us", "ingest_trades", _us_per("tradefile.ingest.busy", "tradefile.rows_read")
    ),
    "tradefile.failed": ("count", "ingest_trades", _count("tradefile.ingest.failed")),
    "estimators.busy_s": ("s", "build_daily_record", _count("estimators.busy")),
    "estimators.records": ("count", "build_daily_record", _count("estimators.records")),
    "estimators.failed": ("count", "build_daily_record", _count("estimators.failed")),
    "regression.busy_s": ("s", "fit_spread_vol", _count("regression.busy")),
    "regression.fits": ("count", "fit_spread_vol", _count("regression.fits")),
    "regression.failed": ("count", "fit_spread_vol", _count("regression.failed")),
    "tick_policy.busy_s": ("s", "optimal_tick", _count("tick_policy.busy")),
    "tick_policy.calls": ("count", "optimal_tick", _count("tick_policy.calls")),
    "tick_policy.failed": ("count", "optimal_tick", _count("tick_policy.failed")),
    "pipeline.self_s": ("s", None, lambda c: c["wall"] - c["covered"]),
    "pipeline.report_bytes": ("bytes", None, _count("report_bytes")),
    "trace.overhead_s": ("s", None, _count("overhead")),
}


def layer_metrics(p: Dict[str, float], report_bytes: int, overhead_s: float) -> Dict[str, float]:
    """The per-layer metrics of one traced pass, by their names in :data:`METRICS`."""
    c = Counter(p, report_bytes=report_bytes, overhead=overhead_s)
    return {name: value(c) for name, (_, _, value) in METRICS.items()}
