"""Benchmark of the tickzone pipeline: one command for every workload.

Run from the root of a source checkout (the package is imported from
``src/``, nothing needs installing):

    python3 perfbench/run.py                      # every workload, end-to-end metrics
    python3 perfbench/run.py --workload mc_sweep --seed 3 --seconds 15 --trace 1

Each workload runs in a fresh process: a closed loop of passes over inputs
made from ``--seed``, for at least ``--seconds`` and at least three passes.
With ``--trace 0`` it prints the end-to-end metrics (set-up time, asset-days
and trades per second as medians over passes, peak resident memory) and the
share of asset-days that failed. Set-up time is the median over five fresh
probe processes; two of them also run one pass with glibc's mmap threshold
fixed and give the peak resident memory. With ``--trace 1`` it alternates untraced
and traced passes and prints the per-layer metrics instead; timings are
medians over the traced passes and counts come from one pass. The last line
of output is one JSON object; the exit code is 1 when an output check fails
and 2 when the checkout has no ``src/tickzone``.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("synthetic_pipeline", "ingest_replay", "mc_sweep")  # workloads.WORKLOADS imports tickzone
# fresh processes that set up, and of those that set up and run one pass; the median set-up
# time of all of them is reported, and the median peak RSS of the second kind
SETUP_PROBES = 3
RSS_PROBES = 2
MIN_PASSES = 3
PROBE_TIMEOUT_S = 60
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
M_MMAP_THRESHOLD = -3  # mallopt parameter number in glibc's malloc.h
MMAP_THRESHOLD_BYTES = 1 << 20


def pin_mmap_threshold() -> bool:
    """Fix glibc's mmap threshold so that peak RSS measures the arrays alive at once.

    By default glibc raises the threshold each time it frees a mapped block, up
    to 32 MiB. After that, the simulator's tens-of-MB arrays come from the heap,
    and freed heap memory stays resident. Peak RSS of one mc_sweep seed then
    reads 256, 287 or 317 MB from process to process. With a fixed threshold,
    every large array is mapped and unmapped, and the same seed reads 256-257 MB.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
        mallopt = libc.mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES) == 1


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_env": {k: os.environ.get(k) for k in BLAS_VARS},
    }


def _set_up(name: str, seed: int, work: Path):
    """Import the program, parse the config and make the inputs."""
    sys.path[:0] = [str(SRC), str(HERE)]
    import tickzone
    import workloads

    if not Path(tickzone.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported tickzone from {tickzone.__file__}, not from {SRC}")
    return workloads.WORKLOADS[name](seed, work)


def _command(args, workload: str, *extra) -> list:
    return [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def probe(workload: str, seed: int, kind: str, work: Path) -> dict:
    """Set up and report the set-up time; for ``--probe rss``, run one pass as well.

    Both kinds fix the mmap threshold first, so that they set up alike. The
    ``rss`` kind also reports the peak RSS of the process. The timed passes run in
    another process, with glibc's default threshold, because the fixed one
    costs page faults on every large array.
    """
    pinned = pin_mmap_threshold()
    t0 = time.perf_counter()
    wl = _set_up(workload, seed, work)
    out = {"setup_s": time.perf_counter() - t0, "mmap_threshold_fixed": pinned}
    if kind == "rss":
        wl.run_pass()
        out["peak_rss_mb"] = _peak_rss_mb()
    return out


def _probe_in_fresh_process(args, kind: str) -> dict:
    out = subprocess.run(_command(args, args.workload, "--probe", kind), cwd=ROOT, capture_output=True,
                         text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def _passes(wl, seconds: float, tracer=None):
    """Run passes until both limits are met; with a tracer, alternate plain and traced."""
    plain, traced = [], []
    start = time.perf_counter()
    while len(plain) + len(traced) < MIN_PASSES or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        result = wl.run_pass()
        plain.append((time.perf_counter() - t0, result))
        if tracer is None:
            continue
        originals, missing = tracer.install(wl.trace_target, wl.entry_points)
        try:
            tracer.begin_pass()
            t0 = time.perf_counter()
            result = wl.run_pass()
            wall = time.perf_counter() - t0
            traced.append((wall, result, tracer.end_pass(wall), missing))
        finally:
            tracer.uninstall(wl.trace_target, originals)
    return plain, traced


def _end_to_end(probes, plain) -> dict:
    return {
        "setup_s": (statistics.median([p["setup_s"] for p in probes]), "s"),
        "asset_days_per_s": (statistics.median([r.ok / w for w, r in plain]), "1/s"),
        "trades_per_s": (statistics.median([r.trades / w for w, r in plain]), "1/s"),
        "peak_rss_mb": (statistics.median([p["peak_rss_mb"] for p in probes if "peak_rss_mb" in p]), "MB"),
    }


def _per_layer(traced, plain) -> tuple[dict, list]:
    overhead = statistics.median([t[0] - p[0] for t, p in zip(traced, plain)])
    per_pass = [tracing.layer_metrics(raw, r.report_bytes, overhead) for _, r, raw, _ in traced]
    missing = sorted({m for *_, miss in traced for m in miss})
    first = per_pass[0]
    metrics = {}
    for name, (unit, entry_point, _) in tracing.METRICS.items():
        if entry_point in missing:
            continue  # reported as missing, never as zero
        # counts repeat exactly from pass to pass; times are medians over traced passes
        timed = unit in ("s", "us", "ratio")
        metrics[name] = (statistics.median([m[name] for m in per_pass]) if timed else first[name], unit)
    return metrics, missing


def run_workload(args) -> int:
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.probe:
            print(json.dumps(probe(args.workload, args.seed, args.probe, work)))
            return 0
        kinds = ["setup"] * SETUP_PROBES + ["rss"] * RSS_PROBES
        probes = [] if args.trace else [_probe_in_fresh_process(args, kind) for kind in kinds]
        wl = _set_up(args.workload, args.seed, work)
        tracer = tracing.Tracer(wl.file_rows) if args.trace else None
        plain, traced = _passes(wl, args.seconds, tracer)
        results = [r for _, r in plain] + [t[1] for t in traced]
        attempted = sum(r.attempted for r in results)
        failed = sum(r.failed for r in results)
        problems = sorted({p for r in results for p in r.problems})
        if args.trace:
            metrics, missing = _per_layer(traced, plain)
        else:
            metrics, missing = _end_to_end(probes, plain), []

        fixed = bool(probes) and all(p["mmap_threshold_fixed"] for p in probes)
        threshold = MMAP_THRESHOLD_BYTES if fixed else None
        print("machine: " + json.dumps({**machine(), "probe_mmap_threshold": threshold}))
        inputs = {"workload": args.workload, "seed": args.seed, **wl.inputs(),
                  "trades_per_pass": results[0].trades, "passes": len(results)}
        print("inputs: " + json.dumps(inputs))
        if probes:
            print("set-up times (s): " + " ".join(f"{p['setup_s']:.3f}" for p in probes))
        print("digests: " + " ".join(sorted({r.digest for r in results})))
        print("pass walls (s): plain " + " ".join(f"{w:.3f}" for w, _ in plain)
              + ("; traced " + " ".join(f"{t[0]:.3f}" for t in traced) if traced else ""))
        for name, (value, unit) in metrics.items():
            print(f"{args.workload} {name} = {value:.6g} {unit}")
        print(f"{args.workload} failed_frac = {failed / max(attempted, 1):.6g} fraction"
              f" ({failed} of {attempted} asset-days)")
        if args.trace:
            raw = traced[0][2]
            print(f"first traced pass: wall {raw['wall']:.4f} s = layer spans covering {raw['covered']:.4f} s"
                  f" + pipeline.self_s {raw['wall'] - raw['covered']:.4f} s")
            print("busy times are sums of span durations; in run_pipeline, ingest and record building"
                  " run in the program's thread pool, so they may exceed wall time")
        for name in missing:
            print(f"MISSING entry point {name}: its layer metrics are not reported")
        for p in problems:
            print(f"CHECK FAILED: {p}")
        correct = failed == 0 and attempted > 0
        print(json.dumps({
            "correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0 if correct else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is still using it


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=("all",) + WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--probe", choices=("setup", "rss"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "tickzone" / "__init__.py").is_file():
        print(f"error: no tickzone sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.workload != "all":
        return run_workload(args)
    status = 0
    for name in WORKLOAD_NAMES:
        status = max(status, subprocess.run(_command(args, name), cwd=ROOT).returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
