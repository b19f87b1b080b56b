"""medcov benchmark: one workload, one run, one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload stream-d400 --seed 1 --seconds 10 --trace 0

Workloads: stream-d400, fitstream-d200, montecarlo-d50 (see workloads.py).
The package is imported from ``src/`` next to this directory; the run
fails (exit 2, no result) when it is not there.

``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` splits the time in two halves, untraced then traced, and
reports the per-layer metrics from the traced half, plus the tracing
overhead as the rate lost between the two.  Spans are written to
``.perfbench_out/``.  Every run prints the environment and the output
check verdicts before the last line, which is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import environment

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
IMPORT_SAMPLES = 9

# Times ``import medcov`` in a fresh interpreter; the parent passes src/.
# numpy is imported first, off the clock, as in the parent: its import is
# the largest and noisiest part of the total and no change to medcov moves
# it, while anything medcov adds on import (its modules, a new dependency)
# stays on the clock.
IMPORT_PROBE = """
import sys, time
import numpy
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import medcov
print(time.perf_counter() - t0)
"""
WORKLOAD_NAMES = ("stream-d400", "fitstream-d200", "montecarlo-d50")

END_TO_END = {
    "rows_per_s": "rows/s",
    "row_us_p50": "us",
    "row_us_p90": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "eig_err": "frob2",
    "online_vs_batch_err": "frob2",
}

PER_LAYER = {
    "mcm.update_us": "us",
    "geomedian.update_us": "us",
    "mcm.floor_ratio": "ratio",
    "online_pca.step_us": "us",
    "linalg.as_sym_matrix_us": "us",
    "online_pca.steps": "count",
    "online_pca.reinits": "count",
    "bench.iter_csv_rows_us_per_row": "us",
    "online_pca.scores_us": "us",
    "bench.fit_stream_self_us_per_row": "us",
    "bench.save_snapshot_ms": "ms",
    "bench.load_snapshot_ms": "ms",
    "bench.snapshot_bytes": "bytes",
    "cli.main_self_ms": "ms",
    "simgen.draw_sample_ms": "ms",
    "geomedian.weiszfeld_median_ms": "ms",
    "mcm.weiszfeld_mcm_ms": "ms",
    "linalg.top_q_projector_ms": "ms",
    "metrics.eigenspace_error_ms": "ms",
    "bench.harness_self_ms": "ms",
    "bench.fit_pca_ms": "ms",
    "bench.fit_mcm_w_ms": "ms",
    "bench.fit_mcm_r_ms": "ms",
    "bench.fit_mcm_rplus_ms": "ms",
    "bench.write_csv_ms": "ms",
    "tracing.overhead_pct": "%",
}


def import_seconds(first):
    """Median time of ``import medcov``: this process's own import plus
    IMPORT_SAMPLES - 1 fresh interpreters, each waited for."""
    times = [first]
    for _ in range(IMPORT_SAMPLES - 1):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
                               capture_output=True, text=True, timeout=60, check=True)
        times.append(float(probe.stdout))
    return statistics.median(times)


def measure(workload, seconds, tracer=None):
    """Run whole units until ``seconds`` have passed (at least one unit)."""
    units = []
    start = time.perf_counter()
    while not units or time.perf_counter() - start < seconds:
        units.append(workload.unit(tracer))
    return units


def unit_rate(units):
    return statistics.median(u.rows / u.wall_s for u in units)


def blas_floor_us(d, calls=200, repeats=5):
    """Median time of one dsyr plus one dsymv at dimension d: the BLAS
    floor of one MCM update (a rank-one move and a mat-vec)."""
    import numpy as np
    from scipy.linalg import blas

    a = np.zeros((d, d), order="F")
    x = np.random.default_rng(0).standard_normal(d)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            a = blas.dsyr(1e-9, x, a=a, overwrite_a=1)
            blas.dsymv(1.0, a, x)
        times.append((time.perf_counter() - t0) / calls)
    return statistics.median(times) * 1e6


def end_to_end(units, setup_s, peak_rss_mb, quality):
    import numpy as np

    lat = np.concatenate([u.op_us_per_row for u in units])
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    return {
        "rows_per_s": unit_rate(units),
        "row_us_p50": float(np.percentile(lat, 50)),
        "row_us_p90": float(np.percentile(lat, 90)),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "ok_ratio": 1.0 - failed / attempted,
        **quality,
    }


def per_layer(workload, base, traced, stats, setup_stats, floor_us):
    rows = sum(u.rows for u in traced)

    def rec(name):
        out = dict(stats.get(name, {"calls": 0, "total_ns": 0, "self_ns": 0}))
        extra = setup_stats.get(name)
        if extra:
            for key in out:
                out[key] += extra[key]
        return out

    def mean_us(name, key="total_ns"):
        r = rec(name)
        return r[key] / r["calls"] / 1e3 if r["calls"] else 0.0

    def per_row_us(name, key="total_ns"):
        return rec(name)[key] / rows / 1e3

    fit_ms = workload.fit_ms(base) if hasattr(workload, "fit_ms") else {}
    mcm_us = mean_us("mcm.update")
    base_rate, traced_rate = unit_rate(base), unit_rate(traced)
    return {
        "mcm.update_us": mcm_us,
        "geomedian.update_us": mean_us("geomedian.update"),
        "mcm.floor_ratio": mcm_us / floor_us,
        "online_pca.step_us": mean_us("online_pca.step"),
        "linalg.as_sym_matrix_us": mean_us("linalg.as_sym_matrix"),
        "online_pca.steps": rec("online_pca.step")["calls"] / len(traced),
        "online_pca.reinits": sum(u.reinits for u in traced) / len(traced),
        "bench.iter_csv_rows_us_per_row": per_row_us("bench.iter_csv_rows"),
        "online_pca.scores_us": mean_us("online_pca.scores"),
        "bench.fit_stream_self_us_per_row": per_row_us("bench.fit_stream", "self_ns"),
        "bench.save_snapshot_ms": mean_us("bench.save_snapshot") / 1e3,
        "bench.load_snapshot_ms": mean_us("bench.load_snapshot") / 1e3,
        "bench.snapshot_bytes": statistics.fmean(float(u.snapshot_bytes) for u in traced),
        "cli.main_self_ms": mean_us("cli.main", "self_ns") / 1e3,
        "simgen.draw_sample_ms": mean_us("simgen.draw_sample") / 1e3,
        "geomedian.weiszfeld_median_ms": mean_us("geomedian.weiszfeld_median") / 1e3,
        "mcm.weiszfeld_mcm_ms": mean_us("mcm.weiszfeld_mcm") / 1e3,
        "linalg.top_q_projector_ms": mean_us("linalg.top_q_projector") / 1e3,
        "metrics.eigenspace_error_ms": mean_us("metrics.eigenspace_error") / 1e3,
        "bench.harness_self_ms": mean_us("bench.run_benchmark", "self_ns") / 1e3,
        **{f"bench.fit_{est}_ms": fit_ms.get(est, 0.0)
           for est in ("pca", "mcm_w", "mcm_r", "mcm_rplus")},
        "bench.write_csv_ms": mean_us("bench.write_csv") / 1e3,
        "tracing.overhead_pct": 100.0 * (base_rate - traced_rate) / base_rate,
    }


def run(args, import_s):
    import tracer as tracing
    import workloads

    seed = args.seed % 2**63
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.smoke, workdir)
        setup_tracer = tracing.Tracer()
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.setup(seed, setup_tracer)
            setups.append(time.perf_counter() - t0)
        workload.warm()

        if args.trace:
            base = measure(workload, args.seconds / 2)
            tracer = tracing.Tracer()
            with tracing.installed(tracer):
                traced = measure(workload, args.seconds / 2, tracer)
            units = base + traced
        else:
            units = measure(workload, args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        check = workloads.Check()
        quality = workload.check(units, check)
        if args.trace:
            tracer.dump(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json")
            names = PER_LAYER
            metrics = per_layer(workload, base, traced, tracer.stats(),
                                setup_tracer.stats(), blas_floor_us(workload.d))
        else:
            names = END_TO_END
            setup_s = import_seconds(import_s) + statistics.median(setups)
            metrics = end_to_end(units, setup_s, peak_rss_mb, quality)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("env " + json.dumps(environment.record(ROOT, args.seed)))
    for name, ok, detail in check.verdicts:
        print(f"check {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    print(f"ops attempted={attempted} failed={failed} fail_ratio={failed / attempted!r} "
          f"units={len(units)}")
    for name, unit in names.items():
        print(f"metric {name} = {metrics[name]!r} {unit}")
    print(json.dumps({
        "correct": check.passed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names.items()},
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the smoke test only")
    args = parser.parse_args(argv)

    for var in environment.BLAS_THREAD_VARS:
        os.environ[var] = "1"
    import numpy  # noqa: F401  off the clock; see IMPORT_PROBE

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    try:
        import medcov
    except ImportError as exc:
        print(f"perfbench: cannot import medcov from {src}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0
    if not Path(medcov.__file__).resolve().is_relative_to(src):
        print(f"perfbench: medcov was imported from {medcov.__file__}, not {src}",
              file=sys.stderr)
        return 2
    run(args, import_s)
    return 0


if __name__ == "__main__":
    sys.exit(main())
