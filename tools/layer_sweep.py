"""Per-layer cost sweep of medcov's streaming kernels: writes ``BENCH_<commit>.json``.

Layers, each timed in ns per row at d in {10, 50, 100, 200, 400}:

- ``pipeline_row``: ``StreamingRobustPCA._update`` (q=3, eigen lag 0, so
  the tracker steps on every row) with the row-path MCM;
- ``pipeline_block``: the same with the deferred (block) MCM, at every d,
  so the file shows where the block path starts to pay.  Null on a tree
  that has no block form;
- ``mcm_row``: ``MedianCovariationSGD._update``, the step that the
  engineering-contract test times through ``update``;
- ``mcm_block``: the deferred MCM's ``_update`` alone (null without it);
- ``fit_streams_row``: ``bench``'s two streaming fits (``mcm_r`` and
  ``mcm_rplus``) on the row path: one fresh one-lane estimator per PSD
  mode, stepped through ``update_many`` on each batch;
- ``fit_streams_block``: ``mcm._block_fits(rows, [False, True])`` with
  the calibrated schedules, the same two fits as ``bench`` runs them, in
  exact block form (null on a tree without ``mcm._block_fits``);
- ``tracker``: ``OnlineEigenTracker.step`` (q=3) against a fixed matrix;
- ``floor``: one BLAS ``dsyr`` plus one ``dsymv`` on a Fortran-order
  matrix, the BLAS-2 cost of a rank-one step (null without scipy);
- ``np_add``: one ``np.add`` of two 10-vectors, a per-call overhead probe
  that lets every layer be read as a ratio when the host drifts.

One more point, ``paper_scale``, times ``pipeline_block`` at the paper's
d = 1440 on its contaminated Brownian stream (``student_t2`` at
delta = 0.05): after ``pipeline_block``'s warm-up of 128 rows, 260 rows
one at a time, in ns per row (median and quartiles over the rows).
It runs after the interleaved layers, and ``--smoke`` skips it (null).

``weiszfeld`` times the batch baseline that ``bench`` reports as
``mcm_w``: one ``weiszfeld_median`` then ``weiszfeld_mcm`` fit of a
sample of n = 200 rows (``student_t1`` at delta = 0.1) at d in {10, 50},
in ns per fit (median and quartiles over repeats, the two dims
alternating).  It goes through the public API only, so the sweep can
time any older tree's solver; ``--smoke`` runs it with 3 repeats.

``csv_parse`` times the CSV reader behind ``fit-stream``: draining
``iter_csv_rows`` over a temporary CSV of 256 standard normal rows,
written by ``write_csv``, at d in {10, 50, 200, 400}, in ns per row
(median and quartiles over repeats, the dims alternating).  It too goes
through the public API only; ``--smoke`` runs it with 3 repeats.

Each repeat times one batch of 64 rows per layer and dimension, the
batches interleaved in one process with one BLAS thread; the file holds
the median and the quartiles over repeats.  ``derived`` holds the
row-path MCM's log-log cost slope over d = 100..400 (the engineering
contract's band is [1.6, 2.4]), its ratio to the floor, the smallest
swept d from which the block pipeline is faster at every larger d, and
the two fits' row-to-block time ratio at each d.  It measures whichever
medcov tree ``PYTHONPATH`` names, so it can time an older checkout too.

    PYTHONPATH=src python tools/layer_sweep.py                # about 30 s
    PYTHONPATH=src python tools/layer_sweep.py --smoke --out sweep.json
    python tools/layer_sweep.py --check sweep.json tools/sweeps/BENCH_*.json

At start the sweep pins glibc's malloc trim threshold (1 GiB) and mmap
threshold (32 MiB) with ``mallopt``, where the C library has it, in its
own process only.  Left dynamic, both move with every large free, so the
d >= 400 layers would read the allocator state that earlier layers left
behind rather than the code's own cost.  The committed files from
before this pin ran with dynamic thresholds, so their d >= 400 layers do
not compare with those of later sweeps.

The full sweep writes ``BENCH_<commit>.json`` (the commit of the medcov
package's checkout) into ``tools/sweeps/``; ``--check`` validates files
against the schema of their version (1, without the two fit layers and
their ratio; 2; 3, with ``paper_scale``; 4, with ``weiszfeld`` too; or 5,
with ``csv_parse`` too) and exits 1 on the first that fails.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads

import numpy as np  # noqa: E402

FORMAT = "medcov-layer-sweep"
VERSION = 5
LAYERS = ("pipeline_row", "pipeline_block", "mcm_row", "mcm_block", "fit_streams_row",
          "fit_streams_block", "tracker", "floor", "np_add")
# what each version's files hold: its layers, the ones that may be null, its derived keys
SCHEMAS = {
    1: (tuple(name for name in LAYERS if not name.startswith("fit_streams")),
        {"pipeline_block", "mcm_block", "floor"},
        {"mcm_row_slope_100_400", "block_crossover_dim", "mcm_row_floor_ratio"}),
    2: (LAYERS, {"pipeline_block", "mcm_block", "fit_streams_block", "floor"},
        {"mcm_row_slope_100_400", "block_crossover_dim", "mcm_row_floor_ratio",
         "fit_streams_block_gain"}),
}
SCHEMAS[3] = SCHEMAS[2]  # and paper_scale
SCHEMAS[4] = SCHEMAS[2]  # and paper_scale and weiszfeld
SCHEMAS[5] = SCHEMAS[2]  # and paper_scale, weiszfeld and csv_parse
PAPER_DIM, PAPER_ROWS = 1440, 260
WEISZFELD_DIMS, WEISZFELD_ROWS = (10, 50), 200
CSV_DIMS, CSV_ROWS = (10, 50, 200, 400), 256
DIMS = (10, 50, 100, 200, 400)
ROWS = 64  # rows per timed batch: one block of the deferred MCM
REPEATS = 61
STATS = ("median_ns", "q1_ns", "q3_ns")


def _pipeline(d, block):
    """A warmed pipeline on one path, or None where the tree has no block form."""
    from medcov import StreamingRobustPCA, mcm
    from medcov.bench import calibrated_schedules

    if block and not hasattr(mcm, "_BlockMCM"):
        return None
    saved = getattr(mcm, "_BLOCK_MIN_DIM", None)
    mcm._BLOCK_MIN_DIM = 1 if block else 10**9
    try:
        ms, cs = calibrated_schedules(d)
        model = StreamingRobustPCA(d, 3, median_schedule=ms, cov_schedule=cs, eigen_lag=0)
    finally:
        if saved is None:
            del mcm._BLOCK_MIN_DIM
        else:
            mcm._BLOCK_MIN_DIM = saved
    for x in np.random.default_rng(d).standard_normal((2 * ROWS, d)):
        model.update(x)
    return model


def _stream_fits(d, block):
    """The fits of ``mcm_r`` and ``mcm_rplus`` on one batch: one one-lane
    ``update_many`` fit per PSD mode, or with ``block`` the tree's
    ``mcm._block_fits`` (None where the tree has no block form)."""
    from medcov import MedianCovariationSGD, bench, mcm

    ms, cs = bench.calibrated_schedules(d)
    if not block:
        return lambda rows: [MedianCovariationSGD(d, median_schedule=ms, cov_schedule=cs,
                                                  psd_mode=psd).update_many(rows).estimate
                             for psd in (False, True)]
    if not hasattr(mcm, "_block_fits"):
        return None
    return lambda rows: mcm._block_fits(rows, [False, True], median_schedule=ms, cov_schedule=cs)


def _layers(d):
    """{layer: (per-batch callable taking the batch's rows, or None)}."""
    from medcov import MedianCovariationSGD, OnlineEigenTracker

    pipes = {name: _pipeline(d, name == "pipeline_block") for name in LAYERS[:2]}
    mcms = {"mcm_row": MedianCovariationSGD(d)}
    if pipes["pipeline_block"] is not None:
        mcms["mcm_block"] = type(pipes["pipeline_block"].mcm)(d)
    for est in mcms.values():
        est.update_many(np.random.default_rng(d + 1).standard_normal((2 * ROWS, d)))
    m = np.random.default_rng(d + 2).standard_normal((d, d))
    vbar = (m + m.T) / 2.0
    tracker = OnlineEigenTracker(d, 3).force_ready()
    out = {}
    for name, obj in (*pipes.items(), *mcms.items()):
        out[name] = None if obj is None else (lambda rows, f=obj._update: [f(x) for x in rows])
    out.setdefault("mcm_block", None)
    out["fit_streams_row"], out["fit_streams_block"] = (_stream_fits(d, b) for b in (False, True))
    out["tracker"] = lambda rows: [tracker.step(vbar) for _ in rows]
    try:
        from scipy.linalg.blas import dsymv, dsyr
    except ImportError:
        out["floor"] = None
    else:
        a = np.asfortranarray(vbar)

        def floor(rows):
            for x in rows:
                dsyr(1e-3, x, a=a, overwrite_a=True)
                dsymv(1.0, a, x)

        out["floor"] = floor
    u = np.ones(10)
    out["np_add"] = lambda rows: [np.add(u, u) for _ in rows]
    return out


def sweep(dims, repeats):
    """{layer: {d: [ns per row, one per repeat]}}, the batches interleaved."""
    layers = {d: _layers(d) for d in dims}
    rows = {d: np.random.default_rng(1000 + d).standard_normal((ROWS, d)) for d in dims}
    times = {name: {d: [] for d in dims} for name in LAYERS}
    pc = time.perf_counter_ns
    for _ in range(repeats):
        for d in dims:
            for name in LAYERS:
                fn = layers[d][name]
                if fn is None:
                    continue
                t0 = pc()
                fn(rows[d])
                times[name][d].append((pc() - t0) / ROWS)
    return times


def paper_scale():
    """ns per row of the block pipeline at d = 1440, one row at a time
    (None on a tree without the block form)."""
    from medcov import ScenarioConfig, draw_sample

    model = _pipeline(PAPER_DIM, True)
    if model is None:
        return None
    x = draw_sample(ScenarioConfig(d=PAPER_DIM, delta=0.05, contamination="student_t2"),
                    PAPER_ROWS)
    pc, times = time.perf_counter_ns, []
    for row in x:
        t0 = pc()
        model.update(row)
        times.append(pc() - t0)
    return dict(_summary(times), dim=PAPER_DIM, rows=PAPER_ROWS)


def weiszfeld(repeats):
    """{d: ns per ``weiszfeld_median`` + ``weiszfeld_mcm`` fit}, the dims
    alternating."""
    from medcov import ScenarioConfig, draw_sample, weiszfeld_mcm, weiszfeld_median

    xs = {d: draw_sample(ScenarioConfig(d=d, delta=0.1, contamination="student_t1", seed=d),
                         WEISZFELD_ROWS) for d in WEISZFELD_DIMS}
    pc, times = time.perf_counter_ns, {d: [] for d in WEISZFELD_DIMS}
    for _ in range(repeats):
        for d, x in xs.items():
            t0 = pc()
            weiszfeld_mcm(x, weiszfeld_median(x))
            times[d].append(pc() - t0)
    return {str(d): _summary(per) for d, per in times.items()}


def csv_parse(repeats):
    """{d: ns per row of draining ``iter_csv_rows`` over a CSV}, the dims
    alternating."""
    from medcov import iter_csv_rows, write_csv

    pc, times = time.perf_counter_ns, {d: [] for d in CSV_DIMS}
    with tempfile.TemporaryDirectory() as tmp:
        paths = {d: Path(tmp) / f"d{d}.csv" for d in CSV_DIMS}
        for d, path in paths.items():
            write_csv(path, np.random.default_rng(2000 + d).standard_normal((CSV_ROWS, d)))
        for _ in range(repeats):
            for d, path in paths.items():
                t0 = pc()
                for _row in iter_csv_rows(path):
                    pass
                times[d].append((pc() - t0) / CSV_ROWS)
    return {str(d): _summary(per) for d, per in times.items()}


def _summary(samples):
    if not samples:
        return None
    q1, med, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median_ns": med, "q1_ns": q1, "q3_ns": q3}


def _derived(layers, dims):
    med = {name: {d: s["median_ns"] for d, s in per.items() if s} for name, per in layers.items()}
    big = [d for d in dims if d >= 100 and d in med["mcm_row"]]
    slope = None
    if len(big) >= 2:
        xs = [math.log(d) for d in big]
        ys = [math.log(med["mcm_row"][d]) for d in big]
        mx, my = statistics.fmean(xs), statistics.fmean(ys)
        slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
    crossover = None
    if med["pipeline_block"]:
        for d in reversed(dims):
            if med["pipeline_block"][d] >= med["pipeline_row"][d]:
                break
            crossover = d
    floor = {str(d): med["mcm_row"][d] / med["floor"][d] for d in dims if d in med["floor"]}
    gain = {str(d): med["fit_streams_row"][d] / med["fit_streams_block"][d]
            for d in dims if d in med["fit_streams_block"]}
    return {"mcm_row_slope_100_400": slope, "block_crossover_dim": crossover,
            "mcm_row_floor_ratio": floor or None, "fit_streams_block_gain": gain or None}


def _commit(package_dir):
    try:
        out = subprocess.run(["git", "-C", str(package_dir), "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def run(dims, repeats, paper):
    import medcov

    start = time.perf_counter()
    times = sweep(dims, repeats)
    point = paper_scale() if paper else None
    batch = weiszfeld(repeats)
    parse = csv_parse(repeats)
    layers = {name: {str(d): _summary(per[d]) for d in dims} for name, per in times.items()}
    return {
        "format": FORMAT,
        "version": VERSION,
        "commit": _commit(Path(medcov.__file__).resolve().parent),
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "machine": platform.machine(), "cpus": os.cpu_count(), "blas_threads": 1},
        "dims": list(dims),
        "repeats": repeats,
        "rows_per_batch": ROWS,
        "layers": layers,
        "derived": _derived({n: {d: layers[n][str(d)] for d in dims} for n in LAYERS}, dims),
        "paper_scale": point,
        "weiszfeld": batch,
        "csv_parse": parse,
        "wall_s": time.perf_counter() - start,
    }


def check(doc):
    """The problems with ``doc`` under its version's schema, as a list of
    strings (empty when valid)."""
    problems = []
    if not (isinstance(doc, dict) and doc.get("format") == FORMAT
            and doc.get("version") in SCHEMAS):
        return [f"not a {FORMAT} document of version {' or '.join(map(str, SCHEMAS))}"]
    layer_names, nullable, derived_keys = SCHEMAS[doc["version"]]
    dims = doc.get("dims")
    if not (isinstance(dims, list) and dims and all(isinstance(d, int) and d > 0 for d in dims)):
        return ["dims: expected a non-empty list of positive ints"]
    for key in ("commit", "env", "repeats", "rows_per_batch", "derived", "wall_s"):
        if key not in doc:
            problems.append(f"{key}: missing")
    layers = doc.get("layers")
    if not isinstance(layers, dict) or sorted(layers) != sorted(layer_names):
        return problems + [f"layers: expected exactly {', '.join(layer_names)}"]
    for name in layer_names:
        per = layers[name]
        if not isinstance(per, dict) or sorted(per) != sorted(map(str, dims)):
            problems.append(f"layers.{name}: expected one entry per dim")
            continue
        for d, stats in per.items():
            if stats is None and name in nullable:
                continue
            if not _valid_stats(stats):
                problems.append(f"layers.{name}.{d}: expected positive {', '.join(STATS)} in order")
    derived = doc.get("derived")
    if not (isinstance(derived, dict) and derived_keys <= set(derived)):
        problems.append(f"derived: expected {', '.join(sorted(derived_keys))}")
    if doc["version"] >= 3:
        point = doc.get("paper_scale", "missing")
        if point is not None and not (
                isinstance(point, dict) and sorted(point) == sorted((*STATS, "dim", "rows"))
                and all(isinstance(v, (int, float)) for v in point.values())
                and point["dim"] == PAPER_DIM and point["rows"] == PAPER_ROWS
                and 0 < point["q1_ns"] <= point["median_ns"] <= point["q3_ns"] < math.inf):
            problems.append(f"paper_scale: expected null or d = {PAPER_DIM}, "
                            f"{PAPER_ROWS} rows and positive {', '.join(STATS)} in order")
    if doc["version"] >= 4:
        fits = doc.get("weiszfeld")
        if not (isinstance(fits, dict) and sorted(fits) == sorted(map(str, WEISZFELD_DIMS))
                and all(_valid_stats(stats) for stats in fits.values())):
            problems.append(f"weiszfeld: expected d = {', '.join(map(str, WEISZFELD_DIMS))} "
                            f"with positive {', '.join(STATS)} in order")
    if doc["version"] >= 5:
        parse = doc.get("csv_parse")
        if not (isinstance(parse, dict) and sorted(parse) == sorted(map(str, CSV_DIMS))
                and all(_valid_stats(stats) for stats in parse.values())):
            problems.append(f"csv_parse: expected d = {', '.join(map(str, CSV_DIMS))} "
                            f"with positive {', '.join(STATS)} in order")
    return problems


def _valid_stats(stats):
    return (isinstance(stats, dict) and sorted(stats) == sorted(STATS)
            and all(isinstance(v, (int, float)) and 0 < v < math.inf for v in stats.values())
            and stats["q1_ns"] <= stats["median_ns"] <= stats["q3_ns"])


def _pin_malloc_thresholds():
    """Fix glibc's M_TRIM_THRESHOLD and M_MMAP_THRESHOLD for this process;
    a no-op where the C library has no ``mallopt``."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD
        mallopt(-3, 1 << 25)  # M_MMAP_THRESHOLD


def main(argv=None):
    _pin_malloc_thresholds()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help="d in {10, 50}, 3 repeats (weiszfeld and csv_parse too), "
                        "no paper_scale point")
    parser.add_argument("--out", help="output path (default: tools/sweeps/BENCH_<commit>.json)")
    parser.add_argument("--check", nargs="+", metavar="JSON", help="validate files and exit")
    args = parser.parse_args(argv)
    if args.check:
        for path in args.check:
            problems = check(json.loads(Path(path).read_text(encoding="utf-8")))
            if problems:
                print(f"{path}: " + "; ".join(problems), file=sys.stderr)
                return 1
            print(f"{path}: ok")
        return 0
    doc = run((10, 50) if args.smoke else DIMS, 3 if args.smoke else REPEATS, not args.smoke)
    problems = check(doc)
    if problems:
        print("; ".join(problems), file=sys.stderr)
        return 1
    out = Path(args.out) if args.out else (
        Path(__file__).resolve().parent / "sweeps" / f"BENCH_{doc['commit']}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    for name in LAYERS:
        cells = [doc["layers"][name][str(d)] for d in doc["dims"]]
        print(f"{name:18s}" + "".join(f"{c['median_ns'] / 1e3:9.1f}" if c else "        -"
                                      for c in cells))
    point = doc["paper_scale"]
    if point:
        print(f"{'paper_scale':18s}{point['median_ns'] / 1e3:9.1f}  (d = {PAPER_DIM})")
    print(f"{'weiszfeld':18s}" + "".join(f"{doc['weiszfeld'][str(d)]['median_ns'] / 1e6:8.2f}ms"
                                         for d in WEISZFELD_DIMS)
          + f"  (n = {WEISZFELD_ROWS}, d = {', '.join(map(str, WEISZFELD_DIMS))})")
    print(f"{'csv_parse':18s}" + "".join(f"{doc['csv_parse'][str(d)]['median_ns'] / 1e3:9.1f}"
                                         for d in CSV_DIMS)
          + f"  (us per row, d = {', '.join(map(str, CSV_DIMS))})")
    print(f"derived: {json.dumps(doc['derived'])}; {doc['wall_s']:.0f} s; wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
