"""The three medcov workloads, their output checks and their quality figures.

Each workload is one single-threaded process with one closed-loop
caller: the next row, chunk or replication is sent only after the
previous one returns.  A workload is timed in units (one stream, one
chunked pass over a CSV, one block of replications); every unit sees the
same kind of work, so the median over units is a steady rate.

Timed inputs come from ``--seed``.  The quality figures (``eig_err``,
``online_vs_batch_err``) come from fixed validation inputs instead: on a
single contaminated stream they swing by two orders of magnitude from
seed to seed, because a stream that opens on a wild row stays ruined for
thousands of rows (README, "Fine print").  The validation panel keeps
such a stream in it (seed 0 opens on a wild row at d=400 and d=200) and
reports the median over the panel, so it compares code, not inputs.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import statistics
import sys
import time
import traceback

import numpy as np

import medcov
from medcov import bench, cli

FAILURES = (medcov.MedcovError, ValueError, ArithmeticError, np.linalg.LinAlgError)
VALIDATION_SEEDS = (0, 1, 2)


@dataclasses.dataclass
class Unit:
    rows: int                 # observation rows consumed
    wall_s: float             # wall time of the unit, caller loop included
    op_us_per_row: list       # per call: its time over the rows it consumed, in us
    attempted: int
    failed: int
    reinits: int = 0          # tracker reinitializations during the unit
    snapshot_bytes: int = 0   # size of the snapshot the unit wrote
    reports: list = None      # per replication: {estimator: ReportRow}


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _finite_model(model):
    """True when the model's estimates are all finite.

    The averaged MCM and the tracker carriers are running averages of
    every iterate, so one non-finite update leaves them non-finite for
    good: checking the final state checks every update.
    """
    arrays = [model.mcm.median_estimate]
    if model.mcm.n_updates:
        arrays.append(model.mcm.estimate)
    if model.tracker.ready:
        arrays.append(model.tracker.raw)
    return all(bool(np.isfinite(a).all()) for a in arrays)


def _true_projector(d, q):
    return medcov.top_q_projector(medcov.brownian_cov(d), q)


def _tracker_quality(model, p_true):
    """(error against the truth, error against the batch eigenvectors of
    the model's own averaged MCM) of the tracker basis."""
    if not model.tracker.ready:
        model.tracker.force_ready()
    p_online = model.tracker.projector()
    p_batch = medcov.top_q_projector(model.mcm.estimate, model.tracker.q)
    return (medcov.eigenspace_error(p_online, p_true),
            medcov.eigenspace_error(p_online, p_batch))


class Check:
    def __init__(self):
        self.verdicts = []

    def __call__(self, name, ok, detail=""):
        self.verdicts.append((name, bool(ok), detail))

    @property
    def passed(self):
        return all(ok for _, ok, _ in self.verdicts)


class _ContaminatedStream:
    """Scenario shared by the two streaming workloads."""

    q = 3

    def scenario(self, seed):
        return medcov.ScenarioConfig(d=self.d, delta=0.05, contamination="student_t2",
                                     seed=seed)


class StreamWorkload(_ContaminatedStream):
    """Library user pushing in-memory rows through StreamingRobustPCA.update."""

    name = "stream-d400"

    def __init__(self, smoke, workdir):
        self.d, self.rows = (50, 600) if smoke else (400, 1200)
        self.schedules = medcov.calibrated_schedules(self.d)

    def new_model(self, seed, eigen_lag=None):
        ms, cs = self.schedules
        return medcov.StreamingRobustPCA(self.d, self.q, median_schedule=ms, cov_schedule=cs,
                                         eigen_seed=seed, eigen_lag=eigen_lag)

    def setup(self, seed, tracer):
        self.seed = seed
        with tracer.span("simgen.draw_sample"):
            self.x = medcov.draw_sample(self.scenario(seed), self.rows)
        self.model = self.new_model(seed)
        self.last_model = None

    def warm(self):
        warm = self.new_model(self.seed, eigen_lag=0)
        for row in self.x[:50]:
            warm.update(row)

    def unit(self, tracer):
        model, self.model = self.model or self.new_model(self.seed), None
        pc = time.perf_counter
        lat = []
        failed = 0
        start = pc()
        for i, row in enumerate(self.x):
            if tracer is not None:
                tracer.op = i
            t0 = pc()
            try:
                model.update(row)
            except FAILURES:
                failed += 1
            lat.append(pc() - t0)
        wall = pc() - start
        if not _finite_model(model):
            failed = self.rows
        self.last_model = model
        return Unit(self.rows, wall, [t * 1e6 for t in lat], self.rows, failed,
                    reinits=model.tracker.n_reinits)

    def check(self, units, check):
        failed = sum(u.failed for u in units)
        check("updates_finite", failed == 0, f"{failed} failed rows")
        steps = self.last_model.tracker.n_steps
        check("tracker_stepped", steps > 0, f"{steps} tracker steps in the last stream")
        p_true = _true_projector(self.d, self.q)
        errs = []
        for seed in VALIDATION_SEEDS:
            model = self.new_model(seed)
            for row in medcov.draw_sample(self.scenario(seed), self.rows):
                model.update(row)
            check(f"validation_{seed}_finite", _finite_model(model))
            errs.append(_tracker_quality(model, p_true))
        return _panel_quality(errs, check)


class FitStreamWorkload(_ContaminatedStream):
    """CLI user running ``medcov fit-stream`` in process on a generated CSV,
    in chunks chained with --out/--resume, with the scores sidecar on."""

    name = "fitstream-d200"

    def __init__(self, smoke, workdir):
        self.d, self.rows, self.n_chunks = (50, 600, 3) if smoke else (200, 2000, 4)
        self.work = workdir
        ms, cs = medcov.calibrated_schedules(self.d)
        # step constants matched to the data scale, as the README advises
        self.flags = ["--q", str(self.q), "--c-median", repr(ms.c), "--c-mcm", repr(cs.c)]

    def setup(self, seed, tracer):
        self.seed = seed
        with tracer.span("simgen.draw_sample"):
            x = medcov.draw_sample(self.scenario(seed), self.rows)
        self.full_csv = self.work / "input.csv"
        with tracer.span("bench.write_csv"):
            medcov.write_csv(self.full_csv, x)
        lines = self.full_csv.read_text(encoding="utf-8").splitlines(keepends=True)
        bounds = np.linspace(0, len(lines), self.n_chunks + 1).astype(int)
        self.chunks = []
        for k, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            path = self.work / f"chunk{k}.csv"
            path.write_text("".join(lines[lo:hi]), encoding="utf-8")
            self.chunks.append((path, int(hi - lo)))
        self.first_pass_snapshot = None

    def _main(self, argv, tracer):
        """cli.main with its stdout captured; returns (exit code, stdout)."""
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                with _span(tracer, "cli.main"):
                    code = cli.main(argv)
        except Exception:  # a crash of one chunk is a failed chunk, not a failed run
            traceback.print_exc(file=sys.stderr)
            code = 1
        return code, out.getvalue()

    def warm(self):
        path, _ = self.chunks[0]
        self._main(["fit-stream", *self.flags, "--in", str(path),
                    "--out", str(self.work / "warm.json")], None)

    def unit(self, tracer):
        state = self.work / "state.json"
        pc = time.perf_counter
        lat, results = [], []
        start = pc()
        for k, (path, n_rows) in enumerate(self.chunks):
            argv = ["fit-stream", *self.flags, "--in", str(path), "--out", str(state),
                    "--scores-out", str(self.work / f"scores{k}.csv")]
            if k:
                argv += ["--resume", str(state)]
            if tracer is not None:
                tracer.op = k
            t0 = pc()
            code, stdout = self._main(argv, tracer)
            lat.append((pc() - t0) * 1e6 / n_rows)
            results.append((code, stdout))
        wall = pc() - start
        failed = sum(not self._chunk_ok(k, code, stdout)
                     for k, (code, stdout) in enumerate(results))
        snapshot = state.read_bytes()
        if self.first_pass_snapshot is None:
            self.first_pass_snapshot = snapshot
        model = medcov.StreamingRobustPCA.from_state_dict(json.loads(snapshot))
        if not _finite_model(model):
            failed = self.n_chunks
        return Unit(self.rows, wall, lat, self.n_chunks, failed,
                    reinits=model.tracker.n_reinits, snapshot_bytes=len(snapshot))

    def _chunk_ok(self, k, code, stdout):
        """Exit code, report and scores sidecar of chunk k of a pass."""
        if code != 0:
            return False
        n_rows = self.chunks[k][1]
        done = sum(n for _, n in self.chunks[:k + 1])
        try:
            report = json.loads(stdout)
            eig = report["eigenvalues"]
            if (report["rows_this_pass"] != n_rows or report["rows"] != done
                    or not np.isfinite(report["median"]).all()
                    or (eig is not None and (len(eig) != self.q or not np.isfinite(eig).all()))):
                return False
            scores = np.loadtxt(self.work / f"scores{k}.csv", delimiter=",", skiprows=1, ndmin=2)
        except (ValueError, KeyError, TypeError, OSError):
            return False
        ready = ~np.isnan(scores).any(axis=1)
        return scores.shape == (n_rows, self.q + 1) and bool(np.isfinite(scores[ready]).all())

    def check(self, units, check):
        failed = sum(u.failed for u in units)
        check("chunks_exit_zero", failed == 0,
              f"{failed} of {sum(u.attempted for u in units)} chunks failed")
        single = self.work / "single.json"
        code, _ = self._main(["fit-stream", *self.flags, "--in", str(self.full_csv),
                              "--out", str(single)], None)
        check("resume_equals_single_pass",
              code == 0 and single.read_bytes() == self.first_pass_snapshot,
              "chunked snapshot vs one pass over the same rows, byte for byte")
        p_true = _true_projector(self.d, self.q)
        errs = []
        for seed in VALIDATION_SEEDS:
            csv = self.work / f"validation{seed}.csv"
            out = self.work / f"validation{seed}.json"
            medcov.write_csv(csv, medcov.draw_sample(self.scenario(seed), self.rows))
            code, _ = self._main(["fit-stream", *self.flags, "--in", str(csv),
                                  "--out", str(out)], None)
            check(f"validation_{seed}_exit_zero", code == 0)
            if code != 0:
                continue
            model = medcov.StreamingRobustPCA.from_state_dict(medcov.load_snapshot(str(out)))
            check(f"validation_{seed}_finite", _finite_model(model))
            errs.append(_tracker_quality(model, p_true))
        return _panel_quality(errs, check)


def _panel_quality(errs, check):
    if not errs:
        check("validation_panel", False, "no validation stream completed")
        return {"eig_err": float("nan"), "online_vs_batch_err": float("nan")}
    eig = statistics.median(e for e, _ in errs)
    ovb = statistics.median(o for _, o in errs)
    detail = ", ".join(f"{e:.4g}/{o:.4g}" for e, o in errs)
    # a tracker that follows its own averaged MCM sits far below the 2q ceiling
    check("validation_tracker_follows_batch", ovb < 0.5, f"eig/ovb per stream: {detail}")
    return {"eig_err": eig, "online_vs_batch_err": ovb}


class MonteCarloWorkload:
    """The paper's table: run_benchmark with all four estimators."""

    name = "montecarlo-d50"

    def __init__(self, smoke, workdir):
        self.d, self.n, self.q, self.block, self.val_reps = (
            (10, 40, 2, 2, 4) if smoke else (50, 200, 2, 10, 20))

    def config(self, seed, reps):
        scenario = medcov.ScenarioConfig(d=self.d, delta=0.1, contamination="student_t1")
        return medcov.RunConfig(scenario=scenario, n=self.n, q=self.q,
                                replications=reps, seed=seed)

    def setup(self, seed, tracer):
        # replication r of the timed phase draws from seed base + r
        self.base = seed * 100_000
        self.template = self.config(self.base, 1)
        self.next_rep = 0

    def warm(self):
        medcov.run_benchmark(self.config(self.base + 99_999, 1), workers=1)

    def unit(self, tracer):
        pc = time.perf_counter
        lat, reports = [], []
        start = pc()
        for _ in range(self.block):
            cfg = dataclasses.replace(self.template, seed=self.base + self.next_rep)
            if tracer is not None:
                tracer.op = self.next_rep
            t0 = pc()
            with _span(tracer, "bench.run_benchmark"):
                rows = medcov.run_benchmark(cfg, workers=1)
            lat.append((pc() - t0) * 1e6 / self.n)
            reports.append({row.estimator: row for row in rows})
            self.next_rep += 1
        wall = pc() - start
        failed = sum(row.excluded for rep in reports for row in rep.values())
        attempted = sum(len(rep) for rep in reports)
        return Unit(self.block * self.n, wall, lat, attempted, failed, reports=reports)

    def check(self, units, check):
        failed = sum(u.failed for u in units)
        check("no_excluded_replications", failed == 0,
              f"{failed} of {sum(u.attempted for u in units)} fits excluded")
        reports = [rep for u in units for rep in u.reports]
        med = {est: statistics.median(rep[est].median_R for rep in reports)
               for est in medcov.ESTIMATORS}
        check("timed_robust_beats_pca", med["mcm_rplus"] < med["pca"],
              f"median R: mcm_rplus {med['mcm_rplus']:.4g}, pca {med['pca']:.4g}")

        cfg = self.config(0, self.val_reps)
        first = medcov.run_benchmark(cfg, workers=1)
        again = medcov.run_benchmark(cfg, workers=1)
        digests = [hashlib.sha256("\n".join(bench.report_lines(rows)).encode()).hexdigest()
                   for rows in (first, again)]
        check("report_digest_stable", digests[0] == digests[1], f"sha256 {digests[0]}")
        table = {row.estimator: row for row in first}
        check("validation_no_excluded", all(row.excluded == 0 for row in first))
        check("validation_robust_beats_pca",
              table["mcm_rplus"].median_R < table["pca"].median_R,
              f"median R: mcm_rplus {table['mcm_rplus'].median_R:.4g}, "
              f"pca {table['pca'].median_R:.4g}")

        # the streaming PSD-clipped MCM against the Weiszfeld batch MCM on the
        # same replications, rebuilt from the public API
        p_true = _true_projector(self.d, self.q)
        vs_true, vs_batch = [], []
        for r in range(self.val_reps):
            x = medcov.draw_sample(dataclasses.replace(cfg.scenario, seed=r), self.n)
            gamma = medcov.weiszfeld_mcm(x, medcov.weiszfeld_median(x))
            p_batch = medcov.top_q_projector(gamma, self.q)
            est = medcov.MedianCovariationSGD(self.d, median_schedule=cfg.median_schedule,
                                              cov_schedule=cfg.cov_schedule, psd_mode=True)
            p_stream = medcov.top_q_projector(est.update_many(x).estimate, self.q)
            vs_true.append(medcov.eigenspace_error(p_stream, p_true))
            vs_batch.append(medcov.eigenspace_error(p_stream, p_batch))
        rebuilt = medcov.mc_summary(vs_true).median
        eig = table["mcm_rplus"].median_R
        check("harness_matches_public_api", abs(rebuilt - eig) <= 1e-6 * abs(eig),
              f"mcm_rplus median R {eig!r} vs rebuilt {rebuilt!r}")
        return {"eig_err": eig, "online_vs_batch_err": statistics.median(vs_batch)}

    def fit_ms(self, units):
        """Mean per-replication fit time of each estimator, from the
        harness's own ReportRow.wall_time_ms."""
        reports = [rep for u in units for rep in u.reports]
        return {est: statistics.fmean(rep[est].wall_time_ms / rep[est].reps for rep in reports)
                for est in medcov.ESTIMATORS}


WORKLOADS = {wl.name: wl for wl in (StreamWorkload, FitStreamWorkload, MonteCarloWorkload)}
