"""End-to-end acceptance checks.

Eight criteria, one summary line each (replayed in the terminal summary):
table reproduction on clean and contaminated data, the PSD guarantee,
the averaged 1/n rate, online/batch eigenspace agreement, batch-solver
oracles, equivariance, and the engineering contract (cost scaling,
bounded state, deterministic reports).
"""

import os
import time

import numpy as np

from medcov import (
    ConvergenceError,
    GeometricMedianSGD,
    MedianCovariationSGD,
    RunConfig,
    ScenarioConfig,
    StreamingRobustPCA,
    calibrated_schedules,
    convergence_curve,
    draw_sample,
    run_benchmark,
    save_snapshot,
    weiszfeld_mcm,
    weiszfeld_median,
)
from medcov.bench import report_lines
from oracles import mcm_objective, median_objective

# Frozen from a 1e-4 grid search plus local polish: the Fermat point of
# the triangle {(0,0),(4,0),(0,3)} (objective value 6.766433).
FERMAT_345 = np.array([0.695789, 0.751176])
# Frozen from 1e-6-resolution scalar brute force: the MCM of the
# symmetric cross {+-e1, +-e2} centered at 0 is gamma* I.
CROSS_GAMMA = 0.5

# Reference medians for the d=50, n=200 Monte Carlo table on clean data,
# with a +-60% relative acceptance band (Monte Carlo slack at 100 reps).
CLEAN_TABLE = {"pca": 0.0156, "mcm_w": 0.0208, "mcm_rplus": 0.0211,
               "mcm_r": 0.0243}


def random_orthogonal(d, rng):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def medians(rows):
    return {row.estimator: row.median_R for row in rows}


def test_clean_table_reproduction(criterion_log):
    t0 = time.perf_counter()
    cfg = RunConfig(scenario=ScenarioConfig(d=50), n=200, q=2,
                    replications=100, seed=0)
    med = medians(run_benchmark(cfg, workers=1))
    elapsed = time.perf_counter() - t0

    in_band = {est: 0.4 * ref <= med[est] <= 1.6 * ref
               for est, ref in CLEAN_TABLE.items()}
    ordered = med["pca"] <= med["mcm_w"] <= med["mcm_r"]
    ok = all(in_band.values()) and ordered and elapsed < 300.0
    detail = ("medians " + " ".join(f"{e}={med[e]:.4f}" for e in CLEAN_TABLE)
              + f" (bands +-60%), ordering={'ok' if ordered else 'VIOLATED'}"
              + f", {elapsed:.0f}s")
    assert criterion_log("clean-table d=50 n=200", ok, detail), detail


def test_contaminated_robustness(criterion_log):
    results = {}
    for law in ("student_t1", "student_t2"):
        cfg = RunConfig(
            scenario=ScenarioConfig(d=50, delta=0.10, contamination=law),
            n=200, q=2, replications=100, seed=0,
        )
        results[law] = medians(run_benchmark(cfg, workers=1))

    ok = True
    for law, med in results.items():
        ok &= med["pca"] > 1.0
        ok &= all(med[e] < 0.15 for e in ("mcm_w", "mcm_r", "mcm_rplus"))
        ok &= med["mcm_w"] <= med["mcm_r"]
    detail = " | ".join(
        f"{law}: pca={med['pca']:.2f} mcm_w={med['mcm_w']:.4f} "
        f"mcm_r={med['mcm_r']:.4f} mcm_rplus={med['mcm_rplus']:.4f}"
        for law, med in results.items()
    )
    assert criterion_log("contaminated d=50 delta=.10", ok, detail), detail


def test_psd_at_every_step(criterion_log):
    rng = np.random.default_rng(2024)
    laws = ("none", "student_t1", "student_t2", "reverse_brownian")
    worst = 0.0
    violations = 0
    streams = 50
    for _ in range(streams):
        d = int(rng.integers(2, 31))
        n = int(rng.integers(50, 2001))
        law = laws[rng.integers(0, len(laws))]
        delta = 0.0 if law == "none" else float(rng.choice([0.02, 0.05, 0.1, 0.2]))
        x = draw_sample(ScenarioConfig(d=d, delta=delta, contamination=law,
                                       seed=int(rng.integers(0, 2**31))), n)
        ms, cs = calibrated_schedules(d)
        est = MedianCovariationSGD(d, median_schedule=ms, cov_schedule=cs,
                                   psd_mode=True)
        for row in x:
            est.update(row)
            if est.n_updates == 0:
                continue
            low = float(np.linalg.eigvalsh(est.iterate)[0])
            worst = min(worst, low)
            violations += low < -1e-8
    ok = violations == 0
    detail = (f"{streams} mixed streams, worst min-eigenvalue {worst:.3e}, "
              f"{violations} violations")
    assert criterion_log("psd guarantee", ok, detail), detail


def test_averaged_rate_slope(criterion_log):
    t0 = time.perf_counter()
    d, n_max = 10, 100_000
    checkpoints = np.unique(np.round(np.logspace(3, 5, 7)).astype(int))
    proxy_sample = draw_sample(ScenarioConfig(d=d, seed=10_000), n_max)
    proxy = weiszfeld_mcm(proxy_sample, weiszfeld_median(proxy_sample))
    ms, cs = calibrated_schedules(d)
    slopes = []
    for seed in range(20):
        x = draw_sample(ScenarioConfig(d=d, seed=seed), n_max)
        est = MedianCovariationSGD(d, median_schedule=ms, cov_schedule=cs,
                                   psd_mode=True)
        errs = []
        marks = set(checkpoints.tolist())
        for t, row in enumerate(x, start=1):
            est.update(row)
            if t in marks:
                errs.append(np.linalg.norm(est.estimate - proxy) ** 2)
        slopes.append(np.polyfit(np.log(checkpoints), np.log(errs), 1)[0])
    slope = float(np.median(slopes))
    elapsed = time.perf_counter() - t0
    ok = -1.35 <= slope <= -0.65 and elapsed < 600.0
    detail = (f"median log-log slope {slope:.3f} over n in [1e3,1e5] "
              f"(band [-1.35,-0.65]), 20 seeds, {elapsed:.0f}s")
    assert criterion_log("averaged 1/n rate d=10", ok, detail), detail


def test_online_matches_batch_under_contamination(criterion_log):
    cfg = RunConfig(
        scenario=ScenarioConfig(d=100, delta=0.10, contamination="student_t2"),
        n=1000, q=3, replications=20, seed=0,
    )
    checkpoints = [100, 250, 500, 1000]
    points = convergence_curve(cfg, checkpoints, psd_mode=True, eigen_lag=250,
                               workers=1)
    by = {(p.series, p.checkpoint): p.mean_R for p in points}

    agree = all(by[("online_vs_batch", c)] <= 0.1 for c in checkpoints if c >= 500)
    pca_high = all(by[("pca", c)] > 0.5 for c in checkpoints)
    mcm_down = by[("mcm", checkpoints[-1])] < by[("mcm", checkpoints[0])]
    online_down = by[("mcm_online", checkpoints[-1])] < by[("mcm_online", checkpoints[0])]
    ok = agree and pca_high and mcm_down and online_down
    detail = (
        f"online-vs-batch@500={by[('online_vs_batch', 500)]:.4f} "
        f"@1000={by[('online_vs_batch', 1000)]:.4f} (bound 0.1); "
        f"pca min={min(by[('pca', c)] for c in checkpoints):.2f} (>0.5); "
        f"mcm {by[('mcm', 100)]:.3f}->{by[('mcm', 1000)]:.3f}, "
        f"online {by[('mcm_online', 100)]:.3f}->{by[('mcm_online', 1000)]:.3f}"
    )
    assert criterion_log("online~batch d=100 t2", ok, detail), detail


def _vector_iterates(points, sweeps):
    out = []
    for k in range(1, sweeps + 1):
        try:
            weiszfeld_median(points, eps=1e-300, max_iter=k)
        except ConvergenceError as err:
            out.append(err.last)
        else:
            break
    return out


def _matrix_iterates(points, m_hat, sweeps):
    out = []
    for k in range(1, sweeps + 1):
        try:
            weiszfeld_mcm(points, m_hat, eps=1e-300, max_iter=k)
        except ConvergenceError as err:
            out.append(err.last)
        else:
            break
    return out


def test_weiszfeld_oracles(criterion_log):
    fermat = weiszfeld_median([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]])
    fermat_gap = float(np.linalg.norm(fermat - FERMAT_345))

    cross = weiszfeld_mcm([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                          [0.0, 0.0])
    cross_gap = float(np.abs(cross - CROSS_GAMMA * np.eye(2)).max())

    rng = np.random.default_rng(7)
    monotone = 0
    for i in range(100):
        if i < 60:
            pts = rng.standard_normal((int(rng.integers(4, 15)), 3))
            vals = [median_objective(pts, it)
                    for it in _vector_iterates(pts, 10)]
        else:
            pts = rng.standard_normal((int(rng.integers(4, 12)), 3))
            m = rng.standard_normal(3) * 0.1
            vals = [mcm_objective(pts, m, it)
                    for it in _matrix_iterates(pts, m, 8)]
        monotone += all(b <= a + 1e-12 * max(1.0, abs(a))
                        for a, b in zip(vals, vals[1:]))

    ok = fermat_gap <= 1e-3 and cross_gap <= 1e-4 and monotone == 100
    detail = (f"fermat gap {fermat_gap:.2e} (<=1e-3), cross gap "
              f"{cross_gap:.2e} (<=1e-4), monotone {monotone}/100")
    assert criterion_log("weiszfeld oracles", ok, detail), detail


def test_equivariance_suite(criterion_log):
    rng = np.random.default_rng(11)
    fails = {"w-translate": 0, "w-rotate": 0, "s-translate": 0, "mcm-rotate": 0}

    for _ in range(50):
        pts = rng.standard_normal((int(rng.integers(5, 25)), 3))
        t = rng.standard_normal(3) * 5.0
        gap = np.linalg.norm(weiszfeld_median(pts + t, eps=1e-10)
                             - (weiszfeld_median(pts, eps=1e-10) + t))
        fails["w-translate"] += gap > 1e-8

        q = random_orthogonal(3, rng)
        gap = np.linalg.norm(weiszfeld_median(pts @ q.T, eps=1e-10)
                             - q @ weiszfeld_median(pts, eps=1e-10))
        fails["w-rotate"] += gap > 1e-8

    for _ in range(50):
        xs = rng.standard_normal((200, 4))
        t = rng.standard_normal(4) * 3.0
        a = GeometricMedianSGD(dim=4)
        b = GeometricMedianSGD(dim=4)
        a.update_many(xs)
        b.update_many(xs + t)
        fails["s-translate"] += np.linalg.norm(b.estimate - (a.estimate + t)) > 1e-10

        q = random_orthogonal(4, rng)
        u = MedianCovariationSGD(4, known_median=np.zeros(4))
        v = MedianCovariationSGD(4, known_median=np.zeros(4))
        u.update_many(xs)
        v.update_many(xs @ q.T)
        fails["mcm-rotate"] += np.linalg.norm(v.estimate - q @ u.estimate @ q.T) > 1e-10

    ok = not any(fails.values())
    detail = "50 instances each, failures: " + " ".join(
        f"{k}={v}" for k, v in fails.items())
    assert criterion_log("equivariance suite", ok, detail), detail


def test_engineering_contract(criterion_log, tmp_path):
    # per-update cost should scale like d^2
    dims = (100, 200, 400)
    per_update = []
    for d in dims:
        rng = np.random.default_rng(d)
        ms, cs = calibrated_schedules(d)
        est = MedianCovariationSGD(d, median_schedule=ms, cov_schedule=cs,
                                   psd_mode=True)
        xs = rng.standard_normal((220, d))
        for row in xs[:20]:
            est.update(row)
        t0 = time.perf_counter()
        for row in xs[20:]:
            est.update(row)
        per_update.append((time.perf_counter() - t0) / 200.0)
    slope = float(np.polyfit(np.log(dims), np.log(per_update), 1)[0])
    slope_ok = 1.6 <= slope <= 2.4

    # snapshot size must not grow with the stream length (the payload is
    # a fixed set of counters and d x d matrices; only decimal digit
    # widths jitter, so a 10x longer stream may move the byte count by a
    # couple percent, never by a per-row term)
    sizes = {}
    for n in (1000, 10_000):
        rng = np.random.default_rng(0)
        est = StreamingRobustPCA(20, 2, eigen_seed=0)
        for row in rng.standard_normal((n, 20)):
            est.update(row)
        path = tmp_path / f"snap_{n}.json"
        save_snapshot(est.state_dict(), str(path))
        sizes[n] = os.path.getsize(path)
    size_ok = sizes[10_000] <= 1.05 * sizes[1000]

    # identical seeds must give byte-identical reports at any worker count
    cfg = RunConfig(
        scenario=ScenarioConfig(d=8, delta=0.05, contamination="student_t2"),
        n=150, q=2, replications=4, seed=7,
    )
    texts = {w: "\n".join(report_lines(run_benchmark(cfg, workers=w)))
             for w in (1, 2, 4)}
    det_ok = texts[1] == texts[2] == texts[4]

    ok = slope_ok and size_ok and det_ok
    detail = (f"cost slope {slope:.2f} (band [1.6,2.4]) from "
              + "/".join(f"{t * 1e6:.0f}us" for t in per_update)
              + f"; snapshot {sizes[1000]}B vs {sizes[10_000]}B; "
              + f"reports identical across workers={'yes' if det_ok else 'NO'}")
    assert criterion_log("engineering contract", ok, detail), detail
