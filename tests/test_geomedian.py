"""Geometric median: streaming averaged-SGD estimator and batch Weiszfeld."""

import warnings

import numpy as np
import pytest

import medcov.geomedian as geomedian
import medcov.mcm as mcm
from medcov import (
    ConvergenceError,
    GeometricMedianSGD,
    NumericalError,
    ScenarioConfig,
    StepSchedule,
    draw_sample,
    weiszfeld_mcm,
    weiszfeld_median,
)
from oracles import mcm_objective, median_objective, plain_weiszfeld

# Fermat point of the 3-4-5 triangle {(0,0),(4,0),(0,3)}, frozen from a
# 1e-4 grid search plus Nelder-Mead polish (objective 6.766433; the unit
# pulls toward the vertices cancel to ~6e-9 there).
FERMAT_345 = np.array([0.695789, 0.751176])


def random_orthogonal(d, rng):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def weiszfeld_iterates(points, sweeps):
    """Iterate after 1..sweeps Weiszfeld sweeps (harvested via the cap)."""
    out = []
    for k in range(1, sweeps + 1):
        try:
            weiszfeld_median(points, eps=1e-300, max_iter=k)
        except ConvergenceError as err:
            out.append(err.last)
        else:  # converged to a fixed point before the cap
            break
    return out


# ---------------------------------------------------------------------------
# step schedule

def test_schedule_defaults_and_decay():
    s = StepSchedule()
    assert s.c == 2.0 and s.alpha == 0.75
    assert s.gamma(1) == 2.0
    assert s.gamma(16) == pytest.approx(2.0 * 16 ** -0.75)
    assert s.gamma(2) < s.gamma(1)


def test_schedule_validation():
    with pytest.raises(ValueError):
        StepSchedule(c=0.0)
    with pytest.raises(ValueError):
        StepSchedule(c=-1.0)
    with pytest.raises(ValueError):
        StepSchedule(alpha=0.5)
    with pytest.raises(ValueError):
        StepSchedule(alpha=1.0)
    # frozen
    s = StepSchedule()
    with pytest.raises(Exception):
        s.c = 3.0


def test_schedule_index_starts_at_one():
    with pytest.raises(ValueError):
        StepSchedule().gamma(0)


# ---------------------------------------------------------------------------
# streaming updates

def test_single_step_from_origin():
    # from m_0 = 0 with gamma_1 = 2, observing (1,0) lands at (2,0)
    est = GeometricMedianSGD(2).update(np.zeros(2))
    est.update([1.0, 0.0])
    np.testing.assert_allclose(est.iterate, [2.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(est.estimate, [2.0, 0.0], atol=1e-15)
    assert est.state_dict()["n"] == 1


def test_degenerate_observation_moves_only_average():
    est = GeometricMedianSGD(2).update([1.0, 2.0])
    est.update([4.0, 2.0])
    before = est.iterate.copy()
    n = est.state_dict()["n"]
    est.update(before)  # x == m_n exactly
    np.testing.assert_array_equal(est.iterate, before)
    assert est.state_dict()["n"] == n + 1


def test_constant_stream_is_fixed_point():
    p = np.array([3.0, -1.0, 2.0])
    est = GeometricMedianSGD(3).update(p)
    for _ in range(50):
        est.update(p)
    np.testing.assert_array_equal(est.iterate, p)
    np.testing.assert_allclose(est.estimate, p, atol=1e-12)


def test_first_observation_seeds_without_counting():
    est = GeometricMedianSGD(dim=3)
    assert not est.initialized
    est.update([1.0, 2.0, 3.0])
    assert est.initialized
    assert est.state_dict()["n"] == 0
    np.testing.assert_array_equal(est.iterate, [1.0, 2.0, 3.0])


def test_dimension_is_required_and_positive():
    with pytest.raises(TypeError):
        GeometricMedianSGD()
    for bad in (0, -2):
        with pytest.raises(ValueError, match="dimension must be >= 1"):
            GeometricMedianSGD(bad)


def test_step_length_equals_gamma():
    rng = np.random.default_rng(0)
    est = GeometricMedianSGD(4).update(np.zeros(4))
    for n in range(1, 200):
        prev = est.iterate.copy()
        est.update(rng.standard_normal(4))
        step = np.linalg.norm(est.iterate - prev)
        assert step == pytest.approx(StepSchedule().gamma(n), rel=1e-12)


def test_far_row_moves_by_exactly_gamma():
    # |x - m|^2 overflows past ~1.3e154; the distance is then taken from
    # the rescaled difference, so the step is still gamma_1 = 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = GeometricMedianSGD(2).update([0.0, 0.0]).update([1e200, 0.0])
    assert est.state_dict()["n"] == 1
    np.testing.assert_array_equal(est.iterate, [2.0, 0.0])
    np.testing.assert_array_equal(est.estimate, [2.0, 0.0])


@pytest.mark.filterwarnings("ignore:overflow encountered in subtract:RuntimeWarning")
def test_overflowing_difference_is_a_numerical_error():
    # x - m overflows although both are finite: the row is refused
    # before the iterate, the average or the counter moves
    a = np.array([1e308, -1e308, 1e308])
    est = GeometricMedianSGD(3).update(a).update(a)
    before = est.state_dict()
    with pytest.raises(NumericalError, match="overflows float64"):
        est.update(-a)
    assert est.state_dict() == before


def test_average_matches_direct_mean():
    rng = np.random.default_rng(1)
    est = GeometricMedianSGD(3).update(np.zeros(3))
    iterates = []
    for _ in range(1000):
        est.update(rng.standard_normal(3) + 5.0)
        iterates.append(est.iterate.copy())
    direct = np.mean(iterates, axis=0)
    assert np.linalg.norm(est.estimate - direct) <= 1e-10


def test_streaming_consistency_gaussian():
    # |m_bar| after 20k standard-Gaussian draws in R^5, median of 20 seeds
    norms = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        est = GeometricMedianSGD(dim=5)
        est.update_many(rng.standard_normal((20_000, 5)))
        norms.append(np.linalg.norm(est.estimate))
    assert np.median(norms) <= 0.05


def test_streaming_translation_same_seed():
    t = np.array([10.0, -4.0])
    rng1 = np.random.default_rng(7)
    rng2 = np.random.default_rng(7)
    a = GeometricMedianSGD(dim=2)
    b = GeometricMedianSGD(dim=2)
    for _ in range(500):
        x = rng1.standard_normal(2)
        a.update(x)
        b.update(rng2.standard_normal(2) + t)
    np.testing.assert_allclose(b.estimate, a.estimate + t, atol=1e-10)


def test_state_roundtrip():
    rng = np.random.default_rng(2)
    est = GeometricMedianSGD(dim=3)
    est.update_many(rng.standard_normal((40, 3)))
    clone = GeometricMedianSGD.from_state_dict(est.state_dict())
    x = rng.standard_normal(3)
    est.update(x)
    clone.update(x)
    np.testing.assert_array_equal(clone.iterate, est.iterate)
    np.testing.assert_array_equal(clone.estimate, est.estimate)


# ---------------------------------------------------------------------------
# objective

def test_objective_single_point():
    assert median_objective([[0.0, 0.0]], [3.0, 4.0]) == 5.0


def test_objective_pair():
    assert median_objective([[1.0, 0.0], [-1.0, 0.0]], [0.0, 0.0]) == 2.0


def test_objective_square_center():
    corners = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
    assert median_objective(corners, [0.5, 0.5]) == pytest.approx(2.0 * np.sqrt(2.0))


def test_objective_midpoint_convexity():
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((15, 4))
    for _ in range(20):
        u, v = rng.standard_normal((2, 4))
        mid = median_objective(pts, (u + v) / 2.0)
        assert mid <= (median_objective(pts, u) + median_objective(pts, v)) / 2.0 + 1e-12


# ---------------------------------------------------------------------------
# Weiszfeld

def test_weiszfeld_single_point():
    np.testing.assert_allclose(weiszfeld_median([[2.0, 5.0]]), [2.0, 5.0])


def test_weiszfeld_unit_square():
    corners = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
    np.testing.assert_allclose(weiszfeld_median(corners), [0.5, 0.5], atol=1e-8)


def test_weiszfeld_fermat_point():
    pts = [[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]]
    m = weiszfeld_median(pts)
    assert np.linalg.norm(m - FERMAT_345) <= 1e-3
    assert median_objective(pts, m) == pytest.approx(6.766433, abs=1e-5)


def test_weiszfeld_fixed_point_identity():
    rng = np.random.default_rng(4)
    pts = rng.standard_normal((30, 3))
    eps = 1e-10
    m = weiszfeld_median(pts, eps=eps)
    w = 1.0 / np.linalg.norm(pts - m, axis=1)
    w /= w.sum()
    assert np.linalg.norm(m - w @ pts) <= 10.0 * eps


def test_weiszfeld_monotone_objective():
    rng = np.random.default_rng(5)
    for _ in range(25):
        pts = rng.standard_normal((12, 3))
        values = [median_objective(pts, it) for it in weiszfeld_iterates(pts, 12)]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_weiszfeld_iteration_cap():
    rng = np.random.default_rng(6)
    pts = rng.standard_normal((25, 4))
    with pytest.raises(ConvergenceError) as err:
        weiszfeld_median(pts, eps=1e-300, max_iter=3)
    assert err.value.last is not None
    assert err.value.residual > 0


def test_weiszfeld_translation_equivariance():
    rng = np.random.default_rng(8)
    pts = rng.standard_normal((20, 3))
    t = np.array([5.0, -2.0, 0.5])
    assert np.linalg.norm(weiszfeld_median(pts + t) - (weiszfeld_median(pts) + t)) <= 1e-8


def test_weiszfeld_rotation_equivariance():
    rng = np.random.default_rng(9)
    pts = rng.standard_normal((20, 3))
    q = random_orthogonal(3, rng)
    # the coordinate-wise-median start is not rotation equivariant, so the
    # two runs take different paths; solve tightly and compare the limits
    a = weiszfeld_median(pts @ q.T, eps=1e-10)
    b = q @ weiszfeld_median(pts, eps=1e-10)
    assert np.linalg.norm(a - b) <= 1e-8


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 200, 201])
def test_the_start_is_the_coordinate_wise_median_bit_for_bit(n):
    pts = np.random.default_rng(n).standard_cauchy((n, 6))
    pts[:, 0] = np.round(pts[:, 0])  # ties
    assert np.array_equal(geomedian._coordinate_median(pts), np.median(pts, axis=0))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_weiszfeld_median_keeps_a_far_rows_pull():
    # a far row pulls with its unit direction whatever its distance, so
    # the median stays put where |x - m|^2 overflows (past ~1e154) and
    # the distance is taken from the rescaled difference
    data = np.random.default_rng(4).standard_normal((200, 5))
    fits = []
    for scale in (1e80, 1e200, 1e300):
        wild = data.copy()
        wild[7] *= scale
        fits.append(weiszfeld_median(wild))
    for fit in fits[1:]:
        assert np.linalg.norm(fit - fits[0]) <= 1e-6 * np.linalg.norm(fits[0])


def test_weiszfeld_rejects_bad_input():
    with pytest.raises(ValueError):
        weiszfeld_median(np.empty((0, 2)))
    with pytest.raises(ValueError):
        weiszfeld_median([[1.0, np.nan]])
    with pytest.raises(ValueError, match="max_iter must be"):
        weiszfeld_median([[1.0, 2.0]], max_iter=0)
    with pytest.raises(ValueError, match="max_iter must be"):
        weiszfeld_mcm([[1.0, 2.0]], [0.0, 0.0], max_iter=0)


# ---------------------------------------------------------------------------
# the extrapolated solver against its plain sweeps

def _sample(d, n, law, seed):
    if law == "none":
        return draw_sample(ScenarioConfig(d=d, seed=seed), n)
    return draw_sample(ScenarioConfig(d=d, delta=0.1, contamination=law, seed=seed), n)


def _plain(monkeypatch, fit, *args):
    """``fit(*args)`` run on ``oracles.plain_weiszfeld``: (its result, the
    reference's sweep count)."""
    sweeps = []

    def solver(*solver_args):
        x, k = plain_weiszfeld(*solver_args)
        sweeps.append(k)
        return x

    with monkeypatch.context() as patch:
        patch.setattr(geomedian, "weiszfeld", solver)
        patch.setattr(mcm, "weiszfeld", solver)
        return fit(*args), sweeps[0]


def _spy(monkeypatch, name):
    """Record each call of ``geomedian.<name>`` as (args, result)."""
    calls, real = [], getattr(geomedian, name)

    def wrapper(*args):
        out = real(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(geomedian, name, wrapper)
    return calls


@pytest.mark.parametrize("law", ["none", "student_t1"])
@pytest.mark.parametrize("n", [20, 200])
@pytest.mark.parametrize("d", [3, 10, 50])
def test_extrapolated_weiszfeld_agrees_with_plain_sweeps(monkeypatch, d, n, law):
    for seed in (0, 1):
        x = _sample(d, n, law, seed)
        m_ref, _ = _plain(monkeypatch, weiszfeld_median, x)
        g_ref, _ = _plain(monkeypatch, weiszfeld_mcm, x, m_ref)
        m, g = weiszfeld_median(x), weiszfeld_mcm(x, m_ref)
        assert np.linalg.norm(m - m_ref) <= 1e-6 * np.linalg.norm(m_ref)
        assert np.linalg.norm(g - g_ref) <= 1e-6 * np.linalg.norm(g_ref)


def test_extrapolated_weiszfeld_takes_fewer_sweeps(monkeypatch):
    # at the benchmark's d=50, n=200 the plain sweeps number about 21 for
    # each solver and the extrapolated ones about 10-11
    counts = {"median": [], "mcm": []}
    ref = {"median": [], "mcm": []}
    for seed in range(20):
        x = _sample(50, 200, "student_t1", seed)
        m, k = _plain(monkeypatch, weiszfeld_median, x)
        ref["median"].append(k)
        ref["mcm"].append(_plain(monkeypatch, weiszfeld_mcm, x, m)[1])
        with monkeypatch.context() as patch:
            calls = _spy(patch, "_sweep")
            weiszfeld_median(x)
            counts["median"].append(len(calls))
            calls.clear()
            weiszfeld_mcm(x, m)
            counts["mcm"].append(len(calls))
    for name in counts:
        assert np.median(counts[name]) <= 0.7 * np.median(ref[name]), name


@pytest.mark.parametrize("d", [10, 50])
def test_truncated_runs_stay_monotone_at_n200(d):
    # the acceptance gate checks truncated runs at n <= 15, d = 3; here the
    # same harvest at the benchmark's n, where the extrapolation is taken
    x = _sample(d, 200, "student_t1", 3)
    m = weiszfeld_median(x)
    runs = [(lambda k: weiszfeld_median(x, eps=1e-300, max_iter=k),
             lambda it: median_objective(x, it)),
            (lambda k: weiszfeld_mcm(x, m, eps=1e-300, max_iter=k),
             lambda it: mcm_objective(x, m, it))]
    for fit, objective in runs:
        vals = []
        for k in range(1, 11):
            with pytest.raises(ConvergenceError) as err:
                fit(k)
            vals.append(objective(err.value.last))
        assert all(b <= a + 1e-12 * max(1.0, abs(a)) for a, b in zip(vals, vals[1:]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("value", [np.inf, np.nan, 1e307])
@pytest.mark.parametrize("solver", ["median", "mcm"])
def test_a_non_finite_extrapolation_falls_back_to_the_plain_sweep(monkeypatch, solver, value):
    # an infinite or NaN point, or a finite one whose summed distance
    # overflows (1e307 in every entry), is never taken: every sweep then
    # starts where the plain loop's does, so the fits agree bitwise
    x = _sample(10, 200, "student_t1", 0)
    center = np.median(x, axis=0)
    fit = (lambda: weiszfeld_median(x)) if solver == "median" else (
        lambda: weiszfeld_mcm(x, center))
    ref, sweeps = _plain(monkeypatch, lambda: fit())
    monkeypatch.setattr(geomedian, "_extrapolate", lambda x0, x1, x2: np.full_like(x2, value))
    calls = _spy(monkeypatch, "_sweep")
    assert np.array_equal(fit(), ref)
    assert len(calls) == sweeps


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_non_finite_objective_at_the_sweep_falls_back_to_the_plain_sweep(monkeypatch):
    # a row whose distance overflows float64 has weight 0 and makes every
    # objective infinite, so no extrapolation is taken: both fits are the
    # plain loop's bit for bit, finite, and the MCM exactly symmetric
    x = _sample(10, 200, "student_t1", 0)
    wild_median = x.copy()
    wild_median[7, :2] = 1.5e308
    wild_mcm = x.copy()
    wild_mcm[7] *= 1e160
    center = np.median(x, axis=0)
    for fit in (lambda: weiszfeld_median(wild_median), lambda: weiszfeld_mcm(wild_mcm, center)):
        ref, _ = _plain(monkeypatch, fit)
        got = fit()
        assert np.array_equal(got, ref) and np.isfinite(got).all()
    assert np.array_equal(got, got.T)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_extrapolated_anchor_takes_the_vardi_zhang_branch(monkeypatch):
    # a data point at the geometric median of the others is the sample's
    # own median; an extrapolation landing within 1e-12 of it is an
    # anchor that passes the Vardi-Zhang test, and the data point itself
    # is returned
    cloud = np.random.default_rng(12).standard_normal((20, 3))
    p = weiszfeld_median(cloud, eps=1e-14)
    pts = np.vstack([cloud, p])
    monkeypatch.setattr(geomedian, "_extrapolate", lambda x0, x1, x2: p + 1e-13)
    calls = _spy(monkeypatch, "_sweep")
    fit = weiszfeld_median(pts)
    assert np.array_equal(fit, p)
    (_, start, *_), (_, at_minimum) = calls[-1]
    assert len(calls) == 3 and at_minimum and np.array_equal(start, p + 1e-13)


def test_an_mcm_fit_that_ends_on_a_data_point_is_that_point():
    # half the rows coincide, so the MCM is their rank-one c c^T; the
    # rank-one distance cancels to 0 about 1e-9 from it, where an
    # extrapolated iterate had eigenvalues down to -1.7e-9
    x = np.random.default_rng(13).standard_normal((12, 4))
    x[:6] = x[0]
    m = np.median(x, axis=0)
    g = weiszfeld_mcm(x, m)
    assert np.array_equal(g, np.outer(x[0] - m, x[0] - m))
    assert np.linalg.eigvalsh(g)[0] >= -1e-15 * np.abs(g).max()


@pytest.mark.parametrize("max_iter", range(1, 7))
def test_a_truncated_run_reports_its_last_sweep(monkeypatch, max_iter):
    # last is the output of the last counted sweep (never the extrapolated
    # point that the next sweep would start from) and residual that
    # sweep's displacement
    x = _sample(10, 200, "student_t1", 0)
    calls = _spy(monkeypatch, "_sweep")
    with pytest.raises(ConvergenceError) as err:
        weiszfeld_median(x, eps=1e-300, max_iter=max_iter)
    assert len(calls) == max_iter
    (_, start, *_), (out, _) = calls[-1]
    assert np.array_equal(err.value.last, out)
    assert err.value.residual == np.linalg.norm(out - start)
    if max_iter >= 3:  # the third sweep starts from the extrapolated point
        assert not np.array_equal(calls[2][0][1], calls[1][1][0])
