"""Geometric median: streaming averaged-SGD estimator and batch Weiszfeld."""

import warnings

import numpy as np
import pytest

from medcov import (
    ConvergenceError,
    GeometricMedianSGD,
    NumericalError,
    StepSchedule,
    weiszfeld_mcm,
    weiszfeld_median,
)
from oracles import median_objective

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


def test_weiszfeld_rejects_bad_input():
    with pytest.raises(ValueError):
        weiszfeld_median(np.empty((0, 2)))
    with pytest.raises(ValueError):
        weiszfeld_median([[1.0, np.nan]])
    with pytest.raises(ValueError, match="max_iter must be"):
        weiszfeld_median([[1.0, 2.0]], max_iter=0)
    with pytest.raises(ValueError, match="max_iter must be"):
        weiszfeld_mcm([[1.0, 2.0]], [0.0, 0.0], max_iter=0)
