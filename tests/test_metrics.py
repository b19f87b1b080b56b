"""Eigenspace-distance criterion and Monte Carlo summaries."""

import numpy as np
import pytest

from medcov import NumericalError, eigenspace_error, mc_summary
from oracles import projector


def random_orthogonal(d, rng):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


# ---------------------------------------------------------------------------
# eigenspace error

def test_identical_projectors_score_zero():
    p = projector([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert eigenspace_error(p, p) == pytest.approx(0.0, abs=1e-12)


def test_orthogonal_spans_score_two_q():
    p_hat = np.diag([1.0, 0.0, 0.0, 0.0])
    p = np.diag([0.0, 1.0, 0.0, 0.0])
    assert eigenspace_error(p_hat, p) == pytest.approx(2.0)


def test_45_degree_angle_scores_one():
    p_hat = projector([[1.0, 0.0]])
    p = projector([[1.0, 1.0]])
    assert eigenspace_error(p_hat, p) == pytest.approx(1.0)


def test_error_is_symmetric_and_bounded():
    rng = np.random.default_rng(0)
    for q in (1, 2, 3):
        a = projector(rng.standard_normal((q, 6)))
        b = projector(rng.standard_normal((q, 6)))
        e = eigenspace_error(a, b)
        assert 0.0 <= e <= 2.0 * q + 1e-12
        assert e == pytest.approx(eigenspace_error(b, a), abs=1e-12)


def test_error_ignores_basis_choice():
    rng = np.random.default_rng(1)
    basis = rng.standard_normal((2, 5))
    other = rng.standard_normal((2, 5))
    # remix each basis within its own span: the projectors are unchanged
    mix = np.array([[2.0, 1.0], [0.5, -1.0]])
    a1 = projector(basis)
    a2 = projector(mix @ basis)
    b = projector(other)
    assert abs(eigenspace_error(a1, b) - eigenspace_error(a2, b)) <= 1e-8


def test_error_invariant_under_global_rotation():
    rng = np.random.default_rng(2)
    basis_a = rng.standard_normal((2, 5))
    basis_b = rng.standard_normal((2, 5))
    q = random_orthogonal(5, rng)
    base = eigenspace_error(projector(basis_a), projector(basis_b))
    rotated = eigenspace_error(projector(basis_a @ q.T), projector(basis_b @ q.T))
    assert rotated == pytest.approx(base, abs=1e-8)


def test_rejects_non_projector():
    p = projector([[1.0, 0.0]])
    with pytest.raises(ValueError, match="idempotent"):
        eigenspace_error(p, 0.5 * np.eye(2))
    with pytest.raises(ValueError):
        eigenspace_error(np.array([[0.7, 0.1], [0.1, 0.3]]), p)


def test_rejects_a_projector_of_fractional_trace():
    # (1 + 9e-7) P is idempotent within 1e-6, but its trace is 2 + 1.8e-6
    p = projector([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    with pytest.raises(ValueError, match="trace .* is not an integer"):
        eigenspace_error((1.0 + 9e-7) * p, p)


def test_cross_check_failure_is_a_numerical_error():
    # (1 + 1e-7) P passes both 1e-6 checks, yet |P_hat - P|^2 = 2e-14 and
    # 2q - 2 tr(P_hat P) = -4e-7 differ by more than the 1e-8 allowed
    p = projector([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    with pytest.raises(NumericalError, match="cross-check failed"):
        eigenspace_error((1.0 + 1e-7) * p, p)


def test_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        eigenspace_error(np.eye(2), np.eye(3))
    with pytest.raises(ValueError, match="ranks differ"):
        eigenspace_error(np.diag([1.0, 0.0]), np.eye(2))


# ---------------------------------------------------------------------------
# summaries

def test_summary_odd_count():
    s = mc_summary([3.0, 1.0, 2.0])
    assert s.median == 2.0


def test_summary_even_count_midpoint():
    assert mc_summary([1.0, 2.0, 3.0, 4.0]).median == 2.5


def test_summary_single_value():
    s = mc_summary([5.0])
    assert s.median == 5.0
    assert s.q1 == 5.0 and s.q3 == 5.0
    assert s.mean == 5.0


def test_summary_quartiles_linear_interpolation():
    # type-7 convention on {1,2,3,4}: q1 = 1.75, q3 = 3.25
    s = mc_summary([1.0, 2.0, 3.0, 4.0])
    assert s.q1 == pytest.approx(1.75)
    assert s.q3 == pytest.approx(3.25)
    assert s.mean == pytest.approx(2.5)


def test_summary_rejects_bad_input():
    with pytest.raises(ValueError):
        mc_summary([])
    with pytest.raises(ValueError):
        mc_summary([1.0, np.nan])
    with pytest.raises(ValueError):
        mc_summary([[1.0, 2.0]])
