"""Kernel tests: coercion helpers, overflow-safe norms, packed snapshot
arrays, rank-one Frobenius geometry, and the reference oracles of
``oracles.py`` (Jacobi eigensolver, Gram-Schmidt projector) that the
LAPACK paths are checked against."""

import base64
import warnings

import numpy as np
import pytest

from medcov import ConvergenceError, DataError
from medcov import linalg
from medcov.linalg import (
    as_sym_matrix, as_vector, eigh_descending, pack_array, pack_triangle, state_field,
    unpack_triangle, vector_norm,
)
from medcov.mcm import _rank_one_distances
from oracles import fix_signs, projector, sym_eigen


def random_orthogonal(d, rng):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def random_symmetric(d, rng):
    a = rng.standard_normal((d, d))
    return (a + a.T) / 2.0


# ---------------------------------------------------------------------------
# coercion helpers

def test_as_vector_rejects_bad_input():
    with pytest.raises(ValueError):
        as_vector([[1.0, 2.0]])
    with pytest.raises(ValueError):
        as_vector([1.0, np.nan])
    with pytest.raises(ValueError):
        as_vector([1.0, 2.0], dim=3)


def test_as_sym_matrix_symmetrizes_and_rejects():
    m = as_sym_matrix([[1.0, 2.0 + 1e-12], [2.0, 3.0]])
    assert m[0, 1] == m[1, 0]
    with pytest.raises(ValueError):
        as_sym_matrix([[1.0, 5.0], [2.0, 3.0]])
    with pytest.raises(ValueError):
        as_sym_matrix([[1.0, np.inf], [np.inf, 3.0]])
    with pytest.raises(ValueError):
        as_sym_matrix(np.ones((2, 3)))


def test_vector_norm_is_the_numpy_norm_below_overflow():
    # the common path must not move a single estimate
    rng = np.random.default_rng(6)
    for d in (1, 5, 200, 1000):
        for exponent in (-150, -3, 0, 3, 150):
            v = rng.standard_normal(d) * 10.0 ** exponent
            assert vector_norm(v) == float(np.linalg.norm(v))
    assert vector_norm(np.zeros(3)) == 0.0


def test_vector_norm_rescales_when_the_square_overflows():
    v = np.random.default_rng(7).standard_normal(50)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big = vector_norm(v * 2.0 ** 600)
        edge = vector_norm(np.array([1e308, 1e308]))
    assert big == pytest.approx(float(np.linalg.norm(v)) * 2.0 ** 600, rel=1e-15)
    assert edge == pytest.approx(np.sqrt(2.0) * 1e308, rel=1e-15)


# ---------------------------------------------------------------------------
# packed snapshot arrays

def test_pack_array_is_base64_little_endian_float64_bitwise():
    a = np.random.default_rng(9).standard_normal((4, 4))
    a[0, 0], a[1, 1], a[2, 2] = -0.0, 5e-324, np.finfo(float).max
    text = pack_array(a)
    assert len(text) == 4 * -(-8 * a.size // 3)
    assert base64.b64decode(text) == a.astype("<f8").tobytes(order="C")
    back = state_field({"m": text}, "m", np.ndarray, (4, 4))
    assert back.dtype == np.float64 and back.flags.writeable
    assert back.tobytes() == a.tobytes()
    listed = state_field({"m": a.tolist()}, "m", np.ndarray, (4, 4))  # snapshot v1
    assert listed.tobytes() == a.tobytes()


@pytest.mark.parametrize("d", [1, 2, 5, 64])
def test_packed_triangle_rebuilds_the_symmetric_matrix_bitwise(d):
    a = np.random.default_rng(d).standard_normal((d, d)) * 1e300
    a[0, -1] = -0.0
    a[-1, 0] = 5e-324
    a[d // 2, d // 3] = np.finfo(float).max
    a = np.triu(a) + np.triu(a, 1).T  # the upper triangle, mirrored
    text = pack_triangle(a)
    assert len(text) == 4 * -(-8 * (d * (d + 1) // 2) // 3)
    tri = state_field({"m": text}, "m", np.ndarray, (d * (d + 1) // 2,))
    back = unpack_triangle(tri, np.full((d, d), np.nan))
    assert back.tobytes() == a.tobytes()  # -0, subnormal and 1e300 entries bit for bit
    assert np.array_equal(np.signbit(back), np.signbit(a))


def test_state_field_checks_packed_length_before_decoding(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("decoded a string of the wrong length")

    monkeypatch.setattr(linalg.base64, "b64decode", refuse)
    with pytest.raises(DataError, match=r"^m: expected 96 base64 characters "
                                        r"for shape \(3, 3\), got 1000000$"):
        state_field({"m": "A" * 10 ** 6}, "m", np.ndarray, (3, 3))


@pytest.mark.parametrize("text,problem", [
    ("!" * 24, "not base64 text"),
    ("AAAA" * 5 + "AA=A", "not base64 text"),
    (pack_array(np.ones(2))[:-2] + "AA", "expected 16 bytes, got 18"),
    ("é" * 24, "not base64 text"),
], ids=["alphabet", "inner-padding", "short-padding", "non-ascii"])
def test_state_field_rejects_malformed_packed_text(text, problem):
    assert len(text) == 24
    with pytest.raises(DataError, match=f"^m: {problem}$"):
        state_field({"m": text}, "m", np.ndarray, (2,))


# ---------------------------------------------------------------------------
# rank-one matrices: the MCM's identity |cc^T - V|_F^2 = |c|^4 - 2c^T V c + |V|_F^2

def rank_one_distance(c, v):
    c = np.atleast_2d(np.asarray(c, dtype=np.float64))
    v = np.asarray(v, dtype=np.float64)
    s = np.einsum("ij,ij->i", c, c)
    return float(_rank_one_distances(c, s, v, float(np.tensordot(v, v)))[0])


def test_outer_basis_vector():
    e1 = [1.0, 0.0]
    np.testing.assert_array_equal(np.outer(e1, e1), [[1.0, 0.0], [0.0, 0.0]])
    assert rank_one_distance(e1, np.outer(e1, e1)) == 0.0
    assert rank_one_distance(e1, np.eye(2)) == pytest.approx(1.0, abs=1e-12)


def test_outer_distance_of_a_far_row():
    # |c|^4 overflows past |c| ~ 1e77: the distance is taken from c / |c|,
    # and is inf only once it passes float64 itself (|c| ~ 1.3e154)
    v = np.array([[2.0, 1.0], [1.0, 3.0]])
    with np.errstate(over="ignore", invalid="ignore"):  # |c|^4 - 2c^T V c is inf - inf
        for scale in (1e100, 1e150):
            c = np.array([3.0, 4.0]) * scale
            assert rank_one_distance(c, v) == pytest.approx(25.0 * scale * scale, rel=1e-12)
        assert rank_one_distance([1e160, 0.0], v) == np.inf


def test_outer_zero():
    v = np.array([[1.0, 2.0], [2.0, 3.0]])
    assert rank_one_distance(np.zeros(2), v) == pytest.approx(np.linalg.norm(v), rel=1e-12)


def test_outer_expansion_and_norm():
    y = np.outer([1.0, 2.0], [1.0, 2.0])
    np.testing.assert_array_equal(y, [[1.0, 2.0], [2.0, 4.0]])
    # |xx^T|_F = |x|^2
    assert np.linalg.norm(y) == pytest.approx(5.0, abs=1e-12)
    rng = np.random.default_rng(0)
    for _ in range(10):
        c = rng.standard_normal(5)
        a = rng.standard_normal((5, 5))
        v = (a + a.T) / 2.0
        assert rank_one_distance(c, v) == pytest.approx(
            np.linalg.norm(np.outer(c, c) - v), rel=1e-10)


def test_rank_one_distance_rotation_invariant():
    # |xx^T - yy^T|_F does not change when x and y rotate together
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.standard_normal(6)
        y = rng.standard_normal(6)
        q = random_orthogonal(6, rng)
        base = np.linalg.norm(np.outer(x, x) - np.outer(y, y))
        rotated = np.linalg.norm(np.outer(q @ x, q @ x) - np.outer(q @ y, q @ y))
        assert rotated == pytest.approx(base, rel=1e-10)


# ---------------------------------------------------------------------------
# eigendecomposition: the Jacobi oracle, and LAPACK checked against it

def test_sym_eigen_diagonal():
    pairs = sym_eigen(np.diag([3.0, 1.0]))
    assert [p.value for p in pairs] == pytest.approx([3.0, 1.0])
    np.testing.assert_allclose(pairs[0].vector, [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(pairs[1].vector, [0.0, 1.0], atol=1e-12)


def test_sym_eigen_two_by_two_hand_case():
    # [[2,1],[1,2]]: eigenvalues 3 and 1, vectors (1,1)/sqrt2 and (1,-1)/sqrt2
    pairs = sym_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
    s = 1.0 / np.sqrt(2.0)
    assert pairs[0].value == pytest.approx(3.0, abs=1e-10)
    assert pairs[1].value == pytest.approx(1.0, abs=1e-10)
    np.testing.assert_allclose(pairs[0].vector, [s, s], atol=1e-10)
    np.testing.assert_allclose(pairs[1].vector, [s, -s], atol=1e-10)


def test_sym_eigen_zero_matrix():
    pairs = sym_eigen(np.zeros((4, 4)))
    assert all(p.value == 0.0 for p in pairs)


def test_sym_eigen_reconstructs_random_matrices():
    rng = np.random.default_rng(2)
    for d in (2, 7, 33, 64):
        a = random_symmetric(d, rng)
        pairs = sym_eigen(a)
        recon = sum(p.value * np.outer(p.vector, p.vector) for p in pairs)
        assert np.linalg.norm(a - recon) <= 1e-9 * max(np.linalg.norm(a), 1.0)
        vecs = np.array([p.vector for p in pairs])
        np.testing.assert_allclose(vecs @ vecs.T, np.eye(d), atol=1e-9)
        values = [p.value for p in pairs]
        assert values == sorted(values, reverse=True)


def test_sym_eigen_sign_convention():
    rng = np.random.default_rng(3)
    a = random_symmetric(9, rng)
    for p in sym_eigen(a):
        nz = p.vector[np.abs(p.vector) > 1e-12]
        assert nz[0] > 0


def test_sym_eigen_iteration_cap():
    rng = np.random.default_rng(4)
    with pytest.raises(ConvergenceError) as err:
        sym_eigen(random_symmetric(12, rng), max_sweeps=1)
    assert err.value.residual is not None


def test_eigh_descending_matches_jacobi():
    rng = np.random.default_rng(5)
    for d in (3, 10, 25):
        a = random_symmetric(d, rng)
        pairs = sym_eigen(a)
        values, vectors = eigh_descending(a)
        np.testing.assert_allclose(values, [p.value for p in pairs], atol=1e-8)
        for j, p in enumerate(pairs):
            np.testing.assert_allclose(vectors[:, j], p.vector, atol=1e-7)


def test_fix_signs_matches_the_column_loop():
    # entries drawn from a set that straddles the 1e-12 threshold, with
    # signed zeros and all-tiny or all-zero columns; the flip must agree
    # bit for bit, sign bits of zeros included
    rng = np.random.default_rng(8)
    values = np.array([0.0, -0.0, 1e-13, -1e-13, 1e-12, -1e-12, 2e-12, -2e-12, 0.5, -3.0])
    for _ in range(500):
        d, k = rng.integers(1, 7, size=2)
        scale = np.where(rng.random((d, k)) < 0.5, 1.0, rng.uniform(0.5, 1.5, size=(d, k)))
        a = rng.choice(values, size=(d, k)) * scale
        a[:, rng.random(k) < 0.2] = rng.choice(values[:6], size=(d, 1))
        got, want = linalg._fix_signs(a.copy()), fix_signs(a.copy())
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
    vectors = np.linalg.eigh(random_symmetric(50, rng))[1]
    got, want = linalg._fix_signs(vectors.copy()), fix_signs(vectors.copy())
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def test_min_eigenvalue():
    # the PSD checks read the smallest eigenvalue as eigvalsh(a)[0]
    def min_eigenvalue(a):
        return np.linalg.eigvalsh(a)[0]

    assert min_eigenvalue(np.diag([3.0, -2.0])) == pytest.approx(-2.0)
    x = [1.0, 2.0, 2.0]
    assert min_eigenvalue(np.outer(x, x)) == pytest.approx(0.0, abs=1e-12)
    assert min_eigenvalue([[2.0, 1.0], [1.0, 2.0]]) == pytest.approx(1.0)
    rng = np.random.default_rng(6)
    a = random_symmetric(8, rng)
    assert min_eigenvalue(a) == pytest.approx(sym_eigen(a)[-1].value, abs=1e-8)


# ---------------------------------------------------------------------------
# the Gram-Schmidt projector oracle

def test_projector_single_basis_vector():
    np.testing.assert_allclose(projector([[1.0, 0.0, 0.0]]), np.diag([1.0, 0.0, 0.0]))


def test_projector_two_basis_vectors():
    p = projector([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    np.testing.assert_allclose(p, np.diag([1.0, 1.0, 0.0]))
    assert np.trace(p) == pytest.approx(2.0)


def test_projector_normalizes():
    np.testing.assert_allclose(projector([[1.0, 1.0]]),
                               [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)


def test_projector_idempotent_and_symmetric():
    rng = np.random.default_rng(7)
    basis = rng.standard_normal((3, 6))
    p = projector(basis)
    np.testing.assert_allclose(p, p.T, atol=1e-12)
    np.testing.assert_allclose(p @ p, p, atol=1e-8)
    assert np.trace(p) == pytest.approx(3.0, abs=1e-8)


def test_projector_depends_only_on_span():
    rng = np.random.default_rng(8)
    basis = rng.standard_normal((2, 5))
    mixed = np.array([3.0 * basis[0] - basis[1], 0.25 * basis[1] + basis[0]])
    assert np.linalg.norm(projector(basis) - projector(mixed)) < 1e-8


def test_projector_rejects_rank_deficient():
    with pytest.raises(ValueError):
        projector([[1.0, 0.0], [2.0, 0.0]])
