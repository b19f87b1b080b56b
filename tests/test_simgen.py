"""Synthetic scenario generator: Brownian-path Gaussian core plus switched
contamination."""

import numpy as np
import pytest

from medcov import ConfigError, ScenarioConfig, brownian_cov, draw_sample
from medcov.simgen import CONTAMINATIONS, _factor, reverse_brownian_cov


# ---------------------------------------------------------------------------
# covariance models

def test_brownian_cov_small_cases():
    np.testing.assert_allclose(brownian_cov(2), [[0.5, 0.5], [0.5, 1.0]])
    np.testing.assert_allclose(brownian_cov(1), [[1.0]])


def test_brownian_cov_diagonal():
    d = 7
    np.testing.assert_allclose(np.diag(brownian_cov(d)), np.arange(1, d + 1) / d)


def test_brownian_cov_is_positive_definite():
    for d in (2, 10, 50):
        assert np.linalg.eigvalsh(brownian_cov(d))[0] > 0.0


def test_reverse_brownian_cov_small_cases():
    np.testing.assert_allclose(reverse_brownian_cov(2), [[1.0, 0.0], [0.0, 0.0]])
    np.testing.assert_allclose(
        reverse_brownian_cov(3),
        [[4 / 3, 2 / 3, 0.0], [2 / 3, 2 / 3, 0.0], [0.0, 0.0, 0.0]],
    )


def test_reverse_brownian_cov_structure():
    d = 9
    cov = reverse_brownian_cov(d)
    assert cov[0, 0] == pytest.approx(2.0 * (d - 1) / d)
    np.testing.assert_array_equal(cov[-1], np.zeros(d))
    np.testing.assert_array_equal(cov[:, -1], np.zeros(d))
    assert np.linalg.eigvalsh(cov)[0] >= -1e-12


def test_cov_dimension_validation():
    with pytest.raises(ConfigError):
        brownian_cov(0)
    with pytest.raises(ConfigError):
        reverse_brownian_cov(-3)


# ---------------------------------------------------------------------------
# sampling factors

def test_gaussian_factor_reproduces_covariance():
    # the core factor is lower triangular (Cholesky) and read-only
    f = _factor(6, False)
    np.testing.assert_allclose(f @ f.T, brownian_cov(6), atol=1e-12)
    np.testing.assert_array_equal(f, np.tril(f))
    assert not f.flags.writeable


def test_singular_factor_handles_rank_deficiency():
    # the contamination's factor has a zero column per zeroed eigenvalue
    f = _factor(5, True)
    np.testing.assert_allclose(f @ f.T, reverse_brownian_cov(5), atol=1e-10)
    np.testing.assert_array_equal(f[:, -1], np.zeros(5))
    assert not f.flags.writeable


# ---------------------------------------------------------------------------
# scenario configuration

def test_config_validation():
    assert set(CONTAMINATIONS) == {"none", "student_t1", "student_t2",
                                   "reverse_brownian"}
    with pytest.raises(ConfigError):
        ScenarioConfig(d=1)
    with pytest.raises(ConfigError):
        ScenarioConfig(d=5, delta=1.5)
    with pytest.raises(ConfigError):
        ScenarioConfig(d=5, delta=-0.1)
    with pytest.raises(ConfigError):
        ScenarioConfig(d=5, delta=0.1, contamination="cauchy")
    with pytest.raises(ConfigError):
        # a positive rate needs a contamination law
        ScenarioConfig(d=5, delta=0.1, contamination="none")


def test_draw_sample_validation():
    cfg = ScenarioConfig(d=4)
    with pytest.raises(ConfigError):
        draw_sample(cfg, 0)
    with pytest.raises(ConfigError):
        draw_sample({"d": 4}, 10)


# ---------------------------------------------------------------------------
# sampling laws

def test_clean_sample_matches_brownian_covariance():
    cfg = ScenarioConfig(d=5, seed=0)
    xs = draw_sample(cfg, 50_000)
    emp = xs.T @ xs / len(xs)
    assert np.abs(emp - brownian_cov(5)).max() <= 0.05


def test_full_reverse_contamination_kills_last_coordinate():
    cfg = ScenarioConfig(d=6, delta=1.0, contamination="reverse_brownian", seed=1)
    xs = draw_sample(cfg, 200)
    np.testing.assert_array_equal(xs[:, -1], np.zeros(200))


def test_fixed_seed_reproduces_sample():
    cfg = ScenarioConfig(d=4, delta=0.2, contamination="student_t2", seed=42)
    np.testing.assert_array_equal(draw_sample(cfg, 300), draw_sample(cfg, 300))
    other = ScenarioConfig(d=4, delta=0.2, contamination="student_t2", seed=43)
    assert not np.array_equal(draw_sample(cfg, 300), draw_sample(other, 300))


def test_contamination_rate_is_binomial():
    delta, n = 0.1, 100_000
    cfg = ScenarioConfig(d=3, delta=delta, contamination="reverse_brownian", seed=2)
    xs = draw_sample(cfg, n)
    # contaminated rows are exactly the ones with a degenerate last
    # coordinate (a continuous Gaussian coordinate is never exactly 0)
    rate = float(np.mean(xs[:, -1] == 0.0))
    assert abs(rate - delta) <= 3.0 * np.sqrt(delta * (1.0 - delta) / n)


def test_student_contamination_is_heavy_tailed():
    # t2 rows should produce excursions far beyond the Gaussian range;
    # no sample-mean assertion here (a t1 coordinate has no mean, and
    # even t2 means converge too slowly to test cheaply)
    cfg = ScenarioConfig(d=4, delta=0.5, contamination="student_t1", seed=3)
    xs = draw_sample(cfg, 20_000)
    assert np.all(np.isfinite(xs))
    assert np.abs(xs).max() > 50.0
