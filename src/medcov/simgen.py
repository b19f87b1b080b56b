"""Synthetic contaminated-Gaussian streams.

Observations follow the mixture Y = (1 - O) X + O eps where
O ~ Bernoulli(delta), the core X is N(0, Sigma) with the discretized
Brownian-path covariance Sigma_{lj} = min(l, j)/d, and the contamination
eps is one of: i.i.d. Student t(1) coordinates, i.i.d. Student t(2)
coordinates, or a centered Gaussian with the (singular) reverse-time
Brownian covariance 2*min(d-l, d-j)/d.

Reproducibility contract: all draws come from numpy's Philox generator
(counter-based, 64-bit) seeded with ``ScenarioConfig.seed``, in a fixed
order per call: first n uniforms for the Bernoulli switches, then the
n x d standard normals for the Gaussian core, then the contamination
block (for Student scenarios: normals then chi-square denominators).
The same config therefore reproduces the same sample on any platform,
and replication r of a Monte Carlo run uses seed = base_seed + r.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError
from .linalg import eigh_descending

CONTAMINATIONS = ("none", "student_t1", "student_t2", "reverse_brownian")
_EIG_FLOOR = 1e-12  # a covariance eigenvalue at or below this counts as zero


def brownian_cov(d):
    """Covariance of a Brownian path discretized on d points:
    Sigma_{lj} = min(l, j)/d with 1-based indices.  Positive definite."""
    if d < 1:
        raise ConfigError(f"dimension must be >= 1, got {d}")
    idx = np.arange(1, d + 1, dtype=np.float64)
    return np.minimum.outer(idx, idx) / d


def reverse_brownian_cov(d):
    """Covariance of the reverse-time Brownian contamination:
    2*min(d-l, d-j)/d, 1-based.  Singular (last row/column are zero)."""
    if d < 1:
        raise ConfigError(f"dimension must be >= 1, got {d}")
    idx = np.arange(1, d + 1, dtype=np.float64)
    return 2.0 * np.minimum.outer(d - idx, d - idx) / d


@dataclass(frozen=True)
class ScenarioConfig:
    """One synthetic scenario: dimension, contamination rate and law, seed."""

    d: int
    delta: float = 0.0
    contamination: str = "none"
    seed: int = 0

    def __post_init__(self):
        if self.d < 2:
            raise ConfigError(f"scenario dimension must be >= 2, got {self.d}")
        if not (0.0 <= self.delta <= 1.0):
            raise ConfigError(f"contamination rate must be in [0, 1], got {self.delta}")
        if self.contamination not in CONTAMINATIONS:
            raise ConfigError(
                f"unknown contamination {self.contamination!r}; "
                f"choose from {', '.join(CONTAMINATIONS)}"
            )
        if self.contamination == "none" and self.delta != 0.0:
            raise ConfigError(
                f"contamination 'none' requires delta = 0, got {self.delta}"
            )


@lru_cache(maxsize=64)
def _factor(d, reverse):
    """Read-only factor F, F F^T = Sigma, for sampling the core (or, with
    ``reverse``, the singular contamination) covariance in dimension d:
    the Cholesky factor of the core, and the contamination's eigenvectors
    scaled by sqrt(lambda), eigenvalues at or below ``_EIG_FLOOR`` zeroed."""
    if reverse:
        values, vectors = eigh_descending(reverse_brownian_cov(d))
        factor = vectors * np.where(values > _EIG_FLOOR, np.sqrt(np.maximum(values, 0.0)), 0.0)
    else:
        factor = np.linalg.cholesky(brownian_cov(d))
    factor.setflags(write=False)
    return factor


def _student_t(rng, df, size):
    # ratio construction: Z / sqrt(chi2_df / df), all from the one stream
    z = rng.standard_normal(size)
    w = rng.chisquare(df, size)
    return z / np.sqrt(w / df)


def draw_sample(config, n):
    """Draw n observations of the configured scenario as an (n, d) array."""
    if not isinstance(config, ScenarioConfig):
        raise ConfigError(f"expected a ScenarioConfig, got {type(config).__name__}")
    if n < 1:
        raise ConfigError(f"sample size must be >= 1, got {n}")
    rng = np.random.Generator(np.random.Philox(config.seed))
    switches = rng.random(n) < config.delta
    x = rng.standard_normal((n, config.d)) @ _factor(config.d, False).T
    k = int(switches.sum())
    if k:
        if config.contamination == "student_t1":
            x[switches] = _student_t(rng, 1.0, (k, config.d))
        elif config.contamination == "student_t2":
            x[switches] = _student_t(rng, 2.0, (k, config.d))
        elif config.contamination == "reverse_brownian":
            x[switches] = rng.standard_normal((k, config.d)) @ _factor(config.d, True).T
    return x
