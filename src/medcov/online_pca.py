"""Recursive tracking of the leading eigenvectors of an evolving
symmetric matrix, and the streaming robust PCA pipeline that drives it.

A full eigendecomposition per observation would cost O(d^3); the tracker
instead runs one averaged power-type step per observation on q carrier
vectors,

    u_j <- u_j + (1/(n+1)) * (Vbar u_j / |u_j| - u_j),

followed by a deflation pass (sequential Gram-Schmidt, written back into
the carriers) that keeps the q directions from collapsing onto the top
eigenvector.  The carrier u_j converges to lambda_j e_j, so its norm
estimates the eigenvalue and its direction the eigenvector.  The
tracker takes Vbar as given and checks only its shape: the MCM owns
Vbar's exact symmetry (its update keeps it, its loader checks it).

:class:`StreamingRobustPCA` steps the tracker against the averaged MCM;
its ``state_dict`` is the snapshot that ``fit-stream`` resumes from.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DataError
from .linalg import as_vector, load_state_part, state_field, vector_norm
from .mcm import MedianCovariationSGD

SNAPSHOT_FORMAT = "medcov-snapshot"
SNAPSHOT_VERSION = 2

_COLLAPSE_EPS = 1e-12
_DISTINCT_EPS = 1e-10


def pc_scores(x, center, basis):
    """Coordinates of x - center on an orthonormal basis, plus the
    Euclidean distance to the spanned subspace.

    ``basis`` holds the orthonormal vectors as rows.  Returns
    ``(scores, ortho_dist)``; by Pythagoras, ``sum(scores**2) +
    ortho_dist**2 == |x - center|**2``.
    """
    b = np.atleast_2d(np.asarray(basis, dtype=np.float64))
    x = as_vector(x, dim=b.shape[1])
    center = as_vector(center, dim=b.shape[1])
    z = x - center
    scores = b @ z
    resid = z - b.T @ scores
    return scores, vector_norm(resid)


class OnlineEigenTracker:
    """Streaming estimator of the top-q eigenpairs of a slowly moving
    symmetric matrix (typically the averaged MCM iterate).

    Warm-up: the tracker buffers the first q centered observations that
    are numerically independent of each other and uses them, orthonormalized,
    as the starting carriers; :meth:`force_ready` fills any remaining
    slots from the seeded RNG when the stream is too short.  After
    warm-up each call to :meth:`step` performs one update against the
    current matrix.

    A carrier whose norm collapses below 1e-12 during deflation is
    replaced by a fresh random unit vector orthogonal to the carriers
    before it; the number of such reinitializations is returned by
    :meth:`step` and tallied in :attr:`n_reinits`.  Carriers therefore
    always enter a step with norm at least 1e-12, and
    :meth:`from_state_dict` rejects a payload that breaks this.
    """

    def __init__(self, dim, q, *, seed=0):
        d = int(dim)
        q = int(q)
        if d < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        if not (1 <= q <= d):
            raise ValueError(f"q must be in [1, {d}], got {q}")
        self._d = d
        self._q = q
        self._seed = int(seed)
        self._raw = None
        self._warmup = []  # orthonormal units accumulated before start
        self._n = 0
        self._rng_draws = 0
        self._reinits = 0

    @property
    def dim(self):
        return self._d

    @property
    def q(self):
        return self._q

    @property
    def ready(self):
        return self._raw is not None

    @property
    def n_steps(self):
        return self._n

    @property
    def n_reinits(self):
        return self._reinits

    def _fresh_unit(self, prefix):
        """Random unit vector orthogonal to the given rows, drawn from a
        counter-indexed Philox stream so replay is deterministic."""
        while True:
            seq = np.random.SeedSequence([self._seed, self._rng_draws])
            self._rng_draws += 1
            rng = np.random.Generator(np.random.Philox(seq))
            v = rng.standard_normal(self._d)
            for row in prefix:
                v -= (row @ v) / (row @ row) * row
            norm = float(np.linalg.norm(v))
            if norm > 1e-6:
                return v / norm

    def offer(self, centered_x):
        """Feed one centered observation to the warm-up buffer.

        Returns True once the tracker has become ready.  Observations
        that are numerically dependent on the buffered ones are ignored.
        """
        if self.ready:
            raise RuntimeError("tracker is already initialized")
        v = as_vector(centered_x, dim=self._d).copy()
        if not np.isfinite(np.linalg.norm(v)):  # |v|^2 overflows past ~1e154
            v /= np.abs(v).max()
        for row in self._warmup:
            v -= (row @ v) * row
        norm = float(np.linalg.norm(v))
        if norm > _DISTINCT_EPS:
            self._warmup.append(v / norm)
            if len(self._warmup) == self._q:
                self._start()
        return self.ready

    def force_ready(self):
        """Complete the warm-up immediately, filling any open carrier
        slots with seeded random units orthogonal to the buffered ones."""
        if self.ready:
            return self
        while len(self._warmup) < self._q:
            self._warmup.append(self._fresh_unit(self._warmup))
        self._start()
        return self

    def _start(self):
        self._raw = np.array(self._warmup, dtype=np.float64)
        self._warmup = []

    def step(self, v_bar):
        """One tracking update against ``v_bar``: a finite, exactly
        symmetric (d, d) operand supporting ``w @ v_bar``, used as given
        (the MCM's average always is; pass ``as_sym_matrix(m)`` for a
        nearly symmetric ``m``).  Only its shape is checked.

        Returns the number of carriers that collapsed and were
        reinitialized during this update (normally 0).
        """
        if not self.ready:
            raise RuntimeError("tracker not initialized: warm-up incomplete")
        if v_bar.shape != (self._d, self._d):
            raise ValueError(f"expected a {self._d}x{self._d} matrix, got shape {v_bar.shape}")
        r = self._raw
        reinits = 0
        norms = np.linalg.norm(r, axis=1)
        g = 1.0 / (self._n + 1)
        w = r / norms[:, None]  # pre-step normalized carriers
        r *= 1.0 - g
        r += g * (w @ v_bar)
        # deflation: orthogonalize each carrier against the ones before
        # it, writing the residual back so norms keep tracking lambda_j
        for j in range(self._q):
            for i in range(j):
                u = r[i]
                r[j] -= (u @ r[j]) / (u @ u) * u
            if float(np.linalg.norm(r[j])) < _COLLAPSE_EPS:
                r[j] = self._fresh_unit(r[:j])
                reinits += 1
        norms = np.linalg.norm(r, axis=1)
        order = np.argsort(-norms, kind="stable")
        self._raw = r[order]
        self._n += 1
        self._reinits += reinits
        return reinits

    @property
    def raw(self):
        """Unnormalized carriers (rows); row j converges to lambda_j e_j."""
        if not self.ready:
            raise RuntimeError("tracker not initialized")
        return self._raw.copy()

    @property
    def eigenvalues(self):
        """Eigenvalue estimates: carrier norms, non-increasing."""
        if not self.ready:
            raise RuntimeError("tracker not initialized")
        return np.linalg.norm(self._raw, axis=1)

    @property
    def basis(self):
        """Orthonormal eigenvector estimates as rows (q, d)."""
        if not self.ready:
            raise RuntimeError("tracker not initialized")
        norms = np.linalg.norm(self._raw, axis=1)
        return self._raw / norms[:, None]

    def projector(self):
        b = self.basis
        return b.T @ b

    def scores(self, x, center):
        return pc_scores(x, center, self.basis)

    def state_dict(self):
        return {
            "dim": self._d,
            "q": self._q,
            "seed": self._seed,
            "n": self._n,
            "rng_draws": self._rng_draws,
            "reinits": self._reinits,
            "raw": None if self._raw is None else self._raw.tolist(),
            "warmup": [u.tolist() for u in self._warmup],
        }

    @classmethod
    def from_state_dict(cls, state):
        d = state_field(state, "dim", int, low=1)
        q = state_field(state, "q", int, low=1)
        if q > d:
            raise DataError(f"q: must be <= dim = {d}, got {q}")
        tracker = cls(d, q, seed=state_field(state, "seed", int))
        tracker._n = state_field(state, "n", int, low=0)
        tracker._rng_draws = state_field(state, "rng_draws", int, low=0)
        tracker._reinits = state_field(state, "reinits", int, low=0)
        raw = state_field(state, "raw", np.ndarray, (q, d), nullable=True)
        if raw is not None and np.linalg.norm(raw, axis=1).min() < _COLLAPSE_EPS:
            raise DataError(f"raw: a carrier has norm below {_COLLAPSE_EPS:g}")
        tracker._raw = raw
        warmup = state_field(state, "warmup", list)
        limit = 0 if raw is not None else q - 1
        if len(warmup) > limit:
            raise DataError(f"warmup: expected at most {limit} vectors, got {len(warmup)}")
        if warmup:
            tracker._warmup = list(state_field(state, "warmup", np.ndarray, (len(warmup), d)))
        return tracker


class StreamingRobustPCA:
    """Joint one-pass pipeline: median + MCM recursion feeding the
    online eigenvector tracker.

    The tracker warms up on the first q numerically distinct centered
    observations (centered at the running median average), holds until
    the averaged MCM has absorbed ``eigen_lag`` updates, and then takes
    one step per observation against the running averaged MCM.

    The lag matters: the tracker's first step has gain 1, i.e. it is a
    full power step onto the averaged matrix of that moment, and the
    averaging gain 1/(n+1) forgets the starting basis only like 1/n.
    Starting against a matrix that has seen too few observations locks
    noise in for a long stretch of the stream.  The default lag of one
    update per dimension is a pilot-calibrated compromise; pass 0 to
    start tracking immediately.
    """

    def __init__(self, dim, q, *, median_schedule=None, cov_schedule=None,
                 psd_mode=True, known_median=None, eigen_seed=0,
                 eigen_lag=None):
        self.mcm = MedianCovariationSGD(
            dim,
            median_schedule=median_schedule,
            cov_schedule=cov_schedule,
            psd_mode=psd_mode,
            known_median=known_median,
        )
        self.tracker = OnlineEigenTracker(dim, q, seed=eigen_seed)
        lag = int(dim) if eigen_lag is None else int(eigen_lag)
        if lag < 0:
            raise ConfigError(f"eigen_lag must be >= 0, got {eigen_lag}")
        self._eigen_lag = lag
        self._rows = 0

    @property
    def rows(self):
        """Observations consumed (including the one that seeds the median)."""
        return self._rows

    @property
    def eigen_lag(self):
        """MCM updates absorbed before the tracker takes its first step."""
        return self._eigen_lag

    def update(self, x):
        self.mcm.update(x)
        self._rows += 1
        if self.mcm.n_updates < 1:
            return self
        if not self.tracker.ready:
            self.tracker.offer(np.asarray(x, dtype=np.float64) - self.mcm.median_estimate)
        elif self.mcm.n_updates > self._eigen_lag:
            # the live average: mcm.estimate would copy d x d per row
            self.tracker.step(self.mcm._vbar)
        return self

    def state_dict(self):
        return {
            "format": SNAPSHOT_FORMAT,
            "version": SNAPSHOT_VERSION,
            "rows": self._rows,
            "eigen_lag": self._eigen_lag,
            "mcm": self.mcm.state_dict(),
            "tracker": self.tracker.state_dict(),
        }

    @classmethod
    def from_state_dict(cls, state):
        """Rebuild the pipeline from a snapshot payload of version 2 or
        of version 1, which stores ``mcm.v`` and ``mcm.vbar`` as nested
        lists instead of packed text.

        Raises :class:`DataError` naming the first field that is missing,
        mistyped, misshapen or non-finite (``mcm.v``, ``tracker.q``, ...).
        """
        if state.get("format") != SNAPSHOT_FORMAT:
            raise DataError(f"format: not a medcov snapshot: {state.get('format')!r}")
        if state.get("version") not in (1, SNAPSHOT_VERSION):
            raise DataError(f"version: unsupported snapshot version {state.get('version')!r}")
        model = cls.__new__(cls)
        model.mcm = load_state_part(state, "mcm", MedianCovariationSGD.from_state_dict)
        model.tracker = load_state_part(state, "tracker", OnlineEigenTracker.from_state_dict)
        if model.tracker.dim != model.mcm.dim:
            raise DataError(f"tracker.dim: expected {model.mcm.dim}, got {model.tracker.dim}")
        model._eigen_lag = state_field(state, "eigen_lag", int, low=0)
        model._rows = state_field(state, "rows", int, low=0)
        return model
