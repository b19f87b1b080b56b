"""Recursive tracking of the leading eigenvectors of an evolving
symmetric matrix, and the streaming robust PCA pipeline that drives it.

A full eigendecomposition per observation would cost O(d^3); the tracker
instead runs one averaged power-type step per observation on q carrier
vectors,

    u_j <- u_j + (1/(n+1)) * (Vbar u_j / |u_j| - u_j),

followed by a deflation pass (sequential Gram-Schmidt, written back into
the carriers) that keeps the q directions from collapsing onto the top
eigenvector.  The deflation takes each finished carrier's squared norm
once and reuses it to project every later carrier, and the tracker keeps
the carriers' norms and units from one step to the next.  One deflation
routine, ``_deflate``, serves the warm-up, the reinits and the step.  The
carrier u_j converges to lambda_j e_j, so its norm estimates the
eigenvalue and its direction the eigenvector.  The tracker takes Vbar as
given and checks only its shape: the MCM owns Vbar's exact symmetry (its
update keeps it, its loader checks it).

:class:`StreamingRobustPCA` steps the tracker against the averaged MCM;
its ``state_dict`` is the snapshot that ``fit-stream`` resumes from.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import ConfigError, DataError, NumericalError
from .geomedian import RowUpdates
from .linalg import as_vector, load_state_part, state_field, vector_norm
from .mcm import _BlockMCM, _pipeline_form

SNAPSHOT_FORMAT = "medcov-snapshot"
SNAPSHOT_VERSION = 3

_COLLAPSE_EPS = 1e-12
_DISTINCT_EPS = 1e-10


def _pc_scores(x, center, b):
    """:meth:`OnlineEigenTracker.scores` of checked vectors on a basis ``b``."""
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
    before it, and :attr:`n_reinits` counts such reinitializations.
    Carriers therefore always enter a step with norm at least 1e-12 and
    with a sum of squared norms that fits float64 (eigenvalues up to
    about 1e154), and :meth:`from_state_dict` rejects a payload that
    breaks this.
    """

    def __init__(self, dim, q, *, seed=0):
        d = int(dim)
        q = int(q)
        seed = int(seed)
        if d < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        if not (1 <= q <= d):
            raise ValueError(f"q must be in [1, {d}], got {q}")
        if seed < 0:
            raise ValueError(f"tracker seed must be >= 0, got {seed}")
        self._d = d
        self._q = q
        self._seed = seed
        self._raw = np.zeros((q, d))  # carriers; warm-up fills the rows in turn
        self._norms = self._units = None  # once ready: see _normalized
        self._filled = 0
        self._n = 0
        self._rng_draws = 0
        self._reinits = 0

    @property
    def q(self):
        return self._q

    @property
    def ready(self):
        return self._filled == self._q

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
            v = _deflate(rng.standard_normal(self._d), prefix, [u @ u for u in prefix])
            norm = vector_norm(v)
            if norm > 1e-6:
                return v / norm

    def _offer(self, v):
        """Feed one centered observation, a checked vector that this may
        overwrite, to the warm-up buffer of a tracker that is not ready.

        Returns True once the tracker has become ready.  Observations
        that are numerically dependent on the buffered ones are ignored.
        """
        if np.isinf(np.vdot(v, v)):  # |v|^2 overflows past ~1e154
            v /= np.abs(v).max()
        _deflate(v, self._raw[:self._filled], [1.0] * self._filled)  # unit rows: / 1.0 is exact
        norm = vector_norm(v)
        if norm > _DISTINCT_EPS:
            self._raw[self._filled] = v / norm
            self._filled += 1
        return self.ready

    def force_ready(self):
        """Complete the warm-up immediately, filling any open carrier
        slots with seeded random units orthogonal to the buffered ones."""
        while not self.ready:
            self._raw[self._filled] = self._fresh_unit(self._raw[:self._filled])
            self._filled += 1
        return self

    def step(self, v_bar):
        """One tracking update against ``v_bar``: a finite, exactly
        symmetric (d, d) operand supporting ``w @ v_bar``, used as given
        (the MCM's average always is; pass ``as_sym_matrix(m)`` for a
        nearly symmetric ``m``).  Only its shape is checked.

        Raises :class:`NumericalError`, leaving the carriers as they
        were, when the carriers' summed squared norms would overflow
        float64.
        """
        w = self._normalized()[1]  # pre-step normalized carriers
        if v_bar.shape != (self._d, self._d):
            raise ValueError(f"expected a {self._d}x{self._d} matrix, got shape {v_bar.shape}")
        g = 1.0 / (self._n + 1)
        r = self._raw * (1.0 - g)  # a new array: a failed step writes nothing
        r += g * (w @ v_bar)
        # vdot overflows to inf without a warning; deflation only shrinks
        if not np.vdot(r, r) < np.inf:
            raise NumericalError("the tracker carriers' squared norm overflows float64")
        # deflation: orthogonalize each carrier against the ones before
        # it, writing the residual back so norms keep tracking lambda_j;
        # each finished carrier's squared norm serves every later one
        sq = []
        for j, v in enumerate(r):
            _deflate(v, r, sq)
            vv = float(v.dot(v))  # the ddot that np.linalg.norm(v) takes the root of
            if math.sqrt(vv) < _COLLAPSE_EPS:
                r[j] = self._fresh_unit(r[:j])
                self._reinits += 1
                vv = float(v.dot(v))
            sq.append(vv)
        norms = _row_norms(r)
        top = norms.tolist()
        if not all(map(operator.ge, top, top[1:])):  # else a stable sort keeps the order
            order = np.argsort(-norms, kind="stable")
            r, norms = r[order], norms[order]
        self._raw, self._norms, self._units = r, norms, r / norms[:, None]
        self._n += 1

    def _carriers(self):
        if not self.ready:
            raise RuntimeError("tracker not initialized: warm-up incomplete")
        return self._raw

    def _normalized(self):
        """The carriers' norms (``np.linalg.norm(raw, axis=1)`` bit for bit)
        and units, kept from the last step (or computed on first use)."""
        r = self._carriers()
        if self._norms is None:
            self._norms = _row_norms(r)
            self._units = r / self._norms[:, None]
        return self._norms, self._units

    @property
    def raw(self):
        """Unnormalized carriers (rows); row j converges to lambda_j e_j."""
        return self._carriers().copy()

    @property
    def eigenvalues(self):
        """Eigenvalue estimates: carrier norms, non-increasing."""
        return self._normalized()[0].copy()

    @property
    def basis(self):
        """Orthonormal eigenvector estimates as rows (q, d)."""
        return self._normalized()[1].copy()

    def projector(self):
        b = self.basis
        return b.T @ b

    def scores(self, x, center):
        """``(scores, ortho_dist)``: the coordinates of x - center on
        :attr:`basis` and its Euclidean distance to their span; by
        Pythagoras, ``sum(scores**2) + ortho_dist**2 == |x - center|**2``."""
        b = self.basis  # before the checks: an unready tracker says so first
        return _pc_scores(as_vector(x, dim=self._d), as_vector(center, dim=self._d), b)

    def state_dict(self):
        return {
            "dim": self._d,
            "q": self._q,
            "seed": self._seed,
            "n": self._n,
            "rng_draws": self._rng_draws,
            "reinits": self._reinits,
            "raw": self._raw.tolist() if self.ready else None,
            "warmup": [] if self.ready else self._raw[:self._filled].tolist(),
        }

    @classmethod
    def from_state_dict(cls, state):
        d = state_field(state, "dim", int, low=1)
        q = state_field(state, "q", int, low=1)
        if q > d:
            raise DataError(f"q: must be <= dim = {d}, got {q}")
        # the filled carrier rows (raw, or the warm-up units) are read
        # before the (q, d) carriers are allocated
        rows = state_field(state, "raw", np.ndarray, (q, d), nullable=True)
        if rows is not None and np.vdot(rows, rows) == np.inf:  # without a warning
            raise DataError("raw: the carriers' squared norm overflows float64")
        if rows is not None and min(map(vector_norm, rows)) < _COLLAPSE_EPS:
            raise DataError(f"raw: a carrier has norm below {_COLLAPSE_EPS:g}")
        warmup = state_field(state, "warmup", list)
        limit = 0 if rows is not None else q - 1
        if len(warmup) > limit:
            raise DataError(f"warmup: expected at most {limit} vectors, got {len(warmup)}")
        if warmup:
            rows = state_field(state, "warmup", np.ndarray, (len(warmup), d))
        tracker = cls(d, q, seed=state_field(state, "seed", int, low=0))
        tracker._n = state_field(state, "n", int, low=0)
        tracker._rng_draws = state_field(state, "rng_draws", int, low=0)
        tracker._reinits = state_field(state, "reinits", int, low=0)
        if rows is not None:
            tracker._filled = len(rows)
            tracker._raw[:len(rows)] = rows
        return tracker


def _row_norms(r):
    """``np.linalg.norm(r, axis=1)`` of a real 2-D array, without the wrapper."""
    return np.sqrt(np.add.reduce(r * r, axis=1))


def _deflate(v, rows, sq):
    """Sequential Gram-Schmidt: subtract from ``v``, in place and in turn,
    its projection on each of the first ``len(sq)`` of ``rows``, whose
    squared norms ``sq`` holds; returns ``v``."""
    for u, uu in zip(rows, sq):
        v -= u.dot(v) / uu * u
    return v


class StreamingRobustPCA(RowUpdates):
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
        super().__init__(dim)
        self.mcm = _pipeline_form(self._dim)(
            dim,
            median_schedule=median_schedule,
            cov_schedule=cov_schedule,
            psd_mode=psd_mode,
            known_median=known_median,
        )
        self.tracker = OnlineEigenTracker(dim, q, seed=eigen_seed)
        self._wu, self._wv = np.zeros((2, self.tracker.q + 1, self._dim))  # see _update
        lag = int(dim) if eigen_lag is None else int(eigen_lag)
        if lag < 0:
            raise ConfigError(f"eigen_lag must be >= 0, got {eigen_lag}")
        self._eigen_lag = lag
        self._rows = 0

    @property
    def rows(self):
        """Observations consumed (including the one that seeds the median)."""
        return self._rows

    def _update(self, x):
        """A checked row: step the MCM, count the row, then feed the tracker;
        on the block path one product on V0 serves both (see ``_BlockMCM``)."""
        steps = self.tracker.ready and self.mcm.n_updates >= self._eigen_lag  # unless a seed row
        if isinstance(self.mcm, _BlockMCM):  # above the row: the carriers, or zeros
            if steps:
                self._wu[:-1] = self.tracker._normalized()[1]
            operand = self.mcm._fused_update(x, self._wu, self._wv)
        else:
            operand = self.mcm._update(x).estimate_view
        self._rows += 1
        if self.mcm.n_updates < 1:
            return self
        if not self.tracker.ready:
            self.tracker._offer(x - self.mcm._center)  # a new array, of a checked row
        elif steps:
            self.tracker.step(operand)
        return self

    def _scores(self, x):
        """``tracker.scores(x, mcm.median_estimate)`` of a checked row,
        against the live center: no checks and no copies."""
        return _pc_scores(x, self.mcm._center, self.tracker._normalized()[1])

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
        """Rebuild the pipeline from a snapshot payload of version 3, or
        of versions 2 and 1, which store ``mcm.v`` and ``mcm.vbar`` as
        whole matrices (packed text, or nested lists in version 1).

        Raises :class:`DataError` naming the first field that is missing,
        mistyped, misshapen or non-finite (``mcm.v``, ``tracker.q``, ...).
        """
        if state.get("format") != SNAPSHOT_FORMAT:
            raise DataError(f"format: not a medcov snapshot: {state.get('format')!r}")
        version = state.get("version")
        if version not in (1, 2, SNAPSHOT_VERSION):
            raise DataError(f"version: unsupported snapshot version {version!r}")

        def load_mcm(part):
            form = _pipeline_form(state_field(part, "dim", int, low=1), part)
            return form.from_state_dict(part, triangles=version == SNAPSHOT_VERSION)

        model = cls.__new__(cls)
        model.mcm = load_state_part(state, "mcm", load_mcm)
        model._dim = model.mcm.dim
        # checked before the tracker allocates its (q, d) carriers
        dim = load_state_part(state, "tracker", lambda part: state_field(part, "dim", int, low=1))
        if dim != model.mcm.dim:
            raise DataError(f"tracker.dim: expected {model.mcm.dim}, got {dim}")
        model.tracker = load_state_part(state, "tracker", OnlineEigenTracker.from_state_dict)
        model._wu, model._wv = np.zeros((2, model.tracker.q + 1, dim))
        model._eigen_lag = state_field(state, "eigen_lag", int, low=0)
        model._rows = state_field(state, "rows", int, low=0)
        return model
