"""Median covariation matrix (MCM) estimators.

The MCM of a random vector X with geometric median m is the geometric
median, under the Frobenius norm, of the rank-one matrices
``(X - m)(X - m)^T``.  Like the covariance matrix it is symmetric and
shares eigenvectors with the covariance under symmetric distributions,
but it is far less sensitive to heavy tails and contamination.

This module provides a one-pass averaged stochastic gradient estimator
(optionally estimating the median jointly) and a batch Weiszfeld
fixed-point baseline.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError, NumericalError
from .geomedian import GeometricMedianSGD, RowUpdates, StepSchedule, load_schedule, weiszfeld
from .linalg import as_sample, as_vector, load_state_part, pack_array, state_field

# Above this largest entry the step rescales c by it, which keeps every
# intermediate product (including squared squared-norms) inside float64.
_HUGE_ENTRY = 1e70
# Recompute the cached squared Frobenius norm exactly every so often so
# incremental-update roundoff cannot accumulate over long streams.
_FRO2_REFRESH = 4096


class MedianCovariationSGD(RowUpdates):
    """One-pass averaged stochastic gradient estimator of the MCM.

    Each observation x is centered at the current averaged median
    estimate (or at a fixed, known median), turned into the implicit
    rank-one target Y = c c^T with c = x - center, and the iterate moves
    a Frobenius distance of exactly gamma_n toward Y:

        V <- V + gamma_n * (Y - V) / |Y - V|_F
        Vbar <- Vbar + (V - Vbar) / (n + 1)

    With ``psd_mode`` the step is clipped at the distance to Y
    (gamma_pos = min(gamma_n, |Y - V|_F)), which makes each update a
    convex combination of V and the PSD matrix Y; starting from V_0 = 0
    every iterate and average then stays PSD.

    In joint mode the first observation only seeds the internal median
    recursion; every later observation advances the median and the
    matrix recursion together, with the centering done at the median
    average from *before* that observation's median update.

    The rank-one target is never materialized against the iterate: the
    Frobenius distance comes from the identity

        |c c^T - V|_F^2 = |c|^4 - 2 c^T V c + |V|_F^2

    and the squared norm |V|_F^2 is carried incrementally, so one update
    costs O(d^2).  One step serves every scale: past 1e70 it works on
    c / max|c_i|, so |c|^4 never overflows, and the PSD clip holds there
    as everywhere else.
    """

    def __init__(self, dim, *, median_schedule=None, cov_schedule=None,
                 psd_mode=True, known_median=None):
        super().__init__(dim)
        d = self._dim
        self.psd_mode = bool(psd_mode)
        self.cov_schedule = cov_schedule if cov_schedule is not None else StepSchedule()
        if known_median is not None:
            self._known_m = as_vector(known_median, dim=d).copy()
            self._median = None
        else:
            self._known_m = None
            self._median = GeometricMedianSGD(dim=d, schedule=median_schedule)
        self._v = np.zeros((d, d))
        self._vbar = np.zeros((d, d))
        self._fro2 = 0.0
        self._n = 0
        # scratch buffers so the hot loop never allocates
        self._c = np.empty(d)
        self._vc = np.empty(d)
        self._buf = np.empty((d, d))

    @property
    def n_updates(self):
        """Number of matrix updates taken so far."""
        return self._n

    @property
    def iterate(self):
        return self._v.copy()

    @property
    def estimate(self):
        """Averaged iterate Vbar: the matrix estimate to report."""
        if self._n == 0:
            raise ValueError("no observations: the estimator has taken no matrix update yet")
        return self._vbar.copy()

    @property
    def estimate_view(self):
        """Read-only view of the live Vbar: no d x d copy, and it follows
        later updates (``estimate`` is the copy to keep)."""
        view = self._vbar.view()
        view.flags.writeable = False
        return view

    @property
    def median_estimate(self):
        """Center used for the next observation (averaged median or the known one)."""
        if self._median is not None:
            return self._median.estimate
        return self._known_m.copy()

    update = RowUpdates.update  # its own attribute: tracers wrap vars(cls)["update"]

    def _update(self, x):
        c = self._c
        median = self._median
        if median is not None and not median.initialized:
            median._update(x)
            return self
        # center at the median's live average (``estimate`` would copy it)
        np.subtract(x, self._known_m if median is None else median._mbar, out=c)
        mx = float(np.abs(c).max())
        if mx == np.inf:
            raise NumericalError("the row minus the center overflows float64")
        if median is not None:
            median._update(x)
        self._step(self.cov_schedule.gamma(self._n + 1), mx)
        self._n += 1
        np.subtract(self._v, self._vbar, out=self._buf)
        self._buf /= self._n
        self._vbar += self._buf
        if self._n % _FRO2_REFRESH == 0:
            self._fro2 = float(np.tensordot(self._v, self._v))
        return self

    def _step(self, gamma, mx):
        # With u = c / scale, mx = max|c_i|, |Y - V|_F = scale^2 * D for
        # D = sqrt(|u|^4 - 2 u^T V u / scale^2 + |V|_F^2 / scale^4), so the
        # move (1 - t) V + t c c^T, t = step / |Y - V|_F, is
        # (1 - t) V + (step / D) u u^T, and the PSD clip caps step at
        # scale^2 * D.  If scale^2 rounds to inf, the clip cannot bind and
        # t underflows to 0 harmlessly.
        c = self._c
        scale = mx if mx > _HUGE_ENTRY else 1.0
        c /= scale
        np.dot(self._v, c, out=self._vc)
        uvu = float(c @ self._vc)
        su = float(c @ c)
        s2 = scale * scale
        inner = su * su - 2.0 * (uvu / s2) + (self._fro2 / s2) / s2
        dmat = float(np.sqrt(inner)) if inner > 0.0 else 0.0
        if dmat == 0.0:
            return  # the observation's target coincides with the iterate
        step = min(gamma, s2 * dmat) if self.psd_mode else gamma
        t_gain = step / dmat
        omt = 1.0 - step / (s2 * dmat)
        np.outer(c, c, out=self._buf)
        self._v *= omt
        self._buf *= t_gain
        self._v += self._buf
        self._fro2 = (omt * omt * self._fro2
                      + 2.0 * t_gain * omt * uvu
                      + t_gain * t_gain * su * su)

    def state_dict(self):
        state = {
            "dim": self._dim,
            "psd_mode": self.psd_mode,
            "cov_c": self.cov_schedule.c,
            "cov_alpha": self.cov_schedule.alpha,
            "n": self._n,
            "fro2": self._fro2,
            "v": pack_array(self._v),
            "vbar": pack_array(self._vbar),
        }
        if self._median is not None:
            state["mode"] = "joint"
            state["median"] = self._median.state_dict()
        else:
            state["mode"] = "known"
            state["known_median"] = self._known_m.tolist()
        return state

    @classmethod
    def from_state_dict(cls, state):
        d = state_field(state, "dim", int, low=1)
        mode = state_field(state, "mode", str)
        if mode not in ("joint", "known"):
            raise DataError(f"mode: expected 'joint' or 'known', got {mode!r}")
        known = state_field(state, "known_median", np.ndarray, (d,)) if mode == "known" else None
        # v and vbar are read before anything d x d is allocated, so a
        # lying dim is a misshapen v, not a huge allocation
        v = state_field(state, "v", np.ndarray, (d, d))
        vbar = state_field(state, "vbar", np.ndarray, (d, d))
        for key, mat in (("v", v), ("vbar", vbar)):
            if not np.array_equal(mat, mat.T):  # every update keeps exact symmetry
                raise DataError(f"{key}: not symmetric")
        est = cls(d, cov_schedule=load_schedule(state, "cov_c", "cov_alpha"),
                  psd_mode=state_field(state, "psd_mode", bool), known_median=known)
        if mode == "joint":
            est._median = load_state_part(state, "median", GeometricMedianSGD.from_state_dict)
            if est._median.dim != d:
                raise DataError(f"median.dim: expected {d}, got {est._median.dim}")
        est._v, est._vbar = v, vbar
        est._fro2 = float(state_field(state, "fro2", float, low=0.0))
        exact = float(np.vdot(v, v))  # inf, without a warning, if |v|_F^2 overflows
        if exact == np.inf or abs(est._fro2 - exact) > 1e-8 * exact + 1e-300:  # V = 0 floor
            raise DataError(f"fro2: {est._fro2!r} disagrees with |v|_F^2 = {exact!r}")
        est._n = state_field(state, "n", int, low=0)
        return est


def _centered(points, m_hat):
    pts = as_sample(points)
    return pts - as_vector(m_hat, dim=pts.shape[1])


def _rank_one_distances(c, s, v, fro2):
    """Frobenius distances |c_i c_i^T - V|_F for all rows at once."""
    q = np.einsum("ij,ij->i", c @ v, c)
    d2 = s * s - 2.0 * q + fro2
    return np.sqrt(np.maximum(d2, 0.0))


def weiszfeld_mcm(points, m_hat, eps=1e-8, max_iter=1000):
    """Weiszfeld fixed-point iteration for the sample MCM.

    Works on the centered rank-one matrices Y_i = (X_i - m)(X_i - m)^T
    with Frobenius geometry; never materializes the Y_i against the
    iterate thanks to the rank-one distance identity.  Runs
    :func:`medcov.geomedian.weiszfeld` from the entrywise median of the
    Y_i; each weighted mean is symmetrized, so every iterate is exactly
    symmetric.

    The start is built one upper-triangle row at a time, so memory is
    O(n d + d^2).
    """
    c = _centered(points, m_hat)
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    s = np.einsum("ij,ij->i", c, c)

    def dists(g):
        return _rank_one_distances(c, s, g, float(np.tensordot(g, g)))

    def wmean(rows, w):
        g = (rows * w[:, None]).T @ rows
        return (g + g.T) / 2.0

    return weiszfeld(c, _entrywise_median(c), dists, wmean, eps, max_iter)


def _entrywise_median(c):
    """Entrywise median of the rank-one matrices c_i c_i^T."""
    d = c.shape[1]
    g = np.empty((d, d))
    for i in range(d):
        g[i, i:] = np.median(c[:, i, None] * c[:, i:], axis=0)
        g[i:, i] = g[i, i:]
    return g
