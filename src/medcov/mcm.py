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

import math

import numpy as np

from .errors import DataError, NumericalError
from .geomedian import GeometricMedianSGD, RowUpdates, StepSchedule, load_schedule, weiszfeld
from .linalg import (
    as_sample, as_vector, load_state_part, pack_array, pack_triangle, state_field, unpack_triangle,
)

# Above this largest entry the step rescales c by it, which keeps every
# intermediate product (including squared squared-norms) inside float64.
_HUGE_ENTRY = 1e70
# Recompute the cached squared Frobenius norm exactly every so often so
# incremental-update roundoff cannot accumulate over long streams.
_FRO2_REFRESH = 4096
# A row's d x d passes run on row panels of about this many entries, so
# that a panel of V, Vbar and the scratch stays in L2 between the passes;
# at d <= 256 there is one panel.
_PANEL_ENTRIES = 65536
# The pipeline steps its MCM in deferred blocks of this many updates
# (_BlockMCM; it divides _FRO2_REFRESH) from the dimension where
# tools/layer_sweep.py measures the block path to pay.
_BLOCK_ROWS = 64
_BLOCK_MIN_DIM = 100


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
    as everywhere else.  It stops where |V|_F passes about 1.3e154: a step
    whose |V|_F^2 would overflow float64 raises :class:`NumericalError`
    before any state changes.

    Internally it steps K lanes, one per PSD mode, on one row stream
    (:meth:`_set_lanes`); an estimator built here has one lane.  A row's
    d x d passes (the outer product, the moves and the averaging fold)
    run row panel by row panel, all of them on one panel before the
    next, which changes no bit of the result.
    """

    def __init__(self, dim, *, median_schedule=None, cov_schedule=None,
                 psd_mode=True, known_median=None):
        super().__init__(dim)
        d = self._dim
        self.cov_schedule = cov_schedule if cov_schedule is not None else StepSchedule()
        if known_median is not None:
            self._known_m = as_vector(known_median, dim=d).copy()
            self._median = None
        else:
            self._known_m = None
            self._median = GeometricMedianSGD(dim=d, schedule=median_schedule)
        self._n = 0
        self._c = np.empty(d)  # scratch, so the hot loop never allocates
        self._set_lanes((bool(psd_mode),))

    def _set_lanes(self, psd_modes):
        """Give a fresh estimator one lane per PSD mode, all stepped on
        one row stream.  The lanes share the center, the median update,
        gamma_n and the outer product c c^T; lane k's V, Vbar and |V|_F^2
        (``_v[k]``, ``_vbar[k]``, ``_fro2[k]``) are bit for bit those of a
        one-lane fit in its mode.  A row that overflows any lane raises
        before any lane changes.  Several lanes are never snapshotted."""
        d = self._dim
        self._psd_modes = tuple(psd_modes)
        k = len(self._psd_modes)
        # V, Vbar and the scratch share one allocation, so their layout
        # does not depend on what else the heap holds
        self._v, self._vbar, self._buf = np.zeros((3, k, d, d))
        self._fro2 = [0.0] * k
        # views bound once: ``self._v[k] *= s`` would also copy the
        # product back through __setitem__.  Each lane's V and V c, and
        # per row panel of equal height: c's rows as a column, lane 0's
        # scratch (it holds u u^T), each lane's V and scratch, and all
        # lanes' V, Vbar and scratch for the averaging fold
        self._lane_views = list(zip(self._v, np.empty((k, d))))
        panels = min(d, -(-d * d // _PANEL_ENTRIES))
        cuts = [d * i // panels for i in range(panels + 1)]
        self._panels = [
            (self._c[lo:hi, None], self._buf[0, lo:hi],
             [(v[lo:hi], buf[lo:hi]) for v, buf in zip(self._v, self._buf)][::-1],
             self._v[:, lo:hi], self._vbar[:, lo:hi], self._buf[:, lo:hi])
            for lo, hi in zip(cuts, cuts[1:])
        ]

    @property
    def psd_mode(self):
        """Whether steps are PSD-clipped (lane 0's mode)."""
        return self._psd_modes[0]

    @property
    def n_updates(self):
        """Number of matrix updates taken so far."""
        return self._n

    @property
    def iterate(self):
        return self._v[0].copy()

    @property
    def estimate(self):
        """Averaged iterate Vbar: the matrix estimate to report."""
        return self._lane_estimates()[0]

    def _lane_estimates(self):
        if self._n == 0:
            raise ValueError("no observations: the estimator has taken no matrix update yet")
        return [vbar.copy() for vbar in self._vbar]

    @property
    def estimate_view(self):
        """Read-only view of the live Vbar: no d x d copy, and it follows
        later updates (``estimate`` is the copy to keep)."""
        view = self._vbar[0]
        view.flags.writeable = False
        return view

    @property
    def median_estimate(self):
        """Center used for the next observation (averaged median or the known one)."""
        if self._median is not None:
            return self._median.estimate
        return self._known_m.copy()

    @property
    def _center(self):
        """The live center: the median's average (not a copy) or the known median."""
        return self._known_m if self._median is None else self._median._mbar

    def _scaled_row(self, x):
        """Write u = (x - center) / scale to ``_c``; ``(scale, |u|^2)``, or
        None for a row that only seeds the median."""
        c = self._c
        median = self._median
        if median is not None and not median.initialized:
            median._update(x)
            return None
        np.subtract(x, self._center, out=c)
        su = float(np.vdot(c, c))  # vdot overflows to inf without a warning
        scale = 1.0
        if not su < 1e139:  # else every |c_i| < 1e70, and no rescale is due
            mx = float(np.abs(c).max())
            if mx == np.inf:
                raise NumericalError("the row minus the center overflows float64")
            if mx > _HUGE_ENTRY:
                scale = mx
                c /= scale
                su = float(c @ c)
        return scale, su

    def _update(self, x):
        scaled = self._scaled_row(x)
        if scaled is None:
            return self
        scale, su = scaled
        c = self._c
        median = self._median
        # Each lane's move is V <- omt * V + t_gain * u u^T.  The moves
        # read nothing the median's update writes, so every lane is sized
        # and checked before any state changes.
        gamma = self.cov_schedule.gamma(self._n + 1)
        moves = []
        for (v, vc), fro2, psd in zip(self._lane_views, self._fro2, self._psd_modes):
            np.dot(v, c, out=vc)
            moves.append(_step(gamma, scale, su, float(c @ vc), fro2, psd))
        if median is not None:
            median._update(x)
        # None: the target coincides with the iterate, and the lane stays
        self._fro2 = [f if m is None else m[2] for f, m in zip(self._fro2, moves)]
        moving = any(moves)
        moves.reverse()  # lane 0 goes last, since its scratch holds u u^T until then
        self._n += 1
        n = self._n
        for col, outer, lanes, v_all, vbar_all, buf_all in self._panels:
            if moving:
                np.copyto(outer, c)
                np.multiply(outer, col, out=outer)
                for move, (v, buf) in zip(moves, lanes):
                    if move is not None:
                        v *= move[0]
                        np.multiply(outer, move[1], out=buf)
                        v += buf
            np.subtract(v_all, vbar_all, out=buf_all)
            buf_all /= n
            vbar_all += buf_all
        if n % _FRO2_REFRESH == 0:
            self._fro2 = [float(np.tensordot(v, v)) for v in self._v]
        return self

    def state_dict(self):
        state = {
            "dim": self._dim,
            "psd_mode": self.psd_mode,
            "cov_c": self.cov_schedule.c,
            "cov_alpha": self.cov_schedule.alpha,
            "n": self._n,
            "fro2": self._fro2[0],
            "v": pack_triangle(self._v[0]),
            "vbar": pack_triangle(self._vbar[0]),
        }
        if self._median is not None:
            state["mode"] = "joint"
            state["median"] = self._median.state_dict()
        else:
            state["mode"] = "known"
            state["known_median"] = self._known_m.tolist()
        return state

    @classmethod
    def from_state_dict(cls, state, *, triangles=True):
        """Rebuild from :meth:`state_dict`, or with ``triangles=False`` from
        whole, exactly symmetric v and vbar (snapshot versions 1 and 2)."""
        d = state_field(state, "dim", int, low=1)
        mode = state_field(state, "mode", str)
        if mode not in ("joint", "known"):
            raise DataError(f"mode: expected 'joint' or 'known', got {mode!r}")
        known = state_field(state, "known_median", np.ndarray, (d,)) if mode == "known" else None
        # v, vbar and an open block are read before anything d x d is
        # allocated, so a lying dim is a misshapen v, not a huge allocation
        shape = (d * (d + 1) // 2,) if triangles else (d, d)
        v = state_field(state, "v", np.ndarray, shape)
        vbar = state_field(state, "vbar", np.ndarray, shape)
        for key, mat in (() if triangles else (("v", v), ("vbar", vbar))):
            if not np.array_equal(mat, mat.T):  # every update keeps exact symmetry
                raise DataError(f"{key}: not symmetric")
        n = state_field(state, "n", int, low=0)
        block = cls._read_block(state, d, n)
        est = cls(d, cov_schedule=load_schedule(state, "cov_c", "cov_alpha"),
                  psd_mode=state_field(state, "psd_mode", bool), known_median=known)
        if mode == "joint":
            est._median = load_state_part(state, "median", GeometricMedianSGD.from_state_dict)
            if est._median.dim != d:
                raise DataError(f"median.dim: expected {d}, got {est._median.dim}")
        if triangles:
            unpack_triangle(v, est._v[0])
            unpack_triangle(vbar, est._vbar[0])
        else:
            est._v[0], est._vbar[0] = v, vbar
        est._n = n
        live = est._v[0] if block is None else est._open(*block)
        fro2 = float(state_field(state, "fro2", float, low=0.0))
        exact = float(np.vdot(live, live))  # inf, without a warning, if |v|_F^2 overflows
        if not exact < np.inf or abs(fro2 - exact) > 1e-8 * exact + 1e-300:  # V = 0 floor
            raise DataError(f"fro2: {fro2!r} disagrees with |v|_F^2 = {exact!r}")
        est._fro2 = [fro2]
        return est

    @staticmethod
    def _read_block(state, d, n):  # the row path keeps no open block
        return None


class _BlockMCM(MedianCovariationSGD):
    """The one-lane recursion as a deferred rank-64 update.  Past the
    last block boundary, n0 = n - k updates ago, V and Vbar are

        V = a V0 + sum_i w_i u_i u_i^T,  n Vbar = n0 Vbar0 + A V0 + sum_i S_i u_i u_i^T

    over the block's k scaled rows u_i (the rows of U).  A row costs the
    mat-vec V0 u and the Gram row U u, and the row path's ``_step`` takes
    u^T V u = a u^T V0 u + sum_i w_i (u_i^T u)^2.  At each multiple of
    ``_BLOCK_ROWS`` updates the block folds into V0 and Vbar0 through
    exactly symmetric Z^T Z products; reads and snapshots never fold, so
    the bits do not depend on where a stream is read or cut.
    """

    __array_ufunc__ = None  # ``w @ estimate_view`` calls __rmatmul__

    def __init__(self, dim, **kwargs):
        super().__init__(dim, **kwargs)
        self._u = np.zeros((_BLOCK_ROWS, self._dim))
        self._w, self._s = np.zeros((2, _BLOCK_ROWS))
        self._k, self._a, self._a_sum = 0, 1.0, 0.0
        self.shape = (self._dim, self._dim)  # of Vbar, as an operand

    def _update(self, x):
        scaled = self._scaled_row(x)
        if scaled is None:
            return self
        c, k, (v0, vc) = self._c, self._k, self._lane_views[0]
        uvu = (self._a * float(c @ np.dot(v0, c, out=vc))
               + float(self._w[:k] @ np.square(self._u[:k] @ c)))
        move = _step(self.cov_schedule.gamma(self._n + 1), *scaled, uvu, self._fro2[0],
                     self.psd_mode)
        if self._median is not None:
            self._median._update(x)
        self._u[k] = c
        w = self._w[:k + 1]
        omt, w[k], self._fro2[0] = move or (1.0, 0.0, self._fro2[0])  # x 1.0 is exact
        self._a *= omt
        w[:k] *= omt
        self._a_sum += self._a
        self._s[:k + 1] += w
        self._k, self._n = k + 1, self._n + 1
        if self._n % _BLOCK_ROWS == 0:
            self._read(self._vbar[0], average=True)
            self._read(v0, average=False)
            self._s[:] = 0.0
            self._k, self._a, self._a_sum = 0, 1.0, 0.0
        if self._n % _FRO2_REFRESH == 0:
            self._fro2 = [float(np.tensordot(v0, v0))]
        return self

    def _read(self, out, *, average):
        """Write V, or Vbar, to ``out``, which may be V0 or Vbar0 itself."""
        k, n, v0, buf = self._k, self._n, self._v[0], self._buf[0]
        if average:
            np.multiply(self._vbar[0], (n - k) / n, out=out)
            if self._a_sum:
                out += np.multiply(v0, self._a_sum / n, out=buf)
            weights = self._s[:k] / n
        else:
            np.multiply(v0, self._a, out=out)
            weights = self._w[:k]
        for sign, fold in ((1.0, np.add), (-1.0, np.subtract)):
            z = np.sqrt(np.maximum(sign * weights, 0.0))
            if z.any():
                z = self._u[:k] * z[:, None]
                fold(out, np.matmul(z.T, z, out=buf), out=out)  # a syrk: exactly symmetric
        return out

    @property
    def iterate(self):
        return self._read(np.empty_like(self._v[0]), average=False)

    def _lane_estimates(self):
        return [self._read(vbar, average=True) for vbar in super()._lane_estimates()]

    @property
    def estimate_view(self):
        """The estimator itself, as the operand of ``w @ view`` = w Vbar."""
        return self

    def __rmatmul__(self, w):
        k, n = self._k, self._n
        if not k:
            return w @ self._vbar[0]
        rows = self._u[:k]
        out = w @ self._v[0]  # first, while the step's pass over V0 is in cache
        out *= self._a_sum / n
        out += (w @ self._vbar[0]) * ((n - k) / n)
        out += ((w @ rows.T) * (self._s[:k] / n)) @ rows
        return out

    def state_dict(self):
        state = super().state_dict()  # v and vbar are V0 and Vbar0
        k = self._k
        state["block"] = {"k": k, "a": self._a, "a_sum": self._a_sum, "w": pack_array(self._w[:k]),
                          "s": pack_array(self._s[:k]), "u": pack_array(self._u[:k])}
        return state

    @staticmethod
    def _read_block(state, d, n):
        def fields(part):
            k, most = state_field(part, "k", int, low=0), n % _BLOCK_ROWS
            if k > most:  # a boundary would pass unfolded
                raise DataError(f"k: expected at most n mod {_BLOCK_ROWS} = {most}, got {k}")
            return (k, state_field(part, "a", float), state_field(part, "a_sum", float),
                    *(state_field(part, key, np.ndarray, (k,)) for key in "ws"),
                    state_field(part, "u", np.ndarray, (k, d)))

        # a state without a block (the row path's, or version 2's) opens a short one
        return load_state_part(state, "block", fields) if "block" in state else None

    def _open(self, k, a, a_sum, w, s, u):
        """Install a loaded block; returns the live V, which a corrupt one
        may overflow (silently: the loader's fro2 check rejects it)."""
        self._k, self._a, self._a_sum = k, a, a_sum
        self._w[:k], self._s[:k], self._u[:k] = w, s, u
        with np.errstate(over="ignore", invalid="ignore"):
            return self.iterate


def _pipeline_form(dim, state=None):
    """The pipeline's MCM class: the deferred form from ``_BLOCK_MIN_DIM``
    on, and for a loaded ``state`` that holds a block."""
    return _BlockMCM if dim >= _BLOCK_MIN_DIM or "block" in (state or {}) else MedianCovariationSGD


def _step(gamma, scale, su, uvu, fro2, psd):
    """One lane's move as ``(omt, t_gain, new |V|_F^2)``, or None for no
    move, from su = |u|^2 and uvu = u^T V u of u = c / scale.  Raises
    :class:`NumericalError` if |V|_F^2 would overflow."""
    # |Y - V|_F = scale^2 * D for
    # D = sqrt(|u|^4 - 2 u^T V u / scale^2 + |V|_F^2 / scale^4), so the
    # move (1 - t) V + t c c^T, t = step / |Y - V|_F, is
    # (1 - t) V + (step / D) u u^T, and the PSD clip caps step at
    # scale^2 * D.  If scale^2 rounds to inf, the clip cannot bind and
    # t underflows to 0 harmlessly.
    s2 = scale * scale
    inner = su * su - 2.0 * (uvu / s2) + (fro2 / s2) / s2
    dmat = math.sqrt(inner) if inner > 0.0 else 0.0
    if dmat == 0.0:
        return None
    step = min(gamma, s2 * dmat) if psd else gamma
    t_gain = step / dmat
    omt = 1.0 - step / (s2 * dmat)
    fro2 = omt * omt * fro2 + 2.0 * t_gain * omt * uvu + t_gain * t_gain * su * su
    if not fro2 < math.inf:  # a Python float overflows to inf (or NaN) silently
        raise NumericalError("the MCM iterate's squared Frobenius norm overflows float64")
    return omt, t_gain, fro2


def _centered(points, m_hat):
    pts = as_sample(points)
    return pts - as_vector(m_hat, dim=pts.shape[1])


def _rank_one_distances(c, s, v, fro2):
    """Frobenius distances |c_i c_i^T - V|_F for all rows at once.  Where
    |c_i|^4 overflows, the distance is taken from u = c_i / r, r = |c_i|,
    as r^2 sqrt(1 - 2 u^T V u / r^2 + |V|_F^2 / r^4), so it is inf only
    where it passes float64 itself."""
    s2 = s * s
    d2 = s2 - 2.0 * np.einsum("ij,ij->i", c @ v, c) + fro2
    dist = np.sqrt(np.maximum(d2, 0.0))
    far = np.flatnonzero(s2 == np.inf)
    if far.size:
        r = np.sqrt(s[far])
        u = c[far] / r[:, None]
        inner = 1.0 - 2.0 * (np.einsum("ij,ij->i", u @ v, u) / r) / r + fro2 / r / r / r / r
        dist[far] = r * r * np.sqrt(np.maximum(inner, 0.0))
    return dist


def weiszfeld_mcm(points, m_hat, eps=1e-8, max_iter=1000):
    """Weiszfeld fixed-point iteration for the sample MCM.

    Works on the rank-one matrices Y_i = c_i c_i^T, c_i = X_i - m, with
    Frobenius geometry; never materializes the Y_i against the iterate
    thanks to the rank-one distance identity.  Runs
    :func:`medcov.geomedian.weiszfeld` from the spatial-sign covariance of
    the c_i scaled by their median squared norm, and stops once a sweep
    moves the iterate by at most ``eps`` times that start's Frobenius
    norm, so the stop does not depend on the data's scale.  Each
    weighted mean is symmetrized, so every iterate is exactly symmetric.
    Memory is
    O(n d + d^2).  A row keeps its pull until its distance overflows
    float64 (past about |c| = 1e154); then it gets weight 0, silently.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        c = _centered(points, m_hat)
        s = np.einsum("ij,ij->i", c, c)
        start = _sign_covariance(c, s)

        def dists(g):
            return _rank_one_distances(c, s, g, float(np.tensordot(g, g)))

        def wmean(rows, w):
            g = (rows * w[:, None]).T @ rows
            return (g + g.T) / 2.0

        return weiszfeld(c, start, dists, wmean, eps, max_iter, float(np.linalg.norm(start)))


def _sign_covariance(c, s):
    """median(s) * mean_i u_i u_i^T, u_i = c_i / |c_i| (0 where s_i = 0): one gemm.
    A finite c_i whose s_i overflows gets u_i = 0; an infinite one, NaN."""
    u = c / np.sqrt(np.where(s > 0.0, s, 1.0))[:, None]
    g = u.T @ u
    return (g + g.T) * (float(np.median(s)) / (2 * len(c)))
