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
# The pipeline steps its MCM in deferred blocks of this many updates
# (_BlockMCM; it divides _FRO2_REFRESH) from the dimension where
# tools/layer_sweep.py measures the block path to pay; bench's block fit
# (_block_fits) uses the same blocks at every dimension.
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
    """

    def __init__(self, dim, *, median_schedule=None, cov_schedule=None,
                 psd_mode=True, known_median=None):
        super().__init__(dim)
        d = self._dim
        self.cov_schedule = cov_schedule if cov_schedule is not None else StepSchedule()
        self.psd_mode = bool(psd_mode)
        if known_median is not None:
            self._known_m = as_vector(known_median, dim=d).copy()
            self._median = None
        else:
            self._known_m = None
            self._median = GeometricMedianSGD(dim=d, schedule=median_schedule)
        self._n = 0
        self._fro2 = 0.0
        # scratch, so the hot loop never allocates: c, V c and a d x d buffer
        self._c, self._vc = np.empty(d), np.empty(d)
        self._v, self._vbar, self._buf = _aligned_zeros(3, d)

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
        view = self._vbar.view()  # flagged itself, Vbar would refuse the next update
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
        return _rescale(c, float(np.vdot(c, c)))  # vdot overflows to inf without a warning

    def _update(self, x):
        scaled = self._scaled_row(x)
        if scaled is None:
            return self
        c, v, buf = self._c, self._v, self._buf
        # The move is V <- omt * V + t_gain * u u^T.  It reads nothing the
        # median's update writes, so it is sized and checked before any
        # state changes; None: the target coincides with the iterate
        move = _step(self.cov_schedule.gamma(self._n + 1), *scaled,
                     float(c @ np.dot(v, c, out=self._vc)), self._fro2, self.psd_mode)
        if self._median is not None:
            self._median._update(x)
        if move is not None:
            omt, t_gain, self._fro2 = move
            np.copyto(buf, c)
            np.multiply(buf, c[:, None], out=buf)
            v *= omt
            buf *= t_gain
            v += buf
        self._n += 1
        np.subtract(v, self._vbar, out=buf)
        buf /= self._n
        self._vbar += buf
        if self._n % _FRO2_REFRESH == 0:
            self._fro2 = float(np.tensordot(v, v))
        return self

    def state_dict(self):
        state = {
            "dim": self._dim,
            "psd_mode": self.psd_mode,
            "cov_c": self.cov_schedule.c,
            "cov_alpha": self.cov_schedule.alpha,
            "n": self._n,
            "fro2": self._fro2,
            "v": pack_triangle(self._v),
            "vbar": pack_triangle(self._vbar),
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
            unpack_triangle(v, est._v)
            unpack_triangle(vbar, est._vbar)
        else:  # copied into the aligned arrays, not rebound
            est._v[...], est._vbar[...] = v, vbar
        est._n = n
        live = est._v if block is None else est._open(*block)
        fro2 = float(state_field(state, "fro2", float, low=0.0))
        exact = float(np.vdot(live, live))  # inf, without a warning, if |v|_F^2 overflows
        if not exact < np.inf or abs(fro2 - exact) > 1e-8 * exact + 1e-300:  # V = 0 floor
            raise DataError(f"fro2: {fro2!r} disagrees with |v|_F^2 = {exact!r}")
        est._fro2 = fro2
        return est

    @staticmethod
    def _read_block(state, d, n):  # the row path keeps no open block
        return None


class _BlockMCM(MedianCovariationSGD):
    """The one-lane recursion as a deferred rank-64 update.  Past the
    last block boundary, n0 = n - k updates ago, V and Vbar are

        V = a V0 + sum_i w_i u_i u_i^T,  n Vbar = n0 Vbar0 + A V0 + sum_i S_i u_i u_i^T

    over the block's k scaled rows u_i (the rows of U).  A row costs the
    Gram row U u and one product wu @ V0: its last row, u^T V0, gives the
    row path's ``_step`` u^T V u = a u^T V0 u + sum_i w_i (u_i^T u)^2, and
    its top rows serve the pipeline tracker's w Vbar.  At each multiple of
    ``_BLOCK_ROWS`` updates the block folds into V0 and Vbar0 through
    exactly symmetric Z^T Z products; reads and snapshots never fold, so
    the bits do not depend on where a stream is read or cut.
    """

    def __init__(self, dim, **kwargs):
        super().__init__(dim, **kwargs)
        self._u = np.zeros((_BLOCK_ROWS, self._dim))
        self._w, self._s = np.zeros((2, _BLOCK_ROWS))
        self._k, self._a, self._a_sum = 0, 1.0, 0.0

    def _update(self, x):
        self._fused_update(x, self._c[None], self._vc[None])  # a product with no carriers
        return self

    def _fused_update(self, x, wu, wv):
        """``_update`` with u as wu's last row and wv = wu @ V0; returns Vbar
        as the operand of ``w @`` for the w above u, for this row only."""
        scaled = self._scaled_row(x)
        if scaled is None:
            return None
        c, k, v0 = self._c, self._k, self._v
        wu[-1] = c
        uvu = (self._a * float(c @ np.matmul(wu, v0, out=wv)[-1])
               + float(self._w[:k] @ np.square(self._u[:k] @ c)))
        move = _step(self.cov_schedule.gamma(self._n + 1), *scaled, uvu, self._fro2,
                     self.psd_mode)
        if self._median is not None:
            self._median._update(x)
        self._u[k] = c
        w = self._w[:k + 1]
        omt, w[k], self._fro2 = move or (1.0, 0.0, self._fro2)  # x 1.0 is exact
        self._a *= omt
        w[:k] *= omt
        self._a_sum += self._a
        self._s[:k + 1] += w
        self._k, self._n = k + 1, self._n + 1
        if self._n % _BLOCK_ROWS == 0:
            self._read(self._vbar, average=True)
            self._read(v0, average=False)
            self._s[:] = 0.0
            self._k, self._a, self._a_sum = 0, 1.0, 0.0
        if self._n % _FRO2_REFRESH == 0:
            self._fro2 = float(np.tensordot(v0, v0))
        return _Operand(self, wv[:-1])

    def _read(self, out, *, average):
        """Write V, or Vbar, to ``out``, which may be V0 or Vbar0 itself."""
        k = self._k
        return _block_read(out, self._v, self._vbar, self._u[:k], self._w[:k], self._s[:k],
                           self._a, self._a_sum, self._n, self._buf, average=average)

    @property
    def iterate(self):
        return self._read(np.empty_like(self._v), average=False)

    @property
    def estimate(self):
        return self._read(super().estimate, average=True)

    @property
    def estimate_view(self):
        """Vbar as the operand of ``w @ view`` = w Vbar."""
        return _Operand(self)

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


class _Operand:
    """A block MCM's live Vbar as the operand of ``w @``; ``wv0``, if given, is w V0."""

    __array_ufunc__ = None  # ``w @ operand`` calls __rmatmul__

    def __init__(self, mcm, wv0=None):
        self.shape, self._mcm, self._wv0 = (mcm.dim, mcm.dim), mcm, wv0

    def __rmatmul__(self, w):
        mcm = self._mcm
        k, n = mcm._k, mcm._n
        if not k:  # a fold leaves Vbar0 alone
            return w @ mcm._vbar
        rows = mcm._u[:k]
        out = np.multiply(w @ mcm._v if self._wv0 is None else self._wv0, mcm._a_sum / n)
        out += (w @ mcm._vbar) * ((n - k) / n)
        out += ((w @ rows.T) * (mcm._s[:k] / n)) @ rows
        return out


def _pipeline_form(dim, state=None):
    """The pipeline's MCM class: the deferred form from ``_BLOCK_MIN_DIM``
    on, and for a loaded ``state`` that holds a block."""
    return _BlockMCM if dim >= _BLOCK_MIN_DIM or "block" in (state or {}) else MedianCovariationSGD


def _block_read(out, v0, vbar0, u, w, s, a, a_sum, n, buf, *, average):
    """Write to ``out`` (V0 or Vbar0 itself, or not) a block's V, or Vbar
    (see ``_BlockMCM``), from V0, Vbar0 and its k = len(u) rows; each
    signed part of the rank-k sum is one exactly symmetric Z^T Z (syrk)."""
    if average:
        np.multiply(vbar0, (n - len(u)) / n, out=out)
        if a_sum:
            out += np.multiply(v0, a_sum / n, out=buf)
        weights = s / n
    else:
        np.multiply(v0, a, out=out)
        weights = w
    for sign, fold in ((1.0, np.add), (-1.0, np.subtract)):
        z = np.sqrt(np.maximum(sign * weights, 0.0))
        if z.any():
            z = u * z[:, None]
            fold(out, np.matmul(z.T, z, out=buf), out=out)
    return out


def _block_fits(xs, psd_modes, *, median_schedule, cov_schedule):
    """For each PSD mode, the [V, Vbar, |V|_F^2] of a fresh joint
    estimator's ``update_many(xs)``, in exact block form, for ``bench``'s
    lanes.  Blocks end at multiples of ``_BLOCK_ROWS`` updates.  The lanes
    share the median's steps over a block's rows, the scaled rows, their
    steps, the squared Gram and a scratch matrix; then each folds the
    block through ``_block_lane``.  A lane's bits do not depend on the
    other lanes, and differ from the row path's within 1e-12 relative.  A
    lane whose |V|_F^2 overflows is None; any other failure raises, unless
    every lane is None: the pass stops there."""
    median = GeometricMedianSGD(np.shape(xs)[-1], schedule=median_schedule)
    xs = median._checked(xs)
    if len(xs) < 2:
        raise ValueError("no observations: the estimator has taken no matrix update yet")
    scratch, *mats = _aligned_zeros(2 * len(psd_modes) + 1, median.dim)
    fits = [[v, vbar, 0.0] for v, vbar in zip(mats[::2], mats[1::2])]
    median._update(xs[0])
    for n0 in range(0, len(xs) - 1, _BLOCK_ROWS):
        if not any(fits):
            break
        rows = xs[n0 + 1:n0 + 1 + _BLOCK_ROWS]
        u = np.empty_like(rows)
        for center, x in zip(u, rows):
            center[:] = median._mbar
            median._update(x)
        np.subtract(rows, u, out=u)
        su = np.einsum("ij,ij->i", u, u).tolist()  # inf, without a warning, on overflow
        steps = [(cov_schedule.gamma(n0 + j), *_rescale(c, sq))
                 for j, (c, sq) in enumerate(zip(u, su), start=1)]
        gram2 = np.square(u @ u.T)
        for i, (fit, psd) in enumerate(zip(fits, psd_modes)):
            if fit is not None:
                try:
                    fit[2] = _block_lane(u, gram2, steps, fit[2], n0 + len(u), *fit[:2],
                                         scratch, psd)
                except NumericalError:  # this lane's |V|_F^2 overflowed: it stops here
                    fits[i] = None
    return fits


def _block_lane(u, gram2, steps, fro2, n, v, vbar, buf, psd):
    """Step one lane over a block's rows u as ``_BlockMCM._update`` does, from
    one product for u^T V0 u, ``gram2`` = (U U^T)^2 and each row's gamma,
    scale and |u|^2 (``steps``); fold the block; return the new |V|_F^2."""
    w, a, a_sum, moves = np.zeros(len(u)), 1.0, 0.0, []
    uvu0 = np.einsum("ij,ij->i", u @ v, u).tolist()
    for j, (g2, h, step) in enumerate(zip(gram2, uvu0, steps)):
        omt, t, fro2 = _step(*step, a * h + float(w @ g2), fro2, psd) or (1.0, 0.0, fro2)
        w *= omt
        w[j] = t
        a *= omt
        a_sum += a
        moves.append((omt, t))
    # s_i, the sum of w_i over the block's later rows, is t_i r_i for
    # r_i = 1 + omt_{i+1} r_{i+1}, taken from the last row back
    s, r, omt = [], 0.0, 0.0
    for prev_omt, t in moves[::-1]:
        r = 1.0 + omt * r
        s.append(t * r)
        omt = prev_omt
    block = (u, w, np.array(s[::-1]), a, a_sum, n, buf)
    _block_read(vbar, v, vbar, *block, average=True)  # it reads V0, so it goes first
    _block_read(v, v, vbar, *block, average=False)
    return float(np.tensordot(v, v)) if n % _FRO2_REFRESH == 0 else fro2


def _aligned_zeros(k, d):
    """k zero d x d matrices, each on a 64-byte boundary, so that kernel
    times do not depend on the heap.  One allocation: k smaller ones keep
    glibc's trim threshold low, and every ``_block_fits`` call then faults
    their pages in again (up to twice its time at d = 400)."""
    stride = -(-d * d // 8) * 8  # doubles per matrix, a multiple of 64 bytes
    raw = np.zeros(k * stride + 8)
    start = -raw.__array_interface__["data"][0] % 64 // 8
    return raw[start:start + k * stride].reshape(k, stride)[:, :d * d].reshape(k, d, d)


def _rescale(c, su):
    """``(scale, |u|^2)`` of u = c / scale, written to ``c``, for su = |c|^2:
    past 1e70 the step works on c / max|c_i|."""
    mx = float(np.abs(c).max()) if su >= 1e139 else 0.0  # below, every |c_i| < 1e70
    if mx == np.inf:
        raise NumericalError("the row minus the center overflows float64")
    if mx > _HUGE_ENTRY:
        c /= mx
        return mx, float(c @ c)
    return 1.0, su


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


def _rank_one_distances(c, s, v, fro2, s2=None, far=None):
    """Frobenius distances |c_i c_i^T - V|_F for all rows at once.  Where
    |c_i|^4 overflows, the distance is taken from u = c_i / r, r = |c_i|,
    as r^2 sqrt(1 - 2 u^T V u / r^2 + |V|_F^2 / r^4), so it is inf only
    where it passes float64 itself.  A fit passes ``s2 = s * s`` and those
    ``far`` rows, ``np.flatnonzero(s2 == np.inf)``, once for all its calls."""
    if s2 is None:
        s2 = s * s
        far = np.flatnonzero(s2 == np.inf)
    d2 = s2 - 2.0 * np.einsum("ij,ij->i", c @ v, c) + fro2
    dist = np.sqrt(np.maximum(d2, 0.0))
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
    weighted mean is one syrk product z^T z of the rows scaled by sqrt(w)
    and each extrapolation combines iterates entrywise, so every iterate
    is exactly symmetric and every weighted mean PSD.  Memory is
    O(n d + d^2).  A row keeps its pull until its distance overflows
    float64 (past about |c| = 1e154); then it gets weight 0, silently.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        c = _centered(points, m_hat)
        s = np.einsum("ij,ij->i", c, c)
        start = _sign_covariance(c, s)
        s2 = s * s
        far = np.flatnonzero(s2 == np.inf)

        def dists(g):
            return _rank_one_distances(c, s, g, float(np.vdot(g, g)), s2, far)

        def wmean(rows, w):
            z = rows * np.sqrt(w)[:, None]
            return z.T @ z  # one syrk: exactly symmetric

        return weiszfeld(c, start, dists, wmean, eps, max_iter, float(np.linalg.norm(start)))


def _sign_covariance(c, s):
    """median(s) * mean_i u_i u_i^T, u_i = c_i / |c_i| (0 where s_i = 0): one gemm.
    A finite c_i whose s_i overflows gets u_i = 0; an infinite one, NaN."""
    u = c / np.sqrt(np.where(s > 0.0, s, 1.0))[:, None]
    g = u.T @ u
    return (g + g.T) * (float(np.median(s)) / (2 * len(c)))
