"""Reference oracles for the tests: slow, transparently correct versions
of what the package computes with LAPACK or fused updates.

``sym_eigen`` is a cyclic Jacobi eigensolver sharing the package's
eigenvector sign convention, so its pairs compare directly with
``medcov.linalg.eigh_descending``; ``projector`` builds U U^T from an
arbitrary basis by Gram-Schmidt; ``dense_mcm_recursion`` runs the MCM
recursion on explicit d x d targets, the reference any faster MCM
kernel must match; ``whole_matrix_mcm_step`` is the MCM step with
c c^T from one broadcast product and the rescale checked on every row,
the bitwise reference for the row step; ``per_mode_mcm_fits`` runs one
block fit per PSD mode, the reference for the lanes that share one
pass;
``csv_rows_per_cell`` parses a CSV one cell at a time, the reference
for ``medcov.bench.iter_csv_rows``; ``tracker_step`` and
``tracker_readouts`` are the eigen tracker's step and readouts with a
norm computed wherever one is used, and ``tracker_offer``,
``tracker_force_ready`` and ``tracker_fresh_unit`` its warm-up and
reinit with a Gram-Schmidt loop of their own, the bitwise reference for
``medcov.OnlineEigenTracker``;
``median_objective`` and ``mcm_objective`` are the sums the batch
Weiszfeld solvers minimize; ``plain_weiszfeld`` is their solver's loop
of plain sweeps, Vardi-Zhang anchors included and no extrapolation, the
reference the accelerated ``medcov.geomedian.weiszfeld`` must agree
with; ``entrywise_median`` is the Weiszfeld MCM's
former start, the reference its faster start must converge with;
``fix_signs`` is the column loop that ``medcov.linalg._fix_signs``
vectorizes.
"""

from typing import NamedTuple

import numpy as np

from medcov.errors import ConvergenceError, DataError, NumericalError
from medcov.linalg import as_sym_matrix, as_vector, vector_norm
from medcov.mcm import (
    _FRO2_REFRESH,
    _HUGE_ENTRY,
    _block_fits,
    _centered,
    _rank_one_distances,
    _step,
)
from medcov.online_pca import _COLLAPSE_EPS, _DISTINCT_EPS


class EigenPair(NamedTuple):
    value: float
    vector: np.ndarray


def fix_signs(vectors):
    """Column by column, flip the sign so the first coordinate with
    |v_i| > 1e-12 is positive: the reference for ``linalg._fix_signs``."""
    for j in range(vectors.shape[1]):
        col = vectors[:, j]
        nz = np.nonzero(np.abs(col) > 1e-12)[0]
        if nz.size and col[nz[0]] < 0:
            col *= -1.0
    return vectors


def _sorted_pairs(values, vectors):
    order = np.argsort(-values, kind="stable")
    vectors = fix_signs(vectors[:, order].copy())
    return [EigenPair(float(values[j]), vectors[:, k].copy()) for k, j in enumerate(order)]


def _off_norm(w):
    od = w.copy()
    np.fill_diagonal(od, 0.0)
    return float(np.linalg.norm(od))


def sym_eigen(a, tol=1e-10, max_sweeps=60):
    """Full eigendecomposition of a symmetric matrix by cyclic Jacobi sweeps.

    Returns eigenpairs sorted by descending eigenvalue.  Each eigenvector
    is normalized with its first coordinate of magnitude > 1e-12 made
    positive, which pins the sign deterministically.  Intended as the
    reference decomposition: slow but transparently correct.
    """
    w = as_sym_matrix(a)
    d = w.shape[0]
    v = np.eye(d)
    scale = np.linalg.norm(w)
    if scale == 0.0:
        return _sorted_pairs(np.zeros(d), v)
    target = max(0.1 * tol, 1e-14) * scale
    skip = target / max(2 * d * d, 4)

    off = _off_norm(w)
    for _ in range(max_sweeps):
        if off <= target:
            break
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = w[p, q]
                if abs(apq) <= skip:
                    continue
                app, aqq = w[p, p], w[q, q]
                theta = (aqq - app) / (2.0 * apq)
                t = np.sign(theta) / (abs(theta) + np.hypot(1.0, theta))
                if t == 0.0:  # theta overflowed; rotation angle is +-45 deg
                    t = 1.0 if theta >= 0 else -1.0
                c = 1.0 / np.hypot(1.0, t)
                s = t * c
                col_p = w[:, p].copy()
                col_q = w[:, q].copy()
                w[:, p] = c * col_p - s * col_q
                w[:, q] = s * col_p + c * col_q
                w[p, :] = w[:, p]
                w[q, :] = w[:, q]
                w[p, p] = app - t * apq
                w[q, q] = aqq + t * apq
                w[p, q] = 0.0
                w[q, p] = 0.0
                vp = v[:, p].copy()
                v[:, p] = c * vp - s * v[:, q]
                v[:, q] = s * vp + c * v[:, q]
        off = _off_norm(w)
    if off > target:
        raise ConvergenceError(
            f"Jacobi sweeps did not converge in {max_sweeps} sweeps "
            f"(off-diagonal norm {off:.3e})",
            last=w,
            residual=off,
        )
    return _sorted_pairs(np.diag(w).copy(), v)


def projector(basis):
    """Orthogonal projector U U^T onto the span of the given vectors.

    ``basis`` is a sequence of 1-D arrays (or a 2-D array of rows).  The
    vectors are orthonormalized by modified Gram-Schmidt; a pivot below
    1e-12 means the family is numerically rank deficient.
    """
    rows = np.atleast_2d(np.asarray(basis, dtype=np.float64))
    if rows.ndim != 2:
        raise ValueError("basis must be a sequence of vectors")
    if rows.shape[0] == 0:
        raise ValueError("basis is empty")
    if not np.all(np.isfinite(rows)):
        raise ValueError("basis contains non-finite entries")
    u = np.empty_like(rows)
    for i, vec in enumerate(rows):
        w = vec.copy()
        for j in range(i):
            w -= (u[j] @ w) * u[j]
        piv = float(np.linalg.norm(w))
        if piv < 1e-12:
            raise ValueError(
                f"basis vector {i} is numerically dependent on its "
                f"predecessors (pivot {piv:.3e})"
            )
        u[i] = w / piv
    return u.T @ u


def dense_mcm_recursion(xs, cov_schedule, *, psd_mode=True, median_schedule=None,
                        known_median=None):
    """Reference for ``MedianCovariationSGD``: one pass that materializes
    each target Y = c c^T and the distance |Y - V|_F, and returns the
    averaged iterate Vbar.

    With ``known_median`` None the median runs jointly: the first row
    only seeds it, and each later row is centered at the median average
    from before that row's own median step.
    """
    xs = np.asarray(xs, dtype=np.float64)
    d = xs.shape[1]
    v = np.zeros((d, d))
    vbar = np.zeros((d, d))
    m = mbar = None
    n = k = 0
    for x in xs:
        if known_median is not None:
            c = x - known_median
        elif m is None:
            m, mbar = x.copy(), x.copy()
            continue
        else:
            c = x - mbar
            gap = float(np.linalg.norm(x - m))
            if gap > 0.0:
                m = m + median_schedule.gamma(k + 1) / gap * (x - m)
            k += 1
            mbar = mbar + (m - mbar) / k
        y = np.outer(c, c)
        dist = float(np.linalg.norm(y - v))
        if dist > 0.0:
            gamma = cov_schedule.gamma(n + 1)
            step = min(gamma, dist) if psd_mode else gamma
            v = v + step / dist * (y - v)
        n += 1
        vbar = vbar + (v - vbar) / n
    return vbar


def whole_matrix_mcm_step(est, x):
    """Reference for ``MedianCovariationSGD._update``: the same step on a
    checked row, with every d x d pass over the whole matrix and c c^T
    from one broadcast product.  Steps ``est`` in place; the step must
    match it bit for bit."""
    c = est._c
    median = est._median
    if median is not None and not median.initialized:
        median._update(x)
        return est
    np.subtract(x, est._center, out=c)
    mx = float(np.abs(c).max())
    if mx == np.inf:
        raise NumericalError("the row minus the center overflows float64")
    scale = mx if mx > _HUGE_ENTRY else 1.0
    if scale != 1.0:
        c /= scale
    su = float(c @ c)
    move = _step(est.cov_schedule.gamma(est._n + 1), scale, su, float(c @ np.dot(est._v, c)),
                 est._fro2, est.psd_mode)
    if median is not None:
        median._update(x)
    if move is not None:
        omt, t_gain, est._fro2 = move
        outer = est._buf
        np.multiply(c[:, None], c, out=outer)
        est._v *= omt
        np.multiply(outer, t_gain, out=outer)
        est._v += outer
    est._n += 1
    np.subtract(est._v, est._vbar, out=est._buf)
    est._buf /= est._n
    est._vbar += est._buf
    if est._n % _FRO2_REFRESH == 0:
        est._fro2 = float(np.tensordot(est._v, est._v))
    return est


def per_mode_mcm_fits(xs, psd_modes, **schedules):
    """Reference for the lanes of ``mcm._block_fits``: one one-mode
    ``_block_fits`` of ``xs`` per PSD mode, each as (V, Vbar, |V|_F^2)."""
    return [_block_fits(xs, [psd], **schedules)[0] for psd in psd_modes]


def tracker_step(self, v_bar):
    """Reference for ``OnlineEigenTracker.step``: each carrier's norm is
    computed where it is used, and the carriers are always reordered
    by a sort.  Steps the tracker ``self`` in place (read it back with
    ``tracker_readouts``); the tracker's step must match it bit for bit."""
    r = self._carriers()
    if v_bar.shape != (self._d, self._d):
        raise ValueError(f"expected a {self._d}x{self._d} matrix, got shape {v_bar.shape}")
    norms = np.linalg.norm(r, axis=1)
    g = 1.0 / (self._n + 1)
    w = r / norms[:, None]  # pre-step normalized carriers
    r = r * (1.0 - g)  # a new array: a failed step writes nothing
    r += g * (w @ v_bar)
    # vdot overflows to inf without a warning; deflation only shrinks
    if not np.vdot(r, r) < np.inf:
        raise NumericalError("the tracker carriers' squared norm overflows float64")
    # deflation: orthogonalize each carrier against the ones before
    # it, writing the residual back so norms keep tracking lambda_j
    for j in range(self._q):
        _orthogonalize(r[j], r[:j])
        if float(np.linalg.norm(r[j])) < _COLLAPSE_EPS:
            r[j] = tracker_fresh_unit(self, r[:j])
            self._reinits += 1
    norms = np.linalg.norm(r, axis=1)
    order = np.argsort(-norms, kind="stable")
    self._raw = r[order]
    self._n += 1


def _orthogonalize(v, rows):
    """Subtract from ``v``, in place and in turn, its projection on each
    of ``rows``; returns ``v``."""
    for u in rows:
        v -= (u @ v) / (u @ u) * u
    return v


def tracker_fresh_unit(self, prefix):
    """Reference for ``OnlineEigenTracker._fresh_unit``: the same Philox
    draw, deflated by ``_orthogonalize`` and normalized by
    ``np.linalg.norm``."""
    while True:
        seq = np.random.SeedSequence([self._seed, self._rng_draws])
        self._rng_draws += 1
        rng = np.random.Generator(np.random.Philox(seq))
        v = _orthogonalize(rng.standard_normal(self._d), prefix)
        norm = float(np.linalg.norm(v))
        if norm > 1e-6:
            return v / norm


def tracker_offer(self, v):
    """Reference for ``OnlineEigenTracker._offer``: the warm-up rows are
    unit vectors, so each projection is ``(row @ v) * row``, with no
    division."""
    if np.isinf(np.vdot(v, v)):  # |v|^2 overflows past ~1e154
        v /= np.abs(v).max()
    for row in self._raw[:self._filled]:
        v -= (row @ v) * row
    norm = vector_norm(v)
    if norm > _DISTINCT_EPS:
        self._raw[self._filled] = v / norm
        self._filled += 1
    return self.ready


def tracker_force_ready(self):
    """Reference for ``OnlineEigenTracker.force_ready``, drawing each open
    slot with ``tracker_fresh_unit``."""
    while not self.ready:
        self._raw[self._filled] = tracker_fresh_unit(self, self._raw[:self._filled])
        self._filled += 1
    return self


def tracker_readouts(tracker):
    """``(raw, basis, eigenvalues)`` of a tracker stepped by
    ``tracker_step``, each norm taken by ``np.linalg.norm``."""
    r = tracker._carriers()
    norms = np.linalg.norm(r, axis=1)
    return r.copy(), r / norms[:, None], norms


def csv_rows_per_cell(path, *, skip_header=False):
    """Reference for ``iter_csv_rows``: yields (line_number, vector), each
    cell parsed and checked on its own; the same DataError messages."""
    with open(path, "r", encoding="utf-8") as fh:
        dim = None
        for line_no, line in enumerate(fh, start=1):
            if skip_header and line_no == 1:
                continue
            cells = line.rstrip("\n").split(",")
            if dim is None:
                dim = len(cells)
            elif len(cells) != dim:
                raise DataError(
                    f"{path}: line {line_no}: expected {dim} columns, got {len(cells)}"
                )
            vec = np.empty(len(cells))
            for col, cell in enumerate(cells):
                try:
                    value = float(cell)
                except ValueError:
                    raise DataError(
                        f"{path}: line {line_no}, column {col + 1}: "
                        f"not a number: {cell.strip()!r}"
                    ) from None
                if not np.isfinite(value):
                    raise DataError(
                        f"{path}: line {line_no}, column {col + 1}: "
                        f"non-finite value {cell.strip()!r}"
                    )
                vec[col] = value
            yield line_no, vec


def median_objective(points, u):
    """Summed Euclidean distances from ``u`` to the sample points."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError(f"expected a 2-D sample array, got shape {pts.shape}")
    u = as_vector(u, dim=pts.shape[1])
    return float(np.linalg.norm(pts - u, axis=1).sum())


def entrywise_median(c):
    """Entrywise median of the rank-one matrices c_i c_i^T, over the full
    (n, d, d) stack; exactly symmetric, since c_i c_j = c_j c_i."""
    return np.median(c[:, :, None] * c[:, None, :], axis=0)


def mcm_objective(points, m_hat, v):
    """Empirical MCM objective sum_i (|Y_i - V|_F - |Y_i|_F) with
    Y_i = (X_i - m)(X_i - m)^T.

    The subtraction of |Y_i|_F keeps the population version finite for
    heavy-tailed laws; it is a constant shift for fixed data, so the
    minimizer is the sample MCM either way.  Note |Y_i|_F = |X_i - m|^2.
    """
    c = _centered(points, m_hat)
    v = as_sym_matrix(v)
    if v.shape[0] != c.shape[1]:
        raise ValueError(f"dimension mismatch: expected {c.shape[1]}x{c.shape[1]}, got {v.shape}")
    s = np.einsum("ij,ij->i", c, c)
    fro2 = float(np.tensordot(v, v))
    return float((_rank_one_distances(c, s, v, fro2) - s).sum())


def plain_weiszfeld(rows, x0, dists, wmean, eps, max_iter, scale=1.0):
    """``medcov.geomedian.weiszfeld`` with plain sweeps only, as it ran
    before it extrapolated: ``(fit, sweeps)``, where ``sweeps`` counts the
    distance passes, one per sweep."""
    tol = eps * scale
    x = x0
    disp = np.inf
    for sweep in range(1, max_iter + 1):
        dist = dists(x)
        anchored = dist <= 1e-12
        if anchored.any():
            free = ~anchored
            if not free.any():
                return x, sweep
            inv = 1.0 / dist[free]
            pull = wmean(rows[free], inv) - float(inv.sum()) * x
            pull_norm = float(np.linalg.norm(pull))
            eta = float(anchored.sum())
            if pull_norm <= eta:
                return x, sweep
            lam = min(1.0, eta / pull_norm)
            x_new = (1.0 - lam) * wmean(rows[free], inv / inv.sum()) + lam * x
        else:
            w = 1.0 / dist
            w /= w.sum()
            x_new = wmean(rows, w)
        disp = float(np.linalg.norm(x_new - x))
        if not np.isfinite(disp):
            raise NumericalError(f"Weiszfeld iterate overflowed (displacement {disp})")
        x = x_new
        if disp <= tol:
            return x, sweep
    raise ConvergenceError("plain Weiszfeld did not converge", last=x, residual=disp)
