"""Geometric median estimators.

Two routes to the same target: a one-pass averaged stochastic gradient
recursion for streams, and damped Weiszfeld iterations for in-memory
batches.  The geometric median of a distribution is the minimizer of
``E[|X - u| - |X|]``; for a finite sample that is the classical Fermat
point, the minimizer of the summed Euclidean distances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DataError, NumericalError
from .linalg import as_sample, as_vector, state_field, vector_norm

_WEISZFELD_CLAMP = 1e-12


@dataclass(frozen=True)
class StepSchedule:
    """Polynomially decaying step sizes gamma_n = c * n**(-alpha).

    The exponent must sit strictly inside (1/2, 1): slow enough decay
    that the iterates keep moving, fast enough that averaging kills the
    noise.  Step indexing starts at n = 1, so the first step is c.
    """

    c: float = 2.0
    alpha: float = 0.75

    def __post_init__(self):
        if not (self.c > 0):
            raise ValueError(f"step constant must be positive, got {self.c}")
        if self.c == np.inf:
            raise ValueError(f"step constant must be finite, got {self.c}")
        if not (0.5 < self.alpha < 1.0):
            raise ValueError(
                f"step exponent must lie in (0.5, 1), got {self.alpha}"
            )

    def gamma(self, n):
        if n < 1:
            raise ValueError(f"step index must be >= 1, got {n}")
        return self.c * float(n) ** (-self.alpha)


def load_schedule(state, c_key, alpha_key):
    """The :class:`StepSchedule` stored under two snapshot fields."""
    c = state_field(state, c_key, float)
    alpha = state_field(state, alpha_key, float)
    try:
        return StepSchedule(c, alpha)
    except ValueError as exc:
        raise DataError(f"{c_key}/{alpha_key}: {exc}") from None


class RowUpdates:
    """Base of the streaming estimators (the median, the MCM and the
    ``StreamingRobustPCA`` pipeline): it owns their row contract.

    ``dim`` is checked once, here.  ``update(x)`` checks one row with
    :func:`as_vector` (1-D, ``dim`` long, finite) and hands it to the
    subclass's unchecked ``_update``.  ``update_many(xs)`` checks the
    whole block (2-D, ``dim`` wide, finite) before any state changes,
    then runs ``_update`` on each row, so a rejected block leaves the
    estimator as it was.  An estimator that feeds another one a row it
    has already checked calls the inner estimator's ``_update``.  Each
    estimator raises :class:`NumericalError`, before any state changes,
    on a row whose difference from its center (the median) overflows.
    """

    def __init__(self, dim):
        self._dim = int(dim)
        if self._dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")

    @property
    def dim(self):
        return self._dim

    def update(self, x):
        return self._update(as_vector(x, dim=self._dim))

    def update_many(self, xs):
        for row in self._checked(xs):
            self._update(row)
        return self

    def _checked(self, xs):
        xs = np.asarray(xs, dtype=np.float64)
        if xs.shape[1:] != (self._dim,):
            raise ValueError(f"expected a 2-D sample array {self._dim} wide, got shape {xs.shape}")
        if not np.isfinite(xs).all():
            raise ValueError("sample contains non-finite entries")
        return xs


class GeometricMedianSGD(RowUpdates):
    """Averaged stochastic gradient iteration for the geometric median.

    The first observation seeds both the iterate and its running average
    without counting as an update.  Each later observation x moves the
    iterate a distance of exactly gamma_n along the unit direction from
    the iterate toward x, then folds the result into the Polyak-Ruppert
    average:

        m <- m + gamma_n * (x - m) / |x - m|
        mbar <- mbar + (m - mbar) / (n + 1)

    An observation that lands exactly on the iterate contributes no move
    but still advances the counter and the average.
    """

    def __init__(self, dim, schedule=None):
        super().__init__(dim)
        self.schedule = schedule if schedule is not None else StepSchedule()
        self._m = None
        self._mbar = None
        self._n = 0
        self._diff = np.empty(self._dim)  # scratch, so the hot loop never allocates

    @property
    def initialized(self):
        return self._m is not None

    @property
    def iterate(self):
        return None if self._m is None else self._m.copy()

    @property
    def estimate(self):
        """Current averaged iterate (the estimator to report)."""
        return None if self._mbar is None else self._mbar.copy()

    def _update(self, x):
        if self._m is None:
            self._m = x.copy()
            self._mbar = x.copy()
            return self
        diff = np.subtract(x, self._m, out=self._diff)
        dist = vector_norm(diff)  # finite for rows past 1e154 too
        if dist == np.inf:
            raise NumericalError("the row minus the median iterate overflows float64")
        if dist > 0.0:
            diff *= self.schedule.gamma(self._n + 1) / dist
            self._m += diff
        self._n += 1
        np.subtract(self._m, self._mbar, out=diff)  # the average folds through the scratch
        diff /= self._n
        self._mbar += diff
        return self

    def state_dict(self):
        return {
            "dim": self._dim,
            "n": self._n,
            "c": self.schedule.c,
            "alpha": self.schedule.alpha,
            "m": None if self._m is None else self._m.tolist(),
            "mbar": None if self._mbar is None else self._mbar.tolist(),
        }

    @classmethod
    def from_state_dict(cls, state):
        dim = state_field(state, "dim", int, low=1)
        est = cls(dim, schedule=load_schedule(state, "c", "alpha"))
        est._m = state_field(state, "m", np.ndarray, (dim,), nullable=True)
        if est._m is not None:
            est._mbar = state_field(state, "mbar", np.ndarray, (dim,))
        est._n = state_field(state, "n", int, low=0)
        return est


def weiszfeld_median(points, eps=1e-8, max_iter=1000):
    """Weiszfeld fixed-point iteration for the sample geometric median.

    Runs :func:`weiszfeld` in R^d from the coordinate-wise median.  A row
    whose squared distance overflows (past about 1e154) has its distance
    taken by :func:`vector_norm`, so it keeps its unit pull; only a row
    whose distance itself overflows gets weight 0, the limit of
    1/distance, without a warning.
    """
    pts = as_sample(points)

    def dists(x):
        diff = pts - x
        dist = np.linalg.norm(diff, axis=1)
        for i in np.flatnonzero(dist == np.inf):
            dist[i] = vector_norm(diff[i])
        return dist

    with np.errstate(over="ignore", invalid="ignore"):
        return weiszfeld(pts, np.median(pts, axis=0), dists,
                         lambda rows, w: w @ rows, eps, max_iter)


def weiszfeld(rows, x0, dists, wmean, eps, max_iter, scale=1.0):
    """Weiszfeld iteration with the Vardi-Zhang anchor rule, shared by
    :func:`weiszfeld_median` and :func:`medcov.mcm.weiszfeld_mcm`.

    ``dists(x)`` gives the distances from ``x`` to the data points and
    ``wmean(rows, w)`` the ``w``-weighted sum of the data points that
    ``rows`` describes.  Starting from ``x0``, each sweep repeats

        x <- sum_i w_i X_i,   w_i = (1/|X_i - x|) / sum_j (1/|X_j - x|)

    until the iterate moves by at most ``eps * scale``.  Each sweep is a
    majorize-minimize step, so the objective never increases.  A sweep
    whose displacement is not finite means the iterate overflowed
    float64; it raises :class:`NumericalError` at once.

    When the iterate sits on a data point (distance at most 1e-12) the
    plain weights would pin it there even if it is not the minimizer --
    which happens immediately for a 3-point set whose coordinate-wise
    median is a vertex.  Those steps use the Vardi-Zhang rule instead
    (PNAS 2000): leave the anchor only if the unit pull of the other
    points exceeds the anchor's multiplicity, retreating along the plain
    step accordingly.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if not 0.0 <= eps < np.inf:
        raise ValueError(f"eps must be finite and >= 0, got {eps}")
    tol = eps * scale
    x = x0
    disp = np.inf
    for _ in range(max_iter):
        dist = dists(x)
        anchored = dist <= _WEISZFELD_CLAMP
        if anchored.any():
            free = ~anchored
            if not free.any():
                return x  # every point coincides with the iterate
            inv = 1.0 / dist[free]
            pull = wmean(rows[free], inv) - float(inv.sum()) * x
            pull_norm = float(np.linalg.norm(pull))
            eta = float(anchored.sum())
            if pull_norm <= eta:
                return x  # the anchor satisfies the optimality condition
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
            return x
    raise ConvergenceError(
        f"Weiszfeld iteration did not converge in {max_iter} sweeps "
        f"(last displacement {disp:.3e})",
        last=x,
        residual=disp,
    )
