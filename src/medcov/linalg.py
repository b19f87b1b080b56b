"""Dense symmetric-matrix helpers and input checks used throughout the
package.

All matrices are plain float64 ``numpy`` arrays.  Symmetric inputs are
validated and re-symmetrized on entry so downstream code can rely on
exact symmetry.
"""

from __future__ import annotations

import base64
import math
import sys

import numpy as np

from .errors import DataError

_SIGN_EPS = 1e-12


def as_vector(x, *, dim=None):
    """Coerce ``x`` to a finite 1-D float64 array."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {v.shape[0]}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector contains non-finite entries")
    return v


def as_sample(points):
    """Coerce ``points`` to a finite, non-empty 2-D float64 array of rows."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError(f"expected a non-empty 2-D sample array, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("sample contains non-finite entries")
    return pts


def vector_norm(v):
    """Euclidean norm of a finite 1-D float64 array, bit for bit
    ``np.linalg.norm(v)`` wherever that is finite.

    Only when ``v @ v`` overflows (entries past about 1e154) is it
    recomputed from ``v / max|v_i|``, so the result is finite whenever the
    norm itself is, and the common path costs one comparison.  ``np.vdot``
    runs the same BLAS dot as ``np.linalg.norm`` without an overflow
    warning, and faster.  An infinite entry gives inf, without a warning.
    """
    norm = math.sqrt(np.vdot(v, v))
    if norm == math.inf:
        scale = float(np.abs(v).max())
        if scale < math.inf:
            norm = scale * math.sqrt(np.vdot(v / scale, v / scale))
    return norm


def pack_array(a):
    """Snapshot text of a float64 array: base64 of its little-endian bytes
    in C order.  :func:`state_field` reads it back bit for bit."""
    raw = np.ascontiguousarray(a, dtype="<f8").tobytes()
    return base64.b64encode(raw).decode("ascii")


def _unpack_array(key, text, shape):
    size = math.prod(shape)
    expected = 4 * -(-8 * size // 3)  # checked before decoding anything
    if len(text) != expected:
        raise DataError(
            f"{key}: expected {expected} base64 characters for shape {shape}, got {len(text)}"
        )
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError:  # binascii.Error, or a non-ASCII character
        raise DataError(f"{key}: not base64 text") from None
    if len(raw) != 8 * size:  # too few padding characters
        raise DataError(f"{key}: expected {8 * size} bytes, got {len(raw)}")
    return np.frombuffer(raw, dtype="<f8").reshape(shape)


def state_field(state, key, kind, shape=None, *, low=None, nullable=False):
    """Checked read of ``state[key]`` from a loaded snapshot payload.

    ``kind`` is ``int``, ``float`` (which admits ints), ``bool``, ``str``,
    ``dict`` or ``np.ndarray``; a bool passes only as ``bool``, numbers
    must be finite float64 values of at least ``low``, and an array must
    be numeric, finite and of the given ``shape``.  An array is a nested
    list or the :func:`pack_array` text, whose length is checked before
    it is decoded.  ``nullable`` admits None.  Values come back unchanged
    (arrays as float64), so a resumed run stays bitwise.  Raises
    :class:`DataError` reading ``"<key>: <problem>"``.
    """
    if not isinstance(state, dict) or key not in state:
        raise DataError(f"{key}: missing")
    value = state[key]
    if value is None and nullable:
        return None
    if kind is np.ndarray:
        if isinstance(value, str):
            arr = _unpack_array(key, value, shape)
        else:
            try:
                arr = np.asarray(value)
                numeric = arr.dtype.kind in "iuf"
            except ValueError:  # ragged nesting
                numeric = False
            if not numeric:
                raise DataError(f"{key}: expected a numeric array")
            if arr.shape != shape:
                raise DataError(f"{key}: expected shape {shape}, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise DataError(f"{key}: non-finite entries")
        return arr.astype(np.float64)
    if (not isinstance(value, (int, float) if kind is float else kind)
            or isinstance(value, bool) != (kind is bool)
            or kind in (int, float) and not abs(value) <= sys.float_info.max):
        raise DataError(f"{key}: expected {kind.__name__}, got {value!r}")
    if low is not None and value < low:
        raise DataError(f"{key}: must be >= {low}, got {value!r}")
    return value


def load_state_part(state, key, loader):
    """``loader(state[key])`` for a nested snapshot payload; a
    :class:`DataError` it raises is renamed to the field ``key.<field>``."""
    part = state_field(state, key, dict)
    try:
        return loader(part)
    except DataError as exc:
        raise DataError(f"{key}.{exc}") from None


def as_sym_matrix(a, *, tol=1e-8):
    """Coerce ``a`` to an exactly symmetric float64 matrix.

    Asymmetry up to ``tol`` (relative to the largest entry) is folded
    away by averaging with the transpose; anything larger is an error.
    """
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")
    scale = max(float(np.abs(m).max()), 1.0)
    gap = float(np.abs(m - m.T).max())
    if gap > tol * scale:
        raise ValueError(f"matrix is not symmetric (max asymmetry {gap:.3e})")
    return (m + m.T) / 2.0


def _fix_signs(vectors):
    """Flip column signs so the first coordinate with |v_i| > 1e-12 is positive."""
    big = np.abs(vectors) > _SIGN_EPS
    cols = np.arange(vectors.shape[1])
    first = big.argmax(axis=0)  # 0 for a column with no such coordinate
    vectors[:, big[first, cols] & (vectors[first, cols] < 0)] *= -1.0
    return vectors


def eigh_descending(a):
    """LAPACK eigendecomposition, eigenvalues descending.

    Returns ``(values, vectors)`` with eigenvectors in the columns of
    ``vectors``, each with its first coordinate of magnitude > 1e-12
    made positive, which pins the sign deterministically.
    """
    values, vectors = np.linalg.eigh(as_sym_matrix(a))
    values = values[::-1].copy()
    vectors = _fix_signs(vectors[:, ::-1].copy())
    return values, vectors
