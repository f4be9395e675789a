"""The operator norm of a dense symmetric matrix, and the certified bound on
it that normalises observable-general's Gram matrix."""
from __future__ import annotations

import math

import numpy as np

from .bits import DimensionError

# certified_norm stops once its lower bound is within CW_GAP (relative) of
# its upper end, or after CW_SWEEPS matrix-vector products; the upper end is
# a bound either way, only a looser one at the cap
CW_GAP = 2.0**-30
CW_SWEEPS = 64


def operator_norm(matrix) -> float:
    """Largest absolute eigenvalue of a symmetric matrix, from the eigensolver.

    The matrix must be square and exactly symmetric; the zero matrix has
    norm 0.0.
    """
    arr = np.ascontiguousarray(matrix, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionError("operator norm needs a square matrix")
    if not np.array_equal(arr, arr.T):
        raise ValueError("operator norm path requires an exactly symmetric matrix")
    if not np.any(arr):
        return 0.0
    return float(np.abs(np.linalg.eigvalsh(arr)).max())


def certified_norm(gram: np.ndarray) -> float:
    """A float never below the norm lambda of a Gram matrix of 0/1 rows
    (float64, so exact small integers, symmetric and nonnegative), and
    within CW_GAP of lambda unless the sweep cap ends the iteration.

    The iteration keeps a positive integer vector v. For every such v,
    hi = max_i (Gv)_i / v_i >= lambda (Collatz-Wielandt), and the Rayleigh
    quotient v.Gv / v.v <= lambda; it stops once the quotient is within
    CW_GAP of hi. Zero rows go first, so (Gv)_i >= G_ii v_i > 0 on the
    rest. v starts at 1, so the first Gv is the row sums; each later v is
    ceil(Gv * 2^e), with e chosen so that (max row sum) * (max v) < 2^53.
    Every Gv is then exact in any summation order, and the quotient is an
    elementwise product and a fixed-order sum, so no BLAS kernel can change
    the result. Each float ratio is the exact (Gv)_i / v_i correctly
    rounded, so the float after their maximum bounds them all.
    """
    keep = gram.diagonal() > 0
    if not keep.all():
        if not keep.any():
            return 0.0
        gram = gram[keep][:, keep]
    w, v, ratio, prod = np.ones((4, gram.shape[0]))
    np.matmul(gram, v, out=w)
    room = 53 - math.frexp(np.maximum.reduce(w))[1]  # max v <= 2^room
    hi, lo = math.inf, 0.0
    for sweep in range(1, CW_SWEEPS + 1):
        last, hi = hi, float(np.maximum.reduce(np.divide(w, v, out=ratio)))
        # the quotient closes on lambda quadratically faster than hi does, so
        # it is taken only once hi has nearly stopped falling
        if last - hi <= hi * 2.0**-24:
            vw = np.add.reduce(np.multiply(v, w, out=prod))
            lo = vw / np.add.reduce(np.multiply(v, v, out=prod))
        if lo >= hi - hi * CW_GAP or sweep == CW_SWEEPS:
            return math.nextafter(hi, math.inf)
        np.multiply(w, 2.0 ** (room - math.frexp(np.maximum.reduce(w))[1]), out=v)
        np.ceil(v, out=v)
        np.matmul(gram, v, out=w)
