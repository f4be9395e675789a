"""The operator norm of a dense symmetric matrix, and the power iteration
that normalises observable-general's Gram matrix."""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .bits import DimensionError, SharedRandomness


class NumericError(RuntimeError):
    """An iterative numeric routine failed to converge."""


@lru_cache(maxsize=8)
def _start_vector(dim: int) -> np.ndarray:
    """The first ``dim`` doubles of the dimension's stream, as a unit vector.
    It is nonnegative, like the top eigenvector of a 0/1 Gram matrix."""
    v = (SharedRandomness(0xC0FFEE, dim).words(dim) >> 11) * 2.0**-53
    v /= math.sqrt(v @ v)
    v.flags.writeable = False
    return v


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


def _power_norm(arr: np.ndarray, max_iter: int = 20000) -> float:
    """The norm Alice's observable-general encoder ships: power iteration on
    M @ M (so paired eigenvalues +-lambda cannot stall it) from the
    dimension's start vector, stopping after three consecutive sweeps whose
    estimate is within 1e-13 (relative) of the sweep before. Raises
    NumericError after ``max_iter`` unsettled sweeps.

    Precondition: ``arr`` is a nonzero square float64 Gram matrix of 0/1
    rows, as Alice builds it, so exactly symmetric and nonnegative. The
    start vector v is strictly positive, and (Mv)_i >= M_ii v_i > 0 on
    every nonzero row; every later v stays positive there, so neither M v
    nor M M v is ever the zero vector.
    """
    v = _start_vector(arr.shape[0])
    estimate, stable = 0.0, 0
    for _ in range(max_iter):
        w = arr @ v
        nw = math.sqrt(w @ w)  # ||M v|| -> sqrt(lambda_max(M^2)) for unit v
        u = arr @ w
        v = u / math.sqrt(u @ u)
        if abs(nw - estimate) <= 1e-13 * nw:
            stable += 1
            if stable >= 3:
                return nw
        else:
            stable = 0
        estimate = nw
    raise NumericError(f"operator norm did not converge in {max_iter} iterations")
