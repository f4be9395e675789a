"""A power-iteration operator norm for dense symmetric matrices."""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .bits import DimensionError, SharedRandomness


class NumericError(RuntimeError):
    """An iterative numeric routine failed to converge."""


def _unit_doubles(dim: int, skip: int) -> np.ndarray:
    """The ``skip``-th ``dim`` doubles of the dimension's stream, as a unit vector."""
    words = SharedRandomness(0xC0FFEE, dim).words((skip + 1) * dim)[skip * dim :]
    v = (words >> 11) * 2.0**-53
    v /= math.sqrt(v @ v)
    return v


@lru_cache(maxsize=8)
def _start_vector(dim: int) -> np.ndarray:
    """The first ``dim`` doubles of the dimension's stream, as a unit vector.
    It is nonnegative, like the top eigenvector of a 0/1 Gram matrix."""
    v = _unit_doubles(dim, 0)
    v.flags.writeable = False
    return v


def operator_norm(matrix, max_iter: int = 20000) -> float:
    """Largest absolute eigenvalue of a symmetric matrix via power iteration.

    Iterates on M @ M (so paired eigenvalues +-lambda cannot stall it) and
    stops after three consecutive sweeps whose estimate is within 1e-13
    (relative) of the sweep before. The start vector is drawn from the
    dimension alone, so results are reproducible.

    When the top two |eigenvalues| nearly tie, that iteration crawls: it
    settles short of the norm or runs out of sweeps. So a three-vector
    subspace iteration checks it, and its value is returned unless the
    power estimate, the float Alice's encoder computes, lies within 1e-10
    (relative) of it. Raises NumericError if the subspace iteration runs
    ``max_iter`` sweeps unsettled.
    """
    arr = np.ascontiguousarray(matrix, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionError("operator norm needs a square matrix")
    if not np.array_equal(arr, arr.T):
        raise ValueError("operator norm path requires an exactly symmetric matrix")
    if not np.any(arr):
        return 0.0
    checked = _subspace_norm(arr, max_iter)
    try:
        estimate = _power_norm(arr, max_iter)
    except NumericError:
        return checked
    return estimate if abs(checked - estimate) <= 1e-10 * checked else checked


def _subspace_norm(arr: np.ndarray, max_iter: int) -> float:
    """Subspace iteration on M @ M over three vectors: the largest |Ritz
    value| of M on the span, once three consecutive sweeps agree to 1e-13
    (relative). Its error shrinks with the fourth-largest |eigenvalue| over
    the largest, however close the top three are. The vectors are signed
    doubles of the dimension's own substream, so results are reproducible."""
    dim = arr.shape[0]
    words = SharedRandomness(0xC0FFEE, dim).substream(0).words(3 * dim)
    block = ((words >> 11) * 2.0**-53 - 0.5).reshape(dim, 3)
    estimate, stable = 0.0, 0
    for _ in range(max_iter):
        basis = np.linalg.qr(block)[0]
        image = arr @ basis
        ritz = float(np.abs(np.linalg.eigvalsh(basis.T @ image)).max())
        if abs(ritz - estimate) <= 1e-13 * ritz:
            stable += 1
            if stable >= 3:
                return ritz
        else:
            stable = 0
        estimate = ritz
        block = arr @ image
    raise NumericError(f"operator norm did not converge in {max_iter} iterations")


def _power_norm(arr: np.ndarray, max_iter: int = 20000) -> float:
    """``operator_norm``'s iteration, for a caller that knows ``arr`` is a
    nonzero, exactly symmetric, square float64 matrix."""
    dim = arr.shape[0]
    v = _start_vector(dim)
    restarts = 0
    estimate = 0.0
    stable = 0
    for _ in range(max_iter):
        w = arr @ v
        nw = math.sqrt(w @ w)
        if nw == 0.0:
            # v sits in the null space; restart from a fresh direction, the
            # next ``dim`` doubles of the stream the start vector came from
            restarts += 1
            v = _unit_doubles(dim, restarts)
            stable = 0
            continue
        u = arr @ w
        nu = math.sqrt(u @ u)
        new_estimate = nw  # ||M v|| -> sqrt(lambda_max(M^2)) for unit v
        if nu != 0.0:
            v = u / nu
        else:
            v = w / nw
        if estimate > 0.0 and abs(new_estimate - estimate) <= 1e-13 * new_estimate:
            stable += 1
            if stable >= 3:
                return new_estimate
        else:
            stable = 0
        estimate = new_estimate
    raise NumericError(f"operator norm did not converge in {max_iter} iterations")
