"""An eigensolver-free operator norm for dense symmetric matrices."""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .bits import DimensionError


class NumericError(RuntimeError):
    """An iterative numeric routine failed to converge."""


def _seeded(dim: int) -> np.random.Generator:
    return np.random.default_rng(0xC0FFEE ^ dim)


@lru_cache(maxsize=8)
def _start_vector(dim: int) -> np.ndarray:
    """The first draw of the dimension's seeded generator, as a unit vector."""
    v = _seeded(dim).standard_normal(dim)
    v /= math.sqrt(v @ v)
    v.flags.writeable = False
    return v


def operator_norm(matrix, max_iter: int = 20000) -> float:
    """Largest absolute eigenvalue of a symmetric matrix via power iteration.

    Iterates on M @ M (so paired eigenvalues +-lambda cannot stall it) and
    stops after three consecutive sweeps whose estimate is within 1e-13
    (relative) of the sweep before. The start vector is seeded from the
    dimension alone, so results are reproducible. Raises NumericError after
    ``max_iter`` sweeps.
    """
    arr = np.ascontiguousarray(matrix, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionError("operator norm needs a square matrix")
    if not np.array_equal(arr, arr.T):
        raise ValueError("operator norm path requires an exactly symmetric matrix")
    if not np.any(arr):
        return 0.0
    return _power_norm(arr, max_iter)


def _power_norm(arr: np.ndarray, max_iter: int = 20000) -> float:
    """``operator_norm``'s iteration, for a caller that knows ``arr`` is a
    nonzero, exactly symmetric, square float64 matrix."""
    dim = arr.shape[0]
    v = _start_vector(dim)
    restarts = None
    estimate = 0.0
    stable = 0
    for _ in range(max_iter):
        w = arr @ v
        nw = math.sqrt(w @ w)
        if nw == 0.0:
            # v sits in the null space; restart from a fresh direction, the
            # next draw of the generator that seeded the start vector
            if restarts is None:
                restarts = _seeded(dim)
                restarts.standard_normal(dim)
            v = restarts.standard_normal(dim)
            v /= math.sqrt(v @ v)
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
