"""Hot numeric kernels, vectorized in numpy.

``benchmarks/bench_kernels.py`` times each of them on protocol-scale inputs.
"""
from __future__ import annotations

import numpy as np


def fwht(vec: np.ndarray) -> np.ndarray:
    """In-place-style Walsh-Hadamard butterflies on a fresh int64 copy."""
    out = np.array(vec, dtype=np.int64, copy=True)
    n = out.shape[0]
    h = 1
    while h < n:
        blocks = out.reshape(-1, 2 * h)
        left = blocks[:, :h].copy()
        right = blocks[:, h:].copy()
        blocks[:, :h] = left + right
        blocks[:, h:] = left - right
        h *= 2
    return out


def parity_u64(values: np.ndarray) -> np.ndarray:
    """Per-element parity of the set bits of a uint64 array, as int8 0 or 1.

    Signed, so that ``1 - 2 * parity`` gives the +-1 signs without wrapping.
    """
    return (np.bitwise_count(values) & 1).view(np.int8)


def pauli_quad(nums: np.ndarray, z_mask: int, x_mask: int) -> int:
    """Quadratic form sum(s_y * nums[y] * nums[y ^ x]) with s_y = (-1)^|y & z|."""
    n = nums.shape[0]
    idx = np.arange(n, dtype=np.uint64)
    signs = 1 - 2 * parity_u64(idx & np.uint64(z_mask))
    partner = (idx ^ np.uint64(x_mask)).astype(np.int64)
    return int(np.sum(signs * nums * nums[partner]))


def majority_rows(pads: np.ndarray, selected: np.ndarray) -> np.ndarray:
    """Row-wise strict majority of the selected columns of a 0/1 matrix.

    Ties (possible only for even selection counts) resolve to 0, as does an
    empty selection.
    """
    if selected.size == 0:
        return np.zeros(pads.shape[0], dtype=np.uint8)
    counts = pads[:, selected].sum(axis=1, dtype=np.int64)
    return (2 * counts > selected.size).astype(np.uint8)


def majority_blocks(pads: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """``majority_rows`` for every row of a 0/1 selection matrix, in one matmul.

    Row j of the result is ``majority_rows(pads, nonzero(blocks[j]))``. The
    counts are summed in float32, exact while they stay below 2^24, which
    needs fewer than 2^24 columns in ``pads``; so are the halved block
    weights, since halves of integers below 2^24 are representable.
    """
    sel = blocks.astype(np.float32)
    counts = sel @ pads.T.astype(np.float32)
    half = sel.sum(axis=1, keepdims=True)
    half *= 0.5
    return np.greater(counts, half).view(np.uint8)


def backend_name() -> str:
    return "numpy"
