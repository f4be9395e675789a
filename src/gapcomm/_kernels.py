"""Hot numeric kernels, vectorized in numpy.

``benchmarks/bench_kernels.py`` times each of them on protocol-scale inputs.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .states import abs_bound

# Largest Walsh-Hadamard factor, in qubits: a 2^7 x 2^7 float64 matrix is 128 KiB.
MAX_FACTOR_QUBITS = 7
# Integers of up to this many bits are exact in float64.
FLOAT64_EXACT_BITS = 53


def factor_qubits(qubits: int) -> list[int]:
    """Split ``qubits`` into as few parts of at most ``MAX_FACTOR_QUBITS`` as
    possible, as even as possible, largest (most significant axis) first."""
    parts = max(1, -(-qubits // MAX_FACTOR_QUBITS))
    base, extra = divmod(qubits, parts)
    return [base + 1] * extra + [base] * (parts - extra)


@lru_cache(maxsize=None)
def hadamard_factor(qubits: int) -> np.ndarray:
    """Read-only float64 character matrix H[k, y] = (-1)^popcount(k & y) of one factor."""
    idx = np.arange(1 << qubits, dtype=np.uint64)
    h = (1 - 2 * parity_u64(idx[:, None] & idx)).astype(np.float64)
    h.setflags(write=False)
    return h


# One entry per (factor bits, z part): at most 2^7 parts of each of 7 factor
# sizes, 1 KiB each, so the cache stays bounded without an eviction limit.
@lru_cache(maxsize=None)
def sign_row(qubits: int, z_part: int) -> np.ndarray:
    """Read-only int64 row z_part of one factor's character matrix:
    s[y] = (-1)^popcount(z_part & y), built without the matrix."""
    idx = np.arange(1 << qubits, dtype=np.uint64)
    row = (1 - 2 * parity_u64(idx & np.uint64(z_part))).astype(np.int64)
    row.setflags(write=False)
    return row


def fwht(vec: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform of a power-of-two-length int64 vector, as a
    fresh int64 array.

    H_{2^n} is the Kronecker product of one factor per part of
    ``factor_qubits(n)``, so the transform is one small float64 matmul per
    factor. That is exact when max|v|.bit_length() + n <= 53: every partial
    sum is then an integer below 2^53 in size, which float64 holds exactly,
    in any summation order. Larger inputs take int64 butterflies, which the
    caller keeps inside int64.
    """
    arr = np.asarray(vec, dtype=np.int64)
    qubits = arr.shape[0].bit_length() - 1
    if abs_bound(arr).bit_length() + qubits <= FLOAT64_EXACT_BITS:
        return _fwht_float(arr, qubits)
    return _fwht_butterflies(arr)


def _fwht_float(arr: np.ndarray, qubits: int) -> np.ndarray:
    # each pass transforms the last axis and moves it to the front, so after
    # one pass per factor the axes are back in their first order
    t = arr.astype(np.float64)
    for bits in factor_qubits(qubits):
        t = (t.reshape(-1, 1 << bits) @ hadamard_factor(bits)).T
    return t.astype(np.int64, order="C").reshape(-1)


def _fwht_butterflies(arr: np.ndarray) -> np.ndarray:
    out = arr.copy()
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
    """Quadratic form sum(s_y * nums[y] * nums[y ^ x]) with s_y = (-1)^|y & z|.

    ``nums`` is viewed as a tensor with one axis per part of
    ``factor_qubits``. The partner y ^ x is one gather along each axis where
    x has bits, and the signs factor into one row of a character matrix per
    axis, contracted last axis first. In int64 this is exact whenever
    len * max^2 < 2^62: every partial sum is a signed subset sum of the
    products.
    """
    qubits = nums.shape[0].bit_length() - 1
    parts = factor_qubits(qubits)
    v = nums.reshape([1 << bits for bits in parts])
    partner = v
    shift = qubits
    for axis, bits in enumerate(parts):
        shift -= bits
        x_part = (x_mask >> shift) & ((1 << bits) - 1)
        if x_part:
            perm = np.arange(1 << bits) ^ x_part
            partner = partner[(slice(None),) * axis + (perm,)]
    w = v * partner
    shift = 0
    for bits in reversed(parts):
        w = w @ sign_row(bits, (z_mask >> shift) & ((1 << bits) - 1))
        shift += bits
    return int(w)


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
