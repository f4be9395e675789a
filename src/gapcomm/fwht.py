"""Exact integer Walsh-Hadamard transform over the diagonal-Pauli character matrix.

The transform matrix H has entries H[k, y] = (-1)^popcount(k & y); its rows
are the diagonals of the I/Z tensor-product operators in the canonical
ordering (row k carries the Z-mask with binary expansion k). H is symmetric
and self-inverse up to the factor 2**n, so exact rational solves reduce to a
second forward pass.
"""
from __future__ import annotations

import numpy as np

from . import _kernels


def fwht(vec) -> np.ndarray:
    """Apply the character matrix exactly; output is int64 (see ``_kernels.fwht``)."""
    arr = np.ascontiguousarray(vec, dtype=np.int64)
    n = arr.shape[0]
    if n < 1 or (n & (n - 1)) != 0:
        raise ValueError(f"length {n} is not a power of two")
    return _kernels.fwht(arr)


def character_row(z_mask: int, qubits: int) -> np.ndarray:
    """Row of the character matrix for one Z-mask: (-1)^popcount(z & y)."""
    idx = np.arange(1 << qubits, dtype=np.uint64)
    return (1 - 2 * _kernels.parity_u64(idx & np.uint64(z_mask))).astype(np.int64)


def character_matrix(qubits: int) -> np.ndarray:
    """Full 2**n x 2**n character matrix; intended for small-n checks."""
    if qubits > 13:
        raise ValueError("dense character matrix capped at 13 qubits")
    return np.stack([character_row(k, qubits) for k in range(1 << qubits)])
