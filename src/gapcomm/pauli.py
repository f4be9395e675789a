"""I/Z/X Pauli strings as integer mask pairs and exact expectation values.

A mask pair (z, x) with z & x == 0 denotes the operator with matrix entry
(y ^ x, y) = (-1)^popcount(z & y) and zeros elsewhere: real, symmetric,
and an involution, so its eigenvalues are exactly +-1. Qubit q (1-based)
is bit q - 1 of each mask. No Y factors exist in this artifact; every
observable handled here is real.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _kernels
from .bits import DimensionError
from .states import ExactState


class ObservableError(ValueError):
    pass


@dataclass(frozen=True)
class PauliMask:
    """The Pauli string with Z factors at the bits of ``z`` and X factors at
    the bits of ``x``, on ``qubits`` qubits."""

    z: int
    x: int
    qubits: int

    def __post_init__(self):
        if self.qubits < 1:
            raise ObservableError("empty mask")
        if not (0 <= self.z < 1 << self.qubits and 0 <= self.x < 1 << self.qubits):
            raise DimensionError(f"mask pair ({self.z}, {self.x}) does not fit {self.qubits} qubits")
        if self.z & self.x:
            raise ObservableError("overlapping z/x masks (Y factors unsupported)")

    def letter(self, qubit: int) -> str:
        """Single-qubit factor at 1-based position: 'I', 'Z' or 'X'."""
        if not 1 <= qubit <= self.qubits:
            raise IndexError(f"position {qubit} out of range [1, {self.qubits}]")
        if self.z >> (qubit - 1) & 1:
            return "Z"
        if self.x >> (qubit - 1) & 1:
            return "X"
        return "I"

    def diagonal_sign(self, index: int) -> int:
        """(-1)^popcount(z & index); meaningful for diagonal (x == 0) masks."""
        return -1 if (self.z & index).bit_count() & 1 else 1

    def to_dense(self) -> np.ndarray:
        """Explicit matrix; capped at 13 qubits."""
        if self.qubits > 13:
            raise ObservableError("dense Pauli materialization capped at 13 qubits")
        dim = 1 << self.qubits
        out = np.zeros((dim, dim), dtype=np.int64)
        for y in range(dim):
            out[y ^ self.x, y] = self.diagonal_sign(y)
        return out


def pauli_expectation(state: ExactState, mask: PauliMask) -> Fraction:
    """<psi| P |psi> as an exact rational."""
    if mask.qubits != state.qubits:
        raise DimensionError(f"observable on {mask.qubits} qubits vs state on {state.qubits}")
    return Fraction(_kernels.pauli_quad(state.numerators, mask.z, mask.x), state.norm_sq)


def subset_state_expectation(z: int, support, norm_sq: int) -> Fraction:
    """Diagonal-Pauli expectation over a sparse support, in O(|support|).

    ``z`` is the integer Z mask; ``support`` is a sequence of (basis index,
    integer amplitude) pairs with distinct indices (arbitrary-precision
    indices welcome). Returns sum(amp^2 * (-1)^popcount(z & index)) / norm_sq
    without touching the other 2**n - |support| coordinates.
    """
    if norm_sq <= 0:
        raise ValueError("norm_sq must be positive")
    seen = set()
    total = 0
    for idx, amp in support:
        idx = int(idx)
        if idx in seen:
            raise ValueError(f"duplicate support index {idx}")
        seen.add(idx)
        sign = -1 if (z & idx).bit_count() & 1 else 1
        total += sign * int(amp) * int(amp)
    return Fraction(total, norm_sq)
