"""I/Z/X Pauli strings as bit-mask pairs and exact expectation values.

A mask pair (z, x) with z & x == 0 denotes the operator with matrix entry
(y ^ x, y) = (-1)^popcount(z & y) and zeros elsewhere: real, symmetric,
and an involution, so its eigenvalues are exactly +-1. No Y factors exist
in this artifact; every observable handled here is real.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _kernels
from .bits import BitVector, DimensionError
from .states import ExactState


class ObservableError(ValueError):
    pass


@dataclass(frozen=True, eq=True)
class PauliMask:
    z_mask: BitVector
    x_mask: BitVector

    def __post_init__(self):
        if len(self.z_mask) != len(self.x_mask):
            raise ObservableError("z and x masks must have equal length")
        if len(self.z_mask) == 0:
            raise ObservableError("empty mask")
        if np.any(self.z_mask.bits & self.x_mask.bits):
            raise ObservableError("overlapping z/x masks (Y factors unsupported)")

    @staticmethod
    def from_ints(z: int, x: int, qubits: int) -> "PauliMask":
        return PauliMask(BitVector.from_int(z, qubits), BitVector.from_int(x, qubits))

    @property
    def qubits(self) -> int:
        return len(self.z_mask)

    @property
    def z_int(self) -> int:
        return self.z_mask.to_int()

    @property
    def x_int(self) -> int:
        return self.x_mask.to_int()

    def letter(self, qubit: int) -> str:
        """Single-qubit factor at 1-based position: 'I', 'Z' or 'X'."""
        if self.z_mask.bit(qubit):
            return "Z"
        if self.x_mask.bit(qubit):
            return "X"
        return "I"

    def diagonal_sign(self, index: int) -> int:
        """(-1)^popcount(z & index); meaningful for diagonal (x == 0) masks."""
        return -1 if (self.z_int & index).bit_count() & 1 else 1

    def to_dense(self) -> np.ndarray:
        """Explicit matrix; capped at 13 qubits."""
        n = self.qubits
        if n > 13:
            raise ObservableError("dense Pauli materialization capped at 13 qubits")
        dim = 1 << n
        z, x = self.z_int, self.x_int
        out = np.zeros((dim, dim), dtype=np.int64)
        for y in range(dim):
            out[y ^ x, y] = -1 if (z & y).bit_count() & 1 else 1
        return out

def pauli_expectation(state: ExactState, mask: PauliMask) -> Fraction:
    """<psi| P |psi> as an exact rational."""
    if mask.qubits != state.qubits:
        raise DimensionError(f"observable on {mask.qubits} qubits vs state on {state.qubits}")
    return mask_expectation(state, mask.z_int, mask.x_int)


def mask_expectation(state: ExactState, z: int, x: int) -> Fraction:
    """``pauli_expectation`` of the mask pair (z, x) given as plain ints on
    the state's qubits, with the checks ``PauliMask`` makes, made on the ints."""
    n = state.qubits
    if not (0 <= z < 1 << n and 0 <= x < 1 << n):
        raise DimensionError(f"mask pair ({z}, {x}) does not fit the state's {n} qubits")
    if z & x:
        raise ObservableError("overlapping z/x masks (Y factors unsupported)")
    return Fraction(_kernels.pauli_quad(state.numerators, z, x), state.norm_sq)


def subset_state_expectation(z_mask, support, norm_sq: int) -> Fraction:
    """Diagonal-Pauli expectation over a sparse support, in O(|support|).

    ``z_mask`` is a BitVector or plain integer mask; ``support`` is a
    sequence of (basis index, integer amplitude) pairs with distinct
    indices (arbitrary-precision indices welcome). Returns
    sum(amp^2 * (-1)^popcount(z & index)) / norm_sq without touching the
    other 2**n - |support| coordinates.
    """
    z = z_mask.to_int() if isinstance(z_mask, BitVector) else int(z_mask)
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
