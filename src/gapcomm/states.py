"""Quantum states with exact integer amplitudes.

A state is stored as integer numerators over sqrt(norm_sq); the squared
norm is checked exactly on construction, so every expectation value taken
against an integer-entried observable is an exact rational.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np


class StateError(ValueError):
    pass


def exact_sq_sum(values: np.ndarray) -> int:
    """Sum of squares, exact even when int64 accumulation could overflow."""
    arr = np.ascontiguousarray(values, dtype=np.int64)
    if arr.size == 0:
        return 0
    max_abs = int(np.abs(arr).max())
    # safe int64 dot: len * max^2 < 2^62
    if 2 * max_abs.bit_length() + arr.size.bit_length() < 62:
        return int(np.dot(arr, arr))
    return int(sum(int(v) * int(v) for v in arr))


@dataclass(frozen=True, eq=False)
class ExactState:
    """Dense or sparse integer-amplitude state vector.

    Exactly one of ``numerators`` (dense int64 array of length 2**qubits)
    and ``support`` (tuple of (index, value) pairs) is set. Amplitude i is
    numerators[i] / sqrt(norm_sq).
    """

    qubits: int
    norm_sq: int
    numerators: np.ndarray | None = None
    support: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self):
        if self.qubits < 1:
            raise StateError("need at least one qubit")
        if (self.numerators is None) == (self.support is None):
            raise StateError("exactly one of numerators/support must be given")
        if self.numerators is not None:
            arr = np.ascontiguousarray(self.numerators, dtype=np.int64)
            if arr.shape != (1 << self.qubits,):
                raise StateError(
                    f"dense state on {self.qubits} qubits needs {1 << self.qubits} entries"
                )
            arr.setflags(write=False)
            object.__setattr__(self, "numerators", arr)
            total = exact_sq_sum(arr)
        else:
            dim = 1 << self.qubits
            seen = set()
            total = 0
            for idx, val in self.support:
                if not 0 <= idx < dim:
                    raise StateError(f"support index {idx} out of range")
                if idx in seen:
                    raise StateError(f"duplicate support index {idx}")
                seen.add(idx)
                total += int(val) * int(val)
            object.__setattr__(
                self, "support", tuple((int(i), int(v)) for i, v in self.support)
            )
        if total != self.norm_sq:
            raise StateError(f"norm_sq {self.norm_sq} != sum of squares {total}")
        if total <= 0:
            raise StateError("state must be nonzero")

    @staticmethod
    def dense(numerators, qubits: int | None = None) -> "ExactState":
        arr = np.ascontiguousarray(numerators, dtype=np.int64)
        n = qubits if qubits is not None else (arr.shape[0].bit_length() - 1)
        return ExactState(qubits=n, norm_sq=exact_sq_sum(arr), numerators=arr)

    @staticmethod
    def from_support(pairs, qubits: int) -> "ExactState":
        total = sum(int(v) * int(v) for _, v in pairs)
        return ExactState(qubits=qubits, norm_sq=total, support=tuple(pairs))

    @property
    def is_dense(self) -> bool:
        return self.numerators is not None

    def to_dense(self) -> np.ndarray:
        if self.numerators is not None:
            return self.numerators
        out = np.zeros(1 << self.qubits, dtype=np.int64)
        for idx, val in self.support:
            out[idx] = val
        return out

    def amplitudes(self) -> np.ndarray:
        """Floating-point unit-norm amplitude vector (cross-check use only)."""
        return self.to_dense().astype(np.float64) / np.sqrt(float(self.norm_sq))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactState):
            return NotImplemented
        return (
            self.qubits == other.qubits
            and self.norm_sq == other.norm_sq
            and np.array_equal(self.to_dense(), other.to_dense())
        )

    def __hash__(self):
        return hash((self.qubits, self.norm_sq))

    # -- wire format ---------------------------------------------------
    # u8 layout tag (0 dense, 1 sparse) | u8 qubits | u64 norm_sq |
    # dense: 2**qubits * i64 | sparse: u64 count, then (u64 index, i64 value) pairs
    # All integers little-endian.

    def serialize(self) -> tuple[bytes, int]:
        if self.norm_sq >> 64:
            raise StateError("norm_sq too large for the wire format")
        if self.qubits > 255:
            raise StateError("qubit count too large for the wire format")
        if self.numerators is not None:
            header = struct.pack("<BBQ", 0, self.qubits, self.norm_sq)
            body = self.numerators.astype("<i8").tobytes()
            return header + body, 8 + 8 + 64 + 64 * self.numerators.shape[0]
        header = struct.pack("<BBQ", 1, self.qubits, self.norm_sq)
        parts = [header, struct.pack("<Q", len(self.support))]
        for idx, val in self.support:
            parts.append(struct.pack("<Qq", idx, val))
        return b"".join(parts), 8 + 8 + 64 + 64 + 128 * len(self.support)

    @staticmethod
    def deserialize(buf: bytes, offset: int = 0) -> tuple["ExactState", int]:
        """Read one state at ``offset``; a buffer too short for it raises StateError."""

        def need(nbytes: int, what: str) -> None:
            if len(buf) - offset < nbytes:
                raise StateError(f"buffer too short for the {what}")

        need(10, "state header")
        tag, qubits, norm_sq = struct.unpack_from("<BBQ", buf, offset)
        offset += 10
        if tag == 0:
            count = 1 << qubits
            need(8 * count, "dense amplitudes")
            arr = np.frombuffer(buf, dtype="<i8", count=count, offset=offset).astype(
                np.int64
            )
            offset += 8 * count
            return ExactState(qubits=qubits, norm_sq=norm_sq, numerators=arr), offset
        if tag == 1:
            need(8, "sparse support count")
            (count,) = struct.unpack_from("<Q", buf, offset)
            offset += 8
            need(16 * count, "sparse support")
            pairs = []
            for _ in range(count):
                idx, val = struct.unpack_from("<Qq", buf, offset)
                offset += 16
                pairs.append((idx, val))
            return (
                ExactState(qubits=qubits, norm_sq=norm_sq, support=tuple(pairs)),
                offset,
            )
        raise StateError(f"unknown state layout tag {tag}")
