"""Quantum states with exact integer amplitudes.

A state is stored as integer numerators over sqrt(norm_sq); the squared
norm is checked exactly on construction, so every expectation value taken
against an integer-entried observable is an exact rational. The library
writes a dense state only through ``dense_wire_parts`` and reads one only
through ``ExactState.deserialize``.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._kernels import abs_bound, sq_sum


class StateError(ValueError):
    pass


# Amplitudes per chunk of the zero-tail scan in ``exact_sq_sum``.
TAIL_CHUNK = 4096


def exact_sq_sum(values: np.ndarray) -> int:
    """Sum of squares, exact for every int64 input.

    A stacked state is nonzero only in a prefix. When the length is a whole
    number of ``TAIL_CHUNK`` chunks and the last chunk is zero (its last
    entry tested first, in O(1)), one bytewise ``max`` per chunk, as fast on
    an unaligned view as on an aligned array, proves every chunk after
    the last nonzero one zero, and only the prefix is squared. Every entry
    is still read, so hostile input stays exact. The bound for
    ``_kernels.sq_sum`` is the entries' OR when that is nonnegative (it has
    the largest entry's bit length); 0 or 1 means every entry is its own square.
    """
    arr = np.ascontiguousarray(values, dtype=np.int64)
    if arr.size == 0:
        return 0
    if arr[-1] == 0 and arr.size % TAIL_CHUNK == 0 and not arr[-TAIL_CHUNK:].any():
        chunk_max = arr.view(np.uint8).reshape(-1, 8 * TAIL_CHUNK).max(axis=1)
        occupied = np.flatnonzero(chunk_max)
        if occupied.size == 0:
            return 0
        arr = arr[: (int(occupied[-1]) + 1) * TAIL_CHUNK]
    bound = int(np.bitwise_or.reduce(arr))
    if bound < 0:
        bound = abs_bound(arr)
    elif bound <= 1:
        return int(arr.sum())
    return sq_sum(arr, bound)


def _immutable(buf) -> bool:
    """True when no one can change ``buf``'s bytes after we looked at them."""
    if isinstance(buf, memoryview):
        return buf.readonly and isinstance(buf.obj, bytes)
    return isinstance(buf, bytes)


@lru_cache(maxsize=4)
def _zeros(nbytes: int) -> bytes:
    """An immutable run of zero bytes, shared by every dense message of one size."""
    return bytes(nbytes)


def dense_wire_parts(prefix, qubits: int, norm_sq: int) -> tuple:
    """The dense wire form of a state on ``qubits`` qubits whose amplitudes
    past ``prefix`` are all zero, written without building the full array.

    The parts are the 10-byte header, a memoryview over the prefix as
    little-endian int64 (no copy when it already is one) and a shared zero
    tail; joined, they are the padded state's wire form, which
    ``ExactState.deserialize`` reads.
    ``norm_sq`` is the prefix's sum of squares, which the caller knows
    without summing (a 0/1 prefix's weight, say); it is not checked here,
    since Bob's ``deserialize`` checks it against every amplitude.
    """
    if not 1 <= qubits <= 255:
        raise StateError("qubit count outside the wire format's 1..255")
    arr = np.ascontiguousarray(prefix, dtype="<i8")
    dim = 1 << qubits
    if arr.ndim != 1 or arr.shape[0] > dim:
        raise StateError(f"dense prefix of shape {arr.shape} does not fit {dim} amplitudes")
    if norm_sq == 0:
        raise StateError("state must be nonzero")
    if norm_sq >> 64:
        raise StateError("norm_sq too large for the wire format")
    header = struct.pack("<BBQ", 0, qubits, norm_sq)
    return header, memoryview(arr).cast("B"), _zeros(8 * (dim - arr.shape[0]))


@dataclass(frozen=True, eq=False)
class ExactState:
    """Dense integer-amplitude state vector, as ``deserialize`` reads it.

    Amplitude i is numerators[i] / sqrt(norm_sq), over 2**qubits int64
    numerators held as a read-only array, possibly a view over an immutable
    wire buffer.

    A writable array is copied, so later writes through it cannot reach a
    checked state. A read-only array, such as a view over immutable wire
    bytes, is kept as it is. Numerators whose dtype does not cast safely to
    int64 (uint64, float, object) are a ``StateError``, never altered.
    """

    qubits: int
    norm_sq: int
    numerators: np.ndarray

    def __post_init__(self):
        if self.qubits < 1:
            raise StateError("need at least one qubit")
        arr = np.asarray(self.numerators)
        if not np.can_cast(arr.dtype, np.int64):
            raise StateError(f"numerators of dtype {arr.dtype} do not cast safely to int64")
        arr = np.ascontiguousarray(arr, dtype=np.int64)
        if arr.flags.writeable:
            arr = arr.copy()
        if arr.shape != (1 << self.qubits,):
            raise StateError(
                f"dense state on {self.qubits} qubits needs {1 << self.qubits} entries"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "numerators", arr)
        total = exact_sq_sum(arr)
        if total != self.norm_sq:
            raise StateError(f"norm_sq {self.norm_sq} != sum of squares {total}")
        if total <= 0:
            raise StateError("state must be nonzero")

    # -- wire format ---------------------------------------------------
    # u8 layout tag (always 0) | u8 qubits | u64 norm_sq | 2**qubits * i64
    # All integers little-endian. The library writes it only through
    # dense_wire_parts; serialize stays because perfbench/layers.py times
    # it by name.

    def serialize(self) -> tuple[bytes, int]:
        payload = b"".join(dense_wire_parts(self.numerators, self.qubits, self.norm_sq))
        return payload, 8 * len(payload)

    @staticmethod
    def deserialize(buf: bytes) -> tuple["ExactState", int]:
        """Read the state at the start of ``buf``; a buffer too short for it
        raises StateError. The state comes with the number of bytes it took,
        which perfbench/layers.py counts per trial.

        The amplitudes come back as a read-only view over ``buf`` when
        ``buf`` is immutable (``bytes``, or a read-only memoryview of
        ``bytes``) and as a copy otherwise, so a state checked here cannot
        change afterwards. Either way the norm check reads every amplitude.
        """
        if len(buf) < 10:
            raise StateError("buffer too short for the state header")
        tag, qubits, norm_sq = struct.unpack_from("<BBQ", buf)
        if tag != 0:
            raise StateError(f"unknown state layout tag {tag}")
        count = 1 << qubits
        end = 10 + 8 * count
        if len(buf) < end:
            raise StateError("buffer too short for the dense amplitudes")
        arr = np.frombuffer(buf, dtype="<i8", count=count, offset=10)
        if not _immutable(buf):
            # a private copy, locked so that __post_init__ keeps it as is
            arr = arr.copy()
            arr.setflags(write=False)
        return ExactState(qubits=qubits, norm_sq=norm_sq, numerators=arr), end
