"""Bit vectors, Hamming arithmetic and the shared-randomness source.

Positions exposed by this API are 1-based (``1..len``); the packed storage
underneath is 0-based numpy. That conversion happens in this module and
nowhere else.
"""
from __future__ import annotations

import struct
import threading
from dataclasses import dataclass

import numpy as np

from .messages import MessageError

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Stream labels used to split one SharedRandomness root into independent,
# reproducible sub-streams. Alice- and Bob-side derivations with the same
# label sequence see identical bits.
STREAM_PADS = 1
STREAM_ORACLE = 2
STREAM_INSTANCE = 3
STREAM_INDEX = 4
STREAM_SHADOW = 5


class DimensionError(ValueError):
    """Operands have incompatible lengths."""


class InconsistentInputsError(ValueError):
    """Numeric inputs could not have come from real bit strings."""


def _splitmix64(x: int) -> int:
    x = (x + _GOLDEN) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return (x ^ (x >> 31)) & MASK64


@dataclass(frozen=True, eq=False)
class BitVector:
    """Immutable 0/1 sequence with 1-based accessors."""

    bits: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.bits, dtype=np.uint8)
        if arr.ndim != 1:
            raise ValueError("bits must be one-dimensional")
        if arr.size and int(arr.max()) > 1:
            raise ValueError("bits must be 0/1 valued")
        arr.setflags(write=False)
        object.__setattr__(self, "bits", arr)

    def __len__(self) -> int:
        return int(self.bits.shape[0])

    def bit(self, i: int) -> int:
        """Bit at 1-based position ``i``."""
        if not 1 <= i <= len(self):
            raise IndexError(f"position {i} out of range [1, {len(self)}]")
        return int(self.bits[i - 1])

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.bits))

    def to_int(self) -> int:
        """Pack into an integer, position i mapping to 2**(i-1)."""
        if len(self) == 0:
            return 0
        packed = np.packbits(self.bits, bitorder="little").tobytes()
        return int.from_bytes(packed, "little")

    def __repr__(self) -> str:
        if len(self) <= 32:
            body = "".join(str(int(b)) for b in self.bits)
        else:
            body = f"len={len(self)},nnz={self.nnz}"
        return f"BitVector({body})"

    @staticmethod
    def deserialize(buf: bytes, offset: int = 0) -> tuple["BitVector", int]:
        """Read one vector at ``offset``; a buffer too short for it raises
        MessageError before anything sized by its bit count is allocated.

        The padding bits past ``count`` in the last byte must be zero, so
        each vector has exactly one wire form; a set one raises MessageError.
        """
        if len(buf) - offset < 8:
            raise MessageError("buffer too short for the bit-vector length")
        (count,) = struct.unpack_from("<Q", buf, offset)
        offset += 8
        nbytes = (count + 7) // 8
        if len(buf) - offset < nbytes:
            raise MessageError(f"buffer too short for {count} packed bits")
        raw = np.frombuffer(buf, dtype=np.uint8, count=nbytes, offset=offset)
        if count % 8 and int(raw[-1]) >> (count % 8):
            raise MessageError("bit-vector padding bits are not zero")
        bits = np.unpackbits(raw, count=count, bitorder="little") if count else np.zeros(0, np.uint8)
        return BitVector(bits), offset + nbytes


def pack_bits(bits: np.ndarray) -> tuple[bytes, int]:
    """The one Z-string writer: a u64 little-endian count, then ``bits`` (0/1
    uint8, made by the caller's kernels, so unchecked) packed LSB-first, as
    ``BitVector.deserialize`` reads them. Returns ``(payload, bit_length)``,
    64 header bits plus one per position (byte padding excluded)."""
    packed = np.packbits(bits, bitorder="little").tobytes()
    return struct.pack("<Q", len(bits)) + packed, 64 + len(bits)


def hamming(x: BitVector, y: BitVector) -> int:
    """Number of positions where the two vectors disagree."""
    if len(x) != len(y):
        raise DimensionError(f"length mismatch: {len(x)} != {len(y)}")
    return int(np.count_nonzero(x.bits ^ y.bits))


def inner_product(x: BitVector, y: BitVector) -> int:
    if len(x) != len(y):
        raise DimensionError(f"length mismatch: {len(x)} != {len(y)}")
    return int(np.dot(x.bits.astype(np.int64), y.bits.astype(np.int64)))


def hamming_via_identity(nnz_x: int, nnz_y: int, ip: int) -> int:
    """Distance reconstructed as nnz(x) + nnz(y) - 2*<x, y>."""
    if nnz_x < 0 or nnz_y < 0 or ip < 0:
        raise ValueError("counts and inner product must be nonnegative")
    if ip > min(nnz_x, nnz_y):
        raise InconsistentInputsError(
            f"inner product {ip} exceeds min(nnz) = {min(nnz_x, nnz_y)}"
        )
    result = nnz_x + nnz_y - 2 * ip
    if result < 0:
        raise InconsistentInputsError("reconstructed distance is negative")
    return result


# One reused Philox per thread, created on its first draw: building a fresh
# one costs several times more than rewinding it, and creating it at import
# would load numpy.random into processes that never draw.
_reused = threading.local()
_ZERO_WORDS = (0, 0, 0, 0)


@dataclass(frozen=True)
class SharedRandomness:
    """Counter-based public randomness keyed by (root_seed, stream_id).

    Derivation is stateless: the bit stream is a pure function of the key,
    so two parties (or two worker processes) deriving the same labels read
    identical bits without any coordination.

    ``stream_bits``, ``integer`` and ``doubles`` each read the stream from
    its start on a per-thread Philox rewound to this key, and return plain
    values, so no two draws share state. Each equals the matching call on a
    fresh ``generator()``.
    """

    root_seed: int
    stream_id: int = 0

    def __post_init__(self):
        object.__setattr__(self, "root_seed", self.root_seed & MASK64)
        object.__setattr__(self, "stream_id", self.stream_id & MASK64)

    def substream(self, label: int) -> "SharedRandomness":
        mixed = _splitmix64((self.stream_id ^ ((label + 1) * _GOLDEN)) & MASK64)
        # both words are already below 2^64, so __post_init__'s masking is
        # skipped: it was most of a substream's cost, and a trial takes several
        child = object.__new__(SharedRandomness)
        object.__setattr__(child, "root_seed", self.root_seed)
        object.__setattr__(child, "stream_id", mixed)
        return child

    def generator(self) -> np.random.Generator:
        """An independent generator at the start of this stream."""
        key = np.array([self.root_seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def _rewound(self) -> np.random.Generator:
        """This thread's reused generator, set to the start of this stream."""
        gen = getattr(_reused, "gen", None)
        if gen is None:
            gen = _reused.gen = np.random.Generator(np.random.Philox(0))
        gen.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": _ZERO_WORDS, "key": (self.root_seed, self.stream_id)},
            "buffer": _ZERO_WORDS,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return gen

    def stream_bits(self, n: int) -> np.ndarray:
        """The first ``n`` bits of the stream, one per uint8.

        Equal to ``generator().integers(0, 2, size=n, dtype=np.uint8)``: that
        call takes bit 7 of each byte of Philox's little-endian 32-bit words,
        which are the bytes of its raw 64-bit words in order.
        """
        raw = self._rewound().bit_generator.random_raw(-(-n // 8))
        return raw.astype("<u8", copy=False).view(np.uint8)[:n] >> 7

    def bit_matrix(self, rows: int, cols: int) -> np.ndarray:
        return self.stream_bits(rows * cols).reshape(rows, cols)

    def integer(self, low: int, high: int) -> int:
        """Equal to ``int(generator().integers(low, high))``."""
        return int(self._rewound().integers(low, high))

    def doubles(self, n: int) -> list[float]:
        """The first ``n`` doubles in [0, 1), equal to ``generator().random(n)``."""
        return self._rewound().random(n).tolist()
