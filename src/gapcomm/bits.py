"""Bit strings on the wire and the shared-randomness source.

A bit string is a plain one-dimensional 0/1 ``uint8`` array, indexed from 0
like any numpy array. Only the protocol's positions are 1-based: the index
l and its block position i and block j (``protocols.decompose_index``),
each shifted by one where it picks an array entry.
"""
from __future__ import annotations

import struct
import threading
from dataclasses import dataclass

import numpy as np

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


def _splitmix64(x: int) -> int:
    x = (x + _GOLDEN) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return (x ^ (x >> 31)) & MASK64


def pack_bits(bits: np.ndarray) -> tuple[bytes, int]:
    """The one Z-string writer: a u64 little-endian count, then ``bits`` (0/1
    uint8, made by the caller's kernels, so unchecked) packed LSB-first, so
    that the packed bytes read as one little-endian int hold bit k at 2**k.
    Returns ``(payload, bit_length)``, 64 header bits plus one per position
    (byte padding excluded)."""
    packed = np.packbits(bits, bitorder="little").tobytes()
    return struct.pack("<Q", len(bits)) + packed, 64 + len(bits)


def read_only(bits: np.ndarray) -> np.ndarray:
    """Flag ``bits`` read-only, and the array that owns its memory too, so
    that no caller can make it (or another view of the owner) writable
    again. Returns ``bits``."""
    if bits.base is not None:
        bits.base.setflags(write=False)
    bits.setflags(write=False)
    return bits


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
