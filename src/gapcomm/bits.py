"""Bit strings on the wire and the shared-randomness source.

A bit string is a plain one-dimensional 0/1 ``uint8`` array, indexed from 0
like any numpy array. Only the protocol's positions are 1-based: the index
l and its block position i and block j (``protocols.decompose_index``),
each shifted by one where it picks an array entry.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

try:
    # CPython's own SHA-3, which hashlib falls back to; hashlib itself would
    # load OpenSSL's _hashlib into every run for the same function
    from _sha3 import shake_128
except ImportError:
    from hashlib import shake_128

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


# The stream's key: the two 64-bit words, little-endian.
_KEY = struct.Struct("<QQ")
_U64 = struct.Struct("<Q")


@dataclass(frozen=True)
class SharedRandomness:
    """Public randomness keyed by (root_seed, stream_id).

    The stream is the SHAKE-128 (FIPS 202) output of the 16 key bytes
    ``struct.pack("<QQ", root_seed, stream_id)``: a pure function of the
    key, so two parties (or two worker processes) deriving the same labels
    read identical bits without any coordination. ``stream_bits``,
    ``words``, ``integer`` and ``doubles`` each read it from its start;
    SHAKE output is prefix-stable, so a longer draw starts with every
    shorter one.
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
        """A numpy Philox generator on the same key: not the stream the draws
        below read, and it loads ``numpy.random``. The package no longer
        calls it; it stays only because ``perfbench/layers.py`` counts calls
        to it by name, and goes with the next change to the benchmark."""
        key = np.array([self.root_seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def _output(self, nbytes: int) -> bytes:
        """The first ``nbytes`` bytes of the stream."""
        return shake_128(_KEY.pack(self.root_seed, self.stream_id)).digest(nbytes)

    def stream_bits(self, n: int) -> np.ndarray:
        """The first ``n`` bits of the stream, one per uint8: the first
        ceil(n/8) bytes, each read LSB-first."""
        raw = np.frombuffer(self._output(-(-n // 8)), dtype=np.uint8)
        return np.unpackbits(raw, count=n, bitorder="little")

    def bit_matrix(self, rows: int, cols: int) -> np.ndarray:
        return self.stream_bits(rows * cols).reshape(rows, cols)

    def words(self, n: int) -> np.ndarray:
        """The first ``n`` u64 little-endian words of the stream, as a
        read-only ``uint64`` array: the words ``integer`` and ``doubles``
        read."""
        return np.frombuffer(self._output(8 * n), dtype="<u8")

    def integer(self, low: int, high: int) -> int:
        """Uniform in [low, high): ``low + w % span`` for the first u64
        little-endian word w of the stream below the largest multiple of
        ``span = high - low`` that fits in 2^64."""
        span = high - low
        if not 0 < span <= 1 << 64:
            raise ValueError(f"need 0 < high - low <= 2^64, got [{low}, {high})")
        limit = (1 << 64) - (1 << 64) % span
        read, words = 0, 1
        while True:
            for (w,) in _U64.iter_unpack(self._output(8 * words)[8 * read :]):
                if w < limit:
                    return low + w % span
            # every word read so far was rejected; the output is prefix-stable,
            # so read a longer prefix and go on after the words already read
            read, words = words, 2 * words

    def doubles(self, n: int) -> list[float]:
        """The first ``n`` doubles in [0, 1): ``(w >> 11) * 2^-53`` for each
        of the first ``n`` u64 little-endian words."""
        return [(w >> 11) * 2.0**-53 for (w,) in _U64.iter_unpack(self._output(8 * n))]
