"""A second implementation of ``SharedRandomness``' stream, for the draw tests.

The stream is SHAKE-128 of the key ``struct.pack("<QQ", root_seed,
stream_id)``. These helpers read it through ``hashlib``, which is OpenSSL's
SHAKE, and decode it without numpy, so they share no code with the library's
draws. Imported by the test modules (pytest puts this directory on
``sys.path``); the name does not start with ``test_``, so it is not collected.
"""
import hashlib
import struct


def shake_output(sr, nbytes: int) -> bytes:
    """The first ``nbytes`` bytes of ``sr``'s stream."""
    return hashlib.shake_128(struct.pack("<QQ", sr.root_seed, sr.stream_id)).digest(nbytes)


def shake_bits(sr, n: int) -> list[int]:
    """The first ``n`` bits of the stream, each byte read LSB-first."""
    out = shake_output(sr, -(-n // 8))
    return [(out[k >> 3] >> (k & 7)) & 1 for k in range(n)]


def shake_words(sr, count: int) -> list[int]:
    """The first ``count`` u64 little-endian words of the stream."""
    out = shake_output(sr, 8 * count)
    return [int.from_bytes(out[8 * k : 8 * k + 8], "little") for k in range(count)]


def shake_doubles(sr, count: int) -> list[float]:
    """The first ``count`` doubles of the stream: the top 53 bits of each word."""
    return [(w >> 11) * 2.0**-53 for w in shake_words(sr, count)]
