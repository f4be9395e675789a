"""Bit vectors, distance arithmetic, shared randomness."""
import struct
import tracemalloc

import numpy as np
import pytest

from gapcomm.bits import (
    BitVector,
    DimensionError,
    InconsistentInputsError,
    SharedRandomness,
    hamming,
    hamming_via_identity,
    inner_product,
)
from gapcomm.messages import MessageError


def brute_hamming(x: BitVector, y: BitVector) -> int:
    return sum(1 for i in range(1, len(x) + 1) if x.bit(i) != y.bit(i))


class TestBitVector:
    def test_accessors_are_one_based(self):
        v = BitVector.from_bits([1, 0, 1])
        assert v.bit(1) == 1 and v.bit(2) == 0 and v.bit(3) == 1
        with pytest.raises(IndexError):
            v.bit(0)
        with pytest.raises(IndexError):
            v.bit(4)

    def test_rejects_non_binary_values(self):
        with pytest.raises(ValueError):
            BitVector(np.array([0, 2, 1], dtype=np.uint8))

    def test_nnz_bounded_by_length(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = BitVector(rng.integers(0, 2, size=33, dtype=np.uint8))
            assert 0 <= v.nnz <= len(v)

    def test_int_round_trip_lsb_first(self):
        v = BitVector.from_bits([1, 0, 1, 1])  # 1 + 4 + 8
        assert v.to_int() == 13
        assert BitVector.from_int(13, 4) == v
        with pytest.raises(ValueError):
            BitVector.from_int(16, 4)

    def test_from_int_rejects_negative(self):
        with pytest.raises(ValueError):
            BitVector.from_int(-1, 4)

    def test_rejects_two_dimensional_bits(self):
        with pytest.raises(ValueError):
            BitVector(np.zeros((2, 2), dtype=np.uint8))

    def test_repr_short_and_long(self):
        assert repr(BitVector.from_bits([1, 0, 1])) == "BitVector(101)"
        long = BitVector(np.r_[np.ones(5, np.uint8), np.zeros(35, np.uint8)])
        assert repr(long) == "BitVector(len=40,nnz=5)"

    def test_serialization_layout(self):
        payload, bits = BitVector.from_bits([1, 0, 1, 1]).serialize()
        assert bits == 64 + 4
        assert payload[:8] == (4).to_bytes(8, "little")
        assert payload[8] == 0b1101

    def test_serialization_round_trip(self):
        rng = np.random.default_rng(1)
        for length in (1, 7, 8, 9, 64, 65, 1000):
            v = BitVector(rng.integers(0, 2, size=length, dtype=np.uint8))
            payload, bits = v.serialize()
            back, consumed = BitVector.deserialize(payload)
            assert back == v
            assert consumed == len(payload)
            assert 0 <= 8 * len(payload) - bits < 8

    @pytest.mark.parametrize("bit", [5, 6, 7])
    def test_set_padding_bit_raises_message_error(self, bit):
        payload, _ = BitVector.from_bits([1, 0, 1, 1, 1]).serialize()
        BitVector.deserialize(payload)
        bad = payload[:-1] + bytes([payload[-1] | (1 << bit)])
        with pytest.raises(MessageError, match="padding bits"):
            BitVector.deserialize(bad)

    @pytest.mark.parametrize(
        "buf",
        [b"\x00\x01", struct.pack("<Q", 16), struct.pack("<Q", 16) + b"\x01", struct.pack("<Q", 1 << 60)],
    )
    def test_short_buffer_raises_message_error_without_allocating(self, buf):
        tracemalloc.start()
        try:
            with pytest.raises(MessageError, match="too short"):
                BitVector.deserialize(buf)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


class TestHamming:
    def test_identical_strings(self):
        v = BitVector.from_bits([1, 0, 1, 1, 0])
        assert hamming(v, v) == 0

    def test_complement(self):
        assert hamming(BitVector.from_bits([0, 0, 0]), BitVector.from_bits([1, 1, 1])) == 3

    def test_hand_count(self):
        assert hamming(BitVector.from_bits([1, 0, 1]), BitVector.from_bits([1, 1, 0])) == 2

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            hamming(BitVector.from_bits([1]), BitVector.from_bits([1, 0]))

    def test_metric_properties_on_random_triples(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            n = int(rng.integers(1, 40))
            x, y, z = (
                BitVector(rng.integers(0, 2, size=n, dtype=np.uint8)) for _ in range(3)
            )
            assert hamming(x, y) == hamming(y, x)
            assert (hamming(x, y) == 0) == (x == y)
            assert hamming(x, z) <= hamming(x, y) + hamming(y, z)


class TestDistanceIdentity:
    def test_matches_hand_example(self):
        assert hamming_via_identity(2, 2, 1) == 2

    def test_zero_string_case(self):
        for k in range(5):
            assert hamming_via_identity(0, k, 0) == k

    def test_rejects_negative_inputs(self):
        with pytest.raises(ValueError):
            hamming_via_identity(-1, 2, 0)

    def test_rejects_inconsistent_inner_product(self):
        with pytest.raises(InconsistentInputsError):
            hamming_via_identity(2, 3, 4)

    def test_identity_on_random_pairs(self):
        # oracle: position-by-position brute force, no numpy
        rng = np.random.default_rng(3)
        for _ in range(10_000):
            n = int(rng.integers(1, 64))
            x = BitVector(rng.integers(0, 2, size=n, dtype=np.uint8))
            y = BitVector(rng.integers(0, 2, size=n, dtype=np.uint8))
            expected = brute_hamming(x, y)
            assert hamming_via_identity(x.nnz, y.nnz, inner_product(x, y)) == expected
            assert hamming(x, y) == expected


class TestSharedRandomness:
    def test_same_labels_give_identical_bits(self):
        a = SharedRandomness(1234).substream(7).bit_matrix(1, 256)[0]
        b = SharedRandomness(1234).substream(7).bit_matrix(1, 256)[0]
        assert np.array_equal(a, b)

    def test_distinct_streams_disagree(self):
        base = SharedRandomness(314159)
        seen = set()
        for label in range(1000):
            seen.add(base.substream(label).bit_matrix(1, 64)[0].tobytes())
        assert len(seen) == 1000

    def test_seed_and_stream_reduce_mod_2_64(self):
        assert SharedRandomness(-1, -2) == SharedRandomness(2**64 - 1, 2**64 - 2)
        wrapped = SharedRandomness(2**64 + 5).bit_matrix(2, 40)
        assert np.array_equal(wrapped, SharedRandomness(5).bit_matrix(2, 40))

    def test_bit_matrix_is_one_stream_in_row_order(self):
        sr = SharedRandomness(77).substream(3)
        rows = sr.bit_matrix(3, 16)
        assert rows.shape == (3, 16) and rows.dtype == np.uint8
        assert np.array_equal(rows.reshape(-1), sr.bit_matrix(1, 48)[0])

    def test_bit_bias_is_near_half(self):
        bits = SharedRandomness(2718).bit_matrix(1, 1_000_000)[0]
        assert abs(bits.mean() - 0.5) < 0.01
