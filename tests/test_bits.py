"""Bit vectors, distance arithmetic, shared randomness."""
import os
import struct
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import gapcomm
from gapcomm.bits import (
    BitVector,
    DimensionError,
    InconsistentInputsError,
    SharedRandomness,
    hamming,
    hamming_via_identity,
    inner_product,
    pack_bits,
)
from gapcomm.messages import MessageError


def brute_hamming(x: BitVector, y: BitVector) -> int:
    return sum(1 for i in range(1, len(x) + 1) if x.bit(i) != y.bit(i))


class TestBitVector:
    def test_accessors_are_one_based(self):
        v = BitVector(np.array([1, 0, 1], dtype=np.uint8))
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
        v = BitVector(np.array([1, 0, 1, 1], dtype=np.uint8))  # 1 + 4 + 8
        assert v.to_int() == 13
        assert BitVector(np.zeros(0, np.uint8)).to_int() == 0

    def test_rejects_two_dimensional_bits(self):
        with pytest.raises(ValueError):
            BitVector(np.zeros((2, 2), dtype=np.uint8))

    def test_repr_short_and_long(self):
        assert repr(BitVector(np.array([1, 0, 1], dtype=np.uint8))) == "BitVector(101)"
        long = BitVector(np.r_[np.ones(5, np.uint8), np.zeros(35, np.uint8)])
        assert repr(long) == "BitVector(len=40,nnz=5)"

    def test_serialization_layout(self):
        payload, bits = pack_bits(np.array([1, 0, 1, 1], dtype=np.uint8))
        assert bits == 64 + 4
        assert payload[:8] == (4).to_bytes(8, "little")
        assert payload[8] == 0b1101

    def test_serialization_round_trip(self):
        rng = np.random.default_rng(1)
        for length in (0, 1, 7, 8, 9, 64, 65, 1000):
            v = rng.integers(0, 2, size=length, dtype=np.uint8)
            payload, bits = pack_bits(v)
            back, consumed = BitVector.deserialize(payload)
            assert np.array_equal(back.bits, v)
            assert consumed == len(payload)
            assert 0 <= 8 * len(payload) - bits < 8

    @pytest.mark.parametrize("bit", [5, 6, 7])
    def test_set_padding_bit_raises_message_error(self, bit):
        payload, _ = pack_bits(np.array([1, 0, 1, 1, 1], dtype=np.uint8))
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
        v = BitVector(np.array([1, 0, 1, 1, 0], dtype=np.uint8))
        assert hamming(v, v) == 0

    def test_complement(self):
        zeros, ones = BitVector(np.zeros(3, np.uint8)), BitVector(np.ones(3, np.uint8))
        assert hamming(zeros, ones) == 3

    def test_hand_count(self):
        x = BitVector(np.array([1, 0, 1], dtype=np.uint8))
        assert hamming(x, BitVector(np.array([1, 1, 0], dtype=np.uint8))) == 2

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            hamming(BitVector(np.ones(1, np.uint8)), BitVector(np.array([1, 0], dtype=np.uint8)))

    def test_metric_properties_on_random_triples(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            n = int(rng.integers(1, 40))
            x, y, z = (
                BitVector(rng.integers(0, 2, size=n, dtype=np.uint8)) for _ in range(3)
            )
            assert hamming(x, y) == hamming(y, x)
            assert (hamming(x, y) == 0) == np.array_equal(x.bits, y.bits)
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

    @pytest.mark.parametrize(
        "root,stream,label,expected",
        [
            (0, 0, 0, 7960286522194355700),
            (9, 0, 3, 1961750202426094747),
            (2**64 - 1, 2**64 - 1, 7, 10078564121556696136),
            (1234, 5, 2**70, 10284945619046896904),
        ],
    )
    def test_substream_ids_are_pinned(self, root, stream, label, expected):
        child = SharedRandomness(root, stream).substream(label)
        assert (child.root_seed, child.stream_id) == (root, expected)
        # equal to, and hashed as, the same key built through the constructor
        built = SharedRandomness(root, expected)
        assert child == built and hash(child) == hash(built)

    def test_nested_substreams_are_pinned(self):
        child = SharedRandomness(7).substream(1).substream(4).substream(2)
        assert child.stream_id == 7235899734078418837

    def test_user_seeds_are_masked(self):
        big = SharedRandomness(2**64 + 5, 2**65 + 3)
        assert (big.root_seed, big.stream_id) == (5, 3)
        negative = SharedRandomness(-1, -7)
        assert (negative.root_seed, negative.stream_id) == (2**64 - 1, 2**64 - 7)
        assert big.substream(2) == SharedRandomness(5, 3).substream(2)

    def test_bit_matrix_is_one_stream_in_row_order(self):
        sr = SharedRandomness(77).substream(3)
        rows = sr.bit_matrix(3, 16)
        assert rows.shape == (3, 16) and rows.dtype == np.uint8
        assert np.array_equal(rows.reshape(-1), sr.bit_matrix(1, 48)[0])

    def test_bit_bias_is_near_half(self):
        bits = SharedRandomness(2718).bit_matrix(1, 1_000_000)[0]
        assert abs(bits.mean() - 0.5) < 0.01


def random_keys(count: int, seed: int) -> list[SharedRandomness]:
    rng = np.random.default_rng(seed)
    words = rng.integers(0, 2**64, size=(count, 2), dtype=np.uint64)
    return [SharedRandomness(int(root), int(stream)) for root, stream in words]


class TestDrawContract:
    """Each draw equals the same call on a fresh ``generator()``."""

    # odd counts of 32-bit words, partial last words, the 720 x 12 pads and a large prime
    SIZES = [0, *range(1, 18), 20, 8640, 100003]

    def test_stream_bits_match_generator_integers(self):
        for sr in random_keys(200, 40):
            for n in self.SIZES:
                expected = sr.generator().integers(0, 2, size=n, dtype=np.uint8)
                bits = sr.stream_bits(n)
                assert bits.dtype == np.uint8 and np.array_equal(bits, expected), (sr, n)

    def test_integer_matches_generator_integers(self):
        bounds = [(0, 2), (1, 13), (1, 8641), (1, 2**31 + 7), (-5, 2**40), (0, 2**63)]
        for sr in random_keys(200, 41):
            for low, high in bounds:
                value = sr.integer(low, high)
                assert type(value) is int
                assert value == int(sr.generator().integers(low, high)), (sr, low, high)

    def test_doubles_match_generator_random(self):
        for sr in random_keys(200, 42):
            for n in (1, 2, 5):
                assert sr.doubles(n) == sr.generator().random(n).tolist()

    def test_held_generator_is_not_disturbed_by_draws(self):
        held_sr, other = SharedRandomness(5, 6), SharedRandomness(7, 8)
        held = held_sr.generator()
        head = held.integers(0, 2, size=5, dtype=np.uint8)
        other.bit_matrix(3, 7)
        middle = held.integers(0, 1000, size=3)
        other.integer(1, 100)
        other.doubles(2)
        tail = held.random(3)
        ref = held_sr.generator()
        assert np.array_equal(head, ref.integers(0, 2, size=5, dtype=np.uint8))
        assert np.array_equal(middle, ref.integers(0, 1000, size=3))
        assert np.array_equal(tail, ref.random(3))

    def test_threads_drawing_at_once_each_read_their_own_stream(self):
        keys = random_keys(4, 43)
        expected = [(k.stream_bits(100), k.integer(0, 10**9)) for k in keys]
        bad = []

        def work(k: int):
            for _ in range(300):
                bits, value = keys[k].stream_bits(100), keys[k].integer(0, 10**9)
                if not (np.array_equal(bits, expected[k][0]) and value == expected[k][1]):
                    bad.append(k)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(len(keys))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert bad == []

    def test_import_does_not_load_numpy_random(self):
        # the reused generator is made on the first draw, so a process that
        # never draws (a pool's parent) never pays for numpy.random
        run_fresh("import sys, gapcomm, gapcomm.harness; assert 'numpy.random' not in sys.modules")


# appended to a fresh interpreter's code: fails naming any pool module it loaded
NO_POOL = (
    "\nloaded = {'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)"
    "\nassert not loaded, loaded"
)


def run_fresh(code: str) -> None:
    """Run ``code`` in a fresh interpreter that imports this checkout's gapcomm."""
    src = os.path.dirname(os.path.dirname(gapcomm.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60, env=env)


class TestPoolImports:
    def test_import_does_not_load_the_pool(self):
        run_fresh("import sys, gapcomm, gapcomm.harness" + NO_POOL)

    def test_one_trial_run_starts_no_pool(self):
        # workers beyond the trial count are not started, so this run stays
        # in-process and never imports the pool
        run_fresh(
            "import sys\n"
            "from gapcomm.harness import ExperimentConfig, run_experiment\n"
            "cfg = ExperimentConfig('pauli-state', 6, 0.5, trials=1, root_seed=3, workers=4)\n"
            "assert run_experiment(cfg).results['trials'] == 1" + NO_POOL
        )
