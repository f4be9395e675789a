"""The Z-string writer, the distance identity, shared randomness."""
import multiprocessing
import os
import struct
import subprocess
import sys
import threading

import numpy as np
import pytest

import gapcomm
from gapcomm.bits import SharedRandomness, pack_bits
from shake_stream import shake_doubles, shake_output, shake_words


def brute_hamming(x: np.ndarray, y: np.ndarray) -> int:
    """Position-by-position count, no numpy arithmetic."""
    return sum(1 for a, b in zip(x.tolist(), y.tolist()) if a != b)


class TestPackBits:
    def test_serialization_layout(self):
        payload, bits = pack_bits(np.array([1, 0, 1, 1], dtype=np.uint8))
        assert bits == 64 + 4
        assert payload[:8] == (4).to_bytes(8, "little")
        assert payload[8:] == bytes([0b1101])
        # read as one little-endian int, position k is bit k
        assert int.from_bytes(payload[8:], "little") == 1 + 4 + 8

    def test_serialization_round_trip(self):
        rng = np.random.default_rng(1)
        for length in (0, 1, 7, 8, 9, 64, 65, 1000):
            v = rng.integers(0, 2, size=length, dtype=np.uint8)
            payload, bits = pack_bits(v)
            (count,) = struct.unpack_from("<Q", payload)
            packed = np.frombuffer(payload, dtype=np.uint8, offset=8)
            assert count == length and len(packed) == -(-length // 8)
            assert np.array_equal(np.unpackbits(packed, count=count, bitorder="little"), v)
            assert 0 <= 8 * len(payload) - bits < 8
            # the byte padding past the last position is zero
            assert np.unpackbits(packed, bitorder="little")[length:].sum() == 0


class TestDistanceIdentity:
    def test_identity_on_random_pairs(self):
        # nnz(x) + nnz(y) - 2<x, y> in numpy against a position-by-position count
        rng = np.random.default_rng(3)
        for _ in range(10_000):
            n = int(rng.integers(1, 64))
            x = rng.integers(0, 2, size=n, dtype=np.uint8)
            y = rng.integers(0, 2, size=n, dtype=np.uint8)
            inner = int(np.dot(x.astype(np.int64), y))
            via_identity = np.count_nonzero(x) + np.count_nonzero(y) - 2 * inner
            assert via_identity == brute_hamming(x, y) == np.count_nonzero(x ^ y)


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
    """Each draw equals its definition on the SHAKE-128 output of the key."""

    # partial last bytes, the 720 x 12 pads and a large prime
    SIZES = [0, *range(1, 18), 20, 8640, 100003]

    def test_stream_bits_match_shake(self):
        for sr in random_keys(200, 40):
            for n in self.SIZES:
                raw = np.frombuffer(shake_output(sr, -(-n // 8)), dtype=np.uint8)
                expected = ((raw[:, None] >> np.arange(8)) & 1).reshape(-1)[:n]
                bits = sr.stream_bits(n)
                assert bits.dtype == np.uint8 and np.array_equal(bits, expected), (sr, n)

    def test_stream_bits_are_prefixes_of_longer_draws(self):
        for sr in random_keys(20, 44):
            longest = sr.stream_bits(self.SIZES[-1])
            for n in self.SIZES:
                assert np.array_equal(sr.stream_bits(n), longest[:n]), (sr, n)

    def test_integer_matches_shake_rejection(self):
        # spans of 2^k never reject; a span just above 2^63 rejects about
        # half its words, so some keys need a re-read of a longer prefix
        bounds = [
            (0, 2), (1, 13), (1, 8641), (1, 2**31 + 7), (-5, 2**40), (0, 2**63),
            (0, 2**63 + 1), (7, 2**63 + 12345), (-(2**63), 2**63),
        ]
        words_needed = []
        for sr in random_keys(200, 41):
            words = shake_words(sr, 64)
            for low, high in bounds:
                span = high - low
                limit = 2**64 - 2**64 % span
                k = next(k for k, w in enumerate(words) if w < limit)
                value = sr.integer(low, high)
                assert type(value) is int
                assert value == low + words[k] % span, (sr, low, high)
                if span > 2**63 and span != 2**64:
                    words_needed.append(k + 1)
        assert max(words_needed) >= 3  # past the first re-read

    @pytest.mark.parametrize("low,high", [(5, 5), (5, 4), (0, 2**64 + 1)])
    def test_integer_rejects_an_empty_or_too_wide_range(self, low, high):
        with pytest.raises(ValueError):
            SharedRandomness(1).integer(low, high)

    def test_words_match_shake(self):
        for sr in random_keys(200, 46):
            for n in (0, 1, 2, 5, 17):
                words = sr.words(n)
                assert words.dtype == np.uint64 and words.tolist() == shake_words(sr, n)

    def test_words_are_prefixes_of_longer_draws(self):
        for sr in random_keys(20, 47):
            longest = sr.words(4096)
            for n in (0, 1, 7, 64, 4095, 4096):
                assert np.array_equal(sr.words(n), longest[:n]), (sr, n)

    def test_words_are_read_only(self):
        words = SharedRandomness(3, 4).words(8)
        assert not words.flags.writeable
        with pytest.raises(ValueError):
            words[0] = 1

    def test_doubles_are_the_top_53_bits_of_words(self):
        for sr in random_keys(50, 48):
            for n in (1, 2, 5, 100):
                assert sr.doubles(n) == ((sr.words(n) >> 11) * 2.0**-53).tolist()

    def test_doubles_match_shake(self):
        for sr in random_keys(200, 42):
            for n in (1, 2, 5):
                assert sr.doubles(n) == shake_doubles(sr, n)

    def test_doubles_lie_in_the_unit_interval(self):
        for sr in random_keys(20, 45):
            values = sr.doubles(5000)
            assert all(type(v) is float and 0.0 <= v < 1.0 for v in values)

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
        run_fresh("import sys, gapcomm, gapcomm.harness; assert 'numpy.random' not in sys.modules")


def not_loaded(*modules: str) -> str:
    """Code appended to a fresh interpreter's: fails naming any of ``modules`` it loaded."""
    return f"\nloaded = {set(modules)!r} & set(sys.modules)\nassert not loaded, loaded"


NO_POOL = not_loaded("concurrent.futures.process", "multiprocessing")


def run_fresh(code: str, unset: tuple = (), env: dict | None = None) -> None:
    """Run ``code`` in a fresh interpreter that imports this checkout's
    gapcomm, with the environment variables named in ``unset`` removed and
    those in ``env`` set."""
    src = os.path.dirname(os.path.dirname(gapcomm.__file__))
    env = {**{key: value for key, value in os.environ.items() if key not in unset}, **(env or {})}
    env["PYTHONPATH"] = src
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60, env=env)


def run_cli_fresh(args: str, check: str) -> None:
    """Run ``python -m gapcomm <args>`` in a fresh interpreter, expect exit
    status 0, then run ``check`` there."""
    run_fresh(
        "import runpy, sys\n"
        f"sys.argv = ['gapcomm'] + {args.split()!r}\n"
        "try:\n"
        "    runpy.run_module('gapcomm', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code" + check
    )


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

    def test_pooled_run_loads_no_executor(self):
        # the caller forks plain processes and runs trials itself
        run_fresh(
            "import sys\n"
            "from gapcomm.harness import ExperimentConfig, run_experiment\n"
            "cfg = ExperimentConfig('pauli-state', 6, 0.5, trials=4, root_seed=3, workers=2)\n"
            "assert run_experiment(cfg).results['trials'] == 4" + not_loaded("concurrent.futures")
        )


class TestRunPathImports:
    # a trial never runs the verification suite or the shadows adapter
    OFF_RUN_PATH = not_loaded("gapcomm.verify", "gapcomm.shadows")

    def test_import_loads_only_the_run_path(self):
        run_fresh("import sys, gapcomm, gapcomm.harness" + self.OFF_RUN_PATH)

    def test_one_trial_run_loads_only_the_run_path(self):
        run_fresh(
            "import sys\n"
            "from gapcomm.harness import ExperimentConfig, run_experiment\n"
            "cfg = ExperimentConfig('pauli-state', 6, 0.5, trials=1, root_seed=3)\n"
            "assert run_experiment(cfg).results['trials'] == 1" + self.OFF_RUN_PATH
        )

    # every draw reads SHAKE-128 from CPython's own SHA-3 module, so a run
    # loads neither numpy.random nor OpenSSL's hashlib
    NO_RANDOM = not_loaded("numpy.random", "hashlib", "_hashlib", "secrets")
    KINDS = "general-state 6, pauli-state 6, observable-general 4, observable-pauli 64, inner-product 6"

    def test_a_trial_of_each_kind_loads_no_numpy_random(self):
        run_fresh(
            "import sys\n"
            "from gapcomm.harness import ExperimentConfig, run_experiment\n"
            f"for entry in {self.KINDS!r}.split(', '):\n"
            "    kind, qubits = entry.split()\n"
            "    for model, sampling in (('exact', 'odd-weight'), ('relative-uniform', 'unrestricted')):\n"
            "        cfg = ExperimentConfig(kind, int(qubits), 0.5, trials=1, root_seed=3,\n"
            "                               oracle_model=model, sampling=sampling)\n"
            "        assert run_experiment(cfg).results['trials'] == 1" + self.NO_RANDOM
        )

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the wrapped run_trial reaches the workers only through fork",
    )
    def test_pool_workers_load_no_numpy_random(self):
        run_fresh(
            "import sys\n"
            "from gapcomm import harness\n"
            "plain = harness.run_trial\n"
            "def tagged(cfg, trial):\n"
            "    record = plain(cfg, trial)\n"
            "    record['numpy_random'] = 'numpy.random' in sys.modules\n"
            "    return record\n"
            "harness.run_trial = tagged\n"
            "cfg = harness.ExperimentConfig('pauli-state', 6, 0.5, trials=4, root_seed=3,\n"
            "                               workers=2, per_trial_records=True)\n"
            "records = harness.run_experiment(cfg).per_trial\n"
            "assert [r['numpy_random'] for r in records] == [False] * 4, records"
        )

    @pytest.mark.parametrize(
        "args",
        ["verify --max-qubits 6 --instances 2", "shadows-demo --copies 100 --seed 3"],
        ids=["verify", "shadows-demo"],
    )
    def test_other_commands_load_no_numpy_random(self, args):
        # verify and the shadows demo read the same SHAKE-128 stream as a run
        run_cli_fresh(args, not_loaded("numpy.random"))

    def test_cli_run_loads_neither_verify_nor_shadows(self):
        # as ``python -m gapcomm run ...``
        args = "run --protocol pauli-state --qubits 6 --epsilon 0.5 --trials 1 --seed 3"
        run_cli_fresh(args, self.OFF_RUN_PATH)
