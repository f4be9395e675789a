"""Majority gadget: encoders, threshold decoder, gap concentration."""
import math
from fractions import Fraction

import numpy as np
import pytest

from gapcomm import ghd
from gapcomm.bits import STREAM_PADS, SharedRandomness
from gapcomm.ghd import (
    GhdParams,
    decision_threshold,
    decode_bit,
    delta_from_sum_norm,
    encode_alice,
    encode_bob,
    gap_statistics,
    public_pads,
    sample_sources,
)
from shake_stream import shake_bits


def brute_majority_codeword(x: np.ndarray, pads: np.ndarray) -> np.ndarray:
    """Oracle: per-position python majority with the same 0-on-tie rule."""
    out = []
    selected = [k for k in range(len(x)) if x[k] == 1]
    for j in range(pads.shape[0]):
        votes = [int(pads[j, k]) for k in selected]
        ones = sum(votes)
        out.append(1 if 2 * ones > len(votes) else 0)
    return np.array(out, dtype=np.uint8)


def rejection_rows(sr: SharedRandomness, count: int, length: int) -> np.ndarray:
    """The per-row rejection loop the bulk sampler must reproduce draw for
    draw: consecutive ``length``-bit rows of the stream, kept when odd."""
    rows, bits, drawn = [], [], 0
    while len(rows) < count:
        if len(bits) < (drawn + 1) * length:
            bits = shake_bits(sr, 2 * (drawn + 1) * length)
        row = bits[drawn * length : (drawn + 1) * length]
        drawn += 1
        if sum(row) & 1:
            rows.append(row)
    return np.array(rows, dtype=np.uint8).reshape(count, length)


class TestParams:
    def test_derived_quantities(self):
        p = GhdParams(epsilon=0.3, bias_c=0.75)
        assert p.gamma == 12
        assert p.amp_factor == 16
        assert p.code_len == 192
        q = GhdParams(epsilon=0.3, bias_c=0.39)
        assert q.amp_factor == 60
        assert q.code_len == 720

    def test_validation(self):
        with pytest.raises(ValueError):
            GhdParams(epsilon=0.0)
        with pytest.raises(ValueError):
            GhdParams(epsilon=1.0)
        with pytest.raises(ValueError):
            GhdParams(epsilon=0.5, bias_c=0.8)  # above sqrt(2/pi)
        with pytest.raises(ValueError):
            GhdParams(epsilon=0.5, slack_d=0.5)

    def test_rejects_an_epsilon_whose_gamma_overflows(self):
        assert GhdParams(epsilon=1e-154).gamma > 2**1000
        with pytest.raises(ValueError, match="epsilon 1e-200 too small"):
            GhdParams(epsilon=1e-200)


class TestEncoders:
    def test_all_zero_source_encodes_to_zero(self):
        params = GhdParams(epsilon=0.5)
        a = encode_alice(np.zeros(params.gamma, np.uint8), params, SharedRandomness(1))
        assert a.dtype == np.uint8 and a.shape == (params.code_len,)
        assert not a.any()

    def test_singleton_source_copies_pad_column(self):
        params = GhdParams(epsilon=0.5)
        sr = SharedRandomness(2)
        for k in range(1, params.gamma + 1):
            x = np.eye(params.gamma, dtype=np.uint8)[k - 1]
            assert np.array_equal(encode_alice(x, params, sr), encode_bob(k, params, sr))

    def test_majority_against_brute_force(self):
        params = GhdParams(epsilon=0.5)
        rng = np.random.default_rng(21)
        for trial in range(25):
            sr = SharedRandomness(300 + trial)
            weight = 3 if trial % 2 == 0 else int(rng.integers(0, params.gamma + 1))
            positions = rng.choice(params.gamma, size=weight, replace=False)
            bits = np.zeros(params.gamma, dtype=np.uint8)
            bits[positions] = 1
            expected = brute_majority_codeword(bits, public_pads(params, sr))
            assert np.array_equal(encode_alice(bits, params, sr), expected)

    def test_bob_is_deterministic_and_validated(self):
        params = GhdParams(epsilon=0.5)
        sr = SharedRandomness(3)
        assert np.array_equal(encode_bob(1, params, sr), encode_bob(1, params, sr))
        assert np.array_equal(encode_bob(1, params, sr), public_pads(params, sr)[:, 0])
        with pytest.raises(IndexError):
            encode_bob(0, params, sr)
        with pytest.raises(IndexError):
            encode_bob(params.gamma + 1, params, sr)

    def test_bob_codeword_is_a_read_only_view_of_the_pads(self):
        # writing through it would corrupt the pads every later caller reads
        params = GhdParams(epsilon=0.5)
        sr = SharedRandomness(7)
        b = encode_bob(2, params, sr)
        assert b.dtype == np.uint8 and b.shape == (params.code_len,)
        assert np.shares_memory(b, public_pads(params, sr))
        before = public_pads(params, sr).copy()
        with pytest.raises(ValueError):
            b[0] ^= 1
        assert np.array_equal(public_pads(params, sr), before)

    def test_pads_are_derived_once_and_read_only(self):
        params = GhdParams(epsilon=0.5)
        sr = SharedRandomness(5)
        pads = public_pads(params, sr)
        assert public_pads(params, sr) is pads
        assert not pads.flags.writeable
        with pytest.raises(ValueError):
            pads[0, 0] ^= 1
        fresh = sr.substream(STREAM_PADS).bit_matrix(params.code_len, params.gamma)
        assert np.array_equal(pads, fresh)
        assert public_pads(params, SharedRandomness(6)) is not pads

    def test_pads_cannot_be_made_writable_again(self):
        # the cached matrix is shared by every later caller with the same key,
        # so neither it nor the array that owns its memory may take a write
        pads = public_pads(GhdParams(epsilon=0.5), SharedRandomness(8))
        with pytest.raises(ValueError):
            pads.setflags(write=True)
        with pytest.raises(ValueError):
            pads.reshape(-1).setflags(write=True)

    def test_bob_codeword_cannot_be_made_writable_again(self):
        b = encode_bob(2, GhdParams(epsilon=0.5), SharedRandomness(8))
        with pytest.raises(ValueError):
            b.setflags(write=True)

    def test_wrong_source_length(self):
        params = GhdParams(epsilon=0.5)
        with pytest.raises(ValueError):
            encode_alice(np.zeros(params.gamma + 1, np.uint8), params, SharedRandomness(4))


class TestDecoder:
    def test_threshold_cases(self):
        params = GhdParams(epsilon=0.3, bias_c=0.75)
        n = params.code_len
        assert decode_bit(n / 2, params) == 0
        assert decode_bit(n / 2 - 2 * math.sqrt(n), params) == 1
        assert decode_bit(n / 2 - math.sqrt(n), params) == 0

    def test_stable_outside_the_gap_band(self):
        params = GhdParams(epsilon=0.35)
        n = params.code_len
        root = math.sqrt(n)
        shift = params.slack_d * root
        for delta in range(0, n + 1):
            if n / 2 - 2 * root < delta < n / 2 - root:
                continue  # inside the band, flips allowed
            base = decode_bit(delta, params)
            assert decode_bit(delta + shift, params) == base
            assert decode_bit(delta - shift, params) == base

    @pytest.mark.parametrize("epsilon", [0.3, 0.5, 0.75])
    def test_exact_and_float_estimates_decide_as_compared_with_the_float(self, epsilon):
        params = GhdParams(epsilon=epsilon)
        t = decision_threshold(params)
        at = Fraction(t)
        tiny = Fraction(1, 1 << 80)
        values = [at - tiny, at, at + tiny, math.nextafter(t, -math.inf), t, math.nextafter(t, math.inf)]
        values += [Fraction(math.floor(t)), Fraction(math.ceil(t)), math.floor(t), math.ceil(t)]
        for value in values:
            # Python compares a Fraction with a float exactly
            assert decode_bit(value, params) == (0 if value >= t else 1), value
        assert decode_bit(at - tiny, params) == 1 and decode_bit(at, params) == 0


class TestDistanceFromSumNorm:
    def test_hand_example(self):
        # a = 110, b = 011: entries of a+b are 1,2,1 so the norm is 6
        assert delta_from_sum_norm(6, 2, 2) == 2

    def test_equal_strings(self):
        for nnz in range(5):
            assert delta_from_sum_norm(4 * nnz, nnz, nnz) == 0

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            delta_from_sum_norm(-1, 0, 0)

    def test_matches_hamming_on_random_pairs(self):
        rng = np.random.default_rng(22)
        for _ in range(2000):
            n = int(rng.integers(1, 80))
            a = rng.integers(0, 2, size=n, dtype=np.uint8)
            b = rng.integers(0, 2, size=n, dtype=np.uint8)
            summed = a.astype(np.int64) + b.astype(np.int64)
            delta = delta_from_sum_norm(int(summed @ summed), int(a.sum()), int(b.sum()))
            assert delta == int(np.count_nonzero(a != b))


class TestGapStatistics:
    def test_events_concentrate_at_default_constant(self):
        params = GhdParams(epsilon=0.3)
        stats = gap_statistics(params, trials=400, sr=SharedRandomness(23))
        assert stats["zero_event_freq"] >= 0.80
        assert stats["one_event_freq"] >= 0.80
        assert stats["decode_freq"] >= 0.80

    def test_deterministic_given_seed(self):
        params = GhdParams(epsilon=0.4)
        first = gap_statistics(params, trials=100, sr=SharedRandomness(24))
        second = gap_statistics(params, trials=100, sr=SharedRandomness(24))
        assert first == second

    def test_odd_weight_mode_flag(self):
        params = GhdParams(epsilon=0.4)
        stats = gap_statistics(params, trials=50, sr=SharedRandomness(25), odd_weight=False)
        assert stats["odd_weight"] is False


class TestSampleSources:
    @pytest.mark.parametrize("count", [1, 3, 17, 244])
    def test_odd_weight_rows_match_the_rejection_loop(self, count):
        # lengths that are and are not multiples of a byte
        seeds = range(3) if count == 244 else range(8)
        for length in range(1, 30):
            for seed in seeds:
                sr = SharedRandomness(1000 * length + seed)
                bulk = sample_sources(sr, count, length, True)
                assert bulk.shape == (count, length) and bulk.dtype == np.uint8
                assert np.array_equal(bulk, rejection_rows(sr, count, length))

    def test_odd_weight_rows_match_the_sum_and_mask_filter(self):
        # the filter as first written, on the same draws; lengths past 255
        # make the uint8 parity sum wrap
        def summed_filter(sr, count, length):
            drawn = 2 * count + 8
            while True:
                rows = sr.bit_matrix(drawn, length)
                odd = rows[rows.sum(axis=1) % 2 == 1]
                if odd.shape[0] >= count:
                    return odd[:count]
                drawn *= 2

        for length in [*range(1, 41), 255, 256, 257, 300, 513]:
            for count in (1, 5, 244):
                for seed in range(4):
                    sr = SharedRandomness(7919 * length + 31 * count + seed)
                    assert np.array_equal(
                        sample_sources(sr, count, length, True), summed_filter(sr, count, length)
                    )

    def test_parity_row_is_cached_and_read_only(self):
        ones = ghd._ones_row(12)
        assert ones is ghd._ones_row(12)
        assert not ones.flags.writeable and ones.tolist() == [1] * 12

    def test_unrestricted_rows_are_one_flat_draw(self):
        sr = SharedRandomness(31)
        rows = sample_sources(sr, 7, 13, False)
        assert rows.reshape(-1).tolist() == shake_bits(sr, 7 * 13)

    def test_zero_rows(self):
        assert sample_sources(SharedRandomness(32), 0, 5, True).shape == (0, 5)
