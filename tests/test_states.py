"""Exact state invariants and the wire layout."""
import tracemalloc

import numpy as np
import pytest

from gapcomm.states import TAIL_CHUNK, ExactState, StateError, abs_bound, exact_sq_sum


def unaligned_view(arr: np.ndarray, offset: int = 30) -> np.ndarray:
    """``arr`` as a read-only int64 view at byte ``offset`` of a bytes object;
    the default, 30, is where the amplitudes of a dense message sit on the
    wire. A bytes object's data is 8-byte aligned, so the view is aligned
    exactly when ``offset`` is a multiple of 8."""
    view = np.frombuffer(bytes(offset) + arr.astype("<i8").tobytes(), dtype="<i8", offset=offset)
    assert view.flags.aligned == (offset % 8 == 0)
    return view


class TestConstruction:
    def test_norm_checked_exactly(self):
        nums = np.array([3, -1, 2, 0], dtype=np.int64)
        state = ExactState(qubits=2, norm_sq=14, numerators=nums)
        assert state.norm_sq == 14
        with pytest.raises(StateError):
            ExactState(qubits=2, norm_sq=13, numerators=nums)

    def test_zero_state_rejected(self):
        with pytest.raises(StateError, match="state must be nonzero"):
            ExactState.dense(np.zeros(4, dtype=np.int64))

    def test_dense_length_must_match_qubits(self):
        with pytest.raises(StateError):
            ExactState(qubits=3, norm_sq=1, numerators=np.array([1, 0], dtype=np.int64))

    def test_view_of_a_writable_array_is_copied(self):
        base = np.array([2, -1, 0, 3, 5, 5, 5, 5], dtype=np.int64)
        state = ExactState.dense(base[:4])
        base[0] = 7
        assert state.norm_sq == 14 == exact_sq_sum(state.numerators)
        assert base.flags.writeable

    def test_writable_array_that_owns_its_data_is_copied(self):
        base = np.array([3, -1, 2, 0], dtype=np.int64)
        state = ExactState.dense(base)
        assert base.flags.writeable
        assert not np.shares_memory(state.numerators, base)
        base[0] = 7
        assert state.norm_sq == 14 == exact_sq_sum(state.numerators)
        assert not state.numerators.flags.writeable

    def test_qubit_count_must_be_positive(self):
        with pytest.raises(StateError, match="at least one qubit"):
            ExactState(qubits=0, norm_sq=1, numerators=np.array([1], dtype=np.int64))

    def test_equality_compares_contents(self):
        state = ExactState.dense(np.array([3, -1, 2, 0], dtype=np.int64))
        assert state == ExactState.dense(np.array([3, -1, 2, 0], dtype=np.int64))
        assert hash(state) == hash(ExactState.dense(np.array([3, -1, 2, 0], dtype=np.int64)))
        # same norm, other amplitudes
        assert state != ExactState.dense(np.array([-3, 1, 2, 0], dtype=np.int64))
        assert state != ExactState.dense(np.array([3, -1, 2, 0, 0, 0, 0, 0], dtype=np.int64))
        assert state != (2, 14)

    def test_amplitudes_are_unit_norm(self):
        state = ExactState.dense(np.array([1, 2, -2, 0], dtype=np.int64))
        assert abs(np.linalg.norm(state.amplitudes()) - 1.0) < 1e-12


class TestExactSqSum:
    def test_empty_array_sums_to_zero(self):
        assert exact_sq_sum(np.zeros(0, dtype=np.int64)) == 0

    def test_matches_python_reference(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            arr = rng.integers(-(10**6), 10**6, size=257).astype(np.int64)
            assert exact_sq_sum(arr) == sum(int(v) ** 2 for v in arr)

    def test_large_values_use_exact_path(self):
        arr = np.full(16, (1 << 31) + 12345, dtype=np.int64)
        assert exact_sq_sum(arr) == 16 * ((1 << 31) + 12345) ** 2

    @pytest.mark.parametrize("bound", [10**6, (1 << 31) + 12345])
    def test_unaligned_view_matches_python_reference(self, bound):
        # 10^6 stays inside the int64 headroom, 2^31 + 12345 does not
        arr = np.random.default_rng(10).integers(-bound, bound, size=1 << 12).astype(np.int64)
        arr[7] = -bound  # the bound may sit on either side of zero
        view = unaligned_view(arr)
        assert exact_sq_sum(view) == sum(int(v) ** 2 for v in arr)
        assert abs_bound(view) == bound

    @pytest.mark.parametrize("signed", [True, False])
    @pytest.mark.parametrize(
        "length, bits",
        [
            # 2 * bits + len bits = 61, 62, 63 and 64: the old int64 guard
            # passed 61 only; one limb covers up to 63
            (1 << 12, 24),
            (1 << 13, 24),
            (1 << 12, 25),
            (1 << 13, 25),
            # 62- and 63-bit entries: several limbs in every chunk
            (3000, 62),
            (3000, 63),
        ],
    )
    def test_exact_on_both_sides_of_the_int64_guard(self, length, bits, signed):
        rng = np.random.default_rng(length + bits)
        top = (1 << bits) - 1
        arr = rng.integers(-top if signed else 0, top, size=length, endpoint=True).astype(np.int64)
        arr[::3] = top  # squares near the top, so the sum nears length * 2^(2 * bits)
        reference = sum(int(v) ** 2 for v in arr)
        assert exact_sq_sum(arr) == reference
        assert exact_sq_sum(unaligned_view(arr)) == reference

    def test_exact_on_the_int64_minimum_throughout(self):
        arr = np.full(3000, np.iinfo(np.int64).min, dtype=np.int64)
        arr[1234] = 5
        assert exact_sq_sum(arr) == 2999 * (1 << 126) + 25
        assert exact_sq_sum(unaligned_view(arr)) == 2999 * (1 << 126) + 25

    @pytest.mark.parametrize(
        "length, occupied",
        [
            (4 * TAIL_CHUNK, 2 * TAIL_CHUNK),  # tail starts on a chunk boundary
            (4 * TAIL_CHUNK, 2 * TAIL_CHUNK + 100),  # tail starts mid-chunk
            (4 * TAIL_CHUNK, 4 * TAIL_CHUNK),  # nonzero last amplitude
            (4 * TAIL_CHUNK, 4 * TAIL_CHUNK - 1),  # zero last amplitude, nonzero last chunk
            (4 * TAIL_CHUNK, 0),  # all zero
            (1, 1),
            (7, 3),  # below one chunk
            (TAIL_CHUNK - 1, 100),
            (TAIL_CHUNK + 1, 100),  # not a multiple of the chunk
            (3 * TAIL_CHUNK + 5, TAIL_CHUNK),
        ],
    )
    def test_zero_tail_matches_python_reference(self, length, occupied):
        arr = np.zeros(length, dtype=np.int64)
        arr[:occupied] = np.random.default_rng(length + occupied).integers(-9, 10, size=occupied)
        if occupied:
            arr[occupied - 1] = 3  # the last occupied amplitude is nonzero
        reference = sum(int(v) ** 2 for v in arr)
        assert exact_sq_sum(arr) == reference
        for offset in range(8):
            assert exact_sq_sum(unaligned_view(arr, offset)) == reference, offset

    @pytest.mark.parametrize("value", [12345, 1 << 40, np.iinfo(np.int64).min])
    def test_one_amplitude_deep_in_the_tail_is_counted(self, value):
        # the prefix is 0/1, so only the planted value lifts the OR bound;
        # -2**63 squared overflows int64, so it must reach the big-int sum
        arr = np.zeros(8 * TAIL_CHUNK, dtype=np.int64)
        arr[:100] = 1
        arr[6 * TAIL_CHUNK + 17] = value
        reference = 100 + int(value) ** 2
        assert exact_sq_sum(arr) == reference
        for offset in range(8):
            assert exact_sq_sum(unaligned_view(arr, offset)) == reference, offset

    @pytest.mark.parametrize(
        "values",
        [
            [0, 1, 1, 0, 1],  # all 0/1: the sum is the weight
            [0, 0, 0],
            [1, 0, 2, 1],  # a single 2 lifts the bound past the 0/1 sum
            [1, -1, 0, 1],  # negative: the OR is negative, so abs_bound bounds
            [3, -5, 7, 0],
            [1, np.iinfo(np.int64).min, 0],
            [np.iinfo(np.int64).max, 1],
            [1 << 31, 1, 0],  # past the int64 headroom
            [(1 << 31) - 1, -(1 << 31), 5],
            [1 << 40, 3, (1 << 40) + 1],
        ],
    )
    def test_or_bound_matches_python_reference(self, values):
        reference = sum(int(v) ** 2 for v in values)
        for arr in (np.array(values, dtype=np.int64), np.tile(np.array(values, dtype=np.int64), 1000)):
            scale = arr.size // len(values)
            assert exact_sq_sum(arr) == scale * reference
            assert exact_sq_sum(unaligned_view(arr)) == scale * reference

    def test_zero_one_prefix_with_a_zero_tail_sums_its_weight(self):
        arr = np.zeros(4 * TAIL_CHUNK, dtype=np.int64)
        arr[: 2 * TAIL_CHUNK + 5] = np.random.default_rng(3).integers(0, 2, size=2 * TAIL_CHUNK + 5)
        arr[2 * TAIL_CHUNK + 4] = 1
        for offset in range(8):
            assert exact_sq_sum(unaligned_view(arr, offset)) == int(arr.sum()), offset

    def test_abs_bound_does_not_wrap_at_the_int64_minimum(self):
        arr = np.array([5, np.iinfo(np.int64).min], dtype=np.int64)
        assert abs_bound(arr) == 1 << 63
        assert abs_bound(np.zeros(0, dtype=np.int64)) == 0


class TestSerialization:
    def test_dense_round_trip(self):
        rng = np.random.default_rng(9)
        state = ExactState.dense(rng.integers(-9, 9, size=16).astype(np.int64))
        payload, bits = state.serialize()
        back, consumed = ExactState.deserialize(payload)
        assert back == state
        assert consumed == len(payload)
        assert bits == 8 * len(payload)  # dense layout is byte-aligned

    def test_states_read_back_to_back_at_an_offset(self):
        first = ExactState.dense(np.array([1, 0, -1, 2], dtype=np.int64))
        second = ExactState.dense(np.array([0, 5], dtype=np.int64))
        buf = b"\xff" * 3 + first.serialize()[0] + second.serialize()[0]
        back_first, offset = ExactState.deserialize(buf, 3)
        back_second, end = ExactState.deserialize(buf, offset)
        assert (back_first, back_second) == (first, second)
        assert end == len(buf)

    def test_dense_layout_fields(self):
        state = ExactState.dense(np.array([1, 0, -1, 2], dtype=np.int64))
        payload, _ = state.serialize()
        assert payload[0] == 0  # dense tag
        assert payload[1] == 2  # qubit count
        assert int.from_bytes(payload[2:10], "little") == 6
        assert np.array_equal(
            np.frombuffer(payload, dtype="<i8", count=4, offset=10), [1, 0, -1, 2]
        )

    def test_norm_must_fit_wire_width(self):
        state = ExactState.dense(np.array([1 << 33, 0], dtype=np.int64))
        with pytest.raises(StateError):
            state.serialize()

    @pytest.mark.parametrize("tag", [1, 7, 255])
    def test_unknown_tag_rejected(self, tag):
        state = ExactState.dense(np.array([1, 1], dtype=np.int64))
        payload, _ = state.serialize()
        # rejected on the header alone, before the length of what follows matters
        for rest in (payload[1:], payload[1:10]):
            with pytest.raises(StateError, match=f"unknown state layout tag {tag}"):
                ExactState.deserialize(bytes([tag]) + rest)

    def test_corrupted_numerator_fails_the_norm_check(self):
        state = ExactState.dense(np.array([2, -1, 0, 3], dtype=np.int64))
        payload, _ = state.serialize()
        corrupted = bytearray(payload)
        corrupted[10] ^= 0x01  # first numerator byte
        with pytest.raises(StateError):
            ExactState.deserialize(bytes(corrupted))

    def test_dense_state_from_bytes_is_a_read_only_view(self):
        state = ExactState.dense(np.array([2, -1, 0, 3], dtype=np.int64))
        payload, _ = state.serialize()
        back, _ = ExactState.deserialize(payload)
        assert not back.numerators.flags.writeable
        assert np.shares_memory(back.numerators, np.frombuffer(payload, dtype=np.uint8))

    @pytest.mark.parametrize("read_only_view", [False, True])
    def test_state_from_a_mutable_buffer_does_not_change_with_it(self, read_only_view):
        state = ExactState.dense(np.array([2, -1, 0, 3], dtype=np.int64))
        payload, _ = state.serialize()
        source = bytearray(payload)
        back, _ = ExactState.deserialize(memoryview(source).toreadonly() if read_only_view else source)
        source[10:] = np.array([5, 3, -1, 1], dtype="<i8").tobytes()  # squares sum to 36
        assert back == state
        assert back.norm_sq == 14 == exact_sq_sum(back.numerators)

    def test_state_from_a_mutable_buffer_is_copied_once(self):
        payload, _ = ExactState.dense(np.ones(1 << 12, dtype=np.int64)).serialize()
        tracemalloc.start()
        back, _ = ExactState.deserialize(bytearray(payload))
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert back.norm_sq == 1 << 12
        # the payload's bytearray copy plus one private copy of the amplitudes
        assert peak < len(payload) + 2 * back.numerators.nbytes

    def test_short_buffer_raises_state_error(self):
        payload, _ = ExactState.dense(np.array([2, -1, 0, 3], dtype=np.int64)).serialize()
        for cut in (1, 8, len(payload) - 9, len(payload) - 1):
            with pytest.raises(StateError, match="too short"):
                ExactState.deserialize(payload[:cut])
