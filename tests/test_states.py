"""Exact state invariants and the wire layout."""
import numpy as np
import pytest

from gapcomm.states import ExactState, StateError, exact_sq_sum


class TestConstruction:
    def test_norm_checked_exactly(self):
        nums = np.array([3, -1, 2, 0], dtype=np.int64)
        state = ExactState(qubits=2, norm_sq=14, numerators=nums)
        assert state.norm_sq == 14
        with pytest.raises(StateError):
            ExactState(qubits=2, norm_sq=13, numerators=nums)

    def test_zero_state_rejected(self):
        with pytest.raises(StateError):
            ExactState.dense(np.zeros(4, dtype=np.int64))

    def test_dense_length_must_match_qubits(self):
        with pytest.raises(StateError):
            ExactState(qubits=3, norm_sq=1, numerators=np.array([1, 0], dtype=np.int64))

    def test_sparse_duplicate_index_rejected(self):
        with pytest.raises(StateError):
            ExactState.from_support([(1, 1), (1, 2)], qubits=2)

    def test_sparse_index_range(self):
        with pytest.raises(StateError):
            ExactState.from_support([(4, 1)], qubits=2)

    def test_exactly_one_layout(self):
        with pytest.raises(StateError):
            ExactState(qubits=1, norm_sq=1)

    def test_amplitudes_are_unit_norm(self):
        state = ExactState.dense(np.array([1, 2, -2, 0], dtype=np.int64))
        assert abs(np.linalg.norm(state.amplitudes()) - 1.0) < 1e-12


class TestExactSqSum:
    def test_matches_python_reference(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            arr = rng.integers(-(10**6), 10**6, size=257).astype(np.int64)
            assert exact_sq_sum(arr) == sum(int(v) ** 2 for v in arr)

    def test_large_values_use_exact_path(self):
        arr = np.full(16, (1 << 31) + 12345, dtype=np.int64)
        assert exact_sq_sum(arr) == 16 * ((1 << 31) + 12345) ** 2


class TestSerialization:
    def test_dense_round_trip(self):
        rng = np.random.default_rng(9)
        state = ExactState.dense(rng.integers(-9, 9, size=16).astype(np.int64))
        payload, bits = state.serialize()
        back, consumed = ExactState.deserialize(payload)
        assert back == state
        assert consumed == len(payload)
        assert bits == 8 * len(payload)  # dense layout is byte-aligned

    def test_dense_layout_fields(self):
        state = ExactState.dense(np.array([1, 0, -1, 2], dtype=np.int64))
        payload, _ = state.serialize()
        assert payload[0] == 0  # dense tag
        assert payload[1] == 2  # qubit count
        assert int.from_bytes(payload[2:10], "little") == 6
        assert np.array_equal(
            np.frombuffer(payload, dtype="<i8", count=4, offset=10), [1, 0, -1, 2]
        )

    def test_sparse_round_trip(self):
        state = ExactState.from_support([(0, 2), (7, -3)], qubits=3)
        payload, bits = state.serialize()
        assert payload[0] == 1  # sparse tag
        back, _ = ExactState.deserialize(payload)
        assert back == state
        assert back.to_dense()[7] == -3
        assert bits == 8 * len(payload)

    def test_norm_must_fit_wire_width(self):
        state = ExactState.from_support([(0, 1 << 33)], qubits=1)
        with pytest.raises(StateError):
            state.serialize()

    def test_unknown_tag_rejected(self):
        state = ExactState.dense(np.array([1, 1], dtype=np.int64))
        payload, _ = state.serialize()
        with pytest.raises(StateError):
            ExactState.deserialize(b"\x07" + payload[1:])

    def test_corrupted_numerator_fails_the_norm_check(self):
        state = ExactState.dense(np.array([2, -1, 0, 3], dtype=np.int64))
        payload, _ = state.serialize()
        corrupted = bytearray(payload)
        corrupted[10] ^= 0x01  # first numerator byte
        with pytest.raises(StateError):
            ExactState.deserialize(bytes(corrupted))

    def test_short_buffer_raises_state_error(self):
        dense, _ = ExactState.dense(np.array([2, -1, 0, 3], dtype=np.int64)).serialize()
        sparse, _ = ExactState.from_support([(3, 2), (7, -3)], qubits=3).serialize()
        for payload in (dense, sparse):
            for cut in (1, 8, len(payload) - 9, len(payload) - 1):
                with pytest.raises(StateError, match="too short"):
                    ExactState.deserialize(payload[:cut])

    def test_inflated_sparse_count_is_rejected_before_reading(self):
        sparse, _ = ExactState.from_support([(3, 2)], qubits=3).serialize()
        inflated = sparse[:10] + (1 << 40).to_bytes(8, "little") + sparse[18:]
        with pytest.raises(StateError, match="too short"):
            ExactState.deserialize(inflated)
