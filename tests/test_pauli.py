"""Mask observables against independently kron-built dense matrices."""
from fractions import Fraction

import numpy as np
import pytest

from gapcomm.bits import DimensionError
from gapcomm.pauli import ObservableError, PauliMask, pauli_expectation, subset_state_expectation
from gapcomm.states import ExactState

from dense_states import dense_state

I2 = np.eye(2, dtype=np.int64)
Z2 = np.array([[1, 0], [0, -1]], dtype=np.int64)
X2 = np.array([[0, 1], [1, 0]], dtype=np.int64)


def kron_oracle(mask: PauliMask) -> np.ndarray:
    """Independent dense construction: explicit tensor product, qubit 1 low."""
    singles = []
    for q in range(1, mask.qubits + 1):
        letter = mask.letter(q)
        singles.append({"I": I2, "Z": Z2, "X": X2}[letter])
    out = singles[-1]
    for mat in reversed(singles[:-1]):
        out = np.kron(out, mat)
    return out


def random_mask(rng, qubits: int) -> PauliMask:
    while True:
        z = int(rng.integers(0, 1 << qubits))
        x = int(rng.integers(0, 1 << qubits))
        if z & x == 0:
            return PauliMask(z=z, x=x, qubits=qubits)


class TestMask:
    @pytest.mark.parametrize("z,x,qubits", [(1, 1, 2), (0b011, 0b010, 3)])
    def test_rejects_overlapping_masks(self, z, x, qubits):
        with pytest.raises(ObservableError, match="overlapping"):
            PauliMask(z=z, x=x, qubits=qubits)

    @pytest.mark.parametrize("z,x", [(1 << 3, 0), (0, 1 << 3), (-1, 0), (0, -2)])
    def test_masks_outside_the_qubits_are_rejected(self, z, x):
        with pytest.raises(DimensionError):
            PauliMask(z=z, x=x, qubits=3)

    def test_letters(self):
        mask = PauliMask(z=0b001, x=0b100, qubits=3)
        assert [mask.letter(q) for q in (1, 2, 3)] == ["Z", "I", "X"]
        for q in (0, 4):
            with pytest.raises(IndexError):
                mask.letter(q)

    def test_dense_matches_kron_oracle(self):
        rng = np.random.default_rng(10)
        for n in (1, 2, 3, 4):
            for _ in range(8):
                mask = random_mask(rng, n)
                assert np.array_equal(mask.to_dense(), kron_oracle(mask))

    def test_involution_gives_unit_eigenvalues(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            mask = random_mask(rng, 4)
            dense = mask.to_dense()
            assert np.array_equal(dense @ dense, np.eye(16, dtype=np.int64))

    def test_rejects_empty_mask(self):
        with pytest.raises(ObservableError):
            PauliMask(z=0, x=0, qubits=0)

    def test_dense_capped_at_13_qubits(self):
        with pytest.raises(ObservableError):
            PauliMask(z=1, x=0, qubits=14).to_dense()

    def test_diagonal_sign_matches_dense_diagonal(self):
        rng = np.random.default_rng(12)
        for n in (1, 3, 5):
            z = int(rng.integers(0, 1 << n))
            mask = PauliMask(z=z, x=0, qubits=n)
            signs = [mask.diagonal_sign(y) for y in range(1 << n)]
            assert np.array_equal(signs, np.diagonal(kron_oracle(mask)))


class TestExpectation:
    def test_z_eigenstate(self):
        ground = dense_state(np.array([1, 0], dtype=np.int64))
        assert pauli_expectation(ground, PauliMask(z=1, x=0, qubits=1)) == 1

    def test_identity_on_any_state(self):
        rng = np.random.default_rng(12)
        state = dense_state(rng.integers(-5, 6, size=8).astype(np.int64) + 1)
        identity = PauliMask(z=0, x=0, qubits=3)
        assert pauli_expectation(state, identity) == 1

    def test_matches_dense_quadratic_form(self):
        rng = np.random.default_rng(13)
        for n in (2, 3, 5):
            nums = rng.integers(-7, 8, size=1 << n).astype(np.int64)
            if not nums.any():
                nums[0] = 1
            state = dense_state(nums)
            for _ in range(6):
                mask = random_mask(rng, n)
                dense = kron_oracle(mask)
                expected = Fraction(int(nums @ dense @ nums), state.norm_sq)
                assert pauli_expectation(state, mask) == expected

    def test_bounded_by_one(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            nums = rng.integers(-9, 10, size=16).astype(np.int64)
            if not nums.any():
                continue
            value = pauli_expectation(dense_state(nums), random_mask(rng, 4))
            assert -1 <= value <= 1

    def test_dimension_mismatch(self):
        state = dense_state(np.array([1, 0], dtype=np.int64))
        with pytest.raises(DimensionError):
            pauli_expectation(state, PauliMask(z=1, x=0, qubits=2))

    def test_huge_amplitudes_fall_back_to_exact_path(self):
        big = 1 << 40
        # a norm of 2^82 has no dense wire form, so the state is built directly
        state = ExactState(qubits=2, norm_sq=4 * big * big, numerators=np.array([big, -big, big, big]))
        mask = PauliMask(z=1, x=0, qubits=2)
        # signs: +1, -1, +1, -1 on the diagonal
        expected = Fraction(big * big - big * big + big * big - big * big, state.norm_sq)
        assert pauli_expectation(state, mask) == expected


class TestSubsetExpectation:
    def test_single_point_at_origin(self):
        assert subset_state_expectation(0b1011, [(0, 1)], 1) == 1

    def test_cancelling_pair(self):
        # indices 0 and 1 pick up opposite signs under z bit 1
        assert subset_state_expectation(1, [(0, 3), (1, 3)], 18) == 0

    def test_duplicate_support_rejected(self):
        with pytest.raises(ValueError):
            subset_state_expectation(1, [(0, 1), (0, 1)], 2)

    def test_matches_dense_path(self):
        rng = np.random.default_rng(16)
        n = 10
        for _ in range(10):
            idx = rng.choice(1 << n, size=13, replace=False)
            vals = rng.integers(1, 7, size=13).astype(np.int64)
            pairs = list(zip(map(int, idx), map(int, vals)))
            nums = np.zeros(1 << n, dtype=np.int64)
            nums[idx] = vals
            state = dense_state(nums)
            z = int(rng.integers(0, 1 << n))
            mask = PauliMask(z=z, x=0, qubits=n)
            assert subset_state_expectation(z, pairs, state.norm_sq) == pauli_expectation(
                state, mask
            )

    def test_arbitrary_precision_indices(self):
        # 200-bit basis labels: sign depends on parity of the mask overlap
        z = (1 << 199) | (1 << 3)
        support = [((1 << 199) | (1 << 100), 2), ((1 << 3) | (1 << 100), 1)]
        # first point overlaps z in one position (odd), second also one
        assert subset_state_expectation(z, support, 5) == Fraction(-4 - 1, 5)

    def test_complementary_codeword_blocks_hit_minus_one(self):
        # two-hot points pairing a codeword with its complement all pick up
        # odd overlaps; together with the marked last-qubit point the scaled
        # distance readout saturates at -1
        code_len = 8
        a = [1, 0, 1, 1, 0, 0, 1, 0]
        z_bits = a + [1 - v for v in a] + [1]
        z = sum(bit << p for p, bit in enumerate(z_bits))
        support = [((1 << k) | (1 << (code_len + k)), 1) for k in range(code_len)]
        two_hot = subset_state_expectation(z, support, 2 * code_len)
        marked = Fraction(-code_len, 2 * code_len)
        assert two_hot + marked == -1


class TestDenseObservablePath:
    def test_float_path_tracks_exact_rational(self):
        # the float quadratic form over unit amplitudes agrees with the exact value
        rng = np.random.default_rng(17)
        nums = rng.integers(-5, 6, size=8).astype(np.int64)
        nums[0] = 1
        state = dense_state(nums)
        mask = random_mask(rng, 3)
        amps = state.numerators / np.sqrt(float(state.norm_sq))
        floating = float(amps @ mask.to_dense().astype(np.float64) @ amps)
        assert abs(floating - float(pauli_expectation(state, mask))) < 1e-12


def test_character_rows_pairwise_orthogonal_small():
    # brute-force check over all row pairs, kron-built
    for n in (1, 2, 3, 4, 5, 6):
        dim = 1 << n
        rows = np.stack(
            [
                np.diagonal(kron_oracle(PauliMask(z=k, x=0, qubits=n)))
                for k in range(dim)
            ]
        )
        gram = rows @ rows.T
        assert np.array_equal(gram, dim * np.eye(dim, dtype=np.int64))
