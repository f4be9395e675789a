"""Exact transform identities against independently built matrices."""
import numpy as np
import pytest

from gapcomm import _kernels
from gapcomm.fwht import character_matrix, character_row, fwht


def reference_matrix(qubits: int) -> np.ndarray:
    """Independent oracle: entry-by-entry popcount construction."""
    dim = 1 << qubits
    return np.array(
        [[(-1) ** bin(k & y).count("1") for y in range(dim)] for k in range(dim)],
        dtype=np.int64,
    )


def test_single_qubit_rows():
    # rows are the diagonals of the identity and the sign-flip operator
    assert np.array_equal(character_row(0, 1), [1, 1])
    assert np.array_equal(character_row(1, 1), [1, -1])
    assert np.array_equal(fwht([1, 0]), [1, 1])


def test_matches_reference_matrix_small():
    rng = np.random.default_rng(4)
    for n in range(1, 6):
        ref = reference_matrix(n)
        assert np.array_equal(character_matrix(n), ref)
        for _ in range(5):
            v = rng.integers(-50, 50, size=1 << n).astype(np.int64)
            assert np.array_equal(fwht(v), ref @ v)


def test_involution_up_to_dimension():
    rng = np.random.default_rng(5)
    for n in range(1, 11):
        dim = 1 << n
        v = rng.integers(-1000, 1000, size=dim).astype(np.int64)
        assert np.array_equal(fwht(fwht(v)), dim * v)


def test_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        fwht(np.ones(6, dtype=np.int64))
    with pytest.raises(ValueError):
        fwht(np.zeros(0, dtype=np.int64))


def test_overflow_guard():
    with pytest.raises(OverflowError):
        fwht(np.full(1 << 4, 1 << 60, dtype=np.int64))


class TestSolve:
    """H v = s solved exactly by a second forward pass: v = fwht(s) / 2^n."""

    def test_zero_input(self):
        assert not fwht(np.zeros(8, dtype=np.int64)).any()

    def test_first_basis_vector(self):
        # first row of the matrix is all ones, so e1 solves to all-ones / 2^n
        e1 = np.zeros(8, dtype=np.int64)
        e1[0] = 1
        assert np.array_equal(fwht(e1), np.ones(8, dtype=np.int64))

    def test_exact_round_trip_random(self):
        rng = np.random.default_rng(6)
        for n in (2, 4, 6, 8):
            dim = 1 << n
            stacked = rng.integers(0, 4 * 240 + 1, size=dim).astype(np.int64)
            nums = fwht(stacked)
            assert np.array_equal(reference_matrix(n) @ nums, dim * stacked)


def test_kernel_fwht_matches_character_matrix():
    rng = np.random.default_rng(7)
    for n in (1, 4, 9):
        v = rng.integers(-500, 500, size=1 << n).astype(np.int64)
        expected = reference_matrix(n) @ v
        assert np.array_equal(_kernels.fwht(v), expected)
