"""Kernels against direct reference computations; parity against int.bit_count."""
import numpy as np

from gapcomm import _kernels


def test_parity_matches_bit_count():
    rng = np.random.default_rng(26)
    values = rng.integers(0, 2**63, size=500, dtype=np.uint64)
    expected = np.array([int(v).bit_count() & 1 for v in values], dtype=np.int64)
    assert np.array_equal(_kernels.parity_u64(values), expected)


def test_pauli_quad_paths_agree():
    rng = np.random.default_rng(27)
    for n in (3, 6, 9):
        nums = rng.integers(-50, 50, size=1 << n).astype(np.int64)
        for _ in range(5):
            z = int(rng.integers(0, 1 << n))
            x = int(rng.integers(0, 1 << n))
            expected = sum(
                (-1 if (y & z).bit_count() & 1 else 1) * int(nums[y]) * int(nums[y ^ x])
                for y in range(1 << n)
            )
            assert _kernels.pauli_quad(nums, z, x) == expected


def test_majority_rows_paths_agree_and_break_ties_to_zero():
    rng = np.random.default_rng(28)
    pads = rng.integers(0, 2, size=(40, 12), dtype=np.uint8)
    for size in (0, 1, 2, 3, 4, 7, 12):
        selected = np.sort(rng.choice(12, size=size, replace=False)).astype(np.int64)
        out = _kernels.majority_rows(pads, selected)
        if size == 0:
            assert not out.any()
        else:
            counts = pads[:, selected].sum(axis=1)
            assert np.array_equal(out, (2 * counts > size).astype(np.uint8))


def test_even_split_is_zero():
    pads = np.array([[1, 0], [0, 1], [1, 1], [0, 0]], dtype=np.uint8)
    out = _kernels.majority_rows(pads, np.array([0, 1], dtype=np.int64))
    assert np.array_equal(out, [0, 0, 1, 0])


def test_backend_reports_a_name():
    assert _kernels.backend_name() == "numpy"


def test_majority_blocks_matches_majority_rows_per_block():
    rng = np.random.default_rng(29)
    pads = rng.integers(0, 2, size=(40, 12), dtype=np.uint8)
    blocks = rng.integers(0, 2, size=(30, 12), dtype=np.uint8)
    blocks[0] = 0  # empty selection
    blocks[1] = [1, 1] + [0] * 10  # even selection, ties possible
    out = _kernels.majority_blocks(pads, blocks)
    assert out.dtype == np.uint8 and out.shape == (30, 40)
    for j, block in enumerate(blocks):
        selected = np.nonzero(block)[0].astype(np.int64)
        assert np.array_equal(out[j], _kernels.majority_rows(pads, selected))
