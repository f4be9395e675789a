"""Kernels against direct reference computations; parity against int.bit_count."""
import os
import subprocess
import sys

import numpy as np
import pytest

import gapcomm
from gapcomm import _kernels


def test_parity_matches_bit_count():
    rng = np.random.default_rng(26)
    values = np.concatenate([
        np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64),
        rng.integers(0, 2**64 - 1, size=500, dtype=np.uint64, endpoint=True),
    ])
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


def test_fwht_prefix_matches_the_character_matrix_columns():
    # a prefix of length L padded to 2^n transforms to the first L columns of
    # the matrix times the prefix, for one and two factors
    rng = np.random.default_rng(30)
    for n in range(0, 11):
        dim = 1 << n
        idx = np.arange(dim, dtype=np.uint64)
        for size in sorted({1, dim // 3 + 1, dim - 1 or 1, dim}):
            v = rng.integers(-50, 50, size=size).astype(np.int64)
            cols = 1 - 2 * _kernels.parity_u64(idx[:, None] & idx[:size]).astype(np.int64)
            assert np.array_equal(_kernels.fwht(v, n), cols @ v)


def reference_quad(nums, z: int, x: int) -> int:
    return sum(
        (-1 if (y & z).bit_count() & 1 else 1) * int(nums[y]) * int(nums[y ^ x])
        for y in range(len(nums))
    )


def unaligned_view(nums: np.ndarray) -> np.ndarray:
    """The amplitudes as an unaligned view, at byte offset 30 of a bytes
    object, as a message payload that did not come through ``from_wire`` may
    hold them."""
    return np.frombuffer(bytes(30) + nums.astype("<i8").tobytes(), dtype="<i8", offset=30)


# (qubits, x) per case; the factor axes are 7 | 9 = 5+4 | 13 = 7+6 | 15 = 5+5+5
QUAD_CASES = [
    (7, 0), (7, 0b1010001),
    (9, 0), (9, 1 << 8), (9, 0b0101), (9, (1 << 8) | 0b0011),
    (13, 0), (13, 1 << 12), (13, 0b100001), (13, (1 << 12) | (1 << 7) | 1),
    (15, 1 << 7), (15, (1 << 14) | (1 << 6) | 0b10),
]


@pytest.mark.parametrize("qubits,x", QUAD_CASES)
def test_pauli_quad_matches_per_entry_reference(qubits, x):
    # x zero, only high bits, only low bits, or both; z never overlaps x
    rng = np.random.default_rng(qubits * 7919 + x)
    nums = rng.integers(-500, 500, size=1 << qubits).astype(np.int64)
    z = int(rng.integers(0, 1 << qubits)) & ~x
    expected = reference_quad(nums, z, x)
    assert _kernels.pauli_quad(nums, z, x) == expected
    view = unaligned_view(nums)
    assert not view.flags.aligned
    assert _kernels.pauli_quad(view, z, x) == expected


def test_pauli_quad_exact_at_the_int64_guard():
    # 2 * bits + len bits: 60 and 61 were under the old int64 guard, 62 and
    # 63 fell to a per-entry loop; 63 is one limb, 64 takes two, and 62- and
    # 63-bit entries take three
    for qubits, bits in ((13, 23), (12, 24), (13, 24), (12, 25), (13, 25), (7, 62), (7, 63)):
        rng = np.random.default_rng(31 + bits)
        top = (1 << bits) - 1
        nums = rng.integers(-top, top, size=1 << qubits, endpoint=True).astype(np.int64)
        nums[:64] = top
        high = 1 << (qubits - 1)
        # x zero, x on the top qubit, and z overlapping x (not a Pauli mask,
        # but the kernel is defined for it and Q(u, v) != Q(v, u) there)
        for z, x in ((0, 0), (0b1011, high), (high | 0b110, high | 0b10)):
            expected = reference_quad(nums, z, x)
            assert _kernels.pauli_quad(nums, z, x) == expected, (qubits, bits, z, x)


@pytest.mark.parametrize("fill", [np.iinfo(np.int64).min, np.iinfo(np.int64).max])
def test_pauli_quad_exact_at_the_int64_extremes(fill):
    nums = np.full(1 << 6, fill, dtype=np.int64)
    nums[5] = -7
    for z, x in ((0, 0), (0b101, 0b10), (0b110, 0b11)):
        assert _kernels.pauli_quad(nums, z, x) == reference_quad(nums, z, x)


@pytest.mark.parametrize("z,x,forms", [(0b1011, 1 << 9, 3), (0b110, 0b010, 4)])
def test_pauli_quad_on_two_limbs_runs_three_forms_for_disjoint_masks(monkeypatch, z, x, forms):
    # 28-bit entries over 2^10 amplitudes split into two 26-bit limbs; the
    # form is symmetric only when the masks are disjoint
    rng = np.random.default_rng(32)
    top = (1 << 28) - 1
    nums = rng.integers(-top, top, size=1 << 10, endpoint=True).astype(np.int64)
    assert len(_kernels.limbs(nums, _kernels.abs_bound(nums), _kernels.product_width(nums.size))) == 2
    calls = []
    bilinear = _kernels._pauli_bilinear
    monkeypatch.setattr(
        _kernels, "_pauli_bilinear", lambda *args: calls.append(1) or bilinear(*args)
    )
    expected = reference_quad(nums, z, x)
    assert _kernels.pauli_quad(nums, z, x) == expected
    assert len(calls) == forms
    view = unaligned_view(nums)
    assert not view.flags.aligned
    assert _kernels.pauli_quad(view, z, x) == expected


def test_kernel_benchmark_script_runs():
    # the script reaches into library names; one it calls that is gone fails here
    src = os.path.dirname(os.path.dirname(gapcomm.__file__))
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    script = os.path.join(repo, "benchmarks", "bench_kernels.py")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, script], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
