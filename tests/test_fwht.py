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


def python_int_fwht(v) -> list[int]:
    """Independent oracle: butterflies over Python ints, in an object array."""
    out = np.array([int(a) for a in v], dtype=object)
    h = 1
    while h < out.size:
        blocks = out.reshape(-1, 2, h)
        left, right = blocks[:, 0].copy(), blocks[:, 1].copy()
        blocks[:, 0], blocks[:, 1] = left + right, left - right
        h *= 2
    return out.tolist()


def test_single_qubit_rows():
    # rows are the diagonals of the identity and the sign-flip operator
    assert np.array_equal(character_row(0, 1), [1, 1])
    assert np.array_equal(character_row(1, 1), [1, -1])
    assert np.array_equal(fwht([1, 0]), [1, 1])


@pytest.mark.parametrize("q", range(1, 8))
def test_factors_and_sign_rows_come_from_the_one_character_builder(q):
    # the cached factors of the transform and the sign rows of pauli_quad
    # are the public character rows, read-only
    factor = _kernels.hadamard_factor(q)
    assert np.array_equal(factor, character_matrix(q))
    assert not factor.flags.writeable
    zs = range(1 << q) if q <= 4 else np.random.default_rng(q).integers(0, 1 << q, size=16).tolist()
    for z in zs:
        row = _kernels.sign_row(q, z)
        assert np.array_equal(row, character_row(z, q))
        assert not row.flags.writeable


def test_public_transform_is_the_kernel():
    assert fwht is _kernels.fwht


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
    # a prefix longer than 2^qubits
    for call in (_kernels.fwht, fwht):
        with pytest.raises(ValueError):
            call(np.ones(9, dtype=np.int64), 3)
        with pytest.raises(ValueError):
            call(np.ones(2, dtype=np.int64), 0)
    assert _kernels.fwht(np.ones(8, dtype=np.int64), 3).tolist() == [8] + [0] * 7


@pytest.mark.parametrize(
    "qubits, value",
    [
        (4, (1 << 58) - 1),  # 58 + 4 bits: the widest exact case
        (0, (1 << 62) - 1),  # a 62-bit value alone
        (0, -(1 << 61)),  # -2^61 is 62 bits in size
    ],
)
def test_exact_just_below_the_int64_guard(qubits, value):
    v = np.full(1 << qubits, value, dtype=np.int64)
    v[1::2] = 1 - v[1::2]
    assert fwht(v).tolist() == python_int_fwht(v)


def test_overflow_guard():
    # bits + n reaching 63 raises in the kernel itself; -2^63 is 64 bits
    int64 = np.iinfo(np.int64)
    cases = [(4, 1 << 60), (4, 1 << 58), (0, 1 << 62), (0, int64.max), (0, int64.min), (3, int64.min)]
    for qubits, value in cases:
        v = np.full(1 << qubits, value, dtype=np.int64)
        with pytest.raises(OverflowError):
            fwht(v)
        with pytest.raises(OverflowError):
            _kernels.fwht(v)


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


class TestFactoredTransform:
    """The float64 Kronecker-factored path and its limbs against Python ints."""

    def test_factor_splits(self):
        assert _kernels.factor_qubits(1) == [1]
        assert _kernels.factor_qubits(7) == [7]
        assert _kernels.factor_qubits(8) == [4, 4]
        assert _kernels.factor_qubits(12) == [6, 6]
        assert _kernels.factor_qubits(13) == [7, 6]
        assert _kernels.factor_qubits(14) == [7, 7]
        assert _kernels.factor_qubits(15) == [5, 5, 5]
        for n in range(1, 25):
            parts = _kernels.factor_qubits(n)
            assert sum(parts) == n
            assert max(parts) <= _kernels.MAX_FACTOR_QUBITS
            assert max(parts) - min(parts) <= 1

    @pytest.mark.parametrize("n", range(1, 19))
    def test_float_path_equals_butterflies(self, n):
        # pauli-state's transform input lies in 0..4 * code_len; take the
        # signed range of its largest code length, 720
        rng = np.random.default_rng(100 + n)
        v = rng.integers(-2880, 2881, size=1 << n).astype(np.int64)
        fast = _kernels._fwht_float(v, n)
        assert fast.dtype == np.int64
        assert fast.tolist() == python_int_fwht(v)

    @staticmethod
    def _wide_input(bits):
        n, top = 4, (1 << bits) - 1
        v = np.full(1 << n, top, dtype=np.int64)
        v[-1] = top - 1
        v[1] = -top
        return v, len(_kernels.limbs(v, _kernels.abs_bound(v), 53 - n))

    def test_float_path_is_exact_at_53_bits(self):
        # bit_length 49 + 4 qubits = 53: every partial sum stays below 2^53,
        # so the input is its own single limb
        v, limbs = self._wide_input(49)
        assert limbs == 1
        assert _kernels.fwht(v).tolist() == python_int_fwht(v)

    @pytest.mark.parametrize("bits", [50, 58])
    def test_splits_into_two_limbs_past_53_bits(self, bits):
        # bit_length 50 + 4 qubits = 54: the all-plus row sums past 2^53 to
        # an odd number, which float64 would round; two limbs of 49 bits keep
        # it exact, up to 58 + 4 = 62, the widest input below the guard
        v, limbs = self._wide_input(bits)
        plus_row = sum(int(a) for a in v)
        assert limbs == 2 and int(np.float64(plus_row)) != plus_row
        assert _kernels.fwht(v).tolist() == python_int_fwht(v)

    @pytest.mark.parametrize("size", [1 << 12, 624])
    @pytest.mark.parametrize("top", [2880, (1 << 50) - 1])
    def test_input_kept_and_output_fresh(self, top, size):
        # one input per limb count, one limb and two, as the full vector and
        # as pauli-state's 624-entry prefix
        rng = np.random.default_rng(8)
        v = rng.integers(-top, top, size=size, dtype=np.int64)
        v.setflags(write=False)
        before = v.copy()
        out = _kernels.fwht(v, 12)
        assert np.array_equal(v, before)
        assert out.dtype == np.int64 and out.shape == (1 << 12,)
        assert out.flags.c_contiguous and out.flags.writeable
        assert not np.shares_memory(out, v)
        padded = np.zeros(1 << 12, dtype=np.int64)
        padded[:size] = v
        assert out.tolist() == python_int_fwht(padded)
        out[0] += 1
        assert np.array_equal(_kernels.fwht(v, 12), fwht(padded))


class TestPaddedPrefix:
    """A prefix zero-padded to 2^n: its transform equals the full transform
    of the padded vector, across factor counts, slab boundaries and limbs."""

    # one, one, two, three, three and four factors
    QUBITS = (3, 7, 12, 15, 18, 22)

    @staticmethod
    def _slab(n):
        # entries per slice along the first factor's axis
        return 1 << (n - _kernels.factor_qubits(n)[0])

    @staticmethod
    def _padded(v, n):
        padded = np.zeros(1 << n, dtype=np.int64)
        padded[: v.shape[0]] = v
        return padded

    def test_factor_counts_cover_one_to_four(self):
        assert [len(_kernels.factor_qubits(n)) for n in self.QUBITS] == [1, 1, 2, 3, 3, 4]

    @pytest.mark.parametrize("n", QUBITS)
    @pytest.mark.parametrize("length", ["one", "slab - 1", "3 slabs", "full"])
    def test_equals_the_full_transform_of_the_padded_vector(self, n, length):
        slab = self._slab(n)
        size = {"one": 1, "slab - 1": max(slab - 1, 1), "3 slabs": min(3 * slab, 1 << n), "full": 1 << n}[length]
        rng = np.random.default_rng(1000 * n + size % 997)
        v = rng.integers(-2880, 2881, size=size).astype(np.int64)
        out = _kernels.fwht(v, n)
        padded = self._padded(v, n)
        assert out.shape == (1 << n,)
        assert np.array_equal(out, _kernels.fwht(padded))
        assert np.array_equal(out, fwht(v, n))
        if n <= 15:
            assert out.tolist() == python_int_fwht(padded)
        # rows read straight off the character matrix: all-plus, alternating,
        # the last and a few at random
        for k in [0, 1, (1 << n) - 1] + rng.integers(0, 1 << n, size=4).tolist():
            assert out[k] == int(np.dot(character_row(k, n)[:size], v))

    @pytest.mark.parametrize("bits, limbs", [(41, 1), (42, 2), (50, 2)])
    def test_one_and_two_limbs(self, bits, limbs):
        # n = 12 and pauli-state's 624-entry table: 41 + 12 = 53 bits is one
        # exact limb; past it, two limbs, up to 50 + 12 = 62 below the guard
        n, top = 12, (1 << bits) - 1
        rng = np.random.default_rng(bits)
        v = rng.integers(-top, top, size=624, endpoint=True).astype(np.int64)
        v[:3] = [top, -top, top - 1]
        assert len(_kernels.limbs(v, _kernels.abs_bound(v), 53 - n)) == limbs
        assert _kernels.fwht(v, n).tolist() == python_int_fwht(self._padded(v, n))

    @pytest.mark.parametrize("n, length", [(12, 1), (12, 624), (3, 5)])
    def test_overflow_guard_counts_the_padded_qubits(self, n, length):
        # the guard reads bits + n of the padded length, whatever the prefix
        ok = np.full(length, (1 << (62 - n)) - 1, dtype=np.int64)
        assert _kernels.fwht(ok, n).tolist() == python_int_fwht(self._padded(ok, n))
        with pytest.raises(OverflowError):
            _kernels.fwht(ok + 1, n)
