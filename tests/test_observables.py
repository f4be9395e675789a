"""The eigensolver operator norm and the power iteration Alice runs."""
import numpy as np
import pytest

from gapcomm.bits import DimensionError, SharedRandomness
from gapcomm.observables import NumericError, _power_norm, operator_norm
from gapcomm.protocols import MAX_OBSERVABLE_QUBITS
from shake_stream import shake_doubles


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(np.eye(16)) == pytest.approx(1.0, abs=1e-12)

    def test_signed_diagonal(self):
        assert operator_norm(np.diag([3.0, -5.0])) == pytest.approx(5.0, abs=1e-9)

    def test_zero_matrix(self):
        assert operator_norm(np.zeros((4, 4))) == 0.0

    def test_paired_extremes_do_not_stall(self):
        assert operator_norm(np.diag([5.0, -5.0, 1.0, 0.0])) == pytest.approx(5.0, abs=1e-9)

    def test_matches_eigensolver_on_random_symmetric(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            a = rng.standard_normal((64, 64))
            sym = a + a.T
            reference = float(np.abs(np.linalg.eigvalsh(sym)).max())
            assert operator_norm(sym) == pytest.approx(reference, rel=1e-9)

    def test_deterministic(self):
        rng = np.random.default_rng(19)
        a = rng.standard_normal((32, 32))
        sym = a + a.T
        assert operator_norm(sym) == operator_norm(sym.copy())

    def test_iteration_cap_raises(self):
        rng = np.random.default_rng(20)
        a = rng.standard_normal((16, 16))
        sym = a + a.T
        with pytest.raises(NumericError):
            _power_norm(sym, max_iter=1)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            operator_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_requires_exact_symmetry(self):
        bad = np.array([[1.0, 2.0], [2.0 + 1e-12, 1.0]])
        with pytest.raises(ValueError):
            operator_norm(bad)

    @pytest.mark.parametrize("shape", [(3, 2), (4,), (2, 2, 2)])
    def test_rejects_non_square(self, shape):
        with pytest.raises(DimensionError):
            operator_norm(np.zeros(shape))

    @pytest.mark.parametrize("gap", [1e-5, 1e-7, 1e-9])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_near_tie_of_the_top_two(self, gap, sign):
        # |eigenvalues| 1 and 1 - gap over a spread rest, where a power
        # iteration runs out of sweeps (1e-5) or settles short of the norm
        rng = np.random.default_rng(22)
        q = np.linalg.qr(rng.standard_normal((64, 64)))[0]
        spectrum = np.concatenate([[1.0, sign * (1.0 - gap)], rng.uniform(-0.9, 0.9, 62)])
        m = (q * spectrum) @ q.T
        sym = (m + m.T) / 2
        reference = float(np.abs(np.linalg.eigvalsh(sym)).max())
        assert abs(operator_norm(sym) - reference) <= 1e-9 * reference

    def test_any_square_dimension(self):
        # no power-of-two requirement: the Gram matrices need none
        sym = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]])
        assert operator_norm(sym) == pytest.approx(2.0 + np.sqrt(2.0), rel=1e-9)

    def test_accepts_integer_input(self):
        assert operator_norm([[0, 3], [3, 0]]) == pytest.approx(3.0, abs=1e-9)


def start_vector(dim: int) -> np.ndarray:
    """The unit vector the power iteration starts from: the first ``dim``
    doubles of the dimension's stream, read through hashlib."""
    v = np.array(shake_doubles(SharedRandomness(0xC0FFEE, dim), dim))
    return v / np.linalg.norm(v)


def reference_power_norm(arr: np.ndarray) -> float:
    """The power iteration as first written, on the shared stream, with
    norms from ``np.linalg.norm``; its null-space restart, which no Gram
    matrix of 0/1 rows takes, is left out."""
    v = start_vector(arr.shape[0])
    estimate, stable = 0.0, 0
    while True:
        w = arr @ v
        nw = float(np.linalg.norm(w))
        u = arr @ w
        v = u / float(np.linalg.norm(u))
        if estimate > 0.0 and abs(nw - estimate) <= 1e-13 * nw:
            stable += 1
            if stable >= 3:
                return nw
        else:
            stable = 0
        estimate = nw


class TestPowerNorm:
    def test_start_vector_is_cached_read_only(self):
        import gapcomm.observables as obs

        v = obs._start_vector(32)
        assert v is obs._start_vector(32)
        assert not v.flags.writeable
        assert np.array_equal(v, start_vector(32)) and np.all(v >= 0)

    def test_start_vector_is_positive_at_every_gram_dimension(self):
        # _power_norm's precondition: Alice's Gram side has at most
        # 2^MAX_OBSERVABLE_QUBITS rows, and a strictly positive start keeps
        # every sweep off the zero vector
        import gapcomm.observables as obs

        for dim in range(1, (1 << MAX_OBSERVABLE_QUBITS) + 1):
            assert np.all(obs._start_vector(dim) > 0), dim

    def test_same_floats_as_the_first_written_iteration(self):
        rng = np.random.default_rng(21)
        mats = []
        for dim in (2, 3, 16, 64, 100):
            a = rng.standard_normal((dim, dim))
            rows = rng.integers(0, 2, size=(dim, 3 * dim)).astype(np.float64)
            mats += [a + a.T, rows @ rows.T, rows.T @ rows]
        for arr in mats:
            assert _power_norm(arr) == reference_power_norm(arr)
            assert operator_norm(arr) == pytest.approx(reference_power_norm(arr), rel=1e-9)
