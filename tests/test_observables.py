"""The power-iteration operator norm."""
import numpy as np
import pytest

from gapcomm.bits import DimensionError
from gapcomm.observables import NumericError, operator_norm


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
            operator_norm(sym, max_iter=1)

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

    def test_any_square_dimension(self):
        # no power-of-two requirement: the Gram matrices need none
        sym = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]])
        assert operator_norm(sym) == pytest.approx(2.0 + np.sqrt(2.0), rel=1e-9)

    def test_accepts_integer_input(self):
        assert operator_norm([[0, 3], [3, 0]]) == pytest.approx(3.0, abs=1e-9)
