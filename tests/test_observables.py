"""The power-iteration operator norm."""
import numpy as np
import pytest

from gapcomm.bits import DimensionError
from gapcomm.observables import NumericError, _power_norm, operator_norm


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


def start_vector(dim: int) -> np.ndarray:
    """The unit vector the power iteration starts from, drawn as first written."""
    v = np.random.default_rng(0xC0FFEE ^ dim).standard_normal(dim)
    return v / np.linalg.norm(v)


def reference_operator_norm(arr: np.ndarray) -> float:
    """The power iteration as first written: one generator per call, its
    later draws the restarts, norms from ``np.linalg.norm``."""
    dim = arr.shape[0]
    rng = np.random.default_rng(0xC0FFEE ^ dim)
    v = rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    estimate, stable = 0.0, 0
    while True:
        w = arr @ v
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            v = rng.standard_normal(dim)
            v /= np.linalg.norm(v)
            stable = 0
            continue
        u = arr @ w
        nu = float(np.linalg.norm(u))
        v = u / nu if nu != 0.0 else w / nw
        if estimate > 0.0 and abs(nw - estimate) <= 1e-13 * nw:
            stable += 1
            if stable >= 3:
                return nw
        else:
            stable = 0
        estimate = nw


def null_space_projector(dim: int) -> np.ndarray:
    """I - v v^T for the start vector v, scaled by 2^-500: the image of v is
    then so small that its squared norm underflows to 0, and the iteration
    must restart."""
    v = start_vector(dim)
    return np.ldexp(np.eye(dim) - np.outer(v, v), -500)


class TestRestart:
    @pytest.mark.parametrize("dim", [4, 16, 64])
    def test_null_space_start_restarts_and_matches_eigensolver(self, dim, monkeypatch):
        import gapcomm.observables as obs

        arr = null_space_projector(dim)
        obs._start_vector(dim)  # the cached start vector draws no more
        seeded = []

        def counted(d):
            seeded.append(d)
            return np.random.default_rng(0xC0FFEE ^ d)

        monkeypatch.setattr(obs, "_seeded", counted)
        first = operator_norm(arr)
        assert seeded == [dim]  # one restart generator, made when needed
        reference = float(np.abs(np.linalg.eigvalsh(arr)).max())
        assert first == pytest.approx(reference, rel=1e-9)
        assert operator_norm(arr) == first
        assert operator_norm(arr.copy()) == first

    def test_no_generator_without_a_restart(self, monkeypatch):
        import gapcomm.observables as obs

        obs._start_vector(3)
        monkeypatch.setattr(obs, "_seeded", lambda d: pytest.fail("restart generator made"))
        operator_norm(np.diag([3.0, -5.0, 1.0]))

    def test_start_vector_is_cached_read_only(self):
        import gapcomm.observables as obs

        v = obs._start_vector(32)
        assert v is obs._start_vector(32)
        assert not v.flags.writeable
        assert np.array_equal(v, start_vector(32))

    def test_same_floats_as_the_first_written_iteration(self):
        rng = np.random.default_rng(21)
        mats = [null_space_projector(d) for d in (4, 16, 64)]
        for dim in (2, 3, 16, 64, 100):
            a = rng.standard_normal((dim, dim))
            rows = rng.integers(0, 2, size=(dim, 3 * dim)).astype(np.float64)
            mats += [a + a.T, rows @ rows.T, rows.T @ rows]
        for arr in mats:
            assert operator_norm(arr) == reference_operator_norm(arr)
            # the unchecked iteration that Alice's encoder calls
            assert _power_norm(arr) == reference_operator_norm(arr)
