"""The power-iteration operator norm."""
import numpy as np
import pytest

from gapcomm.bits import DimensionError, SharedRandomness
from gapcomm.observables import NumericError, _power_norm, operator_norm
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

    @pytest.mark.parametrize("gap", [1e-5, 1e-7, 1e-9])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_near_tie_of_the_top_two(self, gap, sign):
        # |eigenvalues| 1 and 1 - gap over a spread rest: the power iteration
        # alone runs out of sweeps (1e-5) or settles short of the norm
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


def unit_doubles(dim: int, skip: int) -> np.ndarray:
    """Doubles ``skip * dim`` to ``(skip + 1) * dim`` of the dimension's
    stream, read through hashlib, as a unit vector."""
    v = np.array(shake_doubles(SharedRandomness(0xC0FFEE, dim), (skip + 1) * dim)[skip * dim :])
    return v / np.linalg.norm(v)


def start_vector(dim: int) -> np.ndarray:
    """The unit vector the power iteration starts from: the stream's first
    ``dim`` doubles."""
    return unit_doubles(dim, 0)


def reference_operator_norm(arr: np.ndarray) -> float:
    """The power iteration as first written, on the shared stream: restart k
    takes the k-th ``dim`` doubles after the start vector's, norms come from
    ``np.linalg.norm``."""
    dim = arr.shape[0]
    v = start_vector(dim)
    restarts, estimate, stable = 0, 0.0, 0
    while True:
        w = arr @ v
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            restarts += 1
            v = unit_doubles(dim, restarts)
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
        drawn = []
        plain = obs._unit_doubles

        def counted(d, skip):
            drawn.append((d, skip))
            return plain(d, skip)

        monkeypatch.setattr(obs, "_unit_doubles", counted)
        first = operator_norm(arr)
        assert drawn == [(dim, 1)]  # one restart, from the doubles after the start's
        reference = float(np.abs(np.linalg.eigvalsh(arr)).max())
        assert first == pytest.approx(reference, rel=1e-9)
        assert operator_norm(arr) == first
        assert operator_norm(arr.copy()) == first

    def test_no_draw_without_a_restart(self, monkeypatch):
        import gapcomm.observables as obs

        obs._start_vector(3)
        monkeypatch.setattr(obs, "_unit_doubles", lambda d, skip: pytest.fail("restart drawn"))
        operator_norm(np.diag([3.0, -5.0, 1.0]))

    def test_start_vector_is_cached_read_only(self):
        import gapcomm.observables as obs

        v = obs._start_vector(32)
        assert v is obs._start_vector(32)
        assert not v.flags.writeable
        assert np.array_equal(v, start_vector(32)) and np.all(v >= 0)

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
