"""The eigensolver operator norm and the certified norm bound Alice ships."""
import math

import numpy as np
import pytest

import gapcomm.observables as obs
from gapcomm import protocols as proto
from gapcomm.bits import STREAM_INSTANCE, DimensionError, SharedRandomness
from gapcomm.ghd import GhdParams
from gapcomm.harness import sample_instance
from gapcomm.observables import CW_GAP, certified_norm, operator_norm


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


def eigen_norm(gram: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(gram).max())


def gram_of(rows) -> np.ndarray:
    rows = np.asarray(rows, dtype=np.float64)
    return rows @ rows.T


class TestCertifiedNorm:
    @pytest.mark.parametrize("odd", [True, False])
    @pytest.mark.parametrize("qubits,epsilon", [(6, 0.5), (8, 0.3), (8, 0.5)])
    def test_shipped_bound_brackets_the_eigenvalue_on_both_gram_sides(self, qubits, epsilon, odd):
        # (8, 0.5) has more rows than columns, so Alice bounds the column side.
        # Past CW_GAP, q carries the rounding factor 1 + dim * 2^-47 and its
        # fixed-point ceiling, under 2^-32 <= lam * dim * 2^-47 at these sizes
        pc = proto.ProtocolConfig("observable-general", qubits, GhdParams(epsilon=epsilon))
        dim = 1 << qubits
        for seed in range(3):
            sr = SharedRandomness(70 + seed)
            x = sample_instance(sr.substream(STREAM_INSTANCE), pc, odd)
            rows = np.concatenate(proto.encode_block_matrices(x, pc, sr)).astype(np.float64)
            for gram in (rows @ rows.T, rows.T @ rows):
                lam = eigen_norm(gram)
                q = proto._norm_fp(gram, dim) / (1 << proto.NORM_FRAC_BITS)
                assert lam <= q <= lam * (1 + CW_GAP + dim * 2.0**-46)
                assert certified_norm(gram) >= lam

    def test_same_bound_from_any_memory_order(self):
        # every product the iteration takes is exact, so a Fortran-ordered
        # copy, which runs another BLAS path, gives the same bound
        rows = SharedRandomness(71).bit_matrix(96, 200)
        gram = gram_of(rows)
        assert certified_norm(np.asfortranarray(gram)) == certified_norm(gram)

    def test_zero_rows_are_ignored(self):
        rows = SharedRandomness(72).bit_matrix(40, 90).astype(np.float64)
        rows[[0, 7, 39]] = 0.0
        gram = gram_of(rows)
        bound = certified_norm(gram)
        lam = eigen_norm(gram)
        assert lam <= bound <= lam * (1 + 2 * CW_GAP)
        assert bound == certified_norm(gram_of(np.delete(rows, [0, 7, 39], axis=0)))

    def test_all_zero_matrix_has_bound_zero(self):
        assert certified_norm(np.zeros((5, 5))) == 0.0

    @pytest.mark.parametrize("weight", [1, 7, 720])
    def test_dimension_one_is_the_float_after_its_entry(self, weight):
        # the exact ratio is the entry; the bound rounds the float ratio up
        assert certified_norm(np.array([[float(weight)]])) == math.nextafter(weight, math.inf)

    def test_block_diagonal_gram_settles_on_its_top_block(self):
        # two groups of rows on disjoint columns (eigenvalues 8.46 and 7.42
        # on top): the smaller block's share of v decays too slowly for the
        # Rayleigh quotient to close within the sweep cap, but by then the
        # upper end has settled on the larger block's eigenvalue
        rows = np.zeros((6, 9))
        rows[0, :4] = rows[1, 1:5] = rows[2, [0, 2, 4]] = 1
        rows[3, 5:] = rows[4, 6:] = rows[5, [5, 8]] = 1
        gram = gram_of(rows)
        lam = eigen_norm(gram)
        assert lam <= certified_norm(gram) <= lam * (1 + 2.0**-40)

    def test_equal_blocks(self):
        gram = gram_of(np.kron(np.eye(2), np.ones((2, 3))))
        assert certified_norm(gram) == math.nextafter(6.0, math.inf)

    def test_sweep_cap_ships_the_upper_end(self, monkeypatch):
        # one sweep leaves the first ratios, the row sums: still an upper bound
        rows = SharedRandomness(73).bit_matrix(30, 50)
        gram = gram_of(rows)
        monkeypatch.setattr(obs, "CW_SWEEPS", 1)
        assert certified_norm(gram) == math.nextafter(gram.sum(axis=1).max(), math.inf)
        assert certified_norm(gram) >= eigen_norm(gram)
