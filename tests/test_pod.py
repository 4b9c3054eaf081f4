import numpy as np
import pytest

from shapemanifold.errors import DimensionMismatch, EmptyBasis, EmptyDatabase
from shapemanifold.pod import (
    PodBasis,
    TruncationRule,
    assemble,
    compute_pod,
    decay_report,
    project,
    reconstruct,
    truncate,
)

from helpers import assert_pod_orthonormal, jacobi_singular_values, random_pod_matrix


class TestAssemble:
    def test_no_centering(self):
        matrix, center = assemble([[1.0, 0.0], [0.0, 1.0]], centering="none")
        np.testing.assert_array_equal(matrix, [[1, 0], [0, 1]])
        np.testing.assert_array_equal(center, [0, 0])

    def test_mean_centering(self):
        matrix, center = assemble([[1.0, 0.0], [0.0, 1.0]], centering="mean")
        np.testing.assert_allclose(center, [0.5, 0.5])
        np.testing.assert_allclose(matrix, [[0.5, -0.5], [-0.5, 0.5]])

    def test_identical_snapshots_mean(self):
        matrix, _ = assemble([[2.0, 3.0]] * 4, centering="mean")
        assert np.all(matrix == 0.0)

    def test_reference_centering(self):
        matrix, center = assemble([[1.0, 1.0]], centering=np.array([1.0, 0.0]))
        np.testing.assert_array_equal(matrix[:, 0], [0.0, 1.0])
        np.testing.assert_array_equal(center, [1.0, 0.0])

    def test_empty(self):
        with pytest.raises(EmptyDatabase):
            assemble([])

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            assemble([[1.0, 2.0], [1.0, 2.0, 3.0]])

    @pytest.mark.parametrize("centering", ["none", "mean"])
    def test_array_and_list_agree_bitwise(self, centering):
        rows = np.random.default_rng(3).standard_normal((7, 40))
        m1, c1 = assemble(rows, centering=centering)
        m2, c2 = assemble(list(rows), centering=centering)
        assert m1.tobytes() == m2.tobytes() and c1.tobytes() == c2.tobytes()
        assert m1.shape == (40, 7) and m1.flags.c_contiguous

    def test_scalar_snapshots_have_length_one(self):
        matrix, center = assemble([1.0, 2.0, 6.0], centering="mean")
        np.testing.assert_array_equal(matrix, [[-2.0, -1.0, 3.0]])
        np.testing.assert_array_equal(center, [3.0])

    def test_vertex_array_snapshots_are_flattened(self):
        shapes = np.random.default_rng(4).standard_normal((3, 5, 3))
        matrix, _ = assemble(shapes)
        for j, shape in enumerate(shapes):
            np.testing.assert_array_equal(matrix[:, j], shape.reshape(-1))
        np.testing.assert_array_equal(matrix, assemble(list(shapes))[0])

    def test_ragged_arrays_rejected(self):
        with pytest.raises(DimensionMismatch):
            assemble([np.zeros(4), np.zeros(5)])
        with pytest.raises(DimensionMismatch):
            assemble([np.zeros((2, 3)), np.zeros((3, 3))])

    def test_empty_array(self):
        with pytest.raises(EmptyDatabase):
            assemble(np.zeros((0, 6)))


class TestComputePod:
    def test_diagonal_case(self):
        m = np.array([[2.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        basis = compute_pod(m)
        np.testing.assert_allclose(basis.singular_values, [2.0, 1.0])
        np.testing.assert_allclose(basis.modes[:, 0], [1, 0, 0], atol=1e-14)
        np.testing.assert_allclose(basis.modes[:, 1], [0, 1, 0], atol=1e-14)

    def test_rank_one_hand_value(self):
        # a b^T with |a| = 2, |b| = 3: single singular value 6 (verified
        # against the Jacobi oracle and the 2x2 Gram trace by hand).
        a = np.array([0.0, 2.0, 0.0, 0.0])
        b = np.array([3.0, 0.0])
        basis = compute_pod(np.outer(a, b))
        assert basis.rank == 1
        assert basis.singular_values[0] == pytest.approx(6.0, rel=1e-12)
        np.testing.assert_allclose(np.abs(basis.modes[:, 0]), np.abs(a) / 2.0, atol=1e-14)

    def test_identical_columns_rank_one(self):
        col = np.array([1.0, 2.0, -1.0])
        basis = compute_pod(np.column_stack([col, col, col]))
        assert basis.rank == 1

    def test_zero_matrix_empty_basis(self):
        basis = compute_pod(np.zeros((5, 3)))
        assert basis.rank == 0
        assert basis.modes.shape == (5, 0)

    def test_orthonormality(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((40, 12))
        basis = compute_pod(m)
        gram = basis.modes.T @ basis.modes
        assert np.abs(gram - np.eye(basis.rank)).max() < 1e-10

    def test_modes_orthonormal_tall_wide_and_rank_deficient(self):
        # Fixed-seed twin of the hypothesis property in test_pod_properties.py.
        rng = np.random.default_rng(15)
        shapes = [(40, 12, 12), (40, 12, 5), (12, 40, 12), (12, 40, 3), (7, 7, 7),
                  (7, 7, 0), (1, 1, 1), (1, 9, 1), (9, 1, 1), (30, 30, 29)]
        for rows, cols, rank in shapes:
            assert_pod_orthonormal(random_pod_matrix(rng, rows, cols, rank), rank)

    def test_triple_residual_contract(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((25, 8))
        basis = compute_pod(m)
        sigma1 = basis.singular_values[0]
        for i in range(basis.rank):
            # Recover the right singular vector consistently with the mode.
            phi = m.T @ basis.modes[:, i] / basis.singular_values[i]
            residual = np.linalg.norm(m @ phi - basis.singular_values[i] * basis.modes[:, i])
            assert residual <= 1e-8 * sigma1

    def test_scale_equivariance(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((15, 6))
        b1 = compute_pod(m)
        b2 = compute_pod(2.5 * m)
        np.testing.assert_allclose(
            b2.singular_values, 2.5 * b1.singular_values, rtol=1e-12
        )
        np.testing.assert_allclose(b2.modes, b1.modes, atol=1e-9)

    def test_sign_convention(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((12, 5))
        basis = compute_pod(m)
        for j in range(basis.rank):
            k = np.argmax(np.abs(basis.modes[:, j]))
            assert basis.modes[k, j] >= 0.0

    def test_wide_matrix(self):
        rng = np.random.default_rng(6)
        m = rng.standard_normal((4, 9))
        basis = compute_pod(m)
        oracle = jacobi_singular_values(m)
        np.testing.assert_allclose(
            basis.singular_values, oracle[: basis.rank], rtol=1e-10
        )


class TestAgainstJacobiOracle:
    def test_random_and_rank_deficient(self):
        rng = np.random.default_rng(77)
        for trial in range(30):
            n = int(rng.integers(2, 31))
            m = int(rng.integers(1, 11))
            a = rng.standard_normal((n, m))
            if trial % 3 == 0 and min(n, m) > 1:
                r = int(rng.integers(1, min(n, m)))
                a = rng.standard_normal((n, r)) @ rng.standard_normal((r, m))
            basis = compute_pod(a)
            oracle = jacobi_singular_values(a)
            sigma1 = oracle[0]
            retained = oracle[oracle >= 1e-12 * sigma1]
            assert basis.rank == retained.size
            assert np.abs(basis.singular_values - retained).max() <= 1e-9 * sigma1

    def test_optimality_spot_check(self):
        # Rank-k reconstruction error in the Frobenius norm must equal the
        # tail energy of the oracle spectrum.
        rng = np.random.default_rng(88)
        for _ in range(5):
            a = rng.standard_normal((20, 8))
            basis = compute_pod(a)
            oracle = jacobi_singular_values(a)
            for k in range(1, basis.rank + 1):
                modes = basis.modes[:, :k]
                err = np.linalg.norm(a - modes @ (modes.T @ a))
                expected = np.sqrt((oracle[k:] ** 2).sum())
                assert abs(err - expected) <= 1e-9 * oracle[0]


class TestTruncate:
    def test_energy_rule_hand_value(self):
        # sigma = [10, 1, 1e-8]: the first mode alone holds 100/101.0...
        # of the energy, already above 0.99.
        basis = PodBasis(
            np.eye(4)[:, :3], np.array([10.0, 1.0, 1e-8]), np.zeros(4)
        )
        kept = truncate(basis, TruncationRule.energy(0.99))
        assert kept.rank == 1

    def test_fixed_count_noop(self):
        basis = compute_pod(np.random.default_rng(0).standard_normal((6, 3)))
        kept = truncate(basis, TruncationRule.fixed(basis.rank))
        assert kept is basis

    def test_fixed_count_clamps_with_warning(self):
        basis = compute_pod(np.random.default_rng(1).standard_normal((6, 3)))
        with pytest.warns(UserWarning):
            kept = truncate(basis, TruncationRule.fixed(basis.rank + 5))
        assert kept.rank == basis.rank

    def test_exactly_one_variant(self):
        with pytest.raises(ValueError):
            TruncationRule(fixed_count=2, energy_threshold=0.9)
        with pytest.raises(ValueError):
            TruncationRule()

    def test_full_energy_keeps_everything(self):
        basis = compute_pod(np.random.default_rng(2).standard_normal((6, 4)))
        assert truncate(basis, TruncationRule.energy(1.0)).rank == basis.rank


def modes_to_reach(report, threshold):
    # Reference: the mode count compare-decay printed when it read the
    # cumulative-energy column of the decay table.
    cumulative = np.atleast_2d(report)[:, 3]
    return int(np.searchsorted(cumulative, threshold - 1e-15) + 1)


class TestEnergyCount:
    def spectra(self):
        rng = np.random.default_rng(12)
        yield np.array([4.0, 2.0, 1.0])  # energies 16/21, 20/21, 1
        yield np.array([3.0, 1.0])  # first mode holds exactly 0.9
        yield np.array([5.0])
        for k in range(20):
            decay = rng.exponential(size=rng.integers(1, 12)) ** (k % 4 + 1)
            yield np.sort(decay)[::-1]

    def test_matches_decay_table_count(self):
        for sigma in self.spectra():
            n = sigma.size
            report = decay_report(PodBasis(np.eye(n + 2)[:, :n], sigma, np.zeros(n + 2)))
            marks = [0.9, 0.99, 0.999, 0.9999, 1.0, *report[:, 3]]
            marks += [np.nextafter(e, 0.0) for e in report[:, 3]]
            marks += [min(e + 1e-15, 1.0) for e in report[:, 3]]
            for mark in marks:
                expected = modes_to_reach(report, mark)
                assert TruncationRule.energy(mark).select(sigma) == expected, mark

    def test_exact_threshold_hit_keeps_that_mode(self):
        sigma = np.array([4.0, 2.0, 1.0])
        assert TruncationRule.energy(16.0 / 21.0).select(sigma) == 1
        assert TruncationRule.energy(20.0 / 21.0).select(sigma) == 2
        assert TruncationRule.energy(0.9).select(np.array([3.0, 1.0])) == 1


class TestProjectReconstruct:
    def make_basis(self):
        rng = np.random.default_rng(9)
        m = rng.standard_normal((10, 4))
        center = rng.standard_normal(10)
        return compute_pod(m, center=center), m, center

    def test_center_projects_to_zero(self):
        basis, _, center = self.make_basis()
        np.testing.assert_allclose(project(basis, center), 0.0, atol=1e-12)

    def test_single_mode_coefficient(self):
        basis, _, center = self.make_basis()
        v = center + 3.0 * basis.modes[:, 0]
        alpha = project(basis, v)
        np.testing.assert_allclose(alpha[0], 3.0, atol=1e-12)
        np.testing.assert_allclose(alpha[1:], 0.0, atol=1e-12)

    def test_left_inverse(self):
        basis, _, _ = self.make_basis()
        rng = np.random.default_rng(10)
        alpha = rng.standard_normal(basis.rank)
        np.testing.assert_allclose(
            project(basis, reconstruct(basis, alpha)), alpha, atol=1e-10
        )

    def test_training_column_round_trip(self):
        basis, m, center = self.make_basis()
        for j in range(m.shape[1]):
            col = m[:, j] + center
            back = reconstruct(basis, project(basis, col))
            assert np.linalg.norm(back - col) <= 1e-9 * np.linalg.norm(col)

    def test_zero_coefficients_give_center(self):
        basis, _, center = self.make_basis()
        np.testing.assert_allclose(
            reconstruct(basis, np.zeros(basis.rank)), center
        )

    def test_unit_coefficient_gives_mode(self):
        basis, _, center = self.make_basis()
        e1 = np.zeros(basis.rank)
        e1[0] = 1.0
        np.testing.assert_allclose(
            reconstruct(basis, e1), center + basis.modes[:, 0]
        )

    def test_dimension_checks(self):
        basis, _, _ = self.make_basis()
        with pytest.raises(DimensionMismatch):
            project(basis, np.zeros(3))
        with pytest.raises(DimensionMismatch):
            reconstruct(basis, np.zeros(basis.rank + 1))


class TestDecayReport:
    def test_two_mode_table(self):
        basis = PodBasis(np.eye(3)[:, :2], np.array([2.0, 1.0]), np.zeros(3))
        report = decay_report(basis)
        np.testing.assert_allclose(report[0], [1, 2.0, 1.0, 0.8])
        np.testing.assert_allclose(report[1], [2, 1.0, 0.5, 1.0])

    def test_single_mode(self):
        basis = PodBasis(np.eye(3)[:, :1], np.array([4.0]), np.zeros(3))
        report = decay_report(basis)
        assert report.shape == (1, 4)
        assert report[0, 3] == pytest.approx(1.0, abs=1e-12)

    def test_empty_basis(self):
        basis = compute_pod(np.zeros((4, 2)))
        with pytest.raises(EmptyBasis):
            decay_report(basis)

    def test_cumulative_ends_at_one(self):
        basis = compute_pod(np.random.default_rng(3).standard_normal((9, 5)))
        report = decay_report(basis)
        assert abs(report[-1, 3] - 1.0) < 1e-12
        assert np.all(np.diff(report[:, 1]) <= 1e-12)
