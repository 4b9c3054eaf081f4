import math
import warnings

import numpy as np
import pytest

from helpers import (
    LOO_RULES,
    assert_loo_permutation_invariant,
    loop_loo_error,
    random_loo_database,
)
from shapemanifold import rom
from shapemanifold.errors import DuplicateParams, SingularSystem
from shapemanifold.pod import TruncationRule
from shapemanifold.rom import (
    SolutionDatabase,
    build_rom,
    extrapolates,
    fit_interpolator,
    loo_error,
    predict,
    predict_objective,
)


def linear_span_database(m=12, n=60, seed=0) -> SolutionDatabase:
    # Fields confined to a two-mode linear span over 2-D parameters.
    rng = np.random.default_rng(seed)
    params = rng.uniform(-1, 1, (m, 2))
    u = rng.standard_normal(n)
    v = rng.standard_normal(n)
    fields = np.array([3.0 + p[0] * u + p[1] * v for p in params])
    objectives = params[:, 0] ** 2 + params[:, 1]
    return SolutionDatabase(params, fields, objectives)


class TestSolutionDatabase:
    def test_duplicate_params_rejected(self):
        with pytest.raises(DuplicateParams):
            SolutionDatabase(
                np.array([[1.0, 2.0], [1.0, 2.0]]),
                np.ones((2, 4)),
                np.zeros(2),
            )

    def test_row_count_mismatch(self):
        with pytest.raises(ValueError):
            SolutionDatabase(np.ones((3, 2)), np.ones((2, 4)), np.zeros(3))

    @staticmethod
    def first_duplicate(params):
        # Reference: the pairwise scan in row-major (i, j) order.
        m = params.shape[0]
        for i in range(m):
            for j in range(i + 1, m):
                if np.max(np.abs(params[i] - params[j])) < 1e-12:
                    return i, j
        return None

    def test_duplicate_scan_matches_pairwise_reference(self):
        rng = np.random.default_rng(21)
        cases = [
            np.array([[0.5, 0.25]]),
            np.array([[0.5, 0.25], [0.5 + 2e-12, 0.25]]),
            np.array([[0.5, 0.25], [0.5 + 5e-13, 0.25]]),
        ]
        for _ in range(200):
            m, d = int(rng.integers(2, 25)), int(rng.integers(1, 5))
            params = rng.uniform(-1, 1, (m, d))
            gaps = [5e-13] * int(rng.integers(3)) + [2e-12] * int(rng.integers(3))
            for gap in gaps:
                i, j = rng.choice(m, size=2, replace=False)
                params[j] = params[i]
                params[j, rng.integers(d)] += gap * rng.choice([-1.0, 1.0])
            cases.append(params)
        flagged = 0
        for params in cases:
            m = params.shape[0]
            expected = self.first_duplicate(params)
            if expected is None:
                SolutionDatabase(params, np.zeros((m, 3)), np.zeros(m))
                continue
            flagged += not np.array_equal(params[expected[0]], params[expected[1]])
            with pytest.raises(DuplicateParams) as info:
                SolutionDatabase(params, np.zeros((m, 3)), np.zeros(m))
            i, j = expected
            assert str(info.value) == f"parameter rows {i} and {j} coincide within 1e-12"
        assert 50 < flagged < 200

    def test_near_duplicate_thresholds(self):
        params = np.array([[0.5, 0.25], [0.5 + 2e-12, 0.25], [0.5, 0.25 - 2e-12]])
        assert SolutionDatabase(params, np.zeros((3, 2)), np.zeros(3)).count == 3
        params[2] = [0.5 + 5e-13, 0.25]
        with pytest.raises(DuplicateParams, match="rows 0 and 2 "):
            SolutionDatabase(params, np.zeros((3, 2)), np.zeros(3))


class TestFitInterpolator:
    def test_single_node_constant(self):
        interp = fit_interpolator(np.array([[0.5]]), np.array([3.0]), "gaussian")
        # The single gaussian weight is value / phi(0) = value.
        assert interp.weights[0, 0] == pytest.approx(3.0)
        assert interp([[0.5]])[0, 0] == pytest.approx(3.0)

    def test_two_node_hand_system(self):
        # Gaussian, nodes 0 and 1 in 1-D, values 0 and 1, epsilon 1:
        # [[1, e^-1], [e^-1, 1]] w = [0, 1], solved by hand.
        interp = fit_interpolator(
            np.array([[0.0], [1.0]]), np.array([0.0, 1.0]), "gaussian", epsilon=1.0
        )
        e1 = math.exp(-1.0)
        det = 1.0 - e1 * e1
        np.testing.assert_allclose(
            interp.weights[:, 0], [-e1 / det, 1.0 / det], rtol=1e-12
        )

    @pytest.mark.parametrize("kernel", ["gaussian", "thin-plate", "linear-rbf"])
    def test_node_reproduction(self, kernel):
        rng = np.random.default_rng(1)
        nodes = rng.uniform(-2, 2, (15, 2))
        values = rng.standard_normal((15, 3))
        interp = fit_interpolator(nodes, values, kernel)
        fitted = interp(nodes)
        scale = 1.0 + np.abs(values).max()
        assert np.abs(fitted - values).max() <= 1e-8 * scale

    def test_near_flat_gaussian_raises(self):
        nodes = np.arange(6.0)[:, None]
        values = np.arange(6.0)
        with pytest.raises(SingularSystem):
            fit_interpolator(nodes, values, "gaussian", epsilon=1e-8)

    @pytest.mark.parametrize("nodes", [[[0.0]], [[0.0], [np.nan]]])
    def test_zero_or_nan_eigenvalue_raises(self, nodes):
        # One linear-rbf node is the 1 x 1 zero system; a NaN node makes
        # the eigenvalues NaN.
        with pytest.raises(SingularSystem, match="condition number"):
            fit_interpolator(np.array(nodes), np.ones(len(nodes)), "linear-rbf", 1.0)

    def test_condition_gate_matches_svd_condition_number(self):
        # The gate raises exactly where the full-SVD condition number of
        # the Gaussian system exceeds 1e14 (away from the boundary itself).
        nodes = np.random.default_rng(9).uniform(-1, 1, (12, 2))
        dist = np.sqrt(((nodes[:, None, :] - nodes[None, :, :]) ** 2).sum(axis=2))
        raised = 0
        for epsilon in np.geomspace(0.01, 1.0, 60):
            cond = np.linalg.cond(np.exp(-((epsilon * dist) ** 2)))
            if abs(np.log10(cond) - 14.0) < 0.01:
                continue
            if cond > 1e14:
                raised += 1
                with pytest.raises(SingularSystem):
                    fit_interpolator(nodes, np.ones(12), "gaussian", epsilon)
            else:
                fit_interpolator(nodes, np.ones(12), "gaussian", epsilon)
        assert 10 < raised < 50

    @staticmethod
    def nearest_neighbour_epsilon(nodes):
        # Reference: inverse mean nearest-neighbour distance from a fresh
        # distance matrix, 1.0 for a single node.
        if nodes.shape[0] < 2:
            return 1.0
        dist = np.sqrt(((nodes[:, None, :] - nodes[None, :, :]) ** 2).sum(axis=2))
        np.fill_diagonal(dist, np.inf)
        mean_nn = float(dist.min(axis=1).mean())
        return 1.0 / mean_nn if mean_nn > 0.0 else 1.0

    def test_default_epsilon_matches_reference(self):
        rng = np.random.default_rng(8)
        cases = [np.array([[0.3, -0.2]]), np.array([[0.0], [0.4]])]
        cases += [rng.uniform(-1, 1, (m, d)) for m in (3, 9, 20) for d in (1, 2, 3)]
        for nodes in cases:
            kernel = "linear-rbf" if len(nodes) > 1 else "gaussian"
            interp = fit_interpolator(nodes, np.ones(len(nodes)), kernel)
            assert interp.epsilon == self.nearest_neighbour_epsilon(nodes)
        assert fit_interpolator(cases[0], [2.0]).epsilon == 1.0
        assert fit_interpolator(cases[1], [0.0, 1.0]).epsilon == 2.5

    def test_coincident_nodes_rejected(self):
        nodes = np.array([[0.0], [0.0]])
        with pytest.raises(ValueError):
            fit_interpolator(nodes, np.array([1.0, 2.0]), "gaussian")

    def test_linear_kernel_is_piecewise_linear_in_1d(self):
        nodes = np.array([[0.0], [1.0], [2.0]])
        values = np.array([0.0, 1.0, 0.5])
        interp = fit_interpolator(nodes, values, "linear-rbf")
        assert interp([[0.5]])[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert interp([[1.5]])[0, 0] == pytest.approx(0.75, abs=1e-12)

    def test_thin_plate_reproduces_affine(self):
        rng = np.random.default_rng(2)
        nodes = rng.uniform(-1, 1, (12, 2))
        values = 2.0 * nodes[:, 0] - 0.5 * nodes[:, 1] + 1.0
        interp = fit_interpolator(nodes, values, "thin-plate")
        probes = rng.uniform(-0.8, 0.8, (20, 2))
        expected = 2.0 * probes[:, 0] - 0.5 * probes[:, 1] + 1.0
        np.testing.assert_allclose(interp(probes)[:, 0], expected, atol=1e-7)


class TestBuildRomPredict:
    def test_identical_fields_constant_model(self):
        params = np.linspace(0, 1, 4)[:, None]
        fields = np.tile([1.0, 2.0, 3.0], (4, 1))
        db = SolutionDatabase(params, fields, np.full(4, 7.0))
        model = build_rom(db, TruncationRule.energy(0.9999))
        assert model.basis.rank == 0
        field, objective = predict(model, [0.37])
        np.testing.assert_allclose(field, [1.0, 2.0, 3.0])
        assert objective == pytest.approx(7.0, abs=1e-12)

    def test_two_mode_span_recovered(self):
        db = linear_span_database()
        model = build_rom(db, TruncationRule.energy(1.0 - 1e-12))
        assert model.basis.rank == 2

    def test_prediction_at_training_node(self):
        db = linear_span_database()
        model = build_rom(db, TruncationRule.energy(1.0 - 1e-12))
        for i in range(db.count):
            field, objective = predict(model, db.params[i])
            truth = db.fields[i]
            assert np.linalg.norm(field - truth) <= 1e-8 * np.linalg.norm(truth)
            assert objective == pytest.approx(db.objectives[i], abs=1e-8)

    def test_truncation_residual_bound(self):
        # With truncation, the prediction at a node differs from the truth
        # by exactly that field's projection residual (plus solver noise).
        rng = np.random.default_rng(3)
        params = rng.uniform(-1, 1, (10, 2))
        fields = rng.standard_normal((10, 40))
        db = SolutionDatabase(params, fields, rng.standard_normal(10))
        model = build_rom(db, TruncationRule.fixed(3))
        modes = model.basis.modes
        center = model.basis.center
        for i in range(db.count):
            field, _ = predict(model, db.params[i])
            truth = db.fields[i]
            residual = truth - center - modes @ (modes.T @ (truth - center))
            gap = np.linalg.norm(field - truth) - np.linalg.norm(residual)
            assert abs(gap) <= 1e-8 * (1 + np.linalg.norm(truth))

    def test_extrapolation_is_a_value(self):
        db = linear_span_database()
        model = build_rom(db, TruncationRule.energy(0.9999))
        low, high = db.params.min(axis=0), db.params.max(axis=0)
        inside, outside = 0.5 * (low + high), np.array([5.0, 5.0])
        assert extrapolates(model, inside).tolist() == [False]
        assert extrapolates(model, outside).tolist() == [True]
        batch = [inside, outside, low, high, [high[0] + 1e-9, low[1]],
                 [low[0], low[1] - 1e-9]]
        assert extrapolates(model, batch).tolist() == [
            False, True, False, False, True, True
        ]
        # Neither the online query nor leave-one-out, whose folds at the
        # extreme samples extrapolate, signals it as a warning.
        edge = int(np.argmax(db.params[:, 0]))
        fold = build_rom(db.without(edge), TruncationRule.energy(0.9999))
        assert extrapolates(fold, db.params[edge]).tolist() == [True]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            predict(model, outside)
            loo_error(db, TruncationRule.energy(0.9999))

    @pytest.mark.parametrize("kernel", ["gaussian", "thin-plate", "linear-rbf"])
    def test_objective_query_is_predicts_objective(self, kernel):
        db = linear_span_database()
        model = build_rom(db, TruncationRule.energy(0.9999), kernel=kernel)
        rng = np.random.default_rng(12)
        for mu in rng.uniform(-1.5, 1.5, (50, 2)):
            assert predict(model, mu)[1] == predict_objective(model, mu)
        with pytest.raises(ValueError):  # one point, not a batch
            predict_objective(model, rng.uniform(-1.0, 1.0, (3, 2)))

    def test_midpoint_linear_kernel_1d(self):
        # In 1-D the linear kernel is piecewise linear, so the coefficients
        # at the midpoint of two nodes are the mean of the node coefficients.
        params = np.array([[0.0], [1.0]])
        fields = np.array([[1.0, 0.0, 2.0], [3.0, 4.0, 2.0]])
        db = SolutionDatabase(params, fields, np.array([0.0, 1.0]))
        model = build_rom(db, TruncationRule.energy(1.0), kernel="linear-rbf")
        field, objective = predict(model, [0.5])
        np.testing.assert_allclose(field, fields.mean(axis=0), atol=1e-10)
        assert objective == pytest.approx(0.5, abs=1e-10)


class TestLooError:
    def test_linear_fields_small_interior_error(self):
        # Fields exactly linear in a 1-D parameter: removing an interior
        # node changes nothing for the piecewise-linear kernel.
        params = np.linspace(0.0, 1.0, 9)[:, None]
        direction = np.array([1.0, -2.0, 0.5, 3.0])
        base = np.array([5.0, 1.0, 0.0, -1.0])
        fields = base + params * direction
        db = SolutionDatabase(params, fields, params[:, 0])
        errors, summary = loo_error(
            db, TruncationRule.energy(1.0 - 1e-12), kernel="linear-rbf"
        )
        interior = errors[1:-1]
        assert interior.max() < 1e-8
        assert summary["max"] == errors.max()

    def test_identical_fields_zero_error(self):
        params = np.linspace(0, 1, 3)[:, None]
        fields = np.tile([2.0, 2.0, 1.0], (3, 1))
        db = SolutionDatabase(params, fields, np.ones(3))
        errors, summary = loo_error(db, TruncationRule.energy(0.9999))
        assert np.all(errors == 0.0)
        assert summary["mean"] == 0.0

    def test_corner_error_dominates(self):
        rng = np.random.default_rng(4)
        params = np.linspace(0.0, 1.0, 8)[:, None]
        fields = np.sin(3.0 * params) + 0.5 * params**2 + rng.standard_normal(4) * 0.0
        fields = np.repeat(fields, 4, axis=1)
        db = SolutionDatabase(params, fields, params[:, 0])
        errors, _ = loo_error(db, TruncationRule.energy(1.0 - 1e-12), kernel="linear-rbf")
        # Endpoints extrapolate; reported, larger than the typical interior one.
        assert errors[0] > np.median(errors[1:-1])

    @pytest.mark.filterwarnings("ignore:requested .* modes but only")
    @pytest.mark.parametrize("kernel", ["gaussian", "thin-plate", "linear-rbf"])
    @pytest.mark.parametrize("rule", sorted(LOO_RULES) + ["fixed above rank"])
    def test_matches_fold_rebuild_oracle(self, kernel, rule):
        # Databases: a two-mode linear span, a nonlinear one, and a
        # nonlinear one with fewer entries per field than snapshots.
        rng = np.random.default_rng(13)
        for db in (
            linear_span_database(),
            random_loo_database(rng, 15, 40, 2),
            random_loo_database(rng, 14, 5, 2),
        ):
            truncation = LOO_RULES.get(rule, TruncationRule.fixed(db.count))
            errors, summary = loo_error(db, truncation, kernel)
            expected, _ = loop_loo_error(db, truncation, kernel)
            # Each error is relative to its truth's norm, so the absolute
            # bound is a relative bound on the predicted fields' difference.
            np.testing.assert_allclose(errors, expected, rtol=1e-10, atol=1e-10)
            assert summary == {"mean": float(errors.mean()), "max": float(errors.max())}

    @pytest.mark.filterwarnings("ignore:requested .* modes but only")
    @pytest.mark.parametrize("kernel", ["gaussian", "thin-plate", "linear-rbf"])
    def test_permutation_invariant(self, kernel):
        # Fixed-seed twin of the hypothesis property in test_pod_properties.py.
        rng = np.random.default_rng(14)
        for d, m, n in [(1, 3, 1), (1, 9, 30), (2, 12, 4), (2, 16, 40), (3, 10, 25)]:
            db = random_loo_database(rng, m, n, d)
            for rule in LOO_RULES.values():
                assert_loo_permutation_invariant(db, rng.permutation(m), rule, kernel)

    def test_each_fold_rebuilds_through_build_rom(self, monkeypatch):
        db = linear_span_database(m=7)
        calls = []
        build = rom.build_rom

        def counted(fold_db, *args, **kwargs):
            calls.append(fold_db.count)
            return build(fold_db, *args, **kwargs)

        monkeypatch.setattr(rom, "build_rom", counted)
        loo_error(db, TruncationRule.energy(0.9999))
        assert calls == [6] * 7

    def test_needs_three_samples(self):
        db = SolutionDatabase(
            np.array([[0.0], [1.0]]), np.ones((2, 3)), np.zeros(2)
        )
        with pytest.raises(ValueError):
            loo_error(db, TruncationRule.energy(0.9999))
