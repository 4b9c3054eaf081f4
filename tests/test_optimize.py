import numpy as np
import pytest

from shapemanifold.manifold import (
    FeasiblePolygon,
    ReducedSpace,
    fit_feasible_polygon,
)
from shapemanifold.optimize import OptProblem, minimize
from shapemanifold.pod import PodBasis

from helpers import (
    assert_distance_matches_roll_oracle,
    assert_nelder_mead_matches_list_oracle,
    assert_penalty_zero_exactly_where_feasible,
    polygon_contains,
    random_cloud,
    ring_facets,
    segment_distance_oracle,
)


def unit_square_polygon() -> FeasiblePolygon:
    return FeasiblePolygon(
        axes=(0, 1),
        vertices=np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
    )


def square_space(lo=0.0, hi=1.0) -> ReducedSpace:
    basis = PodBasis(np.eye(6)[:, :2], np.array([2.0, 1.0]), np.zeros(6))
    return ReducedSpace(
        basis=basis,
        facets=ring_facets(basis),
        dependencies=(None, None),
        polygon=unit_square_polygon(),
        bounding_box=np.array([[lo, hi], [lo, hi]], dtype=float),
    )


class TestDistanceToPolygon:
    def test_interior_point(self):
        assert unit_square_polygon().distance([0.5, 0.5]) == 0.0

    def test_boundary_point(self):
        assert unit_square_polygon().distance([1.0, 0.5]) == 0.0

    def test_outward_normal_at_edge_midpoint(self):
        assert unit_square_polygon().distance([0.5, -2.0]) == pytest.approx(2.0)

    def test_beyond_corner_matches_segment_oracle(self):
        poly = unit_square_polygon()
        p = np.array([2.0, 2.5])
        v = poly.vertices
        oracle = min(
            segment_distance_oracle(p, v[i], v[(i + 1) % len(v)])
            for i in range(len(v))
        )
        assert oracle == pytest.approx(np.hypot(1.0, 1.5))  # corner (1, 1)
        assert poly.distance(p) == pytest.approx(oracle)

    def test_matches_segment_oracle_on_random_convex_polygons(self):
        # Relative to the larger of the distance and the coordinate size:
        # rounding the coordinates alone moves any evaluation of a short
        # distance, the oracle's included, by about 1e-16 of that size.
        rng = np.random.default_rng(2029)
        checked = 0
        for _ in range(60):
            poly = fit_feasible_polygon(random_cloud(rng, int(rng.integers(3, 40))))
            v = poly.vertices
            center = v.mean(axis=0)
            probes = center + rng.uniform(-3.0, 3.0, (40, 2)) * np.abs(v - center).max()
            for p in probes:
                if polygon_contains(poly, p):
                    continue
                oracle = min(
                    segment_distance_oracle(p, v[i], v[(i + 1) % len(v)])
                    for i in range(len(v))
                )
                scale = max(oracle, float(np.abs(v).max()), float(np.abs(p).max()))
                assert abs(poly.distance(p) - oracle) <= 1e-14 * scale
                checked += 1
        assert checked > 1000


    def test_matches_roll_oracle(self):
        # Fixed-seed twin of test_feasibility_properties.py.
        rng = np.random.default_rng(912)
        for _ in range(60):
            assert_distance_matches_roll_oracle(rng)


class TestInfeasibility:
    def test_zero_exactly_where_feasible(self):
        # Fixed-seed twin of test_feasibility_properties.py.
        rng = np.random.default_rng(913)
        for _ in range(60):
            assert_penalty_zero_exactly_where_feasible(rng)


class TestNelderMead:
    def test_matches_list_oracle(self):
        # Fixed-seed twin of test_optimize_properties.py.
        rng = np.random.default_rng(916)
        for _ in range(80):
            assert_nelder_mead_matches_list_oracle(rng)


class TestMinimize:
    def test_quadratic_interior_minimum(self):
        space = square_space()

        def objective(x):
            return (x[0] - 0.2) ** 2 + (x[1] - 0.9) ** 2

        result = minimize(OptProblem(objective, space, seed=3))
        np.testing.assert_allclose(result.best_mu, [0.2, 0.9], atol=1e-4)
        assert result.best_value < 1e-7

    def test_constant_objective(self):
        space = square_space()
        result = minimize(OptProblem(lambda x: 5.0, space, seed=1))
        assert result.best_value == 5.0
        assert space.contains(result.best_mu)

    def test_linear_objective_hits_vertex(self):
        space = square_space()

        def objective(x):
            return x[0] + x[1]

        result = minimize(OptProblem(objective, space, seed=2))
        # Vertex enumeration oracle over the feasible polygon.
        verts = space.polygon.vertices
        best_vertex = verts[np.argmin(verts.sum(axis=1))]
        np.testing.assert_allclose(result.best_mu, best_vertex, atol=1e-4)

    def test_minimum_outside_region_lands_on_boundary(self):
        space = square_space()

        def objective(x):
            return (x[0] + 1.0) ** 2 + (x[1] - 0.5) ** 2

        result = minimize(OptProblem(objective, space, seed=4))
        assert space.contains(result.best_mu)
        # The constrained optimum is (0, 0.5) with value 1; a penalty
        # method approaches it from the feasible side.
        np.testing.assert_allclose(result.best_mu, [0.0, 0.5], atol=5e-3)
        assert result.best_value == pytest.approx(1.0, abs=1e-4)

    def test_seed_determinism(self):
        space = square_space()

        def objective(x):
            return np.sin(3 * x[0]) + (x[1] - 0.3) ** 2

        a = minimize(OptProblem(objective, space, seed=5))
        b = minimize(OptProblem(objective, space, seed=5))
        np.testing.assert_array_equal(a.best_mu, b.best_mu)
        assert a.best_value == b.best_value
        assert a.evaluations == b.evaluations

    def test_best_is_min_over_feasible_trace(self):
        space = square_space()

        def objective(x):
            return (x[0] - 0.4) ** 2 + x[1]

        result = minimize(OptProblem(objective, space, seed=6))
        feasible_values = [
            value
            for trace in result.traces
            for x, value in trace
            if space.contains(x)
        ]
        assert result.best_value == min(feasible_values)

    def test_running_minimum_non_increasing(self):
        space = square_space()
        result = minimize(
            OptProblem(lambda x: (x[0] - 0.5) ** 2 + (x[1] - 0.5) ** 2, space, seed=7)
        )
        for trace in result.traces:
            values = [v for _, v in trace]
            running = np.minimum.accumulate(values)
            assert np.all(np.diff(running) <= 0.0)

    def test_budget_validation(self):
        space = square_space()
        with pytest.raises(ValueError):
            OptProblem(lambda x: 0.0, space, budget=2)

    def test_evaluation_budget_respected(self):
        space = square_space()
        counter = {"n": 0}

        def objective(x):
            counter["n"] += 1
            return float((np.asarray(x) ** 2).sum())

        problem = OptProblem(objective, space, budget=50, starts=4, seed=8)
        result = minimize(problem)
        assert result.evaluations <= 4 * 50 + 4 + 4 * 2
        assert counter["n"] == result.evaluations

    def test_each_start_is_evaluated_once_as_its_first_trial(self):
        space = square_space()
        calls = []

        def objective(x):
            calls.append(np.array(x, dtype=float))
            return float(np.sum((x - 0.3) ** 2))

        result = minimize(OptProblem(objective, space, budget=30, starts=3, seed=9))
        assert len(calls) == result.evaluations == sum(map(len, result.traces))
        for start, trace in zip(calls[:3], result.traces):
            x0, value = trace[0]
            assert x0.tobytes() == start.tobytes() and value == np.sum((start - 0.3) ** 2)
            assert sum(c.tobytes() == start.tobytes() for c in calls) == 1

    def test_first_feasible_trial_in_trace_order_wins_a_tie(self):
        # On the plateau x[0] <= 0.5 every value is exactly 0.5. The second
        # start is already on it, and the first trace reaches it later: that
        # earlier trial in trace order is the one reported.
        space = square_space()
        result = minimize(OptProblem(lambda x: max(float(x[0]), 0.5), space,
                                     budget=40, starts=3, seed=0))
        starts = [trace[0] for trace in result.traces]
        assert starts[0][1] > 0.5 and starts[1][1] == 0.5
        first = next(x for trace in result.traces for x, value in trace
                     if value == 0.5 and space.contains(x))
        assert result.best_value == 0.5
        assert result.best_mu.tobytes() == first.tobytes()
        assert any(x is first for x, _ in result.traces[0][1:])
