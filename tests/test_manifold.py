import warnings

import numpy as np
import pytest

from shapemanifold.errors import (
    CollinearPoints,
    DegenerateAbscissa,
    DegenerateTrainingSet,
    DimensionMismatch,
    InfeasibleRegion,
)
from shapemanifold.ffd import (
    FfdConfig,
    MapEntry,
    check_params,
    default_config,
    displacement_jacobian,
    morph,
)
from shapemanifold.manifold import (
    FeasiblePolygon,
    ReducedSpace,
    build_geometry_pod,
    build_reduced_space,
    decode,
    detect_dependencies,
    fit_feasible_polygon,
    linear_fit,
    sample_ffd_params,
    sample_reduced,
)
from shapemanifold.pod import TruncationRule

from helpers import (
    assert_collapse_matches_numpy_rows,
    assert_contains_matches_roll_oracle,
    assert_decode_matches_inline_reconstruction,
    assert_expand_matches_dict_loop,
    assert_hull_matches_numpy_scalar_chain,
    assert_infeasibility_matches_numpy_formula,
    assert_polygon_contains_cloud,
    assert_space_contains_matches_per_call_box,
    assert_space_contains_training_points,
    bits,
    make_sphere,
    ols_oracle,
    oracle_displacement,
    pair_point,
    polygon_contains,
    random_cloud,
    ray_cast_inside,
    ring_facets,
    shoelace_area,
    snapshot_geometry_pod,
)


class TestSampleFfdParams:
    def test_shape_and_range(self):
        box = np.tile([-0.3, 0.3], (5, 1))
        params = sample_ffd_params(1500, box, seed=42)
        assert params.shape == (1500, 5)
        assert params.min() >= -0.3 and params.max() <= 0.3

    def test_degenerate_box(self):
        box = np.zeros((5, 2))
        params = sample_ffd_params(10, box, seed=1)
        assert np.all(params == 0.0)

    def test_seed_determinism(self):
        box = np.tile([-1.0, 2.0], (3, 1))
        a = sample_ffd_params(50, box, seed=7)
        b = sample_ffd_params(50, box, seed=7)
        np.testing.assert_array_equal(a, b)


class TestBuildGeometryPod:
    def test_zero_params_degenerate(self):
        mesh = make_sphere(5, 6)
        cfg = default_config(mesh)
        with pytest.raises(DegenerateTrainingSet):
            build_geometry_pod(mesh, cfg, np.zeros((5, 5)))

    def test_single_entry_rank_one(self):
        # One parameter, one control point: the snapshot matrix is the
        # outer product of a fixed displacement field with the sampled
        # parameter values. Checked against that direct construction.
        mesh = make_sphere(6, 8)
        entries = (MapEntry(0, (1, 1, 1), 0, 1.0),)
        cfg = FfdConfig(
            origin=mesh.bounding_box()[:, 0],
            axes=np.diag(np.ptp(mesh.vertices, axis=0)),
            dims=(2, 2, 2),
            entries=entries,
            param_dim=5,
        )
        params = np.zeros((20, 5))
        params[:, 0] = np.linspace(-0.3, 0.3, 20)
        basis, alpha = build_geometry_pod(mesh, cfg, params)
        assert basis.rank == 1
        unit_field = oracle_displacement(mesh.vertices, cfg, [1, 0, 0, 0, 0]).reshape(-1)
        direct = np.outer(unit_field, params[:, 0])
        sigma_direct = np.linalg.norm(unit_field) * np.linalg.norm(params[:, 0])
        assert basis.singular_values[0] == pytest.approx(sigma_direct, rel=1e-10)
        rebuilt = basis.modes @ alpha.T
        np.testing.assert_allclose(rebuilt, direct, atol=1e-10 * sigma_direct)

    def test_default_config_three_modes(self):
        # The shipped five-parameter map spans exactly three displacement
        # directions; a large sample recovers that intrinsic dimension.
        mesh = make_sphere(8, 10)
        cfg = default_config(mesh)
        params = sample_ffd_params(1500, cfg.bounds, seed=3)
        basis, alpha = build_geometry_pod(
            mesh, cfg, params, TruncationRule.energy(0.9999)
        )
        assert basis.rank == 3
        assert alpha.shape == (1500, 3)

    def test_reduction_fidelity(self):
        # Frobenius-aggregate relative reconstruction error must equal the
        # tail-energy fraction of the spectrum.
        mesh = make_sphere(6, 8)
        cfg = default_config(mesh)
        params = sample_ffd_params(100, cfg.bounds, seed=4)
        basis, alpha = build_geometry_pod(mesh, cfg, params)
        sigma = basis.singular_values
        kept = 2
        num = 0.0
        den = 0.0
        for i, mu in enumerate(params):
            snap = oracle_displacement(mesh.vertices, cfg, mu).reshape(-1)
            approx = basis.modes[:, :kept] @ alpha[i, :kept]
            num += np.linalg.norm(snap - approx) ** 2
            den += np.linalg.norm(snap) ** 2
        measured = np.sqrt(num / den)
        expected = np.sqrt((sigma[kept:] ** 2).sum() / (sigma**2).sum())
        assert measured == pytest.approx(expected, abs=1e-8)


def _rotated_config(mesh):
    """Degree (3, 2, 4) lattice with rotated, non-unit axes covering part of
    the mesh; 20 map entries over 7 parameters, several of them adding to
    the same (control point, axis) pair."""
    c, s = np.cos(0.4), np.sin(0.4)
    rz = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    c, s = np.cos(-0.7), np.sin(-0.7)
    rx = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    axes = np.diag([1.7, 2.1, 1.3]) @ (rx @ rz).T
    origin = np.array([0.1, -0.2, 0.15]) - 0.5 * axes.sum(axis=0)
    table = [
        (0, (1, 1, 1), 0, 1.0), (0, (2, 1, 2), 1, -0.4), (0, (1, 0, 3), 2, 0.3),
        (1, (2, 1, 1), 1, 0.8), (1, (1, 1, 2), 2, 0.5), (1, (1, 1, 1), 0, 0.25),
        (2, (1, 2, 3), 2, -0.9), (2, (2, 1, 3), 0, 0.6), (3, (1, 1, 2), 2, 0.7),
        (3, (2, 0, 1), 1, -0.3), (3, (1, 1, 3), 0, 0.45), (4, (2, 1, 2), 1, 1.1),
        (4, (2, 2, 2), 0, -0.35), (5, (1, 1, 1), 2, 0.9), (5, (2, 1, 3), 0, -0.2),
        (5, (3, 1, 2), 1, 0.4), (6, (1, 1, 2), 0, -0.75), (6, (2, 1, 1), 2, 0.55),
        (6, (1, 1, 1), 0, 0.3), (6, (2, 1, 2), 1, 0.15),
    ]
    entries = tuple(MapEntry(*row) for row in table)
    return FfdConfig(origin, axes, (3, 2, 4), entries, 7)


def _single_entry_case():
    mesh = make_sphere(6, 8)
    cfg = FfdConfig(
        origin=mesh.bounding_box()[:, 0],
        axes=np.diag(np.ptp(mesh.vertices, axis=0)),
        dims=(2, 2, 2),
        entries=(MapEntry(0, (1, 1, 1), 0, 1.0),),
        param_dim=5,
    )
    params = np.zeros((20, 5))
    params[:, 0] = np.linspace(-0.3, 0.3, 20)
    return mesh, cfg, params


def _default_case():
    mesh = make_sphere(13, 16)
    cfg = default_config(mesh)
    return mesh, cfg, sample_ffd_params(200, cfg.bounds, seed=21)


def _rotated_case():
    mesh = make_sphere(13, 16)
    cfg = _rotated_config(mesh)
    return mesh, cfg, sample_ffd_params(200, cfg.bounds, seed=22)


class TestGeometryPodOracle:
    """The closed form against the per-sample snapshot loop."""

    @pytest.mark.parametrize(
        "case, rank",
        [(_default_case, 3), (_rotated_case, 7), (_single_entry_case, 1)],
        ids=["default-rank-deficient", "rotated-lattice", "single-entry"],
    )
    def test_matches_snapshot_loop(self, case, rank):
        mesh, cfg, params = case()
        basis, alpha = build_geometry_pod(mesh, cfg, params)
        oracle, oracle_alpha = snapshot_geometry_pod(mesh, cfg, params)
        assert basis.rank == oracle.rank == rank
        sigma1 = oracle.singular_values[0]
        assert np.abs(basis.singular_values - oracle.singular_values).max() <= 1e-12 * sigma1
        assert np.abs(basis.modes - oracle.modes).max() <= 1e-12
        scale = np.abs(oracle_alpha).max()
        assert np.abs(alpha - oracle_alpha).max() <= 1e-12 * scale
        np.testing.assert_array_equal(basis.center, oracle.center)

    def test_truncated_matches_snapshot_loop(self):
        mesh, cfg, params = _rotated_case()
        rule = TruncationRule.energy(0.9)
        basis, alpha = build_geometry_pod(mesh, cfg, params, rule)
        oracle, oracle_alpha = snapshot_geometry_pod(mesh, cfg, params, rule)
        assert basis.rank == oracle.rank < 7
        assert alpha.shape == (params.shape[0], basis.rank)
        scale = np.abs(oracle_alpha).max()
        assert np.abs(alpha - oracle_alpha).max() <= 1e-12 * scale


class TestGeometryPodContract:
    """Checks the per-sample morph loop used to perform."""

    def test_wrong_column_count(self):
        mesh = make_sphere(5, 6)
        cfg = default_config(mesh)
        with pytest.raises(DimensionMismatch):
            build_geometry_pod(mesh, cfg, np.full((4, 4), 0.1))

    def test_too_few_rows(self):
        mesh = make_sphere(5, 6)
        cfg = default_config(mesh)
        with pytest.raises(ValueError):
            build_geometry_pod(mesh, cfg, np.full((1, 5), 0.1))

    def test_out_of_box_row_warns(self):
        # An out-of-box row is reduced like any other: the box is a
        # sampling convention.
        mesh = make_sphere(5, 6)
        cfg = default_config(mesh)
        params = sample_ffd_params(10, cfg.bounds, seed=5)
        params[3, 2] = 0.9
        assert np.flatnonzero(check_params(cfg, params)).tolist() == [3]
        basis, alpha = build_geometry_pod(mesh, cfg, params)
        family = displacement_jacobian(cfg, mesh.vertices) @ params.T
        scale = np.abs(family).max()
        assert np.abs(basis.modes @ alpha.T - family).max() <= 1e-12 * scale

    def test_in_box_sample_is_silent(self):
        # The Jacobian is built from unit parameter vectors, which lie
        # outside the box; none of that may surface as a warning.
        mesh = make_sphere(5, 6)
        cfg = default_config(mesh)
        params = sample_ffd_params(10, cfg.bounds, seed=6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            build_geometry_pod(mesh, cfg, params)

    def test_lattice_without_vertices_degenerate(self):
        mesh = make_sphere(5, 6)
        default = default_config(mesh)
        cfg = FfdConfig(
            origin=np.array([10.0, 10.0, 10.0]),
            axes=np.eye(3),
            dims=(2, 2, 2),
            entries=default.entries,
            param_dim=default.param_dim,
        )
        params = sample_ffd_params(10, cfg.bounds, seed=7)
        with pytest.raises(DegenerateTrainingSet):
            build_geometry_pod(mesh, cfg, params)


class TestLinearFit:
    def test_exact_line(self):
        slope, intercept, r2 = linear_fit([0, 1, 2], [1, 3, 5])
        assert slope == pytest.approx(2.0)
        assert intercept == pytest.approx(1.0)
        assert r2 == pytest.approx(1.0)

    def test_four_point_case_against_oracle(self):
        x = [0.0, 1.0, 2.0, 3.0]
        y = [0.0, 1.0, 2.0, 10.0]
        slope, intercept, r2 = linear_fit(x, y)
        o_slope, o_intercept, o_r2 = ols_oracle(x, y)
        # Frozen from the raw-sum oracle: 3.1, -1.4, 0.76574 (to 5 places).
        assert o_slope == pytest.approx(3.1, abs=1e-12)
        assert o_intercept == pytest.approx(-1.4, abs=1e-12)
        assert slope == pytest.approx(o_slope, abs=1e-12)
        assert intercept == pytest.approx(o_intercept, abs=1e-12)
        assert r2 == pytest.approx(o_r2, abs=1e-12)

    def test_constant_ordinate(self):
        slope, intercept, r2 = linear_fit([0, 1, 2], [4.0, 4.0, 4.0])
        assert (slope, intercept, r2) == (0.0, 4.0, 1.0)

    def test_degenerate_abscissa(self):
        with pytest.raises(DegenerateAbscissa):
            linear_fit([1.0, 1.0, 1.0], [0.0, 1.0, 2.0])


class TestDetectDependencies:
    def test_expand_matches_dict_loop(self):
        # Fixed-seed twin of test_feasibility_properties.py.
        rng = np.random.default_rng(910)
        for _ in range(60):
            assert_expand_matches_dict_loop(rng)

    def test_exact_dependency(self):
        rng = np.random.default_rng(0)
        a0 = rng.uniform(-1, 1, 300)
        alpha = np.column_stack([a0, 2.0 * a0, rng.uniform(-1, 1, 300)])
        deps = detect_dependencies(alpha, r2_threshold=0.99)
        assert deps[0] is None
        dep = deps[1]
        assert dep.source == 0
        assert dep.slope == pytest.approx(2.0, abs=1e-9)
        assert dep.intercept == pytest.approx(0.0, abs=1e-9)
        assert dep.r2 >= 1.0 - 1e-12
        assert deps[2] is None

    def test_independent_noise_all_free(self):
        rng = np.random.default_rng(1)
        alpha = rng.uniform(-1, 1, (500, 3))
        assert detect_dependencies(alpha, r2_threshold=0.99) == (None, None, None)

    def test_single_coefficient(self):
        assert detect_dependencies(np.ones((5, 1)), r2_threshold=0.99) == (None,)

    def test_expand(self):
        rng = np.random.default_rng(2)
        a0 = rng.uniform(-1, 1, 100)
        alpha = np.column_stack([a0, -0.5 * a0 + 0.25, rng.uniform(-1, 1, 100)])
        space = space_from_alpha(alpha)
        assert space.free_indices == (0, 2)
        full = space.expand([2.0, 7.0])
        np.testing.assert_allclose(full, [2.0, -0.75, 7.0], atol=1e-9)

    def test_few_samples_warns(self):
        # Two rows would fit any line exactly: every coefficient stays free.
        alpha = np.array([[0.0, 1.0, 2.0], [1.0, 3.0, 5.0]])
        assert detect_dependencies(alpha, r2_threshold=0.99) == (None, None, None)


class TestFeasiblePolygon:
    def test_unit_square(self):
        corners = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
        poly = fit_feasible_polygon(corners)
        assert len(poly.vertices) == 4
        assert shoelace_area(poly.vertices) == pytest.approx(1.0)

    def test_interior_points_ignored(self):
        rng = np.random.default_rng(3)
        corners = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
        pts = np.vstack([corners, rng.uniform(0.1, 0.9, (50, 2))])
        poly = fit_feasible_polygon(pts)
        assert len(poly.vertices) == 4
        assert shoelace_area(poly.vertices) == pytest.approx(1.0)

    def test_hexagon_to_quadrilateral(self):
        angles = np.linspace(0, 2 * np.pi, 7)[:-1]
        hexagon = np.column_stack([np.cos(angles), np.sin(angles)])
        full = fit_feasible_polygon(hexagon)
        poly = fit_feasible_polygon(hexagon, max_vertices=4)
        assert len(poly.vertices) == 4
        assert shoelace_area(poly.vertices) >= shoelace_area(full.vertices)
        for p in hexagon:
            assert polygon_contains(poly, p)
            assert ray_cast_inside(p, poly.vertices)

    def test_parallelogram_cannot_become_a_triangle(self):
        # Each edge's neighbors are parallel, so no collapse exists: the
        # hull keeps its four vertices, which the caller can count.
        corners = np.array([[0, 0], [2, 0], [3, 1], [1, 1]], dtype=float)
        poly = fit_feasible_polygon(corners, max_vertices=3)
        np.testing.assert_array_equal(poly.vertices, corners)

    @pytest.mark.parametrize(
        "axes", [(1, 1), (0, 1, 2), (0,), (0.0, 1), (True, 0), (-1, 0), ("0", "1")]
    )
    def test_axes_must_be_two_distinct_indices(self, axes):
        square = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
        with pytest.raises(ValueError, match="not two distinct coefficient indices"):
            FeasiblePolygon(axes, square)
        assert FeasiblePolygon((np.int64(2), 0), square).axes == (2, 0)

    def test_collinear(self):
        pts = np.column_stack([np.arange(5.0), 2.0 * np.arange(5.0)])
        with pytest.raises(CollinearPoints):
            fit_feasible_polygon(pts)

    def test_containment_matches_ray_cast_oracle(self):
        rng = np.random.default_rng(4)
        cloud = rng.standard_normal((40, 2))
        poly = fit_feasible_polygon(cloud, max_vertices=5)
        probes = rng.uniform(-3, 3, (300, 2))
        for p in probes:
            assert polygon_contains(poly, p) == ray_cast_inside(p, poly.vertices)

    @pytest.mark.parametrize("max_vertices", [None, 3, 4, 5, 6])
    def test_contains_every_training_point(self, max_vertices):
        # Fixed-seed twin of test_polygon_properties.py.
        rng = np.random.default_rng(707 + (max_vertices or 0))
        for n_points in rng.integers(3, 81, 20):
            assert_polygon_contains_cloud(random_cloud(rng, int(n_points)), max_vertices)

    def test_contains_matches_roll_oracle(self):
        # Fixed-seed twin of test_feasibility_properties.py.
        rng = np.random.default_rng(909)
        for _ in range(60):
            assert_contains_matches_roll_oracle(rng)

    def test_edges_and_tolerance_are_derived_at_construction(self):
        v = np.array([[-0.0, -2.0], [2.0, -0.0], [-0.0, 2.0], [-2.0, -0.0]])
        poly = FeasiblePolygon((1, 0), v)
        assert poly.edges.tobytes() == (np.roll(v, -1, axis=0) - v).tobytes()
        assert poly.tol == 2e-9

    def test_float_rows_are_derived_at_construction(self):
        v = np.array([[-0.0, -2.0], [2.0, -0.0], [-0.0, 2.0], [-2.0, -0.0]])
        poly = FeasiblePolygon((1, 0), v)
        e = np.roll(v, -1, axis=0) - v
        assert [type(x) for row in poly._rows for x in row] == [float] * 16
        assert np.array(poly._rows).tobytes() == np.column_stack([v, e]).tobytes()

    def test_hull_matches_numpy_scalar_chain(self):
        # Fixed-seed twin of test_polygon_properties.py.
        rng = np.random.default_rng(915)
        for _ in range(120):
            assert_hull_matches_numpy_scalar_chain(rng)

    def test_collapse_matches_numpy_rows(self):
        # Fixed-seed twin of test_polygon_properties.py.
        rng = np.random.default_rng(923)
        for _ in range(60):
            assert_collapse_matches_numpy_rows(rng)


def paper_structured_alpha(m=800, seed=5):
    # First coefficient free, second affine in it, third independent:
    # the structure where two free parameters describe three coefficients.
    rng = np.random.default_rng(seed)
    a0 = rng.uniform(-2, 2, m)
    a2 = rng.uniform(-1, 1, m)
    return np.column_stack([a0, 2.0 * a0 + 0.1, a2])


def space_from_alpha(alpha, **kwargs):
    from shapemanifold.pod import PodBasis

    n_modes = alpha.shape[1]
    basis = PodBasis(
        np.eye(3 * n_modes)[:, :n_modes],
        np.linspace(n_modes, 1, n_modes),
        np.zeros(3 * n_modes),
    )
    return build_reduced_space(basis, ring_facets(basis), alpha, **kwargs)


class TestReducedSpaceContains:
    def test_matches_per_call_box_oracle(self):
        # Fixed-seed twin of test_feasibility_properties.py.
        rng = np.random.default_rng(911)
        for _ in range(60):
            assert_space_contains_matches_per_call_box(rng)

    def test_infeasibility_matches_numpy_formula(self):
        # Fixed-seed twin of test_feasibility_properties.py.
        rng = np.random.default_rng(914)
        for n_coeff in [None] * 60 + list(range(6, 11)) * 4:
            assert_infeasibility_matches_numpy_formula(rng, n_coeff)

    def test_widened_box_is_derived_at_construction(self):
        space = space_from_alpha(paper_structured_alpha())
        box = space.bounding_box
        tol = 1e-9 * np.maximum(1.0, np.abs(box).max(axis=1))
        assert np.array(space._low).tobytes() == (box[:, 0] - tol).tobytes()
        assert np.array(space._high).tobytes() == (box[:, 1] + tol).tobytes()


class TestBuildReducedSpace:
    def test_paper_structure(self):
        alpha = paper_structured_alpha()
        space = space_from_alpha(alpha)
        assert space.dim == 2
        assert space.free_indices == (0, 2)
        assert space.polygon is not None
        assert space.polygon.axes == (1, 2)

    def test_no_dependency_fallback(self):
        rng = np.random.default_rng(6)
        alpha = rng.uniform(-1, 1, (400, 3))
        space = space_from_alpha(alpha)
        assert space.dim == 3
        assert space.polygon.axes == (1, 2)

    def test_single_coefficient_no_polygon(self):
        alpha = np.linspace(-1, 1, 50)[:, None]
        space = space_from_alpha(alpha)
        assert space.dim == 1
        assert space.polygon is None

    def test_hull_contains_all_training_pairs(self):
        alpha = paper_structured_alpha()
        space = space_from_alpha(alpha)
        a, b = space.polygon.axes
        dep = space.dependencies[a]
        for row in alpha:
            first = dep.slope * row[dep.source] + dep.intercept
            assert polygon_contains(space.polygon, [first, row[b]])

    @pytest.mark.parametrize("seed", [3, 5])
    def test_round_off_collinear_pair_drops_the_polygon(self, seed):
        # Coefficients 1 and 2 both regress on coefficient 0, so the fallback
        # pair (1, 2) is collinear up to round-off. Without the thinness
        # bound, seed 3 kept a polygon of area 7e-16 and seed 5 raised
        # "polygon vertices must be strictly convex and CCW".
        rng = np.random.default_rng(seed)
        a0 = rng.uniform(-2, 2, int(rng.integers(8, 40)))
        alpha = np.column_stack([a0, 2.0 * a0 + 0.1, 0.3 - 0.7 * a0])
        space = space_from_alpha(alpha)
        assert space.polygon is None
        assert space.free_indices == (0,)

    @pytest.mark.parametrize("height, thin", [(1e-11, False), (1e-13, True)])
    def test_thinness_bound_is_relative(self, height, thin):
        # Twice the area over the longest box side, against 1e-12 times the
        # largest coordinate; the same at any scale and offset.
        for scale, offset in [(1.0, 0.0), (1e-6, 0.0), (1e3, 5e3)]:
            pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, height * (1.0 + offset / scale)]])
            pts = pts * scale + offset
            if thin:
                with pytest.raises(CollinearPoints, match="up to round-off"):
                    fit_feasible_polygon(pts)
            else:
                assert len(fit_feasible_polygon(pts).vertices) == 3

    def test_contains_every_training_point_of_a_dependent_pair(self):
        # Fixed-seed twin of test_polygon_properties.py.
        rng = np.random.default_rng(313)
        for _ in range(50):
            assert_space_contains_training_points(rng)

    def test_encode_decode_consistency(self):
        alpha = paper_structured_alpha()
        space = space_from_alpha(alpha)
        free = list(space.free_indices)
        for row in alpha[:50]:
            mu = row[free]
            full = space.expand(mu)
            np.testing.assert_allclose(full[free], mu, atol=1e-9)


class TestSampleReduced:
    def test_box_polygon_full_acceptance(self):
        rng = np.random.default_rng(7)
        alpha = rng.uniform(-1, 1, (200, 2))
        space = space_from_alpha(alpha, max_vertices=None)
        samples = sample_reduced(space, 100, seed=0)
        assert samples.shape == (100, 2)
        for row in samples:
            assert space.contains(row)

    def test_eighty_samples_inside_polygon(self):
        space = space_from_alpha(paper_structured_alpha())
        samples = sample_reduced(space, 80, seed=1)
        assert samples.shape == (80, 2)
        for row in samples:
            pair = pair_point(space, row)
            assert polygon_contains(space.polygon, pair)

    def test_determinism(self):
        space = space_from_alpha(paper_structured_alpha())
        a = sample_reduced(space, 40, seed=9)
        b = sample_reduced(space, 40, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_starved_acceptance(self):
        # A polygon far smaller than the bounding box: acceptance below
        # one percent must abort instead of spinning.
        from shapemanifold.pod import PodBasis

        basis = PodBasis(np.eye(6)[:, :2], np.array([2.0, 1.0]), np.zeros(6))
        tiny = FeasiblePolygon(
            axes=(0, 1),
            vertices=np.array([[0, 0], [1e-3, 0], [0, 1e-3]], dtype=float),
        )
        space = ReducedSpace(
            basis=basis,
            facets=ring_facets(basis),
            dependencies=(None, None),
            polygon=tiny,
            bounding_box=np.array([[-1.0, 1.0], [-1.0, 1.0]]),
        )
        with pytest.raises(InfeasibleRegion):
            sample_reduced(space, 50, seed=2)

    def test_polygon_axes_must_name_coefficients(self):
        from shapemanifold.pod import PodBasis

        basis = PodBasis(np.eye(6)[:, :2], np.array([2.0, 1.0]), np.zeros(6))
        square = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
        with pytest.raises(ValueError, match=r"polygon axes \(0, 2\) beyond 2 coefficients"):
            ReducedSpace(
                basis=basis,
                facets=ring_facets(basis),
                dependencies=(None, None),
                polygon=FeasiblePolygon((0, 2), square),
                bounding_box=np.array([[-1.0, 1.0], [-1.0, 1.0]]),
            )


class TestDecode:
    def build_pipeline_space(self):
        mesh = make_sphere(6, 8)
        cfg = default_config(mesh)
        params = sample_ffd_params(300, cfg.bounds, seed=11)
        basis, alpha = build_geometry_pod(
            mesh, cfg, params, TruncationRule.energy(0.9999)
        )
        return mesh, cfg, params, basis, alpha, build_reduced_space(basis, mesh.facets, alpha)

    def test_reference_is_the_mesh_the_space_was_built_on(self):
        # The basis is centred on flatten(mesh), so the stored reference
        # holds its vertices bit for bit, with its facets.
        mesh, _, _, _, _, space = self.build_pipeline_space()
        assert bits(space.reference.vertices) == bits(mesh.vertices)
        assert np.array_equal(space.reference.facets, mesh.facets)

    def test_zero_coordinates_give_reference(self):
        mesh, _, _, _, _, space = self.build_pipeline_space()
        decoded = decode(space, np.zeros(space.dim))
        assert np.abs(decoded.vertices - mesh.vertices).max() < 1e-10

    def test_training_round_trip(self):
        mesh, cfg, params, basis, alpha, space = self.build_pipeline_space()
        sigma = basis.singular_values
        # The basis keeps every direction here, so decoding a training
        # sample's coordinates reproduces its geometry to basis accuracy.
        jac = displacement_jacobian(cfg, mesh.vertices)
        for i in (0, 7, 42):
            decoded = decode(space, alpha[i][list(space.free_indices)])
            truth = morph(mesh, jac, params[i])
            rel = np.linalg.norm(decoded.vertices - truth.vertices) / np.linalg.norm(
                truth.vertices
            )
            assert rel < 1e-10

    def test_infeasible_points_decode_like_the_inline_reconstruction(self):
        # Fixed-seed twin of test_feasibility_properties.py.
        rng = np.random.default_rng(914)
        assert sum(assert_decode_matches_inline_reconstruction(rng) for _ in range(60)) > 0
