import json
import warnings

import numpy as np
import pytest

from shapemanifold.config import load_pipeline_config
from shapemanifold.errors import DimensionMismatch, SingularLattice
from shapemanifold.ffd import (
    FfdConfig,
    MapEntry,
    MeshMorpher,
    bernstein_row,
    check_params,
    default_config,
    displacement_jacobian,
    morph,
)

from helpers import (
    assert_ffd_invariants,
    make_sphere,
    make_tetra,
    oracle_displacement,
    point_cloud,
    random_ffd_case,
    unit_loop_jacobian,
)


def every_point_config(weight, origin=np.zeros(3), axes=np.eye(3), degrees=(1, 1, 1)):
    """One parameter that moves every control point by ``weight`` along
    every axis."""
    points = np.ndindex(*(d + 1 for d in degrees))
    entries = tuple(MapEntry(0, p, a, weight) for p in points for a in range(3))
    return FfdConfig(origin, axes, degrees, entries, 1, np.array([[-1.0, 1.0]]))


def corner_config(origin=np.zeros(3), axes=np.eye(3)):
    """Degree-(1, 1, 1) lattice whose one parameter moves the (1, 1, 1)
    corner along the first axis with unit weight."""
    entries = (MapEntry(0, (1, 1, 1), 0, 1.0),)
    return FfdConfig(origin, axes, (1, 1, 1), entries, 1, np.array([[-1.0, 1.0]]))


def local_coordinates(origin, axes, points) -> np.ndarray:
    """Local (s, t, u) lattice coordinates of points inside the box, read
    through the Jacobian: on a degree-(1, 1, 1) lattice, moving the four
    control points of the far face of axis ``a`` by one unit along ``a``
    moves a point by its coordinate ``s_a`` times that axis (linear
    precision)."""
    entries = tuple(
        MapEntry(a, p, a, 1.0) for a in range(3) for p in np.ndindex(2, 2, 2) if p[a] == 1
    )
    cfg = FfdConfig(origin, axes, (1, 1, 1), entries, 3)
    jac = displacement_jacobian(cfg, points).reshape(-1, 3, 3)
    axes = np.asarray(axes, dtype=float)
    return np.einsum("nka,ak->na", jac, axes) / (axes**2).sum(axis=1)


class TestBernstein:
    def test_degree_two_midpoint(self):
        row = bernstein_row(2, 0.5)
        assert row[1] == pytest.approx(0.5)
        assert row[0] == pytest.approx(0.25)
        assert row[2] == pytest.approx(0.25)

    def test_left_endpoint(self):
        for n in range(1, 8):
            assert bernstein_row(n, 0.0)[0] == 1.0

    def test_closed_form_value(self):
        # 3 * 0.4^2 * 0.6, evaluated by hand from the closed form.
        assert bernstein_row(3, 0.4)[2] == pytest.approx(0.288, abs=1e-15)

    def test_partition_of_unity(self):
        rng = np.random.default_rng(11)
        for n in range(1, 11):
            t = rng.random(100)
            sums = bernstein_row(n, t).sum(axis=1)
            assert np.abs(sums - 1.0).max() < 1e-14


class TestToReference:
    """The map from physical to local lattice coordinates."""

    def test_origin(self):
        np.testing.assert_allclose(
            local_coordinates(np.zeros(3), np.eye(3), np.zeros((1, 3)))[0], [0, 0, 0]
        )

    def test_opposite_corner(self):
        origin = np.array([1.0, 2.0, 3.0])
        axes = np.diag([2.0, 4.0, 8.0])
        corner = origin + axes.sum(axis=0)
        np.testing.assert_allclose(
            local_coordinates(origin, axes, corner[None, :])[0], [1, 1, 1]
        )

    def test_identity_frame(self):
        np.testing.assert_allclose(
            local_coordinates(np.zeros(3), np.eye(3), [[0.25, 0.5, 0.75]])[0],
            [0.25, 0.5, 0.75],
        )
        # u = 2 lies outside the box, so the point does not take part.
        config = FfdConfig(np.zeros(3), np.eye(3), (1, 1, 1), (), 1)
        morpher = MeshMorpher([[0.25, 0.5, 2.0]], config)
        np.testing.assert_array_equal(morpher.inside, [False])

    def test_non_orthogonal_axes_rejected(self):
        with pytest.raises(SingularLattice):
            corner_config(
                axes=np.array([[1.0, 0.0, 0.0], [1.0, 1e-3, 0.0], [0.0, 0.0, 1.0]])
            )

    def test_zero_axis_rejected(self):
        with pytest.raises(SingularLattice):
            corner_config(axes=np.diag([1.0, 0.0, 1.0]))


class TestDeformPoint:
    """Single points moved by ``morph``."""

    def test_zero_displacement_is_identity(self):
        cfg = every_point_config(0.7, degrees=(2, 3, 2))
        rng = np.random.default_rng(3)
        for p in rng.random((20, 3)):
            moved = morph(point_cloud(p), displacement_jacobian(cfg, p), [0.0])
            np.testing.assert_allclose(moved.vertices[0], p, atol=1e-12)

    def test_single_control_point_hand_value(self):
        # Degree-(1,1,1) lattice, only the (1,1,1) corner displaced by
        # (delta, 0, 0); at reference (0.5, 0.5, 0.5) the blend weight is
        # 0.5^3 = 0.125.
        delta = 0.4
        cfg = corner_config()
        p = np.array([0.5, 0.5, 0.5])
        moved = morph(point_cloud(p), displacement_jacobian(cfg, p), [delta])
        np.testing.assert_allclose(
            moved.vertices[0], [0.5 + 0.125 * delta, 0.5, 0.5], atol=1e-15
        )

    def test_point_outside_box_fixed(self):
        cfg = every_point_config(0.7)
        p = np.array([1.5, 0.5, 0.5])
        moved = morph(point_cloud(p), displacement_jacobian(cfg, p), [1.0])
        np.testing.assert_array_equal(moved.vertices[0], p)

    def test_scaled_frame(self):
        # Same reference displacement expressed in a scaled frame moves
        # the point by the frame-scaled amount.
        cfg = corner_config(axes=np.diag([10.0, 1.0, 1.0]))
        p = np.array([5.0, 0.5, 0.5])
        moved = morph(point_cloud(p), displacement_jacobian(cfg, p), [0.4])
        np.testing.assert_allclose(moved.vertices[0], [5.0 + 0.125 * 4.0, 0.5, 0.5])


def five_param_config(mesh) -> FfdConfig:
    return default_config(mesh)


class TestApplyParams:
    """Design parameters laid on the control grid, seen through ``J``."""

    def test_zero_vector(self):
        mesh = make_sphere(6, 8)
        jac = displacement_jacobian(five_param_config(mesh), mesh.vertices)
        assert np.all(jac @ np.zeros(5) == 0.0)

    def test_single_entry(self):
        entries = (MapEntry(0, (1, 1, 1), 2, 1.0),)
        cfg = FfdConfig(
            origin=np.zeros(3),
            axes=np.eye(3),
            dims=(2, 2, 2),
            entries=entries,
            param_dim=5,
        )
        # Only the (1, 1, 1) control point moves, by (0, 0, 0.3); its
        # degree-2 weight is 8 s(1-s) t(1-t) u(1-u).
        points = np.random.default_rng(4).random((10, 3))
        moved = (displacement_jacobian(cfg, points) @ [0.3, 0.0, 0.0, 0.0, 0.0]).reshape(-1, 3)
        weight = 8.0 * np.prod(points * (1.0 - points), axis=1)
        np.testing.assert_allclose(moved[:, 2], 0.3 * weight, rtol=1e-14)
        assert np.all(moved[:, :2] == 0.0)

    def test_cancelling_entries(self):
        entries = (
            MapEntry(0, (1, 1, 1), 0, 1.0),
            MapEntry(0, (1, 1, 1), 0, -1.0),
        )
        cfg = FfdConfig(
            origin=np.zeros(3),
            axes=np.eye(3),
            dims=(2, 2, 2),
            entries=entries,
            param_dim=1,
            bounds=np.array([[-1.0, 1.0]]),
        )
        points = np.random.default_rng(5).random((10, 3))
        assert np.all(displacement_jacobian(cfg, points) @ [0.5] == 0.0)

    def test_wrong_length(self):
        cfg = five_param_config(make_sphere(6, 8))
        with pytest.raises(DimensionMismatch):
            check_params(cfg, [0.1, 0.2])

    def test_out_of_bounds_warns(self):
        # A single vector is one row, flagged but not refused.
        cfg = five_param_config(make_sphere(6, 8))
        assert check_params(cfg, [0.9, 0.0, 0.0, 0.0, 0.0]).tolist() == [True]
        assert check_params(cfg, np.zeros(5)).tolist() == [False]


def morph_by(mesh, cfg, mu):
    return morph(mesh, displacement_jacobian(cfg, mesh.vertices), mu)


class TestMorphMesh:
    def test_zero_params_identity(self):
        mesh = make_sphere(8, 10)
        cfg = five_param_config(mesh)
        morphed = morph_by(mesh, cfg, np.zeros(5))
        assert np.abs(morphed.vertices - mesh.vertices).max() < 1e-12

    def test_disjoint_lattice_is_identity(self):
        mesh = make_tetra()
        cfg = every_point_config(0.5, origin=np.array([10.0, 10.0, 10.0]))
        morphed = morph_by(mesh, cfg, [1.0])
        np.testing.assert_array_equal(morphed.vertices, mesh.vertices)

    def test_topology_unchanged(self):
        mesh = make_sphere(6, 9)
        cfg = five_param_config(mesh)
        morphed = morph_by(mesh, cfg, [0.2, -0.1, 0.3, 0.05, -0.2])
        assert morphed.facets.tobytes() == mesh.facets.tobytes()
        assert morphed.vertex_count == mesh.vertex_count

    def test_boundary_stays_fixed_with_interior_map(self):
        # The shipped map displaces only the fully interior control point,
        # so vertices on the lattice box faces must not move.
        mesh = make_sphere(10, 12)
        cfg = five_param_config(mesh)
        morphed = morph_by(mesh, cfg, [0.3, 0.3, 0.3, 0.3, 0.3])
        box = mesh.bounding_box()
        on_face = np.zeros(mesh.vertex_count, dtype=bool)
        for a in range(3):
            on_face |= np.isclose(mesh.vertices[:, a], box[a, 0])
            on_face |= np.isclose(mesh.vertices[:, a], box[a, 1])
        assert on_face.any()
        drift = np.abs(morphed.vertices[on_face] - mesh.vertices[on_face]).max()
        assert drift < 1e-12

    def test_linearity_in_parameters(self):
        mesh = make_sphere(6, 9)
        cfg = five_param_config(mesh)
        rng = np.random.default_rng(7)
        mu1 = rng.uniform(-0.2, 0.2, 5)
        mu2 = rng.uniform(-0.2, 0.2, 5)
        d1 = morph_by(mesh, cfg, mu1).vertices - mesh.vertices
        d2 = morph_by(mesh, cfg, mu2).vertices - mesh.vertices
        d12 = morph_by(mesh, cfg, mu1 + mu2).vertices - mesh.vertices
        assert np.abs(d12 - (d1 + d2)).max() < 1e-12

    def test_keeps_facets(self):
        mesh = make_sphere(6, 9)
        morphed = morph_by(mesh, five_param_config(mesh), [0.1, 0.0, 0.0, 0.0, 0.0])
        assert morphed.facets.tobytes() == mesh.facets.tobytes()


class TestCheckParams:
    def test_matrix_rows(self):
        cfg = five_param_config(make_sphere(6, 8))
        with pytest.raises(DimensionMismatch):
            check_params(cfg, np.zeros((3, 4)))
        outside = check_params(cfg, [[0.0] * 5, [0.0, 0.0, -0.5, 0.0, 0.0], [0.3] * 5])
        assert outside.tolist() == [False, True, False]

    def test_in_box_is_silent(self):
        # The box's corners are inside, up to 1e-12.
        cfg = five_param_config(make_sphere(6, 8))
        assert not check_params(cfg, cfg.bounds.T).any()
        assert not check_params(cfg, cfg.bounds.T + 1e-13).any()
        assert check_params(cfg, cfg.bounds.T + 1e-11).tolist() == [False, True]


class TestDisplacementJacobian:
    def test_matches_morph(self):
        mesh = make_sphere(6, 9)
        cfg = five_param_config(mesh)
        jac = displacement_jacobian(cfg, mesh.vertices)
        assert jac.shape == (3 * mesh.vertex_count, 5)
        rng = np.random.default_rng(8)
        for mu in rng.uniform(-0.3, 0.3, (4, 5)):
            moved = mesh.vertices + oracle_displacement(mesh.vertices, cfg, mu)
            assert np.abs(morph(mesh, jac, mu).vertices - moved).max() < 1e-14

    def test_unit_vectors_do_not_warn(self):
        mesh = make_sphere(6, 9)
        cfg = five_param_config(mesh)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            displacement_jacobian(cfg, mesh.vertices)

    def test_disjoint_lattice_is_zero(self):
        mesh = make_tetra()
        default = five_param_config(mesh)
        cfg = FfdConfig(
            origin=np.array([10.0, 10.0, 10.0]),
            axes=np.eye(3),
            dims=(2, 2, 2),
            entries=default.entries,
            param_dim=default.param_dim,
        )
        assert np.all(displacement_jacobian(cfg, mesh.vertices) == 0.0)

    def test_matches_unit_loop_on_the_reference_lattice(self):
        mesh = make_sphere(41, 40)
        cfg = default_config(mesh)
        jac = displacement_jacobian(cfg, mesh.vertices)
        assert jac.tobytes() == unit_loop_jacobian(cfg, mesh.vertices).tobytes()

    def test_unnamed_parameter_gives_a_zero_column(self):
        rng = np.random.default_rng(12)
        config, points, _ = random_ffd_case(rng, (2, 2, 2), 2, 4)
        shifted = tuple(MapEntry(2 * e.param, e.point, e.axis, e.weight) for e in config.entries)
        config = FfdConfig(config.origin, config.axes, config.dims, shifted, 3)
        jac = displacement_jacobian(config, points)
        assert jac.tobytes() == unit_loop_jacobian(config, points).tobytes()
        assert np.all(jac[:, 1] == 0.0) and not np.signbit(jac[:, 1]).any()

    def test_opposite_weights_cancel_to_positive_zero(self):
        rng = np.random.default_rng(13)
        config, points, outside = random_ffd_case(rng, (2, 3, 2), 2, 3)
        w = 0.7
        point, axis = config.entries[0].point, config.entries[0].axis
        entries = (*config.entries, MapEntry(2, point, axis, w), MapEntry(2, point, axis, -w))
        config = FfdConfig(config.origin, config.axes, config.dims, entries, 3)
        jac = displacement_jacobian(config, points)
        assert jac.tobytes() == unit_loop_jacobian(config, points).tobytes()
        assert np.all(jac[:, 2] == 0.0) and not np.signbit(jac[:, 2]).any()
        assert jac[:, :2].reshape(-1, 3, 2)[~outside].any()


class TestConfigSerialization:
    def test_round_trip(self, tmp_path):
        cfg = five_param_config(make_sphere(6, 8))
        entry = {"param": 0, "point": [1, 1, 1], "axis": 0, "weight": 1.0}
        data = {
            "origin": cfg.origin.tolist(),
            "axes": cfg.axes.tolist(),
            "dims": [2, 2, 2],
            "parameters": {
                "dim": 5,
                "entries": [
                    entry,
                    {**entry, "param": 1, "axis": 1},
                    {**entry, "param": 2, "axis": 2},
                    {**entry, "param": 3, "weight": 0.5},
                    {**entry, "param": 4, "axis": 1, "weight": 0.5},
                ],
            },
            "bounds": {"lower": [-0.3] * 5, "upper": [0.3] * 5},
        }
        path = tmp_path / "pipeline.json"
        path.write_text(json.dumps({"reference_stl": "ref.stl", "ffd": data}))
        again = load_pipeline_config(path).ffd
        np.testing.assert_array_equal(again.origin, cfg.origin)
        np.testing.assert_array_equal(again.axes, cfg.axes)
        assert again.dims == cfg.dims
        assert (again.entries, again.param_dim) == (cfg.entries, cfg.param_dim)
        np.testing.assert_array_equal(again.bounds, cfg.bounds)

    def test_entry_outside_lattice_rejected(self):
        entries = (MapEntry(0, (3, 1, 1), 0, 1.0),)
        with pytest.raises(ValueError):
            FfdConfig(
                origin=np.zeros(3),
                axes=np.eye(3),
                dims=(2, 2, 2),
                entries=entries,
                param_dim=1,
            )


class TestInvariants:
    """Fixed-seed twin of ``test_ffd_properties.py``."""

    @pytest.mark.parametrize("degrees", [(1, 1, 1), (2, 3, 1), (3, 2, 3), (3, 3, 3)])
    def test_zero_identity_linearity_oracle_and_locality(self, degrees):
        rng = np.random.default_rng(sum(degrees) * 31 + degrees[0])
        for _ in range(5):
            param_dim = int(rng.integers(1, 5))
            config, points, outside = random_ffd_case(
                rng, degrees, param_dim, int(rng.integers(1, 9))
            )
            assert outside.any() and not outside.all()
            mu1, mu2 = rng.uniform(-1.0, 1.0, (2, param_dim))
            a, b = rng.uniform(-2.0, 2.0, 2)
            assert_ffd_invariants(config, points, outside, mu1, mu2, a, b)

    def test_moved_points_at_large_coordinates(self):
        # Found by the property test: rounding p + d at |p| = 4.7 is 4.0e-16,
        # above the 3.6e-16 bound on d that the displacement itself meets.
        rng = np.random.default_rng(199)
        config, points, outside = random_ffd_case(rng, (3, 1, 3), 1, 1)
        mu1, mu2 = rng.uniform(-1.0, 1.0, (2, 1))
        assert_ffd_invariants(config, points, outside, mu1, mu2, 0.0, 0.0)
