import warnings

import numpy as np
import pytest

from shapemanifold.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    SingularLattice,
)
from shapemanifold.ffd import (
    FfdConfig,
    FfdLattice,
    MapEntry,
    ParamMap,
    apply_params,
    bernstein,
    bernstein_row,
    check_params,
    config_from_dict,
    config_to_dict,
    default_config,
    deform_point,
    displacement_jacobian,
    morph_mesh,
    to_reference,
)

from helpers import make_sphere, make_tetra


def unit_lattice(degrees=(1, 1, 1), displacements=None) -> FfdLattice:
    shape = tuple(d + 1 for d in degrees) + (3,)
    if displacements is None:
        displacements = np.zeros(shape)
    return FfdLattice(
        origin=np.zeros(3),
        axes=np.eye(3),
        dims=degrees,
        displacements=displacements,
    )


class TestBernstein:
    def test_degree_two_midpoint(self):
        assert bernstein(2, 1, 0.5) == pytest.approx(0.5)
        assert bernstein(2, 0, 0.5) == pytest.approx(0.25)
        assert bernstein(2, 2, 0.5) == pytest.approx(0.25)

    def test_left_endpoint(self):
        for n in range(1, 8):
            assert bernstein(n, 0, 0.0) == 1.0

    def test_closed_form_value(self):
        # 3 * 0.4^2 * 0.6, evaluated by hand from the closed form.
        assert bernstein(3, 2, 0.4) == pytest.approx(0.288, abs=1e-15)

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            bernstein(3, 4, 0.5)
        with pytest.raises(IndexOutOfRange):
            bernstein(3, -1, 0.5)

    def test_partition_of_unity(self):
        rng = np.random.default_rng(11)
        for n in range(1, 11):
            t = rng.random(100)
            sums = bernstein_row(n, t).sum(axis=1)
            assert np.abs(sums - 1.0).max() < 1e-14


class TestToReference:
    def test_origin(self):
        lat = unit_lattice()
        np.testing.assert_allclose(to_reference(lat, np.zeros(3)), [0, 0, 0])

    def test_opposite_corner(self):
        lat = FfdLattice(
            origin=np.array([1.0, 2.0, 3.0]),
            axes=np.diag([2.0, 4.0, 8.0]),
            dims=(1, 1, 1),
            displacements=np.zeros((2, 2, 2, 3)),
        )
        corner = lat.origin + lat.axes.sum(axis=0)
        np.testing.assert_allclose(to_reference(lat, corner), [1, 1, 1])

    def test_identity_frame(self):
        lat = unit_lattice()
        np.testing.assert_allclose(
            to_reference(lat, [0.25, 0.5, 2.0]), [0.25, 0.5, 2.0]
        )

    def test_non_orthogonal_axes_rejected(self):
        with pytest.raises(SingularLattice):
            FfdLattice(
                origin=np.zeros(3),
                axes=np.array([[1.0, 0.0, 0.0], [1.0, 1e-3, 0.0], [0.0, 0.0, 1.0]]),
                dims=(1, 1, 1),
                displacements=np.zeros((2, 2, 2, 3)),
            )

    def test_zero_axis_rejected(self):
        with pytest.raises(SingularLattice):
            FfdLattice(
                origin=np.zeros(3),
                axes=np.diag([1.0, 0.0, 1.0]),
                dims=(1, 1, 1),
                displacements=np.zeros((2, 2, 2, 3)),
            )


class TestDeformPoint:
    def test_zero_displacement_is_identity(self):
        lat = unit_lattice(degrees=(2, 3, 2))
        rng = np.random.default_rng(3)
        for p in rng.random((20, 3)):
            np.testing.assert_allclose(deform_point(lat, p), p, atol=1e-12)

    def test_single_control_point_hand_value(self):
        # Degree-(1,1,1) lattice, only the (1,1,1) corner displaced by
        # (delta, 0, 0); at reference (0.5, 0.5, 0.5) the blend weight is
        # 0.5^3 = 0.125.
        delta = 0.4
        disp = np.zeros((2, 2, 2, 3))
        disp[1, 1, 1] = [delta, 0.0, 0.0]
        lat = unit_lattice(displacements=disp)
        moved = deform_point(lat, [0.5, 0.5, 0.5])
        np.testing.assert_allclose(
            moved, [0.5 + 0.125 * delta, 0.5, 0.5], atol=1e-15
        )

    def test_point_outside_box_fixed(self):
        disp = np.full((2, 2, 2, 3), 0.7)
        lat = unit_lattice(displacements=disp)
        p = np.array([1.5, 0.5, 0.5])
        np.testing.assert_array_equal(deform_point(lat, p), p)

    def test_scaled_frame(self):
        # Same reference displacement expressed in a scaled frame moves
        # the point by the frame-scaled amount.
        disp = np.zeros((2, 2, 2, 3))
        disp[1, 1, 1] = [0.4, 0.0, 0.0]
        lat = FfdLattice(
            origin=np.zeros(3),
            axes=np.diag([10.0, 1.0, 1.0]),
            dims=(1, 1, 1),
            displacements=disp,
        )
        moved = deform_point(lat, [5.0, 0.5, 0.5])
        np.testing.assert_allclose(moved, [5.0 + 0.125 * 4.0, 0.5, 0.5])


def five_param_config(mesh) -> FfdConfig:
    return default_config(mesh)


class TestApplyParams:
    def test_zero_vector(self):
        cfg = five_param_config(make_sphere(6, 8))
        lat = apply_params(cfg, np.zeros(5))
        assert np.all(lat.displacements == 0.0)

    def test_single_entry(self):
        entries = (MapEntry(0, (1, 1, 1), 2, 1.0),)
        cfg = FfdConfig(
            origin=np.zeros(3),
            axes=np.eye(3),
            dims=(2, 2, 2),
            param_map=ParamMap(entries, param_dim=5),
        )
        lat = apply_params(cfg, [0.3, 0.0, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(lat.displacements[1, 1, 1], [0, 0, 0.3])
        assert np.count_nonzero(lat.displacements) == 1

    def test_cancelling_entries(self):
        entries = (
            MapEntry(0, (1, 1, 1), 0, 1.0),
            MapEntry(0, (1, 1, 1), 0, -1.0),
        )
        cfg = FfdConfig(
            origin=np.zeros(3),
            axes=np.eye(3),
            dims=(2, 2, 2),
            param_map=ParamMap(entries, param_dim=1),
            bounds=np.array([[-1.0, 1.0]]),
        )
        lat = apply_params(cfg, [0.5])
        assert np.all(lat.displacements == 0.0)

    def test_wrong_length(self):
        cfg = five_param_config(make_sphere(6, 8))
        with pytest.raises(DimensionMismatch):
            apply_params(cfg, [0.1, 0.2])

    def test_out_of_bounds_warns(self):
        cfg = five_param_config(make_sphere(6, 8))
        with pytest.warns(UserWarning):
            apply_params(cfg, [0.9, 0.0, 0.0, 0.0, 0.0])


class TestMorphMesh:
    def test_zero_params_identity(self):
        mesh = make_sphere(8, 10)
        cfg = five_param_config(mesh)
        morphed = morph_mesh(mesh, apply_params(cfg, np.zeros(5)))
        assert np.abs(morphed.vertices - mesh.vertices).max() < 1e-12

    def test_disjoint_lattice_is_identity(self):
        mesh = make_tetra()
        lat = FfdLattice(
            origin=np.array([10.0, 10.0, 10.0]),
            axes=np.eye(3),
            dims=(1, 1, 1),
            displacements=np.full((2, 2, 2, 3), 0.5),
        )
        morphed = morph_mesh(mesh, lat)
        np.testing.assert_array_equal(morphed.vertices, mesh.vertices)

    def test_topology_unchanged(self):
        mesh = make_sphere(6, 9)
        cfg = five_param_config(mesh)
        morphed = morph_mesh(mesh, apply_params(cfg, [0.2, -0.1, 0.3, 0.05, -0.2]))
        assert morphed.facets.tobytes() == mesh.facets.tobytes()
        assert morphed.vertex_count == mesh.vertex_count

    def test_boundary_stays_fixed_with_interior_map(self):
        # The shipped map displaces only the fully interior control point,
        # so vertices on the lattice box faces must not move.
        mesh = make_sphere(10, 12)
        cfg = five_param_config(mesh)
        morphed = morph_mesh(mesh, apply_params(cfg, [0.3, 0.3, 0.3, 0.3, 0.3]))
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
        d1 = morph_mesh(mesh, apply_params(cfg, mu1)).vertices - mesh.vertices
        d2 = morph_mesh(mesh, apply_params(cfg, mu2)).vertices - mesh.vertices
        d12 = morph_mesh(mesh, apply_params(cfg, mu1 + mu2)).vertices - mesh.vertices
        assert np.abs(d12 - (d1 + d2)).max() < 1e-12


class TestCheckParams:
    def test_matrix_rows(self):
        cfg = five_param_config(make_sphere(6, 8))
        with pytest.raises(DimensionMismatch):
            check_params(cfg, np.zeros((3, 4)))
        with pytest.warns(UserWarning, match="outside the configured bounds"):
            check_params(cfg, [[0.0] * 5, [0.0, 0.0, -0.5, 0.0, 0.0]])

    def test_in_box_is_silent(self):
        cfg = five_param_config(make_sphere(6, 8))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = check_params(cfg, cfg.bounds.T)
        np.testing.assert_array_equal(out, cfg.bounds.T)


class TestDisplacementJacobian:
    def test_matches_morph(self):
        mesh = make_sphere(6, 9)
        cfg = five_param_config(mesh)
        jac = displacement_jacobian(cfg, mesh.vertices)
        assert jac.shape == (3 * mesh.vertex_count, 5)
        rng = np.random.default_rng(8)
        for mu in rng.uniform(-0.3, 0.3, (4, 5)):
            moved = morph_mesh(mesh, apply_params(cfg, mu)).vertices
            assert np.abs(mesh.vertices + (jac @ mu).reshape(-1, 3) - moved).max() < 1e-14

    def test_unit_vectors_do_not_warn(self):
        mesh = make_sphere(6, 9)
        cfg = five_param_config(mesh)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            displacement_jacobian(cfg, mesh.vertices)

    def test_disjoint_lattice_is_zero(self):
        mesh = make_tetra()
        cfg = FfdConfig(
            origin=np.array([10.0, 10.0, 10.0]),
            axes=np.eye(3),
            dims=(2, 2, 2),
            param_map=five_param_config(mesh).param_map,
        )
        assert np.all(displacement_jacobian(cfg, mesh.vertices) == 0.0)


class TestConfigSerialization:
    def test_round_trip(self):
        cfg = five_param_config(make_sphere(6, 8))
        again = config_from_dict(config_to_dict(cfg))
        np.testing.assert_array_equal(again.origin, cfg.origin)
        np.testing.assert_array_equal(again.axes, cfg.axes)
        assert again.dims == cfg.dims
        assert again.param_map == cfg.param_map
        np.testing.assert_array_equal(again.bounds, cfg.bounds)

    def test_entry_outside_lattice_rejected(self):
        entries = (MapEntry(0, (3, 1, 1), 0, 1.0),)
        with pytest.raises(ValueError):
            FfdConfig(
                origin=np.zeros(3),
                axes=np.eye(3),
                dims=(2, 2, 2),
                param_map=ParamMap(entries, param_dim=1),
            )
