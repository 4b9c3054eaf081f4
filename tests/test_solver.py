import json
import tracemalloc

import numpy as np
import pytest

from shapemanifold.config import load_pipeline_config
from shapemanifold.errors import EmptyRegion
from shapemanifold.ffd import default_config, displacement_jacobian, morph
from shapemanifold.mesh import TriMesh
from shapemanifold.solver import StubConfig, evaluate

from helpers import make_sphere, np_cross_evaluate


def translated(mesh: TriMesh, shift) -> TriMesh:
    return TriMesh(mesh.vertices + np.asarray(shift), mesh.facets)


class TestFieldSynthetic:
    def test_objective_is_area_weighted_facet_mean(self):
        mesh = make_sphere(7, 9, radius=0.6)
        v, f = mesh.vertices, mesh.facets
        n = np.cross(v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 0]])
        areas = 0.5 * np.linalg.norm(n, axis=1)
        snap = evaluate(mesh, StubConfig())
        expected = (areas * snap.field[f].mean(axis=1)).sum() / areas.sum()
        assert snap.objective == float(expected)

    def test_matches_np_cross_formula_on_random_morphs(self):
        # Bitwise: the per-axis gathers round exactly like np.cross, and the
        # sums run in the order np.linalg.norm and mean use.
        mesh = make_sphere(101, 101)
        cfg = default_config(mesh)
        jac = displacement_jacobian(cfg, mesh.vertices)
        lower, upper = cfg.bounds.T
        rng = np.random.default_rng(8)
        for mu in rng.uniform(lower, upper, (50, cfg.param_dim)):
            geometry = morph(mesh, jac, mu)
            snap = evaluate(geometry, StubConfig())
            field, objective = np_cross_evaluate(geometry, StubConfig())
            assert snap.field.tobytes() == field.tobytes()
            assert snap.objective == objective

    def test_matches_np_cross_formula_with_degenerate_facets(self):
        mesh = make_sphere(7, 9, radius=0.6)
        # Append a repeated-corner facet and a collinear one.
        line = [[2.0, 0.0, 0.0], [3.0, 0.0, 0.0], [4.0, 0.0, 0.0]]
        n = mesh.vertex_count
        facets = np.vstack([mesh.facets, [[0, 0, 1], [n, n + 1, n + 2]]])
        padded = TriMesh(np.vstack([mesh.vertices, line]), facets)
        snap = evaluate(padded, StubConfig())
        field, objective = np_cross_evaluate(padded, StubConfig())
        assert snap.field.tobytes() == field.tobytes()
        assert snap.objective == objective

    def test_fully_degenerate_mesh_takes_the_plain_mean(self):
        # Every facet lies on one line, so no facet has area: the weighted
        # mean of np_cross_evaluate is 0 / 0, and the objective is the plain
        # mean of its field instead.
        line = np.outer(np.arange(4.0), [1.0, 2.0, 3.0])
        mesh = TriMesh(line, [[0, 1, 2], [1, 2, 3], [0, 0, 3]])
        snap = evaluate(mesh, StubConfig())
        with np.errstate(invalid="ignore"):
            field, objective = np_cross_evaluate(mesh, StubConfig())
        assert np.isnan(objective)
        assert snap.field.tobytes() == field.tobytes()
        assert snap.objective == float(field.mean())

    @pytest.mark.parametrize("rings, segments", [(101, 101), (41, 40)])
    def test_solve_makes_no_hidden_copies(self, rings, segments):
        # The (8, F) workspace, the field and one V-length term: 8 (8F + 2V)
        # bytes. A gather from a strided coordinate column or through a
        # strided index column copies it first, 1.17x on the 101 x 101 sphere.
        mesh = make_sphere(rings, segments)
        evaluate(mesh, StubConfig())
        tracemalloc.start()
        try:
            evaluate(mesh, StubConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(mesh.facets) >= mesh.vertex_count
        assert peak <= 1.05 * 8 * (8 * len(mesh.facets) + 2 * mesh.vertex_count)

    def test_zero_amplitude_zero_field(self):
        cfg = StubConfig(mode="field-synthetic", frequency=(1.0, 1.0, 0.0), amplitude=0.0)
        snap = evaluate(make_sphere(5, 6), cfg)
        assert np.all(snap.field == 0.0)
        assert snap.objective == 0.0

    def test_field_length_matches_vertices(self):
        mesh = make_sphere(7, 9)
        snap = evaluate(mesh, StubConfig())
        assert snap.field.shape == (mesh.vertex_count,)

    def test_determinism(self):
        mesh = make_sphere(5, 7)
        a = evaluate(mesh, StubConfig())
        b = evaluate(mesh, StubConfig())
        assert a.field.tobytes() == b.field.tobytes()
        assert a.objective == b.objective

    def test_objective_insensitive_to_tessellation(self):
        # Area weighting: refining the tessellation of the same surface
        # barely changes the integral objective.
        coarse = evaluate(make_sphere(16, 24), StubConfig()).objective
        fine = evaluate(make_sphere(32, 48), StubConfig()).objective
        assert abs(coarse - fine) < 5e-3 * max(1.0, abs(fine))


class TestQuadraticCentroid:
    def cfg(self, target=(0.0, 0.0, 0.0)):
        return StubConfig(mode="quadratic-centroid", target=target)

    def test_exact_minimum(self):
        mesh = make_sphere(8, 10)  # centroid is the sphere center
        snap = evaluate(mesh, self.cfg(target=(0.0, 0.0, 0.0)))
        assert snap.objective == pytest.approx(0.0, abs=1e-20)

    def test_translation_shifts_objective(self):
        mesh = make_sphere(6, 8)
        target = np.array([0.2, -0.1, 0.3])
        t = np.array([0.5, 0.25, -0.75])
        base_centroid = mesh.vertices.mean(axis=0)
        snap = evaluate(translated(mesh, t), self.cfg(target=tuple(target)))
        expected = float(((base_centroid + t - target) ** 2).sum())
        assert snap.objective == pytest.approx(expected, rel=1e-12)

    def test_empty_region(self):
        mesh = make_sphere(5, 6)
        region = np.array([[10.0, 11.0], [10.0, 11.0], [10.0, 11.0]])
        cfg = StubConfig(mode="quadratic-centroid", target=(0, 0, 0), region=region)
        with pytest.raises(EmptyRegion):
            evaluate(mesh, cfg)

    def test_region_restricts_centroid(self):
        mesh = make_sphere(8, 10)
        region = np.array([[0.0, 2.0], [-2.0, 2.0], [-2.0, 2.0]])  # x >= 0 half
        cfg = StubConfig(mode="quadratic-centroid", target=(0, 0, 0), region=region)
        snap = evaluate(mesh, cfg)
        inside = mesh.vertices[:, 0] >= 0.0
        expected = float((mesh.vertices[inside].mean(axis=0) ** 2).sum())
        assert snap.objective == pytest.approx(expected, rel=1e-12)

    def test_field_is_squared_distance(self):
        mesh = make_sphere(5, 6)
        snap = evaluate(mesh, self.cfg(target=(1.0, 0.0, 0.0)))
        expected = ((mesh.vertices - [1.0, 0.0, 0.0]) ** 2).sum(axis=1)
        np.testing.assert_allclose(snap.field, expected)


class TestSmoothness:
    def test_central_difference_convergence(self):
        # The objective is smooth in each design parameter: the central
        # difference has O(h^2) error, so shrinking h tenfold shrinks the
        # error by about 100x. Steps are chosen large enough that the
        # truncation term dominates the floating-point noise floor.
        mesh = make_sphere(10, 12)
        cfg = default_config(mesh)
        stub = StubConfig()
        base = np.array([0.05, -0.1, 0.04, 0.0, 0.02])
        jac = displacement_jacobian(cfg, mesh.vertices)

        def objective(mu):
            return evaluate(morph(mesh, jac, mu), stub).objective

        def central(h):
            e = np.zeros(5)
            e[0] = h
            return (objective(base + e) - objective(base - e)) / (2 * h)

        reference = central(1e-3)
        err_coarse = abs(central(1e-1) - reference)
        err_fine = abs(central(1e-2) - reference)
        ratio = err_coarse / err_fine
        assert 30.0 < ratio < 300.0


def load_stub(tmp_path, stub: dict) -> StubConfig:
    path = tmp_path / "pipeline.json"
    path.write_text(json.dumps({"reference_stl": "ref.stl", "stub": stub}))
    return load_pipeline_config(path).stub


class TestStubSerialization:
    def test_field_mode_round_trip(self, tmp_path):
        cfg = StubConfig(mode="field-synthetic", frequency=(4.0, 1.0, 2.0), amplitude=0.5)
        again = load_stub(
            tmp_path,
            {"mode": "field-synthetic", "frequency": [4.0, 1.0, 2.0], "amplitude": 0.5},
        )
        assert again == cfg

    def test_centroid_mode_round_trip(self, tmp_path):
        region = np.array([[0.0, 1.0], [0.0, 2.0], [0.0, 3.0]])
        cfg = StubConfig(mode="quadratic-centroid", target=(1.0, 2.0, 3.0), region=region)
        again = load_stub(tmp_path, {
            "mode": "quadratic-centroid",
            "target": [1.0, 2.0, 3.0],
            "region": {"lower": [0.0, 0.0, 0.0], "upper": [1.0, 2.0, 3.0]},
        })
        assert again.mode == cfg.mode
        assert again.target == cfg.target
        np.testing.assert_array_equal(again.region, cfg.region)
