import json

import numpy as np
import pytest

from shapemanifold.artifacts import (
    load_pod_basis,
    load_reduced_space,
    load_rom,
    load_solution_database,
    load_vector,
    save_coefficients_csv,
    save_decay_csv,
    save_pod_basis,
    save_reduced_space,
    save_rom,
    save_solution_database,
    save_trace_csv,
    save_vector,
)
from shapemanifold.errors import ArtifactError
from shapemanifold.manifold import build_reduced_space
from shapemanifold.pod import TruncationRule, compute_pod, decay_report
from shapemanifold.rom import SolutionDatabase, build_rom, predict


def sample_basis(seed=0):
    rng = np.random.default_rng(seed)
    return compute_pod(rng.standard_normal((12, 5)), center=rng.standard_normal(12))


class TestBinaryArtifacts:
    def test_basis_round_trip(self, tmp_path):
        basis = sample_basis()
        path = tmp_path / "basis.bin"
        save_pod_basis(path, basis)
        again = load_pod_basis(path)
        np.testing.assert_array_equal(again.modes, basis.modes)
        np.testing.assert_array_equal(again.singular_values, basis.singular_values)
        np.testing.assert_array_equal(again.center, basis.center)

    def test_vector_round_trip(self, tmp_path):
        vec = np.random.default_rng(1).standard_normal(37)
        path = tmp_path / "vec.bin"
        save_vector(path, vec)
        np.testing.assert_array_equal(load_vector(path), vec)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(ArtifactError):
            load_pod_basis(path)
        with pytest.raises(ArtifactError):
            load_vector(path)

    def test_wrong_artifact_kind_rejected(self, tmp_path):
        path = tmp_path / "vec.bin"
        save_vector(path, np.arange(4.0))
        with pytest.raises(ArtifactError):
            load_pod_basis(path)

    def test_truncated_payload_rejected(self, tmp_path):
        basis = sample_basis()
        path = tmp_path / "basis.bin"
        save_pod_basis(path, basis)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(ArtifactError):
            load_pod_basis(path)

    def test_corrupted_payload_rejected(self, tmp_path):
        # Flipping mode entries breaks orthonormality, which the loader
        # must catch rather than return a bogus basis.
        basis = sample_basis()
        path = tmp_path / "basis.bin"
        save_pod_basis(path, basis)
        data = bytearray(path.read_bytes())
        data[40:48] = np.array([37.0]).tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(ArtifactError):
            load_pod_basis(path)


class TestCsvArtifacts:
    def test_decay_csv_header(self, tmp_path):
        basis = sample_basis()
        path = tmp_path / "decay.csv"
        save_decay_csv(path, decay_report(basis))
        lines = path.read_text().splitlines()
        assert lines[0] == "index,sigma,ratio,cumulative_energy"
        assert len(lines) == basis.rank + 1
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[2]) == 1.0

    def test_coefficients_csv(self, tmp_path):
        alpha = np.array([[1.0, 2.0], [3.0, 4.0]])
        path = tmp_path / "coeffs.csv"
        save_coefficients_csv(path, alpha)
        lines = path.read_text().splitlines()
        assert lines[0] == "alpha1,alpha2"
        assert [float(v) for v in lines[1].split(",")] == [1.0, 2.0]

    def test_trace_csv(self, tmp_path):
        traces = (
            ((np.array([0.1, 0.2]), 3.0), (np.array([0.3, 0.4]), 2.0)),
            ((np.array([0.0, 0.0]), 1.0),),
        )
        path = tmp_path / "trace.csv"
        save_trace_csv(path, traces)
        lines = path.read_text().splitlines()
        assert lines[0] == "start,iter,mu0,mu1,value"
        assert lines[1].startswith("0,0,")
        assert lines[3].startswith("1,0,")


class TestDirectoryArtifacts:
    def test_reduced_space_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        a0 = rng.uniform(-1, 1, 200)
        alpha = np.column_stack([a0, 2.0 * a0 + 0.1, rng.uniform(-1, 1, 200)])
        basis = compute_pod(rng.standard_normal((30, 6)))
        basis_three = type(basis)(
            basis.modes[:, :3], basis.singular_values[:3], basis.center
        )
        space = build_reduced_space(basis_three, alpha)
        save_reduced_space(tmp_path / "space", space)
        again = load_reduced_space(tmp_path / "space")
        assert again.free_indices == space.free_indices
        assert again.polygon.axes == space.polygon.axes
        np.testing.assert_array_equal(again.polygon.vertices, space.polygon.vertices)
        np.testing.assert_array_equal(again.bounding_box, space.bounding_box)
        dep = again.dependencies.status[1]
        assert dep == space.dependencies.status[1]
        doc = json.loads((tmp_path / "space" / "space.json").read_text())
        assert list(doc["dependencies"][1]) == ["source", "slope", "intercept", "r2"]

    def test_database_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        db = SolutionDatabase(
            rng.uniform(-1, 1, (6, 2)),
            rng.standard_normal((6, 20)),
            rng.standard_normal(6),
        )
        save_solution_database(tmp_path / "db", db)
        again = load_solution_database(tmp_path / "db")
        np.testing.assert_array_equal(again.params, db.params)
        np.testing.assert_array_equal(again.fields, db.fields)
        np.testing.assert_array_equal(again.objectives, db.objectives)

    def test_rom_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        db = SolutionDatabase(
            rng.uniform(-1, 1, (8, 2)),
            rng.standard_normal((8, 25)),
            rng.standard_normal(8),
        )
        model = build_rom(db, TruncationRule.energy(0.99))
        save_rom(tmp_path / "rom", model)
        again = load_rom(tmp_path / "rom")
        probe = np.array([0.2, -0.3])
        f1, o1 = predict(model, probe)
        f2, o2 = predict(again, probe)
        np.testing.assert_array_equal(f1, f2)
        assert o1 == o2
        assert again.metadata["mode_count"] == model.basis.rank

    def saved_rom(self, tmp_path, kernel="gaussian"):
        rng = np.random.default_rng(6)
        db = SolutionDatabase(
            rng.uniform(-1, 1, (9, 2)),
            rng.standard_normal((9, 20)),
            rng.standard_normal(9),
        )
        model = build_rom(db, TruncationRule.energy(0.99), kernel=kernel)
        save_rom(tmp_path / "rom", model)
        return model, tmp_path / "rom" / "interpolators.json"

    @pytest.mark.parametrize("kernel", ["gaussian", "thin-plate"])
    def test_flat_objective_weights_load_as_a_column(self, tmp_path, kernel):
        model, path = self.saved_rom(tmp_path, kernel)
        doc = json.loads(path.read_text())
        doc["objective"]["weights"] = [w[0] for w in doc["objective"]["weights"]]
        path.write_text(json.dumps(doc))
        again = load_rom(tmp_path / "rom")
        assert again.objective.weights.shape == model.objective.weights.shape
        np.testing.assert_array_equal(again.objective.weights, model.objective.weights)
        for probe in ([0.2, -0.3], [0.9, 0.1]):
            f1, o1 = predict(model, probe)
            f2, o2 = predict(again, probe)
            np.testing.assert_array_equal(f1, f2)
            assert o1 == o2

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: doc.pop("objective"),
            lambda doc: doc["coefficients"].pop("weights"),
            lambda doc: doc.update(nodes="not nodes"),
            lambda doc: doc.update(objective_mean=None),
            lambda doc: doc.update(metadata=[1, 2]),
        ],
    )
    def test_malformed_rom_fields_name_the_file(self, tmp_path, edit):
        _, path = self.saved_rom(tmp_path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ArtifactError, match="interpolators.json"):
            load_rom(tmp_path / "rom")

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: doc.pop("bounding_box"),
            lambda doc: doc.update(dependencies=3),
            lambda doc: doc["polygon"].pop("axes"),
            lambda doc: doc.update(polygon_uses_regressed=None, free_indices=None),
        ],
    )
    def test_malformed_space_fields_name_the_file(self, tmp_path, edit):
        rng = np.random.default_rng(5)
        a0 = rng.uniform(-1, 1, 50)
        alpha = np.column_stack([a0, rng.uniform(-1, 1, 50)])
        space = build_reduced_space(compute_pod(rng.standard_normal((10, 2))), alpha)
        save_reduced_space(tmp_path / "space", space)
        path = tmp_path / "space" / "space.json"
        doc = json.loads(path.read_text())
        assert doc["polygon"] is not None
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ArtifactError, match="space.json"):
            load_reduced_space(tmp_path / "space")

    def test_corrupt_json_rejected(self, tmp_path):
        rng = np.random.default_rng(5)
        a0 = rng.uniform(-1, 1, 50)
        alpha = np.column_stack([a0, rng.uniform(-1, 1, 50)])
        basis = compute_pod(rng.standard_normal((10, 2)))
        space = build_reduced_space(basis, alpha)
        save_reduced_space(tmp_path / "space", space)
        (tmp_path / "space" / "space.json").write_text("{\"format\": \"nope\"}")
        with pytest.raises(ArtifactError):
            load_reduced_space(tmp_path / "space")
