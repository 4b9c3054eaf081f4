import dataclasses
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from shapemanifold import artifacts
from shapemanifold.artifacts import (
    load_pod_basis,
    load_reduced_space,
    load_rom,
    load_snapshots,
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
from shapemanifold.cli import main
from shapemanifold.errors import ArtifactError, DuplicateParams
from shapemanifold.mesh import write_stl
from shapemanifold.manifold import (
    build_reduced_space,
    decode,
    fit_feasible_polygon,
    sample_reduced,
)
from shapemanifold.pod import PodBasis, TruncationRule, assemble, compute_pod, decay_report
from shapemanifold.rom import SolutionDatabase, build_rom, predict

from helpers import (
    assert_binary_artifacts_round_trip,
    assert_same_interpolator,
    make_sphere,
    make_tetra,
    ring_facets,
)


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


    def test_round_trips_are_bit_exact(self, tmp_path):
        # Fixed-seed twin of test_artifact_properties.py.
        rng = np.random.default_rng(1010)
        cases = [(1, 0, 0, 1, 0), (3, 3, 1, 1, 1), (30, 6, 60, 8, 40)]
        for _ in range(40):
            n = int(rng.integers(1, 31))
            cases.append((n, int(rng.integers(0, min(n, 6) + 1)), int(rng.integers(0, 61)),
                          int(rng.integers(1, 9)), int(rng.integers(0, 41))))
        for i, case in enumerate(cases):
            (tmp_path / str(i)).mkdir()
            assert_binary_artifacts_round_trip(tmp_path / str(i), rng, *case)


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
        space = build_reduced_space(basis_three, ring_facets(basis_three), alpha)
        save_reduced_space(tmp_path / "space", space)
        again = load_reduced_space(tmp_path / "space")
        assert again.free_indices == space.free_indices
        assert again.facets.tobytes() == space.facets.tobytes()
        assert again.polygon.axes == space.polygon.axes
        np.testing.assert_array_equal(again.polygon.vertices, space.polygon.vertices)
        np.testing.assert_array_equal(again.bounding_box, space.bounding_box)
        dep = again.dependencies[1]
        assert dep == space.dependencies[1]
        doc = json.loads((tmp_path / "space" / "space.json").read_text())
        assert list(doc["dependencies"][1]) == ["source", "slope", "intercept", "r2"]
        assert list(doc) == ["format", "version", "dependencies", "polygon", "bounding_box"]

    def test_space_with_the_dropped_key_loads_as_before(self, tmp_path):
        # Older files carry "polygon_uses_regressed", which nothing read. With
        # false, the polygon was fitted to coefficient 2's raw values; the
        # file still loads, and decodes through the regression as it did.
        rng = np.random.default_rng(8)
        a0 = rng.uniform(-1, 1, 200)
        alpha = np.column_stack(
            [a0, rng.uniform(-1, 1, 200), 0.5 * a0 + 0.01 * rng.standard_normal(200)]
        )
        tetra = make_tetra()
        space = build_reduced_space(compute_pod(rng.standard_normal((12, 3))), tetra.facets, alpha)
        assert space.dependencies[2].source == 0 and space.polygon.axes == (1, 2)
        raw = fit_feasible_polygon(alpha[:, [1, 2]], max_vertices=4, axes=(1, 2))
        assert raw.vertices.tobytes() != space.polygon.vertices.tobytes()
        old = dataclasses.replace(space, polygon=raw)
        save_reduced_space(tmp_path / "space", old)
        path = tmp_path / "space" / "space.json"
        doc = json.loads(path.read_text())
        doc["polygon_uses_regressed"] = False
        path.write_text(json.dumps(doc, indent=1))
        again = load_reduced_space(tmp_path / "space")
        assert again.polygon.vertices.tobytes() == raw.vertices.tobytes()
        assert again.dependencies == old.dependencies
        assert again.bounding_box.tobytes() == old.bounding_box.tobytes()
        for mu in sample_reduced(old, 40, seed=1):
            got, want = decode(again, mu), decode(old, mu)
            assert got.vertices.tobytes() == want.vertices.tobytes()

    def test_space_with_stored_free_indices_loads_as_before(self, tmp_path):
        # Earlier files also stored the free indices, the positions of the
        # null dependencies; the key is ignored, and the space is the same.
        rng = np.random.default_rng(5)
        a0 = rng.uniform(-1, 1, 50)
        alpha = np.column_stack([a0, rng.uniform(-1, 1, 50), 2.0 * a0])
        basis = compute_pod(rng.standard_normal((9, 3)))
        space = build_reduced_space(basis, ring_facets(basis), alpha)
        assert space.free_indices == (0, 1)
        save_reduced_space(tmp_path / "space", space)
        path = tmp_path / "space" / "space.json"
        doc = json.loads(path.read_text())
        old = {"format": doc.pop("format"), "version": doc.pop("version"),
               "free_indices": [0, 1], **doc}
        path.write_text(json.dumps(old, indent=1))
        again = load_reduced_space(tmp_path / "space")
        assert again.dependencies == space.dependencies
        assert again.free_indices == (0, 1)
        assert again.polygon.axes == space.polygon.axes
        for got, want in [(again.polygon.vertices, space.polygon.vertices),
                          (again.bounding_box, space.bounding_box),
                          (again.facets, space.facets), (again.basis.modes, space.basis.modes),
                          (again.basis.center, space.basis.center)]:
            assert got.tobytes() == want.tobytes()

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

    def test_fields_file_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        fields = rng.standard_normal((5, 7)) * 10.0 ** rng.integers(-300, 300, (5, 7))
        fields[0, :3] = [-0.0, 5e-324, -1.7976931348623157e308]
        db = SolutionDatabase(rng.uniform(-1, 1, (5, 3)), fields, rng.standard_normal(5))
        save_solution_database(tmp_path / "db", db)
        data = (tmp_path / "db" / "fields.bin").read_bytes()
        assert data[:12] == b"SMMATRIX" + struct.pack("<I", 1)
        assert data[12:28] == struct.pack("<QQ", 5, 7)
        assert data[28:] == fields.astype("<f8").tobytes()
        again = load_solution_database(tmp_path / "db")
        assert again.fields.tobytes() == fields.tobytes()
        assert again.fields.shape == (5, 7)

    def test_snapshot_loader_matches_assemble_bitwise(self, tmp_path):
        # A reference-size database: 80 fields of 10,102 vertices, spread over
        # many magnitudes, with -0.0 and subnormal entries.
        rng = np.random.default_rng(26)
        fields = rng.standard_normal((80, 10_102)) * 10.0 ** rng.integers(-8, 8, (80, 10_102))
        fields[0, :3] = [-0.0, 5e-324, -1.5e300]
        db = SolutionDatabase(rng.uniform(-1, 1, (80, 3)), fields, rng.standard_normal(80))
        save_solution_database(tmp_path / "db", db)
        params, (matrix, center), objectives = load_snapshots(tmp_path / "db")
        loaded = load_solution_database(tmp_path / "db")
        want_matrix, want_center = assemble(loaded.fields)
        for got, want in [(params, loaded.params), (matrix, want_matrix),
                          (center, want_center), (objectives, loaded.objectives)]:
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.flags.c_contiguous == want.flags.c_contiguous
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("edit, message", [
        (lambda db: db.fields.__setitem__((2, 3), np.inf), "database entries must be finite"),
        (lambda db: db.params.__setitem__(3, db.params[1]),
         "parameter rows 1 and 3 coincide within 1e-12"),
    ], ids=["infinite_field", "duplicate_params"])
    def test_snapshot_loader_checks_the_database(self, tmp_path, capsys, edit, message):
        # The edit lands after the database's own checks, before it is saved;
        # the loaders refuse it with SolutionDatabase's message, naming the
        # database, and so does every stage that reads it.
        rng = np.random.default_rng(5)
        db = SolutionDatabase(rng.uniform(-1, 1, (5, 2)), rng.standard_normal((5, 6)),
                              rng.standard_normal(5))
        edit(db)
        directory = tmp_path / "db"
        save_solution_database(directory, db)
        message = f"{directory}: {message}"
        for load in (load_solution_database, load_snapshots):
            with pytest.raises(ArtifactError) as info:
                load(directory)
            assert str(info.value) == message
            assert isinstance(info.value.__cause__, (ValueError, DuplicateParams))
        self.assert_stages_exit_with_one_line(tmp_path, capsys, directory, message)

    @staticmethod
    def damage_truncated(directory):
        path = directory / "fields.bin"
        path.write_bytes(path.read_bytes()[:-8])
        return f"{path}: payload is 152 bytes, expected 160"

    @staticmethod
    def damage_row_count(directory):
        index = directory / "index.csv"
        index.write_text("".join(index.read_text().splitlines(keepends=True)[:-1]))
        return f"{directory / 'fields.bin'}: 4 rows, the index has 3"

    @staticmethod
    def damage_old_layout(directory):
        # The per-sample layout of earlier versions: fields/sample_*.bin.
        path = directory / "fields.bin"
        fields = np.fromfile(path, dtype="<f8", offset=28).reshape(4, 5)
        path.unlink()
        (directory / "fields").mkdir()
        for i, row in enumerate(fields):
            save_vector(directory / "fields" / f"sample_{i:05d}.bin", row)
        return f"{path}: missing solution fields"

    @staticmethod
    def damage_missing(directory):
        path = directory / "fields.bin"
        path.unlink()
        return f"{path}: missing solution fields"

    @staticmethod
    def damage_magic(directory):
        path = directory / "fields.bin"
        path.write_bytes(b"SMVECTOR" + path.read_bytes()[8:])
        return f"{path}: bad magic string, not a SMMATRIX artifact"

    @pytest.mark.parametrize(
        "damage", ["truncated", "row_count", "old_layout", "missing", "magic"]
    )
    def test_bad_fields_file_cli_exits_with_one_line(self, tmp_path, capsys, damage):
        directory = self.saved_database_with_row_edit(tmp_path, lambda cols: None)
        message = getattr(self, f"damage_{damage}")(directory)
        for load in (load_solution_database, load_snapshots):
            with pytest.raises(ArtifactError) as info:
                load(directory)
            assert str(info.value) == message
        self.assert_stages_exit_with_one_line(tmp_path, capsys, directory, message)

    @pytest.mark.parametrize(
        "edit, reason",
        [
            (lambda cols: cols.__setitem__(1, "x"), "could not convert string to float: 'x'"),
            (lambda cols: cols.__setitem__(3, ""), "could not convert string to float: ''"),
            (lambda cols: cols.__setitem__(0, "one"), "invalid literal for int"),
            (lambda cols: cols.pop(), "3 columns, the header has 4"),
            (lambda cols: cols.append("0.5"), "5 columns, the header has 4"),
            (lambda cols: cols.__setitem__(0, "0"), "sample_id 0, expected 1"),
            (lambda cols: cols.__setitem__(0, "5"), "sample_id 5, expected 1"),
            (lambda cols: cols.__setitem__(0, "-1"), "sample_id -1, expected 1"),
        ],
        ids=["mu", "objective", "sample_id", "short", "long", "repeated_id", "later_id",
             "negative_id"],
    )
    def test_malformed_index_row_names_the_file_and_line(self, tmp_path, edit, reason):
        directory = self.saved_database_with_row_edit(tmp_path, edit)
        for load in (load_solution_database, load_snapshots):
            with pytest.raises(ArtifactError) as info:
                load(directory)
            message = str(info.value)
            assert message.startswith(f"{directory / 'index.csv'}: line 3: malformed row (")
            assert reason in message

    def test_malformed_index_row_cli_exits_with_one_line(self, tmp_path, capsys):
        directory = self.saved_database_with_row_edit(
            tmp_path, lambda cols: cols.__setitem__(1, "x")
        )
        self.assert_stages_exit_with_one_line(
            tmp_path, capsys, directory,
            f"{directory / 'index.csv'}: line 3: malformed row "
            "(could not convert string to float: 'x')",
        )

    def test_index_that_is_not_utf8_names_the_file(self, tmp_path, capsys):
        directory = self.saved_database_with_row_edit(tmp_path, lambda cols: None)
        index = directory / "index.csv"
        index.write_bytes(b"\xff" + index.read_bytes())
        message = (f"{index}: not valid text ('utf-8' codec can't decode byte 0xff in "
                   "position 0: invalid start byte)")
        for load in (load_solution_database, load_snapshots):
            with pytest.raises(ArtifactError) as info:
                load(directory)
            assert str(info.value) == message
            assert isinstance(info.value.__cause__, UnicodeDecodeError)
        self.assert_stages_exit_with_one_line(tmp_path, capsys, directory, message)

    @staticmethod
    def assert_stages_exit_with_one_line(tmp_path, capsys, directory, message):
        # Every stage that reads a database, with the database as either of
        # compare-decay's two.
        good = tmp_path / "good"
        save_solution_database(good, SolutionDatabase(
            [[0.0, 0.0], [1.0, 0.0]], [[0.0] * 5, [1.0] * 5], [0.0, 1.0]))
        config = tmp_path / "pipeline.json"
        config.write_text(json.dumps({"reference_stl": "ref.stl", "output_dir": "out"}))
        for argv in (["build-rom", "--db", directory], ["validate", "--db", directory],
                     ["compare-decay", "--full", directory, "--reduced", good],
                     ["compare-decay", "--full", good, "--reduced", directory]):
            assert main([*map(str, argv), "--config", str(config)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {message}\n"
            assert not (tmp_path / "out").exists()

    @staticmethod
    def saved_database_with_row_edit(tmp_path, edit):
        rng = np.random.default_rng(3)
        db = SolutionDatabase(
            rng.uniform(-1, 1, (4, 2)),
            rng.standard_normal((4, 5)),
            rng.standard_normal(4),
        )
        directory = tmp_path / "db"
        save_solution_database(directory, db)
        index = directory / "index.csv"
        lines = index.read_text().splitlines()
        cols = lines[2].split(",")
        edit(cols)
        lines[2] = ",".join(cols)
        index.write_text("\n".join(lines) + "\n")
        return directory

    def test_rom_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        db = SolutionDatabase(
            rng.uniform(-1, 1, (8, 2)),
            rng.standard_normal((8, 25)),
            rng.standard_normal(8),
        )
        model = build_rom(db.params, assemble(db.fields), db.objectives,
                          TruncationRule.energy(0.99), metadata={"seed": 4})
        save_rom(tmp_path / "rom", model)
        again = load_rom(tmp_path / "rom")
        probe = np.array([0.2, -0.3])
        f1, o1 = predict(model, probe)
        f2, o2 = predict(again, probe)
        np.testing.assert_array_equal(f1, f2)
        assert o1 == o2
        assert again.metadata == {"seed": 4}

    @pytest.mark.parametrize("kernel", ["gaussian", "thin-plate"])
    def test_rom_states_each_shared_fact_once(self, tmp_path, kernel):
        model, path = self.saved_rom(tmp_path, kernel)
        text = path.read_text()
        for key in ("kernel", "epsilon", "nodes"):
            assert text.count(f'"{key}"') == 1, key
        doc = json.loads(text)
        assert list(doc) == ["format", "version", "kernel", "epsilon", "nodes", "coefficients",
                             "objective", "objective_mean", "metadata"]
        assert (doc["kernel"], doc["epsilon"]) == (kernel, model.coefficients.epsilon)
        for name in ("coefficients", "objective"):
            assert list(doc[name]) == ["weights", "tail"]
        assert doc["metadata"] == {}
        again = load_rom(tmp_path / "rom")
        assert_same_interpolator(again.coefficients, model.coefficients)
        assert_same_interpolator(again.objective, model.objective)

    def saved_rom(self, tmp_path, kernel="gaussian"):
        rng = np.random.default_rng(6)
        db = SolutionDatabase(
            rng.uniform(-1, 1, (9, 2)),
            rng.standard_normal((9, 20)),
            rng.standard_normal(9),
        )
        model = build_rom(db.params, assemble(db.fields), db.objectives,
                          TruncationRule.energy(0.99), kernel=kernel)
        save_rom(tmp_path / "rom", model)
        return model, tmp_path / "rom" / "interpolators.json"

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: doc.pop("objective"),
            lambda doc: doc["coefficients"].pop("weights"),
            lambda doc: doc.update(nodes="not nodes"),
            lambda doc: doc.update(objective_mean=None),
            lambda doc: doc.update(metadata=[1, 2]),
            lambda doc: doc.update(epsilon=0),
            lambda doc: doc.update(epsilon=-2),
            lambda doc: doc.update(kernel="foo"),
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
            lambda doc: doc["polygon"].pop("vertices"),
        ],
    )
    def test_malformed_space_fields_name_the_file(self, tmp_path, edit):
        rng = np.random.default_rng(5)
        a0 = rng.uniform(-1, 1, 50)
        alpha = np.column_stack([a0, rng.uniform(-1, 1, 50)])
        basis = compute_pod(rng.standard_normal((9, 2)))
        space = build_reduced_space(basis, ring_facets(basis), alpha)
        save_reduced_space(tmp_path / "space", space)
        path = tmp_path / "space" / "space.json"
        doc = json.loads(path.read_text())
        assert doc["polygon"] is not None
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ArtifactError, match="space.json"):
            load_reduced_space(tmp_path / "space")

    def test_dependency_on_a_dependent_coefficient_names_the_file(self, tmp_path):
        rng = np.random.default_rng(5)
        alpha = rng.uniform(-1, 1, (50, 2))
        basis = compute_pod(rng.standard_normal((9, 2)))
        save_reduced_space(tmp_path / "space", build_reduced_space(basis, ring_facets(basis), alpha))
        path = tmp_path / "space" / "space.json"
        doc = json.loads(path.read_text())
        doc["dependencies"][0] = {"source": 0, "slope": 1, "intercept": 0, "r2": 1}
        path.write_text(json.dumps(doc))
        with pytest.raises(ArtifactError, match=r"space\.json: .*coefficient 0 depends on 0, "
                                                r"which is not free"):
            load_reduced_space(tmp_path / "space")

    def test_interpolants_of_different_systems_cli_exits_with_one_line(self, tmp_path, capsys):
        # The one kernel, epsilon and node set serve both interpolants; a
        # thin-plate kernel over interpolants without tails is refused.
        _, path = self.saved_rom(tmp_path)
        doc = json.loads(path.read_text())
        doc["kernel"] = "thin-plate"
        path.write_text(json.dumps(doc))
        reason = "an affine tail goes with the thin-plate kernel only"
        config = tmp_path / "pipeline.json"
        config.write_text(json.dumps({"reference_stl": "ref.stl", "output_dir": "out"}))
        argv = ["predict", "--config", str(config), "--rom", str(tmp_path / "rom"),
                "--mu", "0.1,0.2"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {path}: missing or malformed field (ValueError('{reason}'))\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("axes", [[0, 1, 2], [1, 1], [0, 5]])
    def test_malformed_polygon_axes_cli_exits_with_one_line(self, tmp_path, capsys, axes):
        # Three columns once passed as a pair; their vertices then failed
        # to unpack in evaluate.
        rng = np.random.default_rng(6)
        a0 = rng.uniform(-1, 1, 50)
        alpha = np.column_stack([a0, rng.uniform(-1, 1, 50), rng.uniform(-1, 1, 50)])
        basis = compute_pod(rng.standard_normal((12, 3)))
        directory = tmp_path / "space"
        save_reduced_space(directory, build_reduced_space(basis, ring_facets(basis), alpha))
        path = directory / "space.json"
        doc = json.loads(path.read_text())
        doc["polygon"]["axes"] = axes
        path.write_text(json.dumps(doc))
        with pytest.raises(ArtifactError, match="polygon axes"):
            load_reduced_space(directory)
        config = tmp_path / "pipeline.json"
        config.write_text(json.dumps({"reference_stl": "ref.stl", "output_dir": "out"}))
        argv = ["optimize", "--objective", "stub", "--space", str(directory),
                "--config", str(config)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: {path}: missing or malformed field (ValueError(")
        assert not (tmp_path / "out").exists()

    def test_basis_short_of_the_coefficients_cli_exits_with_one_line(self, tmp_path, capsys):
        # A basis cut to 2 modes under a space.json of 3 coefficients once
        # let evaluate sample before failing, and optimize exit 0.
        rng = np.random.default_rng(6)
        alpha = rng.uniform(-1, 1, (50, 3))
        basis = compute_pod(rng.standard_normal((12, 3)))
        directory = tmp_path / "space"
        save_reduced_space(directory, build_reduced_space(basis, ring_facets(basis), alpha))
        save_pod_basis(directory / "geometry_basis.bin",
                       PodBasis(basis.modes[:, :2], basis.singular_values[:2], basis.center))
        reason = "3 coefficients in the dependency model, but the basis has 2 modes"
        message = f"{directory / 'space.json'}: missing or malformed field (ValueError({reason!r}))"
        with pytest.raises(ArtifactError) as info:
            load_reduced_space(directory)
        assert str(info.value) == message
        config = tmp_path / "pipeline.json"
        config.write_text(json.dumps({"reference_stl": "ref.stl", "output_dir": "out"}))
        # No ref.stl exists, and neither stage reads it.
        for argv in (["evaluate", "--sampling", "reduced"], ["optimize"]):
            assert main([*argv, "--space", str(directory), "--config", str(config)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_basis_of_partial_vertices_cli_exits_with_one_line(self, tmp_path, capsys):
        # A 10-coordinate basis under a valid 3-vertex facets.bin was once
        # blamed on space.json, by the reshape in ReducedSpace.
        rng = np.random.default_rng(6)
        basis = compute_pod(rng.standard_normal((9, 3)))
        directory = tmp_path / "space"
        save_reduced_space(directory, build_reduced_space(basis, ring_facets(basis),
                                                          rng.uniform(-1, 1, (50, 3))))
        path = directory / "geometry_basis.bin"
        cut = compute_pod(rng.standard_normal((10, 3)))
        assert (basis.rank, cut.rank) == (3, 3)
        save_pod_basis(path, cut)
        message = f"{path}: 10 coordinates, not 3 per vertex"
        with pytest.raises(ArtifactError) as info:
            load_reduced_space(directory)
        assert str(info.value) == message
        assert "space.json" not in message
        config = tmp_path / "pipeline.json"
        config.write_text(json.dumps({"reference_stl": "ref.stl", "output_dir": "out"}))
        for argv in (["evaluate", "--sampling", "reduced"], ["optimize", "--objective", "stub"]):
            assert main([*argv, "--space", str(directory), "--config", str(config)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "artifact, edit, reason",
        [
            ("space", lambda doc: doc.update(bounding_box="0"),
             "bounding_box must be an array of numbers, got '0'"),
            ("rom", lambda doc: doc.update(objective_mean=True),
             "objective_mean must be a number, got True"),
            ("rom", lambda doc: doc.update(epsilon="0.5"),
             "epsilon must be a number, got '0.5'"),
            ("rom", lambda doc: doc["objective"].update(
                weights=[w[0] for w in doc["objective"]["weights"]]),
             "weights must be 9 x q for 9 nodes, got shape (9,)"),
            ("rom", lambda doc: doc.update(nodes=[n[0] for n in doc["nodes"]]),
             "nodes must be m x d, got shape (9,)"),
        ],
        ids=["bounding_box_string", "objective_mean_bool", "epsilon_string", "flat_weights",
             "flat_nodes"],
    )
    def test_hand_edited_json_cli_exits_with_one_line(self, tmp_path, capsys, artifact, edit,
                                                      reason):
        # These values were once coerced: a string became the tuple of its
        # characters, true became 1.0, a numeric string its number, and a
        # flat weights list a column; flat nodes ended predict in a traceback.
        _, rom_json = self.saved_rom(tmp_path)
        rng = np.random.default_rng(5)
        alpha = rng.uniform(-1, 1, (50, 2))
        basis = compute_pod(rng.standard_normal((9, 2)))
        space = build_reduced_space(basis, ring_facets(basis), alpha)
        save_reduced_space(tmp_path / "space", space)
        path = rom_json if artifact == "rom" else tmp_path / "space" / "space.json"
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        config = tmp_path / "pipeline.json"
        config.write_text(json.dumps({"reference_stl": "ref.stl", "output_dir": "out"}))
        common = ["--config", str(config), "--rom", str(tmp_path / "rom")]
        commands = [["optimize", "--space", str(tmp_path / "space"), *common]]
        if artifact == "rom":  # predict reads no space.json
            commands.append(["predict", "--mu", "0.1,0.2", *common])
        for argv in commands:
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"error: {path}: missing or malformed field (ValueError({reason!r}))\n"
            )
        assert not (tmp_path / "out").exists()

    def test_rom_of_the_earlier_layout_cli_exits_with_one_line(self, tmp_path, capsys):
        # Earlier files stated the kernel and epsilon in each interpolant and
        # again in the metadata, beside the snapshot and mode counts.
        model, path = self.saved_rom(tmp_path)
        doc = json.loads(path.read_text())
        shared = {"kernel": doc.pop("kernel"), "epsilon": doc.pop("epsilon")}
        for name in ("coefficients", "objective"):
            doc[name] = {**shared, **doc[name]}
        doc["metadata"] = {"snapshot_count": 9, "mode_count": model.basis.rank, **shared}
        path.write_text(json.dumps(doc, indent=1))
        rng = np.random.default_rng(5)
        basis = compute_pod(rng.standard_normal((9, 2)))
        space = build_reduced_space(basis, ring_facets(basis), rng.uniform(-1, 1, (50, 2)))
        save_reduced_space(tmp_path / "space", space)
        config = tmp_path / "pipeline.json"
        config.write_text(json.dumps({"reference_stl": "ref.stl", "output_dir": "out"}))
        common = ["--config", str(config), "--rom", str(tmp_path / "rom")]
        for argv in (["predict", "--mu", "0.1,0.2", *common],
                     ["optimize", "--space", str(tmp_path / "space"), *common]):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"error: {path}: missing or malformed field (KeyError('kernel'))\n"
            )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "facets",
        [[[0.0, 1.0, 2.5]], [[0.0, 1.0, 3.0]], [[0.0, np.inf, 2.0]], [[0.0, np.nan, 2.0]],
         [[0.0, 1.0], [1.0, 2.0]], None],
        ids=["non_integer", "out_of_range", "infinite", "nan", "two_columns", "missing"],
    )
    def test_bad_facets_cli_exits_with_one_line(self, tmp_path, capsys, facets):
        # Every stage that loads a manifold refuses it, the rom objective included.
        reason = "not rows of 3 integer vertex indices below 3"  # the basis has 3 vertices
        if facets is None:
            reason = ("missing; the manifold was written before facets were stored, "
                      "run build-manifold again")
        self.saved_rom(tmp_path)
        rng = np.random.default_rng(5)
        alpha = rng.uniform(-1, 1, (50, 2))
        basis = compute_pod(rng.standard_normal((9, 2)))
        directory = tmp_path / "space"
        save_reduced_space(directory, build_reduced_space(basis, ring_facets(basis), alpha))
        path = directory / "facets.bin"
        if facets is None:
            path.unlink()
        else:
            facets = np.array(facets)
            artifacts._save_binary(path, b"SMMATRIX", facets.shape, facets)
        with pytest.raises(ArtifactError) as info:
            load_reduced_space(directory)
        assert str(info.value) == f"{path}: {reason}"
        config = tmp_path / "pipeline.json"
        config.write_text(json.dumps({"reference_stl": "ref.stl", "output_dir": "out"}))
        for argv in (["evaluate", "--sampling", "reduced"],
                     ["optimize", "--rom", str(tmp_path / "rom")],
                     ["optimize", "--objective", "stub"]):
            assert main([*argv, "--space", str(directory), "--config", str(config)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {path}: {reason}\n"
        assert not (tmp_path / "out").exists()

    def test_corrupt_json_rejected(self, tmp_path):
        rng = np.random.default_rng(5)
        a0 = rng.uniform(-1, 1, 50)
        alpha = np.column_stack([a0, rng.uniform(-1, 1, 50)])
        basis = compute_pod(rng.standard_normal((9, 2)))
        space = build_reduced_space(basis, ring_facets(basis), alpha)
        save_reduced_space(tmp_path / "space", space)
        (tmp_path / "space" / "space.json").write_text("{\"format\": \"nope\"}")
        with pytest.raises(ArtifactError):
            load_reduced_space(tmp_path / "space")


class TestAtomicWrites:
    @staticmethod
    def failing_open(path, before):
        # An open() whose file accepts a few bytes and then fails, while
        # the previous artifact must still be in place.
        class Failing:
            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.handle.close()

            def write(self, data):
                self.handle.write(data[:5])
                assert path.read_bytes() == before
                raise OSError("disk full")

        return lambda file, mode: Failing(open(file, mode))

    def test_failure_mid_write_keeps_the_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "values.bin"
        save_vector(path, np.arange(3.0))
        before = path.read_bytes()
        monkeypatch.setattr(artifacts, "open", self.failing_open(path, before), raising=False)
        with pytest.raises(OSError, match="disk full"):
            save_vector(path, np.arange(100.0))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["values.bin"]

    def test_failure_mid_morph_write_keeps_the_previous_stl(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "sphere.stl").write_bytes(write_stl(make_sphere(8, 10), "binary"))
        config = tmp_path / "pipeline.json"
        config.write_text(json.dumps({"reference_stl": "sphere.stl", "output_dir": "out"}))
        morph = ["morph", "--config", str(config), "--mu"]
        assert main([*morph, "0.1,0,0,0,0"]) == 0
        path = tmp_path / "out" / "morphed.stl"
        before = path.read_bytes()
        monkeypatch.setattr(artifacts, "open", self.failing_open(path, before), raising=False)
        assert main([*morph, "0.2,0,0,0,0"]) == 1
        assert capsys.readouterr().err.endswith("error: disk full\n")
        assert path.read_bytes() == before
        assert [p.name for p in (tmp_path / "out").iterdir()] == ["morphed.stl"]

    def test_failure_at_rename_keeps_the_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "alpha.csv"
        save_coefficients_csv(path, np.eye(2))
        before = path.read_bytes()

        def failing_replace(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(artifacts.os, "replace", failing_replace)
        with pytest.raises(OSError, match="rename failed"):
            save_coefficients_csv(path, np.ones((3, 2)))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["alpha.csv"]

    def test_database_index_is_written_last(self, tmp_path, monkeypatch):
        replaced = []
        real_replace = artifacts.os.replace

        def recording_replace(src, dst):
            replaced.append(Path(dst).name)
            real_replace(src, dst)

        monkeypatch.setattr(artifacts.os, "replace", recording_replace)
        rng = np.random.default_rng(8)
        db = SolutionDatabase(
            rng.uniform(-1, 1, (3, 2)), rng.standard_normal((3, 4)), rng.standard_normal(3)
        )
        save_solution_database(tmp_path / "db", db)
        assert replaced == ["fields.bin", "index.csv"]
        assert sorted(p.name for p in (tmp_path / "db").iterdir()) == ["fields.bin", "index.csv"]

    @staticmethod
    def directory_artifact(kind, seed):
        # Two seeds give two artifacts of one kind with the same shapes,
        # so a mix of their files would load without complaint.
        rng = np.random.default_rng(seed)
        if kind == "space":
            a0 = rng.uniform(-1, 1, 200)
            alpha = np.column_stack([a0, 2.0 * a0 + 0.1, rng.uniform(-1, 1, 200)])
            basis = compute_pod(rng.standard_normal((30, 6)))
            basis = type(basis)(basis.modes[:, :3], basis.singular_values[:3], basis.center)
            space = build_reduced_space(basis, ring_facets(basis), alpha)
            return save_reduced_space, load_reduced_space, "space.json", space
        db = SolutionDatabase(
            rng.uniform(-1, 1, (5, 2)), rng.standard_normal((5, 20)), rng.standard_normal(5)
        )
        if kind == "database":
            return save_solution_database, load_solution_database, "index.csv", db
        model = build_rom(db.params, assemble(db.fields), db.objectives, TruncationRule.fixed(3))
        return save_rom, load_rom, "interpolators.json", model

    @pytest.mark.parametrize("kind", ["database", "space", "rom"])
    def test_interrupted_rewrite_is_refused(self, tmp_path, monkeypatch, kind):
        # The rewrite fails at the file written last: the directory holds
        # the second artifact's payload and no index, which is refused
        # with one line, never read beside the first artifact's index.
        save, load, last, first = self.directory_artifact(kind, 1)
        second = self.directory_artifact(kind, 2)[3]
        directory = tmp_path / kind
        save(directory, first)
        write_atomic = artifacts.write_atomic

        def failing_write(path, chunks):
            if Path(path).name == last:
                raise OSError("disk full")
            write_atomic(path, chunks)

        monkeypatch.setattr(artifacts, "write_atomic", failing_write)
        with pytest.raises(OSError, match="disk full"):
            save(directory, second)
        assert not (directory / last).exists()
        with pytest.raises((ArtifactError, OSError)) as refused:
            load(directory)
        message = str(refused.value)
        assert last in message and "\n" not in message
