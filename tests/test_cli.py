import json
import re

import numpy as np
import pytest

from shapemanifold import cli, rom
from shapemanifold.artifacts import load_rom, load_solution_database
from shapemanifold.cli import main
from shapemanifold.ffd import default_config, displacement_jacobian, morph
from shapemanifold.mesh import TriMesh, default_weld_tolerance, read_stl, weld, write_stl
from shapemanifold.pod import TruncationRule

from helpers import make_sphere


@pytest.fixture()
def workspace(tmp_path):
    mesh = make_sphere(8, 10, radius=0.8)
    (tmp_path / "sphere.stl").write_bytes(write_stl(mesh, "binary"))
    config = {
        "reference_stl": "sphere.stl",
        "output_dir": "out",
        "sampling": {"n_train": 80, "n_full": 6, "n_reduced": 5, "seed": 3},
        "truncation": {
            "geometry": {"energy": 0.9999},
            "solution": {"energy": 0.9999},
        },
        "stub": {
            "mode": "field-synthetic",
            "frequency": [3.0, 2.0, 1.5],
            "amplitude": 1.0,
        },
        "optimizer": {"starts": 3, "budget": 60},
    }
    cfg_path = tmp_path / "pipeline.json"
    cfg_path.write_text(json.dumps(config))
    return tmp_path, cfg_path


def run(cfg_path, *argv) -> int:
    return main([*argv, "--config", str(cfg_path)])


class TestMorph:
    def test_zero_mu_round_trips(self, workspace):
        root, cfg = workspace
        assert run(cfg, "morph", "--mu", "0,0,0,0,0") == 0
        produced = (root / "out" / "morphed.stl").read_bytes()
        # Byte-identical to the reference after one 32-bit round trip.
        reference = write_stl(
            weld(read_stl((root / "sphere.stl").read_bytes()), tol=0.0), "binary"
        )
        # The CLI welds with the scale-relative default tolerance, which
        # changes nothing for this clean mesh.
        assert produced == reference

    def test_zero_mu_round_trips_negative_zero(self, workspace):
        root, cfg = workspace
        sphere = make_sphere(8, 10, radius=0.8)
        vertices = sphere.vertices.copy()
        vertices[32, 2] = -0.0  # an equator vertex, inside the lattice box
        stl = root / "sphere.stl"
        stl.write_bytes(write_stl(TriMesh(vertices, sphere.facets), "binary"))
        reference = weld(read_stl(stl.read_bytes()), tol=0.0)
        assert np.signbit(reference.vertices[reference.vertices == 0.0]).any()
        assert run(cfg, "morph", "--mu", "0,0,0,0,0") == 0
        produced = (root / "out" / "morphed.stl").read_bytes()
        assert produced == write_stl(reference, "binary")

    def test_writes_the_geometry_evaluate_solves(self, workspace, monkeypatch):
        root, cfg = workspace
        solved = []
        evaluate = cli.solver.evaluate

        def recording_evaluate(mesh, stub):
            solved.append(mesh)
            return evaluate(mesh, stub)

        monkeypatch.setattr(cli.solver, "evaluate", recording_evaluate)
        assert run(cfg, "evaluate", "--sampling", "full", "--n", "1") == 0
        row = (root / "out" / "db_full" / "index.csv").read_text().splitlines()[1]
        mu_text = ",".join(row.split(",")[1:-1])
        soup = read_stl((root / "sphere.stl").read_bytes())
        reference = weld(soup, default_weld_tolerance(soup))
        jac = displacement_jacobian(default_config(reference), reference.vertices)
        mu = np.array([float(v) for v in mu_text.split(",")])
        assert np.any(mu != 0.0)
        # ASCII output prints every coordinate to 17 digits, so it
        # compares the float64 geometry, not only its float32 rounding.
        for fmt in ("binary", "ascii"):
            assert run(cfg, "morph", "--mu", mu_text, "--format", fmt) == 0
            produced = (root / "out" / "morphed.stl").read_bytes()
            assert produced == write_stl(morph(reference, jac, mu), fmt)
            assert produced == write_stl(solved[0], fmt)

    def test_out_of_bounds_mu_warns_but_morphs(self, workspace):
        root, cfg = workspace
        with pytest.warns(UserWarning):
            code = run(cfg, "morph", "--mu", "0.9,0,0,0,0")
        assert code == 0
        assert (root / "out" / "morphed.stl").exists()

    def test_missing_file_clean_error(self, workspace, capsys):
        root, cfg = workspace
        (root / "sphere.stl").unlink()
        assert run(cfg, "morph", "--mu", "0,0,0,0,0") == 1
        err = capsys.readouterr().err
        assert "error:" in err and "sphere.stl" in err

    @pytest.mark.parametrize("mu", ["nan,0,0,0,0", "inf,0,0,0,0", "0,0,-inf,0,0"])
    def test_non_finite_mu_rejected(self, workspace, capsys, mu):
        root, cfg = workspace
        assert run(cfg, "morph", "--mu", mu) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err[-1].startswith("error:") and "not finite" in err[-1]
        assert not (root / "out" / "morphed.stl").exists()

    def test_ascii_output(self, workspace):
        root, cfg = workspace
        assert run(cfg, "morph", "--mu", "0.1,0,0,0,0", "--format", "ascii") == 0
        text = (root / "out" / "morphed.stl").read_text()
        assert text.startswith("solid")


class TestBuildManifold:
    def test_artifacts_written(self, workspace):
        root, cfg = workspace
        assert run(cfg, "build-manifold") == 0
        out = root / "out" / "manifold"
        assert (out / "space.json").exists()
        assert (out / "geometry_basis.bin").exists()
        assert (out / "decay.csv").exists()
        assert (out / "coefficients.csv").exists()
        doc = json.loads((out / "space.json").read_text())
        # The shipped lattice has three intrinsic directions, none of them
        # mutually dependent under uniform sampling.
        assert len(doc["free_indices"]) == 3

    def test_tiny_training_set_warns(self, workspace):
        root, cfg = workspace
        config = json.loads(cfg.read_text())
        config["sampling"]["n_train"] = 2
        cfg.write_text(json.dumps(config))
        with pytest.warns(UserWarning):
            assert run(cfg, "build-manifold") == 0

    def test_degenerate_param_map_fails_cleanly(self, workspace, capsys):
        root, cfg = workspace
        config = json.loads(cfg.read_text())
        config["ffd"] = {
            "origin": [-0.8, -0.8, -0.8],
            "axes": [[1.6, 0, 0], [0, 1.6, 0], [0, 0, 1.6]],
            "dims": [2, 2, 2],
            "parameters": {"dim": 5, "entries": []},
            "bounds": {"lower": [-0.3] * 5, "upper": [0.3] * 5},
        }
        cfg.write_text(json.dumps(config))
        assert run(cfg, "build-manifold") == 1
        assert "error:" in capsys.readouterr().err


class TestEvaluate:
    def test_full_sampling(self, workspace):
        root, cfg = workspace
        assert run(cfg, "evaluate", "--sampling", "full") == 0
        index = (root / "out" / "db_full" / "index.csv").read_text().splitlines()
        assert len(index) == 7  # header + n_full rows
        assert index[0] == "sample_id,mu0,mu1,mu2,mu3,mu4,objective"

    def test_reduced_sampling(self, workspace):
        root, cfg = workspace
        assert run(cfg, "build-manifold") == 0
        assert run(cfg, "evaluate", "--sampling", "reduced") == 0
        index = (root / "out" / "db_reduced" / "index.csv").read_text().splitlines()
        assert len(index) == 6  # header + n_reduced rows

    def test_single_sample(self, workspace):
        root, cfg = workspace
        assert run(cfg, "evaluate", "--sampling", "full", "--n", "1") == 0
        index = (root / "out" / "db_full" / "index.csv").read_text().splitlines()
        assert len(index) == 2


class TestCompareDecay:
    def test_identical_databases(self, workspace, capsys):
        root, cfg = workspace
        assert run(cfg, "evaluate", "--sampling", "full") == 0
        assert (
            run(
                cfg,
                "compare-decay",
                "--full",
                str(root / "out" / "db_full"),
                "--reduced",
                str(root / "out" / "db_full"),
            )
            == 0
        )
        rows = (root / "out" / "decay_comparison.csv").read_text().splitlines()
        for row in rows[1:]:
            cols = row.split(",")
            assert cols[1:4] == cols[4:7]
        out = capsys.readouterr().out
        assert "energy 0.999:" in out

    def test_missing_database(self, workspace, capsys):
        root, cfg = workspace
        assert run(cfg, "compare-decay") == 1
        assert "error:" in capsys.readouterr().err

    def test_empty_database(self, workspace, capsys):
        root, cfg = workspace
        assert run(cfg, "evaluate", "--sampling", "full") == 0
        index = root / "out" / "db_full" / "index.csv"
        index.write_text(index.read_text().splitlines()[0] + "\n")
        assert (
            run(
                cfg,
                "compare-decay",
                "--full",
                str(root / "out" / "db_full"),
                "--reduced",
                str(root / "out" / "db_full"),
            )
            == 1
        )
        assert "no samples" in capsys.readouterr().err


class TestRomCommands:
    def prepare(self, cfg):
        assert run(cfg, "build-manifold") == 0
        assert run(cfg, "evaluate", "--sampling", "reduced") == 0
        assert run(cfg, "build-rom") == 0

    def test_predict_training_point(self, workspace, capsys):
        root, cfg = workspace
        self.prepare(cfg)
        index = (root / "out" / "db_reduced" / "index.csv").read_text().splitlines()
        cols = index[1].split(",")
        mu = ",".join(cols[1:-1])
        stored = float(cols[-1])
        assert run(cfg, "predict", "--mu", mu) == 0
        predicted = float(capsys.readouterr().out.strip())
        assert predicted == pytest.approx(stored, abs=1e-8 * (1 + abs(stored)))
        assert (root / "out" / "prediction.bin").exists()

    def test_optimize_runs(self, workspace, capsys):
        root, cfg = workspace
        self.prepare(cfg)
        assert run(cfg, "optimize") == 0
        out_lines = capsys.readouterr().out.strip().splitlines()
        best_mu = [float(v) for v in out_lines[0].split(",")]
        assert len(best_mu) == 3
        float(out_lines[1])  # best value parses
        assert (root / "out" / "optimization_trace.csv").exists()

    def test_predict_logs_extrapolation(self, workspace, capsys):
        root, cfg = workspace
        self.prepare(cfg)
        note = "predict: point outside the training range; extrapolating"
        index = (root / "out" / "db_reduced" / "index.csv").read_text().splitlines()
        node = ",".join(index[1].split(",")[1:-1])
        capsys.readouterr()
        assert run(cfg, "predict", "--mu", node) == 0
        assert note not in capsys.readouterr().err
        assert run(cfg, "predict", "--mu", "9,9,9") == 0
        captured = capsys.readouterr()
        assert captured.err.splitlines().count(note) == 1
        float(captured.out)

    def test_optimize_counts_extrapolated_trials(self, workspace, capsys):
        root, cfg = workspace
        self.prepare(cfg)
        capsys.readouterr()
        assert run(cfg, "optimize") == 0
        err = capsys.readouterr().err.splitlines()
        counted = [line for line in err if line.startswith("optimize: ")]
        assert len(counted) == 1 and not counted[0].endswith(" evaluations)")
        match = re.fullmatch(
            r"optimize: (\d+) of (\d+) trial points outside the training range",
            counted[0],
        )
        trace = np.loadtxt(
            root / "out" / "optimization_trace.csv", delimiter=",", skiprows=1
        )
        model = load_rom(root / "out" / "rom")
        outside = int(rom.extrapolates(model, trace[:, 2:-1]).sum())
        assert match and (int(match[1]), int(match[2])) == (outside, len(trace))
        # The stub objective has no training box, so no count.
        assert run(cfg, "optimize", "--objective", "stub") == 0
        assert not [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("optimize: ")]

    def test_optimize_builds_no_field(self, workspace, monkeypatch):
        root, cfg = workspace
        self.prepare(cfg)

        def no_fields(model, mu):
            raise AssertionError("optimize must query the objective alone")

        monkeypatch.setattr(rom, "predict", no_fields)
        assert run(cfg, "optimize") == 0

    @pytest.mark.parametrize("mu", ["nan,nan,nan", "inf,0,0"])
    def test_predict_rejects_non_finite_mu(self, workspace, capsys, mu):
        root, cfg = workspace
        self.prepare(cfg)
        capsys.readouterr()
        assert run(cfg, "predict", "--mu", mu) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "not finite" in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    def test_missing_rom_field_clean_error(self, workspace, capsys):
        root, cfg = workspace
        self.prepare(cfg)
        path = root / "out" / "rom" / "interpolators.json"
        doc = json.loads(path.read_text())
        del doc["objective"]
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(cfg, "predict", "--mu", "0,0,0") == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:")
        assert "interpolators.json" in err[0] and "objective" in err[0]

    def test_corrupt_rom_artifact(self, workspace, capsys):
        root, cfg = workspace
        self.prepare(cfg)
        basis_file = root / "out" / "rom" / "solution_basis.bin"
        basis_file.write_bytes(b"garbage" + basis_file.read_bytes()[7:])
        assert run(cfg, "predict", "--mu", "0,0") == 1
        err = capsys.readouterr().err
        assert "error:" in err and "magic" in err


class TestValidate:
    def test_writes_the_leave_one_out_report(self, workspace, capsys):
        root, cfg = workspace
        assert run(cfg, "build-manifold") == 0
        assert run(cfg, "evaluate", "--sampling", "reduced") == 0
        capsys.readouterr()
        assert run(cfg, "validate") == 0
        captured = capsys.readouterr()
        path = root / "out" / "rom" / "validation.json"
        assert captured.err.splitlines() == [f"wrote {path}"]
        db = load_solution_database(root / "out" / "db_reduced")
        errors, summary = rom.loo_error(db, TruncationRule.energy(0.9999))
        assert captured.out == f"{summary['mean']!r}\n{summary['max']!r}\n"
        doc = json.loads(path.read_text())
        assert doc == {
            "format": "shapemanifold/loo-validation",
            "version": 1,
            "snapshot_count": 5,
            "kernel": "gaussian",
            "epsilon": None,
            "mean": summary["mean"],
            "max": summary["max"],
            "errors": errors.tolist(),
        }

    def test_db_flag_and_configured_kernel(self, workspace, capsys):
        root, cfg = workspace
        config = json.loads(cfg.read_text())
        config["rom"] = {"kernel": "linear-rbf", "epsilon": 2.0}
        cfg.write_text(json.dumps(config))
        assert run(cfg, "build-manifold") == 0
        assert run(cfg, "evaluate", "--sampling", "full") == 0
        capsys.readouterr()
        assert run(cfg, "validate", "--db", str(root / "out" / "db_full")) == 0
        mean, worst = (float(v) for v in capsys.readouterr().out.split())
        doc = json.loads((root / "out" / "rom" / "validation.json").read_text())
        db = load_solution_database(root / "out" / "db_full")
        errors, _ = rom.loo_error(db, TruncationRule.energy(0.9999), "linear-rbf", 2.0)
        assert doc["errors"] == errors.tolist() and doc["snapshot_count"] == 6
        assert (doc["kernel"], doc["epsilon"]) == ("linear-rbf", 2.0)
        assert (mean, worst) == (doc["mean"], doc["max"])

    @pytest.mark.parametrize("samples", [None, "2"])
    def test_bad_database_fails_with_one_line(self, workspace, capsys, samples):
        root, cfg = workspace
        if samples:  # leave-one-out needs three samples
            assert run(cfg, "build-manifold") == 0
            assert run(cfg, "evaluate", "--sampling", "reduced", "--n", samples) == 0
        capsys.readouterr()
        assert run(cfg, "validate") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not (root / "out" / "rom" / "validation.json").exists()


class TestOptimizerRecovery:
    """Quadratic-centroid stub with a known interior minimizer.

    The true minimizer in reduced coordinates comes from the affine
    centroid-of-decode map; the direct stub objective recovers it tightly,
    while the surrogate-mediated path is limited by the interpolation
    node spacing.
    """

    def build_case(self, workspace):
        import shapemanifold.pod as pod
        from shapemanifold.artifacts import load_reduced_space
        from shapemanifold.mesh import unflatten

        root, cfg = workspace
        config = json.loads(cfg.read_text())
        config["sampling"].update({"n_train": 200, "n_reduced": 60})
        config["rom"] = {"kernel": "thin-plate"}
        config["optimizer"] = {"starts": 6, "budget": 200}
        cfg.write_text(json.dumps(config))
        assert run(cfg, "build-manifold") == 0
        space = load_reduced_space(root / "out" / "manifold")
        mu_star = 0.25 * space.bounding_box[:, 1]
        assert space.contains(mu_star)
        mesh = weld(read_stl((root / "sphere.stl").read_bytes()), tol=0.0)
        geom = unflatten(pod.reconstruct(space.basis, space.expand(mu_star)), mesh)
        config["stub"] = {
            "mode": "quadratic-centroid",
            "target": geom.vertices.mean(axis=0).tolist(),
        }
        cfg.write_text(json.dumps(config))
        return root, cfg, mu_star

    def read_best(self, capsys):
        lines = capsys.readouterr().out.strip().splitlines()
        return np.array([float(v) for v in lines[-2].split(",")]), float(lines[-1])

    def test_stub_objective_recovers_minimizer(self, workspace, capsys):
        root, cfg, mu_star = self.build_case(workspace)
        assert run(cfg, "optimize", "--objective", "stub") == 0
        best, value = self.read_best(capsys)
        assert np.abs(best - mu_star).max() < 1e-3
        assert value < 1e-6

    def test_rom_objective_recovers_to_node_spacing(self, workspace, capsys):
        root, cfg, mu_star = self.build_case(workspace)
        assert run(cfg, "evaluate", "--sampling", "reduced") == 0
        assert run(cfg, "build-rom") == 0
        assert run(cfg, "optimize", "--objective", "rom") == 0
        best, _ = self.read_best(capsys)
        # 60 scattered nodes over a region of extent ~0.15 per axis give a
        # spacing around 0.04; the surrogate argmin lands within that.
        assert np.abs(best - mu_star).max() < 4e-2


class TestJobsFlag:
    def test_parallel_evaluate_matches_serial(self, workspace):
        root, cfg = workspace
        assert run(cfg, "evaluate", "--sampling", "full", "--out", str(root / "s")) == 0
        assert (
            run(
                cfg,
                "evaluate",
                "--sampling",
                "full",
                "--out",
                str(root / "p"),
                "--jobs",
                "4",
            )
            == 0
        )
        serial = (root / "s" / "db_full" / "index.csv").read_text()
        parallel = (root / "p" / "db_full" / "index.csv").read_text()
        assert serial == parallel


class TestSeedOverride:
    def test_seed_flag_changes_sampling(self, workspace):
        root, cfg = workspace
        assert run(cfg, "evaluate", "--sampling", "full", "--out", str(root / "a")) == 0
        assert (
            run(
                cfg,
                "evaluate",
                "--sampling",
                "full",
                "--out",
                str(root / "b"),
                "--seed",
                "99",
            )
            == 0
        )
        a = (root / "a" / "db_full" / "index.csv").read_text()
        b = (root / "b" / "db_full" / "index.csv").read_text()
        assert a != b
