import itertools
import json
import re
import shutil
import struct
import tracemalloc
import warnings
import weakref
from functools import partial

import numpy as np
import pytest

from shapemanifold import cli, pod, rom, solver
from shapemanifold.artifacts import load_rom, load_solution_database, save_solution_database
from shapemanifold.cli import main
from shapemanifold.ffd import default_config, displacement_jacobian, morph
from shapemanifold.manifold import sample_ffd_params
from shapemanifold.mesh import TriMesh, default_weld_tolerance, read_stl, weld, write_stl
from shapemanifold.pod import TruncationRule
from shapemanifold.solver import StubConfig

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

    def test_out_of_bounds_mu_warns_but_morphs(self, workspace, capsys):
        root, cfg = workspace
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(cfg, "morph", "--mu", "0.9,0,0,0,0")
        assert code == 0
        assert (root / "out" / "morphed.stl").exists()
        err = capsys.readouterr().err.splitlines()
        note = "morph: parameter vector outside the configured bounds; morphing it anyway"
        assert err.count(note) == 1
        assert run(cfg, "morph", "--mu", "0.3,0,0,0,-0.3") == 0
        assert note not in capsys.readouterr().err

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

    @pytest.mark.parametrize("tol", [1e-320, 5e-324])
    def test_tiny_weld_tolerance_exits_with_one_line(self, workspace, capsys, tol):
        root, cfg = workspace
        (root / "sphere.stl").write_bytes(write_stl(make_sphere(8, 10), "binary"))
        config = json.loads(cfg.read_text())
        cfg.write_text(json.dumps({**config, "weld_tolerance": tol}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(cfg, "morph", "--mu", "0,0,0,0,0")
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: weld tolerance {tol!r} ")
        assert not (root / "out").exists()

    @pytest.mark.parametrize("mu, fmt", [
        ("1e308", "binary"), ("1e308", "ascii"),  # the facet normals overflow
        ("1e50", "binary"),  # float32 coordinates alone overflow
        ("1e160", "ascii"),
    ])
    def test_overflowing_morph_is_refused_writing_nothing(self, workspace, capsys, mu, fmt):
        root, cfg = workspace
        assert run(cfg, "morph", "--mu", "0.1,0,0,0,0", "--format", fmt) == 0
        path = root / "out" / "morphed.stl"
        written = path.read_bytes()
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(cfg, "morph", "--mu", f"{mu},0,0,0,0", "--format", fmt)
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        # The notes of the reference, the lattice and the box come first.
        err = captured.err.splitlines()
        assert [line for line in err if line.startswith(("error:", "wrote"))] == [
            f"error: --mu {mu},0,0,0,0: the morphed mesh overflows in the {fmt} STL"]
        assert err[-1].startswith("error:")
        assert path.read_bytes() == written
        assert [p.name for p in (root / "out").iterdir()] == ["morphed.stl"]

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
        assert doc["dependencies"] == [None, None, None]

    def test_tiny_training_set_warns(self, workspace, capsys):
        # Two samples: dependency detection leaves every coefficient free,
        # and the two points of the pair cannot span a polygon.
        root, cfg = workspace
        config = json.loads(cfg.read_text())
        config["sampling"]["n_train"] = 2
        cfg.write_text(json.dumps(config))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(cfg, "build-manifold") == 0
        err = capsys.readouterr().err.splitlines()
        assert err.count("warning: only 2 training samples; statistics will be poor") == 1
        assert err.count("manifold: training pair is collinear; polygon constraint dropped") == 1
        doc = json.loads((root / "out" / "manifold" / "space.json").read_text())
        assert doc["polygon"] is None
        assert doc["dependencies"] == [None, None]

    def test_default_run_logs_no_polygon_note(self, workspace, capsys):
        root, cfg = workspace
        assert run(cfg, "build-manifold") == 0
        assert not [
            line for line in capsys.readouterr().err.splitlines()
            if "polygon" in line
        ]

    def test_unsimplifiable_polygon_is_logged(self, workspace, capsys, monkeypatch):
        # A parallelogram hull has no collapse to a triangle: each edge's
        # neighbors are parallel.
        root, cfg = workspace
        config = json.loads(cfg.read_text())
        config["reduction"] = {"max_vertices": 3}
        cfg.write_text(json.dumps(config))
        fit = cli.manifold.fit_feasible_polygon
        square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        monkeypatch.setattr(
            cli.manifold, "fit_feasible_polygon",
            lambda points, max_vertices, axes: fit(square, max_vertices, axes),
        )
        assert run(cfg, "build-manifold") == 0
        err = capsys.readouterr().err.splitlines()
        assert err.count("manifold: cannot simplify the polygon below 4 vertices") == 1
        doc = json.loads((root / "out" / "manifold" / "space.json").read_text())
        assert doc["polygon"]["vertices"] == square.tolist()

    def test_pair_beyond_the_parameters_fails_before_the_reduction(self, workspace, capsys):
        root, cfg = workspace
        config = json.loads(cfg.read_text())
        config["reduction"] = {"pair": [0, 7]}
        cfg.write_text(json.dumps(config))
        assert run(cfg, "build-manifold") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert err[-1] == (
            "error: reduction.pair (0, 7): the 5 design parameters give at most 5 coefficients"
        )
        assert not [line for line in err if line.startswith("manifold: ")]
        assert not (root / "out").exists()

    def test_pair_beyond_the_coefficients_fails_after_the_reduction(self, workspace, capsys):
        # Five parameters, but the built-in lattice gives three coefficients.
        root, cfg = workspace
        config = json.loads(cfg.read_text())
        config["reduction"] = {"pair": [0, 4]}
        cfg.write_text(json.dumps(config))
        assert run(cfg, "build-manifold") == 1
        err = capsys.readouterr().err.splitlines()
        assert err[-2:] == ["manifold: kept 3 geometry modes",
                            "error: pair (0, 4) outside the 3 coefficients"]
        assert not (root / "out").exists()

    def test_fixed_count_above_rank_is_logged(self, workspace, capsys):
        # The built-in lattice gives three coefficients, so ten are clamped.
        root, cfg = workspace
        config = json.loads(cfg.read_text())
        config["truncation"]["geometry"] = {"fixed": 10}
        cfg.write_text(json.dumps(config))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(cfg, "build-manifold") == 0
        err = capsys.readouterr().err.splitlines()
        clamp = "manifold: truncation asks for 10 modes, only 3 available; the count is clamped"
        assert err.count(clamp) == 1
        assert err[err.index(clamp) + 1] == "manifold: kept 3 geometry modes"

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

    @pytest.mark.parametrize("sampling", ["full", "reduced"])
    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_n_below_one_fails_with_one_line(self, workspace, capsys, sampling, n):
        # Refused, not replaced by the configured count.
        root, cfg = workspace
        assert run(cfg, "evaluate", "--sampling", sampling, "--n", n) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --n must be at least 1, got {n}\n"
        assert not (root / "out").exists()

    @pytest.mark.parametrize("argv, written", [
        (["evaluate", "--sampling", "full", "--jobs", "2"], "db_full"),
        (["evaluate", "--sampling", "reduced"], "db_reduced"),
        (["optimize", "--objective", "stub"], "optimization_trace.csv"),
    ], ids=["evaluate-full", "evaluate-reduced", "optimize-stub"])
    def test_overflowing_amplitude_is_refused_writing_nothing(
            self, workspace, capsys, argv, written):
        root, cfg = workspace
        assert run(cfg, "build-manifold") == 0
        config = json.loads(cfg.read_text())
        config["stub"]["amplitude"] = 1e308  # the facet means overflow
        cfg.write_text(json.dumps(config))
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(cfg, *argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert [line for line in captured.err.splitlines() if line.startswith("error:")] == [
            "error: stub.amplitude 1e+308, stub.frequency (3.0, 2.0, 1.5): the "
            "field-synthetic solver overflows on this geometry"]
        assert captured.err.splitlines()[-1].startswith("error:")
        assert not (root / "out" / written).exists()

    def test_no_snapshot_outlives_its_copy(self, monkeypatch):
        # Each task copies its snapshot into its row: at the start of a call
        # only the other workers' snapshots may be alive, and none once the
        # samples are in. Fields and objectives do not depend on --jobs.
        mesh = make_sphere(8, 10)
        ffd_cfg = default_config(mesh)
        jac = displacement_jacobian(ffd_cfg, mesh.vertices)
        params = sample_ffd_params(24, ffd_cfg.bounds, 7)
        # Snapshots hash their field, an array: keyed by call number instead.
        evaluate, alive, counts = solver.evaluate, weakref.WeakValueDictionary(), []
        keys = itertools.count()

        def tracked(geometry, stub_cfg):
            counts.append(len(alive))
            snapshot = evaluate(geometry, stub_cfg)
            alive[next(keys)] = snapshot
            return snapshot

        monkeypatch.setattr(solver, "evaluate", tracked)
        results = []
        for jobs in (1, 2):
            counts.clear()
            results.append(cli._evaluate_samples(
                StubConfig(), partial(morph, mesh, jac), params, mesh.vertex_count, jobs))
            assert len(counts) == len(params)
            assert max(counts) < jobs
            assert len(alive) == 0
        (fields1, objectives1), (fields2, objectives2) = results
        assert fields1.tobytes() == fields2.tobytes()
        assert objectives1.tobytes() == objectives2.tobytes()


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


class TestSnapshotMemory:
    """Each stage holds one copy of its snapshot matrix. On a workspace where
    the fields dominate (400 samples of 962 vertices, 3.1 MB per database),
    the peak traced allocation stays under a multiple of one database's field
    bytes. With a per-sample field list plus its stack, and a centered copy
    beside the contiguous one, evaluate peaked at 2.26x and compare-decay at
    3.06x; with one preallocated matrix, centered in place, 1.23x and 2.06x.
    build-rom peaked at 3.71x while it kept the loaded database beside the
    centred copy, and at 2.29x once the database is released after assemble.
    Read row by row into the centred matrix, compare-decay peaks at 1.96x and
    build-rom stays at 2.29x: here n is 0.42 V, and the n x n arrays of the
    decomposition set both peaks."""

    @pytest.fixture(scope="class")
    def databases(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("memory")
        (root / "sphere.stl").write_bytes(write_stl(make_sphere(31, 32), "binary"))
        n = 400
        cfg = root / "pipeline.json"
        cfg.write_text(json.dumps({
            "reference_stl": "sphere.stl",
            "output_dir": "out",
            "sampling": {"n_train": 40, "n_full": n, "n_reduced": n, "seed": 3},
        }))
        for argv in (["build-manifold"], ["evaluate", "--sampling", "full"],
                     ["evaluate", "--sampling", "reduced"]):
            assert run(cfg, *argv) == 0
        field_bytes = load_solution_database(root / "out" / "db_full").fields.nbytes
        assert field_bytes == n * 962 * 8
        return cfg, field_bytes

    @pytest.mark.parametrize(
        "argv, multiple",
        [(["evaluate", "--sampling", "full"], 1.5), (["compare-decay"], 2.5),
         (["build-rom"], 2.5)],
        ids=["evaluate-full", "compare-decay", "build-rom"],
    )
    def test_peak_traced_allocation(self, databases, argv, multiple):
        cfg, field_bytes = databases
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            assert run(cfg, *argv) == 0
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < multiple * field_bytes, f"{peak / field_bytes:.2f}x the field bytes"


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

    @pytest.mark.parametrize("kernel", ["gaussian", "thin-plate", "linear-rbf"])
    def test_predict_refuses_a_point_where_the_surrogate_overflows(self, workspace, capsys,
                                                                   kernel):
        # The squared distance to every node overflows at 1e200; the
        # refusal comes before the extrapolation note and writes nothing.
        root, cfg = workspace
        config = json.loads(cfg.read_text())
        config["rom"] = {"kernel": kernel}
        cfg.write_text(json.dumps(config))
        self.prepare(cfg)
        assert run(cfg, "predict", "--mu", "0,0,0") == 0
        written = (root / "out" / "prediction.bin").read_bytes()
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(cfg, "predict", "--mu", "1e200,0,0") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: --mu 1e200,0,0: the surrogate overflows this far "
                                "from the training nodes\n")
        assert (root / "out" / "prediction.bin").read_bytes() == written

    @pytest.mark.parametrize("stage", ["build-rom", "validate"])
    def test_gaussian_epsilon_that_overflows_is_refused_writing_nothing(
            self, workspace, capsys, stage):
        root, cfg = workspace
        assert run(cfg, "build-manifold") == 0
        assert run(cfg, "evaluate", "--sampling", "reduced") == 0
        config = json.loads(cfg.read_text())
        config["rom"] = {"epsilon": 1e300}
        cfg.write_text(json.dumps(config))
        capsys.readouterr()
        db = str(root / "out" / "db_reduced")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(cfg, stage, "--db", db, "--out", str(root / "eps")) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: epsilon 1e+300: (epsilon * r) ** 2 ")
        assert not (root / "eps").exists()

    def test_non_finite_objective_fails_with_one_line(self, workspace, capsys):
        root, cfg = workspace
        assert run(cfg, "evaluate", "--sampling", "full") == 0
        index = root / "out" / "db_full" / "index.csv"
        lines = index.read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0] + ",nan"
        index.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run(cfg, "build-rom", "--db", str(index.parent)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {index.parent}: database entries must be finite\n"
        assert not (root / "out" / "rom" / "interpolators.json").exists()

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


class TestFixedTruncationClamp:
    """A fixed solution mode count above the snapshots' rank keeps every
    mode: build-rom and validate log one line and raise no warning."""

    def run_with_fixed(self, workspace, capsys, count):
        root, cfg = workspace
        config = json.loads(cfg.read_text())
        config["truncation"]["solution"] = {"fixed": count}
        cfg.write_text(json.dumps(config))
        assert run(cfg, "build-manifold") == 0
        assert run(cfg, "evaluate", "--sampling", "reduced") == 0
        capsys.readouterr()
        logs = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for stage in ("build-rom", "validate"):
                assert run(cfg, stage) == 0
                logs.append(capsys.readouterr().err.splitlines())
        return root / "out" / "rom", logs

    def test_count_above_rank_logs_one_line_per_stage(self, workspace, capsys):
        out, (build, validate) = self.run_with_fixed(workspace, capsys, 40)
        assert load_rom(out).basis.rank == 4  # five centered snapshots
        assert build == [
            "rom: truncation asks for 40 modes, only 4 available; the count is clamped",
            f"rom: 4 modes from 5 snapshots; wrote {out}",
        ]
        # Each fold has four snapshots, so at most three modes.
        assert validate == [
            "validate: truncation asks for 40 modes, only 3 available; the count is clamped",
            f"wrote {out / 'validation.json'}",
        ]

    def test_count_at_database_rank_clamps_in_the_folds_only(self, workspace, capsys):
        out, (build, validate) = self.run_with_fixed(workspace, capsys, 4)
        assert load_rom(out).basis.rank == 4
        assert build == [f"rom: 4 modes from 5 snapshots; wrote {out}"]
        assert validate == [
            "validate: truncation asks for 4 modes, only 3 available; the count is clamped",
            f"wrote {out / 'validation.json'}",
        ]

    def test_count_within_rank_logs_nothing(self, workspace, capsys):
        out, (build, validate) = self.run_with_fixed(workspace, capsys, 3)
        assert load_rom(out).basis.rank == 3
        assert build == [f"rom: 3 modes from 5 snapshots; wrote {out}"]
        assert validate == [f"wrote {out / 'validation.json'}"]

    @pytest.mark.parametrize("count", [2, 3])
    def test_validate_reports_the_fold_that_kept_fewest_modes(self, workspace, capsys, count):
        # Four fields on one line and a fifth off it: the database has rank
        # 2, but the fold that leaves out the fifth field keeps one mode.
        root, cfg = workspace
        config = json.loads(cfg.read_text())
        config["truncation"]["solution"] = {"fixed": count}
        cfg.write_text(json.dumps(config))
        step = np.array([1.0, -2.0, 0.5, 3.0, 0.0, 1.0])
        fields = 1.0 + np.vstack([k * step for k in range(4)] + [[0.0, 1.0, 0.0, 0.0, 2.0, 0.0]])
        params = np.linspace(0.0, 1.0, 5)[:, None]
        save_solution_database(root / "line", rom.SolutionDatabase(params, fields, params[:, 0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(cfg, "validate", "--db", str(root / "line")) == 0
        assert capsys.readouterr().err.splitlines() == [
            f"validate: truncation asks for {count} modes, only 1 available; "
            "the count is clamped",
            f"wrote {root / 'out' / 'rom' / 'validation.json'}",
        ]

    def test_validate_decomposes_only_its_folds(self, workspace, capsys, monkeypatch):
        root, cfg = workspace
        config = json.loads(cfg.read_text())
        config["truncation"]["solution"] = {"fixed": 40}
        cfg.write_text(json.dumps(config))
        assert run(cfg, "build-manifold") == 0
        assert run(cfg, "evaluate", "--sampling", "reduced") == 0
        calls = []
        compute_pod = pod.compute_pod

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return compute_pod(*args, **kwargs)

        monkeypatch.setattr(pod, "compute_pod", counted)
        assert run(cfg, "validate") == 0
        assert len(calls) == load_solution_database(root / "out" / "db_reduced").count


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
        assert run(cfg, "build-manifold") == 0
        space = ["--space", str(root / "out" / "manifold")]
        for sampling, paths in (("full", []), ("reduced", space)):
            for out, jobs in (("s", "1"), ("p", "4")):
                argv = ["evaluate", "--sampling", sampling, "--out", str(root / out), *paths]
                assert run(cfg, *argv, "--jobs", jobs) == 0
            for name in ("index.csv", "fields.bin"):
                serial = (root / "s" / f"db_{sampling}" / name).read_bytes()
                assert serial == (root / "p" / f"db_{sampling}" / name).read_bytes()


    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_fails_with_one_line(self, workspace, capsys, jobs):
        root, cfg = workspace
        assert run(cfg, "evaluate", "--sampling", "full", "--jobs", jobs) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --jobs must be at least 1, got {jobs}\n"
        assert not (root / "out").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["morph", "--mu", "0,0,0,0,0"],
            ["build-manifold"],
            ["compare-decay"],
            ["build-rom"],
            ["validate"],
            ["predict", "--mu", "0,0,0"],
            ["optimize"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_only_evaluate_takes_jobs(self, workspace, capsys, argv):
        root, cfg = workspace
        assert run(cfg, *argv, "--jobs", "1") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: unrecognized arguments: --jobs 1\n"
        assert not (root / "out").exists()


class TestUnreadOptions:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["evaluate", "--sampling", "full", "--space", "/nonexistent", "--n", "2"],
             "--space is read by --sampling reduced only"),
            (["optimize", "--objective", "stub", "--rom", "/nonexistent"],
             "--rom is read by --objective rom only"),
        ],
        ids=["space_with_full", "rom_with_stub"],
    )
    def test_fails_with_one_line_before_any_work(self, workspace, capsys, argv, message):
        # Both were accepted and ignored.
        root, cfg = workspace
        assert run(cfg, *argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not (root / "out").exists()


class TestRomSpaceDimension:
    def test_mismatch_fails_with_one_line_before_the_search(self, workspace, capsys):
        # A rom of the five design parameters once failed inside the search
        # with numpy's broadcast error, after the starts were drawn.
        root, cfg = workspace
        assert run(cfg, "build-manifold") == 0
        assert run(cfg, "evaluate", "--sampling", "full") == 0
        assert run(cfg, "build-rom", "--db", str(root / "out" / "db_full"),
                   "--out", str(root / "o4")) == 0
        capsys.readouterr()
        assert run(cfg, "optimize", "--rom", str(root / "o4" / "rom")) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {root / 'o4' / 'rom'}: fitted on 5 parameters, "
            "but the reduced space has 3\n"
        )
        assert not (root / "out" / "optimization_trace.csv").exists()
        assert not (root / "o4" / "optimization_trace.csv").exists()


class TestManifoldCarriesItsMesh:
    """evaluate --sampling reduced and optimize --objective stub read the
    manifold only: its facets.bin holds the reference connectivity."""

    def test_stages_write_the_same_bytes_without_the_stl(self, workspace, capsys):
        root, cfg = workspace
        assert run(cfg, "build-manifold") == 0
        space = ["--space", str(root / "out" / "manifold")]
        outputs = []
        for name in ("with", "without"):
            if name == "without":
                (root / "sphere.stl").unlink()
            out = root / name
            capsys.readouterr()
            assert run(cfg, "evaluate", "--sampling", "reduced", *space, "--out", str(out)) == 0
            assert run(cfg, "optimize", "--objective", "stub", *space, "--out", str(out)) == 0
            captured = capsys.readouterr()
            assert "reference:" not in captured.err
            files = ("db_reduced/index.csv", "db_reduced/fields.bin", "optimization_trace.csv")
            outputs.append([captured.out] + [(out / f).read_bytes() for f in files])
        assert outputs[0] == outputs[1]


class TestParserErrors:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["build-rom"], "the following arguments are required: --config"),
            (["evaluate", "--sampling", "full", "--jobs", "x", "--config", "p.json"],
             "argument --jobs: invalid int value: 'x'"),
            (["evaluate", "--sampling", "half", "--config", "p.json"],
             "argument --sampling: invalid choice: 'half'"),
            (["shrink", "--config", "p.json"], "argument command: invalid choice: 'shrink'"),
            ([], "the following arguments are required: command"),
        ],
        ids=["missing_config", "jobs_not_int", "bad_choice", "bad_command", "no_command"],
    )
    def test_exits_1_with_one_line(self, capsys, argv, message):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")
        assert captured.err.count("\n") == 1

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["build-rom", "--help"])
        assert info.value.code == 0
        assert "--config" in capsys.readouterr().out


class TestEmptyPaths:
    """``Path("")`` is the current directory: an empty ``--out`` or
    ``output_dir`` once wrote beside the config, and an empty ``--config`` or
    ``reference_stl`` failed with an OS error."""

    @pytest.mark.parametrize("case", ["out", "config", "output_dir", "reference_stl"])
    def test_refused_with_one_line_writing_nothing(self, workspace, capsys, monkeypatch,
                                                    case):
        root, cfg = workspace
        monkeypatch.chdir(root)
        argv = ["morph", "--mu", "0,0,0,0,0", "--config", str(cfg)]
        if case == "out":
            argv += ["--out", ""]
            line = "--out is empty; give a path or leave the option out"
        elif case == "config":
            argv[-1] = ""
            line = "--config is empty; give a path"
        elif case == "output_dir":
            cfg.write_text(json.dumps({**json.loads(cfg.read_text()), "output_dir": ""}))
            line = (f"{cfg}: invalid configuration "
                    "(output_dir is empty; give a path or leave the key out)")
        else:
            cfg.write_text(json.dumps({**json.loads(cfg.read_text()), "reference_stl": ""}))
            line = f"{cfg}: invalid configuration (reference_stl is empty; give a path)"
        before = sorted(root.rglob("*"))
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {line}\n")
        assert sorted(root.rglob("*")) == before


class TestUnreadableInputs:
    """A reference STL that the reader refuses, and a config that is not
    UTF-8 text, are refused in one line that names the file."""

    @pytest.mark.parametrize("case", ["truncated_ascii", "zero_facets", "config"])
    @pytest.mark.parametrize("argv", [["morph", "--mu", "0,0,0,0,0"], ["build-manifold"],
                                      ["evaluate", "--sampling", "full"]],
                             ids=["morph", "build-manifold", "evaluate-full"])
    def test_refused_with_one_line_naming_the_file(self, workspace, capsys, case, argv):
        root, cfg = workspace
        stl = cfg.resolve().parent / "sphere.stl"
        if case == "truncated_ascii":
            stl.write_bytes(b"solid x\nfacet normal 0 0 1\n")
            line = f"{stl}: ASCII STL ended unexpectedly"
        elif case == "zero_facets":
            stl.write_bytes(b"x" * 80 + struct.pack("<I", 0))
            line = f"{stl}: binary STL declares zero facets"
        else:
            cfg.write_bytes(b"\xff" + cfg.read_bytes())
            line = (f"{cfg}: not valid JSON ('utf-8' codec can't decode byte 0xff in "
                    "position 0: invalid start byte)")
        before = sorted(root.rglob("*"))
        assert run(cfg, *argv) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {line}\n")
        assert sorted(root.rglob("*")) == before


def _set_json(path, **values):
    doc = json.loads(path.read_text())
    doc.update(values)
    path.write_text(json.dumps(doc))


def _edit_bytes(path, start, data):
    raw = path.read_bytes()
    path.write_bytes(raw[:start] + data + raw[start + len(data):])


class TestRefusedInputs:
    """Each refusal that a stage reaches on a damaged input: exit 1, one
    exact ``error:`` line, and nothing written. Every run works on its own
    copy of one chain's output."""

    @pytest.fixture(scope="class")
    def chain(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("refusals")
        (root / "sphere.stl").write_bytes(write_stl(make_sphere(8, 10), "binary"))
        cfg = root / "pipeline.json"
        cfg.write_text(json.dumps({
            "reference_stl": "sphere.stl",
            "output_dir": "out",
            "sampling": {"n_train": 50, "n_reduced": 10},
            "optimizer": {"starts": 2, "budget": 30},
        }))
        for argv in (["build-manifold"], ["evaluate", "--sampling", "reduced"], ["build-rom"]):
            assert run(cfg, *argv) == 0
        return root, cfg

    def refused(self, chain, capsys, name, edit, argv):
        """Runs ``argv`` on a copy of the chain's output after ``edit(copy)``,
        which may return another config to run with; returns the copy and
        the one stderr line, after checking that the run exits 1, prints
        nothing to stdout and writes nothing."""
        root, cfg = chain
        out = root / "runs" / name
        shutil.copytree(root / "out", out)
        cfg = edit(out) or cfg

        def stats():
            return {p: (p.stat().st_ino, p.stat().st_mtime_ns) for p in out.rglob("*")}

        before = stats()
        capsys.readouterr()
        assert run(cfg, *argv, "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert stats() == before
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        return out, lines[0]

    @pytest.mark.parametrize("mu, message", [
        ("a,0,0", "cannot parse parameter vector 'a,0,0'"),
        ("1_0,0,0", "cannot parse parameter vector '1_0,0,0'"),
        ("١.5,0,0", "cannot parse parameter vector '١.5,0,0'"),
        ("0,0", "expected 3 parameter components, got 2"),
    ], ids=["word", "underscore", "non_ascii_digit", "short"])
    def test_mu(self, chain, capsys, mu, message):
        _, line = self.refused(chain, capsys, f"mu-{mu}", lambda out: None,
                               ["predict", "--mu", mu])
        assert line == f"error: {message}"

    def test_index_column_layout(self, chain, capsys):
        def edit(out):
            index = out / "db_reduced" / "index.csv"
            index.write_text(index.read_text().replace("sample_id,", "sample,", 1))

        out, line = self.refused(chain, capsys, "layout", edit, ["build-rom"])
        assert line == f"error: {out / 'db_reduced' / 'index.csv'}: unexpected column layout"

    @pytest.mark.parametrize("case", ["version", "truncated"])
    def test_fields_header(self, chain, capsys, case):
        def edit(out):
            path = out / "db_reduced" / "fields.bin"
            if case == "version":
                _edit_bytes(path, 8, struct.pack("<I", 2))
            else:
                path.write_bytes(path.read_bytes()[:20])  # one of two dimensions

        out, line = self.refused(chain, capsys, f"fields-{case}", edit, ["build-rom"])
        message = "unsupported version 2" if case == "version" else "truncated header"
        assert line == f"error: {out / 'db_reduced' / 'fields.bin'}: {message}"

    @pytest.mark.parametrize("case", ["not_json", "version"])
    def test_rom_document(self, chain, capsys, case):
        def edit(out):
            path = out / "rom" / "interpolators.json"
            if case == "version":
                _set_json(path, version=2)
            else:
                path.write_text("{")

        out, line = self.refused(chain, capsys, f"rom-{case}", edit,
                                 ["predict", "--mu", "0,0,0"])
        message = "unsupported version 2"
        if case == "not_json":
            try:
                json.loads("{")
            except json.JSONDecodeError as exc:
                message = f"not a JSON document ({exc})"
        assert line == f"error: {out / 'rom' / 'interpolators.json'}: {message}"

    def test_config_without_reference_stl(self, chain, capsys):
        def edit(out):
            path = out / "nostl.json"
            path.write_text(json.dumps({"output_dir": "out"}))
            return path

        out, line = self.refused(chain, capsys, "nostl", edit, ["build-rom"])
        assert line == f"error: {out / 'nostl.json'}: config must set 'reference_stl'"

    @pytest.mark.parametrize("change, problem", [
        ({"epsilon": 0}, "epsilon must be positive"),
        ({"epsilon": -2}, "epsilon must be positive"),
        ({"kernel": "foo"}, f"kernel must be one of {rom._KERNELS}"),
    ], ids=["epsilon_zero", "epsilon_negative", "kernel"])
    @pytest.mark.parametrize("argv", [["predict", "--mu", "0,0,0"], ["optimize"]],
                             ids=["predict", "optimize"])
    def test_hand_edited_interpolant(self, chain, capsys, change, problem, argv):
        # A loaded interpolant is checked as a fitted one is.
        name = f"interp-{argv[0]}-{'-'.join(map(str, change.values()))}"
        out, line = self.refused(
            chain, capsys, name,
            lambda out: _set_json(out / "rom" / "interpolators.json", **change), argv)
        assert line == (f"error: {out / 'rom' / 'interpolators.json'}: missing or malformed "
                        f"field ({ValueError(problem)!r})")


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


def _row_id(stage) -> str:
    return "-".join([stage.command, *stage.mode[1:]]) if stage.mode else stage.command


class TestStageTable:
    """Walks cli.STAGES after a full chain. Every row writes what it
    declares, needs each input it declares, and reads nothing else under the
    output directory: each run works on its own copy of the chain's output."""

    @pytest.fixture(scope="class")
    def chain(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("chain")
        (root / "sphere.stl").write_bytes(write_stl(make_sphere(8, 10), "binary"))
        cfg = root / "pipeline.json"
        cfg.write_text(json.dumps({
            "reference_stl": "sphere.stl",
            "output_dir": "out",
            "sampling": {"n_train": 50, "n_full": 12, "n_reduced": 10},
            "optimizer": {"starts": 2, "budget": 30},
        }))
        for argv in (["morph", "--mu", "0.1,0,0,0,0"], ["build-manifold"],
                     ["evaluate", "--sampling", "full"], ["evaluate", "--sampling", "reduced"],
                     ["compare-decay"], ["build-rom"], ["validate"], ["predict", "--mu", "0,0,0"],
                     ["optimize"], ["optimize", "--objective", "stub"]):
            assert run(cfg, *argv) == 0
        files = sorted(p.relative_to(root / "out").as_posix()
                       for p in (root / "out").rglob("*") if p.is_file())
        return root, cfg, files

    def run_stage(self, chain, stage, name, capsys, delete=None, extra=()):
        """Runs ``stage``, with the arguments ``extra``, on a copy of the
        chain's output with ``delete`` (a path relative to it) removed: the
        exit code, stdout, stderr with the copy's path replaced, and the
        bytes of every file the stage wrote."""
        root, cfg, _ = chain
        out = root / "runs" / name
        shutil.copytree(root / "out", out)
        if delete is not None and (out / delete).is_dir():
            shutil.rmtree(out / delete)
        elif delete is not None:
            (out / delete).unlink()

        def stats():
            return {p: (p.stat().st_ino, p.stat().st_mtime_ns)
                    for p in out.rglob("*") if p.is_file()}

        before = stats()
        argv = [stage.command, *(stage.mode or ())]
        if stage.command in ("morph", "predict"):
            argv += ["--mu", "0.1,0,0,0,0" if stage.command == "morph" else "0.01,0,0"]
        capsys.readouterr()
        code = run(cfg, *argv, *extra, "--out", str(out))
        captured = capsys.readouterr()
        written = {p.relative_to(out).as_posix(): p.read_bytes()
                   for p, stat in stats().items() if before.get(p) != stat}
        return code, captured.out, captured.err.replace(str(out), "<out>"), written, out

    @pytest.mark.parametrize("stage", cli.STAGES, ids=_row_id)
    def test_declared_outputs_exist(self, chain, stage, capsys):
        code, _, _, written, out = self.run_stage(chain, stage, _row_id(stage), capsys)
        assert code == 0
        for default in stage.writes.values():
            assert (out / default).exists()
            assert any(w == default or w.startswith(default + "/") for w in written), default

    @pytest.mark.parametrize("stage", [s for s in cli.STAGES if s.reads], ids=_row_id)
    def test_each_declared_input_is_needed(self, chain, stage, capsys):
        for default in stage.reads.values():
            code, stdout, err, written, out = self.run_stage(
                chain, stage, f"{_row_id(stage)}-no-{default}", capsys, delete=default)
            assert (code, stdout) == (1, "")
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), err
            assert f"<out>/{default}" in lines[0]

    @pytest.mark.parametrize("stage", [s for s in cli.STAGES
                                       if any(k.startswith("--") for k in {**s.reads, **s.writes})],
                             ids=_row_id)
    def test_empty_path_option_is_refused(self, chain, stage, capsys):
        # An empty path once took the option's default under the output directory.
        for key in (k for k in {**stage.reads, **stage.writes} if k.startswith("--")):
            code, stdout, err, written, out = self.run_stage(
                chain, stage, f"{_row_id(stage)}-empty-{key.lstrip('-')}", capsys,
                extra=(key, ""))
            assert (code, stdout, written) == (1, "", {}), key
            assert err == f"error: {key} is empty; give a path or leave the option out\n"

    @pytest.mark.parametrize("stage", cli.STAGES, ids=_row_id)
    def test_undeclared_files_change_nothing(self, chain, stage, capsys):
        _, _, files = chain
        baseline = self.run_stage(chain, stage, f"{_row_id(stage)}-all", capsys)[:4]
        for i, name in enumerate(files):
            result = self.run_stage(chain, stage, f"{_row_id(stage)}-{i}", capsys, delete=name)
            if result[:4] == baseline:
                continue
            # Only a file under a declared input may matter, and then the
            # stage fails naming it.
            assert any(name.startswith(d + "/") for d in stage.reads.values()), name
            code, stdout, err, _, _ = result
            assert (code, stdout) == (1, "")
            assert err.count("\n") == 1 and err.startswith("error: ")
            assert f"<out>/{name}" in err

    @pytest.mark.parametrize("stage", [s for s in cli.STAGES if s.mode], ids=_row_id)
    def test_path_options_of_other_modes_are_refused(self, workspace, capsys, stage):
        root, cfg = workspace
        mine = {**stage.reads, **stage.writes}
        others = [s for s in cli.STAGES if s.command == stage.command and s is not stage]
        for key in {k for s in others for k in {**s.reads, **s.writes}} - mine.keys():
            readers = [s.mode[1] for s in others if key in {**s.reads, **s.writes}]
            assert run(cfg, stage.command, *stage.mode, key, "x") == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {key} is read by {stage.mode[0]} {readers[0]} only\n"
        assert not (root / "out").exists()
