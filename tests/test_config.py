import json

import numpy as np
import pytest

from shapemanifold.cli import main
from shapemanifold.config import load_pipeline_config
from shapemanifold.errors import ArtifactError
from shapemanifold.ffd import MapEntry


def write_config(tmp_path, **sections):
    doc = {"reference_stl": "ref.stl", **sections}
    path = tmp_path / "pipeline.json"
    path.write_text(json.dumps(doc))
    return path


class TestSeedOverride:
    def test_explicit_optimizer_seed_survives(self, tmp_path):
        path = write_config(tmp_path, optimizer={"seed": 42})
        cfg = load_pipeline_config(path, seed_override=7)
        assert cfg.sampling.seed == 7
        assert cfg.optimizer_seed == 42

    def test_unset_optimizer_seed_follows_override(self, tmp_path):
        path = write_config(tmp_path, sampling={"seed": 1})
        assert load_pipeline_config(path).optimizer_seed == 4
        assert load_pipeline_config(path, seed_override=7).optimizer_seed == 10

    @pytest.mark.parametrize("command", [["build-manifold"], ["evaluate", "--sampling", "full"]])
    def test_negative_override_exits_with_one_line(self, tmp_path, capsys, command):
        path = write_config(tmp_path, output_dir="out")
        assert main([*command, "--config", str(path), "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: sampling.seed must be non-negative, got -1\n"
        assert not (tmp_path / "out").exists()


FFD = {
    "origin": [0, 0, 0],
    "axes": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    "dims": [1, 1, 1],
    "parameters": {"dim": 1, "entries": [
        {"param": 0, "point": [1, 1, 1], "axis": 0, "weight": 1.0}
    ]},
    "bounds": {"lower": [-0.1], "upper": [0.1]},
}

BAD_SECTIONS = {
    "top-level": ({"truncaton": {}}, "'truncaton'"),
    "truncation": ({"truncation": {"geometri": {"energy": 0.9}}}, "'geometri'"),
    "rule-key": ({"truncation": {"solution": {"energi": 0.9}}}, "'energi'"),
    "rule-conflict": (
        {"truncation": {"geometry": {"fixed": 2, "energy": 0.9}}},
        "truncation.geometry",
    ),
    "rule-empty": ({"truncation": {"solution": {}}}, "truncation.solution"),
    "stub": ({"stub": {"mode": "field-synthetic", "frequncy": [1, 2, 3]}}, "'frequncy'"),
    "ffd": ({"ffd": {**FFD, "degree": [2, 2, 2]}}, "'degree'"),
    "ffd-parameters": (
        {"ffd": {**FFD, "parameters": {**FFD["parameters"], "extra": 1}}},
        "unknown ffd.parameters key 'extra'",
    ),
    "ffd-entry": (
        {"ffd": {**FFD, "parameters": {"dim": 1, "entries": [
            {**FFD["parameters"]["entries"][0], "scale": 9}
        ]}}},
        "'scale'",
    ),
    "ffd-bounds": (
        {"ffd": {**FFD, "bounds": {**FFD["bounds"], "mid": [0.0]}}},
        "unknown ffd.bounds key 'mid'",
    ),
    "sampling": ({"sampling": {"n_trian": 5}}, "'n_trian'"),
    # A dependent pair member always contributes its regressed value.
    "reduction": (
        {"reduction": {"polygon_uses_regressed": False}},
        "unknown reduction key 'polygon_uses_regressed'",
    ),
}


class TestUnknownKeys:
    def test_valid_sections_load(self, tmp_path):
        path = write_config(
            tmp_path,
            ffd=FFD,
            truncation={"geometry": {"fixed": 2}, "solution": {"energy": 0.9}},
            stub={"mode": "quadratic-centroid", "target": [0, 0, 0]},
        )
        cfg = load_pipeline_config(path)
        assert cfg.geometry_truncation.fixed_count == 2
        assert cfg.solution_truncation.energy_threshold == 0.9
        assert cfg.ffd.param_dim == 1

    @pytest.mark.parametrize("case", sorted(BAD_SECTIONS))
    def test_rejected_with_the_key_named(self, tmp_path, case):
        sections, named = BAD_SECTIONS[case]
        path = write_config(tmp_path, **sections)
        with pytest.raises(ArtifactError, match=named):
            load_pipeline_config(path)

    @pytest.mark.parametrize("case", sorted(BAD_SECTIONS))
    def test_cli_exits_with_one_line(self, tmp_path, capsys, case):
        sections, named = BAD_SECTIONS[case]
        path = write_config(tmp_path, **sections)
        assert main(["morph", "--mu", "0", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error:") and named in lines[0]

    def test_non_object_section_rejected(self, tmp_path):
        path = write_config(tmp_path, truncation=["energy"])
        with pytest.raises(ArtifactError, match="truncation must be a JSON object"):
            load_pipeline_config(path)


def with_entry(**values):
    """``FFD`` with its one map entry changed."""
    entry = {**FFD["parameters"]["entries"][0], **values}
    return {**FFD, "parameters": {"dim": 1, "entries": [entry]}}


# JSON values of the wrong type or out of range: each would be coerced, or
# pass a constructor and fail mid-stage.
BAD_VALUES = {
    "seed_float": ({"sampling": {"seed": 1.5}}, "sampling.seed must be an integer, got 1.5"),
    "n_train_float": (
        {"sampling": {"n_train": 30.7}}, "sampling.n_train must be an integer, got 30.7"
    ),
    "n_train_bool": (
        {"sampling": {"n_train": True}}, "sampling.n_train must be an integer, got True"
    ),
    "r2_string": (
        {"reduction": {"r2_threshold": "0.9"}},
        "reduction.r2_threshold must be a number, got '0.9'",
    ),
    "max_vertices_string": (
        {"reduction": {"max_vertices": "4"}},
        "reduction.max_vertices must be an integer or null, got '4'",
    ),
    "epsilon_string": ({"rom": {"epsilon": "2"}}, "rom.epsilon must be a number or null, got '2'"),
    "starts_string": (
        {"optimizer": {"starts": "8"}}, "optimizer.starts must be an integer, got '8'"
    ),
    "fixed_float": (
        {"truncation": {"solution": {"fixed": 2.5}}},
        "truncation.solution.fixed must be an integer, got 2.5",
    ),
    "energy_string": (
        {"truncation": {"geometry": {"energy": "0.9"}}},
        "truncation.geometry.energy must be a number, got '0.9'",
    ),
    "weld_string": ({"weld_tolerance": "1e-6"}, "weld_tolerance must be a number, got '1e-6'"),
    # The ffd and stub sections follow the same rule.
    "ffd_dims": (
        {"ffd": {**FFD, "dims": [2.7, True, "2"]}},
        "ffd.dims must be three integers, got [2.7, True, '2']",
    ),
    "ffd_entry_param": (
        {"ffd": with_entry(param=0.9)},
        "ffd.parameters.entries[0].param must be an integer, got 0.9",
    ),
    "ffd_entry_point": (
        {"ffd": with_entry(point=[1, 1, 1.5])},
        "ffd.parameters.entries[0].point must be three integers, got [1, 1, 1.5]",
    ),
    "ffd_entry_weight": (
        {"ffd": with_entry(weight="1")},
        "ffd.parameters.entries[0].weight must be a number, got '1'",
    ),
    "ffd_bound_string": (
        {"ffd": {**FFD, "bounds": {"lower": ["-0.3"], "upper": [0.1]}}},
        "ffd.bounds.lower must be an array of numbers, got ['-0.3']",
    ),
    "stub_amplitude": ({"stub": {"amplitude": "2"}}, "stub.amplitude must be a number, got '2'"),
    "stub_frequency": (
        {"stub": {"frequency": ["3", 2, 1]}},
        "stub.frequency must be three numbers, got ['3', 2, 1]",
    ),
    "stub_target": (
        {"stub": {"mode": "quadratic-centroid", "target": [True, 0, "0"]}},
        "stub.target must be three numbers, got [True, 0, '0']",
    ),
    # Numbers are finite: JSON NaN and Infinity parse, and are refused.
    "ffd_bound_nan": (
        {"ffd": {**FFD, "bounds": {"lower": [float("nan")], "upper": [0.1]}}},
        "ffd.bounds.lower must be an array of numbers, got [nan]",
    ),
    "epsilon_infinite": (
        {"rom": {"epsilon": float("inf")}}, "rom.epsilon must be a number or null, got inf"
    ),
    # Values a stage would refuse only after it has worked, or never.
    "max_vertices_2": (
        {"reduction": {"max_vertices": 2}},
        "reduction.max_vertices must be at least 3 or null, got 2",
    ),
    "r2_above_1": (
        {"reduction": {"r2_threshold": 1.5}},
        "reduction.r2_threshold must be in (0, 1], got 1.5",
    ),
    "starts_0": ({"optimizer": {"starts": 0}}, "optimizer.starts must be at least 1, got 0"),
    "budget_0": ({"optimizer": {"budget": 0}}, "optimizer.budget must be at least 3, got 0"),
    "kernel_cubic": (
        {"rom": {"kernel": "cubic"}},
        "rom.kernel must be one of gaussian, thin-plate, linear-rbf, got 'cubic'",
    ),
    "epsilon_negative": (
        {"rom": {"epsilon": -1.0}}, "rom.epsilon must be above 0 or null, got -1.0"
    ),
    "seed_negative": ({"sampling": {"seed": -1}}, "sampling.seed must be non-negative, got -1"),
    # The FFD map rules: dim at least 1, param below dim, axis 0-2, point
    # inside the lattice.
    "ffd_dim_0": (
        {"ffd": {**FFD, "parameters": {**FFD["parameters"], "dim": 0}}},
        "param_dim must be >= 1",
    ),
    "ffd_entry_param_at_dim": ({"ffd": with_entry(param=1)}, "parameter index 1 outside 0..0"),
    "ffd_entry_axis_3": ({"ffd": with_entry(axis=3)}, "axis must be 0, 1 or 2, got 3"),
    "ffd_entry_point_outside": (
        {"ffd": with_entry(point=[2, 1, 1])}, "control point (2, 1, 1) outside lattice (1, 1, 1)"
    ),
    # One training geometry passed the load and failed after the weld.
    "n_train_1": ({"sampling": {"n_train": 1}}, "sampling.n_train must be at least 2, got 1"),
    "n_full_0": ({"sampling": {"n_full": 0}}, "sampling.n_full must be at least 1, got 0"),
    "n_reduced_0": (
        {"sampling": {"n_reduced": 0}}, "sampling.n_reduced must be at least 1, got 0"
    ),
    "optimizer_seed_negative": (
        {"optimizer": {"seed": -5}}, "optimizer.seed must be non-negative or null, got -5"
    ),
    # Failed only inside the weld, without naming the field; evaluate
    # --sampling reduced and optimize --objective stub weld nothing.
    "weld_negative": (
        {"weld_tolerance": -1}, "weld_tolerance must be non-negative or null, got -1"
    ),
    "weld_tiny_negative": (
        {"weld_tolerance": -1e-300},
        "weld_tolerance must be non-negative or null, got -1e-300",
    ),
}

PAIR = "reduction.pair must be two distinct coefficient indices or null, got "
BAD_PAIRS = {
    "three": ([0, 1, 2], PAIR + "[0, 1, 2]"),
    "one": ([1], PAIR + "[1]"),
    "repeated": ([1, 1], PAIR + "[1, 1]"),
    "negative": ([-1, 0], PAIR + "[-1, 0]"),
    "float": ([0, 1.0], PAIR + "[0, 1.0]"),
    "bool": ([True, 0], PAIR + "[True, 0]"),
    "string": ("01", PAIR + "'01'"),
}


class TestValueTypes:
    @pytest.mark.parametrize(
        "case", sorted(BAD_VALUES) + [f"pair_{name}" for name in sorted(BAD_PAIRS)]
    )
    def test_cli_exits_with_one_line_before_any_work(self, tmp_path, capsys, case):
        if case.startswith("pair_"):
            pair, reason = BAD_PAIRS[case[len("pair_"):]]
            sections = {"reduction": {"pair": pair}}
        else:
            sections, reason = BAD_VALUES[case]
        path = write_config(tmp_path, output_dir="out", **sections)
        assert main(["build-manifold", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: invalid configuration ({reason})\n"
        assert not (tmp_path / "out").exists()

    def test_valid_values_load_unchanged(self, tmp_path):
        path = write_config(
            tmp_path,
            weld_tolerance=0,
            sampling={"seed": 4, "n_train": 30},
            reduction={"r2_threshold": 1, "max_vertices": None, "pair": [2, 0]},
            rom={"kernel": "thin-plate", "epsilon": 2},
            optimizer={"starts": 8, "seed": None},
            ffd=with_entry(weight=1),
            stub={"mode": "quadratic-centroid", "frequency": [3, 2, 1], "amplitude": 2,
                  "target": [0, 0.5, 1], "region": {"lower": [0, 0, 0], "upper": [1, 2, 3]}},
        )
        cfg = load_pipeline_config(path)
        assert cfg.weld_tolerance == 0.0
        assert (cfg.sampling.seed, cfg.sampling.n_train) == (4, 30)
        assert cfg.reduction.pair == (2, 0)
        assert cfg.reduction.max_vertices is None
        assert cfg.rom.epsilon == 2
        assert cfg.optimizer_seed == 7
        assert cfg.ffd.dims == (1, 1, 1)
        assert cfg.ffd.entries == (MapEntry(0, (1, 1, 1), 0, 1),)
        np.testing.assert_array_equal(cfg.ffd.bounds, [[-0.1, 0.1]])
        assert (cfg.stub.frequency, cfg.stub.amplitude) == ((3, 2, 1), 2)
        assert cfg.stub.target == (0, 0.5, 1)
        np.testing.assert_array_equal(cfg.stub.region, [[0, 1], [0, 2], [0, 3]])
