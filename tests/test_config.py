import json

import pytest

from shapemanifold.cli import main
from shapemanifold.config import load_pipeline_config
from shapemanifold.errors import ArtifactError


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
