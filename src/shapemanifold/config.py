"""Pipeline configuration: one JSON document driving every CLI stage.

Paths are resolved relative to the directory containing the config file.
All numeric settings have defaults; only the reference geometry path is
mandatory.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path

from . import ffd as ffd_mod
from . import solver
from .errors import ArtifactError
from .pod import TruncationRule


@dataclass
class SamplingConfig:
    n_train: int = 1500
    n_full: int = 100
    n_reduced: int = 80
    seed: int = 0

    def __post_init__(self):
        if min(self.n_train, self.n_full, self.n_reduced) < 1:
            raise ValueError("sample counts must be >= 1")


@dataclass
class ReductionConfig:
    r2_threshold: float = 0.99
    max_vertices: int | None = 4
    pair: tuple[int, int] | None = None
    polygon_uses_regressed: bool = True


@dataclass
class RomConfig:
    kernel: str = "gaussian"
    epsilon: float | None = None


@dataclass
class OptimizerConfig:
    starts: int = 8
    budget: int = 200
    seed: int | None = None  # falls back to sampling seed + 3


@dataclass
class PipelineConfig:
    reference_stl: Path
    output_dir: Path = Path("out")
    weld_tolerance: float | None = None  # None: scale-relative default
    ffd: ffd_mod.FfdConfig | None = None  # None: built-in lattice over the mesh
    geometry_truncation: TruncationRule = field(
        default_factory=lambda: TruncationRule.energy(0.9999)
    )
    solution_truncation: TruncationRule = field(
        default_factory=lambda: TruncationRule.energy(0.9999)
    )
    sampling: SamplingConfig = field(default_factory=SamplingConfig)
    reduction: ReductionConfig = field(default_factory=ReductionConfig)
    rom: RomConfig = field(default_factory=RomConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    stub: solver.StubConfig = field(default_factory=solver.StubConfig)

    @property
    def optimizer_seed(self) -> int:
        if self.optimizer.seed is not None:
            return self.optimizer.seed
        return self.sampling.seed + 3


# The keys the sections read by hand may set; a dataclass section allows
# its fields (see ``_section``), and the stub section's constructor rejects
# unknown keys.
_TOP_KEYS = ("reference_stl", "output_dir", "weld_tolerance", "ffd", "truncation",
             "sampling", "reduction", "rom", "optimizer", "stub")
_FFD_KEYS = ("origin", "axes", "dims", "parameters", "bounds")
_FFD_ENTRY_KEYS = ("param", "point", "axis", "weight")


def _check_keys(data, allowed, section: str):
    if not isinstance(data, dict):
        raise ValueError(f"{section} must be a JSON object")
    unknown = [key for key in data if key not in allowed]
    if unknown:
        raise ValueError(f"unknown {section} key {unknown[0]!r}")


def _check_ffd_keys(data):
    _check_keys(data, _FFD_KEYS, "ffd")
    _check_keys(data["parameters"], ("dim", "entries"), "ffd.parameters")
    for i, entry in enumerate(data["parameters"]["entries"]):
        _check_keys(entry, _FFD_ENTRY_KEYS, f"ffd.parameters.entries[{i}]")
    _check_keys(data["bounds"], ("lower", "upper"), "ffd.bounds")


# What each annotated field type admits of a JSON value, and how it reads in
# a message. ``type(v) is int`` refuses a JSON true, and 1.5 is not an int:
# nothing is coerced.
_JSON_TYPES = {
    "int": (lambda v: type(v) is int, "an integer"),
    "float": (lambda v: type(v) in (int, float), "a number"),
    "bool": (lambda v: type(v) is bool, "true or false"),
    "str": (lambda v: type(v) is str, "a string"),
    "None": (lambda v: v is None, "null"),
    "tuple[int, int]": (lambda v: type(v) is list and len(v) == 2 and v[0] != v[1]
                        and all(type(i) is int and i >= 0 for i in v),
                        "two distinct coefficient indices"),
}


def _check_type(value, annotation: str, name: str):
    kinds = annotation.split(" | ")
    if not any(_JSON_TYPES[kind][0](value) for kind in kinds):
        wanted = " or ".join(_JSON_TYPES[kind][1] for kind in kinds)
        raise ValueError(f"{name} must be {wanted}, got {value!r}")


def _section(cls, data, section: str):
    """The dataclass ``cls`` from its JSON section, whose keys must be its
    fields and whose values must be of the types their annotations name."""
    _check_keys(data, [f.name for f in fields(cls)], section)
    for f in fields(cls):
        if f.name in data:
            _check_type(data[f.name], f.type, f"{section}.{f.name}")
    return cls(**data)


def _truncation_from_dict(trunc: dict, name: str) -> TruncationRule:
    section = f"truncation.{name}"
    data = trunc[name]
    _check_keys(data, ("fixed", "energy"), section)
    if len(data) != 1:
        raise ValueError(f"{section} must set exactly one of 'fixed' and 'energy'")
    if "fixed" in data:
        _check_type(data["fixed"], "int", f"{section}.fixed")
        return TruncationRule.fixed(data["fixed"])
    _check_type(data["energy"], "float", f"{section}.energy")
    return TruncationRule.energy(float(data["energy"]))


def load_pipeline_config(
    path, out_override=None, seed_override: int | None = None
) -> PipelineConfig:
    """Parse a pipeline JSON file, applying CLI overrides."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict) or "reference_stl" not in data:
        raise ArtifactError(f"{path}: config must set 'reference_stl'")
    base = path.resolve().parent

    try:
        _check_keys(data, _TOP_KEYS, "top-level")
        cfg = PipelineConfig(reference_stl=(base / data["reference_stl"]))
        if "output_dir" in data:
            cfg.output_dir = base / data["output_dir"]
        if data.get("weld_tolerance") is not None:
            _check_type(data["weld_tolerance"], "float", "weld_tolerance")
            cfg.weld_tolerance = float(data["weld_tolerance"])
        if data.get("ffd") is not None:
            _check_ffd_keys(data["ffd"])
            cfg.ffd = ffd_mod.config_from_dict(data["ffd"])
        trunc = data.get("truncation", {})
        _check_keys(trunc, ("geometry", "solution"), "truncation")
        if "geometry" in trunc:
            cfg.geometry_truncation = _truncation_from_dict(trunc, "geometry")
        if "solution" in trunc:
            cfg.solution_truncation = _truncation_from_dict(trunc, "solution")
        for name, cls in (("sampling", SamplingConfig), ("reduction", ReductionConfig),
                          ("rom", RomConfig), ("optimizer", OptimizerConfig)):
            if name in data:
                setattr(cfg, name, _section(cls, data[name], name))
        if cfg.reduction.pair is not None:
            cfg.reduction.pair = tuple(cfg.reduction.pair)
        if "stub" in data:
            cfg.stub = solver.stub_from_dict(data["stub"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(f"{path}: invalid configuration ({exc})") from exc

    if out_override is not None:
        cfg.output_dir = Path(out_override)
    if seed_override is not None:
        cfg.sampling.seed = seed_override
    return cfg
