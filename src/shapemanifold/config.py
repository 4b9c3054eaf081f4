"""Pipeline configuration: one JSON document driving every CLI stage.

Paths are resolved relative to the directory containing the config file.
All numeric settings have defaults; only the reference geometry path is
mandatory. Every JSON value the package takes in, here and from the JSON
artifacts, is read by :func:`_read` as its field's annotation says.
"""

from __future__ import annotations

import json
import sys
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import ffd as ffd_mod
from . import solver
from .errors import ArtifactError
from .pod import TruncationRule
from .rom import _KERNELS


def _check(ok: bool, name: str, rule: str, value):
    if not ok:
        raise ValueError(f"{name} must be {rule}, got {value!r}")


@dataclass
class SamplingConfig:
    n_train: int = 1500
    n_full: int = 100
    n_reduced: int = 80
    seed: int = 0

    def __post_init__(self):
        # build_geometry_pod needs two training geometries.
        _check(self.n_train >= 2, "sampling.n_train", "at least 2", self.n_train)
        _check(self.n_full >= 1, "sampling.n_full", "at least 1", self.n_full)
        _check(self.n_reduced >= 1, "sampling.n_reduced", "at least 1", self.n_reduced)
        _check(self.seed >= 0, "sampling.seed", "non-negative", self.seed)


@dataclass
class ReductionConfig:
    r2_threshold: float = 0.99
    max_vertices: int | None = 4
    pair: tuple[int, int] | None = None

    def __post_init__(self):
        _check(0 < self.r2_threshold <= 1, "reduction.r2_threshold", "in (0, 1]",
               self.r2_threshold)
        _check(self.max_vertices is None or self.max_vertices >= 3,
               "reduction.max_vertices", "at least 3 or null", self.max_vertices)
        pair = self.pair
        _check(pair is None or (pair[0] != pair[1] and min(pair) >= 0), "reduction.pair",
               "two distinct coefficient indices or null", pair and list(pair))


@dataclass
class RomConfig:
    kernel: str = "gaussian"
    epsilon: float | None = None

    def __post_init__(self):
        _check(self.kernel in _KERNELS, "rom.kernel", f"one of {', '.join(_KERNELS)}",
               self.kernel)
        _check(self.epsilon is None or self.epsilon > 0, "rom.epsilon", "above 0 or null",
               self.epsilon)


@dataclass
class OptimizerConfig:
    starts: int = 8
    budget: int = 200
    seed: int | None = None  # falls back to sampling seed + 3

    def __post_init__(self):
        _check(self.starts >= 1, "optimizer.starts", "at least 1", self.starts)
        # One simplex in the smallest reduced space (d = 1) takes d + 2 evaluations.
        _check(self.budget >= 3, "optimizer.budget", "at least 3", self.budget)
        _check(self.seed is None or self.seed >= 0, "optimizer.seed", "non-negative or null",
               self.seed)


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


_TOP_KEYS = ("reference_stl", "output_dir", "weld_tolerance", "ffd", "truncation",
             "sampling", "reduction", "rom", "optimizer", "stub")


def _check_keys(data, allowed, section: str):
    if not isinstance(data, dict):
        raise ValueError(f"{section} must be a JSON object")
    unknown = [key for key in data if key not in allowed]
    if unknown:
        raise ValueError(f"unknown {section} key {unknown[0]!r}")


def _of(*types):
    return lambda v: type(v) in types


def _number(v) -> bool:
    # Finite, and within the double range as a JSON integer too.
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


def _array(v) -> bool:
    return type(v) is list and all(_number(x) or _array(x) for x in v)


def _list(item, length=None):
    return lambda v: type(v) is list and length in (None, len(v)) and all(map(item, v))


# What each annotated field type admits of a JSON value, and how it reads in
# a message. ``type(v) is int`` refuses a JSON true, and 1.5 is not an int; a
# number is finite, and a string is never one. Nothing is coerced.
_KINDS = {
    "int": (_of(int), "an integer"),
    "float": (_number, "a number"),
    "str": (_of(str), "a string"),
    "dict": (_of(dict), "a JSON object"),
    "None": (_of(type(None)), "null"),
    "tuple[int, ...]": (_list(_of(int)), "a list of integers"),
    # A coefficient pair: ReductionConfig checks that the two differ.
    "tuple[int, int]": (_list(_of(int), 2), "two distinct coefficient indices"),
    "tuple[int, int, int]": (_list(_of(int), 3), "three integers"),
    "tuple[float, float, float]": (_list(_number, 3), "three numbers"),
    "np.ndarray": (_array, "an array of numbers"),
}


def _read(value, annotation: str, name: str):
    """``value`` as a field annotated ``annotation`` holds it (a list as a
    tuple or a float array), or a ``ValueError`` naming ``name``."""
    kinds = annotation.split(" | ")
    for kind in kinds:
        if _KINDS[kind][0](value):
            if kind == "np.ndarray":
                return np.array(value, dtype=float)
            return tuple(value) if kind.startswith("tuple") else value
    wanted = " or ".join(_KINDS[kind][1] for kind in kinds)
    raise ValueError(f"{name} must be {wanted}, got {value!r}")


def _section(cls, data, section: str, **readers):
    """The dataclass ``cls`` from its JSON object ``data``, whose keys are
    fields read by annotation (or by ``readers[field](value, name)``)."""
    _check_keys(data, [f.name for f in fields(cls)], section)
    values = {}
    for f in fields(cls):
        if f.name in data:
            read = readers.get(f.name, lambda v, name: _read(v, f.type, name))
            values[f.name] = read(data[f.name], f"{section}.{f.name}")
        elif f.default is MISSING and f.default_factory is MISSING:
            raise KeyError(f.name)
    return cls(**values)


def _box(data, section: str) -> np.ndarray:
    """A ``{"lower": [...], "upper": [...]}`` object as (lower, upper) rows."""
    _check_keys(data, ("lower", "upper"), section)
    return np.column_stack(
        [_read(data[key], "np.ndarray", f"{section}.{key}") for key in ("lower", "upper")]
    )


def _ffd_from_dict(data) -> ffd_mod.FfdConfig:
    _check_keys(data, ("origin", "axes", "dims", "parameters", "bounds"), "ffd")
    params = data["parameters"]
    _check_keys(params, ("dim", "entries"), "ffd.parameters")
    entries = [_section(ffd_mod.MapEntry, entry, f"ffd.parameters.entries[{i}]")
               for i, entry in enumerate(params["entries"])]
    return ffd_mod.FfdConfig(
        _read(data["origin"], "np.ndarray", "ffd.origin"),
        _read(data["axes"], "np.ndarray", "ffd.axes"),
        _read(data["dims"], "tuple[int, int, int]", "ffd.dims"),
        entries,
        _read(params["dim"], "int", "ffd.parameters.dim"),
        _box(data["bounds"], "ffd.bounds"),
    )


def _truncation_from_dict(trunc: dict, name: str) -> TruncationRule:
    section = f"truncation.{name}"
    data = trunc[name]
    _check_keys(data, ("fixed", "energy"), section)
    if len(data) != 1:
        raise ValueError(f"{section} must set exactly one of 'fixed' and 'energy'")
    if "fixed" in data:
        return TruncationRule.fixed(_read(data["fixed"], "int", f"{section}.fixed"))
    return TruncationRule.energy(_read(data["energy"], "float", f"{section}.energy"))


def load_pipeline_config(
    path, out_override=None, seed_override: int | None = None
) -> PipelineConfig:
    """Parse a pipeline JSON file, applying CLI overrides."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ArtifactError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict) or "reference_stl" not in data:
        raise ArtifactError(f"{path}: config must set 'reference_stl'")
    base = path.resolve().parent

    try:
        _check_keys(data, _TOP_KEYS, "top-level")
        reference_stl = _read(data["reference_stl"], "str", "reference_stl")
        if not reference_stl:
            raise ValueError("reference_stl is empty; give a path")
        cfg = PipelineConfig(reference_stl=base / reference_stl)
        if "output_dir" in data:
            output_dir = _read(data["output_dir"], "str", "output_dir")
            if not output_dir:
                raise ValueError("output_dir is empty; give a path or leave the key out")
            cfg.output_dir = base / output_dir
        if data.get("weld_tolerance") is not None:
            cfg.weld_tolerance = _read(data["weld_tolerance"], "float", "weld_tolerance")
            _check(cfg.weld_tolerance >= 0, "weld_tolerance", "non-negative or null",
                   cfg.weld_tolerance)
        if data.get("ffd") is not None:
            cfg.ffd = _ffd_from_dict(data["ffd"])
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
        if "stub" in data:
            cfg.stub = _section(solver.StubConfig, data["stub"], "stub",
                                region=lambda v, name: None if v is None else _box(v, name))
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(f"{path}: invalid configuration ({exc})") from exc

    if out_override is not None:
        cfg.output_dir = Path(out_override)
    if seed_override is not None:
        cfg.sampling = replace(cfg.sampling, seed=seed_override)
    return cfg
