"""Versioned on-disk artifact formats.

Binary artifacts carry an eight-byte magic string, a little-endian uint32
version, and little-endian 64-bit floats; anything plottable goes to CSV.
Readers reject unknown magic strings and versions instead of misreading.
Every file is written atomically through :func:`write_atomic`, so an
interrupted run leaves either the previous file or the new one, never a
partial artifact.
"""

from __future__ import annotations

import json
import os
import struct
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .errors import ArtifactError, EmptyDatabase
from .manifold import (
    Dependency,
    DependencyModel,
    FeasiblePolygon,
    ReducedSpace,
)
from .pod import PodBasis
from .rom import Interpolator, RomModel, SolutionDatabase

_MAGIC_BASIS = b"SMPODBAS"
_MAGIC_VECTOR = b"SMVECTOR"
_VERSION = 1

JSON_FORMATS = {
    "space": "shapemanifold/reduced-space",
    "rom": "shapemanifold/rom-interpolators",
    "validation": "shapemanifold/loo-validation",
}


def write_atomic(path, chunks):
    """Write the byte chunks to a temporary file beside ``path`` and rename
    it over ``path``; on any failure the temporary file is removed and
    ``path`` is untouched."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    handle = open(tmp, "xb")
    try:
        with handle:
            for chunk in chunks:
                handle.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _header(magic: bytes) -> bytes:
    return magic + struct.pack("<I", _VERSION)


def _check_header(handle, magic: bytes, path):
    head = handle.read(len(magic) + 4)
    if len(head) < len(magic) + 4 or head[: len(magic)] != magic:
        raise ArtifactError(f"{path}: bad magic string, not a {magic.decode()} artifact")
    (version,) = struct.unpack("<I", head[len(magic):])
    if version != _VERSION:
        raise ArtifactError(f"{path}: unsupported version {version}")


def save_pod_basis(path, basis: PodBasis):
    """Binary layout: magic, version, N, r, modes (column-major), sigma, center."""
    write_atomic(path, [
        _header(_MAGIC_BASIS),
        struct.pack("<QQ", basis.state_dim, basis.rank),
        np.asarray(basis.modes, dtype="<f8").tobytes(order="F"),
        np.asarray(basis.singular_values, dtype="<f8").tobytes(),
        np.asarray(basis.center, dtype="<f8").tobytes(),
    ])


def load_pod_basis(path) -> PodBasis:
    path = Path(path)
    with open(path, "rb") as handle:
        _check_header(handle, _MAGIC_BASIS, path)
        raw = handle.read(16)
        if len(raw) < 16:
            raise ArtifactError(f"{path}: truncated header")
        n, r = struct.unpack("<QQ", raw)
        body = handle.read()
    expected = 8 * (n * r + r + n)
    if len(body) != expected:
        raise ArtifactError(
            f"{path}: payload is {len(body)} bytes, expected {expected}"
        )
    data = np.frombuffer(body, dtype="<f8")
    modes = data[: n * r].reshape((n, r), order="F")
    sigma = data[n * r : n * r + r]
    center = data[n * r + r :]
    try:
        return PodBasis(modes.copy(), sigma.copy(), center.copy())
    except ValueError as exc:
        raise ArtifactError(f"{path}: corrupt basis payload ({exc})") from exc


def save_vector(path, values: np.ndarray):
    """Binary layout: magic, version, length, float64 payload."""
    values = np.asarray(values, dtype=float).reshape(-1)
    write_atomic(path, [
        _header(_MAGIC_VECTOR),
        struct.pack("<Q", values.size),
        values.astype("<f8").tobytes(),
    ])


def load_vector(path) -> np.ndarray:
    path = Path(path)
    with open(path, "rb") as handle:
        _check_header(handle, _MAGIC_VECTOR, path)
        raw = handle.read(8)
        if len(raw) < 8:
            raise ArtifactError(f"{path}: truncated header")
        (size,) = struct.unpack("<Q", raw)
        body = handle.read()
    if len(body) != 8 * size:
        raise ArtifactError(f"{path}: payload is {len(body)} bytes, expected {8 * size}")
    return np.frombuffer(body, dtype="<f8").copy()


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_lines(path, lines):
    write_atomic(path, [("\n".join(lines) + "\n").encode()])


def save_decay_csv(path, report: np.ndarray):
    """Decay table rows as emitted by the mode-decay report."""
    lines = ["index,sigma,ratio,cumulative_energy"]
    for row in np.atleast_2d(report):
        lines.append(
            f"{int(row[0])},{_fmt(row[1])},{_fmt(row[2])},{_fmt(row[3])}"
        )
    _write_lines(path, lines)


def save_coefficients_csv(path, alpha: np.ndarray):
    """Training coefficient scatter, one row per sample."""
    alpha = np.atleast_2d(alpha)
    header = ",".join(f"alpha{i + 1}" for i in range(alpha.shape[1]))
    lines = [header]
    for row in alpha:
        lines.append(",".join(_fmt(v) for v in row))
    _write_lines(path, lines)


def save_trace_csv(path, traces):
    """Optimizer evaluations: start,iter,mu...,value."""
    dim = len(traces[0][0][0]) if traces and traces[0] else 0
    header = "start,iter," + ",".join(f"mu{i}" for i in range(dim)) + ",value"
    lines = [header]
    for start, trace in enumerate(traces):
        for it, (mu, value) in enumerate(trace):
            mu_cols = ",".join(_fmt(v) for v in mu)
            lines.append(f"{start},{it},{mu_cols},{_fmt(value)}")
    _write_lines(path, lines)


def _load_json(path, expected_format: str) -> dict:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ArtifactError(f"{path}: not a JSON document ({exc})") from exc
    if not isinstance(data, dict) or data.get("format") != expected_format:
        raise ArtifactError(f"{path}: expected a {expected_format} document")
    if data.get("version") != _VERSION:
        raise ArtifactError(f"{path}: unsupported version {data.get('version')}")
    return data


@contextmanager
def _fields_of(path):
    """Report a missing or mistyped field of the JSON document at ``path``."""
    try:
        yield
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ArtifactError(f"{path}: missing or malformed field ({exc!r})") from exc


def save_reduced_space(directory, space: ReducedSpace):
    """Directory artifact: space.json plus geometry_basis.bin."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_pod_basis(directory / "geometry_basis.bin", space.basis)
    doc = {
        "format": JSON_FORMATS["space"],
        "version": _VERSION,
        "free_indices": list(space.free_indices),
        "dependencies": [
            None if s is None else asdict(s) for s in space.dependencies.status
        ],
        "polygon": None
        if space.polygon is None
        else {
            "axes": list(space.polygon.axes),
            "vertices": space.polygon.vertices.tolist(),
        },
        "bounding_box": space.bounding_box.tolist(),
        "polygon_uses_regressed": space.polygon_uses_regressed,
    }
    _write_lines(directory / "space.json", [json.dumps(doc, indent=1)])


def load_reduced_space(directory) -> ReducedSpace:
    directory = Path(directory)
    path = directory / "space.json"
    doc = _load_json(path, JSON_FORMATS["space"])
    basis = load_pod_basis(directory / "geometry_basis.bin")
    with _fields_of(path):
        status = []
        for entry in doc["dependencies"]:
            if entry is None:
                status.append(None)
            else:
                status.append(
                    Dependency(
                        int(entry["source"]),
                        float(entry["slope"]),
                        float(entry["intercept"]),
                        float(entry["r2"]),
                    )
                )
        polygon = None
        if doc["polygon"] is not None:
            polygon = FeasiblePolygon(
                axes=tuple(doc["polygon"]["axes"]),
                vertices=np.asarray(doc["polygon"]["vertices"], dtype=float),
            )
        return ReducedSpace(
            basis=basis,
            dependencies=DependencyModel(tuple(status)),
            polygon=polygon,
            free_indices=tuple(doc["free_indices"]),
            bounding_box=np.asarray(doc["bounding_box"], dtype=float),
            polygon_uses_regressed=bool(doc["polygon_uses_regressed"]),
        )


def save_solution_database(directory, db: SolutionDatabase):
    """Directory artifact: index.csv plus one field vector per sample."""
    directory = Path(directory)
    fields_dir = directory / "fields"
    fields_dir.mkdir(parents=True, exist_ok=True)
    dim = db.params.shape[1]
    header = "sample_id," + ",".join(f"mu{i}" for i in range(dim)) + ",objective"
    lines = [header]
    for i in range(db.count):
        save_vector(fields_dir / f"sample_{i:05d}.bin", db.fields[i])
        mu_cols = ",".join(_fmt(v) for v in db.params[i])
        lines.append(f"{i},{mu_cols},{_fmt(db.objectives[i])}")
    _write_lines(directory / "index.csv", lines)  # last: marks the database complete


def load_solution_database(directory) -> SolutionDatabase:
    directory = Path(directory)
    index = directory / "index.csv"
    if not index.exists():
        raise ArtifactError(f"{index}: missing database index")
    lines = index.read_text().strip().splitlines()
    if len(lines) < 2:
        raise EmptyDatabase(f"{index}: no samples recorded")
    header = lines[0].split(",")
    if header[0] != "sample_id" or header[-1] != "objective":
        raise ArtifactError(f"{index}: unexpected column layout")
    params, objectives, fields = [], [], []
    for number, line in enumerate(lines[1:], start=2):
        cols = line.split(",")
        try:
            if len(cols) != len(header):
                raise ValueError(f"{len(cols)} columns, the header has {len(header)}")
            sample_id = int(cols[0])
            if sample_id != number - 2:
                raise ValueError(f"sample_id {sample_id}, expected {number - 2}")
            values = [float(c) for c in cols[1:]]
        except ValueError as exc:
            raise ArtifactError(f"{index}: line {number}: malformed row ({exc})") from exc
        params.append(values[:-1])
        objectives.append(values[-1])
        fields.append(load_vector(directory / "fields" / f"sample_{sample_id:05d}.bin"))
    return SolutionDatabase(
        np.asarray(params), np.asarray(fields), np.asarray(objectives)
    )


def _interp_to_dict(interp: Interpolator) -> dict:
    return {
        "kernel": interp.kernel,
        "epsilon": interp.epsilon,
        "weights": interp.weights.tolist(),
        "tail": None if interp.tail is None else interp.tail.tolist(),
    }


def _interp_from_dict(data: dict, nodes: np.ndarray) -> Interpolator:
    weights = np.asarray(data["weights"], dtype=float)
    if weights.ndim == 1:  # one output stored as a flat list
        weights = weights[:, None]
    return Interpolator(
        kernel=data["kernel"],
        epsilon=float(data["epsilon"]),
        nodes=nodes,
        weights=weights,
        tail=None if data["tail"] is None else np.asarray(data["tail"], dtype=float),
    )


def save_rom(directory, model: RomModel):
    """Directory artifact: solution_basis.bin plus interpolators.json."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_pod_basis(directory / "solution_basis.bin", model.basis)
    doc = {
        "format": JSON_FORMATS["rom"],
        "version": _VERSION,
        "nodes": model.coefficients.nodes.tolist(),
        "coefficients": _interp_to_dict(model.coefficients),
        "objective": _interp_to_dict(model.objective),
        "objective_mean": model.objective_mean,
        "metadata": model.metadata,
    }
    _write_lines(directory / "interpolators.json", [json.dumps(doc, indent=1)])


def load_rom(directory) -> RomModel:
    directory = Path(directory)
    path = directory / "interpolators.json"
    doc = _load_json(path, JSON_FORMATS["rom"])
    basis = load_pod_basis(directory / "solution_basis.bin")
    with _fields_of(path):
        nodes = np.asarray(doc["nodes"], dtype=float)
        return RomModel(
            basis=basis,
            coefficients=_interp_from_dict(doc["coefficients"], nodes),
            objective=_interp_from_dict(doc["objective"], nodes),
            objective_mean=float(doc["objective_mean"]),
            metadata=dict(doc.get("metadata", {})),
        )


def save_validation(path, errors: np.ndarray, summary: dict, kernel: str,
                    epsilon: float | None):
    """Leave-one-out report as ``rom.loo_error`` returns it: per-sample
    errors and their mean and max, plus the snapshot count, the kernel and
    the configured epsilon (null: each fold takes its own default)."""
    doc = {
        "format": JSON_FORMATS["validation"],
        "version": _VERSION,
        "snapshot_count": len(errors),
        "kernel": kernel,
        "epsilon": epsilon,
        "mean": summary["mean"],
        "max": summary["max"],
        "errors": np.asarray(errors, dtype=float).tolist(),
    }
    _write_lines(path, [json.dumps(doc, indent=1)])
