"""Versioned on-disk artifact formats.

Binary artifacts carry an eight-byte magic string, a little-endian uint32
version, and little-endian 64-bit floats; anything plottable goes to CSV.
Readers reject unknown magic strings and versions instead of misreading.
Every file is written atomically through :func:`write_atomic`, so an
interrupted run leaves either the previous file or the new one, never a
partial artifact. Each directory artifact writes last the file that its
loader reads first, and deletes that file before it rewrites the rest: an
interrupted rewrite leaves a directory the loader refuses, never new
payload beside an old index.
"""

from __future__ import annotations

import json
import os
import struct
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .config import _read, _section
from .errors import ArtifactError, DuplicateParams, EmptyDatabase
from .manifold import Dependency, FeasiblePolygon, ReducedSpace
from .mesh import parse_number
from .pod import PodBasis, _center
from .rom import Interpolator, RomModel, SolutionDatabase

_MAGIC_BASIS = b"SMPODBAS"
_MAGIC_VECTOR = b"SMVECTOR"
_MAGIC_MATRIX = b"SMMATRIX"
_VERSION = 1

JSON_FORMATS = {
    "space": "shapemanifold/reduced-space",
    "rom": "shapemanifold/rom-interpolators",
    "validation": "shapemanifold/loo-validation",
}


def write_atomic(path, chunks):
    """Write the chunks (bytes, or C-contiguous arrays written as their
    buffers) to a temporary file beside ``path``, creating its directory,
    and rename it over ``path``; on any failure the temporary file is
    removed and ``path`` is untouched."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
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


def _save_binary(path, magic: bytes, dims, *payload):
    """Binary layout: magic, version, the uint64 dimensions, then each
    payload array as little-endian float64 in C order. A C-contiguous
    float64 array is written from its own buffer, without a copy."""
    write_atomic(path, [
        magic + struct.pack("<I", _VERSION),
        struct.pack(f"<{len(dims)}Q", *dims),
        *(np.ascontiguousarray(a, dtype="<f8") for a in payload),
    ])


def _read_header(handle, path: Path, magic: bytes, ndim: int, count, rows: int | None = None):
    """Check the head of a :func:`_save_binary` artifact with ``ndim``
    dimensions, open as ``handle``: the magic string and version, then (with
    ``rows`` given) that the first dimension equals ``rows``, then that the
    payload is exactly ``count(*dims)`` floats. Returns the dimensions, with
    ``handle`` at the payload."""
    head = handle.read(len(magic) + 4)
    if len(head) < len(magic) + 4 or head[: len(magic)] != magic:
        raise ArtifactError(f"{path}: bad magic string, not a {magic.decode()} artifact")
    (version,) = struct.unpack("<I", head[len(magic):])
    if version != _VERSION:
        raise ArtifactError(f"{path}: unsupported version {version}")
    raw = handle.read(8 * ndim)
    if len(raw) < 8 * ndim:
        raise ArtifactError(f"{path}: truncated header")
    dims = struct.unpack(f"<{ndim}Q", raw)
    if rows is not None and dims[0] != rows:
        raise ArtifactError(f"{path}: {dims[0]} rows, the index has {rows}")
    expected = count(*dims)
    size = os.fstat(handle.fileno()).st_size - handle.tell()
    if size != 8 * expected:
        raise ArtifactError(f"{path}: payload is {size} bytes, expected {8 * expected}")
    return dims


def _load_binary(path: Path, magic: bytes, ndim: int, count):
    """Read a :func:`_save_binary` artifact that :func:`_read_header`
    accepts; one ``np.fromfile`` reads the payload. Returns the dimensions
    and the flat payload."""
    with open(path, "rb") as handle:
        dims = _read_header(handle, path, magic, ndim, count)
        return dims, np.fromfile(handle, dtype="<f8", count=count(*dims))


def save_pod_basis(path, basis: PodBasis):
    """Binary layout: magic, version, N, r, modes (column-major), sigma, center."""
    _save_binary(
        path, _MAGIC_BASIS, (basis.state_dim, basis.rank),
        basis.modes.T, basis.singular_values, basis.center,
    )


def load_pod_basis(path) -> PodBasis:
    path = Path(path)
    (n, r), data = _load_binary(path, _MAGIC_BASIS, 2, lambda n, r: n * r + r + n)
    # copy() lays the modes out in C order: predict's ``modes @ alpha``, and so
    # prediction.bin, round by that layout.
    modes = data[: n * r].reshape((n, r), order="F").copy()
    try:
        return PodBasis(modes, data[n * r : n * r + r].copy(), data[n * r + r :].copy())
    except ValueError as exc:
        raise ArtifactError(f"{path}: corrupt basis payload ({exc})") from exc


def save_vector(path, values: np.ndarray):
    """Binary layout: magic, version, length, float64 payload."""
    values = np.asarray(values, dtype=float).reshape(-1)
    _save_binary(path, _MAGIC_VECTOR, (values.size,), values)


def load_vector(path) -> np.ndarray:
    return _load_binary(Path(path), _MAGIC_VECTOR, 1, lambda size: size)[1]


def _write_lines(path, lines):
    write_atomic(path, [("\n".join(lines) + "\n").encode()])


def _cell(value) -> str:
    return "" if value is None else str(value) if type(value) is int else repr(float(value))


def save_csv(path, header, rows):
    """CSV artifact: the header names, then one line per row; a Python int
    is written as is, any other number as its float repr, None as an
    empty cell."""
    _write_lines(path, [",".join(header), *(",".join(map(_cell, row)) for row in rows)])


def save_decay_csv(path, report: np.ndarray):
    """Decay table rows as emitted by the mode-decay report."""
    save_csv(path, ["index", "sigma", "ratio", "cumulative_energy"],
             ([int(row[0]), *row[1:]] for row in np.atleast_2d(report)))


def save_coefficients_csv(path, alpha: np.ndarray):
    """Training coefficient scatter, one row per sample."""
    alpha = np.atleast_2d(alpha)
    save_csv(path, [f"alpha{i + 1}" for i in range(alpha.shape[1])], alpha)


def save_trace_csv(path, traces):
    """Optimizer evaluations: start,iter,mu...,value."""
    dim = len(traces[0][0][0]) if traces and traces[0] else 0
    save_csv(path, ["start", "iter", *(f"mu{i}" for i in range(dim)), "value"],
             ([start, it, *mu, value] for start, trace in enumerate(traces)
              for it, (mu, value) in enumerate(trace)))


def _save_json(path, kind: str, body: dict):
    """A JSON document of ``kind`` (a key of ``JSON_FORMATS``): its format
    and version, then the keys of ``body`` in order."""
    doc = {"format": JSON_FORMATS[kind], "version": _VERSION, **body}
    _write_lines(path, [json.dumps(doc, indent=1)])


def _load_json(path, kind: str) -> dict:
    path, expected_format = Path(path), JSON_FORMATS[kind]
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
    """Directory artifact: space.json, geometry_basis.bin and facets.bin, a
    matrix artifact of the reference facets' vertex indices."""
    directory = Path(directory)
    (directory / "space.json").unlink(missing_ok=True)  # written last
    save_pod_basis(directory / "geometry_basis.bin", space.basis)
    _save_binary(directory / "facets.bin", _MAGIC_MATRIX, space.facets.shape, space.facets)
    _save_json(directory / "space.json", "space", {
        "dependencies": [None if s is None else asdict(s) for s in space.dependencies],
        "polygon": None
        if space.polygon is None
        else {
            "axes": list(space.polygon.axes),
            "vertices": space.polygon.vertices.tolist(),
        },
        "bounding_box": space.bounding_box.tolist(),
    })


def load_reduced_space(directory) -> ReducedSpace:
    """A :func:`save_reduced_space` directory. Keys this version does not
    write, such as the ``free_indices`` of earlier versions, are ignored."""
    directory = Path(directory)
    path = directory / "space.json"
    doc = _load_json(path, "space")
    basis = load_pod_basis(directory / "geometry_basis.bin")
    if basis.state_dim % 3:
        raise ArtifactError(f"{directory / 'geometry_basis.bin'}: {basis.state_dim} "
                            "coordinates, not 3 per vertex")
    facets_path, count = directory / "facets.bin", basis.state_dim // 3
    if not facets_path.exists():
        raise ArtifactError(f"{facets_path}: missing; the manifold was written before "
                            "facets were stored, run build-manifold again")
    (_, cols), facets = _load_binary(facets_path, _MAGIC_MATRIX, 2, lambda r, c: r * c)
    if cols != 3 or not np.all((facets == np.floor(facets)) & (facets >= 0) & (facets < count)):
        raise ArtifactError(f"{facets_path}: not rows of 3 integer vertex indices below {count}")
    with _fields_of(path):
        dependencies = tuple(
            None if entry is None else _section(Dependency, entry, f"dependencies[{i}]")
            for i, entry in enumerate(doc["dependencies"])
        )
        polygon = doc["polygon"]
        if polygon is not None:
            # Any integers: FeasiblePolygon names axes that are not a pair.
            polygon = FeasiblePolygon(
                axes=_read(polygon["axes"], "tuple[int, ...]", "polygon.axes"),
                vertices=_read(polygon["vertices"], "np.ndarray", "polygon.vertices"),
            )
        return ReducedSpace(
            basis=basis,
            facets=facets.reshape(-1, 3),
            dependencies=dependencies,
            polygon=polygon,
            bounding_box=_read(doc["bounding_box"], "np.ndarray", "bounding_box"),
        )


def save_solution_database(directory, db: SolutionDatabase):
    """Directory artifact: index.csv plus fields.bin, a matrix artifact with
    one field per row in sample order."""
    directory = Path(directory)
    (directory / "index.csv").unlink(missing_ok=True)  # written last
    _save_binary(directory / "fields.bin", _MAGIC_MATRIX, db.fields.shape, db.fields)
    header = ["sample_id", *(f"mu{i}" for i in range(db.params.shape[1])), "objective"]
    rows = ([i, *db.params[i], db.objectives[i]] for i in range(db.count))
    save_csv(directory / "index.csv", header, rows)


def _read_index(directory: Path):
    """The parameter rows and objectives that a database's index.csv lists,
    and the path of its fields.bin, which must exist."""
    index = directory / "index.csv"
    if not index.exists():
        raise ArtifactError(f"{index}: missing database index")
    try:
        lines = index.read_text().strip().splitlines()
    except UnicodeDecodeError as exc:
        raise ArtifactError(f"{index}: not valid text ({exc})") from exc
    if len(lines) < 2:
        raise EmptyDatabase(f"{index}: no samples recorded")
    header = lines[0].split(",")
    if header[0] != "sample_id" or header[-1] != "objective":
        raise ArtifactError(f"{index}: unexpected column layout")
    params, objectives = [], []
    for number, line in enumerate(lines[1:], start=2):
        cols = line.split(",")
        try:
            if len(cols) != len(header):
                raise ValueError(f"{len(cols)} columns, the header has {len(header)}")
            # The number rule of mesh.parse_number: int, like float, also
            # reads digit-group underscores and non-ASCII digits.
            if not cols[0].isascii() or "_" in cols[0]:
                raise ValueError(f"invalid literal for int() with base 10: {cols[0]!r}")
            sample_id = int(cols[0])
            if sample_id != number - 2:
                raise ValueError(f"sample_id {sample_id}, expected {number - 2}")
            values = [parse_number(c) for c in cols[1:]]
        except ValueError as exc:
            raise ArtifactError(f"{index}: line {number}: malformed row ({exc})") from exc
        params.append(values[:-1])
        objectives.append(values[-1])
    path = directory / "fields.bin"
    if not path.exists():
        raise ArtifactError(f"{path}: missing solution fields")
    return np.asarray(params), np.asarray(objectives), path


def load_solution_database(directory) -> SolutionDatabase:
    """The database at ``directory``, the one reader of its fields.bin: each
    row is read into its column of one C-order V x n matrix, and ``fields``
    is that matrix's transposed view. A failed database check names the
    directory."""
    directory = Path(directory)
    params, objectives, path = _read_index(directory)
    with open(path, "rb") as handle:
        rows, cols = _read_header(handle, path, _MAGIC_MATRIX, 2, lambda r, c: r * c,
                                  rows=len(params))
        matrix, row = np.empty((cols, rows)), np.empty(cols, dtype="<f8")
        for i in range(rows):
            handle.readinto(row)
            matrix[:, i] = row
    try:
        return SolutionDatabase(params, matrix.T, objectives)
    except (ValueError, DuplicateParams) as exc:
        raise ArtifactError(f"{directory}: {exc}") from exc


def load_snapshots(directory):
    """The database at ``directory`` as :func:`rom.build_rom` takes it: its
    parameter rows, :func:`pod.assemble` of its fields (the centred snapshot
    matrix and its centre) and its objectives, each bitwise equal to what
    ``assemble`` gives. The database's own matrix is centred in place, so
    the fields are held once."""
    db = load_solution_database(directory)
    matrix = db.fields.T
    return db.params, (matrix, _center(matrix)), db.objectives


def _interp_to_dict(interp: Interpolator) -> dict:
    return {
        "weights": interp.weights.tolist(),
        "tail": None if interp.tail is None else interp.tail.tolist(),
    }


def _interp_from_dict(data: dict, shared: tuple, name: str) -> Interpolator:
    return Interpolator(
        *shared,
        weights=_read(data["weights"], "np.ndarray", f"{name}.weights"),
        tail=_read(data["tail"], "np.ndarray | None", f"{name}.tail"),
    )


def save_rom(directory, model: RomModel):
    """Directory artifact: solution_basis.bin plus interpolators.json, which
    states the kernel, epsilon and nodes of the two interpolants once, then
    each one's weights and tail."""
    directory = Path(directory)
    (directory / "interpolators.json").unlink(missing_ok=True)  # written last
    save_pod_basis(directory / "solution_basis.bin", model.basis)
    _save_json(directory / "interpolators.json", "rom", {
        "kernel": model.coefficients.kernel,
        "epsilon": model.coefficients.epsilon,
        "nodes": model.coefficients.nodes.tolist(),
        "coefficients": _interp_to_dict(model.coefficients),
        "objective": _interp_to_dict(model.objective),
        "objective_mean": model.objective_mean,
        "metadata": model.metadata,
    })


def load_rom(directory) -> RomModel:
    directory = Path(directory)
    path = directory / "interpolators.json"
    doc = _load_json(path, "rom")
    basis = load_pod_basis(directory / "solution_basis.bin")
    with _fields_of(path):
        shared = (_read(doc["kernel"], "str", "kernel"),
                  _read(doc["epsilon"], "float", "epsilon"),
                  _read(doc["nodes"], "np.ndarray", "nodes"))
        return RomModel(
            basis=basis,
            coefficients=_interp_from_dict(doc["coefficients"], shared, "coefficients"),
            objective=_interp_from_dict(doc["objective"], shared, "objective"),
            objective_mean=_read(doc["objective_mean"], "float", "objective_mean"),
            metadata=_read(doc.get("metadata", {}), "dict", "metadata"),
        )


def save_validation(path, errors: np.ndarray, summary: dict, kernel: str,
                    epsilon: float | None):
    """Leave-one-out report as ``rom.loo_error`` returns it: per-sample
    errors and their mean and max, plus the snapshot count, the kernel and
    the configured epsilon (null: each fold takes its own default)."""
    _save_json(path, "validation", {
        "snapshot_count": len(errors),
        "kernel": kernel,
        "epsilon": epsilon,
        "mean": summary["mean"],
        "max": summary["max"],
        "errors": np.asarray(errors, dtype=float).tolist(),
    })
