"""STL input/output and the welded triangle mesh representation.

A raw STL file stores three loose corner points per facet with no
connectivity. :func:`weld` merges coincident corners into an indexed mesh
with a canonical vertex order, so that every deformation of the same
reference produces coordinate vectors with one shared layout. Welding is
done once, on the reference geometry; deformed geometries are obtained by
transforming the welded vertex list, never by re-welding.

The weld is array code: one stable sort finds the distinct corners, and
a cheap exact test finds the candidates that may share a cell of width
``tol``, or a neighbouring one, with another point. Two integer cells are
at most one step apart on every axis exactly when, for one shift ``s`` in
{0, 1}**3, ``(c + s) >> 1`` agrees on all three axes (the shift that makes
the lower cell even on each axis). Each point gets one key per shift, the
hash of that halved triple: a point that shares no key with another point
has no neighbour. The greedy first-match rule visits the candidates one by one
and finds its neighbours under the same keys, so the weld's cost follows
the number of near-duplicates, not of corners.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyMesh, MalformedStl

# Binary STL facet record: normal, three vertices, attribute byte count.
_FACET_DTYPE = np.dtype([
    ("normal", "<f4", (3,)),
    ("v0", "<f4", (3,)),
    ("v1", "<f4", (3,)),
    ("v2", "<f4", (3,)),
    ("attr", "<u2"),
])
_BINARY_HEADER = b"shapemanifold"


@dataclass(frozen=True)
class FacetSoup:
    """Facet corners exactly as read from an STL file, before welding.

    ``corners`` has shape (F, 3, 3): facet, corner, coordinate. Stored
    normals and attribute words are not kept: :func:`write_stl` recomputes
    the normals from the winding.
    """

    corners: np.ndarray

    def __post_init__(self):
        corners = np.ascontiguousarray(self.corners, dtype=float)
        if corners.ndim != 3 or corners.shape[1:] != (3, 3):
            raise MalformedStl("facet corners must have shape (F, 3, 3)")
        if corners.shape[0] == 0:
            raise EmptyMesh("STL data contains no facets")
        if not np.isfinite(corners).all():
            raise MalformedStl("non-finite vertex coordinate in STL data")
        object.__setattr__(self, "corners", corners)


@dataclass(frozen=True)
class TriMesh:
    """Indexed triangle mesh: welded vertices plus facet index triples."""

    vertices: np.ndarray
    facets: np.ndarray

    def __post_init__(self):
        vertices = np.ascontiguousarray(self.vertices, dtype=float)
        facets = np.ascontiguousarray(self.facets, dtype=np.int64)
        if vertices.ndim != 2 or vertices.shape[1] != 3:
            raise ValueError("vertices must have shape (V, 3)")
        if facets.ndim != 2 or facets.shape[1] != 3:
            raise ValueError("facets must have shape (F, 3)")
        if not np.isfinite(vertices).all():
            raise ValueError("non-finite vertex coordinate")
        if facets.size and (facets.min() < 0 or facets.max() >= len(vertices)):
            raise ValueError("facet index outside vertex range")
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "facets", facets)

    @property
    def vertex_count(self) -> int:
        return self.vertices.shape[0]

    def bounding_box(self) -> np.ndarray:
        """Axis-aligned bounds as a (3, 2) array of (min, max) rows."""
        if self.vertices.size == 0:
            raise EmptyMesh("mesh has no vertices")
        return np.column_stack([self.vertices.min(axis=0), self.vertices.max(axis=0)])


def _looks_ascii(data: bytes) -> bool:
    # ASCII iff the stream starts with the "solid" token and the length
    # does not match the binary layout implied by the facet count word.
    # Industry files often start with "solid" yet are binary, so the
    # length test wins when both readings are possible. Keyword case is
    # not significant anywhere in the ASCII grammar.
    if not data.lstrip()[:5].lower().startswith(b"solid"):
        return False
    if len(data) < 84:
        return True
    count = struct.unpack_from("<I", data, 80)[0]
    return len(data) != 84 + 50 * count


def _read_binary(data: bytes) -> FacetSoup:
    if len(data) < 84:
        raise MalformedStl("binary STL shorter than header plus count")
    count = struct.unpack_from("<I", data, 80)[0]
    if count == 0:
        raise EmptyMesh("binary STL declares zero facets")
    expected = 84 + 50 * count
    if len(data) < expected:
        raise MalformedStl(
            f"binary STL truncated: {len(data)} bytes, {expected} required "
            f"for {count} facets"
        )
    records = np.frombuffer(data, dtype=_FACET_DTYPE, count=count, offset=84)
    corners = np.stack(
        [records["v0"], records["v1"], records["v2"]], axis=1
    ).astype(float)
    return FacetSoup(corners)


def _read_ascii(data: bytes) -> FacetSoup:
    try:
        tokens = data.decode("ascii", errors="strict").split()
    except UnicodeDecodeError as exc:
        raise MalformedStl(f"ASCII STL is not valid text: {exc}") from exc
    pos = 0

    def next_token() -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise MalformedStl("ASCII STL ended unexpectedly")
        tok = tokens[pos]
        pos += 1
        return tok

    def expect(word: str):
        tok = next_token()
        if tok.lower() != word:
            raise MalformedStl(f"expected '{word}', found '{tok}'")

    def floats(n: int) -> list[float]:
        out = []
        for _ in range(n):
            tok = next_token()
            try:
                out.append(float(tok))
            except ValueError as exc:
                raise MalformedStl(f"expected a number, found '{tok}'") from exc
        return out

    corners = []
    expect("solid")
    while pos < len(tokens):
        tok = next_token()
        low = tok.lower()
        if low == "facet":
            expect("normal")
            floats(3)  # recomputed on output, not kept
            expect("outer")
            expect("loop")
            tri = []
            for _ in range(3):
                expect("vertex")
                tri.append(floats(3))
            if pos < len(tokens) and tokens[pos].lower() == "vertex":
                raise MalformedStl("facet loop has more than three vertices")
            expect("endloop")
            expect("endfacet")
            corners.append(tri)
        elif low == "endsolid":
            # Consume the optional solid name up to the next "solid" block.
            while pos < len(tokens) and tokens[pos].lower() != "solid":
                pos += 1
            if pos < len(tokens):
                pos += 1  # the next "solid"
        elif low == "vertex":
            raise MalformedStl("vertex outside a facet loop")
        else:
            # Part of the solid name; names may contain arbitrary words.
            continue
    if not corners:
        raise EmptyMesh("ASCII STL contains no facets")
    return FacetSoup(np.array(corners, dtype=float))


def read_stl(data: bytes) -> FacetSoup:
    """Parse STL bytes, auto-detecting the ASCII and binary flavors.

    Parameters
    ----------
    data : bytes
        Full file content.

    Returns
    -------
    FacetSoup
        All facets in file order.

    Raises
    ------
    MalformedStl
        Truncated binary record or unparsable ASCII token.
    EmptyMesh
        The file declares zero facets.
    """
    if len(data) == 0:
        raise MalformedStl("empty byte stream")
    if _looks_ascii(data):
        return _read_ascii(data)
    return _read_binary(data)


def default_weld_tolerance(soup: FacetSoup) -> float:
    """Scale-relative default: 1e-8 times the bounding-box diagonal."""
    # Reduce over whole facet rows, nine coordinates wide, and fold the
    # three corners afterwards: the same bounds, in fewer and wider passes.
    rows = soup.corners.reshape(-1, 9)
    high = rows.max(axis=0).reshape(3, 3).max(axis=0)
    low = rows.min(axis=0).reshape(3, 3).min(axis=0)
    diag = float(np.linalg.norm(high - low))
    return 1e-8 * diag


def _first_occurrences(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Number the distinct rows of ``points`` in order of first occurrence.
    # Returns the row of each distinct point's first occurrence (ascending)
    # and each row's distinct-point number. Adding 0.0 folds -0.0 onto
    # +0.0, because the two compare equal as coordinates.
    folded = points + 0.0
    order = np.lexsort(folded.T)
    ordered = folded[order]
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    del folded, ordered  # the numbering needs neither copy of the points
    heads = order[starts]  # the sort is stable: the earliest row of each run
    by_first = np.argsort(heads)
    number = np.empty(len(heads), dtype=np.int64)
    number[by_first] = np.arange(len(heads))
    labels = np.empty(len(order), dtype=np.int64)
    labels[order] = number[np.cumsum(starts) - 1]
    return heads[by_first], labels


def _find(table: np.ndarray, keys: np.ndarray) -> np.ndarray:
    # Position of each key in the sorted ``table``, or -1 where it is absent.
    pos = np.minimum(np.searchsorted(table, keys), len(table) - 1)
    return np.where(table[pos] == keys, pos, -1)


# Odd multiplier of the cell-triple hash (2**64 over the golden ratio).
_MIX = np.uint64(0x9E3779B97F4A7C15)


def _block_keys(cells: np.ndarray) -> list[np.ndarray]:
    # For each of the 8 shifts s in {0, 1}**3, one uint64 key per point of
    # the (n, 3) int64 ``cells``: the hash of the halved triple
    # ``(c + s) >> 1``. Two cells are at most one step apart on every axis
    # exactly when one shift gives them the same triple. Cells are read as
    # uint64, and 2**64 is even, so the shift of 1 still pairs -1 with 0.
    # Equal triples hash equal; a collision can only pair cells that are
    # further apart.
    one = np.uint64(1)
    halves = [(axis >> one, (axis + one) >> one) for axis in cells.view(np.uint64).T]
    keys = []
    for x in halves[0]:
        for y in halves[1]:
            xy = (x * _MIX + y) * _MIX
            for z in halves[2]:
                keys.append(xy + z)
    return keys


def _candidates(cells: np.ndarray) -> np.ndarray:
    # Mask of the points that share a block key with another point: a
    # superset of the points whose cell is within one step of another's.
    mask = np.zeros(len(cells), dtype=bool)
    for key in _block_keys(cells):
        ordered = np.sort(key)
        repeated = ordered[1:][ordered[1:] == ordered[:-1]]
        if repeated.size:
            mask |= _find(repeated, key) >= 0
    return mask


def _greedy_owners(points: np.ndarray, cells: np.ndarray, tol: float) -> np.ndarray:
    # The first-match rule on distinct ``points`` with int64 ``cells``:
    # entry i is the point that registered point i's vertex. A new vertex
    # registers under its distinct block keys, so a later point finds every
    # vertex of its 27 cells under its own 8 keys. A key under one shift can
    # equal a key under another, and hashes can collide, so the keys also
    # bring vertices further away. Of those within one step and within
    # ``tol``, it takes the one the probe order meets first: the least
    # offset, x slowest, then the earliest registered.
    keys = np.column_stack(_block_keys(cells)).tolist()
    coords, steps = points.tolist(), cells.tolist()
    owner = np.arange(len(points))
    registry: dict[int, list[int]] = {}
    for i, ((px, py, pz), (cx, cy, cz), own) in enumerate(zip(coords, steps, keys)):
        own = set(own)
        best = None
        for key in own:
            for j in registry.get(key, ()):
                dx, dy, dz = steps[j][0] - cx, steps[j][1] - cy, steps[j][2] - cz
                qx, qy, qz = coords[j]
                if (-1 <= dx <= 1 and -1 <= dy <= 1 and -1 <= dz <= 1
                        and abs(qx - px) <= tol and abs(qy - py) <= tol
                        and abs(qz - pz) <= tol):
                    probe = ((dx + 1) * 9 + (dy + 1) * 3 + dz + 1, j)
                    if best is None or probe < best:
                        best = probe
        if best is None:
            for key in own:
                registry.setdefault(key, []).append(i)
        else:
            owner[i] = best[1]
    return owner


def weld(soup: FacetSoup, tol: float) -> TriMesh:
    """Deduplicate facet corners into an indexed mesh.

    Corners within Chebyshev distance ``tol`` of an already-registered
    vertex reuse its index. Vertices are numbered in first-occurrence
    order (facet by facet, corner by corner), so two welds of the same
    soup with the same tolerance produce identical meshes.

    Corners with equal coordinates (``-0.0`` equals ``+0.0``) are one point,
    found by one stable sort; each vertex keeps the coordinates of its
    first occurrence. For ``tol > 0`` the distinct points are hashed into
    cubic cells of width ``tol``, so a match can only lie in the 27 cells
    around a point. A point with no other point in those cells becomes a
    vertex of its own, whatever the visiting order. The remaining points
    are visited in first-occurrence order: each takes the first registered
    vertex within ``tol``, probing the cells in a fixed offset order and
    each cell in registration order, or else registers as a new vertex.

    Only candidates are visited. Cells ``a`` and ``b`` are at most one
    step apart on an axis exactly when ``(a + s) >> 1 == (b + s) >> 1`` for
    the shift ``s`` in {0, 1} that makes the lower one even, so a point is
    a candidate when its cell triple, shifted by one of the 8 shifts in
    {0, 1}**3 and halved, occurs twice; a visited point finds the vertices
    registered around it under the hashes of its 8 halved triples. The
    neighbours of a candidate are candidates themselves, so visiting the
    candidates alone gives every point the same owner. A coordinate of
    size ``2**62 * tol`` or more raises ``ValueError``: cells must fit int64.
    """
    if not tol >= 0.0:
        raise ValueError("weld tolerance must be >= 0")
    corners = soup.corners.reshape(-1, 3)
    heads, labels = _first_occurrences(corners)
    points = corners[heads]
    if tol > 0.0:
        size = float(np.abs(points).max())
        if size >= 2.0**62 * tol:  # exact or inf: no division, no overflow
            raise ValueError(f"weld tolerance {tol!r} is too small for coordinates of "
                             f"size {size!r}: cell numbers would overflow int64")
        cells = np.floor(points / tol).astype(np.int64)
        owner = np.arange(len(points))
        near = np.flatnonzero(_candidates(cells))
        if near.size:
            owner[near] = near[_greedy_owners(points[near], cells[near], tol)]
        new = owner == np.arange(len(points))
        labels = (np.cumsum(new) - 1)[owner][labels]
        points = points[new]
    return TriMesh(points, labels.reshape(-1, 3))


def _facet_cross(mesh: TriMesh) -> np.ndarray:
    # Per-facet edge cross product as a (3, F) array, one row per axis:
    # along the normal, twice the area long. Each coordinate is gathered on
    # its own from a coordinate-major copy, with no (F, 3) row gathers, and
    # the components are written out in the order np.cross rounds them.
    x, y, z = mesh.vertices.T.copy()
    f0, f1, f2 = mesh.facets.T
    x0, y0, z0 = x[f0], y[f0], z[f0]
    ax, ay, az = x[f1] - x0, y[f1] - y0, z[f1] - z0
    bx, by, bz = x[f2] - x0, y[f2] - y0, z[f2] - z0
    return np.array([ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx])


def _facet_normals(mesh: TriMesh) -> np.ndarray:
    # Recomputed from winding, (F, 3); degenerate facets get a zero normal.
    cx, cy, cz = _facet_cross(mesh)
    lengths = np.sqrt(cx * cx + cy * cy + cz * cz)
    n = np.column_stack([cx, cy, cz])
    ok = lengths > 0.0
    n[ok] /= lengths[ok, None]
    n[~ok] = 0.0
    return n


def write_stl(mesh: TriMesh, fmt: str = "binary") -> bytes:
    """Serialize a mesh to STL bytes.

    Facet normals are recomputed from the vertex winding. Binary output
    uses 32-bit little-endian floats, zero attribute words, and a header
    starting with ``shapemanifold``.
    """
    normals = _facet_normals(mesh)
    tri = mesh.vertices[mesh.facets]
    if fmt == "binary":
        records = np.zeros(len(mesh.facets), dtype=_FACET_DTYPE)
        records["normal"] = normals
        records["v0"] = tri[:, 0]
        records["v1"] = tri[:, 1]
        records["v2"] = tri[:, 2]
        header = _BINARY_HEADER.ljust(80, b"\x00")
        return header + struct.pack("<I", len(records)) + records.tobytes()
    if fmt == "ascii":
        lines = ["solid shapemanifold"]
        for nrm, corners in zip(normals, tri):
            lines.append(
                "  facet normal {:.17g} {:.17g} {:.17g}".format(*nrm)
            )
            lines.append("    outer loop")
            for p in corners:
                lines.append("      vertex {:.17g} {:.17g} {:.17g}".format(*p))
            lines.append("    endloop")
            lines.append("  endfacet")
        lines.append("endsolid shapemanifold")
        return ("\n".join(lines) + "\n").encode("ascii")
    raise ValueError(f"unknown STL format {fmt!r}")


def flatten(mesh: TriMesh) -> np.ndarray:
    """Mesh coordinates as one flat vector (x1, y1, z1, x2, ...)."""
    if mesh.vertex_count == 0:
        raise EmptyMesh("cannot flatten a mesh without vertices")
    return mesh.vertices.reshape(-1).copy()


def unflatten(values: np.ndarray, reference: TriMesh) -> TriMesh:
    """Rebuild a mesh from a flat coordinate vector.

    Connectivity is taken from ``reference``; only the vertex positions
    change, which is exactly the guarantee the morphing map provides.
    """
    values = np.asarray(values, dtype=float).reshape(-1)
    if values.size != 3 * reference.vertex_count:
        raise DimensionMismatch(
            f"vector length {values.size} does not match "
            f"3 x {reference.vertex_count} vertices"
        )
    return TriMesh(values.reshape(-1, 3), reference.facets)
