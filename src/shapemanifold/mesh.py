"""STL input/output and the welded triangle mesh representation.

A raw STL file stores three loose corner points per facet with no
connectivity. :func:`weld` merges coincident corners into an indexed mesh
with a canonical vertex order, so that every deformation of the same
reference produces coordinate vectors with one shared layout. Welding is
done once, on the reference geometry; deformed geometries are obtained by
transforming the welded vertex list, never by re-welding.

The weld is array code. One sort of a hash of each corner's coordinate
bits groups the equal corners; a check by coordinates finds any two
different corners that share a hash, and then a sort by the coordinates
themselves groups the corners instead, so the grouping is exact. A cheap
exact test then finds the candidates that may share a cell of width
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

# Binary STL facet record, 50 bytes: normal, three corners, attribute word.
_FACET_DTYPE = np.dtype([
    ("normal", "<f4", (3,)),
    ("corners", "<f4", (3, 3)),
    ("attr", "<u2"),
])
_BINARY_HEADER = b"shapemanifold"
# One ASCII facet exactly as write_stl prints it. Its tokens after "facet"
# are the reader's grammar: keywords in any case, and a number per %.17g.
_ASCII_FACET = (
    "  facet normal %.17g %.17g %.17g\n    outer loop\n"
    + "      vertex %.17g %.17g %.17g\n" * 3
    + "    endloop\n  endfacet\n"
)
_FACET_WORDS = _ASCII_FACET.split()[1:]


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
    """Indexed triangle mesh: welded vertices plus facet index triples.

    ``vertices`` is a C-order (V, 3) float array and ``facets`` an (F, 3)
    int64 array in Fortran order, so that ``facets.T`` holds each corner's
    indices in one contiguous row. The solve gathers through those rows:
    ``np.take`` copies a strided index before it gathers, and a C-order
    column of ``facets`` is strided. Meshes derived from a reference share
    its ``facets`` array, so each topology is laid out once.
    """

    vertices: np.ndarray
    facets: np.ndarray

    def __post_init__(self):
        vertices = np.ascontiguousarray(self.vertices, dtype=float)
        facets = np.asarray(self.facets)
        if vertices.ndim != 2 or vertices.shape[1] != 3:
            raise ValueError("vertices must have shape (V, 3)")
        if facets.ndim != 2 or facets.shape[1] != 3:
            raise ValueError("facets must have shape (F, 3)")
        if not np.isfinite(vertices).all():
            raise ValueError("non-finite vertex coordinate")
        # The cast to int64 would truncate; integer arrays need no test.
        if facets.dtype.kind not in "iu" and not np.all(np.floor(facets) == facets):
            raise ValueError("facet indices must be integers")
        if facets.size and (facets.min() < 0 or facets.max() >= len(vertices)):
            raise ValueError("facet index outside vertex range")
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "facets", np.asfortranarray(facets, dtype=np.int64))

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
    return FacetSoup(records["corners"].astype(float))


def parse_number(token: str) -> float:
    """The float that ``token`` spells, read as :func:`float` reads it,
    for the ASCII tokens without ``_`` only: ``float`` also takes
    digit-group underscores (``1_0`` is 10) and non-ASCII digits, which no
    writer of these files prints. ``nan`` and ``inf`` are numbers here; the
    readers refuse them later. Raises ``ValueError`` as ``float`` does."""
    if token.isascii() and "_" not in token:
        return float(token)
    raise ValueError(f"could not convert string to float: {token!r}")


def _read_ascii(data: bytes) -> FacetSoup:
    try:
        tokens = data.decode("ascii", errors="strict").split()
    except UnicodeDecodeError as exc:
        raise MalformedStl(f"ASCII STL is not valid text: {exc}") from exc
    pos = 0
    numbers: list[float] = []

    def expect(word: str):
        # Take the next token as ``word`` of the facet template.
        nonlocal pos
        if pos >= len(tokens):
            raise MalformedStl("ASCII STL ended unexpectedly")
        tok = tokens[pos]
        pos += 1
        if word == "%.17g":
            try:
                numbers.append(parse_number(tok))
            except ValueError as exc:
                raise MalformedStl(f"expected a number, found '{tok}'") from exc
        elif tok.lower() != word:
            if word == "endloop" and tok.lower() == "vertex":
                raise MalformedStl("facet loop has more than three vertices")
            raise MalformedStl(f"expected '{word}', found '{tok}'")

    expect("solid")
    # Tokens outside a facet and other than these keywords are part of the
    # solid name; names may contain arbitrary words.
    while pos < len(tokens):
        low = tokens[pos].lower()
        pos += 1
        if low == "facet":
            for word in _FACET_WORDS:
                expect(word)
        elif low == "endsolid":
            # Consume the optional solid name up to the next "solid" block.
            while pos < len(tokens) and tokens[pos].lower() != "solid":
                pos += 1
            if pos < len(tokens):
                pos += 1  # the next "solid"
        elif low == "vertex":
            raise MalformedStl("vertex outside a facet loop")
    if not numbers:
        raise EmptyMesh("ASCII STL contains no facets")
    # Twelve numbers per facet: the stored normal, not kept, then the corners.
    return FacetSoup(np.array(numbers).reshape(-1, 12)[:, 3:].reshape(-1, 3, 3))


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
    # One reduction per bound and axis over a strided coordinate column:
    # faster than a reduction along the rows of the (3F, 3) corners.
    columns = soup.corners.reshape(-1, 3).T
    high = np.array([c.max() for c in columns])
    low = np.array([c.min() for c in columns])
    diag = float(np.linalg.norm(high - low))
    return 1e-8 * diag


# Odd multiplier of the row and cell-triple hashes (2**64 over the golden ratio).
_MIX = np.uint64(0x9E3779B97F4A7C15)


def _row_hashes(bits: np.ndarray) -> np.ndarray:
    # One uint64 hash per row of the (n, 3) uint64 ``bits``, equal for equal
    # rows. Each xor-shift carries high bits down: doubles read from float32
    # have 29 zero low bits, and a multiply alone only carries bits up.
    h = np.zeros(len(bits), dtype=np.uint64)
    shifted = np.empty_like(h)
    for column in bits.T:
        h ^= column
        h *= _MIX
        h ^= np.right_shift(h, np.uint64(32), out=shifted)
    return h


def _run_starts(folded: np.ndarray, order: np.ndarray) -> np.ndarray:
    # Mask of the rows of ``folded[order]`` that differ from the row before,
    # gathered and compared one coordinate column at a time. Indexing reads
    # the strided column in place, where np.take would first copy it.
    starts = np.zeros(len(order), dtype=bool)
    starts[0] = True
    for column in folded.T:
        ordered = column[order]
        starts[1:] |= ordered[1:] != ordered[:-1]
    return starts


def _first_occurrences(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Number the distinct rows of ``points`` in order of first occurrence.
    # Returns the row of each distinct point's first occurrence (ascending)
    # and each row's distinct-point number. Adding 0.0 folds -0.0 onto
    # +0.0, because the two compare equal as coordinates; equal rows then
    # have equal bits and equal hashes. In hash order, equal rows are
    # adjacent unless a row lies between them that differs but shares
    # their hash, so a run that starts within a hash is the one sign of a
    # collision; the rows are then ordered by their coordinates, where
    # equal rows are always adjacent.
    folded = points + 0.0
    hashes = _row_hashes(folded.view(np.uint64))
    order = np.argsort(hashes)
    starts = _run_starts(folded, order)
    later = np.flatnonzero(starts)[1:]
    if (hashes[order[later]] == hashes[order[later - 1]]).any():
        order = np.lexsort(folded.T)
        starts = _run_starts(folded, order)
    del folded, hashes, later  # the numbering needs no copy of the points
    runs = np.flatnonzero(starts)
    heads = np.minimum.reduceat(order, runs)  # whatever the order within a run
    by_first = np.argsort(heads)
    number = np.empty(len(heads), dtype=np.int64)
    number[by_first] = np.arange(len(heads))
    labels = np.empty(len(order), dtype=np.int64)
    labels[order] = np.repeat(number, np.diff(runs, append=len(order)))
    return heads[by_first], labels


def _find(table: np.ndarray, keys: np.ndarray) -> np.ndarray:
    # Position of each key in the sorted ``table``, or -1 where it is absent.
    pos = np.minimum(np.searchsorted(table, keys), len(table) - 1)
    return np.where(table[pos] == keys, pos, -1)


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

    Corners with equal coordinates (``-0.0`` equals ``+0.0``) are one point;
    each vertex keeps the coordinates of its first occurrence. The corners
    are sorted once by a hash of their coordinate bits, and each run of
    equal neighbours in that order is one point. Equal corners hash
    equal, but equal hashes need not be equal corners: when two
    neighbours share a hash yet differ, the corners are sorted by their
    coordinates instead and the runs are read from that order. For
    ``tol > 0`` the distinct points are hashed into cubic cells of width
    ``tol``, so a match can only lie in the 27 cells around a point. A
    point with no other point in those cells becomes a vertex of its own,
    whatever the visiting order. The remaining points
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
    # Per-facet edge cross product, along the normal and twice the area
    # long, and its length, computed inside one (8, max(F, V)) scratch
    # array, as wide as the facets on any mesh with at least as many facets
    # as vertices. Returns the array's first F columns: rows 0-2 hold the
    # product, one per axis, row 3 its length, and rows 4-7 are free for
    # the caller. Each component is rounded as np.cross rounds it, and the
    # length as the square root of the sum of squares in axis order.
    # ``np.take`` copies a strided source or index before it gathers, so
    # each coordinate column is copied once into row 7, free until the
    # products, and all three corners are taken from there through the
    # contiguous index rows of the Fortran-order facets. The gathers clip
    # instead of raising, which needs no copy of ``out``: a TriMesh has no
    # index outside its vertices.
    f0, f1, f2 = mesh.facets.T
    work = np.empty((8, max(len(f0), mesh.vertex_count)))
    cx, az, ax, ay, bx, by, bz, t = work[:, :len(f0)]
    stage = work[7, :mesh.vertex_count]
    for c, a, b in zip(mesh.vertices.T, (ax, ay, az), (bx, by, bz)):
        np.copyto(stage, c)
        np.take(stage, f0, out=cx, mode="clip")  # the first corner
        np.subtract(np.take(stage, f1, out=a, mode="clip"), cx, out=a)
        np.subtract(np.take(stage, f2, out=b, mode="clip"), cx, out=b)
    np.multiply(ay, bz, out=cx)
    cx -= np.multiply(az, by, out=t)  # x: ay bz - az by
    np.multiply(ax, bz, out=bz)
    np.multiply(az, bx, out=az)
    az -= bz  # y: az bx - ax bz, in row 1
    np.multiply(ax, by, out=ax)
    ax -= np.multiply(ay, bx, out=ay)  # z: ax by - ay bx, in row 2
    np.multiply(cx, cx, out=ay)
    ay += np.multiply(az, az, out=t)
    ay += np.multiply(ax, ax, out=t)
    np.sqrt(ay, out=ay)  # the length, in row 3
    return work[:, :len(f0)]


def _facet_normals(mesh: TriMesh) -> np.ndarray:
    # Recomputed from winding, (F, 3); degenerate facets get a zero normal.
    cross = _facet_cross(mesh)
    lengths = cross[3, :, None]
    return np.divide(cross[:3].T, lengths, out=np.zeros((len(lengths), 3)),
                     where=lengths > 0.0)


def _facet_average(mesh: TriMesh, values: np.ndarray) -> float:
    # The area-weighted mean over the facets of the per-vertex ``values``,
    # each facet taking the mean of its corners: the plain mean of
    # ``values`` when every facet is degenerate. Each ufunc runs on the
    # operands, and in the order, of ``0.5 * norm(cross)`` and of the
    # (F, 3) gather's mean, so every value rounds as theirs do; each gather
    # reads a contiguous source through a contiguous index row.
    areas, mean, corner = _facet_cross(mesh)[3:6]
    areas *= 0.5
    total = areas.sum()
    if not total > 0.0:
        return float(values.mean())
    f0, f1, f2 = mesh.facets.T
    np.take(values, f0, out=mean, mode="clip")
    mean += np.take(values, f1, out=corner, mode="clip")
    mean += np.take(values, f2, out=corner, mode="clip")
    mean /= 3
    mean *= areas
    return float(mean.sum() / total)


def write_stl(mesh: TriMesh, fmt: str = "binary") -> bytes:
    """Serialize a mesh to STL bytes.

    Facet normals are recomputed from the vertex winding. Binary output
    uses 32-bit little-endian floats, zero attribute words, and a header
    starting with ``shapemanifold``.
    """
    normals = _facet_normals(mesh)
    if fmt == "binary":
        # The records are written in place, attribute words left zero. The
        # float32 cast rounds each coordinate alike before or after the gather.
        out = bytearray(84 + _FACET_DTYPE.itemsize * len(normals))
        out[:len(_BINARY_HEADER)] = _BINARY_HEADER
        struct.pack_into("<I", out, 80, len(normals))
        records = np.frombuffer(out, dtype=_FACET_DTYPE, offset=84)
        records["normal"] = normals
        records["corners"] = np.take(mesh.vertices.astype("<f4"), mesh.facets, axis=0)
        return bytes(out)
    if fmt == "ascii":
        tri = mesh.vertices[mesh.facets]
        rows = np.hstack([normals, tri.reshape(-1, 9)]).tolist()
        body = "".join(_ASCII_FACET % tuple(row) for row in rows)
        return f"solid shapemanifold\n{body}endsolid shapemanifold\n".encode("ascii")
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
