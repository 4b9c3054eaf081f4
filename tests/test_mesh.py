import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from shapemanifold import mesh as mesh_module
from shapemanifold.artifacts import load_reduced_space, save_reduced_space
from shapemanifold.errors import DimensionMismatch, EmptyMesh, MalformedStl
from shapemanifold.mesh import (
    FacetSoup,
    TriMesh,
    default_weld_tolerance,
    flatten,
    read_stl,
    unflatten,
    weld,
    write_stl,
)
from shapemanifold.ffd import default_config, displacement_jacobian, morph
from shapemanifold.manifold import decode
from shapemanifold.solver import StubConfig, evaluate

from helpers import (
    ascii_stl_one_facet,
    assert_read_matches_loop_on_mutated_ascii,
    assert_weld_matches_loop,
    bits,
    crowded_cells,
    loop_write_ascii,
    make_sphere,
    make_tetra,
    np_cross_evaluate,
    np_cross_facet_normals,
    random_reduced_space,
    soup_of,
    written_normals,
)


def one_facet_binary() -> bytes:
    header = b"x" * 80
    record = struct.pack(
        "<12fH",
        0.0, 0.0, 1.0,
        0.0, 0.0, 0.0,
        1.0, 0.0, 0.0,
        0.0, 1.0, 0.0,
        0,
    )
    return header + struct.pack("<I", 1) + record


def two_facet_soup(perturb: float = 0.0) -> FacetSoup:
    # Two triangles sharing the edge (1,0,0)-(0,1,0); optionally perturb
    # one copy of a shared corner coordinate.
    tri1 = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    tri2 = [[1.0 + perturb, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 0.0]]
    return FacetSoup(np.array([tri1, tri2]))


class TestReadStl:
    def test_binary_one_facet(self):
        data = one_facet_binary()
        assert len(data) == 134  # 80 + 4 + 50
        soup = read_stl(data)
        assert len(soup.corners) == 1
        np.testing.assert_allclose(soup.corners[0, 1], [1.0, 0.0, 0.0])

    def test_ascii_one_facet(self):
        soup = read_stl(ascii_stl_one_facet())
        assert len(soup.corners) == 1
        np.testing.assert_allclose(
            soup.corners[0], [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
        )

    def test_truncated_binary(self):
        data = one_facet_binary()
        header = data[:80] + struct.pack("<I", 3) + data[84:]
        with pytest.raises(MalformedStl):
            read_stl(header)

    def test_binary_starting_with_solid_token(self):
        # Length matches the binary layout, so the "solid" header must not
        # fool the detector.
        data = one_facet_binary()
        data = b"solid" + data[5:]
        soup = read_stl(data)
        assert len(soup.corners) == 1

    def test_empty_bytes(self):
        with pytest.raises(MalformedStl):
            read_stl(b"")

    def test_zero_facet_binary(self):
        data = b"x" * 80 + struct.pack("<I", 0)
        with pytest.raises(EmptyMesh):
            read_stl(data)

    def test_ascii_bad_token(self):
        text = ascii_stl_one_facet().replace(b"vertex 1 0 0", b"vertex one 0 0")
        with pytest.raises(MalformedStl):
            read_stl(text)

    def test_ascii_bad_normal_token(self):
        # The stored normal is not kept, but it must still be three numbers.
        text = ascii_stl_one_facet()
        start = text.index(b"facet normal") + len(b"facet normal ")
        text = text[:start] + b"up " + text[start:]
        with pytest.raises(MalformedStl, match="expected a number, found 'up'"):
            read_stl(text)

    def test_ascii_keyword_case_and_scientific_numbers(self):
        text = (
            b"SOLID part\n"
            b"FACET NORMAL 0.0e0 0 1.0E0\n"
            b"OUTER LOOP\n"
            b"VERTEX -1.5e-1 0e0 0\n"
            b"VERTEX 1E0 0 0\n"
            b"VERTEX 0 1e+0 0\n"
            b"ENDLOOP\n"
            b"ENDFACET\n"
            b"ENDSOLID part\n"
        )
        soup = read_stl(text)
        assert len(soup.corners) == 1
        np.testing.assert_allclose(soup.corners[0, 0], [-0.15, 0.0, 0.0])

    def test_ascii_no_facets(self):
        with pytest.raises(EmptyMesh):
            read_stl(b"solid empty\nendsolid empty\n")

    def test_nan_vertex_rejected(self):
        text = ascii_stl_one_facet().replace(b"vertex 1 0 0", b"vertex nan 0 0")
        with pytest.raises(MalformedStl):
            read_stl(text)


def one_facet_ascii_edit(old: bytes, new: bytes) -> bytes:
    text = ascii_stl_one_facet()
    assert text.count(old) == 1
    return text.replace(old, new)


# Every reader refusal: its input, exception type and exact message.
STL_MESSAGES = {
    "empty": (b"", MalformedStl, "empty byte stream"),
    "ended": (b"solid x\nfacet normal 0 0 1\n", MalformedStl, "ASCII STL ended unexpectedly"),
    "keyword": (one_facet_ascii_edit(b"outer loop", b"outer lop"), MalformedStl,
                "expected 'loop', found 'lop'"),
    "number": (one_facet_ascii_edit(b"vertex 1 0 0", b"vertex one 0 0"), MalformedStl,
               "expected a number, found 'one'"),
    "fourth_vertex": (one_facet_ascii_edit(b"vertex 0 1 0", b"vertex 0 1 0 vertex 1 1 0"),
                      MalformedStl, "facet loop has more than three vertices"),
    "stray_vertex": (b"solid x\nvertex 0 0 0\nendsolid x\n", MalformedStl,
                     "vertex outside a facet loop"),
    "not_text": (b"solid \xff\n", MalformedStl,
                 "ASCII STL is not valid text: 'ascii' codec can't decode byte 0xff in "
                 "position 6: ordinal not in range(128)"),
    "no_facets": (b"solid empty\nendsolid empty\n", EmptyMesh, "ASCII STL contains no facets"),
    "nan": (one_facet_ascii_edit(b"vertex 1 0 0", b"vertex nan 0 0"), MalformedStl,
            "non-finite vertex coordinate in STL data"),
    "zero_facets": (b"x" * 80 + struct.pack("<I", 0), EmptyMesh,
                    "binary STL declares zero facets"),
    "short_binary": (b"x" * 83, MalformedStl, "binary STL shorter than header plus count"),
    "truncated_binary": (one_facet_binary()[:80] + struct.pack("<I", 3) + one_facet_binary()[84:],
                         MalformedStl, "binary STL truncated: 134 bytes, 234 required for 3 "
                         "facets"),
}


@pytest.mark.parametrize("case", STL_MESSAGES)
def test_stl_reader_messages(case):
    data, kind, message = STL_MESSAGES[case]
    with pytest.raises(kind) as info:
        read_stl(data)
    assert type(info.value) is kind
    assert str(info.value) == message


class TestWeld:
    def test_shared_edge(self):
        mesh = weld(two_facet_soup(), tol=0.0)
        assert mesh.vertex_count == 4
        assert len(mesh.facets) == 2

    def test_tolerance_absorbs_perturbation(self):
        soup = two_facet_soup(perturb=1e-9)
        assert weld(soup, tol=0.0).vertex_count == 5
        assert weld(soup, tol=1e-6).vertex_count == 4

    def test_single_facet(self):
        soup = read_stl(ascii_stl_one_facet())
        mesh = weld(soup, tol=0.0)
        assert mesh.vertex_count == 3
        assert len(mesh.facets) == 1

    def test_determinism(self):
        soup = two_facet_soup(perturb=1e-9)
        a = weld(soup, tol=1e-6)
        b = weld(soup, tol=1e-6)
        assert a.vertices.tobytes() == b.vertices.tobytes()
        assert a.facets.tobytes() == b.facets.tobytes()

    def test_first_occurrence_order(self):
        mesh = weld(two_facet_soup(), tol=0.0)
        np.testing.assert_array_equal(mesh.facets[0], [0, 1, 2])
        # Facet 2 reuses vertices 1 and 2 and introduces vertex 3.
        np.testing.assert_array_equal(mesh.facets[1], [1, 3, 2])

    def test_no_close_vertex_pairs_remain(self):
        rng = np.random.default_rng(5)
        pts = rng.random((30, 3))
        corners = pts[rng.integers(0, 30, size=(40, 3))]
        soup = FacetSoup(corners)
        tol = 0.05
        mesh = weld(soup, tol)
        v = mesh.vertices
        for i in range(len(v)):
            for j in range(i + 1, len(v)):
                assert np.max(np.abs(v[i] - v[j])) > tol

    def test_default_tolerance_scales_with_bbox(self):
        soup = two_facet_soup()
        expected = 1e-8 * np.linalg.norm([1.0, 1.0, 0.0])
        assert default_weld_tolerance(soup) == pytest.approx(expected)

    def test_default_tolerance_matches_the_corner_formula_bitwise(self):
        # Bounds over (F, 9) facet rows folded to 3 columns equal those of
        # the (F * 3, 3) corners, on soups full of signed zeros as well.
        rng = np.random.default_rng(31)
        for _ in range(300):
            shape = (int(rng.integers(1, 6)), 3, 3)
            corners = rng.choice([-2.5, -0.0, 0.0, 0.25, 3.0], size=shape)
            corners += rng.normal(size=shape) * (rng.random(shape) < 0.2)
            soup = soup_of(corners)
            pts = soup.corners.reshape(-1, 3)
            old = 1e-8 * float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))
            assert bits(default_weld_tolerance(soup)) == bits(old)
        assert bits(default_weld_tolerance(soup_of(np.full((2, 3, 3), -0.0)))) == bits(0.0)

    def test_traced_peak_stays_under_four_times_the_corners(self):
        sphere = make_sphere(101, 101)
        soup = soup_of(sphere.vertices[sphere.facets])
        tol = default_weld_tolerance(soup)
        weld(soup, tol)
        tracemalloc.start()
        try:
            weld(soup, tol)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * soup.corners.nbytes


class TestCandidates:
    """The 8-shift test that picks the points the greedy rule may visit."""

    def test_reference_sphere_has_none(self):
        sphere = make_sphere(101, 101)
        tol = default_weld_tolerance(soup_of(sphere.vertices[sphere.facets]))
        cells = np.floor(sphere.vertices / tol).astype(np.int64)
        assert not mesh_module._candidates(cells).any()

    def test_neighbours_across_the_int64_wrap(self):
        top, bottom = 2**63 - 1, -(2**63)
        cells = np.array([[top, 0, 5], [bottom, -1, 5], [7, 7, 7], [9, 7, 7]])
        assert crowded_cells(cells).tolist() == [True, True, False, False]
        assert mesh_module._candidates(cells)[:2].all()


WELD_TOLERANCES = [0.0, 1e-6, 1.5e-6, 3e-6]


def planted_soup(rng, unit: float = 1e-6) -> FacetSoup:
    # Random points plus planted exact and near duplicates, signed zeros
    # and points on a grid of half tolerance units, so that matches,
    # chains, exact-tolerance gaps and cell boundaries all occur.
    n = int(rng.integers(2, 30))
    base = rng.integers(-4, 5, size=(n, 3)) * (0.5 * unit)
    base += rng.choice([0.0, 1e-9, 0.3 * unit], size=(n, 1)) * rng.normal(size=(n, 3))
    near = base[rng.integers(0, n, size=n)] + rng.uniform(-unit, unit, size=(n, 3))
    points = np.concatenate([base, near])
    points[rng.random(points.shape) < 0.15] = 0.0
    points[rng.random(points.shape) < 0.15] = -0.0
    count = int(rng.integers(1, 25))
    return soup_of(points[rng.integers(0, len(points), size=(count, 3))])


class TestWeldMatchesLoop:
    """The sort-based weld against the per-corner loop in tests/helpers."""

    @pytest.mark.parametrize("tol", WELD_TOLERANCES)
    def test_random_soups_with_planted_duplicates(self, tol):
        rng = np.random.default_rng(2024)
        merged = 0
        for _ in range(150):
            soup = planted_soup(rng)
            mesh = assert_weld_matches_loop(soup, tol)
            merged += mesh.vertex_count < weld(soup, 0.0).vertex_count
        # The greedy first-match rule must actually run.
        assert (merged > 0) == (tol > 0.0)

    @pytest.mark.parametrize("tol", WELD_TOLERANCES)
    def test_chain_is_not_transitive(self, tol):
        # b is within tol of a and c, but c is not within tol of a; the
        # order of first occurrence decides which pairs merge.
        a, b, c = [0.0, 0.0, 0.0], [0.9e-6, 0.0, 0.0], [1.8e-6, 0.0, 0.0]
        far = [1.0, 1.0, 1.0]
        for tri in ([a, b, c], [b, a, c], [c, a, b], [a, c, b]):
            mesh = assert_weld_matches_loop(soup_of([tri, [far, c, a]]), tol)
            if tol == 1e-6:
                assert mesh.vertex_count in (2, 3)

    def test_points_exactly_tol_apart_merge(self):
        tol = 0.25
        soup = soup_of([[[0.5, 0.0, 0.0], [0.75, 0.0, 0.0], [0.5, 0.25, -0.25]]])
        mesh = assert_weld_matches_loop(soup, tol)
        assert mesh.vertex_count == 1

    @pytest.mark.parametrize("tol", WELD_TOLERANCES[1:])
    def test_points_on_both_sides_of_a_cell_boundary(self, tol):
        edge = 7 * tol
        below, above = np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf)
        tri = [[below, 0.0, 0.0], [above, 0.0, 0.0], [edge, below, above]]
        mesh = assert_weld_matches_loop(soup_of([tri]), tol)
        assert mesh.vertex_count == 2
        assert np.floor(below / tol) != np.floor(above / tol)

    @pytest.mark.parametrize("tol", WELD_TOLERANCES)
    def test_signed_zeros_are_one_vertex_with_the_first_sign(self, tol):
        tri1 = [[-0.0, 0.0, -0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
        tri2 = [[0.0, -0.0, 0.0], [1.0, -0.0, 0.0], [-0.0, 1.0, 0.0]]
        mesh = assert_weld_matches_loop(soup_of([tri1, tri2]), tol)
        assert mesh.vertex_count == 3
        assert np.signbit(mesh.vertices[0]).tolist() == [True, False, True]

    @pytest.mark.parametrize("tol", WELD_TOLERANCES)
    def test_one_facet_soup(self, tol):
        assert_weld_matches_loop(read_stl(ascii_stl_one_facet()), tol)

    def test_jittered_sphere_where_every_point_is_crowded(self):
        # Each corner moves by up to tol / 4, so no two corners coincide and
        # every one goes through the greedy rule.
        sphere, tol = make_sphere(8, 10), 1e-3
        rng = np.random.default_rng(8)
        corners = sphere.vertices[sphere.facets]
        soup = soup_of(corners + rng.uniform(-tol / 4, tol / 4, corners.shape))
        cells = np.floor(soup.corners.reshape(-1, 3) / tol).astype(np.int64)
        assert crowded_cells(cells).all()
        mesh = assert_weld_matches_loop(soup, tol)
        assert mesh.vertex_count == sphere.vertex_count

    def test_probe_order_picks_the_lower_offset(self):
        # q1 registers first in the +x cell and q2 next in the -x cell (they
        # are 1.52 apart); p lies within tol of both and takes q2, whose
        # offset the probe order meets first.
        q1, q2, p = [1.02, 0.5, 0.5], [-0.5, 0.5, 0.5], [0.05, 0.5, 0.5]
        mesh = assert_weld_matches_loop(soup_of([[q1, q2, p]]), 1.0)
        assert mesh.vertex_count == 2
        assert mesh.facets.tolist() == [[0, 1, 1]]

    def test_points_within_tol_two_cells_apart_stay_apart(self):
        # -5e-324 lies in cell -1 and 1.0 in cell 1, yet their difference
        # rounds to tol. Key 0 of the second point's shift 1 is key 0 of the
        # first's shift 0, and the point at 0.0 makes both candidates: the
        # weld meets the pair and must refuse it, as the loop never probes
        # two cells away. The last point then takes the second, at offset -1.
        tiny = np.nextafter(0.0, -1.0)
        tri = [[0.5, 0.5, 1.0], [0.5, 0.5, tiny], [0.5, 0.5, 0.0]]
        mesh = assert_weld_matches_loop(soup_of([tri]), 1.0)
        assert mesh.facets.tolist() == [[0, 1, 1]]

    def test_key_collisions_change_nothing(self, monkeypatch):
        # With a multiplier of 1 a block key is the sum of the halved cell
        # coordinates, so cells far apart share keys everywhere: the
        # candidates take in points with no neighbour, and the greedy rule
        # meets registered points outside its 27 cells.
        monkeypatch.setattr(mesh_module, "_MIX", np.uint64(1))
        sphere, tol = make_sphere(8, 10), 1e-3
        corners = sphere.vertices[sphere.facets]
        jitter = np.random.default_rng(8).uniform(-tol / 4, tol / 4, corners.shape)
        mesh = assert_weld_matches_loop(soup_of(corners + jitter), tol)
        assert mesh.vertex_count == sphere.vertex_count
        # Cells two steps apart whose halved coordinates all sum to 1.
        far = [[2.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 2.0]]
        cells = np.array(far, dtype=np.int64)
        assert mesh_module._candidates(cells).all() and not crowded_cells(cells).any()
        near = [[2.5, 0.0, 0.0], [0.5, 2.0, 0.0], [1.0, 1.0, 1.0]]
        assert assert_weld_matches_loop(soup_of([far, near]), 1.0).vertex_count == 3
        rng = np.random.default_rng(77)
        for _ in range(40):
            soup = planted_soup(rng)
            for tol in WELD_TOLERANCES:
                assert_weld_matches_loop(soup, tol)

    @pytest.mark.parametrize("tol", [0.0, None])
    def test_reference_sphere_stl(self, tol):
        soup = read_stl(write_stl(make_sphere(101, 101), "binary"))
        if tol is None:
            tol = default_weld_tolerance(soup)
        mesh = assert_weld_matches_loop(soup, tol)
        assert mesh.vertex_count == 10102


class TestTinyTolerance:
    """A tolerance for which some coordinate reaches ``2**62 * tol`` is
    refused before any cell is computed, so nothing overflows."""

    @pytest.mark.parametrize("tol", [1e-320, 5e-324])
    def test_refused_without_a_warning(self, tol):
        sphere = make_sphere(8, 10)
        soup = soup_of(sphere.vertices[sphere.facets])
        message = rf"^weld tolerance {re.escape(repr(tol))} .* of size 1\.0: "
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                weld(soup, tol)

    def test_just_inside_the_limit_welds_as_the_loop(self):
        # Cells reach 2**62 - 1 at +-size; the points near zero sit a few
        # tolerances apart, so the greedy rule runs there.
        size = 3.0
        limit = size / 2.0**62
        inside = np.nextafter(limit, np.inf)
        near = [[0.0, 0.0, 0.0], [inside, 0.0, 0.0], [0.0, 2.5 * inside, -inside]]
        soup = soup_of([near, [[size, 0.0, -size], [-size, size, 0.0], [0.0, 0.0, size]]])
        with pytest.raises(ValueError, match="too small"):
            weld(soup, limit)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mesh = assert_weld_matches_loop(soup, inside)
        assert mesh.vertex_count == 5


class TestWriteStl:
    def test_binary_size(self):
        mesh = weld(read_stl(ascii_stl_one_facet()), tol=0.0)
        assert len(write_stl(mesh, "binary")) == 134

    def test_binary_round_trip(self):
        # Canonicalize the vertex order by welding first; coordinates here
        # are exactly representable in 32-bit floats.
        mesh = weld(read_stl(write_stl(make_tetra(), "binary")), tol=0.0)
        data = write_stl(mesh, "binary")
        again = weld(read_stl(data), tol=0.0)
        np.testing.assert_array_equal(again.vertices, mesh.vertices)
        np.testing.assert_array_equal(again.facets, mesh.facets)

    def test_ascii_round_trip(self):
        mesh = make_sphere(4, 6, radius=0.7)
        again = weld(read_stl(write_stl(mesh, "ascii")), tol=0.0)
        np.testing.assert_allclose(again.vertices, mesh.vertices, atol=1e-15)

    def test_read_write_read_idempotent(self):
        # After one pass the coordinates are 32-bit stable, so a further
        # write/read cycle must reproduce the bytes exactly, normals and
        # attribute words included.
        soup1 = read_stl(write_stl(make_sphere(4, 6), "binary"))
        data2 = write_stl(weld(soup1, tol=0.0), "binary")
        assert write_stl(weld(read_stl(data2), tol=0.0), "binary") == data2

    def test_degenerate_facet_zero_normal(self):
        mesh = TriMesh(
            np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
            np.array([[0, 1, 1]]),
        )
        for fmt in ("binary", "ascii"):
            normals = written_normals(write_stl(mesh, fmt))
            np.testing.assert_array_equal(normals, [[0.0, 0.0, 0.0]])

    def test_recomputed_normal(self):
        # The input's stored normal is (0, 0, 1) too; flip the winding so
        # that only a recomputed normal matches.
        mesh = weld(read_stl(ascii_stl_one_facet()), tol=0.0)
        mesh = TriMesh(mesh.vertices, mesh.facets[:, ::-1])
        for fmt in ("binary", "ascii"):
            normals = written_normals(write_stl(mesh, fmt))
            np.testing.assert_array_equal(normals, [[0.0, 0.0, -1.0]])

    def test_normals_are_unit_edge_cross_products(self):
        mesh = make_sphere(7, 9, radius=0.6)
        v, f = mesh.vertices, mesh.facets
        n = np.cross(v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 0]])
        n /= np.linalg.norm(n, axis=1)[:, None]
        binary = written_normals(write_stl(mesh, "binary"))
        np.testing.assert_array_equal(binary, n.astype(np.float32))
        np.testing.assert_array_equal(written_normals(write_stl(mesh, "ascii")), n)

    @pytest.mark.parametrize("fmt", ["binary", "ascii"])
    def test_bytes_match_np_cross_normals(self, monkeypatch, fmt):
        # A sphere plus a repeated-corner facet and a collinear one.
        sphere = make_sphere(7, 9, radius=0.6)
        n = sphere.vertex_count
        mesh = TriMesh(
            np.vstack([sphere.vertices, [[2.0, 0.0, 0.0], [3.0, 0.0, 0.0], [4.0, 0.0, 0.0]]]),
            np.vstack([sphere.facets, [[0, 0, 1], [n, n + 1, n + 2]]]),
        )
        normals = mesh_module._facet_normals(mesh)
        assert normals.tobytes() == np_cross_facet_normals(mesh).tobytes()
        data = write_stl(mesh, fmt)
        monkeypatch.setattr(mesh_module, "_facet_normals", np_cross_facet_normals)
        assert data == write_stl(mesh, fmt)


def extreme_meshes():
    # Signed zeros; subnormal coordinates, whose cross products underflow
    # to a zero normal; facets in the planes x = 1e300 and x = -DBL_MAX; and
    # 1e75-scale corners, whose cross products' squares stay finite.
    rng = np.random.default_rng(8)
    sphere = make_sphere(4, 5, radius=0.3)
    zeros = sphere.vertices.copy()
    zeros[np.abs(zeros) < 0.2] = -0.0
    tiny = np.array([[5e-324, 0.0, -0.0], [1e-310, -2.5e-320, 0.0], [-0.0, 3e-318, 1e-308]])
    huge = np.array([[1e300, 0.25, -1.0], [1e300, 1.0, 0.5], [1e300, -0.5, 2.0],
                     [-1.7976931348623157e308, 0.0, 0.0], [-1.7976931348623157e308, 1.0, 0.0],
                     [-1.7976931348623157e308, 0.0, 3.0]])
    large = rng.uniform(-1.0, 1.0, (9, 3)) * 1e75
    return {
        "signed_zeros": TriMesh(zeros, sphere.facets),
        "subnormal": TriMesh(tiny, [[0, 1, 2], [2, 1, 0]]),
        "huge": TriMesh(huge, [[0, 1, 2], [3, 5, 4]]),
        "large": TriMesh(large, np.arange(9).reshape(3, 3)),
        "sphere": make_sphere(7, 9, radius=0.6),
    }


@pytest.mark.parametrize("case", list(extreme_meshes()))
def test_ascii_writer_matches_the_line_loop(case):
    mesh = extreme_meshes()[case]
    data = write_stl(mesh, "ascii")
    assert data == loop_write_ascii(mesh)
    # %.17g round-trips every double, subnormals and signed zeros included.
    assert read_stl(data).corners.tobytes() == mesh.vertices[mesh.facets].tobytes()


def test_mutated_ascii_reads_as_the_token_loop():
    # Fixed-seed twin of test_stl_properties.py.
    for seed in range(1000):
        assert_read_matches_loop_on_mutated_ascii(np.random.default_rng(seed))


class TestFlatten:
    def test_layout(self):
        mesh = TriMesh(
            np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]),
            np.array([[0, 1, 1]]),
        )
        np.testing.assert_array_equal(flatten(mesh), [1, 2, 3, 4, 5, 6])

    def test_round_trip(self):
        mesh = make_tetra()
        again = unflatten(flatten(mesh), mesh)
        np.testing.assert_array_equal(again.vertices, mesh.vertices)
        np.testing.assert_array_equal(again.facets, mesh.facets)

    def test_empty_mesh(self):
        mesh = TriMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int))
        with pytest.raises(EmptyMesh):
            flatten(mesh)

    def test_unflatten_wrong_length(self):
        mesh = make_tetra()
        with pytest.raises(DimensionMismatch):
            unflatten(np.zeros(11), mesh)

    def test_unflatten_mirror(self):
        mesh = make_tetra()
        vec = flatten(mesh)
        vec[2::3] *= -1.0
        mirrored = unflatten(vec, mesh)
        np.testing.assert_array_equal(mirrored.facets, mesh.facets)
        np.testing.assert_array_equal(mirrored.vertices[:, 2], -mesh.vertices[:, 2])



def assert_gather_layout(mesh: TriMesh) -> None:
    # C-order vertices and Fortran-order int64 facets: each coordinate
    # column is a row of the staging copy and each corner's index column a
    # contiguous row of ``facets.T``, so the solve's gathers copy nothing.
    assert mesh.vertices.dtype == np.float64 and mesh.vertices.flags.c_contiguous
    assert mesh.facets.dtype == np.int64 and mesh.facets.flags.f_contiguous
    assert all(row.flags.c_contiguous for row in mesh.facets.T)


def assert_same_mesh_results(mesh: TriMesh, want: TriMesh) -> None:
    # ``mesh`` holds the coordinates and connectivity of ``want``, built
    # from C-order arrays; the solve matches the np.cross formula bit for
    # bit and both STL formats write the bytes of ``want``.
    assert_gather_layout(mesh)
    assert bits(mesh.vertices) == bits(want.vertices)
    assert np.array_equal(mesh.facets, want.facets)
    for cfg in (StubConfig(), StubConfig(frequency=(1.0, 7.0, 0.3), amplitude=2.5)):
        snap = evaluate(mesh, cfg)
        field, objective = np_cross_evaluate(mesh, cfg)
        assert snap.field.tobytes() == field.tobytes()
        assert snap.objective == objective
    for fmt in ("binary", "ascii"):
        assert write_stl(mesh, fmt) == write_stl(want, fmt)


def few_facets() -> tuple[np.ndarray, np.ndarray]:
    # 3 facets over 50 vertices: the staging row is wider than the facets.
    vertices = np.random.default_rng(3).standard_normal((50, 3))
    return vertices, np.array([[0, 1, 2], [3, 4, 5], [10, 20, 49]])


def sphere_arrays() -> tuple[np.ndarray, np.ndarray]:
    sphere = make_sphere(9, 12, radius=0.8)
    return np.array(sphere.vertices, order="C"), np.array(sphere.facets, order="C")


LAYOUTS = {
    "c_order": lambda v, f: (v.copy(), f.copy()),
    "fortran": lambda v, f: (np.asfortranarray(v), np.asfortranarray(f)),
    "int32": lambda v, f: (v, f.astype(np.int32)),
    # Integer-valued floats, as facets.bin stores them.
    "float": lambda v, f: (v, f.astype(float)),
    "strided": lambda v, f: (np.repeat(v, 2, axis=1)[:, ::2], np.repeat(f, 2, axis=1)[:, ::2]),
}


class TestGatherLayout:
    """Every mesh gathers through contiguous rows, whatever its input layout,
    and gives the results of C-order input."""

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("arrays", [sphere_arrays, few_facets])
    def test_input_layouts(self, layout, arrays):
        vertices, facets = arrays()
        got_v, got_f = LAYOUTS[layout](vertices, facets)
        if layout not in ("c_order", "int32", "float"):
            assert not (got_v.flags.c_contiguous and got_f.flags.c_contiguous)
        assert_same_mesh_results(TriMesh(got_v, got_f), TriMesh(vertices, facets))

    @pytest.mark.parametrize("bad", [1.9, 0.5, -0.5, np.nan])
    def test_non_integer_facet_indices_are_refused(self, bad):
        # The int64 cast would truncate 1.9 to 1: refused instead, with no
        # warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^facet indices must be integers$"):
                TriMesh(np.eye(3), [[0, 1, bad]])

    def test_weld(self):
        vertices, facets = sphere_arrays()
        mesh = weld(read_stl(write_stl(TriMesh(vertices, facets))), tol=1e-9)
        assert_same_mesh_results(mesh, TriMesh(np.array(mesh.vertices, order="C"),
                                               np.array(mesh.facets, order="C")))

    def test_morph_shares_the_reference_facets(self):
        reference = make_sphere(9, 12, radius=0.8)
        cfg = default_config(reference)
        jac = displacement_jacobian(cfg, reference.vertices)
        mu = np.random.default_rng(4).uniform(*cfg.bounds.T)
        morphed = morph(reference, jac, mu)
        assert morphed.facets is reference.facets
        assert_same_mesh_results(morphed, TriMesh(np.array(morphed.vertices, order="C"),
                                                  np.array(reference.facets, order="C")))

    def test_decode_and_the_loaded_reference(self, tmp_path):
        rng = np.random.default_rng(6)
        space = random_reduced_space(rng)
        save_reduced_space(tmp_path / "space", space)
        again = load_reduced_space(tmp_path / "space")
        for reference in (space.reference, again.reference):
            assert_gather_layout(reference)
        assert again.facets is again.reference.facets
        mesh = decode(again, again.bounding_box.mean(axis=1))
        assert mesh.facets is again.reference.facets
        assert_same_mesh_results(mesh, TriMesh(np.array(mesh.vertices, order="C"),
                                               make_tetra().facets.copy(order="C")))
