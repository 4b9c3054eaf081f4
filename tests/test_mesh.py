import struct

import numpy as np
import pytest

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

from helpers import ascii_stl_one_facet, make_sphere, make_tetra


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
    corners = np.array([tri1, tri2])
    return FacetSoup(np.zeros((2, 3)), corners, np.zeros(2, dtype=np.uint16))


class TestReadStl:
    def test_binary_one_facet(self):
        data = one_facet_binary()
        assert len(data) == 134  # 80 + 4 + 50
        soup = read_stl(data)
        assert len(soup) == 1
        np.testing.assert_allclose(soup.corners[0, 1], [1.0, 0.0, 0.0])

    def test_ascii_one_facet(self):
        soup = read_stl(ascii_stl_one_facet())
        assert len(soup) == 1
        np.testing.assert_allclose(soup.normals[0], [0.0, 0.0, 1.0])
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
        assert len(soup) == 1

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
        assert len(soup) == 1
        np.testing.assert_allclose(soup.corners[0, 0], [-0.15, 0.0, 0.0])

    def test_ascii_no_facets(self):
        with pytest.raises(EmptyMesh):
            read_stl(b"solid empty\nendsolid empty\n")

    def test_nan_vertex_rejected(self):
        text = ascii_stl_one_facet().replace(b"vertex 1 0 0", b"vertex nan 0 0")
        with pytest.raises(MalformedStl):
            read_stl(text)


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
        soup = FacetSoup(np.zeros((40, 3)), corners, np.zeros(40, dtype=np.uint16))
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
        # write/read cycle must reproduce the soup exactly.
        soup1 = read_stl(write_stl(make_sphere(4, 6), "binary"))
        soup2 = read_stl(write_stl(weld(soup1, tol=0.0), "binary"))
        soup3 = read_stl(write_stl(weld(soup2, tol=0.0), "binary"))
        np.testing.assert_array_equal(soup2.corners, soup3.corners)
        np.testing.assert_array_equal(soup2.normals, soup3.normals)
        np.testing.assert_array_equal(soup2.attributes, soup3.attributes)

    def test_degenerate_facet_zero_normal(self):
        mesh = TriMesh(
            np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
            np.array([[0, 1, 1]]),
        )
        soup = read_stl(write_stl(mesh, "binary"))
        np.testing.assert_array_equal(soup.normals[0], [0.0, 0.0, 0.0])

    def test_recomputed_normal(self):
        mesh = weld(read_stl(ascii_stl_one_facet()), tol=0.0)
        soup = read_stl(write_stl(mesh, "binary"))
        np.testing.assert_allclose(soup.normals[0], [0.0, 0.0, 1.0])

    def test_normals_are_unit_edge_cross_products(self):
        mesh = make_sphere(7, 9, radius=0.6)
        v, f = mesh.vertices, mesh.facets
        n = np.cross(v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 0]])
        n /= np.linalg.norm(n, axis=1)[:, None]
        soup = read_stl(write_stl(mesh, "binary"))
        np.testing.assert_array_equal(soup.normals, n.astype(np.float32))


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
        assert again.weld_tolerance == mesh.weld_tolerance

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
