"""Lattice-based free form deformation.

A box lattice of control points is placed around (part of) the geometry.
Every point inside the box is mapped to local coordinates of the lattice
frame, blended against the displaced control points with a Bernstein
tensor product, and mapped back. Points outside the box never move, which
keeps the deformation local.

The blend is evaluated in displacement form: with undisplaced control
points the Bernstein tensor product reproduces the local coordinates
exactly (linear precision), so the deformation reduces to adding the
blended control-point displacements. Those displacements are linear in
the design parameters, so the morph of a fixed point set is one matrix:
:func:`displacement_jacobian` lays each parameter's map entries on its
own control grid and blends the grids into the (3 n_points, p) Jacobian
``J`` once, and :func:`morph` moves the reference by ``J mu``. Every
consumer of a parameter vector morphs through :func:`morph`, so all of
them see the same geometry, and the zero morph is an exact identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, SingularLattice
from .mesh import TriMesh

_ORTHO_RTOL = 1e-10


def bernstein_row(degree: int, t) -> np.ndarray:
    """All Bernstein basis values of one degree at ``t``.

    Uses the triangular recurrence (convex combinations only), which is
    numerically stable for t in [0, 1]. ``t`` may be a scalar or a 1-D
    array; the result has shape (..., degree + 1).
    """
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape + (degree + 1,))
    out[..., 0] = 1.0
    s = 1.0 - t
    for d in range(1, degree + 1):
        out[..., d] = t * out[..., d - 1]
        for j in range(d - 1, 0, -1):
            out[..., j] = t * out[..., j - 1] + s * out[..., j]
        out[..., 0] *= s
    return out


def _validate_frame(origin, axes):
    origin = np.asarray(origin, dtype=float).reshape(3)
    axes = np.asarray(axes, dtype=float).reshape(3, 3)
    lengths = np.linalg.norm(axes, axis=1)
    if np.any(lengths == 0.0):
        raise SingularLattice("lattice axis with zero length")
    for i in range(3):
        for j in range(i + 1, 3):
            dot = abs(float(axes[i] @ axes[j]))
            if dot > _ORTHO_RTOL * lengths[i] * lengths[j]:
                raise SingularLattice(
                    f"lattice axes {i} and {j} are not orthogonal "
                    f"(relative projection {dot / (lengths[i] * lengths[j]):.2e})"
                )
    return origin, axes


class MeshMorpher:
    """Precomputed blend weights of a fixed point set against the lattice
    frame of an :class:`FfdConfig`, which has validated that frame.

    Building the weights costs one Bernstein evaluation per point; after
    that, each control-grid displacement array is a single small matrix
    product. :func:`displacement_jacobian` blends one control grid per
    design parameter through it to build ``J``.
    """

    def __init__(self, points: np.ndarray, config: FfdConfig):
        self.axes = config.axes
        pts = np.asarray(points, dtype=float).reshape(-1, 3)
        inv = np.linalg.inv(config.axes.T)
        stu = (pts - config.origin) @ inv.T
        self.inside = np.all((stu >= 0.0) & (stu <= 1.0), axis=1)
        l, m, n = config.dims
        local = stu[self.inside]
        bx = bernstein_row(l, local[:, 0])
        by = bernstein_row(m, local[:, 1])
        bz = bernstein_row(n, local[:, 2])
        w = bx[:, :, None, None] * by[:, None, :, None] * bz[:, None, None, :]
        self.weights = w.reshape(local.shape[0], (l + 1) * (m + 1) * (n + 1))
        self.point_count = pts.shape[0]

    def displacement(self, displacements: np.ndarray) -> np.ndarray:
        """Physical displacement of every point for one displacement array."""
        out = np.zeros((self.point_count, 3))
        if self.weights.shape[0]:
            local = self.weights @ displacements.reshape(-1, 3)
            out[self.inside] = local @ self.axes
        return out


@dataclass(frozen=True)
class MapEntry:
    """One additive contribution of a design parameter to a control point."""

    param: int
    point: tuple[int, int, int]
    axis: int
    weight: float


@dataclass(frozen=True)
class FfdConfig:
    """Lattice geometry, the linear map from design parameters to
    control-point displacements (``entries``, whose contributions to the
    same control point and axis add up), and the design-parameter box."""

    origin: np.ndarray
    axes: np.ndarray
    dims: tuple[int, int, int]
    entries: tuple[MapEntry, ...]
    param_dim: int
    bounds: np.ndarray = field(default=None)

    def __post_init__(self):
        origin, axes = _validate_frame(self.origin, self.axes)
        dims = tuple(self.dims)
        if len(dims) != 3 or any(d < 1 for d in dims):
            raise ValueError("lattice degrees must be three integers >= 1")
        entries = tuple(self.entries)
        if self.param_dim < 1:
            raise ValueError("param_dim must be >= 1")
        for e in entries:
            if not 0 <= e.param < self.param_dim:
                raise ValueError(f"parameter index {e.param} outside 0..{self.param_dim - 1}")
            if e.axis not in (0, 1, 2):
                raise ValueError(f"axis must be 0, 1 or 2, got {e.axis}")
            if any(not 0 <= e.point[a] <= dims[a] for a in range(3)):
                raise ValueError(f"control point {e.point} outside lattice {dims}")
        bounds = self.bounds
        if bounds is None:
            bounds = np.tile([-0.3, 0.3], (self.param_dim, 1))
        bounds = np.asarray(bounds, dtype=float).reshape(self.param_dim, 2)
        if np.any(bounds[:, 0] >= bounds[:, 1]):
            raise ValueError("parameter bounds must satisfy lower < upper")
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "bounds", bounds)


def check_params(config: FfdConfig, params) -> np.ndarray:
    """One bool per row of ``params`` (a single vector is one row): True
    outside the configured box.

    The last axis must have ``param_dim`` entries. The box is a sampling
    convention, not a hard constraint: rows outside it are flagged, not
    refused.
    """
    params = np.atleast_2d(np.asarray(params, dtype=float))
    if params.shape[-1] != config.param_dim:
        raise DimensionMismatch(
            f"expected {config.param_dim} parameters, got {params.shape[-1]}"
        )
    low = config.bounds[:, 0] - 1e-12
    high = config.bounds[:, 1] + 1e-12
    return ((params < low) | (params > high)).any(axis=1)


def displacement_jacobian(config: FfdConfig, points) -> np.ndarray:
    """Displacement of a point set per unit of each design parameter.

    Column ``j`` is the flattened displacement field (x1, y1, z1, x2, ...)
    of the morph with parameter ``j`` at one and all others at zero. The
    blend is linear in the parameters, so the points moved by ``mu`` are
    ``flatten(points) + J @ mu`` (see :func:`morph`). Returns a
    (3 n_points, p) array.
    """
    morpher = MeshMorpher(points, config)
    # One control grid per parameter, laid in entry order: entries naming
    # the same parameter, control point and axis add up.
    l, m, n = config.dims
    grids = np.zeros((config.param_dim, l + 1, m + 1, n + 1, 3))
    for e in config.entries:
        grids[(e.param, *e.point, e.axis)] += e.weight
    jac = np.empty((3 * morpher.point_count, config.param_dim))
    for j, grid in enumerate(grids):
        jac[:, j] = morpher.displacement(grid).reshape(-1)
    return jac


def morph(reference: TriMesh, jac: np.ndarray, mu) -> TriMesh:
    """The reference moved by design parameters ``mu``: its vertices plus
    ``jac @ mu``, where ``jac`` is the :func:`displacement_jacobian` of
    those vertices.

    Connectivity, vertex count and vertex order are unchanged, so flat
    coordinate vectors of the output align with those of the input.
    ``mu`` is not checked against the box; see :func:`check_params`. A
    zero displacement leaves its coordinate untouched, ``-0.0`` included.
    """
    disp = (jac @ mu).reshape(-1, 3)
    vertices = reference.vertices + disp
    np.copyto(vertices, reference.vertices, where=disp == 0.0)
    return TriMesh(vertices, reference.facets)


def default_config(mesh: TriMesh) -> FfdConfig:
    """Out-of-the-box lattice: degree (2, 2, 2) spanning the mesh bounds.

    Five parameters in [-0.3, 0.3] drive the single fully interior control
    point (1, 1, 1): three along the axes with unit weight, plus two that
    reuse the x and y directions at half weight. The five inputs therefore
    excite only three independent displacement fields, and because only
    an interior point moves, the lattice box faces stay fixed.

    This is a stand-in parametrisation; real studies should ship their
    own lattice placement and parameter map.
    """
    box = mesh.bounding_box()
    extent = box[:, 1] - box[:, 0]
    # Guard flat geometries: a zero-thickness axis still needs a frame.
    extent = np.where(extent > 0.0, extent, max(extent.max(), 1.0))
    entries = (
        MapEntry(0, (1, 1, 1), 0, 1.0),
        MapEntry(1, (1, 1, 1), 1, 1.0),
        MapEntry(2, (1, 1, 1), 2, 1.0),
        MapEntry(3, (1, 1, 1), 0, 0.5),
        MapEntry(4, (1, 1, 1), 1, 0.5),
    )
    return FfdConfig(
        origin=box[:, 0],
        axes=np.diag(extent),
        dims=(2, 2, 2),
        entries=entries,
        param_dim=5,
    )

