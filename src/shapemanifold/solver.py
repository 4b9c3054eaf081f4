"""Deterministic synthetic solver.

Stands in for the expensive flow simulation the pipeline is usually
coupled with: it produces a per-vertex scalar field and a scalar
objective, both smooth in the vertex coordinates, so reduction and
optimization behavior can be exercised at desk scale.

Two modes are available. ``field-synthetic`` produces a trigonometric
field whose objective is its area-weighted mean, mimicking an integral
quantity such as drag. ``quadratic-centroid`` measures the squared
distance of a region's vertex centroid from a target point, giving the
optimizer tests an objective with a known analytic minimizer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyRegion
from .mesh import TriMesh, _facet_average


@dataclass(frozen=True)
class StubConfig:
    """Synthetic solver settings; fields are interpreted per mode."""

    mode: str = "field-synthetic"
    frequency: tuple[float, float, float] = (3.0, 2.0, 1.5)
    amplitude: float = 1.0
    target: tuple[float, float, float] = (0.0, 0.0, 0.0)
    region: np.ndarray | None = None

    def __post_init__(self):
        if self.mode not in ("field-synthetic", "quadratic-centroid"):
            raise ValueError(f"unknown stub mode {self.mode!r}")
        if self.region is not None:
            region = np.asarray(self.region, dtype=float).reshape(3, 2)
            if np.any(region[:, 0] > region[:, 1]):
                raise ValueError("region box must satisfy low <= high")
            object.__setattr__(self, "region", region)


@dataclass(frozen=True)
class SolutionSnapshot:
    """One solver run: per-vertex field and scalar objective."""

    field: np.ndarray
    objective: float

    def __post_init__(self):
        values = np.asarray(self.field, dtype=float).reshape(-1)
        if not np.isfinite(values).all() or not np.isfinite(self.objective):
            raise ValueError("solver output must be finite")
        object.__setattr__(self, "field", values)


def evaluate(mesh: TriMesh, cfg: StubConfig) -> SolutionSnapshot:
    """Run the synthetic solver on one geometry. Settings with which its
    arithmetic overflows on this geometry are refused with a ValueError
    that names them."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            if cfg.mode == "field-synthetic":
                return _field_synthetic(mesh, cfg)
            return _quadratic_centroid(mesh, cfg)
    except FloatingPointError:
        names = ("amplitude", "frequency") if cfg.mode == "field-synthetic" else ("target",)
        settings = ", ".join(f"stub.{name} {getattr(cfg, name)!r}" for name in names)
        raise ValueError(f"{settings}: the {cfg.mode} solver overflows on this "
                         "geometry") from None


def _field_synthetic(mesh: TriMesh, cfg: StubConfig) -> SolutionSnapshot:
    # The field amplitude sin(kx x) cos(ky y) + kz z ** 2, in place: each
    # ufunc runs on the operands, and in the order, of the plain expression,
    # so every value rounds as it does.
    v = mesh.vertices
    kx, ky, kz = cfg.frequency
    values = np.multiply(kx, v[:, 0])
    np.multiply(cfg.amplitude, np.sin(values, out=values), out=values)
    term = np.multiply(ky, v[:, 1])
    values *= np.cos(term, out=term)
    term = np.square(v[:, 2], out=term)
    term *= kz
    values += term
    return SolutionSnapshot(values, _facet_average(mesh, values))


def _quadratic_centroid(mesh: TriMesh, cfg: StubConfig) -> SolutionSnapshot:
    v = mesh.vertices
    target = np.asarray(cfg.target, dtype=float)
    values = ((v - target) ** 2).sum(axis=1)
    if cfg.region is None:
        inside = np.ones(len(v), dtype=bool)
    else:
        inside = np.all(
            (v >= cfg.region[:, 0]) & (v <= cfg.region[:, 1]), axis=1
        )
    if not inside.any():
        raise EmptyRegion("no vertices inside the region box")
    centroid = v[inside].mean(axis=0)
    objective = float(((centroid - target) ** 2).sum())
    return SolutionSnapshot(values, objective)

