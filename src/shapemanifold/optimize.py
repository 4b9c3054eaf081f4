"""Derivative-free minimization over the reduced feasible region.

Multistart Nelder-Mead with a quadratic penalty for infeasible trial
points. The surrogate objective is cheap, so a modest multistart budget
covers the small reduced space well.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleRegion
from .manifold import ReducedSpace, _row_dots, sample_reduced

_DIAMETER_TOL = 1e-6
_SPREAD_TOL = 1e-10


@dataclass(frozen=True)
class OptProblem:
    """Objective over reduced coordinates, constrained to the feasible region."""

    objective: callable
    space: ReducedSpace
    budget: int = 200
    starts: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.starts < 1:
            raise ValueError("need at least one start")
        if self.budget < self.space.dim + 2:
            raise ValueError("budget must allow at least one simplex per start")


@dataclass(frozen=True)
class OptResult:
    """Best feasible point found, with per-start evaluation traces."""

    best_mu: np.ndarray
    best_value: float
    evaluations: int
    traces: tuple


def _nelder_mead(f, x0: np.ndarray, f0: float, steps: np.ndarray, budget: int) -> int:
    """Classic simplex descent from ``x0``, whose value ``f0`` is given;
    returns the number of evaluations, the one of ``x0`` included.

    The d + 1 vertices are the rows of one (d + 1, d) array, sorted by value
    at each step in the order of ``np.argsort(kind="stable")``: ties keep
    their places and NaN values go last."""
    count = 1

    def call(x):
        nonlocal count
        count += 1
        return f(x)

    d = x0.size
    simplex = np.tile(x0, (d + 1, 1))
    simplex[range(1, d + 1), range(d)] += steps
    values = [f0] + [call(x) for x in simplex[1:]]

    while count < budget:
        order = sorted(range(d + 1), key=lambda i: (values[i] != values[i], values[i]))
        simplex = simplex[order]
        values = [values[i] for i in order]
        best, worst = simplex[0], simplex[-1]
        # Each row's norm as ``np.linalg.norm`` rounds it: the root of a
        # BLAS dot of the row with itself.
        offsets = simplex[1:] - best
        diameter = max(np.sqrt(_row_dots(offsets, offsets)).tolist())
        if diameter < _DIAMETER_TOL or values[-1] - values[0] < _SPREAD_TOL:
            break
        centroid = simplex[:-1].sum(axis=0) / d  # ``np.mean``'s order
        reflected = centroid + (centroid - worst)
        fr = call(reflected)
        if fr < values[0]:
            expanded = centroid + 2.0 * (centroid - worst)
            fe = call(expanded)
            if fe < fr:
                simplex[-1], values[-1] = expanded, fe
            else:
                simplex[-1], values[-1] = reflected, fr
        elif fr < values[-2]:
            simplex[-1], values[-1] = reflected, fr
        else:
            if fr < values[-1]:
                contracted = centroid + 0.5 * (reflected - centroid)
            else:
                contracted = centroid - 0.5 * (centroid - worst)
            fc = call(contracted)
            if fc < min(fr, values[-1]):
                simplex[-1], values[-1] = contracted, fc
            else:  # shrink toward the best vertex
                for i in range(1, d + 1):
                    vertex = best + 0.5 * (simplex[i] - best)
                    simplex[i], values[i] = vertex, call(vertex)
                    if count >= budget:
                        break
    return count


def minimize(problem: OptProblem) -> OptResult:
    """Run all starts and return the best feasible point seen anywhere.

    Start points are drawn from the feasible region with the problem
    seed, so results are reproducible. Trial points outside the region
    are evaluated with a quadratic penalty added (the objective must
    tolerate mild excursions; surrogates do): the space's infeasibility,
    which is zero exactly where ``space.contains`` holds. Each start is
    evaluated once, and is the first, feasible trial of its trace. The
    reported best value is the raw objective, minimized over feasible
    evaluations only; among equal values the first such trial in trace
    order wins.
    """
    space = problem.space
    starts = sample_reduced(space, problem.starts, problem.seed)
    start_values = [float(problem.objective(x)) for x in starts]
    scale = max(max(abs(v) for v in start_values), 1e-8)
    weight = 1e3 * scale

    box = space.bounding_box
    widths = box[:, 1] - box[:, 0]
    steps = np.where(widths > 0.0, 0.05 * widths, 1e-3)

    trials: list[tuple[np.ndarray, float]] = []
    feasible: list[bool] = []

    def record(x, value):
        trials.append((x.copy(), value))
        excess = space.infeasibility(x)
        feasible.append(excess == 0.0)
        return value + weight * excess

    def penalized(x):
        return record(x, float(problem.objective(x)))

    traces = []
    for x0, value in zip(starts, start_values):
        count = _nelder_mead(penalized, x0, record(x0, value), steps, problem.budget)
        traces.append(tuple(trials[-count:]))

    best_mu: np.ndarray | None = None
    best_value = np.inf
    for (x, value), ok in zip(trials, feasible):
        if ok and value < best_value:
            best_mu, best_value = x.copy(), value

    if best_mu is None:
        raise InfeasibleRegion("no feasible point was evaluated")
    return OptResult(
        best_mu=best_mu,
        best_value=best_value,
        evaluations=len(trials),
        traces=tuple(traces),
    )
