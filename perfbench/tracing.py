"""Span tracing of the package from outside it.

``Tracer.install`` wraps the public functions of each layer module (and
the few public methods that mark layer boundaries) at every place they
are bound: a function imported by name into another module, or re-exported
by the package, is replaced there too. Each call records a span (name,
start, end, parent, thread) in memory. ``layer_metrics`` derives the
per-layer numbers from the spans once the traced pass is over.

Spans opened on a thread with no open span of its own (the evaluate
thread pool) take the main thread's innermost open span as parent.

Self time is attributed by a sweep over span boundaries: in each interval
the innermost open spans share it equally. Spans that run in parallel
threads therefore split the wall time they overlap, so the self times of
a stage and everything below it add up to the stage's wall time.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import sys
import threading
import time
from pathlib import Path

import numpy as np

import shapemanifold
from shapemanifold import ffd, manifold, rom

LAYERS = ("config", "mesh", "ffd", "pod", "manifold", "solver", "rom", "optimize",
          "artifacts")
STAGES = ("build-manifold", "evaluate-full", "evaluate-reduced", "compare-decay",
          "build-rom", "predict", "optimize-rom", "optimize-stub")


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "note", "_tracer")

    def __init__(self, tracer, name, parent, note=None):
        self._tracer = tracer
        self.name = name
        self.parent = parent
        self.thread = threading.get_ident()
        self.note = note
        self.end = None
        self.start = time.perf_counter()

    def close(self):
        self.end = time.perf_counter()
        self._tracer._pop(self)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.trial_points: list = []  # (space, x) for every objective call
        self.saved_paths: list[tuple[str, Path]] = []  # ("file"|"dir", path)
        self.sampler_checks = 0  # ReducedSpace.contains calls inside the sampler
        self.sampler_accepted = 0  # ... of which returned True
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._main_thread = threading.get_ident()
        self._undo: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, note=None) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        span = Span(self, name, parent, note)
        self.spans.append(span)
        stack.append(span)
        return span

    def _pop(self, span: Span):
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def _innermost(self) -> str | None:
        stack = self._stack()
        return stack[-1].name if stack else None

    # -- patching ----------------------------------------------------------

    def _wrap(self, name: str, fn, note=None, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer.span(name, note(*args, **kwargs) if note else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.close()
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _set(self, owner, attr: str, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every public layer function wherever it is bound."""
        modules = [shapemanifold] + [
            m for name, m in sorted(sys.modules.items())
            if name.startswith("shapemanifold.") and m is not None
        ]
        notes = {
            "pod.compute_pod": _snapshot_bytes,
            "rom.fit_interpolator": _system_rows,
        }
        for layer in LAYERS:
            module = sys.modules[f"shapemanifold.{layer}"]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                impl = self._traced_minimize(fn) if name == "optimize.minimize" else fn
                wrapper = self._wrap(name, impl, notes.get(name), self._after(layer, attr))
                for target in modules:
                    if vars(target).get(attr) is fn:
                        self._set(target, attr, wrapper)

        self._set(ffd.MeshMorpher, "__init__",
                  self._wrap("ffd.morpher_init", ffd.MeshMorpher.__init__))
        self._set(ffd.MeshMorpher, "displacement",
                  self._wrap("ffd.displacement", ffd.MeshMorpher.displacement))
        self._set(rom.SolutionDatabase, "__post_init__",
                  self._wrap("rom.database_init", rom.SolutionDatabase.__post_init__))
        contains = manifold.ReducedSpace.contains
        tracer = self

        def counted_contains(space, mu_red):
            inside = contains(space, mu_red)
            if tracer._innermost() == "manifold.sample_reduced":
                tracer.sampler_checks += 1
                tracer.sampler_accepted += bool(inside)
            return inside

        self._set(manifold.ReducedSpace, "contains", counted_contains)
        self._contains = contains

    def _traced_minimize(self, minimize):
        """``optimize.minimize`` with its problem's objective wrapped: each
        call is an ``optimize.objective`` span, and its trial point is kept
        to count feasible evaluations afterwards."""
        tracer = self

        def traced_minimize(problem):
            objective = problem.objective
            space = problem.space

            def traced_objective(x):
                tracer.trial_points.append((space, np.array(x, dtype=float)))
                span = tracer.span("optimize.objective")
                try:
                    return objective(x)
                finally:
                    span.close()

            return minimize(dataclasses.replace(problem, objective=traced_objective))

        return traced_minimize

    def _after(self, layer: str, attr: str):
        if layer != "artifacts" or not attr.startswith("save_"):
            return None
        kind = "dir" if attr in ("save_reduced_space", "save_solution_database",
                                 "save_rom") else "file"

        def record(args, kwargs, result):
            self.saved_paths.append((kind, Path(args[0])))

        return record

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- derived metrics ---------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Attributed self time of every closed span, keyed by id()."""
        spans = [s for s in self.spans if s.end is not None]
        events = []
        for s in spans:
            events.append((s.start, 1, s))
            events.append((s.end, 0, s))
        events.sort(key=lambda e: (e[0], e[1]))
        active: dict[int, Span] = {}
        open_children: dict[int, int] = {}
        attributed = {id(s): 0.0 for s in spans}
        last = None
        for t, kind, s in events:
            if last is not None and t > last and active:
                leaves = [a for k, a in active.items() if open_children.get(k, 0) == 0]
                share = (t - last) / len(leaves)
                for leaf in leaves:
                    attributed[id(leaf)] += share
            last = t
            parent_key = id(s.parent) if s.parent is not None else None
            if kind == 1:
                active[id(s)] = s
                if parent_key in active:
                    open_children[parent_key] = open_children.get(parent_key, 0) + 1
            else:
                active.pop(id(s), None)
                if parent_key in active:
                    open_children[parent_key] -= 1
        return attributed


# Span notes: a number computed from a call's arguments.


def _snapshot_bytes(matrix, *args, **kwargs) -> int:
    """Bytes of the float64 snapshot matrix passed to compute_pod."""
    return int(np.prod(np.shape(matrix))) * 8


def _system_rows(nodes, values=None, kernel="gaussian", *args, **kwargs) -> int:
    """Rows of the RBF system fit_interpolator solves (thin-plate adds the
    affine tail)."""
    rows, dim = np.atleast_2d(np.asarray(nodes)).shape
    return rows + (dim + 1 if kernel == "thin-plate" else 0)


def _bytes_written(saved_paths) -> int:
    files = set()
    for kind, path in saved_paths:
        if kind == "file":
            if path.is_file():
                files.add(path.resolve())
        elif path.is_dir():
            files.update(p.resolve() for p in path.rglob("*") if p.is_file())
    return sum(p.stat().st_size for p in files)


def layer_metrics(tracer: Tracer) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, plus the accounting check:
    for each CLI stage span, its subtree's self times add up to its wall."""
    spans = [s for s in tracer.spans if s.end is not None]
    attributed = tracer.self_times()
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total(name):
        return sum(s.end - s.start for s in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def self_total(name):
        return sum(attributed[id(s)] for s in by_name.get(name, ()))

    def outer_total(prefix):
        out = 0.0
        for s in spans:
            if not s.name.startswith(prefix):
                continue
            p = s.parent
            while p is not None and not p.name.startswith(prefix):
                p = p.parent
            if p is None:
                out += s.end - s.start
        return out

    def note_sum(name):
        return sum(s.note for s in by_name.get(name, ()))

    feasible = sum(1 for space, x in tracer.trial_points if tracer._contains(space, x))
    objective_calls = calls("optimize.objective")
    predict = [s.end - s.start for s in by_name.get("rom.predict", ())]
    loo = by_name.get("rom.loo_error", ())
    folds = sum(1 for s in by_name.get("rom.build_rom", ())
                if _has_ancestor(s, "rom.loo_error"))
    evaluate_calls = calls("solver.evaluate")

    m = {
        "mesh.weld_s": total("mesh.weld"),
        "mesh.weld.calls": calls("mesh.weld"),
        "mesh.read_stl_s": total("mesh.read_stl"),
        "mesh.unflatten_s": total("mesh.unflatten"),
        "mesh.unflatten.calls": calls("mesh.unflatten"),
        "ffd.morpher_init_s": total("ffd.morpher_init"),
        "ffd.displacement_s": total("ffd.displacement"),
        "ffd.displacement.calls": calls("ffd.displacement"),
        "ffd.apply_params.calls": calls("ffd.apply_params"),
        "pod.compute_pod_s": total("pod.compute_pod"),
        "pod.compute_pod.calls": calls("pod.compute_pod"),
        "pod.snapshot_bytes": note_sum("pod.compute_pod"),
        "pod.reconstruct_s": total("pod.reconstruct"),
        "pod.reconstruct.calls": calls("pod.reconstruct"),
        "manifold.build_geometry_pod.self_s": self_total("manifold.build_geometry_pod"),
        "manifold.build_reduced_space_s": total("manifold.build_reduced_space"),
        "manifold.sample_reduced_s": total("manifold.sample_reduced"),
        "manifold.sample_acceptance": (
            tracer.sampler_accepted / tracer.sampler_checks
            if tracer.sampler_checks else 0.0
        ),
        "manifold.decode_s": total("manifold.decode"),
        "manifold.decode.calls": calls("manifold.decode"),
        "solver.evaluate_s": total("solver.evaluate"),
        "solver.evaluate.calls": evaluate_calls,
        "solver.evaluate_us_per_call": (
            total("solver.evaluate") / evaluate_calls * 1e6 if evaluate_calls else 0.0
        ),
        "rom.database_init_s": total("rom.database_init"),
        "rom.database_init.calls": calls("rom.database_init"),
        "rom.fit_interpolator_s": total("rom.fit_interpolator"),
        "rom.fit_interpolator.calls": calls("rom.fit_interpolator"),
        "rom.build_rom.self_s": self_total("rom.build_rom"),
        "rom.loo_fold_s": sum(s.end - s.start for s in loo) / folds if folds else 0.0,
        "rom.predict_us": float(np.median(predict)) * 1e6 if predict else 0.0,
        "rom.system_rows": note_sum("rom.fit_interpolator"),
        "optimize.objective.calls": objective_calls,
        "optimize.overhead_us_per_eval": (
            self_total("optimize.minimize") / objective_calls * 1e6
            if objective_calls else 0.0
        ),
        "optimize.feasible_frac": feasible / objective_calls if objective_calls else 0.0,
        "artifacts.save_s": outer_total("artifacts.save_"),
        "artifacts.load_s": outer_total("artifacts.load_"),
        "artifacts.bytes_written": _bytes_written(tracer.saved_paths),
        "config.load_s": total("config.load_pipeline_config"),
    }
    for stage in STAGES:
        m[f"cli.{stage}.self_s"] = self_total(f"cli.{stage}")

    checks = {}
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append(s)
    for s in spans:
        if not s.name.startswith("cli."):
            continue
        subtree, todo = 0.0, [s]
        while todo:
            node = todo.pop()
            subtree += attributed[id(node)]
            todo.extend(children.get(id(node), ()))
        wall = s.end - s.start
        checks[f"self_times_add_up.{s.name}"] = abs(subtree - wall) <= 1e-6 * max(wall, 1.0)
    return m, checks


def _has_ancestor(span: Span, name: str) -> bool:
    p = span.parent
    while p is not None:
        if p.name == name:
            return True
        p = p.parent
    return False


def dump_spans(tracer: Tracer, path: Path):
    """Write the spans as JSON lines: name, start, end, parent index, thread."""
    index = {id(s): i for i, s in enumerate(tracer.spans)}
    t0 = tracer.spans[0].start if tracer.spans else 0.0
    with open(path, "w") as handle:
        for s in tracer.spans:
            handle.write(json.dumps({
                "name": s.name,
                "start": s.start - t0,
                "end": None if s.end is None else s.end - t0,
                "parent": index.get(id(s.parent)),
                "thread": s.thread,
            }) + "\n")
