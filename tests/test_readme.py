"""The README's worked example runs as written."""

import warnings
from pathlib import Path

import numpy as np

from shapemanifold.mesh import write_stl

from helpers import make_sphere

README = Path(__file__).resolve().parent.parent / "README.md"


def python_block(section: str) -> str:
    # The first ```python block after the heading ``section``.
    text = README.read_text()
    text = text[text.index(f"\n## {section}\n"):]
    start = text.index("```python\n") + len("```python\n")
    return text[start:text.index("```", start)]


def test_library_example_runs(tmp_path, monkeypatch):
    sphere = make_sphere(8, 10)
    (tmp_path / "geometry.stl").write_bytes(write_stl(sphere))
    monkeypatch.chdir(tmp_path)
    names = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(python_block("Library"), str(README), "exec"), names)
    assert names["mesh"].vertex_count == sphere.vertex_count
    assert names["nodes"].shape == (80, names["space"].dim)
    assert names["field"].shape == (names["fields"].shape[1],)
    assert np.isfinite(names["errors"]).all() and names["errors"].shape == (80,)
    assert set(names["summary"]) == {"mean", "max", "fewest_modes"}
