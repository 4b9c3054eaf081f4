"""Property test: a config value of another JSON kind is refused by name.

Each example takes one field of a section that is read as a dataclass
(``sampling``, ``reduction``, ``rom``, ``optimizer``, ``stub`` and an ffd
map entry), sets it to a JSON value of a kind its type does not admit, and
expects ``load_pipeline_config`` to refuse the file naming
``<section>.<field>``. The kinds each field admits are listed here, apart
from the reader's own table.
"""

import json
import re
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from shapemanifold.config import load_pipeline_config  # noqa: E402
from shapemanifold.errors import ArtifactError  # noqa: E402

NUMBER = {"int", "float"}
ENTRY = "ffd.parameters.entries[0]"
ADMITTED = {
    "sampling": {"n_train": {"int"}, "n_full": {"int"}, "n_reduced": {"int"},
                 "seed": {"int"}},
    "reduction": {"r2_threshold": NUMBER, "max_vertices": {"int", "null"},
                  "pair": {"list", "null"}},
    "rom": {"kernel": {"str"}, "epsilon": NUMBER | {"null"}},
    "optimizer": {"starts": {"int"}, "budget": {"int"}, "seed": {"int", "null"}},
    "stub": {"mode": {"str"}, "frequency": {"list"}, "amplitude": NUMBER,
             "target": {"list"}, "region": {"object", "null"}},
    ENTRY: {"param": {"int"}, "point": {"list"}, "axis": {"int"}, "weight": NUMBER},
}
KIND = {type(None): "null", bool: "bool", int: "int", float: "float", str: "str",
        list: "list", dict: "object"}
JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4),
    st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)
ENTRY_VALUES = {"param": 0, "point": [1, 1, 1], "axis": 0, "weight": 1.0}


def config_with(section: str, name: str, value) -> dict:
    if section != ENTRY:
        return {"reference_stl": "ref.stl", section: {name: value}}
    ffd = {
        "origin": [0, 0, 0],
        "axes": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        "dims": [1, 1, 1],
        "parameters": {"dim": 1, "entries": [{**ENTRY_VALUES, name: value}]},
        "bounds": {"lower": [-0.1], "upper": [0.1]},
    }
    return {"reference_stl": "ref.stl", "ffd": ffd}


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(
    st.sampled_from(sorted((s, f) for s, names in ADMITTED.items() for f in names)),
    st.data(),
)
def test_a_value_of_another_json_kind_is_refused_by_name(field, data):
    section, name = field
    value = data.draw(JSON_VALUES.filter(lambda v: KIND[type(v)] not in ADMITTED[section][name]))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pipeline.json"
        path.write_text(json.dumps(config_with(section, name, value)))
        with pytest.raises(ArtifactError, match=re.escape(f"({section}.{name} must be ")):
            load_pipeline_config(path)
