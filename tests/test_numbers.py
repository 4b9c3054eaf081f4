"""Numbers in text input: the ASCII STL reader, a database's index.csv and
``--mu`` read each number through ``mesh.parse_number``. One table of
tokens goes through all three: the refused ones must be refused with the
reader's own message, and the others must read bit for bit as ``float``
reads them."""

import numpy as np
import pytest

from shapemanifold import cli
from shapemanifold.artifacts import load_solution_database, save_solution_database
from shapemanifold.errors import ArtifactError, MalformedStl, ShapeManifoldError
from shapemanifold.mesh import read_stl
from shapemanifold.rom import SolutionDatabase

from helpers import ascii_stl_one_facet, bits

# Digit-group underscores and a non-ASCII digit (ARABIC-INDIC ONE): all but
# the leading underscore are numbers to ``float``.
REFUSED = ["1_0", "_1", "1e1_0", "١"]
READ = ["-0.0", "1E0", ".5", "5.", "+1e-3", "5e-324", "2.5e-310",
        "1.7976931348623157e308"]


def test_ascii_stl_numbers():
    for tok in REFUSED + READ:
        text = ascii_stl_one_facet().replace(b"vertex 1 0 0", f"vertex {tok} 0 0".encode())
        if tok in READ:
            assert bits(read_stl(text).corners[0, 1, 0]) == bits(float(tok))
        elif tok.isascii():
            with pytest.raises(MalformedStl, match=f"^expected a number, found '{tok}'$"):
                read_stl(text)
        else:
            with pytest.raises(MalformedStl, match="^ASCII STL is not valid text: "):
                read_stl(text)


def test_index_csv_numbers(tmp_path):
    # The token in the first parameter cell of row 0 and the objective cell
    # of row 1.
    rng = np.random.default_rng(3)
    db = SolutionDatabase(rng.uniform(1.0, 2.0, (3, 2)), rng.standard_normal((3, 4)),
                          rng.standard_normal(3))
    save_solution_database(tmp_path / "db", db)
    index = tmp_path / "db" / "index.csv"
    lines = index.read_text().splitlines()
    for tok in REFUSED + READ:
        edited = list(lines)
        cols = edited[1].split(",")
        edited[1] = ",".join([cols[0], tok, *cols[2:]])
        edited[2] = edited[2].rsplit(",", 1)[0] + "," + tok
        index.write_text("\n".join(edited) + "\n", encoding="utf-8")
        if tok in READ:
            again = load_solution_database(tmp_path / "db")
            assert bits(again.params[0, 0]) == bits(float(tok))
            assert bits(again.objectives[1]) == bits(float(tok))
            assert bits(again.fields) == bits(db.fields)
        else:
            with pytest.raises(ArtifactError) as caught:
                load_solution_database(tmp_path / "db")
            assert str(caught.value) == (f"{index}: line 2: malformed row "
                                         f"(could not convert string to float: {tok!r})")


def test_mu_numbers():
    for tok in REFUSED + READ:
        text = f"{tok},0,0"
        if tok in READ:
            assert bits(cli._parse_mu(text, 3)) == bits([float(tok), 0.0, 0.0])
        else:
            with pytest.raises(ShapeManifoldError) as caught:
                cli._parse_mu(text, 3)
            assert str(caught.value) == f"cannot parse parameter vector {text!r}"
