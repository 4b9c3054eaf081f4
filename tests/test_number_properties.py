"""Property tests of ``mesh.parse_number``. Every finite double printed as
the writers print it (``repr`` for CSV cells, ``%.17g`` for STL numbers)
reads back bit for bit, and the same text with a digit-group underscore
inserted anywhere is refused. Any text over an alphabet of number
characters is a number exactly when, stripped of spaces, it matches the
decimal-float grammar of ``helpers.DECIMAL_FLOAT``."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from shapemanifold.mesh import parse_number  # noqa: E402

from helpers import DECIMAL_FLOAT, bits  # noqa: E402


@hypothesis.settings(max_examples=500, deadline=None)
@hypothesis.given(st.floats(allow_nan=False, allow_infinity=False), st.data())
def test_printed_doubles_read_back(x, data):
    for text in (repr(x), "%.17g" % x):
        assert bits(parse_number(text)) == bits(x)
        cut = data.draw(st.integers(0, len(text)))
        with pytest.raises(ValueError, match="could not convert string to float"):
            parse_number(text[:cut] + "_" + text[cut:])


@hypothesis.settings(max_examples=500, deadline=None)
@hypothesis.given(st.text(alphabet="0123456789.eE+-_naifty١ ", max_size=12))
def test_numbers_are_the_decimal_float_grammar(text):
    if DECIMAL_FLOAT.fullmatch(text.strip(" ")):
        assert bits(parse_number(text)) == bits(float(text))
    else:
        with pytest.raises(ValueError, match="could not convert string to float"):
            parse_number(text)
