"""The CLI's number formatting: the one-template fast paths for float lists
and matrix rows write the same text as formatting each value on its own."""

import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from meanfield.cli import _json_text, _write_matrix_csv

EDGE_FLOATS = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1e308,
    -1e308, 1.7976931348623157e308, math.inf, -math.inf, math.nan, 0.1, 1 / 3,
])
FLOATS = st.one_of(st.floats(allow_nan=True, allow_infinity=True), EDGE_FLOATS)
SCALARS = st.one_of(FLOATS, st.integers(-(2**70), 2**70), st.booleans(), st.none())
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.dictionaries(st.text(max_size=3), inner, max_size=3),
    ),
    max_leaves=25,
)


def reference_json(value, indent=0):
    """Every list item formatted on its own, floats by ``format(v, ".17g")``."""
    pad, inner = "  " * indent, "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{inner}{json.dumps(str(k))}: {reference_json(v, indent + 1)}"
                 for k, v in value.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, list):
        if not value:
            return "[]"
        items = [f"{inner}{reference_json(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format(value, ".17g")
    assert value is None
    return "null"


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(VALUES)
def test_json_text_matches_itemwise_formatting(value):
    assert _json_text(value) == reference_json(value)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.lists(FLOATS, min_size=1, max_size=30))
def test_float_list_matches_numpy_scalar_items(values):
    # numpy float64 items are not Python floats, so they take the generic
    # path; both must give the same text
    assert _json_text(values) == _json_text([np.float64(v) for v in values])
    assert _json_text([values, values], 2) == reference_json([values, values], 2)


def test_mixed_int_float_list_keeps_its_ints():
    assert _json_text([1, 2.5, -0.0, True]) == "[\n  1,\n  2.5,\n  -0,\n  true\n]"


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.integers(1, 4).flatmap(lambda cols: st.tuples(
    st.just(cols),
    st.lists(st.lists(FLOATS, min_size=cols, max_size=cols), max_size=5),
)))
def test_matrix_csv_matches_itemwise_formatting(tmp_path_factory, shaped):
    cols, rows = shaped
    matrix = np.array(rows, dtype=float).reshape(len(rows), cols)
    path = tmp_path_factory.mktemp("csv") / "m.csv"
    _write_matrix_csv(path, matrix)
    want = "".join(",".join(format(float(v), ".17g") for v in row) + "\n"
                   for row in np.atleast_2d(matrix))
    assert path.read_text(encoding="utf-8") == want
