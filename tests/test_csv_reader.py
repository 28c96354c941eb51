"""``read_data_csv`` against its line-by-line reader.

The public reader parses with numpy's C reader and falls back to the line
reader when that fails or finds no rows or a non-finite value.  For any
file the two must give bit-identical arrays, or the same
``DataFormatError`` (message and line), and neither may emit a warning.
Examples are derandomized, so every run tries the same inputs.
"""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from meanfield import engine
from meanfield.errors import DataFormatError


def outcome(reader, path):
    """``("ok", dtype, shape, bytes)`` or ``("error", message, line)``,
    with no warning let through."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            a = reader(path)
            result = ("ok", a.dtype.str, a.shape, a.tobytes())
        except DataFormatError as err:
            result = ("error", str(err), err.line)
    assert not caught, [str(w.message) for w in caught]
    return result


def check_same(path, data):
    path.write_bytes(data)
    assert outcome(engine.read_data_csv, path) == outcome(engine._read_data_csv_lines, path)


# Inputs where the C reader and Python's float() disagree, or that sit on
# an edge of either: control and non-ASCII whitespace, digits float()
# alone accepts, quoting and comment characters (neither reader treats
# them specially), line-ending variants, and non-finite values on a later
# line, whose line number only the line reader knows.
CASES = {
    "nul in a field": "1,2\n3\x00,4\n",
    "nul line": "1\n\x00\n2\n",
    "nbsp around a field": "1,\xa02\xa0\n",
    "nbsp line": "1\n\xa0\n2\n",
    "nel": "1\x85\n2,\n",
    "nel line": "1\n\x85\n2\n",
    "form feed line": "1\n\x0c\n2\n",
    "vertical tab": "1\x0b\n2\n",
    "underscore digits": "1_0,2\n3,4\n",
    "full-width digits": "１２\n3\n",
    "utf-8 bom": "﻿1,2\n3,4\n",
    "bare cr": "1,2\r3,4\r",
    "crlf": "1,2\r\n3,4\r\n",
    "whitespace-only line": "1,2\n  \t \n3,4\n",
    "whitespace-only first line": "   \n1\n",
    "trailing whitespace, no newline": "1,2\n   ",
    "trailing comma": "1,2,\n3,4,\n",
    "quoted fields": '"1","2"\n3,4\n',
    "hash line": "# header\n1,2\n",
    "hash after data": "1,2\n#3,4\n",
    "one row": "1.5,-2,3e-3",
    "one column": "1\n2\n3\n",
    "one value": "7\n",
    "inf on a later line": "1,2\n3,4\n5,inf\n",
    "nan on a later line": "1\n2\n3\nnan\n",
    "Infinity on a later line": "1\n-Infinity\n",
    "overflow on a later line": "1\n2\n1e999\n",
    "underflow": "1e-400,4.9e-324\n",
    "empty file": "",
    "newlines only": "\n\n\r\n",
    "blank only": " \n\t\n\x0c\n",
    "ragged": "1,2\n3\n",
    "hex": "0x10\n",
    "spaces around fields": " 1 , 2 \n",
    "ideographic space": "1,　2\n",
    "arabic-indic digit": "١\n",
}


@pytest.mark.parametrize("text", CASES.values(), ids=CASES.keys())
def test_seeded_case(tmp_path, text):
    check_same(tmp_path / "d.csv", text.encode("utf-8"))


def test_invalid_utf8_on_a_later_line(tmp_path):
    check_same(tmp_path / "d.csv", b"1,2\n3,4\n5,\xff\n")


WHITESPACE = ["", " ", "\t", "\xa0", "\x85", "\x0c", "\x0b", "　", "\x1c"]
FIELD = st.one_of(
    st.integers(-99, 99).map(str),
    st.floats().map(repr),
    st.tuples(
        st.sampled_from(WHITESPACE), st.floats(-1e6, 1e6).map(repr), st.sampled_from(WHITESPACE)
    ).map("".join),
    st.sampled_from(
        ["", "1_0", "３", "﻿1", "\x00", "inf", "-Infinity", "NaN", '"1"', "#",
         "1e999", "1e-400", "+.5", "5.", "1d5", "0x1", "1j"]
    ),
    st.text(max_size=3),
)
LINE = st.one_of(
    st.lists(FIELD, min_size=1, max_size=3).map(",".join),
    st.sampled_from(WHITESPACE),
)
TEXT = st.tuples(
    st.lists(st.tuples(LINE, st.sampled_from(["\n", "\r\n", "\r"])), max_size=6),
    st.sampled_from(["", "1", " ", "1,2"]),
).map(lambda t: "".join(line + end for line, end in t[0]) + t[1])
DATA = st.one_of(
    TEXT.map(str.encode),
    st.tuples(TEXT, st.binary(max_size=3), TEXT).map(
        lambda t: t[0].encode() + t[1] + t[2].encode()
    ),
)


@settings(
    max_examples=300,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=DATA)
def test_matches_line_reader(tmp_path, data):
    check_same(tmp_path / "d.csv", data)


def test_well_formed_file_takes_the_fast_path(tmp_path, monkeypatch):
    path = tmp_path / "d.csv"
    path.write_text("1,2\n3,4\n")

    def fail(_):
        raise AssertionError("line reader used for a well-formed file")

    monkeypatch.setattr(engine, "_read_data_csv_lines", fail)
    assert np.array_equal(engine.read_data_csv(path), [[1.0, 2.0], [3.0, 4.0]])
