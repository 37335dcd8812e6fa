"""The command line's CSV reader and file digests."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folomin.cli import _read_numeric_csv, _sha256, main
from folomin.exceptions import DataError

EDGE_DOUBLES = [
    -1.5,
    0.1,
    1.0 / 3.0,
    -2.5e-300,
    1.7976931348623157e308,
    -1e22,
    5e-324,  # smallest subnormal
    2.2250738585072014e-308,  # smallest normal
    -0.0,
    0.0,
]


def _bits(a) -> np.ndarray:
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def _write_rows(path, header, rows, fmt):
    lines = [",".join(header)] + [",".join(fmt(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("fmt", [repr, lambda v: f"{v:.17g}"], ids=["repr", ".17g"])
def test_doubles_read_back_bit_identical(tmp_path, fmt):
    rows = [EDGE_DOUBLES[:5], EDGE_DOUBLES[5:]]
    path = tmp_path / "edge.csv"
    _write_rows(path, [f"c{j}" for j in range(5)], rows, fmt)
    header, values = _read_numeric_csv(path)
    assert header == [f"c{j}" for j in range(5)]
    np.testing.assert_array_equal(_bits(values), _bits(rows))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3, max_size=3),
        min_size=1,
        max_size=6,
    )
)
def test_finite_doubles_round_trip(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("csv") / "rows.csv"
    _write_rows(path, ["a", "b", "c"], rows, repr)
    _, values = _read_numeric_csv(path)
    np.testing.assert_array_equal(_bits(values), _bits(rows))


@pytest.mark.parametrize(
    "text, message",
    [
        ("a,b\n1.0,2.0\n3.0\n", "ragged row 3 has 1 cells, expected 2"),
        ("a,b\n1.0,2.0\n3.0,4.0,5.0\n", "ragged row 3 has 3 cells, expected 2"),
        ("a,b\n1.0,2.0,3.0\n4.0,5.0,6.0\n", "ragged row 2 has 3 cells, expected 2"),
        ("a,b\n1.0,x\n", "non-numeric cell at row 2, column 2: 'x'"),
        ("a,b\n1.0,2.0\n3.0,\n", "non-numeric cell at row 3, column 2: ''"),
        ("a,b\n", "no data rows"),
        ("", "empty file"),
    ],
    ids=["short-row", "long-row", "all-rows-wide", "non-numeric", "empty-cell", "header-only", "empty"],
)
def test_rejected_files_keep_exit_code_and_message(tmp_path, capsys, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    code = main(["fit", str(path), "--family", "gaussian", "--r", "1", "--out", str(tmp_path)])
    assert code == 3
    assert capsys.readouterr().err == f"data error: {path}: {message}\n"


def test_blank_lines_comment_marks_quotes_and_separators(tmp_path):
    # a blank line inside the data is skipped
    blank = tmp_path / "blank.csv"
    blank.write_text("a,b\n1.0,2.0\n\n3.0,4.0\n")
    np.testing.assert_array_equal(_read_numeric_csv(blank)[1], [[1.0, 2.0], [3.0, 4.0]])
    # and error coordinates still count it as a line
    blank_bad = tmp_path / "blank_bad.csv"
    blank_bad.write_text("a,b\n1.0,2.0\n\n3.0,x\n")
    with pytest.raises(DataError, match=r"non-numeric cell at row 4, column 2: 'x'"):
        _read_numeric_csv(blank_bad)

    # a quoted numeric cell is read as its number
    quoted = tmp_path / "quoted.csv"
    quoted.write_text('a,b\n"1.5",2.0\n')
    np.testing.assert_array_equal(_read_numeric_csv(quoted)[1], [[1.5, 2.0]])

    # a leading '#' is not a comment but a non-numeric cell
    hashed = tmp_path / "hashed.csv"
    hashed.write_text("a,b\n1.0,2.0\n#3.0,4.0\n")
    with pytest.raises(DataError, match=r"non-numeric cell at row 3, column 1: '#3.0'"):
        _read_numeric_csv(hashed)

    # digit separators, which float() accepts, are rejected
    underscored = tmp_path / "underscored.csv"
    underscored.write_text("a,b\n1_000,2.0\n")
    with pytest.raises(DataError, match=r"non-numeric cell at row 2, column 1: '1_000'"):
        _read_numeric_csv(underscored)


def test_sha256_streams_without_file_digest(tmp_path, monkeypatch):
    # hashlib.file_digest is new in Python 3.11; the package supports 3.10
    monkeypatch.delattr(hashlib, "file_digest", raising=False)
    payload = np.random.default_rng(0).bytes(5 * 2**19 + 7)  # spans three 1 MiB chunks
    path = tmp_path / "blob.bin"
    path.write_bytes(payload)
    assert _sha256(path) == hashlib.sha256(payload).hexdigest()
