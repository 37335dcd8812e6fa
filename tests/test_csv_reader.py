"""The command line's CSV reader and file digests."""

import faulthandler
import hashlib
import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folomin import cli
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


def test_byte_order_mark_is_not_part_of_the_header(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(b'\xef\xbb\xbf"a",b\n1.0,2.0\n')
    header, values = _read_numeric_csv(path)
    assert header == ["a", "b"]
    np.testing.assert_array_equal(values, [[1.0, 2.0]])


# --------------------------------------------------------------------- #
# the split parse: data rows cut into byte blocks, all but the last
# parsed in forked children
# --------------------------------------------------------------------- #


@pytest.fixture
def blocks(monkeypatch):
    """Set the number of blocks a file of a few bytes is cut into."""
    monkeypatch.setattr(cli, "BLOCK_BYTES", 1)

    def use(k):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: k)

    return use


def _serial_and_split(path, use, k):
    use(1)
    serial = _read_numeric_csv(path)
    use(k)
    assert len(cli._block_cuts(path)) > 2  # the file is split
    return serial, _read_numeric_csv(path)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


SPLIT_FILES = {
    "crlf": b"a,b\r\n1.5,2\r\n3,-4e3\r\n5,6\r\n7,8\r\n",
    "blank-at-cut": b"a,b\n1,2\n" + b"\n" * 20 + b"3,4\n",
    "quoted": b'a,b\n"1.5",2\n3,"-4e3"\n"5","6"\n',
    # the header record's first line is longer than a block
    "header-newline": b'"' + b"a" * 20 + b'\nx",b\n1,2\n3,4\n5,6\n',
    "fewer-rows-than-blocks": b"a,b\n1,2\n3,4\n",
    # a cut falls inside the quoted cell, so its block fails and the
    # whole file is parsed again in one piece
    "quoted-newline-at-cut": b'a,b\n"1.0\n",2\n3,4\n',
    "bom": b"\xef\xbb\xbfa,b\n1,2\n3,4\n5,6\n",
}


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("content", SPLIT_FILES.values(), ids=SPLIT_FILES.keys())
def test_split_parse_matches_serial(tmp_path, blocks, content, k):
    path = tmp_path / "data.csv"
    path.write_bytes(content)
    (header, serial), (split_header, split) = _serial_and_split(path, blocks, k)
    assert split_header == header
    np.testing.assert_array_equal(_bits(split), _bits(serial))
    _no_child_left()


BAD_ROWS = {
    "non-numeric": b"4,x\n",
    "ragged": b"4,5,6\n",
    "not-utf8": b"4,\xe9\n",
}


@pytest.mark.parametrize("where", ["first", "last"])
@pytest.mark.parametrize("bad", BAD_ROWS.values(), ids=BAD_ROWS.keys())
def test_split_parse_reports_a_bad_row_as_serial(tmp_path, blocks, bad, where):
    rows = [b"1,2\n", b"3,4\n", b"5,6\n", b"7,8\n"]
    rows.insert(0 if where == "first" else len(rows), bad)
    path = tmp_path / "bad.csv"
    path.write_bytes(b"a,b\n" + b"".join(rows))
    messages = []
    for k in (1, 3):
        blocks(k)
        with pytest.raises(DataError) as info:
            _read_numeric_csv(path)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    _no_child_left()


def test_non_utf8_byte_is_a_data_error(tmp_path, capsys):
    cases = [
        (b"a,b\n1.0,2.0\n3.0,\xe9\n", r"non-numeric cell at row 3, column 2: '\udce9'"),
        (b"a,\xe9\n1,2\n", r"non-UTF-8 cell at row 1, column 2: '\udce9'"),
    ]
    for k, (content, message) in enumerate(cases):
        path = tmp_path / f"latin1_{k}.csv"
        path.write_bytes(content)
        argv = ["fit", str(path), "--family", "gaussian", "--r", "1", "--out", str(tmp_path)]
        assert main(argv) == 3
        assert capsys.readouterr().err == f"data error: {path}: {message}\n"


def test_split_fit_writes_the_serial_outputs_and_leaves_no_child(tmp_path, blocks):
    Y = np.random.default_rng(3).standard_normal((60, 12))
    path = tmp_path / "data.csv"
    _write_rows(path, [f"c{j}" for j in range(12)], Y.tolist(), repr)
    outputs = []
    for k in (1, 3):
        blocks(k)
        out = tmp_path / f"k{k}"
        argv = ["fit", str(path), "--family", "gaussian", "--r", "2", "--out", str(out)]
        assert main(argv) == 0
        _no_child_left()
        names = ("A.csv", "Z.csv", "se_A.csv", "rotation.json")
        outputs.append([(out / name).read_bytes() for name in names])
    assert outputs[0] == outputs[1]


def test_interrupted_split_parse_reaps_its_children(tmp_path, blocks, monkeypatch):
    path = tmp_path / "data.csv"
    # each child's pickle overfills its pipe, so a child is still writing
    path.write_bytes(b"a,b\n" + b"1.5,2.5\n" * 30000)
    parse_block = cli._parse_block

    def interrupted(path, start, stop):
        if stop is None:  # the block parsed in this process
            raise KeyboardInterrupt
        return parse_block(path, start, stop)

    monkeypatch.setattr(cli, "_parse_block", interrupted)
    blocks(3)
    faulthandler.dump_traceback_later(60, exit=True)  # a hang fails the run
    try:
        with pytest.raises(KeyboardInterrupt):
            _read_numeric_csv(path)
    finally:
        faulthandler.cancel_dump_traceback_later()
    _no_child_left()


def test_serial_parse_when_one_cpu_or_another_thread(tmp_path, blocks, monkeypatch):
    path = tmp_path / "data.csv"
    path.write_bytes(b"a,b\n" + b"1,2\n3,4\n" * 20)
    blocks(3)
    expected = _read_numeric_csv(path)[1]

    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    blocks(1)
    np.testing.assert_array_equal(_bits(_read_numeric_csv(path)[1]), _bits(expected))
    blocks(3)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(30,))
    other.start()
    try:
        np.testing.assert_array_equal(_bits(_read_numeric_csv(path)[1]), _bits(expected))
    finally:
        release.set()
        other.join(timeout=30)
    assert not other.is_alive()
