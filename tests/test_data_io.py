"""CSV round-trips, input validation, and the synthetic generators."""

import csv
import io
import itertools
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from parseal import Dataset, load_csv, synth_example1, synth_example2, write_csv
from parseal import data
from parseal.cli import main
from parseal.errors import (
    DuplicateHeader,
    InsufficientData,
    LengthMismatch,
    MissingResponse,
    NonFinite,
    ParsealError,
    ParseError,
)


# ---------------------------------------------------------------------------
# Dataset construction
# ---------------------------------------------------------------------------


def test_dataset_columns_are_read_only_copies():
    cols = np.arange(9.0).reshape(3, 3)
    ds = Dataset(("a", "b", "c"), cols, "y", np.array([1.0, 2.0, 3.0]))
    cols[0, 0] = 99.0
    assert ds.columns[0, 0] == 0.0
    with pytest.raises(ValueError):
        ds.columns[0, 0] = 5.0
    assert ds.n == 3 and ds.p == 3


def test_dataset_validation():
    good = np.arange(9.0).reshape(3, 3)
    y = np.array([1.0, 2.0, 3.0])
    with pytest.raises(DuplicateHeader):
        Dataset(("a", "b", "a"), good, "y", y)
    with pytest.raises(DuplicateHeader):
        Dataset(("a", "b", "y"), good, "y", y)  # response name collides
    with pytest.raises(LengthMismatch):
        Dataset(("a", "b", "c"), good, "y", np.array([1.0, 2.0]))
    with pytest.raises(LengthMismatch):
        Dataset(("a", "b"), good, "y", y)
    with pytest.raises(LengthMismatch, match="columns must be 2-d"):
        Dataset(("a",), y, "y", y)
    with pytest.raises(LengthMismatch, match="response must be 1-d"):
        Dataset(("a", "b", "c"), good, "y", y.reshape(3, 1))
    with pytest.raises(InsufficientData):
        Dataset(("a",), np.array([[1.0], [2.0]]), "y", np.array([1.0, 2.0]))
    bad = good.copy()
    bad[1, 1] = np.nan
    with pytest.raises(NonFinite):
        Dataset(("a", "b", "c"), bad, "y", y)


# ---------------------------------------------------------------------------
# CSV input/output
# ---------------------------------------------------------------------------


def test_csv_round_trip_is_bit_exact(tmp_path):
    ds = synth_example1(200, seed=13)
    path = tmp_path / "data.csv"
    write_csv(ds, path)
    back = load_csv(path, response="y")
    assert back.variable_names == ds.variable_names
    assert back.response_name == "y"
    assert back.columns.tobytes() == ds.columns.tobytes()
    assert back.response.tobytes() == ds.response.tobytes()


def test_load_csv_keeps_header_order_and_skips_response(tmp_path):
    path = tmp_path / "mid.csv"
    path.write_text("b,y,a\n1,10,4\n2,20,5\n3,30,6\n")
    ds = load_csv(path, response="y")
    assert ds.variable_names == ("b", "a")
    np.testing.assert_array_equal(ds.columns[:, 0], [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(ds.columns[:, 1], [4.0, 5.0, 6.0])
    np.testing.assert_array_equal(ds.response, [10.0, 20.0, 30.0])


def test_load_csv_strips_header_whitespace(tmp_path):
    path = tmp_path / "pad.csv"
    path.write_text(" a , y \n1,2\n3,4\n5,6\n")
    ds = load_csv(path, response="y")
    assert ds.variable_names == ("a",)


def test_load_csv_error_reporting(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ParseError):
        load_csv(empty, response="y")

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("a,y\n1,2\n3\n5,6\n")
    with pytest.raises(ParseError) as exc:
        load_csv(ragged, response="y")
    assert exc.value.row == 1

    words = tmp_path / "words.csv"
    words.write_text("a,y\n1,2\n3,oops\n5,6\n")
    with pytest.raises(ParseError) as exc:
        load_csv(words, response="y")
    assert exc.value.row == 1
    assert exc.value.col == "y"

    nans = tmp_path / "nans.csv"
    nans.write_text("a,y\n1,2\nnan,4\n5,6\n")
    with pytest.raises(NonFinite) as exc:
        load_csv(nans, response="y")
    assert exc.value.row == 1
    assert exc.value.col == "a"

    infs = tmp_path / "infs.csv"
    infs.write_text("a,y\n1,2\n3,inf\n5,6\n")
    with pytest.raises(NonFinite):
        load_csv(infs, response="y")

    dup = tmp_path / "dup.csv"
    dup.write_text("a,a,y\n1,2,3\n4,5,6\n7,8,9\n")
    with pytest.raises(DuplicateHeader):
        load_csv(dup, response="y")

    missing = tmp_path / "missing.csv"
    missing.write_text("a,b\n1,2\n3,4\n5,6\n")
    with pytest.raises(MissingResponse):
        load_csv(missing, response="y")

    short = tmp_path / "short.csv"
    short.write_text("a,y\n1,2\n3,4\n")
    with pytest.raises(InsufficientData):
        load_csv(short, response="y")


@pytest.mark.parametrize(
    "rows, error, row, col",
    [
        # the first bad cell in row-major order decides the error
        (["1,2", "inf,4", "oops,6"], NonFinite, 1, "a"),
        (["1,2", "oops,4", "inf,6"], ParseError, 1, "a"),
        (["1,2", "inf,oops", "5,6"], NonFinite, 1, "a"),
        (["1,2", "3,4", "5,inf", "7"], NonFinite, 2, "y"),
        (["1,2", "3", "5,inf"], ParseError, 1, None),
        (["1,2", "", "5,nan"], ParseError, 1, None),
    ],
)
def test_load_csv_names_the_first_bad_cell(tmp_path, rows, error, row, col):
    path = tmp_path / "bad.csv"
    path.write_text("a,y\n" + "\n".join(rows) + "\n")
    with pytest.raises(error) as exc:
        load_csv(path, response="y")
    assert exc.value.row == row
    assert exc.value.col == col

    inner_blank = tmp_path / "inner_blank.csv"
    inner_blank.write_text("a,b,y\n1,2,3\n4,5,6\n\n7,8,9\n10,11,12\n")
    with pytest.raises(ParseError, match="row 2 ") as exc:
        load_csv(inner_blank, response="y")
    assert exc.value.row == 2


def test_load_csv_ignores_blank_lines_after_the_last_row(tmp_path):
    rows = "a,b,y\n1,2,3\n4,5,6\n7,8,9\n10,11,12\n"
    plain_path = tmp_path / "plain.csv"
    plain_path.write_text(rows)
    plain = load_csv(plain_path, response="y")
    for tail in ("\n", "\n\n\n", "\r\n\r\n"):
        path = tmp_path / "tail.csv"
        path.write_text(rows + tail)
        back = load_csv(path, response="y")
        assert back.n == 4
        assert back.columns.tobytes() == plain.columns.tobytes()
        assert back.response.tobytes() == plain.response.tobytes()


def test_load_csv_reads_utf8_with_a_byte_order_mark(tmp_path):
    # Spreadsheets save "CSV UTF-8" with a leading BOM.
    path = tmp_path / "excel.csv"
    path.write_bytes("\ufeffy,gr\u00f6\u00dfe\n1,2\n3,4\n5,7\n".encode("utf-8"))
    ds = load_csv(path, response="y")
    assert ds.variable_names == ("gr\u00f6\u00dfe",)
    np.testing.assert_array_equal(ds.response, [1.0, 3.0, 5.0])
    again = tmp_path / "again.csv"
    write_csv(ds, again)
    assert again.read_bytes().startswith("gr\u00f6\u00dfe,y\r\n".encode("utf-8"))
    back = load_csv(again, response="y")
    assert back.variable_names == ds.variable_names
    assert back.columns.tobytes() == ds.columns.tobytes()


def test_load_csv_rejects_bytes_that_are_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin1.csv"
    path.write_bytes("a,y\n1,2\n3,4\n5,6\n7,8\n".encode("utf-8") + b"9\xff,10\n")
    with pytest.raises(ParseError, match="not UTF-8"):
        load_csv(path, response="y")
    assert main(["fit", "--input", str(path), "--response", "y"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parseal fit: error") and err.count("\n") == 1


def test_write_csv_uses_shortest_round_trip_reprs(tmp_path):
    value = 0.1 + 0.2  # 0.30000000000000004
    ds = Dataset(("a",), np.array([[value], [1.0], [2.0]]), "y", np.array([3.0, 4.0, 5.0]))
    path = tmp_path / "repr.csv"
    write_csv(ds, path)
    assert "0.30000000000000004" in path.read_text()
    assert load_csv(path, response="y").columns[0, 0] == value


def _reference_cell(number, name, cell):
    try:
        value = float(cell)
    except ValueError:
        raise ParseError(f"row {number}, column {name!r}: cannot parse {cell!r} as a number")
    if not math.isfinite(value):
        raise NonFinite(f"row {number}, column {name!r}: non-finite value {cell!r}")
    return value


def _reference_table(text):
    """``load_csv``'s header and (n, width) table by ``csv.reader`` and a loop over every cell."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise ParseError("CSV file is empty") from None
    except csv.Error as err:
        raise ParseError(f"header row: {err}") from None
    if len(set(header)) != len(header):  # a quoted name took in cells of the first row
        dupes = sorted({h for h in header if header.count(h) > 1})
        raise DuplicateHeader(f"duplicate header fields: {dupes}")
    if "y" not in header:  # a quoted name took it in
        raise MissingResponse(f"response column 'y' not found in header {header}")
    rows, blank, number = [], None, 0
    while True:
        try:
            row = next(reader)
        except StopIteration:
            break
        except csv.Error as err:
            raise ParseError(f"row {number}: {err}") from None
        if not row:
            blank = number if blank is None else blank
        elif blank is not None:
            raise ParseError(f"row {blank} is blank, but data rows follow it")
        elif len(row) != len(header):
            raise ParseError(f"row {number} has {len(row)} cells, expected {len(header)}")
        else:
            rows.append([_reference_cell(number, h, cell) for h, cell in zip(header, row)])
        number += 1
    return header, np.array(rows, dtype=np.float64).reshape(len(rows), len(header))


def _reference_load(path):
    with open(path, newline="", encoding="utf-8-sig") as fh:
        header, table = _reference_table(fh.read())
    if len(table) < 3:
        raise InsufficientData(f"need at least three data rows, got {len(table)}")
    return header, table


def _outcome(load):
    try:
        return load()
    except ParsealError as err:
        return type(err), str(err)


_PADS = " \t\x0b\x0c"
_ODD_CELLS = (
    "1_0", "nan", "-inf", "inf", "1e400", "-1e400", "", " ", "oops", "1\x00", "\x00",
    '"3,4"', '"5\n6"', '"7\r\n"', '8"9', "1,",
)
# A quoted name with a comma, a line break or no closing quote, padding, or an oversized name.
_ODD_NAMES = ('"{},a"', '"{}\nb"', '"{}\r\nc"', '"{}', " {} ", "{}" + "h" * 131072)


@st.composite
def _csv_files(draw):
    """(bytes, field size limit) of a small CSV with y among its columns.

    Each kind of defect is drawn for the whole file, so that files with one
    kind alone, or none, are common.
    """
    limit = draw(st.sampled_from([24, 40, 131072]))
    odd_cells, ragged, blank_lines, quoted = (draw(st.booleans()) for _ in range(4))
    width = draw(st.integers(1, 3))
    names = [f"x{i}" for i in range(width - 1)]
    names.insert(draw(st.integers(0, width - 1)), "y")
    for i, name in enumerate(names):
        if name != "y" and draw(st.integers(0, 3)) == 0:
            names[i] = draw(st.sampled_from(_ODD_NAMES)).format(name)[: len(name) + limit + 1]

    def cell():
        if odd_cells and draw(st.integers(0, 7)) == 0:
            return draw(st.sampled_from(_ODD_CELLS))
        kind = draw(st.integers(0, 7))
        if kind == 0:
            text = str(draw(st.integers(-(10**6), 10**6)))
        elif kind == 1:
            pad = st.text(_PADS, max_size=2)
            text = draw(pad) + repr(draw(st.floats(-1e3, 1e3))) + draw(pad)
        elif kind == 2:  # at the field size limit
            text = "0" * draw(st.integers(limit - 2, limit + 1))
        else:
            text = repr(draw(st.floats(allow_nan=False, allow_infinity=False)))
        return f'"{text}"' if quoted and draw(st.integers(0, 3)) == 0 else text

    lines = [",".join(names)]
    for _ in range(draw(st.integers(0, 6))):
        count = width + (draw(st.sampled_from([-1, 0, 0, 1])) if ragged else 0)
        lines.append(",".join(cell() for _ in range(max(count, 1))))
    if blank_lines:
        for _ in range(draw(st.integers(1, 2))):
            lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(["", " ", "\t"])))
    lines += [""] * draw(st.integers(0, 2))  # blank lines after the last row
    mode = draw(st.sampled_from(["\n", "\r\n", "\r", "mixed"]))
    ends = [mode if mode != "mixed" else draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""
    text = "".join(line + end for line, end in zip(lines, ends))
    bom = b"\xef\xbb\xbf" if draw(st.booleans()) else b""
    return bom + text.encode("utf-8"), limit


@given(_csv_files())
# Files that only a lone CR, a lone LF, ragged rows whose cells add up, or a
# header that swallows the rest tell apart from plain ones.
@example((b"y,x\r\n1,1\r,\n", 131072))
@example((b"y,x\r\n,\n", 131072))
@example((b"y,x\r\n1,1,1\r\n1\r\n", 131072))
@example((b'y,"x\n1,2\n3,4\n5,6\n', 131072))
@settings(
    max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
def test_load_csv_matches_a_csv_reader_loop_over_every_cell(tmp_path, drawn):
    content, limit = drawn
    path = tmp_path / "drawn.csv"
    path.write_bytes(content)
    default = csv.field_size_limit(limit)
    try:
        expected = _outcome(lambda: _reference_load(path))
        got = _outcome(lambda: load_csv(path, "y"))
    finally:
        csv.field_size_limit(default)
    if isinstance(expected, tuple) and isinstance(expected[0], type):
        assert got == expected
        return
    header, table = expected
    assert not isinstance(got, tuple), got
    others = [i for i, name in enumerate(header) if name != "y"]
    assert got.variable_names == tuple(header[i] for i in others)
    assert np.array_equal(got.columns.view(np.int64), table[:, others].view(np.int64))
    assert np.array_equal(got.response.view(np.int64), table[:, header.index("y")].view(np.int64))


def test_the_split_path_agrees_with_csv_reader_on_every_short_file():
    # Every body of up to seven of the characters that steer csv.reader.
    for header, width in (("y,x\r\n", 2), ("y,x\n", 2), ("y\n", 1)):
        for size in range(8):
            for body in itertools.product('1,\r\n"', repeat=size):
                text = header + "".join(body)
                table = data._split_table(text, width)
                if table is not None:
                    expected = _reference_table(text)[1]
                    assert table.shape == expected.shape and table.tobytes() == expected.tobytes()


def _quote_first_cell(text):
    header, first, rest = text.split("\r\n", 2)
    cell, others = first.split(",", 1)
    return f'{header}\r\n"{cell}",{others}\r\n{rest}'


@pytest.mark.parametrize(
    "variant, split",
    [
        (lambda t: t, True),
        (lambda t: t.replace("\r\n", "\n"), True),
        (lambda t: t.replace("\r\n", "\n") + "\n\n", True),
        (lambda t: t.replace("\r\n", "\r"), False),  # lone CRs
        (lambda t: t.replace("\r\n", "\n", 2), False),  # mixed terminators
        (_quote_first_cell, False),
    ],
)
def test_plain_files_take_the_split_path_and_all_read_the_same_bits(tmp_path, variant, split):
    ds = synth_example2(30, seed=9)
    write_csv(ds, tmp_path / "plain.csv")
    text = variant((tmp_path / "plain.csv").read_bytes().decode())
    path = tmp_path / "variant.csv"
    path.write_bytes(text.encode())
    assert (data._split_table(text, ds.p + 1) is not None) == split
    back = load_csv(path, "y")
    assert back.columns.tobytes() == ds.columns.tobytes()
    assert back.response.tobytes() == ds.response.tobytes()


@pytest.mark.parametrize("ending", ["\r\n", "\n"])
def test_load_csv_reads_the_header_without_a_copy_of_the_text(tmp_path, ending):
    # The search-heavy benchmark's shape: 2,000 rows of six inputs and y.
    columns = 0.5 + 9.5 * np.random.default_rng(23).random((2000, 6))
    ds = Dataset(tuple(f"x{i + 1}" for i in range(6)), columns, "y", columns.sum(axis=1))
    write_csv(ds, tmp_path / "plain.csv")
    path = tmp_path / "ended.csv"
    path.write_bytes((tmp_path / "plain.csv").read_bytes().replace(b"\r\n", ending.encode()))
    tracemalloc.start()
    try:
        back = load_csv(path, "y")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.columns.tobytes() == ds.columns.tobytes()
    # The text, its split copy and a str per cell take about 7.2 bytes per
    # byte of the file.  An io.StringIO of the whole text, for the header's
    # reader, held 4 bytes per character more (11.2 in all).
    assert peak < 9 * path.stat().st_size


@pytest.mark.parametrize("command", ["fit", "dict"])
@pytest.mark.parametrize(
    "text, where",
    [
        ("a,y\n1,2\n" + "0" * 140_000 + ",3\n4,5\n", "row 1"),
        ("a," + "b" * 140_000 + ",y\n1,2,3\n4,5,6\n7,8,9\n", "header row"),
    ],
    ids=["data-field", "header-field"],
)
def test_an_oversized_field_exits_two_naming_its_row(tmp_path, command, text, where):
    path = tmp_path / "wide.csv"
    path.write_text(text)
    argv = ["--input", str(path), "--response", "y"]
    if command == "fit":
        argv += ["--out-dir", str(tmp_path / "out")]
    run = subprocess.run(
        [sys.executable, "-m", "parseal.cli", command, *argv], capture_output=True, text=True
    )
    assert run.returncode == 2
    assert "Traceback" not in run.stderr
    assert run.stderr.count("\n") == 1
    message = f"{where}: field larger than field limit ({csv.field_size_limit()})"
    assert run.stderr == f"parseal {command}: error: {message}\n"


# ---------------------------------------------------------------------------
# synthetic generators
# ---------------------------------------------------------------------------


def test_synth_example1_matches_frozen_draws():
    ds = synth_example1(5, seed=0)
    np.testing.assert_array_equal(
        ds.columns[:3, 0],
        [1.1546754286331562, 24.15491965627181, 11.142585551493822],
    )
    assert ds.columns[0, 1] == 81.33540609793563
    assert ds.columns[0, 2] == 81.44335776159865
    assert ds.response[0] == 7643.251522615793


def test_synth_example1_identity_and_ranges():
    ds = synth_example1(500, seed=21)
    np.testing.assert_array_equal(
        ds.response, 120.0 + 80.0 * ds.columns[:, 0] * ds.columns[:, 2]
    )
    assert ds.columns.min() >= 0.0
    assert ds.columns.max() <= 100.0
    assert ds.variable_names == ("x1", "x2", "x3")


def test_synth_example1_column_streams_are_independent():
    # each column is keyed by (seed, column), so it can be reproduced alone
    ds = synth_example1(50, seed=3)
    for col in range(3):
        gen = np.random.Generator(np.random.Philox(key=np.array([3, col], dtype=np.uint64)))
        np.testing.assert_array_equal(ds.columns[:, col], gen.random(50) * 100.0)


def test_synth_example2_structure():
    ds = synth_example2(400, seed=0)
    x1, x2, x3 = ds.columns.T
    assert x1.tobytes() == x3.tobytes()  # identical twin columns
    gen = np.random.Generator(np.random.Philox(key=np.array([0, 0], dtype=np.uint64)))
    latent = gen.random(400)
    np.testing.assert_array_equal(x1, 100.0 * latent)
    np.testing.assert_array_equal(x2, latent + 0.1)
    np.testing.assert_array_equal(ds.response, 120.0 + 1000.0 / x2)
    assert ds.columns[0, 0] == 1.1546754286331562
    assert ds.response[0] == 9084.85071571944


def test_synth_generators_are_seed_deterministic():
    a = synth_example1(100, seed=7)
    b = synth_example1(100, seed=7)
    c = synth_example1(100, seed=8)
    assert a.columns.tobytes() == b.columns.tobytes()
    assert a.columns.tobytes() != c.columns.tobytes()
    d = synth_example2(100, seed=7)
    e = synth_example2(100, seed=7)
    assert d.response.tobytes() == e.response.tobytes()


def test_synth_rejects_tiny_n():
    with pytest.raises(InsufficientData):
        synth_example1(2)
    with pytest.raises(InsufficientData):
        synth_example2(1)
