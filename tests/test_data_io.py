"""CSV round-trips, input validation, and the synthetic generators."""

import numpy as np
import pytest

from parseal import Dataset, load_csv, synth_example1, synth_example2, write_csv
from parseal.cli import main
from parseal.errors import (
    DuplicateHeader,
    InsufficientData,
    LengthMismatch,
    MissingResponse,
    NonFinite,
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
