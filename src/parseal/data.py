"""Datasets: CSV input/output and the two synthetic generators.

Random columns come from a Philox counter-based generator keyed by
``(seed, column_index)``: streams are splittable per column, so adding a
variable never perturbs the draws of earlier ones, and the bit stream is
pinned by the generator's published algorithm.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DuplicateHeader,
    InsufficientData,
    LengthMismatch,
    MissingResponse,
    NonFinite,
    ParseError,
)


@dataclass(frozen=True)
class Dataset:
    """Input variables plus the response, all as float64 columns."""

    variable_names: tuple
    columns: np.ndarray  # shape (n, p)
    response_name: str
    response: np.ndarray  # shape (n,)

    def __post_init__(self):
        names = tuple(str(n) for n in self.variable_names)
        cols = np.asarray(self.columns, dtype=np.float64)
        resp = np.asarray(self.response, dtype=np.float64)
        if cols.ndim != 2:
            raise LengthMismatch(f"columns must be 2-d (n, p), got shape {cols.shape}")
        if resp.ndim != 1:
            raise LengthMismatch(f"response must be 1-d, got shape {resp.shape}")
        if cols.shape[0] != resp.shape[0]:
            raise LengthMismatch(
                f"columns have {cols.shape[0]} rows but the response has {resp.shape[0]}"
            )
        if cols.shape[1] != len(names):
            raise LengthMismatch(f"{len(names)} names for {cols.shape[1]} columns")
        if cols.shape[0] < 3:
            raise InsufficientData("a dataset needs at least three rows")
        all_names = names + (str(self.response_name),)
        if len(set(all_names)) != len(all_names):
            raise DuplicateHeader(f"column names are not unique: {all_names}")
        if not (np.all(np.isfinite(cols)) and np.all(np.isfinite(resp))):
            raise NonFinite("dataset contains NaN or infinite entries")
        cols = cols.copy()
        cols.setflags(write=False)
        resp = resp.copy()
        resp.setflags(write=False)
        object.__setattr__(self, "variable_names", names)
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "response_name", str(self.response_name))
        object.__setattr__(self, "response", resp)

    @property
    def n(self) -> int:
        return self.columns.shape[0]

    @property
    def p(self) -> int:
        return self.columns.shape[1]


def load_csv(path, response: str) -> Dataset:
    """Load a numeric CSV with a header row.

    Every non-response column becomes an input variable, in header order.
    Cells must parse as finite decimals; the offending row and column are
    named otherwise.  Blank lines after the last data row are ignored; a
    blank line between data rows is an error.  The file is read as UTF-8,
    with or without a leading byte-order mark.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError as err:
        raise ParseError(f"CSV file is not UTF-8 text ({err.reason})") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("CSV file is empty") from None
    except csv.Error as err:
        raise ParseError(f"header row: {err}") from None
    header = [h.strip() for h in header]
    if len(set(header)) != len(header):
        dupes = sorted({h for h in header if header.count(h) > 1})
        raise DuplicateHeader(f"duplicate header fields: {dupes}")
    if response not in header:
        raise MissingResponse(
            f"response column {response!r} not found in header {header}"
        )
    response_idx = header.index(response)
    table = _split_table(text, len(header)) if reader.line_num == 1 else None
    if table is None:
        table = _cell_table(reader, header)
    if len(table) < 3:
        raise InsufficientData(f"need at least three data rows, got {len(table)}")
    predictor_idx = [i for i in range(len(header)) if i != response_idx]
    return Dataset(
        variable_names=tuple(header[i] for i in predictor_idx),
        columns=table[:, predictor_idx],
        response_name=response,
        response=table[:, response_idx],
    )


def _split_table(text: str, width: int):
    """The data rows as an (n, width) array, or None if any row needs a closer look.

    When ``text``'s first line is the header and every line ends in the same
    terminator, LF or CRLF, ``csv.reader`` gives each later line's pieces
    between commas as its cells (a quote would not, but it leaves a piece
    ``float`` rejects).  Anything else is left to ``_cell_table``.
    """
    breaks = text.count("\n")
    crlf = "\r" in text
    lines = text.replace("\r\n" if crlf else "\n", ",\n")
    first = lines.find("\n")
    # Every CR must be in a CRLF, and then every LF too.
    if first < 0 or "\r" in lines or (crlf and text.count("\r") != breaks):
        return None
    # Each line break now starts a cell, which float() reads as if it did not.
    cells = lines.split(",")
    start = lines.count(",", 0, first)  # the header line's pieces
    end = len(cells)
    while end > start and cells[end - 1] == "\n":  # blank lines after the last row
        end -= 1
    rows, ragged = divmod(end - start, width)
    # Row r starts at cell start + r * width exactly when those cells hold
    # every line break but the header's and the trailing blank lines'.
    starts = "".join(cells[start:end:width])
    if ragged or rows != breaks - (len(cells) - end) or starts.count("\n") != rows:
        return None
    limit = csv.field_size_limit()
    if len(lines) > limit and max(map(len, cells)) > limit:
        return None
    try:
        flat = np.fromiter(map(float, cells[start:end]), dtype=np.float64, count=end - start)
    except ValueError:
        return None
    return flat.reshape(rows, width) if np.isfinite(flat).all() else None


def _cell_table(reader, header: list) -> np.ndarray:
    """Parse the data rows cell by cell, raising on the first bad row or cell."""
    rows = []
    blank = None  # the first blank line; only blank lines may follow it
    row_number = -1
    try:
        for row_number, row in enumerate(reader):
            if not row:
                blank = row_number if blank is None else blank
                continue
            if blank is not None:
                raise ParseError(f"row {blank} is blank, but data rows follow it", row=blank)
            if len(row) != len(header):
                raise ParseError(
                    f"row {row_number} has {len(row)} cells, expected {len(header)}",
                    row=row_number,
                )
            parsed = []
            for col_name, cell in zip(header, row):
                try:
                    value = float(cell)
                except ValueError:
                    raise ParseError(
                        f"row {row_number}, column {col_name!r}: "
                        f"cannot parse {cell!r} as a number",
                        row=row_number,
                        col=col_name,
                    ) from None
                if not math.isfinite(value):
                    raise NonFinite(
                        f"row {row_number}, column {col_name!r}: non-finite value {cell!r}",
                        row=row_number,
                        col=col_name,
                    )
                parsed.append(value)
            rows.append(parsed)
    except csv.Error as err:  # an oversized field, or a NUL before Python 3.11
        raise ParseError(f"row {row_number + 1}: {err}", row=row_number + 1) from None
    return np.asarray(rows, dtype=np.float64).reshape(len(rows), len(header))


def write_csv(dataset: Dataset, path) -> None:
    """Write a dataset so that ``load_csv`` reproduces it bit for bit."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(dataset.variable_names) + [dataset.response_name])
        writer.writerows(np.column_stack([dataset.columns, dataset.response]).tolist())


def _column_stream(seed: int, column: int) -> np.random.Generator:
    key = np.array([np.uint64(seed), np.uint64(column)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def synth_example1(n: int = 1000, seed: int = 0) -> Dataset:
    """Three independent U[0, 100] inputs; y = 120 + 80 * x1 * x3, no noise."""
    if n < 3:
        raise InsufficientData("need n >= 3")
    x1 = _column_stream(seed, 0).random(n) * 100.0
    x2 = _column_stream(seed, 1).random(n) * 100.0
    x3 = _column_stream(seed, 2).random(n) * 100.0
    y = 120.0 + 80.0 * x1 * x3
    return Dataset(
        variable_names=("x1", "x2", "x3"),
        columns=np.column_stack([x1, x2, x3]),
        response_name="y",
        response=y,
    )


def synth_example2(n: int = 1000, seed: int = 0) -> Dataset:
    """One latent U[0, 1] draw per row drives all three inputs.

    ``x1`` and ``x3`` are the identical column 100*chi, ``x2 = chi + 0.1``,
    and ``y = 120 + 1000 / x2`` exactly.
    """
    if n < 3:
        raise InsufficientData("need n >= 3")
    chi = _column_stream(seed, 0).random(n)
    x1 = 100.0 * chi
    x2 = chi + 0.1
    x3 = x1.copy()
    y = 120.0 + 1000.0 / x2
    return Dataset(
        variable_names=("x1", "x2", "x3"),
        columns=np.column_stack([x1, x2, x3]),
        response_name="y",
        response=y,
    )
