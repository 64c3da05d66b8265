"""CSV ingestion and emission.

Readers stream rows so training never holds more of the file than one
fixed-size chunk of lines; writers use 17 significant digits so values
round-trip exactly through decimal text.
"""

from __future__ import annotations

import itertools
from typing import Iterator

import numpy as np

from .errors import ContractViolationError
from .numerics import as_matrix

SIG_DIGITS = 17
CHUNK_LINES = 512


def write_matrix_csv(path, a, header: bool = False) -> None:
    """Write one row per point; optional header names columns c0..c{d-1}."""
    arr = as_matrix(a, "output matrix")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if header:
            fh.write(",".join(f"c{j}" for j in range(arr.shape[1])) + "\n")
        for row in arr:
            fh.write(",".join(format(v, f".{SIG_DIGITS}g") for v in row) + "\n")


def iter_csv_rows(
    path, *, drop_first_col: bool = False, header: bool = False
) -> Iterator[np.ndarray]:
    """Yield each data row as a float vector, validating as it goes.

    Lines are parsed CHUNK_LINES at a time by one np.loadtxt call, whose
    values are bit-identical to float() on each field. A chunk with any
    anomaly (a blank line, a field loadtxt rejects, a non-finite value, a
    width change) is parsed again line by line. So malformed rows
    (non-numeric fields, ragged width, blank interior lines) raise
    ContractViolationError naming the offending line number after every
    earlier row has been yielded, and tokens only float() accepts, such as
    1_0, still parse.
    """
    width = None
    with open(path, encoding="utf-8") as fh:
        lineno = 0
        if header:
            fh.readline()
            lineno = 1
        while lines := list(itertools.islice(fh, CHUNK_LINES)):
            block = _parse_chunk(lines, drop_first_col, width)
            if block is None:
                for offset, line in enumerate(lines, start=lineno + 1):
                    row = _parse_line(path, offset, line, drop_first_col)
                    if width is None:
                        width = row.size
                    elif row.size != width:
                        raise ContractViolationError(
                            f"{path}: line {offset}: expected {width} columns, got {row.size}"
                        )
                    yield row
            else:
                width = block.shape[1]
                for row in block:
                    yield row.copy()  # rows outlive the chunk independently
            lineno += len(lines)


def _parse_chunk(lines: list[str], drop_first_col: bool, width: int | None):
    """Parse a chunk in one call; None if any line needs the per-line path."""
    if drop_first_col:
        lines = [line.partition(",")[2] for line in lines]
    if any(not line.strip() for line in lines):
        return None  # loadtxt would skip blank lines silently
    try:
        block = np.loadtxt(lines, delimiter=",", ndmin=2, comments=None)
    except ValueError:
        return None
    if width is not None and block.shape[1] != width:
        return None
    if not np.all(np.isfinite(block)):
        return None
    return block


def _parse_line(path, lineno: int, line: str, drop_first_col: bool) -> np.ndarray:
    text = line.strip()
    if not text:
        raise ContractViolationError(f"{path}: line {lineno}: blank line")
    fields = text.split(",")
    if drop_first_col:
        fields = fields[1:]
    if not fields:
        raise ContractViolationError(f"{path}: line {lineno}: no numeric columns left")
    try:
        row = np.array([float(f) for f in fields])
    except ValueError:
        raise ContractViolationError(f"{path}: line {lineno}: non-numeric field") from None
    if not np.all(np.isfinite(row)):
        raise ContractViolationError(f"{path}: line {lineno}: non-finite value")
    return row


def count_csv_rows(path, header: bool = False) -> int:
    """Count data rows in O(1) memory (used when a bound needs n up front)."""
    count = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if header and lineno == 1:
                continue
            count += 1
    return count


def read_matrix_csv(path, *, drop_first_col: bool = False, header: bool = False) -> np.ndarray:
    rows = list(iter_csv_rows(path, drop_first_col=drop_first_col, header=header))
    if not rows:
        raise ContractViolationError(f"{path}: no data rows")
    return np.vstack(rows)
