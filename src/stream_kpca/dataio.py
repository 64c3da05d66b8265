"""Stream ingestion, CSV ingestion and emission.

`row_blocks` is the one ingest path of the three trainers: it checks a row
stream and hands it over in fixed-size blocks. Readers stream rows so
training never holds more of the file than one fixed-size chunk of lines.
Writers use 17 significant digits so values round-trip exactly through
decimal text: `format_rows` formats a whole block with one `%` operation on
a row template of `%.17g` fields, byte for byte what `format(v, ".17g")`
gives each value. The CSV files of `gen-data`, `test` and `benchmark` are
written through `atomic_text`, so a write cut off part way leaves no
partial file behind.
"""

from __future__ import annotations

import contextlib
import itertools
import os
from typing import Iterable, Iterator, TextIO

import numpy as np

from .errors import ContractViolationError
from .numerics import as_matrix, as_vector

SIG_DIGITS = 17
CHUNK_LINES = 512


def first_point(stream: Iterable) -> tuple[np.ndarray, Iterator]:
    """The checked first point of a stream, and an iterator over the whole
    stream from that point on. Raises if the stream is empty, or if point 0
    is empty or has a non-finite entry."""
    rows = iter(stream)
    try:
        first = as_vector(next(rows), "stream point 0")
    except StopIteration:
        raise ContractViolationError("training stream is empty") from None
    return first, itertools.chain([first], rows)


def row_blocks(stream: Iterable, size: int, d: int | None = None) -> Iterator[np.ndarray]:
    """Yield the rows of a stream as checked (<= size, d) float64 blocks.

    d is the first row's width unless given, and each row's width is checked
    against it as it arrives; each block is checked once for non-finite
    entries (a 2-D float64 array of width d, all at once, then read in place
    as slices). Errors name the first bad `stream point i` in stream order,
    and an empty stream raises (`first_point`). A yielded block is valid only
    until the next one is requested, and is never to be written to.
    """
    first, rows = first_point(stream)
    d = first.size if d is None else d
    if type(stream) is np.ndarray and stream.dtype == np.float64 and stream.shape[1:] == (d,):
        _check_finite(stream, 0)
        yield from (stream[start : start + size] for start in range(0, len(stream), size))
        return
    block = np.empty((size, d))
    held = start = 0
    for i, row in enumerate(rows):
        vec = np.asarray(row, dtype=np.float64).ravel()
        if vec.size != d:
            _check_finite(block[:held], start)  # earlier rows' errors come first
            as_vector(row, f"stream point {i}")
            raise ContractViolationError(
                f"stream point {i} has dimension {vec.size}, expected {d}"
            )
        block[held] = vec
        held += 1
        if held == size:
            _check_finite(block, start)
            yield block
            held, start = 0, i + 1
    if held:
        _check_finite(block[:held], start)
        yield block[:held]


def _check_finite(block: np.ndarray, start: int) -> None:
    """Name the first stream point of a block (its first row is point `start`)
    that has a non-finite entry."""
    if not np.isfinite(block).all():
        i = start + int(np.argmax(~np.isfinite(block).all(axis=1)))
        raise ContractViolationError(f"stream point {i} contains non-finite entries")


@contextlib.contextmanager
def atomic_text(path) -> Iterator[TextIO]:
    """Write a text file that appears at `path` only once it is complete.

    The body writes to `<path>.<pid>.tmp` beside `path`, opened with "x" so
    it never overwrites a file, which `os.replace` moves onto `path` when the
    body finishes. On any failure the temporary file is removed, so no
    output appears and an earlier file at `path` is left as it was. A
    symlink at `path` is kept and the file it names is replaced. A device or
    pipe at `path`, such as /dev/stdout, is written in place: replacing it
    would put a regular file where the device was.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        return
    path = os.path.realpath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    fh = open(tmp, "x", encoding="utf-8", newline="\n")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def row_template(width: int) -> str:
    """A `%` template for one CSV line of `width` 17-significant-digit fields."""
    return ",".join([f"%.{SIG_DIGITS}g"] * width) + "\n"


def format_rows(a: np.ndarray) -> str:
    """Format a 2-D float block as CSV lines, one per row, in one `%` operation."""
    rows, width = a.shape
    return (row_template(width) * rows) % tuple(a.ravel().tolist())


def write_matrix_csv(path, a, header: bool = False) -> None:
    """Write one row per point, CHUNK_LINES rows per write, through
    `atomic_text`; optional header names columns c0..c{d-1}."""
    arr = as_matrix(a, "output matrix")
    with atomic_text(path) as fh:
        if header:
            fh.write(",".join(f"c{j}" for j in range(arr.shape[1])) + "\n")
        for start in range(0, arr.shape[0], CHUNK_LINES):
            fh.write(format_rows(arr[start : start + CHUNK_LINES]))


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
