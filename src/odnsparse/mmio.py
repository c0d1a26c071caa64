"""Matrix Market coordinate I/O for ODN matrices.

Reads `coordinate` files, `real` or `integer`, `symmetric` (or `general`
with exact symmetry), rejecting duplicate coordinates. The grammar after
the header: lines are separated by `\\n` (`\\r\\n` and `\\r` read as
`\\n`); blank lines are allowed anywhere; a comment line starts with `%`
after optional whitespace; the first other line is the size line
`n n count`; every later one is an entry of exactly three
whitespace-separated tokens `i j value`. Indices are ASCII decimal
integers with an optional sign, values whatever `float()` reads, minus
`_` digit separators and non-ASCII characters. Nothing may follow the
value, a `% ...` note included.

A well-formed file is parsed in one vectorised pass: `numpy.loadtxt` reads
the file from its path, past the header and the size line, in chunks. Its
entry count, index range and duplicates are then checked with array
operations. Only when one of these fails (a comment line in the body, or a
bad entry) does the reader fall back to the file's list of lines: it
parses them again without the comment lines, and if that fails too, scans
them one by one to name the first offending line. A `symmetric` file is
exactly symmetric by construction, so its matrix is built straight from
the entries: each goes to the upper triangle, exact off-diagonal zeros are
dropped and the diagonal is collected, with the finite and nonnegative
checks of `validate_odn`. A `general` file goes through `validate_odn`.
The build makes no entry-length copy it does not keep: the record array is
split into its three fields and freed, the indices are put in order in
place, and each field is gathered once, replacing itself. With the
duplicate check, which sorts its keys in place, a read peaks at about
twice the records (48 bytes an entry) besides the text parse.

Writes the lower triangle sorted by (column, row) with 17 significant
digits, which round-trips double precision bit-exactly; zero diagonal
entries are omitted.
"""

from __future__ import annotations

import re
import warnings
from pathlib import Path
from typing import Iterator, NoReturn

import numpy as np
import scipy.sparse as sp

from .core import OdnMatrix, validate_odn
from .errors import (
    DuplicateEntryError,
    NegativeOffDiagonalError,
    NonFiniteError,
    ParseError,
)

_BANNER = "%%matrixmarket"
_ENTRY = np.dtype([("i", np.int64), ("j", np.int64), ("value", np.float64)])
# The index tokens `numpy.loadtxt` reads as int64 ([0-9] is ASCII only).
_INDEX = re.compile(r"[+-]?[0-9]+")
# Entries per formatted chunk of a write. One str per entry, joined at the
# end, took `sparsify --input --out-matrix` of a complete n = 2000 file from
# about 288 MB to 502 MB resident; a chunk's text is about 3.3 MB.
_WRITE_CHUNK = 65536


def read_matrix_market(path) -> OdnMatrix:
    """Parse and validate a Matrix Market coordinate file."""
    size, symmetric, entries = _read_entries(path)
    # One contiguous array per field, and the record array freed before the build.
    i, j, v = entries["i"] - 1, entries["j"] - 1, entries["value"].copy()
    del entries
    if not symmetric:
        return validate_odn(sp.coo_matrix((v, (i, j)), shape=(size, size)))
    diag, off = _symmetric_parts(size, i, j, v)
    # One gather at a time, each replacing the array it was taken from.
    i = i[off]
    j = j[off]
    v = v[off]
    return OdnMatrix(size, i, j, v, diag)


def _symmetric_parts(size: int, i: np.ndarray, j: np.ndarray,
                     v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The diagonal of a `symmetric` file's matrix, and the mask of the
    entries it stores off the diagonal, from its entries, in range and unique;
    `i` and `j` become the upper-triangle coordinates, in place.

    Each entry stands for itself and its mirror, so the matrix is exactly
    symmetric and `validate_odn`'s asymmetry test and averaging have nothing
    to do. Its other checks run here in its order and report the same entry:
    a non-finite value first, then a negative off-diagonal one, each the
    first in (row, column) order of the upper triangle. Exact off-diagonal
    zeros are not stored."""
    low = np.minimum(i, j)
    np.maximum(i, j, out=j)
    i[...] = low
    del low
    off = i != j
    for bad, error in ((~np.isfinite(v), NonFiniteError),
                       (off & (v < 0), NegativeOffDiagonalError)):
        if bad.any():
            k = np.flatnonzero(bad)
            k = int(k[np.lexsort((j[k], i[k]))[0]])
            raise error(int(i[k]), int(j[k]), float(v[k]))
    diag = np.zeros(size)
    on = ~off & (v != 0)
    diag[i[on]] = v[on]
    off &= v != 0
    return diag, off


def _read_entries(path) -> tuple[int, bool, np.ndarray]:
    """(n, symmetric, entries) of a file whose every line passed the checks.

    The header and the size line are read line by line from the open file;
    `numpy.loadtxt` then reads the file from its path in chunks, skipping the
    lines read so far (both read `\r\n` and `\r` as `\n`). Only when that
    parse or the array checks fail (comment lines in the body, or any bad
    entry) is the file read again as a list of lines (`_read_entry_lines`)."""
    with open(path) as f:
        lines = (line[:-1] if line.endswith("\n") else line for line in iter(f.readline, ""))
        lineno, size, expected, symmetric = _read_head(lines)
    entries = _parse_entries(path, lineno)
    if entries is None or not _entries_valid(entries, size, expected, symmetric):
        return _read_entry_lines(path)
    return size, symmetric, entries


def _read_head(lines: Iterator[str]) -> tuple[int, int, int, bool]:
    """Check the header and the size line, the first lines of `lines` (without
    their terminators): (lines read, n, entry count, symmetric)."""
    first = next(lines, None)
    if first is None:
        raise ParseError(1, "empty file")
    header = first.split()
    if len(header) != 5 or header[0].lower() != _BANNER:
        raise ParseError(1, f"not a Matrix Market header: {first!r}")
    _, obj, fmt, field, symmetry = (tok.lower() for tok in header)
    if obj != "matrix" or fmt != "coordinate":
        raise ParseError(1, f"unsupported format {obj} {fmt}; need matrix coordinate")
    if field not in ("real", "integer"):
        raise ParseError(1, f"unsupported field type {field!r}")
    if symmetry not in ("symmetric", "general"):
        raise ParseError(1, f"unsupported symmetry {symmetry!r}")

    lineno = 1
    for raw in lines:
        lineno += 1
        text = raw.strip()
        if not text or text.startswith("%"):
            continue
        tokens = text.split()
        if len(tokens) != 3:
            raise ParseError(lineno, f"size line needs 3 integers: {text!r}")
        try:
            nrows, ncols, expected = (int(t) for t in tokens)
        except ValueError:
            raise ParseError(lineno, f"size line needs 3 integers: {text!r}")
        if nrows != ncols:
            raise ParseError(lineno, f"matrix must be square, got {nrows}x{ncols}")
        if nrows < 1 or expected < 0:
            raise ParseError(lineno, f"invalid size line: {text!r}")
        return lineno, nrows, expected, symmetry == "symmetric"
    raise ParseError(lineno, "missing size line")


def _read_entry_lines(path) -> tuple[int, bool, np.ndarray]:
    """`_read_entries` on the file's list of lines, with the comment lines
    dropped from the body; raises the first error with its line number."""
    source = Path(path).read_text()
    lines = source.split("\n")
    if lines[-1] == "":
        lines.pop()  # the terminator of the last line opens no line
    lineno, size, expected, symmetric = _read_head(iter(lines))
    body = lines[lineno:]
    # Drop the comment lines, if any: every other `%` is then a bad token.
    if source.find("%", sum(map(len, lines[:lineno])) + lineno) >= 0:
        body = [line for line in body if not line.lstrip().startswith("%")]
    entries = _parse_entries(body)
    if entries is None or not _entries_valid(entries, size, expected, symmetric):
        _raise_first_error(lines, lineno, size, expected, symmetric)
    return size, symmetric, entries


def _parse_entries(body, skip: int = 0) -> np.ndarray | None:
    """Lines without comments (a list, or a file's path and the count of its
    first lines to skip) as one (i, j, value) record array, or None if a line
    that is not blank is not three such tokens."""
    with warnings.catch_warnings():
        # numpy 1.24-1.25 read "1.0" as an int64 with only a DeprecationWarning.
        warnings.simplefilter("error", DeprecationWarning)
        # An empty coordinate section is valid; loadtxt warns about it.
        warnings.simplefilter("ignore", UserWarning)
        try:
            return np.loadtxt(body, dtype=_ENTRY, comments=None, ndmin=1, skiprows=skip)
        except (ValueError, DeprecationWarning):
            return None


def _entries_valid(entries: np.ndarray, size: int, expected: int,
                   symmetric: bool) -> bool:
    """Entry count, index range and uniqueness, checked on the arrays."""
    if len(entries) != expected:
        return False
    if not len(entries):
        return True
    i, j = entries["i"], entries["j"]
    if min(i.min(), j.min()) < 1 or max(i.max(), j.max()) > size:
        return False
    if symmetric:
        i, j = np.maximum(i, j), np.minimum(i, j)
    # Exact while size < 3.0e9, past the size of any matrix that fits
    # in memory.
    keys = i * (size + 1)
    keys += j
    keys.sort()
    return not np.any(keys[1:] == keys[:-1])


def _raise_first_error(lines: list[str], start: int, size: int, expected: int,
                       symmetric: bool) -> NoReturn:
    """Scan the entry lines after `lines[:start]` in file order and raise
    the first error in that order, with the number of its line."""
    seen = set()
    lineno = start
    for raw in lines[start:]:
        lineno += 1
        text = raw.strip()
        if not text or text.startswith("%"):
            continue
        tokens = text.split()
        if len(tokens) != 3:
            raise ParseError(lineno, f"entry needs 'i j value': {text!r}")
        index, value = tokens[:2], tokens[2]
        try:
            if not (all(map(_INDEX.fullmatch, index)) and value.isascii()
                    and "_" not in value):
                raise ValueError
            i, j = map(int, index)
            float(value)
        except ValueError:
            raise ParseError(lineno, f"malformed entry: {text!r}")
        if not (1 <= i <= size and 1 <= j <= size):
            raise ParseError(lineno, f"index out of range in {text!r}")
        key = (max(i, j), min(i, j)) if symmetric else (i, j)
        if key in seen:
            raise DuplicateEntryError(i, j)
        seen.add(key)
        if len(seen) > expected:
            raise ParseError(lineno, f"more than {expected} entries")
    if len(seen) != expected:
        raise ParseError(lineno, f"expected {expected} entries, found {len(seen)}")
    # Reached only if numpy rejects a line these token rules accept.
    raise ParseError(lineno, "entries numpy.loadtxt cannot read")


def write_matrix_market(matrix: OdnMatrix, path) -> None:
    """Write an ODN matrix as `coordinate real symmetric`, lower triangle:
    _WRITE_CHUNK entries at a time, one `%` format per chunk, so the text of
    one chunk is held, not a Python str per entry of the whole matrix."""
    on_diag = np.flatnonzero(matrix.diag)
    rows = np.concatenate([matrix.cols, on_diag]) + 1  # lower triangle: row > col
    cols = np.concatenate([matrix.rows, on_diag]) + 1
    vals = np.concatenate([matrix.vals, matrix.diag[on_diag]])
    order = np.lexsort((rows, cols))  # by (column, row)

    with open(path, "w", encoding="ascii") as out:
        out.write(f"%%MatrixMarket matrix coordinate real symmetric\n"
                  f"{matrix.n} {matrix.n} {len(vals)}\n")
        for start in range(0, len(order), _WRITE_CHUNK):
            chunk = order[start:start + _WRITE_CHUNK]
            fields = [None] * (3 * len(chunk))
            fields[0::3] = rows[chunk].tolist()
            fields[1::3] = cols[chunk].tolist()
            fields[2::3] = vals[chunk].tolist()
            out.write(("%d %d %.16e\n" * len(chunk)) % tuple(fields))
