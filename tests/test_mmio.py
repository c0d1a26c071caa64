import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from odnsparse import mmio

from odnsparse import (
    AsymmetricError,
    DuplicateEntryError,
    NegativeOffDiagonalError,
    NonFiniteError,
    OdnMatrix,
    ParseError,
    decompose,
    generate_odn,
    read_matrix_market,
    reconstruct,
    sparsify_laplacian,
    validate_odn,
    write_matrix_market,
)

from conftest import random_odn


def write(tmp_path, text, name="m.mtx"):
    path = tmp_path / name
    path.write_text(text)
    return path


# The line-by-line reader and the tuple-sorting writer that the vectorised
# ones replaced, kept as the reference they must agree with.

def reference_read(path) -> OdnMatrix:
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise ParseError(1, "empty file")

    header = lines[0].split()
    if len(header) != 5 or header[0].lower() != "%%matrixmarket":
        raise ParseError(1, f"not a Matrix Market header: {lines[0]!r}")
    _, obj, fmt, field, symmetry = (tok.lower() for tok in header)
    if obj != "matrix" or fmt != "coordinate":
        raise ParseError(1, f"unsupported format {obj} {fmt}; need matrix coordinate")
    if field not in ("real", "integer"):
        raise ParseError(1, f"unsupported field type {field!r}")
    if symmetry not in ("symmetric", "general"):
        raise ParseError(1, f"unsupported symmetry {symmetry!r}")

    lineno = 1
    size = None
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    seen: set[tuple[int, int]] = set()
    expected = 0

    for raw in lines[1:]:
        lineno += 1
        text = raw.strip()
        if not text or text.startswith("%"):
            continue
        tokens = text.split()
        if size is None:
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
            size = nrows
            continue
        if len(tokens) != 3:
            raise ParseError(lineno, f"entry needs 'i j value': {text!r}")
        try:
            i, j = int(tokens[0]), int(tokens[1])
            value = float(tokens[2])
        except ValueError:
            raise ParseError(lineno, f"malformed entry: {text!r}")
        if not (1 <= i <= size and 1 <= j <= size):
            raise ParseError(lineno, f"index out of range in {text!r}")
        key = (max(i, j), min(i, j)) if symmetry == "symmetric" else (i, j)
        if key in seen:
            raise DuplicateEntryError(i, j)
        seen.add(key)
        rows.append(i - 1)
        cols.append(j - 1)
        vals.append(value)
        if len(vals) > expected:
            raise ParseError(lineno, f"more than {expected} entries")

    if size is None:
        raise ParseError(lineno, "missing size line")
    if len(vals) != expected:
        raise ParseError(lineno, f"expected {expected} entries, found {len(vals)}")

    r = np.asarray(rows, dtype=np.int64)
    c = np.asarray(cols, dtype=np.int64)
    v = np.asarray(vals, dtype=np.float64)
    if symmetry == "symmetric":
        off = r != c
        r, c, v = (
            np.concatenate([r, c[off]]),
            np.concatenate([c, r[off]]),
            np.concatenate([v, v[off]]),
        )
    coo = sp.coo_matrix((v, (r, c)), shape=(size, size))
    return validate_odn(coo)


def reference_write(matrix: OdnMatrix, path) -> None:
    entries = [
        (int(j) + 1, int(i) + 1, float(v))  # lower triangle: row > col
        for i, j, v in zip(matrix.rows, matrix.cols, matrix.vals)
    ]
    entries.extend(
        (i + 1, i + 1, float(v))
        for i, v in enumerate(matrix.diag)
        if v != 0.0
    )
    entries.sort(key=lambda e: (e[1], e[0]))  # by (column, row)

    out = ["%%MatrixMarket matrix coordinate real symmetric"]
    out.append(f"{matrix.n} {matrix.n} {len(entries)}")
    out.extend(f"{row} {col} {value:.16e}" for row, col, value in entries)
    Path(path).write_text("\n".join(out) + "\n")


def _former_entries_valid(entries, size, expected, symmetric):
    """`mmio._entries_valid` as it was: keys from new (larger, smaller) index
    arrays, sorted into a copy."""
    if len(entries) != expected:
        return False
    if not len(entries):
        return True
    i, j = entries["i"], entries["j"]
    if min(i.min(), j.min()) < 1 or max(i.max(), j.max()) > size:
        return False
    if symmetric:
        i, j = np.maximum(i, j), np.minimum(i, j)
    keys = np.sort(i * (size + 1) + j)
    return not np.any(keys[1:] == keys[:-1])


def former_read(path) -> OdnMatrix:
    """The vectorised reader as it was before its build stopped copying the
    entries: record fields as views, the (min, max) pair and the masks as new
    arrays, then one gather of each."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mmio, "_entries_valid", _former_entries_valid)
        size, symmetric, entries = mmio._read_entries(path)
    r, c, v = entries["i"] - 1, entries["j"] - 1, entries["value"]
    if not symmetric:
        return validate_odn(sp.coo_matrix((v, (r, c)), shape=(size, size)))
    r, c = np.minimum(r, c), np.maximum(r, c)
    off = r != c
    for bad, error in ((~np.isfinite(v), NonFiniteError),
                       (off & (v < 0), NegativeOffDiagonalError)):
        if bad.any():
            k = np.flatnonzero(bad)
            k = int(k[np.lexsort((c[k], r[k]))[0]])
            raise error(int(r[k]), int(c[k]), float(v[k]))
    diag = np.zeros(size)
    on = ~off & (v != 0)
    diag[r[on]] = v[on]
    off &= v != 0
    return OdnMatrix(size, r[off], c[off], v[off], diag)


def _read_or_raise(read, path):
    try:
        return read(path), None
    except Exception as exc:  # compared below, then raised again
        return None, exc


def read_as_former(path) -> OdnMatrix:
    """`read_matrix_market`, checked against `former_read` on the same file:
    the equal matrix, or an error of the same type and message."""
    got, error = _read_or_raise(mmio.read_matrix_market, path)
    former, former_error = _read_or_raise(former_read, path)
    assert (type(error), str(error)) == (type(former_error), str(former_error))
    if error is not None:
        raise error
    assert got == former
    return got


@pytest.fixture(autouse=True)
def every_read_checked_against_former(monkeypatch):
    """Every `read_matrix_market` call of this module runs `read_as_former`,
    so each input here is also read by the former build."""
    monkeypatch.setitem(globals(), "read_matrix_market", read_as_former)


def outcome(read, path):
    """What a reader makes of a file: the matrix, or the error and where."""
    try:
        return read(path)
    except ParseError as exc:
        return ParseError, exc.line
    except DuplicateEntryError as exc:
        return DuplicateEntryError, exc.i, exc.j
    except Exception as exc:
        return type(exc)


@pytest.fixture(scope="module")
def complete_lines(tmp_path_factory):
    """Lines of a complete n = 400 file: 80 200 entries, one per line."""
    path = tmp_path_factory.mktemp("big") / "c400.mtx"
    write_matrix_market(generate_odn("complete", 400, seed=3, diag=("uniform", 0, 1)),
                        path)
    return path.read_text().splitlines()


class TestRead:
    def test_symmetric_example(self, tmp_path):
        path = write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "2 2 3\n"
            "1 1 2.0\n"
            "2 2 3.0\n"
            "2 1 1.0\n",
        )
        m = read_matrix_market(path)
        np.testing.assert_array_equal(m.to_dense(), [[2.0, 1.0], [1.0, 3.0]])

    def test_general_symmetric_pairs(self, tmp_path):
        path = write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 2\n"
            "1 2 1.5\n"
            "2 1 1.5\n",
        )
        m = read_matrix_market(path)
        assert m.vals[0] == 1.5

    def test_general_asymmetric_rejected(self, tmp_path):
        path = write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 2\n"
            "1 2 1.0\n"
            "2 1 2.0\n",
        )
        with pytest.raises(AsymmetricError):
            read_matrix_market(path)

    def test_empty_coordinate_section(self, tmp_path):
        path = write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real symmetric\n3 3 0\n",
        )
        m = read_matrix_market(path)
        assert m.n == 3
        assert m.stored_pairs == 0
        np.testing.assert_array_equal(m.diag, np.zeros(3))

    def test_duplicate_rejected(self, tmp_path):
        path = write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "2 2 2\n"
            "2 1 1.0\n"
            "2 1 1.0\n",
        )
        with pytest.raises(DuplicateEntryError):
            read_matrix_market(path)

    def test_mirrored_duplicate_in_symmetric_rejected(self, tmp_path):
        path = write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "2 2 2\n"
            "2 1 1.0\n"
            "1 2 1.0\n",
        )
        with pytest.raises(DuplicateEntryError):
            read_matrix_market(path)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "% a comment\n"
            "\n"
            "2 2 1\n"
            "% another\n"
            "2 1 4.0\n",
        )
        assert read_matrix_market(path).vals[0] == 4.0

    def test_line_endings_read_alike(self, tmp_path, monkeypatch):
        """LF, CRLF and CR-only copies of one file, with a comment line and a
        blank line before the size line, read to equal matrices, each on the
        fast path: `numpy.loadtxt` skips as many lines as the header read
        took under every line ending."""
        fallbacks = []
        monkeypatch.setattr(mmio, "_read_entry_lines", fallbacks.append)
        lines = ["%%MatrixMarket matrix coordinate real symmetric", "% a comment", "",
                 "3 3 4", "1 1 2.5", "2 1 1.0", "3 2 0.5", "3 3 -1.0"]
        reads = []
        for name, ending in (("lf", "\n"), ("crlf", "\r\n"), ("cr", "\r")):
            path = tmp_path / f"{name}.mtx"
            path.write_bytes((ending.join(lines) + ending).encode())
            reads.append(mmio.read_matrix_market(path))
        assert fallbacks == []
        np.testing.assert_array_equal(reads[0].to_dense(),
                                      [[2.5, 1.0, 0.0], [1.0, 0.0, 0.5], [0.0, 0.5, -1.0]])
        assert reads[1] == reads[0] and reads[2] == reads[0]

    @pytest.mark.parametrize(
        "text,line",
        [
            ("", 1),
            ("%%MatrixMarket matrix array real symmetric\n2 2 1\n", 1),
            ("%%MatrixMarket matrix coordinate complex symmetric\n2 2 1\n", 1),
            ("%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n", 1),
            ("%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n1 1 1.0\n", 2),
            ("%%MatrixMarket matrix coordinate real symmetric\n2 2\n", 2),
            ("%%MatrixMarket matrix coordinate real symmetric\n2 2 1\nbogus\n", 3),
            ("%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n3 1 1.0\n", 3),
            ("%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n2 1 1.0\n", 3),
            (
                "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n"
                "2 1 1.0\n1 1 5.0\n",
                4,
            ),
        ],
    )
    def test_parse_errors(self, tmp_path, text, line):
        path = write(tmp_path, text)
        with pytest.raises(ParseError) as exc:
            read_matrix_market(path)
        assert exc.value.line == line


def error_cases():
    """(id, edit, expected outcome) of one error placed at line 50 000 of
    the complete n = 400 file; `edit` changes its list of lines in place."""
    k = 49_999  # index of line 50 000

    def entry(lines, at=k):
        i, j, v = lines[at].split()
        return i, j, v

    def set_entry(fmt):
        def edit(lines):
            i, j, v = entry(lines)
            lines[k] = fmt.format(i=i, j=j, v=v)
        return edit

    def duplicate(lines):
        lines[k] = lines[k - 7]

    def mirrored(lines):
        i, j, v = entry(lines, k - 7)
        lines[k] = f"{j} {i} {v}"

    def too_few(lines):
        del lines[k]

    def too_many(lines):
        lines[1] = f"400 400 {k - 2}"

    return [
        ("malformed-token", set_entry("{i} {j} {v}x"), (ParseError, 50_000)),
        ("float-index", set_entry("{i}.0 {j} {v}"), (ParseError, 50_000)),
        ("two-tokens", set_entry("{i} {j}"), (ParseError, 50_000)),
        ("four-tokens", set_entry("{i} {j} {v} 1"), (ParseError, 50_000)),
        ("trailing-note", set_entry("{i} {j} {v} % note"), (ParseError, 50_000)),
        ("trailing-note-unspaced", set_entry("{i} {j} {v}%note"), (ParseError, 50_000)),
        ("out-of-range", set_entry("401 {j} {v}"), (ParseError, 50_000)),
        ("duplicate", duplicate, DuplicateEntryError),
        ("mirrored-duplicate", mirrored, DuplicateEntryError),
        ("too-few", too_few, (ParseError, 80_201)),
        ("too-many", too_many, (ParseError, 50_000)),
    ]


ERROR_CASES = error_cases()

# Tokens, good and bad, that random entry lines are made of.
TOKENS = ["1", "2", "3", "+1", "01", "0", "-1", "4", "1.0", "1e0", "x", "%", "#",
          "2.5", "nan", "inf", "1e400", "-0.5", "0.75", "3.0%x"]


class TestAgainstReference:
    """The vectorised reader returns what the line-by-line reader returned,
    raises the same error type and names the same line."""

    def test_complete_file_with_comments_and_blank_lines(self, tmp_path, complete_lines):
        plain = write(tmp_path, "\n".join(complete_lines) + "\n", "plain.mtx")
        mixed_lines = []
        for k, line in enumerate(complete_lines):
            mixed_lines.append(line)
            if k % 97 == 1:
                mixed_lines.append("% a comment, 50% of it")
            if k % 89 == 5:
                mixed_lines.append("   % indented comment")
            if k % 71 == 3:
                mixed_lines.append("" if k % 2 else " \t ")
        mixed = write(tmp_path, "\n".join(mixed_lines) + "\n", "mixed.mtx")
        m = read_matrix_market(mixed)
        assert m.n == 400 and m.stored_pairs == 79_800
        assert m == reference_read(mixed)
        assert m == read_matrix_market(plain)

    @pytest.mark.parametrize("name,edit,expected", ERROR_CASES,
                             ids=[c[0] for c in ERROR_CASES])
    def test_error_near_line_50000(self, tmp_path, complete_lines, name, edit, expected):
        lines = list(complete_lines)
        edit(lines)
        path = write(tmp_path, "\n".join(lines) + "\n")
        got = outcome(read_matrix_market, path)
        assert got == outcome(reference_read, path)
        if expected is DuplicateEntryError:
            i, j = (int(t) for t in lines[49_999].split()[:2])
            assert got == (DuplicateEntryError, i, j)  # the later copy
        else:
            assert got == expected

    @pytest.mark.parametrize(
        "entry,accepted",
        [
            ("+2 1 0.5", True),
            ("02 1 5e-1", True),
            ("2\t1\t0.5", True),
            ("2\xa01\u20030.5", True),
            ("2.0 1 0.5", False),
            ("2 1.0 0.5", False),
            ("2e0 1 0.5", False),
            ("2 1e0 0.5", False),
            ("1_0 1 0.5", False),
            ("2 1 1_0.5", False),
            ("\u0662 1 0.5", False),
            ("2 1 \u0660.5", False),
            ("2 1 0x1p-1", False),
        ],
    )
    def test_token_grammar(self, tmp_path, entry, accepted):
        path = write(
            tmp_path,
            f"%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n{entry}\n",
        )
        if accepted:
            m = read_matrix_market(path)
            assert m == reference_read(path)
            assert (m.rows.tolist(), m.cols.tolist(), m.vals.tolist()) == ([0], [1], [0.5])
        else:
            with pytest.raises(ParseError) as exc:
                read_matrix_market(path)
            assert exc.value.line == 3
            assert exc.value.reason.startswith("malformed entry")

    def test_random_corruptions(self, tmp_path):
        rng = np.random.default_rng(11)
        path = tmp_path / "f.mtx"
        for _ in range(600):
            n = int(rng.integers(1, 5))
            symmetry = rng.choice(["symmetric", "general"])
            body = []
            for _ in range(int(rng.integers(0, 7))):
                u = rng.random()
                if u < 0.15:
                    body.append(str(rng.choice(["", "  ", "% c", "  % c 50%"])))
                    continue
                tokens = [str(rng.integers(1, n + 1)), str(rng.integers(1, n + 1)),
                          str(rng.choice([0.5, 1.0, 0.125]))]
                if u < 0.5:
                    tokens[rng.integers(3)] = str(rng.choice(TOKENS))
                tokens = (tokens + [str(rng.choice(TOKENS))])[:rng.choice([2, 3, 3, 3, 4])]
                line = str(rng.choice([" ", "\t", " \xa0"])).join(tokens)
                body.append(line + " % note" if u > 0.95 else line)
            count = sum(1 for line in body if line.strip() and line.strip()[0] != "%")
            count = max(0, count + int(rng.choice([0, 0, 0, -1, 1])))
            path.write_text(f"%%MatrixMarket matrix coordinate real {symmetry}\n"
                            f"{n} {n} {count}\n" + "\n".join(body) + "\n")
            expected = outcome(reference_read, path)
            assert outcome(read_matrix_market, path) == expected, path.read_text()

    def test_random_bad_values(self, tmp_path):
        """Negative and non-finite values raise the error type that
        `validate_odn` raises on the mirrored matrix, at the same (i, j)."""
        def located(read, path):
            try:
                return read(path)
            except (NonFiniteError, NegativeOffDiagonalError) as exc:
                return type(exc), exc.i, exc.j, repr(exc.value)

        rng = np.random.default_rng(5)
        path = tmp_path / "f.mtx"
        values = [0.5, 2.0, 1e300, 0.0, -0.0, -0.5, -1e300, np.nan, np.inf, -np.inf]
        errors = 0
        for _ in range(400):
            n = int(rng.integers(1, 7))
            i, j = np.triu_indices(n)
            keep = rng.random(len(i)) < 0.6
            i, j = i[keep], j[keep]
            swap = rng.random(len(i)) < 0.5
            i, j = np.where(swap, j, i), np.where(swap, i, j)
            v = np.where(rng.random(len(i)) < 0.15,
                         rng.choice(values, len(i)), rng.choice(values[:3], len(i)))
            order = rng.permutation(len(i))
            body = "".join(f"{a + 1} {b + 1} {x!r}\n"
                           for a, b, x in zip(i[order], j[order], v[order].tolist()))
            path.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                            f"{n} {n} {len(i)}\n" + body)
            expected = located(reference_read, path)
            errors += isinstance(expected, tuple)
            assert located(read_matrix_market, path) == expected, path.read_text()
        assert errors > 50

    def test_empty_coordinate_section_warns_nothing(self, tmp_path):
        path = write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real symmetric\n3 3 0\n% no entries\n\n",
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            m = read_matrix_market(path)
        assert caught == []
        assert m.n == 3 and m.stored_pairs == 0

    def test_memory_ceiling(self, tmp_path, complete_lines):
        path = write(tmp_path, "\n".join(complete_lines) + "\n")  # 2.4 MB
        tracemalloc.start()
        try:
            mmio.read_matrix_market(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Measured: 3.93 MB, in the duplicate check and in splitting the
        # record array. Building from record views with new (min, max) arrays
        # and masks it was 8.17 MB; through validate_odn's sparse copies
        # 27.7 MB; the line-by-line reader peaks at 48.9 MB.
        assert peak < 4.9e6

    def test_entries_parsed_from_the_open_file(self, tmp_path, complete_lines,
                                               monkeypatch):
        """A file without body comments never becomes a list of lines: after
        the header, `numpy.loadtxt` reads it from its path. One with body
        comments falls back to the list, with the same result."""
        plain = write(tmp_path, "\n".join(complete_lines) + "\n", "plain.mtx")
        noted = write(tmp_path, "\n".join(complete_lines[:2] + ["% note"]
                                          + complete_lines[2:]) + "\n", "noted.mtx")
        fallbacks = []

        def counting(path, _read=mmio._read_entry_lines):
            fallbacks.append(path)
            return _read(path)

        monkeypatch.setattr(mmio, "_read_entry_lines", counting)
        first = mmio.read_matrix_market(plain)
        tracemalloc.start()
        try:
            mmio._read_entries(plain)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fallbacks == []
        # Measured: 3.9 MB for 1.9 MB of entries (4.5 MB with the duplicate
        # keys sorted into a copy); with the list of lines, 14.1 MB.
        assert peak < 7e6
        assert mmio.read_matrix_market(noted) == first
        assert fallbacks == [noted]


class TestWrite:
    def test_zero_matrix_header_only(self, tmp_path):
        m = validate_odn(np.zeros((3, 3)))
        path = tmp_path / "z.mtx"
        write_matrix_market(m, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "%%MatrixMarket matrix coordinate real symmetric"
        assert lines[1] == "3 3 0"
        assert len(lines) == 2

    def test_sorted_by_column_then_row(self, tmp_path):
        m = validate_odn([[1.0, 2.0, 0.0], [2.0, 0.0, 3.0], [0.0, 3.0, 1.0]])
        path = tmp_path / "s.mtx"
        write_matrix_market(m, path)
        coords = [
            tuple(map(int, line.split()[:2]))
            for line in path.read_text().splitlines()[2:]
        ]
        assert coords == sorted(coords, key=lambda rc: (rc[1], rc[0]))

    def test_docs_example_round_trip(self, tmp_path):
        m = validate_odn(
            [
                [2.0, 1.0, 0.0, 0.0, 0.5],
                [1.0, -1.0, 0.25, 0.0, 0.0],
                [0.0, 0.25, 0.0, 3.0, 0.0],
                [0.0, 0.0, 3.0, 4.0, 1.0],
                [0.5, 0.0, 0.0, 1.0, 2.0],
            ]
        )
        path = tmp_path / "d.mtx"
        write_matrix_market(m, path)
        assert read_matrix_market(path) == m

    def test_pipeline_output_round_trip(self, tmp_path):
        d = decompose(generate_odn("complete", 5, weight=1.0, diag=1.0))
        res = sparsify_laplacian(d, 0.3, seed=7)
        m_hat = reconstruct(res.adjacency, d.center)
        path = tmp_path / "k5.mtx"
        write_matrix_market(m_hat, path)
        assert read_matrix_market(path) == m_hat

    def test_random_round_trips(self, tmp_path, rng):
        for k in range(100):
            n = int(rng.integers(1, 20))
            m = random_odn(rng, n, density=float(rng.uniform(0, 1)))
            path = tmp_path / f"r{k}.mtx"
            write_matrix_market(m, path)
            assert read_matrix_market(path) == m
            assert reference_read(path) == m

    def test_bytes_match_reference(self, tmp_path, rng):
        cases = [
            OdnMatrix(1, [], [], [], [0.0]),
            OdnMatrix(1, [], [], [], [-2.5]),
            OdnMatrix(4, [], [], [], [0.0, -1.0, 0.0, 3.0]),
        ]
        for _ in range(200):
            n = int(rng.integers(1, 30))
            m = random_odn(rng, n, density=float(rng.choice([0.0, rng.uniform(0, 1)])))
            vals = m.vals * 10.0 ** rng.integers(-310, 300, size=len(m.vals))
            diag = np.where(rng.random(n) < 0.3, 0.0, m.diag)
            cases.append(OdnMatrix(n, m.rows, m.cols, vals, diag))
        new, old = tmp_path / "new.mtx", tmp_path / "old.mtx"
        for m in cases:
            write_matrix_market(m, new)
            reference_write(m, old)
            assert new.read_bytes() == old.read_bytes()
