"""The MPS reader against a frozen copy of its line-by-line predecessor.

The copy (reference_parse_mps, reference_to_general_form) is kept here, and
only here, so that the reader, which reads COLUMNS a block of lines at a
time, and the array lowering can be compared with the code that read one
line at a time and summed duplicates in a dict per row.  They must give the
same document, the same problem to the bit, and the same error (type, line
and message) on every bad input.  The reference reads a row whose interval
is one point as two opposing >= rows, the reader as one equality row, so
the reader's problem is compared after expanding each equality row to that
pair (_pair_expanded).
"""

import dataclasses

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pdhglp import mps
from pdhglp.linalg import SparseMatrix
from pdhglp.model import GeneralFormLp
from pdhglp.mps import (
    MpsDocument,
    MpsParseError,
    MpsRow,
    parse_mps,
    to_general_form,
)
from test_mps import ERROR_CASES, FIXTURE, documents

# ---------------------------------------------------------------------------
# The reference: the line-by-line reader and the dict-per-row lowering.

_SECTIONS = ("NAME", "ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS", "ENDATA")
_ROW_KINDS = ("N", "L", "G", "E")
_VALUE_BOUNDS = ("LO", "UP", "FX")
_FLAG_BOUNDS = ("FR", "MI", "PL")
_FIXED_WINDOWS = ((2, 3), (5, 12), (15, 22), (25, 36), (40, 47), (50, 61))


def _ref_fixed_fields(line: str) -> list[str]:
    out = []
    for lo, hi in _FIXED_WINDOWS:
        piece = line[lo - 1 : hi].strip()
        if piece:
            out.append(piece)
    return out


def _ref_tokens(line: str) -> list[str]:
    toks = line.split()
    return toks


def _ref_parse_value(tok: str, line_no: int, what: str) -> float:
    try:
        v = float(tok.replace("D", "E").replace("d", "e"))
    except ValueError:
        raise MpsParseError(f"{what} {tok!r} is not a number", line_no) from None
    if np.isnan(v):
        raise MpsParseError(f"{what} is NaN", line_no)
    return v


def reference_parse_mps(text: str | bytes) -> MpsDocument:
    """Parse MPS text into a document, validating references as they appear."""
    if isinstance(text, bytes):
        text = text.decode("latin-1")
    doc = MpsDocument()
    section: str | None = None
    row_names: set[str] = set()
    col_names: set[str] = set()
    saw_endata = False

    for line_no, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip() or raw.lstrip().startswith("*"):
            continue
        if saw_endata:
            raise MpsParseError("content after ENDATA", line_no)

        if not raw[0].isspace():
            head = raw.split()
            keyword = head[0].upper()
            if keyword not in _SECTIONS:
                raise MpsParseError(f"unknown section {head[0]!r}", line_no)
            if keyword == "NAME":
                doc.name = head[1] if len(head) > 1 else ""
            elif keyword == "ENDATA":
                saw_endata = True
            section = keyword
            continue

        if section is None or section in ("NAME", "ENDATA"):
            raise MpsParseError("data before any section header", line_no)

        toks = _ref_tokens(raw)
        if section == "ROWS":
            if len(toks) != 2:
                toks = _ref_fixed_fields(raw)
            if len(toks) != 2:
                raise MpsParseError("ROWS entry needs a type and a name", line_no)
            kind = toks[0].upper()
            if kind not in _ROW_KINDS:
                raise MpsParseError(f"unknown row type {toks[0]!r}", line_no)
            if toks[1] in row_names:
                raise MpsParseError(f"duplicate row name {toks[1]!r}", line_no)
            row_names.add(toks[1])
            doc.rows.append(MpsRow(kind, toks[1]))
        elif section == "COLUMNS":
            _ref_parse_columns_line(doc, raw, toks, line_no, row_names, col_names)
        elif section in ("RHS", "RANGES"):
            _ref_parse_pairs_line(doc, section, raw, toks, line_no, row_names)
        elif section == "BOUNDS":
            _ref_parse_bounds_line(doc, raw, toks, line_no, col_names)

    if not any(r.kind == "N" for r in doc.rows):
        raise MpsParseError("no objective (N) row declared")
    return doc


def _ref_parse_columns_line(doc, raw, toks, line_no, row_names, col_names):
    if len(toks) >= 2 and toks[1].strip("'\"").upper() == "MARKER":
        raise MpsParseError(
            "integer markers are not supported (continuous problems only)", line_no
        )
    if len(toks) not in (3, 5):
        toks = _ref_fixed_fields(raw)
    if len(toks) not in (3, 5):
        raise MpsParseError(
            "COLUMNS entry needs a column, then 1 or 2 (row, value) pairs", line_no
        )
    col = toks[0]
    col_names.add(col)
    for i in range(1, len(toks), 2):
        row = toks[i]
        if row not in row_names:
            raise MpsParseError(f"COLUMNS references undeclared row {row!r}", line_no)
        doc.columns.append((col, row, _ref_parse_value(toks[i + 1], line_no, "coefficient")))


def _ref_parse_pairs_line(doc, section, raw, toks, line_no, row_names):
    # The leading set name is optional; an even token count means it was
    # omitted and every token belongs to a (row, value) pair.
    if len(toks) not in (2, 3, 4, 5):
        toks = _ref_fixed_fields(raw)
    if len(toks) in (3, 5):
        toks = toks[1:]
    if len(toks) not in (2, 4):
        raise MpsParseError(f"{section} entry needs (row, value) pairs", line_no)
    target = doc.rhs if section == "RHS" else doc.ranges
    for i in range(0, len(toks), 2):
        row = toks[i]
        if row not in row_names:
            raise MpsParseError(
                f"{section} references undeclared row {row!r}", line_no
            )
        target[row] = _ref_parse_value(toks[i + 1], line_no, f"{section} value")


def _ref_parse_bounds_line(doc, raw, toks, line_no, col_names):
    if not toks:
        raise MpsParseError("empty BOUNDS entry", line_no)
    code = toks[0].upper()
    if code == "BV":
        raise MpsParseError(
            "binary bound code BV is not supported (continuous problems only)",
            line_no,
        )
    if code in _VALUE_BOUNDS:
        want = 4
    elif code in _FLAG_BOUNDS:
        want = 3
    else:
        raise MpsParseError(f"unknown bound code {toks[0]!r}", line_no)
    if len(toks) not in (want, want - 1):
        toks = _ref_fixed_fields(raw)
    if len(toks) == want - 1:
        # Set name omitted.
        toks = [code, ""] + toks[1:]
    if len(toks) < want:
        raise MpsParseError(f"bound code {code} needs a column", line_no)
    col = toks[2]
    if col not in col_names:
        raise MpsParseError(f"BOUNDS references undeclared column {col!r}", line_no)
    value = None
    if code in _VALUE_BOUNDS:
        value = _ref_parse_value(toks[3], line_no, "bound value")
    doc.bounds.append((code, col, value))


def _ref_row_interval(kind: str, b: float, rng: float | None) -> tuple[float, float]:
    """[lo, hi] a constraint row must land in, after RANGES expansion."""
    if rng is None:
        if kind == "G":
            return b, np.inf
        if kind == "L":
            return -np.inf, b
        return b, b
    if kind == "G":
        return b, b + abs(rng)
    if kind == "L":
        return b - abs(rng), b
    # E row: the sign of the range picks the side.
    if rng >= 0:
        return b, b + rng
    return b + rng, b


def reference_to_general_form(doc: MpsDocument) -> GeneralFormLp:
    """Lower a document to min c'x, Ax >= b, l <= x <= u.

    The first N row is the objective; later N rows are free rows and are
    dropped.  Each constraint row's interval contributes a >= row for a
    finite lower end and a negated >= row for a finite upper end.  The RHS
    entry of the objective row is the negated objective constant.
    """
    obj_row = doc.objective_row
    cols = doc.column_order()
    col_idx = {cname: i for i, cname in enumerate(cols)}
    n = len(cols)

    kinds = {r.name: r.kind for r in doc.rows}
    for row in doc.ranges:
        if kinds[row] == "N":
            raise ValueError(f"RANGES entry on free row {row!r}")

    c = np.zeros(n)
    by_row: dict[str, dict[int, float]] = {r.name: {} for r in doc.rows}
    for col, row, val in doc.columns:
        j = col_idx[col]
        if row == obj_row:
            c[j] += val
        else:
            cur = by_row[row]
            cur[j] = cur.get(j, 0.0) + val

    lows, rows_i, cols_j, vals = [], [], [], []

    def emit(entries: dict[int, float], sign: float, rhs: float):
        i = len(lows)
        lows.append(rhs)
        for j, v in entries.items():
            rows_i.append(i)
            cols_j.append(j)
            vals.append(sign * v)

    for r in doc.constraint_rows():
        lo, hi = _ref_row_interval(kinds[r.name], doc.rhs.get(r.name, 0.0), doc.ranges.get(r.name))
        entries = by_row[r.name]
        if np.isfinite(lo):
            emit(entries, 1.0, lo)
        if np.isfinite(hi):
            emit(entries, -1.0, -hi)

    l = np.zeros(n)
    u = np.full(n, np.inf)
    explicit_lower = np.zeros(n, dtype=bool)
    for code, col, value in doc.bounds:
        j = col_idx[col]
        if code == "LO":
            l[j] = value
            explicit_lower[j] = True
        elif code == "UP":
            u[j] = value
            if value < 0 and not explicit_lower[j]:
                # Classic convention: a negative upper bound on a column whose
                # lower bound was never set releases the lower bound, instead
                # of leaving the contradictory 0 <= x <= value.
                l[j] = -np.inf
        elif code == "FX":
            l[j] = value
            u[j] = value
            explicit_lower[j] = True
        elif code == "FR":
            l[j] = -np.inf
            u[j] = np.inf
        elif code == "MI":
            l[j] = -np.inf
            explicit_lower[j] = True
        elif code == "PL":
            u[j] = np.inf

    bad = np.flatnonzero(l > u)
    if bad.size:
        names = ", ".join(cols[int(j)] for j in bad[:5])
        raise ValueError(f"conflicting bounds leave l > u on columns: {names}")

    a = SparseMatrix.from_triplets(len(lows), n, rows_i, cols_j, vals)
    return GeneralFormLp(
        c=c,
        a=a,
        b=np.asarray(lows, dtype=np.float64),
        l=l,
        u=u,
        name=doc.name,
        objective_offset=-doc.rhs.get(obj_row, 0.0),
    )


# ---------------------------------------------------------------------------
# Texts: a document in many layouts.

_FILLERS = ["", "   ", "* a comment", "   * an indented comment", "*"]


def _fixed(fields) -> str:
    """A line with each (field number, text) at its fixed window."""
    line = ""
    for idx, text in fields:
        line = line.ljust(_FIXED_WINDOWS[idx - 1][0] - 1) + text
    return line


def _free_value(draw, v: float) -> str:
    text = repr(v)
    if "e" in text and draw(st.booleans()):
        text = text.replace("e", draw(st.sampled_from("Dd")))
    return text


def _short_value(v: float) -> str:
    # Fits the 12 columns of a fixed value window.
    text = f"{v:.6g}"
    return text if len(text) <= 12 else "0"


@st.composite
def texts(draw, doc: MpsDocument) -> str:
    """doc as MPS text: free and fixed-column lines, 3- and 5-token COLUMNS
    lines, RHS and RANGES entries with and without a set name and one or
    two pairs, bounds with and without a set name, Fortran D exponents, and
    blank and comment lines anywhere.  Some columns get a blank inside their
    name, so every line naming them is read through the fixed windows."""
    lines = []

    def put(line):
        lines.append(line)
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(_FILLERS)))

    spaced = {
        c: c[:1] + " " + c[1:]
        for c in doc.column_order()
        if len(c) <= 7 and draw(st.integers(0, 3)) == 0
    }
    put(f"NAME {doc.name}")
    put("ROWS")
    for r in doc.rows:
        if draw(st.booleans()):
            put(_fixed([(1, r.kind), (2, r.name)]))
        else:
            put(f" {r.kind}  {r.name}")
    put("COLUMNS")
    k = 0
    while k < len(doc.columns):
        col = doc.columns[k][0]
        two = k + 1 < len(doc.columns) and doc.columns[k + 1][0] == col
        entries = doc.columns[k : k + 1 + int(two and draw(st.booleans()))]
        k += len(entries)
        if col in spaced or draw(st.integers(0, 4)) == 0:
            fields = [(2, spaced.get(col, col))]
            for p, (_, row, val) in enumerate(entries):
                fields += [(3 + 2 * p, row), (4 + 2 * p, _short_value(val))]
            put(_fixed(fields))
        else:
            toks = [col]
            for _, row, v in entries:
                toks += [row, _free_value(draw, v)]
            put(" " * draw(st.integers(1, 4)) + "  ".join(toks))
    for section, entries in (("RHS", doc.rhs), ("RANGES", doc.ranges)):
        if not entries:
            continue
        put(section)
        items = list(entries.items())
        while items:
            now = items[: draw(st.integers(1, 2))]
            items = items[len(now) :]
            toks = ["SET1"] if draw(st.booleans()) else []
            toks += [t for row, v in now for t in (row, _free_value(draw, v))]
            put("    " + "  ".join(toks))
    if doc.bounds:
        put("BOUNDS")
    for code, col, val in doc.bounds:
        if col in spaced:
            fields = [(1, code), (2, "BND1"), (3, spaced[col])]
            if val is not None:
                fields.append((4, _short_value(val)))
            put(_fixed(fields))
        else:
            toks = [code] + (["BND1"] if draw(st.booleans()) else []) + [col]
            if val is not None:
                toks.append(_free_value(draw, val))
            put(" " + "  ".join(toks))
    put("ENDATA")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Comparison.


def _outcome(fn, arg):
    try:
        return fn(arg), None
    except (ValueError, KeyError) as exc:  # MpsParseError is a ValueError
        return None, exc


def _same_float(a: float, b: float) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def _assert_same_error(got, want):
    assert got is not None, f"reference raised {want!r}, reader did not"
    assert type(got) is type(want)
    assert str(got) == str(want)
    assert getattr(got, "line_no", None) == getattr(want, "line_no", None)


def _pair_expanded(lp: GeneralFormLp) -> GeneralFormLp:
    """lp with each equality row a'x = b replaced, in its place, by the pair
    a'x >= b, -a'x >= -b."""
    eq = lp.eq
    first = np.arange(lp.m) + np.cumsum(eq) - eq  # each row's first new row
    rows, cols, vals = lp.a.triplets()
    on_eq = eq[rows]
    size = lp.m + int(eq.sum())
    a = SparseMatrix.from_triplets(
        size,
        lp.n,
        np.concatenate([first[rows], first[rows[on_eq]] + 1]),
        np.concatenate([cols, cols[on_eq]]),
        np.concatenate([vals, -vals[on_eq]]),
    )
    b = np.empty(size)
    b[first] = lp.b
    b[first[eq] + 1] = -lp.b[eq]
    return dataclasses.replace(lp, a=a, b=b, eq=None)


def _point_rows(doc: MpsDocument) -> int:
    """The constraint rows whose interval is one finite point."""
    kinds = {r.name: r.kind for r in doc.rows}
    count = 0
    for r in doc.constraint_rows():
        lo, hi = _ref_row_interval(kinds[r.name], doc.rhs.get(r.name, 0.0), doc.ranges.get(r.name))
        count += bool(np.isfinite(lo) and lo == hi)
    return count


def _assert_same_reading(text: str):
    """The reader and the reference give the same document and problem, or
    the same error at the same line, whatever the size of the blocks of
    lines COLUMNS is read in."""
    for block in (1, 2, 5, mps._COLUMNS_BLOCK):
        with patch.object(mps, "_COLUMNS_BLOCK", block):
            want_err = _assert_same_reading_once(text)
    return want_err


def _assert_same_reading_once(text: str):
    doc, err = _outcome(parse_mps, text)
    want_doc, want_err = _outcome(reference_parse_mps, text)
    if want_err is not None:
        _assert_same_error(err, want_err)
        return want_err
    assert err is None, err
    assert doc == want_doc
    lp, err = _outcome(to_general_form, doc)
    want, want_err = _outcome(reference_to_general_form, want_doc)
    if want_err is not None:
        _assert_same_error(err, want_err)
        return want_err
    assert err is None, err
    assert int(lp.eq.sum()) == _point_rows(doc)
    assert not want.eq.any()
    lp = _pair_expanded(lp)
    assert lp.a.same_entries(want.a)
    for field in ("c", "b", "l", "u"):
        got_v, want_v = getattr(lp, field), getattr(want, field)
        assert got_v.dtype == want_v.dtype == np.float64
        assert got_v.tobytes() == want_v.tobytes(), field
    assert lp.name == want.name
    assert _same_float(lp.objective_offset, want.objective_offset)
    return None


def test_fixture_reads_the_same():
    assert _assert_same_reading(FIXTURE) is None


@given(data=st.data())
def test_rendered_documents_read_the_same(data):
    doc = data.draw(documents())
    _assert_same_reading(data.draw(texts(doc)))


def test_rendered_documents_with_free_lines_read_back_as_written():
    # Without blanks in names or short fixed values, a rendering means its
    # document; the layouts above are therefore real spellings of it.
    doc = MpsDocument(
        name="T",
        rows=[MpsRow("N", "OBJ"), MpsRow("E", "R1"), MpsRow("L", "R2")],
        columns=[
            ("X", "OBJ", 1.5),
            ("X", "R1", 2.0),
            ("Y", "R2", -3e-5),
            ("X", "R1", 0.25),
        ],
        rhs={"R1": 1.0, "R2": 2e10},
        ranges={"R1": -0.5},
        bounds=[("UP", "X", -1.0), ("FR", "Y", None)],
    )
    text = (
        "NAME T\nROWS\n N  OBJ\n E  R1\n L  R2\nCOLUMNS\n"
        "    X  OBJ  1.5  R1  2.0\n    Y  R2  -3D-05\n    X  R1  0.25\n"
        "RHS\n    R1  1.0  R2  2d10\nRANGES\n    SET  R1  -0.5\n"
        "BOUNDS\n UP  X  -1.0\n FR  BND  Y\nENDATA\n"
    )
    assert parse_mps(text) == doc
    assert _assert_same_reading(text) is None
    lp = to_general_form(doc)
    # R1 = 2x + 0.25x in [0.5, 1]; R2 = -3e-5 y <= 2e10.
    assert lp.a.same_entries(
        SparseMatrix.from_dense([[2.25, 0.0], [-2.25, 0.0], [0.0, 3e-5]])
    )
    assert lp.b.tolist() == [0.5, -1.0, -2e10]


def test_duplicates_are_summed_in_file_order():
    # 1 + 1e-16 rounds back to 1 at each step; summed last-first, the two
    # small entries would first make 2e-16 and then move the sum off 1.
    text = (
        "NAME T\nROWS\n N  C\n G  R\nCOLUMNS\n"
        "    X  C  1.0  R  1.0\n    X  C  1e-16  R  1e-16\n    X  C  1e-16\n"
        "    X  R  1e-16\nENDATA\n"
    )
    assert _assert_same_reading(text) is None
    lp = to_general_form(parse_mps(text))
    assert lp.c.tolist() == [1.0]
    assert lp.a.to_dense().tolist() == [[1.0]]


# Errors beyond those of test_mps: several bad lines, where the first bad
# line must win, and several errors in one line, where the order of the
# checks must.
_HEAD = "NAME T\nROWS\n N  C\n G  R\nCOLUMNS\n"
MORE_ERRORS = [
    _HEAD + "    X  R  oops\n    X  R9  1.0\nENDATA\n",
    _HEAD + "    X  R9  1.0\n    X  R  oops\nENDATA\n",
    _HEAD + "    X  R  oops  R9  1.0\nENDATA\n",
    _HEAD + "    X  R9  1.0  R  oops\nENDATA\n",
    _HEAD + "    X  R  1.0  R  nan\n    X  R  oops\nENDATA\n",
    _HEAD + "    X  R  oops\n    X  R  NaN\nENDATA\n",
    _HEAD + "    X  R  1.0\n    X  R\n    X  R9  1.0\nENDATA\n",
    _HEAD + "    X  R9  1.0\n    X  R\nENDATA\n",
    _HEAD + "    X  R  1.0\n    M  'MARKER'  'INTORG'\n    X  R  x\nENDATA\n",
    _HEAD + "    X  R  x\n    M  'MARKER'  'INTORG'\nENDATA\n",
    _HEAD + "    M  'MARKER'\n    X  R  x\nENDATA\n",
    _HEAD + "    X  R  1.0\n    M  'marker'  'INTORG'\nENDATA\n",
    _HEAD + "    X  R  1.0  R  1.0  R\nENDATA\n",
    _HEAD + "    X  R  1.0\nBOGUS\n    X  R9  1.0\nENDATA\n",
    _HEAD + "    X  R9  1.0\nBOGUS\nENDATA\n",
    _HEAD + "    X  R  1.0\nENDATA\n    X  R  1.0\n",
    _HEAD + "    X  R  1.0\nENDATA\nRHS\n",
    "    X  R  1.0\nNAME T\n",
    "NAME T\n    X\nROWS\n N  C\n",
    "NAME T\nROWS\n N  C\n G  R\nRHS\n    S  R  1.0  R9  2.0\nENDATA\n",
    "NAME T\nROWS\n G  R\nCOLUMNS\n    X  R  1.0\nENDATA\n",
    _HEAD + "    X  R  1.0\nBOUNDS\n UP B  X  z\n LO B  Y  1.0\nENDATA\n",
    _HEAD + "    X  R  1.0\nBOUNDS\n XX B  X  1.0\nENDATA\n",
    _HEAD + "    X  R  1.0\nRANGES\n    S  C  1.0\nENDATA\n",
]


@pytest.mark.parametrize("text", [t for t, _, _ in ERROR_CASES] + MORE_ERRORS)
def test_errors_are_the_same(text):
    assert _assert_same_reading(text) is not None


def test_missing_rows_section_fails_the_same():
    text = "NAME T\nCOLUMNS\n    X  C  1.0\nENDATA\n"
    assert _assert_same_reading(text) is not None


def _bad_lines(doc: MpsDocument) -> list[str]:
    col = doc.columns[0][0]
    row = doc.rows[-1].name
    return [
        f"    {col}  NOSUCH  1.0",
        f"    {col}  {row}  1.0  NOSUCH  2.0",
        f"    {col}  {row}  oops",
        f"    {col}  {row}  nan",
        f"    {col}  {row}  1.0  {row}  NaN",
        f"    {col}  {row}  -1d-3",
        "    MARK  'MARKER'  'INTORG'",
        f"    {col}  {row}",
        f"    {col}",
        "  A  B  C  D  E  F  G",
        "BOGUS",
        " Q  ROW9",
        f" G  {row}",
        f" BV BND  {col}",
        " UP BND  NOSUCH  1.0",
        f" LO BND  {col}  1e300",
        "ENDATA",
        "COLUMNS",
        "RHS",
    ]


@given(data=st.data())
def test_corrupted_texts_fail_the_same(data):
    doc = data.draw(documents())
    lines = data.draw(texts(doc)).splitlines()
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, len(lines)))
        lines.insert(at, data.draw(st.sampled_from(_bad_lines(doc))))
    _assert_same_reading("\n".join(lines) + "\n")
