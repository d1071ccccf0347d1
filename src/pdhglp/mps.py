"""MPS reader and writer targeting the general problem form.

Reads both whitespace-delimited and fixed-column MPS variants into an
intermediate document, COLUMNS, RHS and RANGES a block of lines at a time:
a block of plain entries in one np.loadtxt call, any other block in a plain
loop over its lines.  Converts the document to a general-form problem in
which every constraint is a >= row or an equality row (L rows negated, an
E row, or a row whose RANGES interval is one point, kept as one equality
row, any other RANGES interval expanded into an opposing pair), and writes
documents back out in a whitespace-clean layout that parses to an equal
document.

Supported sections: NAME, ROWS, COLUMNS, RHS, RANGES, BOUNDS, ENDATA.
Bound codes LO, UP, FX, FR, MI, PL.  Integer machinery (BV bounds, COLUMNS
markers) is rejected with a clear error rather than misread as continuous.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, repeat

import numpy as np

from .linalg import SparseMatrix
from .model import GeneralFormLp

__all__ = [
    "MpsParseError",
    "MpsRow",
    "MpsDocument",
    "parse_mps",
    "to_general_form",
    "load_mps",
    "write_mps",
]

_SECTIONS = ("NAME", "ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS", "ENDATA")
_ROW_KINDS = ("N", "L", "G", "E")
_VALUE_BOUNDS = ("LO", "UP", "FX")
_FLAG_BOUNDS = ("FR", "MI", "PL")
_FORTRAN_EXPONENT = str.maketrans("Dd", "Ee")
# 1-based inclusive column windows of the fixed layout, fields 1..6.
_FIXED_WINDOWS = ((2, 3), (5, 12), (15, 22), (25, 36), (40, 47), (50, 61))
_MARKER_ERROR = "integer markers are not supported (continuous problems only)"
_COLUMNS_SHAPE_ERROR = "COLUMNS entry needs a column, then 1 or 2 (row, value) pairs"
_COLUMNS_BLOCK = 1024
# The longest line _bulk_read takes: a block's two name arrays hold
# 8 * _COLUMNS_BLOCK bytes per character of its longest line.
_BULK_WIDTH = 256


class MpsParseError(ValueError):
    """Parse failure with the 1-based source line attached."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class MpsRow:
    kind: str
    name: str


@dataclass
class MpsDocument:
    """Sectioned MPS content before any modeling decisions are applied.

    rows keeps declaration order; columns keeps file order (duplicate
    (column, row) pairs are preserved here and summed during conversion);
    bounds keeps file order because bound codes apply sequentially.
    """

    name: str = ""
    rows: list[MpsRow] = field(default_factory=list)
    columns: list[tuple[str, str, float]] = field(default_factory=list)
    rhs: dict[str, float] = field(default_factory=dict)
    ranges: dict[str, float] = field(default_factory=dict)
    bounds: list[tuple[str, str, float | None]] = field(default_factory=list)

    @property
    def objective_row(self) -> str:
        for r in self.rows:
            if r.kind == "N":
                return r.name
        raise ValueError("document has no objective (N) row")

    def constraint_rows(self) -> list[MpsRow]:
        """Structural rows: everything except N rows."""
        return [r for r in self.rows if r.kind != "N"]


def _fixed_fields(line: str) -> list[str]:
    out = []
    for lo, hi in _FIXED_WINDOWS:
        piece = line[lo - 1 : hi].strip()
        if piece:
            out.append(piece)
    return out


def _data_lines(lines: list[str], start: int, stop: int):
    """(1-based line number, line, whitespace tokens) of every data line in
    lines[start:stop]; blank and comment lines are skipped.  The tokens are
    the free reading only: callers fall back to _fixed_fields themselves."""
    for i in range(start, stop):
        toks = lines[i].split()
        if toks and toks[0][0] != "*":
            yield i + 1, lines[i], toks


def _parse_value(tok: str, line_no: int, what: str) -> float:
    try:
        v = float(tok.translate(_FORTRAN_EXPONENT))
    except ValueError:
        raise MpsParseError(f"{what} {tok!r} is not a number", line_no) from None
    if v != v:
        raise MpsParseError(f"{what} is NaN", line_no)
    return v


def _sections(lines: list[str]):
    """(keyword, header tokens, start, stop) of every section in file order,
    with lines[start:stop] its data lines.

    A generator, so that a bad header or stray data is raised only after
    every section before it has been parsed: errors come in file order.
    """
    heads = [
        i
        for i, raw in enumerate(lines)
        if raw and not raw[0].isspace() and raw[0] != "*"
    ]
    keyword, head, start = None, [], 0
    for h in heads + [len(lines)]:
        if keyword in (None, "NAME", "ENDATA"):
            for line_no, _, _ in _data_lines(lines, start, h):
                if keyword == "ENDATA":
                    raise MpsParseError("content after ENDATA", line_no)
                raise MpsParseError("data before any section header", line_no)
        if keyword is not None:
            yield keyword, head, start, h
        if h == len(lines):
            return
        if keyword == "ENDATA":
            raise MpsParseError("content after ENDATA", h + 1)
        head = lines[h].split()
        keyword = head[0].upper()
        if keyword not in _SECTIONS:
            raise MpsParseError(f"unknown section {head[0]!r}", h + 1)
        start = h + 1


def parse_mps(text: str | bytes) -> MpsDocument:
    """Parse MPS text into a document, validating references as they appear.

    The text is split into sections once; COLUMNS, which holds the matrix,
    RHS and RANGES are read in blocks of lines, each in one np.loadtxt call
    where that reads it as the line reader would (_bulk_read), else line by
    line.  An error names the first bad line of the file.
    """
    doc, blocks = _parse(text)
    for heads, runs, rows, values in blocks:
        cols = chain.from_iterable(map(repeat, heads, runs.tolist()))
        doc.columns.extend(zip(cols, rows, values.tolist()))
    return doc


def _parse(text: str | bytes) -> tuple[MpsDocument, list]:
    """parse_mps's reading with the COLUMNS entries kept out of the
    document: they come back in file order as one (heads, runs, rows,
    values) per block of lines (the heads and runs of _runs).

    COLUMNS, RHS and RANGES are read in blocks of lines, so the arrays
    alive at once stay small; a block is read only after the ones before
    it passed, by _bulk_read if it can be, else by its section's line
    reader, which also raises the error of a bad block.
    """
    if isinstance(text, bytes):
        text = text.decode("latin-1")
    lines = text.splitlines()
    doc = MpsDocument()
    row_names: set[str] = set()
    col_names: set[str] = set()
    blocks = []

    for keyword, head, start, stop in _sections(lines):
        if keyword == "NAME":
            doc.name = head[1] if len(head) > 1 else ""
        elif keyword == "ROWS":
            _parse_rows(doc, lines, start, stop, row_names)
        elif keyword in ("COLUMNS", "RHS", "RANGES"):
            for lo in range(start, stop, _COLUMNS_BLOCK):
                hi = min(lo + _COLUMNS_BLOCK, stop)
                read = _bulk_read(lines[lo:hi], row_names)
                if read is None and keyword == "COLUMNS":
                    read = _parse_columns(lines, lo, hi, row_names)
                elif read is None:
                    read = _parse_pairs(keyword, lines, lo, hi, row_names)
                names, rows, values = read
                if keyword == "COLUMNS":
                    heads, runs = _runs(names)
                    col_names.update(heads)
                    blocks.append((heads, runs, rows, values))
                else:
                    # The set names are dropped: a row's last entry holds.
                    target = doc.rhs if keyword == "RHS" else doc.ranges
                    target.update(zip(rows, values.tolist()))
        elif keyword == "BOUNDS":
            for line_no, raw, toks in _data_lines(lines, start, stop):
                _parse_bounds_line(doc, raw, toks, line_no, col_names)

    if not any(r.kind == "N" for r in doc.rows):
        raise MpsParseError("no objective (N) row declared")
    return doc, blocks


def _parse_rows(doc, lines, start, stop, row_names):
    for line_no, raw, toks in _data_lines(lines, start, stop):
        if len(toks) != 2:
            toks = _fixed_fields(raw)
        if len(toks) != 2:
            raise MpsParseError("ROWS entry needs a type and a name", line_no)
        kind = toks[0].upper()
        if kind not in _ROW_KINDS:
            raise MpsParseError(f"unknown row type {toks[0]!r}", line_no)
        if toks[1] in row_names:
            raise MpsParseError(f"duplicate row name {toks[1]!r}", line_no)
        row_names.add(toks[1])
        doc.rows.append(MpsRow(kind, toks[1]))


def _bulk_read(block: list[str], row_names) -> tuple | None:
    """The (names, rows, values) of block, lines of plain (name, row, value)
    entries, read by one np.loadtxt call: the first fields as an array, the
    rows as a list and the values as an array.  None if any line is not
    such an entry, so that the caller reads the block line by line.

    loadtxt splits on the whitespace str.split splits on and reads every
    number it accepts to the bit as float() does.  Its fields are as wide
    as the block's longest line, so no name is cut.  It is not tried on a
    block with a comment, a marker, a NUL (which a numpy string drops at
    the end of a name) or a line too long for arrays of its width, and its
    reading is refused when a line is not 3 tokens, a value is one loadtxt
    does not accept (a Fortran D exponent, 1_0), a row is undeclared or a
    value is NaN.
    """
    joined = "".join(block)
    width = max(map(len, block), default=0)
    if (
        width > _BULK_WIDTH
        or not joined.strip()
        or "*" in joined
        or "\0" in joined
        or "MARKER" in joined.upper()
    ):
        return None
    fields = [("name", f"U{width}"), ("row", f"U{width}"), ("value", "f8")]
    try:
        read = np.loadtxt(block, dtype=fields, comments=None, ndmin=1)
    except ValueError:
        return None
    rows = read["row"].tolist()
    values = read["value"].copy()
    if not row_names.issuperset(rows) or np.isnan(values).any():
        return None
    return read["name"], rows, values


def _runs(names: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The name heading each run of equal entries of names, and the run's
    length."""
    new_run = np.empty(len(names), dtype=bool)
    new_run[:1] = True
    np.not_equal(names[1:], names[:-1], out=new_run[1:])
    first = np.flatnonzero(new_run)
    return names[first].tolist(), np.diff(first, append=len(names))


def _parse_columns(lines, start, stop, row_names):
    """The (names, rows, values) of lines[start:stop], a block of a COLUMNS
    section, read line by line: one entry per (row, value) pair.  The names
    are an object array, since a numpy string drops a name's trailing NUL.
    """
    names, rows, values = [], [], []
    for line_no, raw, toks in _data_lines(lines, start, stop):
        if len(toks) >= 2 and toks[1].strip("'\"").upper() == "MARKER":
            raise MpsParseError(_MARKER_ERROR, line_no)
        if len(toks) not in (3, 5):
            toks = _fixed_fields(raw)
        if len(toks) not in (3, 5):
            raise MpsParseError(_COLUMNS_SHAPE_ERROR, line_no)
        for i in range(1, len(toks), 2):
            if toks[i] not in row_names:
                raise MpsParseError(
                    f"COLUMNS references undeclared row {toks[i]!r}", line_no
                )
            names.append(toks[0])
            rows.append(toks[i])
            values.append(_parse_value(toks[i + 1], line_no, "coefficient"))
    return np.array(names, dtype=object), rows, np.array(values)


def _parse_pairs(section, lines, start, stop, row_names):
    """The (names, rows, values) of lines[start:stop], a block of an RHS or
    RANGES section, read line by line: one entry per (row, value) pair,
    named by its line's set name ("" where the line omits it)."""
    names, rows, values = [], [], []
    for line_no, raw, toks in _data_lines(lines, start, stop):
        if len(toks) not in (2, 3, 4, 5):
            toks = _fixed_fields(raw)
        # The leading set name is optional; an even token count means it
        # was omitted and every token belongs to a (row, value) pair.
        if len(toks) in (2, 4):
            toks = [""] + toks
        if len(toks) not in (3, 5):
            raise MpsParseError(f"{section} entry needs (row, value) pairs", line_no)
        for i in range(1, len(toks), 2):
            if toks[i] not in row_names:
                raise MpsParseError(
                    f"{section} references undeclared row {toks[i]!r}", line_no
                )
            names.append(toks[0])
            rows.append(toks[i])
            values.append(_parse_value(toks[i + 1], line_no, f"{section} value"))
    return names, rows, np.array(values)


def _parse_bounds_line(doc, raw, toks, line_no, col_names):
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
        toks = _fixed_fields(raw)
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
        value = _parse_value(toks[3], line_no, "bound value")
    doc.bounds.append((code, col, value))


def _row_interval(kind: str, b: float, rng: float | None) -> tuple[float, float]:
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


def to_general_form(doc: MpsDocument) -> GeneralFormLp:
    """Lower a document to min c'x, Ax >= b (Ax = b on eq rows), l <= x <= u.

    The first N row is the objective; later N rows are free rows and are
    dropped.  A constraint row whose interval is one point (an E row
    without RANGES, or a zero range) becomes one equality row.  Any other
    row contributes a >= row for a finite lower end and a negated >= row
    for a finite upper end.  The RHS
    entry of the objective row is the negated objective constant.
    Duplicate (column, row) entries are summed in file order.
    """
    size = len(doc.columns)
    cols, rows, values = list(zip(*doc.columns)) or [(), (), ()]
    values = np.fromiter(values, np.float64, size)
    return _lower(doc, cols, np.ones(size, np.intp), rows, values)


def _lower(doc: MpsDocument, heads, runs, row_names, values) -> GeneralFormLp:
    """to_general_form of doc with the COLUMNS entries given apart: the
    column of each run of entries of one column and the run's length, then
    the row name of each entry (read once) and an array of their values."""
    obj_row = doc.objective_row
    cols = list(dict.fromkeys(heads))  # in order of first appearance
    col_idx = {cname: i for i, cname in enumerate(cols)}
    n = len(cols)

    kinds = {r.name: r.kind for r in doc.rows}
    for row in doc.ranges:
        if kinds[row] == "N":
            raise ValueError(f"RANGES entry on free row {row!r}")

    # Constraint row number of every declared row: -1 for the objective,
    # -2 for the other (dropped) N rows.
    con_rows = doc.constraint_rows()
    row_idx = {r.name: -2 for r in doc.rows if r.kind == "N"}
    row_idx[obj_row] = -1
    row_idx.update((r.name, i) for i, r in enumerate(con_rows))

    ent_col = np.repeat(
        np.fromiter(map(col_idx.__getitem__, heads), np.int64, len(heads)), runs
    )
    ent_row = np.fromiter(map(row_idx.__getitem__, row_names), np.int64, len(values))

    c = np.zeros(n)
    in_obj = ent_row == -1
    np.add.at(c, ent_col[in_obj], values[in_obj])

    # Duplicates are summed by add.at, which adds in file order from 0.0.
    in_con = ent_row >= 0
    keys, slot = np.unique(
        ent_row[in_con] * n + ent_col[in_con], return_inverse=True
    )
    sums = np.zeros(keys.size)
    np.add.at(sums, slot, values[in_con])
    key_row, key_col = np.divmod(keys, max(n, 1))

    # Each constraint row becomes its >= row (finite lower end), then its
    # negated >= row (finite upper end), or one equality row.
    bounds = [
        _row_interval(r.kind, doc.rhs.get(r.name, 0.0), doc.ranges.get(r.name))
        for r in con_rows
    ]
    lo, hi = np.array(bounds, dtype=np.float64).reshape(-1, 2).T
    has_lo = np.isfinite(lo)
    is_eq = has_lo & (lo == hi)
    has_hi = np.isfinite(hi) & ~is_eq
    out = np.cumsum(has_lo.astype(np.int64) + has_hi) - has_lo - has_hi
    lo_row, hi_row = out, out + has_lo
    b = np.empty(int(has_lo.sum() + has_hi.sum()))
    b[lo_row[has_lo]] = lo[has_lo]
    b[hi_row[has_hi]] = -hi[has_hi]
    eq = np.zeros(b.size, dtype=bool)
    eq[lo_row[is_eq]] = True
    to_lo, to_hi = has_lo[key_row], has_hi[key_row]
    a = SparseMatrix.from_triplets(
        b.size,
        n,
        np.concatenate([lo_row[key_row[to_lo]], hi_row[key_row[to_hi]]]),
        np.concatenate([key_col[to_lo], key_col[to_hi]]),
        np.concatenate([sums[to_lo], -sums[to_hi]]),
    )

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

    return GeneralFormLp(
        c=c,
        a=a,
        b=b,
        l=l,
        u=u,
        name=doc.name,
        objective_offset=-doc.rhs.get(obj_row, 0.0),
        eq=eq,
    )


def load_mps(path) -> GeneralFormLp:
    """to_general_form(parse_mps(text)) of the file, lowered from the
    COLUMNS arrays without building the document's list of entries."""
    with open(path, "rb") as fh:
        doc, blocks = _parse(fh.read())
    heads, runs, rows, values = list(zip(*blocks)) or [()] * 4
    return _lower(
        doc,
        list(chain.from_iterable(heads)),
        np.concatenate([np.zeros(0, np.intp), *runs]),
        chain.from_iterable(rows),
        np.concatenate([np.zeros(0), *values]),
    )


def _fmt(v: float) -> str:
    """Shortest decimal that round-trips through float."""
    return repr(float(v))


def write_mps(doc: MpsDocument) -> str:
    """Render a document as whitespace-delimited MPS.

    parse_mps(write_mps(doc)) reproduces doc exactly: names are emitted
    verbatim, values in round-trip decimal, sections in canonical order.
    A name that would not read back raises ValueError: an empty row or
    column name, or a row, column or document name holding whitespace.
    """
    if doc.name.split() not in ([], [doc.name]):
        raise ValueError(f"document name {doc.name!r} holds whitespace")
    for kind, name in chain(
        (("row", r.name) for r in doc.rows), (("column", c) for c, _, _ in doc.columns)
    ):
        if name.split() != [name]:
            raise ValueError(f"{kind} name {name!r} is empty or holds whitespace")
    out = [f"NAME {doc.name}".rstrip()]
    out.append("ROWS")
    for r in doc.rows:
        out.append(f" {r.kind}  {r.name}")
    out.append("COLUMNS")
    for col, row, val in doc.columns:
        out.append(f"    {col}  {row}  {_fmt(val)}")
    if doc.rhs:
        out.append("RHS")
        for row, val in doc.rhs.items():
            out.append(f"    RHS1  {row}  {_fmt(val)}")
    if doc.ranges:
        out.append("RANGES")
        for row, val in doc.ranges.items():
            out.append(f"    RNG1  {row}  {_fmt(val)}")
    if doc.bounds:
        out.append("BOUNDS")
        for code, col, value in doc.bounds:
            if value is None:
                out.append(f" {code}  BND1  {col}")
            else:
                out.append(f" {code}  BND1  {col}  {_fmt(value)}")
    out.append("ENDATA")
    return "\n".join(out) + "\n"
