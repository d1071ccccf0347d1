"""MPS reader and writer targeting the general problem form.

Reads both whitespace-delimited and fixed-column MPS variants into an
intermediate document, converts the document to a general-form problem in
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
from itertools import chain

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

    def column_order(self) -> list[str]:
        seen: dict[str, None] = {}
        for col, _, _ in self.columns:
            seen.setdefault(col)
        return list(seen)

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
    if np.isnan(v):
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
    is read in blocks of lines, each block in one pass.  An error names the
    first bad line of the file.
    """
    if isinstance(text, bytes):
        text = text.decode("latin-1")
    lines = text.splitlines()
    doc = MpsDocument()
    row_names: set[str] = set()
    col_names: set[str] = set()

    for keyword, head, start, stop in _sections(lines):
        if keyword == "NAME":
            doc.name = head[1] if len(head) > 1 else ""
        elif keyword == "ROWS":
            _parse_rows(doc, lines, start, stop, row_names)
        elif keyword == "COLUMNS":
            # Read in blocks of lines, so the token lists alive at once stay
            # small; a block is read only after the ones before it passed.
            for lo in range(start, stop, _COLUMNS_BLOCK):
                hi = min(lo + _COLUMNS_BLOCK, stop)
                _parse_columns(doc, lines, lo, hi, row_names, col_names)
        elif keyword in ("RHS", "RANGES"):
            for line_no, raw, toks in _data_lines(lines, start, stop):
                _parse_pairs_line(doc, keyword, raw, toks, line_no, row_names)
        elif keyword == "BOUNDS":
            for line_no, raw, toks in _data_lines(lines, start, stop):
                _parse_bounds_line(doc, raw, toks, line_no, col_names)

    if not any(r.kind == "N" for r in doc.rows):
        raise MpsParseError("no objective (N) row declared")
    return doc


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


def _is_marker(toks: list[str]) -> bool:
    return len(toks) >= 2 and toks[1].strip("'\"").upper() == "MARKER"


def _parse_columns(doc, lines, start, stop, row_names, col_names):
    """Append the (column, row, value) entries of lines[start:stop], a
    block of a COLUMNS section.

    Every line is split once and the tokens of the whole block are read
    together: one triple per (row, value) pair, one float conversion of all
    value tokens, one NaN test and one set difference against the declared
    rows.  A line of another token count than 3 or 5 is read through the
    fixed windows.  Errors are raised for the earliest bad line, and within
    a line in the order marker, token count, then each pair's row before
    its value.
    """
    block = lines[start:stop]
    joined = "".join(block)
    split = list(map(str.split, block))
    counts = np.fromiter(map(len, split), np.intp, len(split))
    # Blank lines have no tokens; a comment's first token starts with "*".
    keep = counts > 0
    if "*" in joined:
        keep &= [not toks or toks[0][0] != "*" for toks in split]
    at = np.flatnonzero(keep)
    if at.size < len(split):
        split = [split[k] for k in at]
        counts = counts[at]

    # Lines are read up to the first integer marker (seen in the free
    # reading) or the first line with neither 3 nor 5 fields in either
    # reading, whichever comes first.
    used, stopped = len(split), None
    if "MARKER" in joined.upper():
        marker = next((k for k, toks in enumerate(split) if _is_marker(toks)), None)
        if marker is not None:
            used, stopped = marker, _MARKER_ERROR
    for k in np.flatnonzero((counts[:used] != 3) & (counts[:used] != 5)):
        split[k] = _fixed_fields(block[at[k]])
        counts[k] = len(split[k])
        if counts[k] not in (3, 5):
            used, stopped = k, _COLUMNS_SHAPE_ERROR
            break
    # A 5-token line holds two (row, value) pairs of one column; read it as
    # two 3-token lines, so the tokens run in (column, row, value) triples.
    counts = counts[:used]
    for k in np.flatnonzero(counts == 5):
        toks = split[k]
        split[k] = toks[:3] + toks[:1] + toks[3:]
    line_of = np.repeat(np.arange(used), (counts - 1) // 2)
    flat = list(chain.from_iterable(split[:used]))
    cols, rows, texts = flat[0::3], flat[1::3], flat[2::3]

    # The first bad triple: an undeclared row, else a bad value; a row is
    # checked before the value of its own pair.
    bad = []
    unknown = set(rows).difference(row_names)
    if unknown:
        t = next(t for t, r in enumerate(rows) if r in unknown)
        bad.append((t, 0, f"COLUMNS references undeclared row {rows[t]!r}"))
    values, t, message = _coefficients(texts)
    if t is not None:
        bad.append((t, 1, message))
    if bad:
        t, _, message = min(bad)
        raise MpsParseError(message, start + 1 + int(at[line_of[t]]))
    if stopped is not None:
        raise MpsParseError(stopped, start + 1 + int(at[used]))

    col_names.update(cols)
    doc.columns.extend(zip(cols, rows, values.tolist()))


def _coefficients(texts: list[str]) -> tuple[np.ndarray, int | None, str]:
    """The COLUMNS value tokens as floats, Fortran D exponents read as E,
    with the index and message of the first token that is not a number or
    is NaN (index None when every token is good)."""
    if not texts:
        return np.zeros(0), None, ""
    # Tokens hold no newline, so one translate covers every token.
    read = "\n".join(texts).translate(_FORTRAN_EXPONENT).split("\n")
    try:
        values = np.fromiter(map(float, read), np.float64, len(read))
        stop, message = None, ""
    except ValueError:
        stop = next(t for t, tok in enumerate(read) if not _is_number(tok))
        values = np.fromiter(map(float, read[:stop]), np.float64, stop)
        message = f"coefficient {texts[stop]!r} is not a number"
    nan = np.flatnonzero(np.isnan(values))
    if nan.size:
        return values, int(nan[0]), "coefficient is NaN"
    return values, stop, message


def _is_number(tok: str) -> bool:
    try:
        float(tok)
    except ValueError:
        return False
    return True


def _parse_pairs_line(doc, section, raw, toks, line_no, row_names):
    # The leading set name is optional; an even token count means it was
    # omitted and every token belongs to a (row, value) pair.
    if len(toks) not in (2, 3, 4, 5):
        toks = _fixed_fields(raw)
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
        target[row] = _parse_value(toks[i + 1], line_no, f"{section} value")


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
    obj_row = doc.objective_row
    col_names, row_names, values = list(zip(*doc.columns)) or [(), (), ()]
    cols = list(dict.fromkeys(col_names))  # the order of doc.column_order()
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

    size = len(values)
    ent_col = np.fromiter(map(col_idx.__getitem__, col_names), np.int64, size)
    ent_row = np.fromiter(map(row_idx.__getitem__, row_names), np.int64, size)
    values = np.fromiter(values, np.float64, size)

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
    with open(path, "rb") as fh:
        return to_general_form(parse_mps(fh.read()))


def _fmt(v: float) -> str:
    """Shortest decimal that round-trips through float."""
    return repr(float(v))


def write_mps(doc: MpsDocument) -> str:
    """Render a document as whitespace-delimited MPS.

    parse_mps(write_mps(doc)) reproduces doc exactly: names are emitted
    verbatim, values in round-trip decimal, sections in canonical order.
    """
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
