"""The bulk read of COLUMNS, RHS and RANGES blocks (mps._bulk_read, one
np.loadtxt call per block) against the line-by-line reader it falls back
to, and load_mps, which lowers the COLUMNS arrays without the document's
list of entries, against to_general_form(parse_mps(text)).

Every reading is compared with the one the line reader alone gives (the
bulk read patched to refuse every block): the same document, or the same
error with the same line."""

import struct
import tempfile
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pdhglp import mps
from pdhglp.mps import load_mps, parse_mps, to_general_form, write_mps
from test_mps import documents
from test_mps_differential import _assert_same_error, _outcome, texts

HEAD = "NAME T\nROWS\n N  C\n G  R\n G  S\nCOLUMNS\n"
TAIL = "RHS\n    RHS1  R  1.0\n    RHS1  S  -2.5\nENDATA\n"


def _text(columns: list[str]) -> str:
    """A file whose COLUMNS section is the given lines, from line 7."""
    return HEAD + "\n".join(columns) + "\n" + TAIL


def _line_reader_only():
    return patch.object(mps, "_bulk_read", lambda block, row_names: None)


def _same_reading(text: str):
    """parse_mps(text) and its error are the line reader's; returns them."""
    doc, err = _outcome(parse_mps, text)
    with _line_reader_only():
        want_doc, want_err = _outcome(parse_mps, text)
    if want_err is not None:
        _assert_same_error(err, want_err)
        return None, err
    assert err is None, err
    assert doc == want_doc
    assert [type(v) for _, _, v in doc.columns] == [float] * len(doc.columns)
    return doc, None


def _bits(v) -> bytes:
    return np.asarray(v, dtype=np.float64).tobytes()


def _assert_same_problem(got, want):
    for field in ("c", "b", "l", "u"):
        assert _bits(getattr(got, field)) == _bits(getattr(want, field)), field
    assert got.eq.tobytes() == want.eq.tobytes()
    a, b = got.a.csr, want.a.csr
    assert a.shape == b.shape
    assert a.indptr.tobytes() == b.indptr.tobytes()
    assert a.indices.tobytes() == b.indices.tobytes()
    assert _bits(a.data) == _bits(b.data)
    assert got.name == want.name
    assert struct.pack("<d", got.objective_offset) == struct.pack(
        "<d", want.objective_offset
    )


def _load_text(text: str):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "instance.mps"
        path.write_bytes(text.encode("latin-1"))
        return _outcome(load_mps, path)


def _assert_load_matches(text: str):
    """load_mps of the file is to_general_form(parse_mps(text)), to the bit,
    or raises its error."""
    got, err = _load_text(text)
    want, want_err = _outcome(lambda t: to_general_form(parse_mps(t)), text)
    if want_err is not None:
        _assert_same_error(err, want_err)
        return
    assert err is None, err
    _assert_same_problem(got, want)


def _tokens() -> list[str]:
    """Number tokens as files write them: repr and %.17e of doubles across
    the exponent range, 30-digit decimals, subnormals, signed zeros,
    infinities and integers."""
    rng = np.random.default_rng(7)
    doubles = rng.standard_normal(3000) * 10.0 ** rng.integers(-300, 300, 3000)
    bits = rng.integers(0, 2**63, 3000, dtype=np.uint64).view(np.float64)
    finite = np.concatenate([doubles, bits[np.isfinite(bits)]])
    subnormal = rng.integers(1, 2**52, 500, dtype=np.uint64).view(np.float64)
    toks = [repr(float(v)) for v in finite]
    toks += ["%.17e" % v for v in finite]
    toks += [repr(float(v)) for v in subnormal] + ["%.17e" % v for v in -subnormal]
    digits = rng.integers(0, 10, (2000, 30))
    points = rng.integers(0, 31, 2000)
    for row, p in zip(digits.astype(str), points):
        s = "".join(row)
        toks.append(("-" if p % 2 else "") + s[:p] + "." + s[p:])
    toks += ["0", "-0", "0.0", "-0.0", "+0", "inf", "-inf", "+inf", "Infinity"]
    toks += ["-Infinity", "1e308", "1.7976931348623157e308", "1e309", "5e-324"]
    toks += ["2e-324", "1e-400", ".5", "5.", "+.5e-3", "1E5", "123456789012345678901"]
    toks += [str(int(v)) for v in rng.integers(-(10**12), 10**12, 500)]
    return toks


def test_loadtxt_reads_every_number_as_float_does():
    toks = _tokens()
    assert len(toks) > 15_000
    for lo in range(0, len(toks), 1024):
        chunk = toks[lo : lo + 1024]
        read = mps._bulk_read([f"    X{k}  R  {t}" for k, t in enumerate(chunk)], {"R"})
        assert read is not None
        names, rows, values = read
        assert names.tolist() == [f"X{k}" for k in range(len(chunk))]
        assert rows == ["R"] * len(chunk)
        want = np.array([float(t) for t in chunk])
        assert values.view(np.int64).tolist() == want.view(np.int64).tolist()


def _fixed_line(fields):
    """A fixed-column line with each field at the start of its window."""
    line = ""
    for (lo, _), text in zip(mps._FIXED_WINDOWS, fields):
        line = line.ljust(lo - 1) + text
    return line


LONG = "Y" * 60

# Blocks the bulk read refuses, each read by the line reader: a document or
# its error.  The line reader's reading is the same either way.
REFUSED = {
    "five tokens": ["    X  C  1.0  R  2.0", "    X  S  3.0"],
    "fixed name with a space": [
        "    X  R  1.0",
        _fixed_line(["", "MY COL", "R", "2.0"]),
    ],
    "fortran exponent": ["    X  R  1.5D2", "    X  S  -2d-1"],
    "underscore digits": ["    X  R  1_0", "    X  S  2.0"],
    "comment": ["* a comment", "    X  R  1.0", "    X  S  2.0"],
    "comment shaped like an entry": ["*X  R  1.0", "    X  S  2.0"],
    "marker": ["    X  R  1.0", "    M  'MARKER'  'INTORG'", "    X  S  2.0"],
    "lower-case marker": ["    X  R  1.0", "    M  marker  1.0"],
    "undeclared row": ["    X  R  1.0", "    X  Z  2.0"],
    "nan": ["    X  R  1.0", "    X  S  nan"],
    "not a number": ["    X  R  1.0", "    X  S  1,5"],
    "nul in a name": ["    X  R  1.0", "    X\0  R  2.0"],
    "blank block": ["", "   "],
    "line past the bulk width": ["    X  R  1.0", f"    {'W' * 300}  S  2.0"],
}

# Blocks the bulk read takes.
TAKEN = {
    "plain": ["    X  C  1.0", "    X  R  2.0", "    Y  S  -3.5e-7"],
    "name longer than every other line": [
        "    X  R  1.0",
        f"    {LONG}  S  2.0",
        f"    {LONG[:-1]}Z  R  3.0",
    ],
    "blank lines and tabs": ["", "\tX\tR\t1.0", "    X  S  2.0", "  "],
    "repeated entries": ["    X  R  1.0", "    Y  R  2.0", "    X  R  4.0"],
}


@pytest.mark.parametrize("lines", REFUSED.values(), ids=REFUSED.keys())
def test_refused_blocks_read_as_the_line_reader_reads_them(lines):
    assert mps._bulk_read(lines, {"C", "R", "S"}) is None
    text = _text(lines)
    _same_reading(text)
    _assert_load_matches(text)


@pytest.mark.parametrize("lines", TAKEN.values(), ids=TAKEN.keys())
def test_taken_blocks_read_as_the_line_reader_reads_them(lines):
    assert mps._bulk_read(lines, {"C", "R", "S"}) is not None
    text = _text(lines)
    assert _same_reading(text)[1] is None
    _assert_load_matches(text)


def test_no_name_is_cut_at_the_field_width():
    doc, _ = _same_reading(_text(TAKEN["name longer than every other line"]))
    assert [c for c, _, _ in doc.columns] == ["X", LONG, LONG[:-1] + "Z"]


@pytest.mark.parametrize("bad", ["    X  Z  2.0", "    X  S  nan", "    X  S  1D"])
def test_bad_line_in_a_second_block_after_an_irregular_first_block(bad):
    lines = ["    X  C  1.0  R  2.0", "* comment", "    X  S  1.0", "    Y  R  1.0", "", bad]
    text = _text(lines)
    with patch.object(mps, "_COLUMNS_BLOCK", 3):
        _, err = _same_reading(text)
    assert err is not None and err.line_no == 12


def test_rhs_and_ranges_blocks_read_as_the_line_reader_reads_them():
    rhs = ["    RHS1  R  1.0", "    RHS1  S  2.0", "    RHS1  R  3.0", "    RHS1  C  -4.0"]
    ranges = "RANGES\n    RNG  S  2.5\nENDATA\n"
    text = HEAD + "    X  R  1.0\nRHS\n" + "\n".join(rhs) + "\n" + ranges
    doc, _ = _same_reading(text)
    assert doc.rhs == {"R": 3.0, "S": 2.0, "C": -4.0} and doc.ranges == {"S": 2.5}
    bad = text.replace("RHS1  S  2.0", "RHS1  Q  2.0")
    _, err = _same_reading(bad)
    assert err.line_no == 10


@given(doc=documents())
def test_load_mps_is_the_lowering_of_parse_mps(doc):
    _assert_load_matches(write_mps(doc))


@given(data=st.data())
def test_load_mps_is_the_lowering_of_parse_mps_on_rendered_text(data):
    doc = data.draw(documents())
    text = data.draw(texts(doc))
    for block in (2, mps._COLUMNS_BLOCK):
        with patch.object(mps, "_COLUMNS_BLOCK", block):
            _assert_load_matches(text)


def test_sparse_corpus_files_load_as_their_parse_lowers(tmp_path, monkeypatch, perfbench):
    monkeypatch.chdir(tmp_path)
    perfbench("planted")
    corpus = perfbench("corpus")
    items = [it for it in corpus.setup_sparse(3) if it.form == "general"]
    assert len(items) == 4
    for item in items:
        raw = Path(item.path).read_bytes()
        got = load_mps(item.path)
        _assert_same_problem(got, to_general_form(parse_mps(raw)))
        with _line_reader_only():
            _assert_same_problem(got, load_mps(item.path))


def _sparse_mps_paths(perfbench) -> list[Path]:
    """The general-form (MPS) files of the sparse corpus, written to the
    working directory."""
    perfbench("planted")
    items = perfbench("corpus").setup_sparse(3)
    paths = [Path(it.path) for it in items if it.form == "general"]
    assert len(paths) == 4
    return paths


def _two_pairs_per_line(text: str) -> str:
    """text with each two consecutive COLUMNS lines of one column written
    as one line of two (row, value) pairs."""
    lines = text.splitlines()
    start = lines.index("COLUMNS") + 1
    stop = next(i for i in range(start, len(lines)) if not lines[i][0].isspace())
    out = []
    for line in lines[start:stop]:
        toks, last = line.split(), out[-1].split() if out else []
        if len(last) == 3 and last[0] == toks[0]:
            out[-1] += f"  {toks[1]}  {toks[2]}"
        else:
            out.append(line)
    return "\n".join(lines[:start] + out + lines[stop:]) + "\n"


def test_sparse_corpus_files_with_two_pairs_per_line_load_the_same(
    tmp_path, monkeypatch, perfbench
):
    monkeypatch.chdir(tmp_path)
    for path in _sparse_mps_paths(perfbench):
        text = _two_pairs_per_line(path.read_text())
        assert sum(len(line.split()) == 5 for line in text.splitlines()) > 1000
        five = path.with_suffix(".five.mps")
        five.write_text(text)
        _assert_same_problem(load_mps(five), load_mps(path))


def _refuse(*args):
    raise AssertionError("a line reader read a block of a plain file")


def test_plain_corpus_files_never_reach_the_line_readers(
    tmp_path, monkeypatch, perfbench
):
    monkeypatch.chdir(tmp_path)
    paths = _sparse_mps_paths(perfbench)
    monkeypatch.setattr(mps, "_parse_columns", _refuse)
    monkeypatch.setattr(mps, "_parse_pairs", _refuse)
    for path in paths:
        assert load_mps(path).a.nnz > 0


def test_a_declared_row_named_marker_is_still_a_marker():
    line = "    X  MARKER  1.0"
    assert mps._bulk_read([line], {"C", "MARKER"}) is None
    _, err = _same_reading(f"NAME T\nROWS\n N  C\n G  MARKER\nCOLUMNS\n{line}\nENDATA\n")
    assert err.line_no == 6 and "integer markers" in str(err)
