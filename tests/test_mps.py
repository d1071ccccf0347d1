import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdhglp.mps import (
    MpsDocument,
    MpsParseError,
    MpsRow,
    load_mps,
    parse_mps,
    to_general_form,
    write_mps,
)

FIXTURE = """\
* a comment
NAME          TESTPROB
ROWS
 N  COST
 L  LIM1
 G  LIM2
 E  MYEQN
COLUMNS
    X1        COST      1.0        LIM1      1.0
    X1        LIM2      1.0
    X2        COST      2.0        LIM1      1.0
    X2        MYEQN     -1.0
    X3        COST      -1.0       MYEQN     1.0
RHS
    RHS1      COST      -3.5       LIM1      4.0
    RHS1      LIM2      1.0        MYEQN     7.0
RANGES
    RNG1      LIM2      2.5
BOUNDS
 UP BND1      X1        4.0
 LO BND1      X2        -1.0
 FR BND1      X3
ENDATA
"""


def _tiny(body):
    return "NAME T\nROWS\n N  C\n" + body + "ENDATA\n"


NAMES = st.text(
    alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_", min_size=1, max_size=8
).filter(lambda s: s not in ("OBJ", "FREE", "MARKER"))
VALUES = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12
) | st.sampled_from([0.1, 0.2, 0.3, 1.0, 1e-16, -1e-16])


@st.composite
def documents(draw):
    """Valid documents: L, G and E rows, sometimes a second (free) N row,
    RANGES on any row but the objective, entries repeated up to three
    times for one (column, row) pair and not next to each other, an RHS
    entry for the objective, and up to three bounds of any code per column,
    applied in order."""
    n_rows = draw(st.integers(1, 4))
    n_cols = draw(st.integers(1, 4))
    row_names = draw(st.lists(NAMES, min_size=n_rows, max_size=n_rows, unique=True))
    col_names = draw(st.lists(NAMES, min_size=n_cols, max_size=n_cols, unique=True))
    rows = [MpsRow(draw(st.sampled_from("LGE")), r) for r in row_names]
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), MpsRow("N", "FREE"))
    rows.insert(0, MpsRow("N", "OBJ"))
    pairs = [
        (c, r.name) for c in col_names for r in rows if draw(st.booleans())
    ]
    if not pairs:
        pairs.append((col_names[0], "OBJ"))
    columns = [(c, r, draw(VALUES)) for c, r in pairs]
    for c, r in pairs:
        columns += [(c, r, draw(VALUES)) for _ in range(draw(st.integers(0, 2)))]
    others = [r.name for r in rows[1:]]
    rhs = {r: draw(VALUES) for r in ["OBJ"] + others if draw(st.booleans())}
    ranges = {r: draw(VALUES) for r in others if draw(st.booleans())}
    bounds = []
    # A bound may only reference a column the COLUMNS section declares.
    for c in dict.fromkeys(c for c, _ in pairs):
        for _ in range(draw(st.integers(0, 3))):
            code = draw(st.sampled_from(["LO", "UP", "FX", "FR", "MI", "PL"]))
            val = draw(VALUES) if code in ("LO", "UP", "FX") else None
            bounds.append((code, c, val))
    return MpsDocument(
        name=draw(NAMES),
        rows=rows,
        columns=columns,
        rhs=rhs,
        ranges=ranges,
        bounds=bounds,
    )


def _column_names(doc):
    """The document's columns in order of first appearance."""
    return list(dict.fromkeys(c for c, _, _ in doc.columns))


class TestParseDocument:
    def test_fixture_structure(self):
        doc = parse_mps(FIXTURE)
        assert doc.name == "TESTPROB"
        assert doc.objective_row == "COST"
        assert _column_names(doc) == ["X1", "X2", "X3"]
        assert [r.name for r in doc.constraint_rows()] == ["LIM1", "LIM2", "MYEQN"]
        assert ("X2", "MYEQN", -1.0) in doc.columns
        assert doc.rhs["MYEQN"] == 7.0
        assert doc.ranges == {"LIM2": 2.5}
        assert ("FR", "X3", None) in doc.bounds

    def test_bytes_input_decodes_latin1(self):
        doc = parse_mps(FIXTURE.encode("latin-1"))
        assert doc.name == "TESTPROB"

    def test_fortran_exponents(self):
        doc = parse_mps(_tiny("COLUMNS\n    X  C  1.5D2\n"))
        assert doc.columns == [("X", "C", 150.0)]

    def test_second_objective_row_dropped(self):
        doc = parse_mps(
            "NAME T\nROWS\n N  C\n N  C2\n G  R\n"
            "COLUMNS\n    X  C  1.0\n    X  C2  9.0\n    X  R  1.0\nENDATA\n"
        )
        assert doc.objective_row == "C"
        lp = to_general_form(doc)
        assert lp.c.tolist() == [1.0]
        assert lp.m == 1

    def test_optional_set_names(self):
        # RHS/RANGES entries may omit the set-name token
        doc = parse_mps(
            "NAME T\nROWS\n N  C\n G  R\nCOLUMNS\n    X  R  1.0\n"
            "RHS\n    R  3.0\nENDATA\n"
        )
        assert doc.rhs == {"R": 3.0}


# (text, line number, fragment of the message) of every line-numbered error.
ERROR_CASES = [
    ("NAME T\nROWS\n N  C\n Q  R1\nENDATA\n", 4, "row type"),
    ("NAME T\nROWS\n N  C\n G  R1\n G  R1\nENDATA\n", 5, "duplicate row"),
    (
        "NAME T\nROWS\n N  C\nCOLUMNS\n    X  R9  1.0\nENDATA\n",
        5,
        "undeclared row",
    ),
    ("NAME T\nROWS\n N  C\nBLAH\nENDATA\n", 4, "unknown section"),
    (
        "NAME T\nROWS\n N  C\n G  R\nCOLUMNS\n    X  R  1.0\n"
        "BOUNDS\n BV B  X\nENDATA\n",
        8,
        "BV",
    ),
    (
        "NAME T\nROWS\n N  C\nCOLUMNS\n    M  'MARKER'  'INTORG'\nENDATA\n",
        5,
        "marker",
    ),
    (
        "NAME T\nROWS\n N  C\nCOLUMNS\n    X  C  oops\nENDATA\n",
        5,
        "not a number",
    ),
]


class TestParseErrors:
    @pytest.mark.parametrize("text,line_no,frag", ERROR_CASES)
    def test_line_numbered_errors(self, text, line_no, frag):
        with pytest.raises(MpsParseError) as exc:
            parse_mps(text)
        msg = str(exc.value)
        assert msg.startswith(f"line {line_no}:")
        assert frag.lower() in msg.lower()

    def test_ranges_on_objective_rejected_at_conversion(self):
        # the document parses (RANGES is stored verbatim); lowering to the
        # general form is where a range on a free row stops making sense
        text = (
            "NAME T\nROWS\n N  C\n G  R\nCOLUMNS\n    X  R  1.0\n"
            "RANGES\n    RNG  C  1.0\nENDATA\n"
        )
        doc = parse_mps(text)
        with pytest.raises(ValueError, match="free row"):
            to_general_form(doc)

    def test_missing_rows_section(self):
        with pytest.raises(MpsParseError):
            parse_mps("NAME T\nCOLUMNS\n    X  C  1.0\nENDATA\n")


class TestGeneralFormConversion:
    def test_fixture_rows_and_bounds(self):
        lp = to_general_form(parse_mps(FIXTURE))
        assert np.allclose(lp.c, [1.0, 2.0, -1.0])
        # the objective RHS entry becomes a negated constant term
        assert lp.objective_offset == 3.5
        a = lp.a.csr.toarray()
        got = {tuple([*a[i], lp.b[i], lp.eq[i]]) for i in range(lp.m)}
        assert got == {
            (-1.0, -1.0, 0.0, -4.0, False),  # LIM1: x1 + x2 <= 4, negated
            (1.0, 0.0, 0.0, 1.0, False),  # LIM2 lower edge
            (-1.0, 0.0, 0.0, -3.5, False),  # LIM2 upper edge from the range
            (0.0, -1.0, 1.0, 7.0, True),  # MYEQN, one equality row
        }
        assert np.allclose(lp.l, [0.0, -1.0, -np.inf])
        assert np.allclose(lp.u, [4.0, np.inf, np.inf])

    def test_rhs_defaults_to_zero(self):
        lp = to_general_form(parse_mps(_tiny(" G  R\nCOLUMNS\n    X  R  1.0\n")))
        assert lp.b.tolist() == [0.0]
        assert lp.objective_offset == 0.0

    @pytest.mark.parametrize(
        "kind,rng,interval",
        [
            ("G", 2.5, (1.0, 3.5)),  # G: [b, b + |r|]
            ("G", -2.5, (1.0, 3.5)),
            ("L", 2.5, (-1.5, 1.0)),  # L: [b - |r|, b]
            ("L", -2.5, (-1.5, 1.0)),
            ("E", 2.0, (1.0, 3.0)),  # E, r >= 0: [b, b + r]
            ("E", -2.0, (-1.0, 1.0)),  # E, r < 0: [b + r, b]
        ],
    )
    def test_ranges_conventions(self, kind, rng, interval):
        text = (
            f"NAME T\nROWS\n N  C\n {kind}  R\nCOLUMNS\n    X  R  1.0\n"
            f"RHS\n    S  R  1.0\nRANGES\n    G  R  {rng}\nENDATA\n"
        )
        lp = to_general_form(parse_mps(text))
        lo, hi = interval
        rows = {(float(lp.a.csr.toarray()[i][0]), float(lp.b[i])) for i in range(lp.m)}
        assert rows == {(1.0, lo), (-1.0, -hi)}

    def test_negative_up_releases_default_lower(self):
        lp = to_general_form(
            parse_mps(_tiny(" G  R\nCOLUMNS\n    X  R  1.0\nBOUNDS\n UP B  X  -2.0\n"))
        )
        assert lp.l[0] == -np.inf and lp.u[0] == -2.0

    def test_negative_up_after_explicit_lower_conflicts(self):
        text = _tiny(
            " G  R\nCOLUMNS\n    X  R  1.0\n"
            "BOUNDS\n LO B  X  0.0\n UP B  X  -2.0\n"
        )
        with pytest.raises(ValueError, match="conflicting bounds"):
            to_general_form(parse_mps(text))

    def test_fx_then_lo_conflicts(self):
        text = _tiny(
            " G  R\nCOLUMNS\n    X  R  1.0\nBOUNDS\n FX B  X  1.0\n LO B  X  3.0\n"
        )
        with pytest.raises(ValueError, match="conflicting bounds"):
            to_general_form(parse_mps(text))

    def test_mi_and_pl_codes(self):
        lp = to_general_form(
            parse_mps(
                _tiny(
                    " G  R\nCOLUMNS\n    X  R  1.0\n    Y  R  1.0\n"
                    "BOUNDS\n MI B  X\n PL B  Y\n"
                )
            )
        )
        assert lp.l[0] == -np.inf and lp.u[0] == np.inf
        assert lp.l[1] == 0.0 and lp.u[1] == np.inf

    def test_column_in_objective_only(self):
        lp = to_general_form(
            parse_mps(_tiny(" G  R\nCOLUMNS\n    X  R  1.0\n    Z  C  5.0\n"))
        )
        assert lp.n == 2
        assert lp.c.tolist() == [0.0, 5.0]


class TestFixedFormatFallback:
    @staticmethod
    def _fixed_line(fields):
        # classic windows (1-based): 5-12, 15-22, 25-36, 40-47, 50-61
        starts = {2: 4, 3: 14, 4: 24, 5: 39, 6: 49}
        line = ""
        for idx, text in fields:
            line = line.ljust(starts[idx]) + text
        return line

    def test_embedded_space_in_column_name(self):
        fixed = (
            "NAME\nROWS\n N  C\n G  R1\nCOLUMNS\n"
            + self._fixed_line([(2, "A B"), (3, "C"), (4, "1.0"), (5, "R1"), (6, "2.0")])
            + "\nRHS\n    RHS       R1            3.0\nENDATA\n"
        )
        doc = parse_mps(fixed)
        assert _column_names(doc) == ["A B"]
        assert ("A B", "R1", 2.0) in doc.columns
        lp = to_general_form(doc)
        assert lp.n == 1 and lp.m == 1 and lp.b[0] == 3.0

    def test_free_format_wins_when_token_count_is_right(self):
        # a plain line must not be pushed through the fixed windows
        doc = parse_mps(_tiny("COLUMNS\n  XLONGNAME  C  1.0\n"))
        assert _column_names(doc) == ["XLONGNAME"]


class TestWriteRoundTrip:
    def test_fixture_round_trips_exactly(self):
        doc = parse_mps(FIXTURE)
        assert parse_mps(write_mps(doc)) == doc

    def test_load_from_path(self, tmp_path):
        path = tmp_path / "prob.mps"
        path.write_text(FIXTURE)
        doc = load_mps(path)
        assert doc.name == "TESTPROB"

    @given(doc=documents())
    @settings(max_examples=40)
    def test_random_documents_round_trip(self, doc):
        assert parse_mps(write_mps(doc)) == doc

    @pytest.mark.parametrize(
        "change,message",
        [
            ({"columns": [("", "COST", 1.0)]}, "column name '' is empty"),
            ({"columns": [("X\t1", "COST", 1.0)]}, "column name 'X"),
            ({"rows": [MpsRow("N", "COST"), MpsRow("G", "")]}, "row name ''"),
            ({"rows": [MpsRow("N", "CO ST")]}, "row name 'CO ST'"),
            ({"name": "my lp"}, "document name 'my lp' holds whitespace"),
        ],
    )
    def test_names_that_do_not_read_back_are_refused(self, change, message):
        doc = MpsDocument(
            name="T", rows=[MpsRow("N", "COST")], columns=[("X1", "COST", 1.0)]
        )
        assert parse_mps(write_mps(doc)) == doc
        with pytest.raises(ValueError, match=message):
            write_mps(dataclasses.replace(doc, **change))
