import dataclasses
import json
import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdhglp import cli, demos, exact
from pdhglp.instance_io import (
    TRACE_HEADER,
    load_problem,
    problem_from_json,
    problem_to_json,
    read_trace_csv,
    result_to_json,
    save_problem,
    write_trace_csv,
)
from pdhglp.linalg import SparseMatrix
from pdhglp.model import GeneralFormLp, StandardFormLp
from pdhglp.mps import MpsParseError
from pdhglp.pdhg import PdhgConfig, SolveStatus, TraceRecord, run

from helpers import block_copies, same_entries

MPS_TEXT = """\
NAME          TESTPROB
ROWS
 N  COST
 G  LIM2
COLUMNS
    X1        COST      1.0        LIM2      1.0
RHS
    RHS1      LIM2      1.0
ENDATA
"""


class TestProblemJson:
    def test_general_round_trip_with_infinities(self):
        p = GeneralFormLp(
            c=np.array([1.0, -2.0]),
            a=SparseMatrix.from_dense([[1.0, 0.5], [0.0, -1.0]]),
            b=np.array([0.25, -1.0]),
            l=np.array([-np.inf, 0.0]),
            u=np.array([3.0, np.inf]),
            name="roundtrip",
            objective_offset=1.5,
        )
        q = problem_from_json(problem_to_json(p))
        assert isinstance(q, GeneralFormLp)
        assert q.name == p.name and q.objective_offset == 1.5
        np.testing.assert_array_equal(q.c, p.c)
        np.testing.assert_array_equal(q.b, p.b)
        np.testing.assert_array_equal(q.l, p.l)
        np.testing.assert_array_equal(q.u, p.u)
        assert same_entries(q.a, p.a)

    def test_equality_rows_round_trip(self):
        p = GeneralFormLp(
            c=np.array([1.0, -2.0]),
            a=SparseMatrix.from_dense([[1.0, 0.5], [0.0, -1.0], [2.0, 1.0]]),
            b=np.array([0.25, -1.0, 3.0]),
            l=np.array([-np.inf, 0.0]),
            u=np.array([3.0, np.inf]),
            eq=np.array([True, False, True]),
        )
        doc = json.loads(json.dumps(problem_to_json(p)))
        assert doc["eq"] == [True, False, True]
        q = problem_from_json(doc)
        np.testing.assert_array_equal(q.eq, p.eq)
        np.testing.assert_array_equal(q.b, p.b)
        # Without equality rows the key is left out, and absent it means none.
        plain = problem_to_json(dataclasses.replace(p, eq=None))
        assert "eq" not in plain
        assert not problem_from_json(plain).eq.any()

    def test_standard_round_trip(self):
        p = demos.std_both_infeasible()
        q = problem_from_json(problem_to_json(p))
        assert isinstance(q, StandardFormLp)
        np.testing.assert_array_equal(q.c, p.c)
        assert same_entries(q.a, p.a)

    @given(st.data())
    @settings(max_examples=30)
    def test_random_problems_survive_json_text(self, data):
        m = data.draw(st.integers(1, 4))
        n = data.draw(st.integers(1, 4))
        vals = st.floats(allow_nan=False, allow_infinity=False, width=64)
        rng_seed = data.draw(st.integers(0, 2**31 - 1))
        rng = np.random.default_rng(rng_seed)
        dense = rng.standard_normal((m, n))
        dense[rng.random((m, n)) < 0.4] = 0.0
        p = StandardFormLp(
            c=np.array([data.draw(vals) for _ in range(n)]),
            a=SparseMatrix.from_dense(dense),
            b=np.array([data.draw(vals) for _ in range(m)]),
            name=data.draw(st.text(max_size=12)),
        )
        # through actual JSON text, not just the dict
        q = problem_from_json(json.loads(json.dumps(problem_to_json(p))))
        np.testing.assert_array_equal(q.c, p.c)
        np.testing.assert_array_equal(q.b, p.b)
        assert same_entries(q.a, p.a)
        assert q.name == p.name

    def test_save_load_json(self, tmp_path):
        path = tmp_path / "inst.json"
        p = demos.std_feasible()
        save_problem(p, path)
        q = load_problem(path)
        np.testing.assert_array_equal(q.c, p.c)

    def test_load_mps_path(self, tmp_path):
        path = tmp_path / "inst.mps"
        path.write_text(MPS_TEXT)
        p = load_problem(path)
        assert isinstance(p, GeneralFormLp)
        assert p.n == 1 and p.m == 1

    def test_mps_e_rows_solve_as_m_equality_rows(self, tmp_path):
        # min x1 + 2 x2 + 3 x3 with x1 + x2 + x3 = 2 and x1 - x2 = 0: the
        # optimum is x = (1, 1, 0) at 3, read as 2 equality rows, not 4.
        path = tmp_path / "eq.mps"
        path.write_text(
            "NAME EQ\nROWS\n N  COST\n E  R1\n E  R2\nCOLUMNS\n"
            "    X1  COST  1.0  R1  1.0\n    X1  R2  1.0\n"
            "    X2  COST  2.0  R1  1.0\n    X2  R2  -1.0\n"
            "    X3  COST  3.0  R1  1.0\nRHS\n    RHS1  R1  2.0\nENDATA\n"
        )
        p = load_problem(path)
        assert p.m == 2 and p.eq.all()
        out = run(p)
        assert out.status is SolveStatus.OPTIMAL
        np.testing.assert_allclose(out.x, [1.0, 1.0, 0.0], atol=1e-6)
        assert out.primal_objective == pytest.approx(3.0, abs=1e-6)
        assert out.kkt.max <= 1e-8

    def test_unknown_extension_parsed_as_mps_with_line_number(self, tmp_path):
        path = tmp_path / "garbage.txt"
        path.write_text("this is not an instance\n")
        with pytest.raises(MpsParseError, match="line 1"):
            load_problem(path)


class TestTraceCsv:
    RECORDS = [
        TraceRecord(40, "difference", 1.5e-3, 0.25, 1e-2, False, 3.5),
        TraceRecord(40, "normalized_iterate", None, -0.5, 1e-2, False, 3.6),
        TraceRecord(80, "normalized_average", 0.0, 0.75, 5e-3, True, 7.25),
    ]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace_csv(self.RECORDS, path)
        back = read_trace_csv(path)
        assert back == self.RECORDS

    def test_header_and_none_encoding(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace_csv(self.RECORDS, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(TRACE_HEADER)
        # None scaled_err serializes as an empty field
        assert lines[2].split(",")[2] == ""

    def test_round_trip_of_a_run_with_a_support_row(self, tmp_path):
        out = run(demos.std_feasible())
        support = [r for r in out.trace if r.seq == "support"]
        # One projection, at a check whose pattern held since the last one.
        assert len(support) == 1 and not support[0].active_changed
        path = tmp_path / "trace.csv"
        write_trace_csv(out.trace, path)
        assert read_trace_csv(path) == out.trace

    def test_standard_form_row_with_negative_objective_has_no_scaled_error(
        self, tmp_path
    ):
        out = run(demos.std_feasible())
        (i,) = [
            i for i, r in enumerate(out.trace) if r.k == 40 and r.seq == "difference"
        ]
        row = out.trace[i]
        assert row.obj_term == pytest.approx(-8.6e-6, rel=0.01)
        assert row.scaled_err is None
        path = tmp_path / "trace.csv"
        write_trace_csv(out.trace, path)
        line = path.read_text().splitlines()[1 + i]
        assert line.split(",")[:3] == ["40", "difference", ""]
        assert read_trace_csv(path)[i] == row

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_trace_csv(path)

    @pytest.mark.parametrize(
        "rows, line",
        [([], 1), (["40,difference,,0.25,0.01,0"], 3), (["40,support,,1,1,0,1,9"], 3)],
        ids=["empty", "short row", "long row"],
    )
    def test_malformed_file_names_its_line(self, tmp_path, rows, line):
        path = tmp_path / "trace.csv"
        if rows:
            write_trace_csv(self.RECORDS[:1], path)
            path.write_text(path.read_text() + "\n".join(rows) + "\n")
        else:
            path.write_text("")
        with pytest.raises(ValueError, match=f"^line {line}: "):
            read_trace_csv(path)


class TestResultJson:
    def test_optimal_outcome_fields(self):
        p = demos.std_feasible()
        out = run(p, PdhgConfig(max_iters=100_000))
        doc = result_to_json(out, p)
        assert doc["status"] == "optimal"
        assert doc["iterations"] == out.iterations
        assert doc["primal_objective"] == pytest.approx(2.0, abs=1e-6)
        assert doc["dual_objective"] == pytest.approx(2.0, abs=1e-6)
        assert set(doc["kkt"]) == {"primal", "dual", "gap", "max"}
        assert doc["primal_certificate"] is None
        assert len(doc["x"]) == p.n and len(doc["y"]) == p.m

    def test_sparse_path_result_fields(self):
        p = block_copies(demos.std_feasible(), 71)
        out = run(p, PdhgConfig(max_iters=100_000))
        doc = result_to_json(out, p)
        assert len(doc["x"]) == p.n and len(doc["y"]) == p.m
        json.dumps(doc)

    def test_infeasible_outcome_carries_certificate(self):
        p = demos.std_primal_infeasible()
        out = run(p, PdhgConfig(max_iters=100_000))
        doc = result_to_json(out, p)
        assert doc["status"] == "primal_infeasible"
        cert = doc["primal_certificate"]
        assert cert["passed"] is True
        assert cert["side"] == "primal"
        assert cert["sequence"] in (
            "difference",
            "normalized_iterate",
            "normalized_average",
        )
        assert isinstance(cert["vector"], list)
        json.dumps(doc)  # every field must be serializable

    def test_certificates_report_exactness(self):
        # Certificates of problems up to 12 x 12 are repaired and re-checked
        # exactly; larger ones are not, and say so with null.
        for p, want in (
            (demos.std_primal_infeasible(), True),
            (block_copies(demos.std_primal_infeasible(), 13), None),
        ):
            doc = result_to_json(run(p, PdhgConfig(max_iters=100_000)), p)
            assert doc["primal_certificate"]["exact"] is want


# One variable, no constraint rows: as MPS with a bound, as standard-form
# JSON and as general-form JSON.
_NO_ROWS = {
    "norows.mps": "NAME T\nROWS\n N C\nCOLUMNS\n X C 1.0\n"
    "BOUNDS\n UP B X 2.0\nENDATA\n",
    "standard.json": json.dumps(
        {
            "form": "standard",
            "c": [1.0],
            "a": {"shape": [0, 1], "rows": [], "cols": [], "values": []},
            "b": [],
        }
    ),
    "general.json": json.dumps(
        {
            "form": "general",
            "c": [1.0],
            "a": {"shape": [0, 1], "rows": [], "cols": [], "values": []},
            "b": [],
            "l": [0.0],
            "u": [2.0],
        }
    ),
}


_STANDARD_DOC = {
    "form": "standard",
    "c": [1.0, 2.0],
    "a": {"shape": [1, 2], "rows": [0, 0], "cols": [0, 1], "values": [1.0, 1.0]},
    "b": [1.0],
}
_GENERAL_DOC = dict(_STANDARD_DOC, form="general", l=[0.0, 0.0], u=[None, None])


def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


def _matrix_without(key):
    return dict(_STANDARD_DOC, a=_without(_STANDARD_DOC["a"], key))


# Malformed instance documents and a word the error must name.
_MALFORMED = {
    "not-an-object": ([1, 2], "must be a JSON object"),
    "only-form": ({"form": "standard"}, "'c'"),
    **{
        f"no-{key}": (_without(_STANDARD_DOC, key), repr(key))
        for key in ("c", "a", "b")
    },
    **{
        f"general-no-{key}": (_without(_GENERAL_DOC, key), repr(key))
        for key in ("l", "u")
    },
    **{
        f"a-no-{key}": (_matrix_without(key), repr(key))
        for key in ("shape", "rows", "cols", "values")
    },
    "a-not-an-object": (dict(_STANDARD_DOC, a=[1.0]), "must be a JSON object"),
}


def _matrix_with(**entries):
    return dict(_GENERAL_DOC, a=dict(_GENERAL_DOC["a"], **entries))


# Instance documents with an entry of the wrong JSON type, and the key the
# error must name.  The first three solved a wrong problem with exit 0 (row
# 0.5 read as row 0, "no" and 2 read as equality rows); the others raised a
# TypeError.
_MISTYPED = {
    "row-index-half": (_matrix_with(rows=[0.5, 0]), "'rows'"),
    "eq-string": (dict(_GENERAL_DOC, eq=["no"]), "'eq'"),
    "eq-integer": (dict(_GENERAL_DOC, eq=[2]), "'eq'"),
    "null-index": (_matrix_with(cols=[None, 1]), "'cols'"),
    "null-offset": (dict(_GENERAL_DOC, objective_offset=None), "'objective_offset'"),
    "shape-string": (_matrix_with(shape="12"), "'shape'"),
    "shape-floats": (_matrix_with(shape=[1.0, 2.0]), "'shape'"),
    # An integer too large for a float or an index raised OverflowError,
    # and a list name solved with exit 0.
    "c-huge": (dict(_GENERAL_DOC, c=[10**400, 1]), "'c'"),
    "offset-huge": (dict(_GENERAL_DOC, objective_offset=10**400), "'objective_offset'"),
    "shape-huge": (_matrix_with(shape=[1, 10**20]), "'shape'"),
    "row-huge": (_matrix_with(rows=[10**20, 0]), "'rows'"),
    "name-list": (dict(_GENERAL_DOC, name=[1, 2]), "'name'"),
}

# Instance documents the oracle cannot read as rational data, and the
# error validate gives for them.  An infinite entry raised OverflowError.
_NON_FINITE = {
    "c-inf": (dict(_GENERAL_DOC, c=[math.inf, 1.0]), "c contains NaN or infinite entries"),
    "c-nan": (dict(_GENERAL_DOC, c=[math.nan, 1.0]), "c contains NaN or infinite entries"),
    "b-inf": (dict(_GENERAL_DOC, b=[-math.inf]), "b contains NaN or infinite entries"),
    "a-nan": (_matrix_with(values=[1.0, math.nan]), "A contains NaN or infinite entries"),
    "l-nan": (dict(_GENERAL_DOC, l=[0.0, math.nan]), "bounds contain NaN"),
    "u-nan": (dict(_GENERAL_DOC, u=[math.nan, None]), "bounds contain NaN"),
    "offset-inf": (
        dict(_GENERAL_DOC, objective_offset=math.inf),
        "objective_offset contains NaN or infinite entries",
    ),
    "offset-nan": (
        dict(_STANDARD_DOC, objective_offset=math.nan),
        "objective_offset contains NaN or infinite entries",
    ),
}

# Files whose bounds a float reads as x_0 >= +inf or x_0 <= -inf, which
# solve and the oracle both refuse, and the error validate gives first.
_INFINITE_BOUNDS = {
    "lower.json": (
        json.dumps(_GENERAL_DOC).replace('"l": [0.0, 0.0]', '"l": [1e999, 0.0]'),
        "lower bound +inf is not a valid bound",
    ),
    "upper.json": (
        json.dumps(_GENERAL_DOC).replace('"u": [null, null]', '"u": [-1e999, null]'),
        "upper bound -inf is not a valid bound",
    ),
    "lower.mps": (
        MPS_TEXT.replace("ENDATA", "BOUNDS\n    LO        BND       X1        1e400\nENDATA"),
        "lower bound +inf is not a valid bound",
    ),
}

# Documents whose solve diverges.  Only the standard-form one overflows the
# iterate sums as well as the steps.
_DIVERGING = {
    "general": {
        "form": "general",
        "c": [-1e308, 1.0],
        "a": {"shape": [1, 2], "rows": [0, 0], "cols": [0, 1], "values": [1.0, 1.0]},
        "b": [1.0],
        "l": [0, 0],
        "u": [None, None],
    },
    "standard": {
        "form": "standard",
        "c": [-1e308, 1.0],
        "a": {"shape": [1, 2], "rows": [0, 0], "cols": [0, 1], "values": [1.0, -1.0]},
        "b": [0.0],
    },
}

# One G row and an empty COLUMNS section: a problem without columns.
_NO_COLUMNS_MPS = "NAME T\nROWS\n N C\n G R1\nCOLUMNS\nRHS\n RHS R1 1.0\nENDATA\n"


class TestCliSolve:
    def test_optimal_demo(self, capsys):
        code = cli.main(["solve", "--demo", "std-feasible"])
        out = capsys.readouterr().out.splitlines()
        assert code == cli.EXIT_OK
        assert out[0] == "optimal"
        assert any("objective: 2" in s for s in out)

    def test_both_infeasible_demo_prints_both_certificates(self, capsys):
        code = cli.main(["solve", "--demo", "std-both-infeasible"])
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        assert out.splitlines()[0] == "both_infeasible"
        assert "primal infeasibility certified by" in out
        assert "dual infeasibility certified by" in out

    def test_exact_certificates_say_so(self, capsys):
        cli.main(["solve", "--demo", "std-both-infeasible"])
        certified = [s for s in capsys.readouterr().out.splitlines() if "certified" in s]
        assert len(certified) == 2
        assert all(s.endswith(") exact") for s in certified)

    def test_support_certificates_are_named(self, capsys):
        # ex1(1,2)'s active pattern holds from k=40 to k=80, and the
        # projection at k=80 certifies both sides.
        cli.main(["solve", "--demo", "ex1", "--alpha", "1", "--beta", "2"])
        certified = [s for s in capsys.readouterr().out.splitlines() if "certified" in s]
        assert len(certified) == 2
        assert all("certified by support at k=80 " in s for s in certified)

    def test_ex1_knobs(self, capsys):
        code = cli.main(["solve", "--demo", "ex1", "--alpha", "1", "--beta", "2"])
        assert code == cli.EXIT_OK
        assert capsys.readouterr().out.splitlines()[0] == "both_infeasible"

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--kkt-tol", "inf", "kkt_tol must be positive and finite, got inf"),
            ("--eps", "inf", "eps must be positive and finite, got inf"),
            ("--eps", "nan", "eps must be positive and finite, got nan"),
            ("--kkt-tol", "0", "kkt_tol must be positive and finite, got 0.0"),
            ("--step-factor", "1", "step factor must be in (0, 1), got 1.0"),
            ("--step-factor", "0", "step factor must be in (0, 1), got 0.0"),
            ("--step-factor", "nan", "step factor must be in (0, 1), got nan"),
        ],
    )
    def test_bad_settings_are_input_errors(self, flag, value, message, capsys):
        # An infinite kkt_tol once made any iterate "optimal" (ex1(1, 2) is
        # both infeasible); the settings are checked before the instance
        # is loaded.
        code = cli.main(["solve", "--demo", "ex1", "--alpha", "1", "--beta", "2", flag, value])
        out = capsys.readouterr()
        assert code == cli.EXIT_PARSE
        assert out.out == ""
        assert f"error: {message}" in out.err

    def test_iteration_limit_exit_code(self, capsys):
        code = cli.main(["solve", "--demo", "std-feasible", "--max-iters", "10"])
        assert code == cli.EXIT_ITER_LIMIT
        assert capsys.readouterr().out.splitlines()[0] == "iteration_limit"

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.mps"
        bad.write_text("NAME T\nROWS\n N  C\n Q  R\nENDATA\n")
        code = cli.main(["solve", str(bad)])
        err = capsys.readouterr().err
        assert code == cli.EXIT_PARSE
        assert "line 4" in err

    def test_garbage_file_reports_line_one(self, tmp_path, capsys):
        bad = tmp_path / "garbage.txt"
        bad.write_text("complete nonsense\n")
        code = cli.main(["solve", str(bad)])
        assert code == cli.EXIT_PARSE
        assert "line 1" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        code = cli.main(["solve", str(tmp_path / "absent.mps")])
        assert code == cli.EXIT_PARSE

    @pytest.mark.parametrize(
        "args",
        [
            ["solve", "{dir}"],
            ["solve", "--demo", "ex1", "--json-out", "{dir}"],
            ["solve", "--demo", "ex1", "--trace-out", "{dir}"],
            ["analyze", "--demo", "std-primal-infeasible", "--json-out", "{dir}"],
        ],
        ids=["instance", "solve-json-out", "trace-out", "analyze-json-out"],
    )
    def test_a_directory_path_is_an_input_error(self, args, tmp_path, capsys):
        # Opening a directory raises IsADirectoryError, an OSError other
        # than FileNotFoundError.
        code = cli.main([a.format(dir=tmp_path) for a in args])
        assert code == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path) in err

    def test_all_zero_matrix_is_a_solver_error(self, tmp_path, capsys):
        # The file parses and validates; the solver cannot size its steps.
        path = tmp_path / "zero.json"
        doc = {
            "form": "general",
            "c": [1.0, -1.0],
            "a": {"shape": [1, 2], "rows": [], "cols": [], "values": []},
            "b": [0.0],
            "l": [0.0, 0.0],
            "u": [None, None],
        }
        path.write_text(json.dumps(doc))
        code = cli.main(["solve", str(path)])
        assert code == cli.EXIT_NUMERICAL
        assert "all-zero" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", _DIVERGING.values(), ids=list(_DIVERGING))
    def test_diverged_solve_writes_strict_json(self, doc, tmp_path, capsys):
        # c_0 = -1e308 drives x to overflow: the run stops with divergence,
        # its objectives, kkt and some entries of x and y not finite.  Each
        # is written as null, which a strict parser reads.  The step loop
        # and the iterate sums overflow without a numpy warning: the verdict
        # reports it.
        path, out = tmp_path / "huge.json", tmp_path / "out.json"
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main(["solve", str(path), "--json-out", str(out)])
        capsys.readouterr()
        assert code == cli.EXIT_NUMERICAL

        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        result = json.loads(out.read_text(), parse_constant=refuse)
        assert result["termination"] == "divergence"
        assert result["primal_objective"] is None
        assert result["dual_objective"] is None
        assert set(result["kkt"].values()) == {None}
        assert None in result["x"] and None in result["y"]

    @pytest.mark.parametrize("doc", _DIVERGING.values(), ids=list(_DIVERGING))
    def test_diverged_analyze_exits_3(self, doc, tmp_path, capsys):
        # The trajectory overflows within a few steps: analyze stops before
        # the ray refinement, which would run its whole budget on it.
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main(["analyze", str(path)])
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert code == cli.EXIT_NUMERICAL
        assert captured.out == ""
        assert "trajectory diverged: z^" in captured.err

    def test_diverged_solve_of_huge_data_warns_nothing(self, tmp_path, capsys):
        # c and b of 1e307 scale overflow at the first check (k = 40); the
        # closing residuals of the non-finite iterate raise no warning.
        p = demos.std_primal_infeasible()
        path, out = tmp_path / "huge.json", tmp_path / "out.json"
        save_problem(dataclasses.replace(p, c=p.c * 1e307, b=p.b * 1e307), str(path))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main(["solve", str(path), "--json-out", str(out)])
        capsys.readouterr()
        assert code == cli.EXIT_NUMERICAL

        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        result = json.loads(out.read_text(), parse_constant=refuse)
        assert result["termination"] == "divergence"
        assert result["iterations"] == 40

    @pytest.mark.parametrize("name", sorted(_NO_ROWS))
    def test_problem_without_rows_is_refused(self, name, tmp_path, capsys):
        path = tmp_path / name
        path.write_text(_NO_ROWS[name])
        code = cli.main(["solve", str(path)])
        assert code == cli.EXIT_PARSE
        assert "no constraint rows" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "analyze", "oracle"])
    @pytest.mark.parametrize("case", sorted(_MALFORMED))
    def test_malformed_instance_json_is_a_parse_error(
        self, command, case, tmp_path, capsys
    ):
        doc, named = _MALFORMED[case]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code = cli.main([command, str(path)])
        assert code == cli.EXIT_PARSE
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(_MISTYPED))
    def test_mistyped_instance_json_is_a_parse_error(self, case, tmp_path, capsys):
        doc, named = _MISTYPED[case]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code = cli.main(["solve", str(path)])
        out = capsys.readouterr()
        assert code == cli.EXIT_PARSE and out.out == ""
        assert out.err.startswith("error: ") and named in out.err

    def test_null_eq_means_no_equality_rows(self, tmp_path):
        path = tmp_path / "eq.json"
        path.write_text(json.dumps(dict(_GENERAL_DOC, eq=None)))
        assert not load_problem(path).eq.any()

    @pytest.mark.parametrize("command", ["solve", "analyze"])
    def test_problem_without_columns_is_refused(self, command, tmp_path, capsys):
        path = tmp_path / "nocols.mps"
        path.write_text(_NO_COLUMNS_MPS)
        code = cli.main([command, str(path)])
        out = capsys.readouterr()
        assert code == cli.EXIT_PARSE and out.out == ""
        assert out.err == "error: invalid problem: the problem has no columns\n"

    def test_oracle_classifies_a_problem_without_columns(self, tmp_path, capsys):
        path = tmp_path / "nocols.mps"
        path.write_text(_NO_COLUMNS_MPS)
        assert cli.main(["oracle", str(path)]) == cli.EXIT_OK
        assert capsys.readouterr().out == "primal_infeasible\n"

    @pytest.mark.parametrize("name", sorted(_NO_ROWS))
    def test_oracle_classifies_a_problem_without_rows(self, name, tmp_path, capsys):
        path = tmp_path / name
        path.write_text(_NO_ROWS[name])
        assert cli.main(["oracle", str(path)]) == cli.EXIT_OK
        assert capsys.readouterr().out == "both_feasible\n"

    @pytest.mark.parametrize("case", sorted(_NON_FINITE))
    def test_oracle_refuses_non_finite_data(self, case, tmp_path, capsys):
        doc, message = _NON_FINITE[case]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code = cli.main(["oracle", str(path)])
        out = capsys.readouterr()
        assert code == cli.EXIT_PARSE and out.out == ""
        assert out.err == f"error: invalid problem: {message}\n"

    @pytest.mark.parametrize("name", sorted(_INFINITE_BOUNDS))
    def test_oracle_refuses_the_bounds_solve_refuses(self, name, tmp_path, capsys):
        text, message = _INFINITE_BOUNDS[name]
        path = tmp_path / name
        path.write_text(text)
        errors = {}
        for command in ("solve", "oracle"):
            assert cli.main([command, str(path)]) == cli.EXIT_PARSE
            out = capsys.readouterr()
            assert out.out == ""
            errors[command] = out.err
        # solve also names the crossed bounds, which the oracle classifies.
        assert errors["oracle"] == f"error: invalid problem: {message}\n"
        assert errors["solve"].startswith(errors["oracle"].rstrip("\n"))

    def test_oracle_elimination_cap_exits_3(self, monkeypatch, tmp_path, capsys):
        rng = np.random.default_rng(0)
        p = GeneralFormLp(
            c=np.ones(4),
            a=SparseMatrix.from_dense(rng.integers(-3, 4, (12, 4)).astype(float)),
            b=-np.ones(12),
            l=np.full(4, -np.inf),
            u=np.full(4, np.inf),
        )
        path = tmp_path / "free.json"
        save_problem(p, path)
        monkeypatch.setattr(exact, "_MAX_INTERMEDIATE_ROWS", 50)
        assert cli.main(["oracle", str(path)]) == cli.EXIT_NUMERICAL
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "solver error: elimination produced too many rows\n"

    def test_oracle_size_cap_exits_3(self, tmp_path, capsys):
        # A valid LP over the oracle's cap on variables: solve takes it, and
        # the oracle refuses it as a solver error, not as invalid input.
        a = np.ones((4, 15)) + np.eye(4, 15)
        p = StandardFormLp(c=np.ones(15), a=SparseMatrix.from_dense(a), b=a.sum(1))
        path = tmp_path / "wide.json"
        save_problem(p, path)
        assert cli.main(["solve", str(path)]) == cli.EXIT_OK
        capsys.readouterr()
        assert cli.main(["oracle", str(path)]) == cli.EXIT_NUMERICAL
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "solver error: too many variables for the exact oracle: 15\n"

    def test_numerical_status_maps_to_exit_3(self):
        assert cli._STATUS_EXIT[SolveStatus.NUMERICAL_ERROR] == cli.EXIT_NUMERICAL

    def test_trace_and_json_out(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        result = tmp_path / "result.json"
        code = cli.main(
            [
                "solve",
                "--demo",
                "std-primal-infeasible",
                "--trace-out",
                str(trace),
                "--json-out",
                str(result),
            ]
        )
        assert code == cli.EXIT_OK
        records = read_trace_csv(trace)
        assert records
        assert all(r.k % 40 == 0 for r in records)
        doc = json.loads(result.read_text())
        assert doc["status"] == "primal_infeasible"

    @pytest.mark.parametrize(
        "demo,rule",
        [
            ("std-feasible", "kkt"),
            ("ex1", "polish"),
            ("std-both-infeasible", "both_certificates"),
            ("std-primal-infeasible", "other_side_feasible"),
        ],
    )
    def test_termination_on_the_iterations_line_and_in_json(
        self, demo, rule, tmp_path, capsys
    ):
        result = tmp_path / "result.json"
        cli.main(["solve", "--demo", demo, "--json-out", str(result)])
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].startswith("iterations: ")
        assert lines[1].endswith(f"  termination: {rule}")
        assert json.loads(result.read_text())["termination"] == rule

    def test_solve_from_mps_file(self, tmp_path, capsys):
        path = tmp_path / "inst.mps"
        path.write_text(MPS_TEXT)
        code = cli.main(["solve", str(path)])
        out = capsys.readouterr().out.splitlines()
        assert code == cli.EXIT_OK
        assert out[0] == "optimal"
        assert any("objective: 1" in s for s in out)

    @pytest.mark.parametrize("command", ["solve", "analyze", "oracle"])
    @pytest.mark.parametrize("extra", [[], ["inst.mps", "--demo", "ex1"]])
    def test_instance_required(self, command, extra, capsys):
        # Neither a path nor --demo, or both, is an input error.
        assert cli.main([command, *extra]) == cli.EXIT_PARSE
        want = "give an instance path or a --demo name, not both or neither"
        assert capsys.readouterr().err == f"error: {want}\n"


class TestCliAnalyzeOracleDemo:
    def test_parser_built_once_keeps_no_state_between_calls(self, monkeypatch):
        # main parses with one cached parser: an option given to one call
        # must not become the next call's default.
        seen = []
        monkeypatch.setattr(cli, "cmd_analyze", lambda args: seen.append(args) or 0)
        argv = ["analyze", "--demo", "std-feasible"]
        assert cli.main([*argv, "--analysis-iters", "50", "--step-factor", "0.5"]) == 0
        with pytest.raises(SystemExit):
            cli.main([*argv, "--analysis-iters", "0"])
        assert cli.main(argv) == 0
        got = [(a.analysis_iters, a.step_factor) for a in seen]
        assert got == [(50, 0.5), (4000, 0.9)]
        assert cli.build_parser() is cli.build_parser()

    def test_analyze_report_keys(self, capsys):
        code = cli.main(
            ["analyze", "--demo", "std-both-infeasible", "--analysis-iters", "1500"]
        )
        assert code == cli.EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["ray"]["converged"] is True
        assert doc["ray"]["steps"] >= 200 * doc["ray"]["rounds"]
        assert doc["ray"]["farkas_identity_primal"] < 1e-10
        assert doc["ray"]["farkas_identity_dual"] < 1e-10
        assert doc["partition"]["b"] == 2 and doc["partition"]["n2"] == 1
        assert doc["freeze"]["frozen"] is True
        assert doc["shift_identity_residual"] < 1e-8
        assert doc["spectral"]["skipped"] is False
        assert doc["rates"]["difference_in_bracket"] is True

    @pytest.mark.parametrize("command", ["solve", "analyze"])
    @pytest.mark.parametrize("offset", [math.inf, -math.inf, math.nan])
    def test_non_finite_objective_offset_refused(
        self, command, offset, tmp_path, capsys
    ):
        path = tmp_path / "offset.json"
        path.write_text(json.dumps(dict(_GENERAL_DOC, objective_offset=offset)))
        code = cli.main([command, str(path)])
        out = capsys.readouterr()
        assert code == cli.EXIT_PARSE
        assert out.out == ""
        want = "invalid problem: objective_offset contains NaN or infinite entries"
        assert want in out.err

    def test_analyze_refuses_nan_costs(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(dict(_STANDARD_DOC, c=[float("nan"), 1.0])))
        code = cli.main(["analyze", str(path)])
        out = capsys.readouterr()
        assert code == cli.EXIT_PARSE
        assert out.out == ""
        assert "invalid problem: c contains NaN or infinite entries" in out.err

    @pytest.mark.parametrize("name", sorted(_NO_ROWS))
    def test_analyze_refuses_a_problem_without_rows(self, name, tmp_path, capsys):
        path = tmp_path / name
        path.write_text(_NO_ROWS[name])
        code = cli.main(["analyze", str(path)])
        assert code == cli.EXIT_PARSE
        assert "no constraint rows" in capsys.readouterr().err

    def test_analyze_rejects_solver_only_flags(self, capsys):
        # analyze runs no solve, so the solve's tolerances are not its options.
        with pytest.raises(SystemExit) as exc:
            cli.main(["analyze", "--demo", "ex1", "--eps", "1e-6"])
        assert exc.value.code == 2
        assert "--eps" in capsys.readouterr().err

    @pytest.mark.parametrize("iters", ["0", "-5", "x"])
    def test_analysis_iters_below_one_is_an_argument_error(self, iters, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["analyze", "--demo", "ex1", "--analysis-iters", iters])
        assert exc.value.code == 2
        assert "--analysis-iters" in capsys.readouterr().err

    def test_analyze_standardizes_general_form(self, capsys):
        code = cli.main(
            [
                "analyze",
                "--demo",
                "ex1",
                "--alpha",
                "0",
                "--beta",
                "2",
                "--analysis-iters",
                "1500",
            ]
        )
        assert code == cli.EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["standardized"] is True
        assert doc["ray"]["converged"] is True

    @pytest.mark.parametrize(
        "args,cell",
        [
            (["--alpha", "0", "--beta", "1"], "both_feasible"),
            (["--alpha", "0", "--beta", "2"], "primal_infeasible"),
            (["--alpha", "1", "--beta", "1"], "dual_infeasible"),
            (["--alpha", "1", "--beta", "2"], "both_infeasible"),
        ],
    )
    def test_oracle_cells(self, capsys, args, cell):
        code = cli.main(["oracle", "--demo", "ex1", *args])
        assert code == cli.EXIT_OK
        assert capsys.readouterr().out.strip() == cell

    def test_demo_list(self, capsys):
        code = cli.main(["demo", "--list"])
        assert code == cli.EXIT_OK
        names = capsys.readouterr().out.split()
        assert names == sorted(demos.DEMO_BUILDERS)

    def test_demo_corpus_agrees_with_oracle(self, capsys):
        code = cli.main(["demo"])
        out = capsys.readouterr().out.strip().splitlines()
        assert code == cli.EXIT_OK
        assert len(out) == 8
        for line in out:
            solver = line.split("solver=")[1].split()[0]
            oracle = line.split("oracle=")[1].strip()
            expected = "optimal" if oracle == "both_feasible" else oracle
            assert solver == expected, line
