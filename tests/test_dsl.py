"""Circuit language: parsing, diagnostics, formatting, compiled pipelines."""

import contextlib
import dataclasses
import io
import json
import math
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from aomsim import CompileError, Convention, compile_circuit, format_circuit, parse
from aomsim.cli import main
from aomsim.engine import BatchSplit
from aomsim.dsl import (
    AomStmt,
    CheckStmt,
    CircuitAst,
    FilterStmt,
    HeraldStmt,
    ParseError,
    ReportEntropyStmt,
    ReportGhzStmt,
    ReportOutcomesStmt,
    SourceStmt,
)
from aomsim.states import ModeLabel
from conftest import circuit_texts, outcome_bits

M = ModeLabel
CIRCUITS = Path(__file__).resolve().parent.parent / "circuits"

SWAP_TEXT = (CIRCUITS / "swap.qc").read_text()
GHZ_TEXT = (CIRCUITS / "ghz.qc").read_text()


def parse_ok(text: str) -> CircuitAst:
    result = parse(text)
    assert not isinstance(result, list), f"unexpected parse errors: {result}"
    return result


def parse_bad(text: str) -> list[ParseError]:
    result = parse(text)
    assert isinstance(result, list) and result, "expected parse errors"
    return result


def compile_bad(text: str) -> CompileError:
    """Text that parses, each line on its own, but does not compile."""
    with pytest.raises(CompileError) as exc:
        compile_circuit(parse_ok(text))
    return exc.value


# ---------------------------------------------------------------- parsing


def test_swap_circuit_parses_to_expected_statements():
    ast = parse_ok(SWAP_TEXT)
    assert len(ast.statements) == 6
    s1, s2, a1, a2, herald, report = ast.statements
    assert s1 == SourceStmt("S1", (M("1", 0), M("2", 1)), (M("1'", 1), M("2'", 0)),
                            math.pi / 4)
    assert s2 == SourceStmt("S2", (M("3", 0), M("4", 1)), (M("3'", 1), M("4'", 0)),
                            math.pi / 4)
    assert a1 == AomStmt("A1", (M("2", 1), M("3", 0)), ("T1", "T1'"))
    assert a2 == AomStmt("A2", (M("3'", 1), M("2'", 0)), ("T2'", "T2"))
    assert herald == HeraldStmt(((("T1", "T1'"), 1), (("T2", "T2'"), 1)))
    assert report == ReportEntropyStmt(("1", "1'"))
    assert [s.line for s in ast.statements] == [5, 6, 7, 8, 9, 10]


def test_ghz_circuit_parses():
    ast = parse_ok(GHZ_TEXT)
    assert len(ast.statements) == 8
    kinds = [type(s).__name__ for s in ast.statements]
    assert kinds == ["SourceStmt", "SourceStmt", "AomStmt", "FilterStmt",
                     "FilterStmt", "CheckStmt", "HeraldStmt", "ReportGhzStmt"]
    check = ast.statements[5]
    assert check == CheckStmt(1.0)
    filt = ast.statements[3]
    assert filt == FilterStmt("FT", "T", 0, 1.0)


def test_empty_and_comment_only_input():
    assert parse_ok("").statements == ()
    assert parse_ok("# just a comment\n\n   # another\n").statements == ()


def test_windows_line_endings():
    ast = parse_ok(SWAP_TEXT.replace("\n", "\r\n"))
    assert len(ast.statements) == 6


def test_aom_arity_error():
    errs = parse_bad("aom A1 in=(2@1)")
    assert errs[0].line == 1
    assert "expected two inputs" in errs[0].message


def test_unknown_statement():
    errs = parse_bad("polarizer P path=x")
    assert "unknown statement" in errs[0].message


def test_duplicate_path_declaration():
    err = compile_bad(
        "source S1 arms=(1@0,2@1) alt=(1'@1,2'@0)\n"
        "source S2 arms=(2@0,5@1) alt=(6@1,7@0)\n"
    )
    assert err.line == 2
    assert err.message == "path '2' already declared by an earlier statement"


def test_malformed_number():
    errs = parse_bad("source S1 arms=(1@0,2@1) alt=(1'@1,2'@0) alpha=fast")
    assert "malformed number" in errs[0].message


@pytest.mark.parametrize("text,message", [
    ("source S arms=(a@0,b@1) alt=(a@1,d@0)\n", "S: the four source paths must be distinct"),
    ("source S1 arms=(a@0,b@1) alt=(c@1,d@0)\n"
     "source S2 arms=(e@0,f@1) alt=(g@1,h@0)\n"
     "aom A in=(b@1,e@0) out=(x,x)\n", "A: the four paths must be distinct"),
], ids=["source", "aom"])
def test_path_repeated_within_one_statement(text, message, tmp_path, capsys):
    """No earlier statement declared the path: the statement's own spec rejects it."""
    err = compile_bad(text)
    assert err.line == len(text.splitlines())
    assert err.message == message
    ast = parse_ok(text)  # a programmatic AST, without lines
    stmts = tuple(dataclasses.replace(s, line=0) for s in ast.statements)
    with pytest.raises(CompileError) as exc:
        compile_circuit(CircuitAst(stmts))
    assert exc.value.message == message
    circuit = tmp_path / "c.qc"
    circuit.write_text(text)
    assert main(["run", str(circuit)]) == 2
    assert capsys.readouterr().err == f"{circuit}: {err}\n"


def test_undeclared_path():
    err = compile_bad("source S1 arms=(1@0,2@1) alt=(1'@1,2'@0)\naom A in=(9@1,3@0) out=(x,y)")
    assert err.line == 2
    assert err.message == "undeclared path '9'"


def test_multiple_heralds_rejected():
    err = compile_bad(
        "source S1 arms=(1@0,2@1) alt=(1'@1,2'@0)\n"
        "herald count(1)==1\n"
        "herald count(2)==1\n"
    )
    assert err.line == 3
    assert err.message == "multiple herald statements"


def test_report_requires_preceding_herald():
    err = compile_bad("source S1 arms=(1@0,2@1) alt=(1'@1,2'@0)\nreport entropy split=(1)")
    assert err.line == 2
    assert err.message == "report statements must follow the herald"


def test_bad_convention_value():
    errs = parse_bad(
        "source S1 arms=(1@0,2@1) alt=(1'@1,2'@0)\n"
        "aom A in=(2@1,1@0) out=(x,y) convention=sideways\n"
    )
    assert "convention" in errs[0].message


def test_unknown_argument_rejected():
    errs = parse_bad("source S1 arms=(1@0,2@1) alt=(1'@1,2'@0) angle=0.5")
    assert "unknown argument 'angle'" in errs[0].message


def test_unknown_report_kind():
    errs = parse_bad(
        "source S1 arms=(1@0,2@1) alt=(1'@1,2'@0)\n"
        "herald count(1)==1\n"
        "report purity split=(1)\n"
    )
    assert "unknown report kind 'purity'" in errs[0].message


def test_trailing_and_rejected():
    errs = parse_bad("source S1 arms=(1@0,2@1) alt=(1'@1,2'@0)\nherald count(1)==1 and")
    assert "trailing 'and'" in errs[0].message


@pytest.mark.parametrize("text,expected", [
    ("polarizer P path=x",
     "line 1, col 1: unknown statement 'polarizer' (at 'polarizer')"),
    ("source S1 arms",
     "line 1, col 11: expected key=value argument (at 'arms')"),
    ("source S1 arms=(1@0,2@1) alt=(1'@1,2'@0) angle=0.5",
     "line 1, col 42: unknown argument 'angle' (expected ['alpha', 'alt', 'arms'])"
     " (at 'angle=0.5')"),
    ("filter F path=1 pass=0 path=2",
     "line 1, col 24: duplicate argument 'path' (at 'path=2')"),
    ("# no pass bin\nfilter F path=1",
     "line 2, col 1: missing required argument 'pass' (at 'filter')"),
    ("check bandwidth pump=fast",
     "line 1, col 22: malformed number 'fast' (at 'fast')"),
    ("check bandwidth pump=-inf",
     "line 1, col 22: number must be finite, got '-inf' (at '-inf')"),
    ("filter F path=1 pass=0 sigma=-1",
     "line 1, col 30: bandwidth must be positive, got '-1' (at '-1')"),
    ("filter F path=1 pass=1.5",
     "line 1, col 22: malformed integer '1.5' (at '1.5')"),
    ("report entropy split=1",
     "line 1, col 22: expected a parenthesized list (at '1')"),
    ("report outcomes paths=(,)",
     "line 1, col 23: list is empty (at '(,)')"),
    ("aom A in=(2@1) out=(x,y)",
     "line 1, col 10: expected two inputs (at '(2@1)')"),
    ("source S arms=(1@0,2) alt=(1'@1,2'@0)",
     "line 1, col 20: expected path@bin, got '2' (at '2')"),
    ("aom A in=(2@1,1@0) out=(x,y-z)",
     "line 1, col 27: invalid path name 'y-z' (at 'y-z')"),
    ("  source arms=(1@0,2@1) alt=(1'@1,2'@0)",
     "line 1, col 3: missing element name (at 'source')"),
    ("source S-1 arms=(1@0,2@1) alt=(1'@1,2'@0)",
     "line 1, col 8: invalid name 'S-1' (at 'S-1')"),
    ("aom A in=(2@1,1@0) out=(x,y) convention=sideways",
     "line 1, col 41: convention must be one of ['paper', 'unitary'] (at 'sideways')"),
    ("herald  # no clause",
     "line 1, col 1: herald needs at least one count(...)==N clause (at 'herald')"),
    ("herald count(1)=1",
     "line 1, col 8: expected clause of the form count(P,...)==N (at 'count(1)=1')"),
    ("herald count(1)==1 count(2)==1",
     "line 1, col 20: expected 'and' between herald clauses (at 'count(2)==1')"),
    ("\n\therald count(1)==1 and",
     "line 2, col 21: trailing 'and' without a clause (at 'and')"),
    ("check pump=1.0",
     "line 1, col 1: expected 'check bandwidth pump=FLOAT' (at 'check')"),
    ("report",
     "line 1, col 1: missing report kind (entropy, ghz, or outcomes) (at 'report')"),
    ("report purity split=(1)",
     "line 1, col 8: unknown report kind 'purity' (at 'purity')"),
])
def test_every_parse_diagnostic_is_pinned(text, expected):
    """One short bad text per parser message: line, column, message and token."""
    assert [str(e) for e in parse(text)] == [expected]


def test_parser_collects_errors_across_lines():
    errs = parse_bad("bogus one\nsource S1 arms=(1@0,2@1) alt=(1'@1,2'@0)\nbogus two\n")
    assert [e.line for e in errs] == [1, 3]


def test_error_positions_point_inside_offending_token():
    text = "source S1 arms=(1@0,2@1) alt=(1'@1,2'@0) alpha=oops"
    err = parse_bad(text)[0]
    token_start = text.index("oops") + 1
    assert err.line == 1
    assert token_start <= err.column <= token_start + len("oops")
    # arity error points inside the in=(...) token value
    text2 = "aom A1 in=(2@1)"
    err2 = parse_bad(text2)[0]
    start = text2.index("(2@1)") + 1
    assert start <= err2.column < start + len("(2@1)")


@given(st.text(max_size=200))
@settings(max_examples=200, deadline=None)
def test_parse_is_total(text):
    result = parse(text)
    assert isinstance(result, (CircuitAst, list))


# numbers at the edges of the value domain: non-finite, signed zero, negative,
# subnormal, huge
EDGE_NUMBERS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 1e-320, 1e308, -1e308]),
    st.floats(),
)


def run_cli_cleanly(argv, report=None):
    """Run the CLI; it must exit 0 or 2 with no traceback, and write only finite numbers."""
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code in (0, 2), stderr.getvalue()
    assert "Traceback" not in stderr.getvalue()
    if code == 0 and report is not None:
        text = report.read_text()
        for token in ("NaN", "Infinity", "nan", "inf"):
            assert token not in text.replace(str(report.parent), "")
    return code


@given(alpha=EDGE_NUMBERS, t=EDGE_NUMBERS, sigma=EDGE_NUMBERS, pump=EDGE_NUMBERS)
@settings(max_examples=60, deadline=None)
def test_circuit_numbers_exit_cleanly(tmp_path_factory, alpha, t, sigma, pump):
    folder = tmp_path_factory.mktemp("values")
    circuit, report = folder / "c.qc", folder / "r.json"
    circuit.write_text(
        f"source S1 arms=(1@0,2@1) alt=(1'@1,2'@0) alpha={alpha!r}\n"
        f"source S2 arms=(3@0,4@1) alt=(3'@1,4'@0) alpha={alpha!r}\n"
        f"aom A in=(2@1,3@0) out=(T',T) t={t!r}\n"
        f"filter FT path=T pass=0 sigma={sigma!r}\n"
        f"check bandwidth pump={pump!r}\n"
        "herald count(T,T')==1\n"
        "report ghz a=(1@0,3'@1,4'@0) b=(1'@1,2'@0,4@1)\n"
    )
    finite = all(math.isfinite(v) for v in (alpha, t, sigma, pump))
    code = run_cli_cleanly(["run", str(circuit), "--json", str(report)], report)
    assert code == 2 or finite


@given(alpha=EDGE_NUMBERS, lo=EDGE_NUMBERS, hi=EDGE_NUMBERS, demo=st.sampled_from(["swap", "ghz"]))
@settings(max_examples=60, deadline=None)
def test_demo_and_sweep_numbers_exit_cleanly(tmp_path_factory, alpha, lo, hi, demo):
    folder = tmp_path_factory.mktemp("values")
    report, table = folder / "r.json", folder / "s.csv"
    code = run_cli_cleanly(["demo", demo, f"--alpha={alpha!r}", "--json", str(report)], report)
    assert (code == 0) == math.isfinite(alpha)
    code = run_cli_cleanly(["sweep", "ghz", f"--alpha-from={lo!r}", f"--alpha-to={hi!r}",
                            "--steps", "3", "--csv", str(table)], table)
    assert code == 2 or lo < hi


# ---------------------------------------------------------------- formatting


@pytest.mark.parametrize("text", [SWAP_TEXT, GHZ_TEXT])
def test_format_round_trip(text):
    ast = parse_ok(text)
    rendered = format_circuit(ast)
    assert parse_ok(rendered) == ast


def test_format_round_trip_preserves_nondefault_arguments():
    text = (
        "source S arms=(1@0,2@2) alt=(1'@2,2'@0) alpha=0.3\n"
        "aom A in=(2@2,1@0) out=(x,y) shift=2 t=0.25 convention=paper\n"
        "filter F path=x pass=2 sigma=0.125\n"
        "check bandwidth pump=0.5\n"
        "herald count(x)==1 and count(y)==0\n"
        "report outcomes paths=(x,y)\n"
    )
    ast = parse_ok(text)
    assert parse_ok(format_circuit(ast)) == ast


@given(circuit_texts())
@settings(max_examples=150, deadline=None)
def test_format_round_trip_on_random_circuits(text):
    ast = parse_ok(text)
    assert parse_ok(format_circuit(ast)) == ast


# ---------------------------------------------------------------- compiling


def test_compile_rejects_bins_incompatible_with_shift():
    ast = parse_ok(
        "source S1 arms=(1@0,2@1) alt=(1'@1,2'@0)\n"
        "source S2 arms=(3@1,4@0) alt=(3'@0,4'@1)\n"
        "aom A in=(2@1,3@1) out=(x,y)\n"
    )
    with pytest.raises(CompileError) as exc:
        compile_circuit(ast)
    assert "incompatible with shift" in str(exc.value)
    assert exc.value.line == 3


def test_compile_rejects_undeclared_herald_path_in_programmatic_ast():
    ast = CircuitAst((
        SourceStmt("S", (M("1", 0), M("2", 1)), (M("1'", 1), M("2'", 0)), math.pi / 4),
        HeraldStmt(((("ghost",), 1),)),
    ))
    with pytest.raises(CompileError) as exc:
        compile_circuit(ast)
    assert "undeclared path 'ghost'" in str(exc.value)


def test_compile_rejects_output_path_reuse_in_programmatic_ast():
    ast = CircuitAst((
        SourceStmt("S", (M("1", 0), M("2", 1)), (M("1'", 1), M("2'", 0)), math.pi / 4),
        AomStmt("A", (M("2", 1), M("1", 0)), ("x", "y")),
        AomStmt("B", (M("1'", 1), M("2'", 0)), ("x", "z")),
    ))
    with pytest.raises(CompileError) as exc:
        compile_circuit(ast)
    assert "already declared" in str(exc.value)


@pytest.mark.parametrize("a,b", [
    ("(1@0,3'@1,4'@0)", "(1@0,3'@1,4'@0)"),
    ("(1@0,1'@1,2'@0,3'@1,4@1,4'@0)", "(1@0,1'@1,2'@0,3'@1,4@1,4'@0)"),
    ("(1@0,3'@1,4'@0)", "(4'@0,1@0,3'@1)"),  # the same ket, its modes in another order
])
def test_compile_rejects_equal_ghz_branches(a, b):
    text = GHZ_TEXT.replace("report ghz a=(1@0,3'@1,4'@0) b=(1'@1,2'@0,4@1)",
                            f"report ghz a={a} b={b}")
    ast = parse_ok(text)
    with pytest.raises(CompileError, match="same ket") as exc:
        compile_circuit(ast)
    assert exc.value.line == len(text.splitlines())
    report = ReportGhzStmt(ast.statements[-1].branch_a, ast.statements[-1].branch_b)
    with pytest.raises(CompileError, match="same ket"):  # a programmatic AST, without lines
        compile_circuit(CircuitAst(ast.statements[:-1] + (report,)))


def test_compile_rejects_a_second_ghz_report():
    """Every ``report ghz`` writes the one ``ghz_fidelity`` metric, so a second would
    overwrite the first."""
    text = GHZ_TEXT + "report ghz a=(1@0,3'@1,4'@0) b=(1'@1,2'@0,4@0)\n"
    ast = parse_ok(text)
    with pytest.raises(CompileError, match="multiple report ghz") as exc:
        compile_circuit(ast)
    assert exc.value.line == len(text.splitlines())
    first, second = (ReportGhzStmt(s.branch_a, s.branch_b) for s in ast.statements[-2:])
    with pytest.raises(CompileError, match="multiple report ghz"):  # a programmatic AST
        compile_circuit(CircuitAst(ast.statements[:-2] + (first, second)))


@pytest.mark.parametrize("repeat", ["report entropy split=(1,1')",
                                    "report outcomes paths=(T1,T1')\nreport outcomes paths=(T1,T1')"])
def test_compile_rejects_a_repeated_report(repeat, tmp_path, capsys):
    """A report equal to an earlier one would compute and write the same key twice."""
    text = SWAP_TEXT + repeat + "\n"
    err = compile_bad(text)
    assert err.line == len(text.splitlines())
    assert err.message == "repeated report statement"
    circuit = tmp_path / "c.qc"
    circuit.write_text(text)
    assert main(["run", str(circuit)]) == 2
    assert capsys.readouterr().err == f"{circuit}: {err}\n"


def test_compile_rejects_a_repeated_report_in_programmatic_ast():
    ast = parse_ok(SWAP_TEXT)
    with pytest.raises(CompileError, match="repeated report statement"):
        compile_circuit(CircuitAst(ast.statements + (ReportEntropyStmt(("1", "1'")),)))
    # the same paths in another order make another key, and another report
    reports = (ReportOutcomesStmt(("T1", "T1'")), ReportOutcomesStmt(("T1'", "T1")))
    assert len(compile_circuit(CircuitAst(ast.statements + reports)).reports) == 3


def run_bits(result) -> tuple:
    """A run as exact text and bytes: every outcome, probability and metric in order."""
    return ([(outcome_bits(o), repr(o.metrics)) for o in result.outcomes],
            repr(result.success_probability), repr(result.filter_survivals),
            repr(result.count_distributions), result.bandwidth_valid, result.non_unitary)


# A1 literal, A2 unitary: no override runs each AOM as a paper or unitary override would not
MIXED_SWAP = SWAP_TEXT.replace("out=(T1,T1')", "out=(T1,T1') convention=paper")
OVERRIDES = [None, Convention.PAPER_LITERAL, Convention.UNITARY, None, Convention.PAPER_LITERAL]


@pytest.mark.parametrize("text,alpha", [
    (MIXED_SWAP, None),
    (MIXED_SWAP.replace("report entropy split=(1,1')", ""), [0.3, 0.6, 1.0]),
    (GHZ_TEXT, 0.6),
    (GHZ_TEXT, [0.1, 0.6, 1.2]),
], ids=["swap", "swap-batch", "ghz", "ghz-batch"])
def test_a_pipeline_is_lowered_once_per_convention_override(text, alpha, monkeypatch):
    import aomsim.dsl

    made = []
    make_aom = aomsim.dsl.make_aom
    monkeypatch.setattr(aomsim.dsl, "make_aom", lambda spec: made.append(spec) or make_aom(spec))
    pipeline = compile_circuit(parse_ok(text))
    aoms = text.count("\naom ")
    for i, override in enumerate(OVERRIDES):
        before = len(made)
        got = run_bits(pipeline.run(override, alpha))
        assert len(made) - before == (aoms if override not in OVERRIDES[:i] else 0), override
        assert got == run_bits(compile_circuit(parse_ok(text)).run(override, alpha)), override
    # the overrides give distinct runs, so a cache that ignored one would fail above
    distinct = {repr(run_bits(pipeline.run(override, alpha))) for override in OVERRIDES}
    assert len(distinct) == (3 if "convention=paper" in text else 2)


def test_convention_override_changes_phases_not_magnitudes():
    pipeline = compile_circuit(parse_ok(SWAP_TEXT))
    unitary = pipeline.run(convention_override=Convention.UNITARY)
    literal = pipeline.run(convention_override=Convention.PAPER_LITERAL)
    assert literal.non_unitary and not unitary.non_unitary
    for got, want in zip(unitary.outcomes, literal.outcomes):
        assert got.probability == pytest.approx(want.probability, abs=1e-9)


def test_heralding_a_dark_path_accepts_nothing():
    # alpha=0 keeps the second source in its arm pair, so its alt paths stay
    # dark; heralding on one of them compiles and yields zero acceptance
    text = (
        "source S1 arms=(1@0,2@1) alt=(1'@1,2'@0)\n"
        "source S2 arms=(3@0,4@1) alt=(3'@1,4'@0) alpha=0.0\n"
        "herald count(3')==1\n"
    )
    result = compile_circuit(parse_ok(text)).run()
    assert result.success_probability == 0.0
    assert [o for o in result.outcomes if o.accepted] == []


def test_pipeline_without_sources_raises_at_run():
    from aomsim import ZeroStateError

    pipeline = compile_circuit(parse_ok("# nothing\n"))
    with pytest.raises(ZeroStateError):
        pipeline.run()


def test_shipped_circuits_equal_the_circuit_files():
    # run_swap and run_ghz read the copies shipped inside the package
    for name in ("swap.qc", "ghz.qc"):
        shipped = resources.files("aomsim") / "circuits" / name
        assert shipped.read_bytes() == (CIRCUITS / name).read_bytes()


def test_run_alpha_gives_every_source_that_angle():
    with_angle = "".join(line + " alpha=0.6\n" if line.startswith("source") else line + "\n"
                         for line in SWAP_TEXT.splitlines())
    for convention in Convention:
        got = compile_circuit(parse_ok(SWAP_TEXT)).run(convention, 0.6)
        want = compile_circuit(parse_ok(with_angle)).run(convention)
        assert [outcome_bits(o) for o in got.outcomes] == [outcome_bits(o) for o in want.outcomes]
        assert repr(got.success_probability) == repr(want.success_probability)


def test_batch_run_matches_one_angle_runs_member_by_member():
    pipeline = compile_circuit(parse_ok(GHZ_TEXT))
    alphas = [0.1, 0.6, math.pi / 4, 1.2, 1e-100]
    for convention in Convention:
        batch = pipeline.run(convention, alphas)
        assert len(batch.success_probability) == len(alphas)
        for i, alpha in enumerate(alphas):
            one = pipeline.run(convention, alpha)
            assert [o.label for o in batch.outcomes] == [o.label for o in one.outcomes]
            for got, want in zip(batch.outcomes, one.outcomes):
                assert repr(got.probability[i]) == repr(want.probability)
                assert got.rows.amp[i].tobytes() == want.rows.amp.tobytes()
                if want.accepted:
                    assert repr(got.metrics["ghz_fidelity"][i]) == repr(
                        want.metrics["ghz_fidelity"])
            assert repr(batch.success_probability[i]) == repr(one.success_probability)
            assert {k: v[i] for k, v in batch.filter_survivals.items()} == one.filter_survivals
    with pytest.raises(ValueError, match="batch"):  # a batch's outcomes hold rows, not kets
        batch.outcomes[0].conditional_state
    with pytest.raises(BatchSplit):  # sin(0) = 0 drops a source row that the others keep
        pipeline.run(alpha=[0.6, 0.0])


@pytest.mark.parametrize("report", ["report entropy split=(1,1')", "report outcomes paths=(T,T')"])
def test_batch_run_refuses_per_state_reports(report):
    pipeline = compile_circuit(parse_ok(GHZ_TEXT + report + "\n"))
    with pytest.raises(ValueError, match="batch"):
        pipeline.run(alpha=[0.3, 0.4])


def test_success_is_a_float_when_no_herald_is_accepted(tmp_path, capsys):
    circuit = tmp_path / "dark.qc"
    circuit.write_text("source S1 arms=(1@0,2@1) alt=(1'@1,2'@0) alpha=0\n"
                       "source S2 arms=(3@0,4@1) alt=(3'@1,4'@0) alpha=0\n"
                       "aom A in=(2@1,3@0) out=(T',T)\n"
                       "herald count(T,T')==1\n")
    assert repr(compile_circuit(parse_ok(circuit.read_text())).run().success_probability) == "0.0"
    out = tmp_path / "dark.json"
    assert main(["run", str(circuit), "--json", str(out)]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    assert [repr(report["success_probability"]), repr(report["metrics"]["success_probability"])
            ] == ["0.0", "0.0"]


def test_report_outcomes_distribution():
    text = GHZ_TEXT + "report outcomes paths=(T,T')\n"
    result = compile_circuit(parse_ok(text)).run()
    dist = result.count_distributions["T,T'"]
    assert dist[1] == pytest.approx(0.5, abs=1e-12)
    assert dist[0] == pytest.approx(0.25, abs=1e-12)
    assert dist[2] == pytest.approx(0.25, abs=1e-12)


# ---------------------------------------------------------------- non-finite numbers


@pytest.mark.parametrize("arg,value", [
    ("alpha", "nan"), ("alpha", "inf"), ("alpha", "-Infinity"),
    ("t", "nan"), ("sigma", "nan"), ("sigma", "inf"), ("pump", "nan"),
    ("sigma", "0"), ("pump", "-1.5"),
])
def test_non_finite_or_non_positive_numbers_are_parse_errors(arg, value):
    lines = {
        "alpha": "source S1 arms=(1@0,2@1) alt=(1'@1,2'@0) alpha={}",
        "t": "aom A in=(2@1,1'@1) out=(x,y) shift=0 t={}",
        "sigma": "filter F path=2 pass=1 sigma={}",
        "pump": "check bandwidth pump={}",
    }
    head = "source S1 arms=(1@0,2@1) alt=(1'@1,2'@0)\n" if arg != "alpha" else ""
    bad = lines[arg].format(value)
    err = parse_bad(head + bad + "\n")[0]
    assert err.line == (2 if head else 1)
    assert err.column == bad.index(value) + 1
    assert "finite" in err.message or "positive" in err.message


@pytest.mark.parametrize("stmt", [
    SourceStmt("S1", (M("1", 0), M("2", 1)), (M("1'", 1), M("2'", 0)), math.nan, line=3),
    FilterStmt("F", "1", 0, math.inf, line=3),
    CheckStmt(math.nan, line=3),
    CheckStmt(0.0, line=3),
])
def test_compile_rejects_non_finite_numbers_in_programmatic_ast(stmt):
    source = SourceStmt("S0", (M("1", 0), M("2", 1)), (M("1'", 1), M("2'", 0)), line=1)
    statements = (stmt,) if isinstance(stmt, SourceStmt) else (source, stmt)
    with pytest.raises(CompileError) as exc:
        compile_circuit(CircuitAst(statements))
    assert exc.value.line == 3
