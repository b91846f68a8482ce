"""Command-line interface: exit codes, tables, JSON reports, CSV sweeps."""

import contextlib
import io
import json
import math
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings

from aomsim.cli import _print_outcomes, load_report_schema, main
from aomsim.experiments import HeraldOutcome
from conftest import circuit_texts

CIRCUITS = Path(__file__).resolve().parent.parent / "circuits"
SWAP_QC = str(CIRCUITS / "swap.qc")
GHZ_QC = str(CIRCUITS / "ghz.qc")


def test_run_swap_circuit(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert main(["run", SWAP_QC, "--json", str(report), "--pretty"]) == 0
    out = capsys.readouterr().out
    assert "success probability: 0.500000" in out
    assert "discard" in out
    jsonschema.validate(json.loads(report.read_text()), load_report_schema())


def printed_line_by_line(outcomes: list[HeraldOutcome]) -> str:
    """The outcome table as one ``print`` per line: the header, then one line per outcome."""
    out = io.StringIO()
    width = max(len(o.label) for o in outcomes) + 2
    print(f"{'outcome':<{width}} probability  details", file=out)
    for o in outcomes:
        details = " ".join(f"{k}={v:.6f}" for k, v in sorted(o.metrics.items()))
        print(f"{o.label:<{width}} {o.probability:<12.6f} {details}".rstrip(), file=out)
    return out.getvalue()


@pytest.mark.parametrize("labels", [("a", "T=1,T'=0", "discard"), ("all", "x=0", "y")])
def test_outcome_table_matches_the_line_by_line_print(labels, capsys):
    """Labels wider and narrower than the header; no, one and several metrics, unsorted."""
    metrics = ({}, {"ghz_fidelity": 1.0}, {"z": 0.5, "entropy[1,2]": 1e-7, "b": -2.25})
    outcomes = [HeraldOutcome(label, p, None, False, metrics=dict(m))
                for label, p, m in zip(labels, (0.25, 1.0 / 3.0, 0.0), metrics)]
    _print_outcomes(outcomes)
    assert capsys.readouterr().out == printed_line_by_line(outcomes)


def test_run_missing_file(tmp_path, capsys):
    assert main(["run", "/nonexistent/none.qc"]) == 2
    assert "cannot read" in capsys.readouterr().err
    # a file that is not UTF-8 cannot be read either: no internal error
    bad = tmp_path / "bad.qc"
    bad.write_bytes(b"\xff\xfe")
    assert main(["run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {bad}: ")
    assert err.count("\n") == 1


def test_run_parse_error_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.qc"
    bad.write_text("source S1 arms=(1@0,2@1) alt=(1'@1,2'@0)\naom A1 in=(2@1)\n")
    assert main(["run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err
    assert "expected two inputs" in err


def test_run_reports_one_error_between_statements(tmp_path, capsys):
    """Paths and reports that follow from an earlier mistake draw no diagnostics of their own."""
    bad = tmp_path / "bad.qc"
    bad.write_text(
        "source S1 arms=(1@0,2@1) alt=(1'@1,2'@0)\n"
        "aom A in=(9@1,3@0) out=(x,y)\n"
        "herald count(x)==1\n"
        "herald count(y)==1\n"
        "report entropy split=(q)\n"
    )
    assert main(["run", str(bad)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"{bad}: line 2: undeclared path '9'"]


def test_run_compile_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.qc"
    bad.write_text(
        "source S1 arms=(1@0,2@1) alt=(1'@1,2'@0)\n"
        "source S2 arms=(3@1,4@0) alt=(3'@0,4'@1)\n"
        "aom A in=(2@1,3@1) out=(x,y)\n"
    )
    assert main(["run", str(bad)]) == 2
    assert "incompatible with shift" in capsys.readouterr().err


def test_run_runtime_error_exit_code(tmp_path, capsys):
    # compiles cleanly, but at run time the photon on T1' arrives at bin 0
    # while the second AOM expects bin 1 there
    bad = tmp_path / "mis.qc"
    bad.write_text(
        "source S1 arms=(1@0,2@1) alt=(1'@1,2'@0)\n"
        "source S2 arms=(3@0,4@1) alt=(3'@1,4'@0)\n"
        "aom A1 in=(2@1,3@0) out=(T1,T1')\n"
        "aom A2 in=(T1'@1,1@0) out=(u,v)\n"
    )
    assert main(["run", str(bad)]) == 1
    assert "runtime error" in capsys.readouterr().err


def test_run_json_report_validates_against_schema(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["run", GHZ_QC, "--json", str(out)]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    jsonschema.validate(report, load_report_schema())
    assert report["schema_version"] == 1
    total = sum(o["probability"] for o in report["outcomes"])
    assert total == pytest.approx(1.0, abs=1e-9)
    assert report["success_probability"] == pytest.approx(0.5, abs=1e-9)
    assert report["flags"]["bandwidth_valid"] is True


def test_run_convention_override_sets_flag(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["run", SWAP_QC, "--convention", "paper", "--json", str(out)]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    assert report["flags"]["non_unitary"] is True
    assert report["convention"] == "paper"
    jsonschema.validate(report, load_report_schema())


def test_run_json_includes_count_distributions(tmp_path, capsys):
    circuit = tmp_path / "dist.qc"
    circuit.write_text(Path(GHZ_QC).read_text() + "report outcomes paths=(T,T')\n")
    out = tmp_path / "report.json"
    assert main(["run", str(circuit), "--json", str(out)]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    jsonschema.validate(report, load_report_schema())
    dist = report["count_distributions"]["T,T'"]
    assert dist["1"] == pytest.approx(0.5, abs=1e-9)


def test_demo_swap_prints_entropy(capsys):
    assert main(["demo", "swap"]) == 0
    out = capsys.readouterr().out
    assert "success probability: 0.500000" in out
    assert "pair_entropy=1.000000" in out


def test_demo_ghz_prints_per_detector_and_total(capsys):
    assert main(["demo", "ghz", "--alpha", "0.7853981634"]) == 0
    out = capsys.readouterr().out
    assert "per-detector probability [T]: 0.250000" in out
    assert "total heralded probability: 0.500000" in out


def test_demo_ghz_alpha_zero(capsys):
    assert main(["demo", "ghz", "--alpha", "0"]) == 0
    out = capsys.readouterr().out
    assert "total heralded probability: 0.000000" in out


def test_demo_ghz_alpha_zero_reports_float_zeros(tmp_path, capsys):
    out = tmp_path / "g.json"
    assert main(["demo", "ghz", "--alpha", "0", "--json", str(out)]) == 0
    capsys.readouterr()
    text = out.read_text()
    assert '"total_probability":0.0' in text and '"success_probability":0.0' in text


def test_demo_unknown_name_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["demo", "teleport"])
    assert exc.value.code == 2


def test_demo_json_validates_and_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["demo", "ghz", "--json", str(a)]) == 0
    assert main(["demo", "ghz", "--json", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    report = json.loads(a.read_text())
    jsonschema.validate(report, load_report_schema())
    assert report["per_detector"]["T"] == pytest.approx(0.25, abs=1e-9)


def test_demo_swap_json_validates(tmp_path, capsys):
    out = tmp_path / "swap.json"
    assert main(["demo", "swap", "--convention", "paper", "--json", str(out)]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    jsonschema.validate(report, load_report_schema())
    assert report["metrics"]["pair_block_fidelity"] == pytest.approx(1.0, abs=1e-9)
    assert report["flags"]["non_unitary"] is True


COMBINED_METRICS = ("unresolved_split_entropy", "output_purity", "pair_block_fidelity")


@pytest.mark.parametrize("convention,want", [("unitary", (1.0, 0.5, 0.5)),
                                             ("paper", (0.0, 1.0, 1.0))])
def test_demo_swap_prints_the_combined_metrics_at_tiny_angles(convention, want, tmp_path, capsys):
    """The combined accepted state exists however small the success probability gets."""
    def metrics(alpha: str) -> tuple[str, list[float]]:
        out = tmp_path / "swap.json"
        assert main(["demo", "swap", f"--alpha={alpha}", "--convention", convention,
                     "--json", str(out)]) == 0
        report = json.loads(out.read_text())
        return capsys.readouterr().out, [report["metrics"][k] for k in COMBINED_METRICS]

    _, at_1e160 = metrics("1e-160")
    assert at_1e160 == pytest.approx(want, abs=1e-12)
    for alpha in ("1e-162", "1e-200", "5e-324"):
        printed, values = metrics(alpha)
        assert all(f"{key}: " in printed for key in COMBINED_METRICS), alpha
        assert values == pytest.approx(at_1e160, abs=1e-12), alpha


def test_pretty_json_differs_only_in_whitespace(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["demo", "ghz", "--json", str(a)]) == 0
    assert main(["demo", "ghz", "--json", str(b), "--pretty"]) == 0
    capsys.readouterr()
    assert json.loads(a.read_text()) == json.loads(b.read_text())
    assert a.read_bytes() != b.read_bytes()


def test_sweep_csv_rows(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "ghz", "--steps", "33", "--csv", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert lines[0] == "alpha,per_detector_prob,total_prob,ghz_fidelity"
    assert len(lines) == 34
    rows = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
    mid = rows[16]  # alpha = pi/4 at the midpoint of [0, pi/2]
    assert mid[0] == pytest.approx(math.pi / 4, abs=1e-9)
    assert mid[1] == pytest.approx(0.25, abs=1e-9)
    assert mid[2] == pytest.approx(0.5, abs=1e-9)
    for alpha, per, total, fid in rows:
        assert per == pytest.approx(math.sin(alpha) ** 2 * math.cos(alpha) ** 2, abs=1e-9)
        assert total == pytest.approx(2 * per, abs=1e-9)
        if per > 1e-15:
            assert fid == pytest.approx(1.0, abs=1e-9)
    # symmetry about pi/4
    for left, right in zip(rows, reversed(rows)):
        assert left[1] == pytest.approx(right[1], abs=1e-9)


def test_sweep_csv_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "ghz", "--steps", "9", "--csv", str(a)]) == 0
    assert main(["sweep", "ghz", "--steps", "9", "--csv", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_sweep_bad_range_exits_2(capsys):
    assert main(["sweep", "ghz", "--steps", "1"]) == 2
    assert main(["sweep", "ghz", "--alpha-from", "1.0", "--alpha-to", "0.5"]) == 2
    err = capsys.readouterr().err
    assert "steps" in err and "alpha-from" in err


def test_sweep_to_stdout(capsys):
    assert main(["sweep", "ghz", "--steps", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("alpha,per_detector_prob,total_prob,ghz_fidelity")


# ---------------------------------------------------------------- bad numbers, defects


def test_run_non_finite_alpha_exits_2(tmp_path, capsys):
    bad = tmp_path / "nan.qc"
    bad.write_text(Path(SWAP_QC).read_text().replace(
        "alt=(1'@1,2'@0)", "alt=(1'@1,2'@0) alpha=nan"))
    assert main(["run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 5" in err and "finite" in err


@pytest.mark.parametrize("demo", ["swap", "ghz"])
@pytest.mark.parametrize("alpha", ["inf", "nan", "-inf"])
def test_demo_non_finite_alpha_exits_2(demo, alpha, capsys):
    assert main(["demo", demo, f"--alpha={alpha}"]) == 2
    assert "finite" in capsys.readouterr().err


def test_sweep_non_finite_range_exits_2(capsys):
    assert main(["sweep", "ghz", "--alpha-to", "inf"]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["run", SWAP_QC, "--json"], ["demo", "ghz", "--json"],
                                  ["sweep", "ghz", "--steps", "3", "--csv"]],
                         ids=["run", "demo", "sweep"])
@pytest.mark.parametrize("target", ["missing_directory", "directory"])
def test_unwritable_output_path_exits_2(argv, target, tmp_path, capsys):
    path = str(tmp_path / "missing" / "out" if target == "missing_directory" else tmp_path)
    assert main(argv + [path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1


def test_sweep_steps_are_bounded_by_the_term_budget(monkeypatch, capsys):
    import aomsim.cli

    monkeypatch.setattr(aomsim.cli.engine, "TERM_BUDGET", 16)
    assert main(["sweep", "ghz", "--steps", "16"]) == 0
    assert capsys.readouterr().out.count("\n") == 17  # header and 16 rows

    def unreached(*args):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(aomsim.cli, "run_ghz", unreached)
    assert main(["sweep", "ghz", "--steps", "17"]) == 2
    err = capsys.readouterr().err
    assert "--steps" in err and "16" in err


def test_unexpected_exception_exits_1_with_one_line(monkeypatch, capsys):
    import aomsim.cli

    def broken(**kwargs):
        raise KeyError("boom")

    monkeypatch.setattr(aomsim.cli, "run_swap", broken)
    assert main(["demo", "swap"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "KeyError" in err and "Traceback" not in err


# ---------------------------------------------------------------- one parser per process


def run_main(argv, tmp_path, name, capsys):
    """Exit code, stdout and written bytes of one ``main`` call with output to ``name``."""
    out = tmp_path / name
    code = main(argv + [str(out)])
    return code, capsys.readouterr().out, out.read_bytes() if out.exists() else None


def test_repeated_main_calls_match_a_fresh_parse(tmp_path, capsys):
    import aomsim.cli

    calls = [
        ["run", SWAP_QC, "--pretty", "--json"],
        ["run", SWAP_QC, "--json"],
        ["demo", "ghz", "--alpha", "0.6", "--pretty", "--json"],
        ["demo", "ghz", "--json"],
        ["sweep", "ghz", "--steps", "5", "--csv"],
        ["run", GHZ_QC, "--convention", "paper", "--json"],
        ["demo", "swap", "--json"],
        ["sweep", "ghz", "--convention", "paper", "--csv"],
    ]
    cached = [run_main(argv, tmp_path, f"cached{i}", capsys) for i, argv in enumerate(calls)]
    assert aomsim.cli._parser.cache_info().currsize == 1
    for i, (argv, got) in enumerate(zip(calls, cached)):
        aomsim.cli._parser.cache_clear()
        assert run_main(argv, tmp_path, f"fresh{i}", capsys) == got, argv
    pretty, plain = cached[0][2], cached[1][2]
    assert pretty != plain and json.loads(pretty) == json.loads(plain)


def test_replaced_command_takes_effect_after_the_parser_is_cached(monkeypatch, capsys):
    import aomsim.cli

    assert main(["sweep", "ghz", "--steps", "2"]) == 0
    seen = []
    monkeypatch.setattr(aomsim.cli, "cmd_sweep", lambda args: seen.append(args.steps) or 7)
    assert main(["sweep", "ghz", "--steps", "3"]) == 7
    assert seen == [3]
    capsys.readouterr()


@pytest.mark.parametrize("head,option,tail", [
    (["demo", "swap"], "--alpha", ["--json"]),
    (["demo", "ghz", "--convention", "paper"], "--alpha", ["--json"]),
    (["sweep", "ghz", "--alpha-to", "1e-1", "--steps", "3"], "--alpha-from", ["--csv"]),
    (["sweep", "ghz", "--alpha-from", "-2", "--steps", "3"], "--alpha-to", ["--csv"]),
])
def test_negative_exponent_value_as_separate_token(head, option, tail, tmp_path, capsys):
    separate = run_main(head + [option, "-1e-3"] + tail, tmp_path, "separate", capsys)
    joined = run_main(head + [f"{option}=-1e-3"] + tail, tmp_path, "joined", capsys)
    assert separate[0] == 0
    assert separate == joined


# ---------------------------------------------------------------- random circuits


GHZ_TEXT = (CIRCUITS / "ghz.qc").read_text()
GHZ_REPORT = "report ghz a=(1@0,3'@1,4'@0) b=(1'@1,2'@0,4@1)"
SAME_BRANCHES = "(1@0,1'@1,2'@0,3'@1,4@1,4'@0)"


@given(circuit_texts())
@example(GHZ_TEXT.replace(GHZ_REPORT, f"report ghz a={SAME_BRANCHES} b={SAME_BRANCHES}"))
@example(GHZ_TEXT.replace(GHZ_REPORT, "report ghz a=(1@0) b=(1'@1)"))  # does not factor
@settings(max_examples=150, deadline=None)
def test_a_circuit_never_ends_in_an_internal_error(tmp_path_factory, text):
    """Every circuit runs, or exits 1 or 2 on one line that names a runtime or compile error."""
    folder = tmp_path_factory.mktemp("circuit")
    (folder / "c.qc").write_text(text)
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main(["run", str(folder / "c.qc"), "--json", str(folder / "r.json")])
    err = stderr.getvalue()
    assert code == 0 or code in (1, 2) and "internal error" not in err, (text, err)
    assert "Traceback" not in err
