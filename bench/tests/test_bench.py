"""The benchmark's own checks, at tiny sizes (chain k=2 and k=3, short sweeps).

Run with ``python -m pytest bench/tests`` from the root of the checkout.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402
from tracing import COUNT_NAMES  # noqa: E402
from workloads import (  # noqa: E402
    Command,
    ReportValidator,
    Result,
    chain_circuit,
    check_chain_report,
    check_ghz_report,
    check_sweep_csv,
    op_rng,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
TINY = {"chain": {"k": 2}, "sweep": {"steps": 5}, "demos": {}}
cli = bench.import_program()


def tiny_run(name, trace, seed=1, **params):
    return bench.run_workload(name, seed, 0.2, trace, setup_repeats=1,
                              **{**TINY[name], **params})["result"]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_every_named_metric_is_emitted(name, trace):
    result = tiny_run(name, trace)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0


def run_chain(tmp_path, k, seed):
    circuit = tmp_path / "chain.qc"
    circuit.write_text(chain_circuit(k, op_rng(seed, 0)))
    report = tmp_path / "chain.json"
    assert cli.main(["run", str(circuit), "--json", str(report)]) == 0
    return json.loads(report.read_text())


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("seed", range(4))
def test_chain_exact_answers_under_mixed_conventions(tmp_path, capsys, k, seed):
    report = run_chain(tmp_path, k, seed)
    assert check_chain_report(report, k) == []
    assert ReportValidator(ROOT / "src" / "aomsim" / "run_report_schema.json").problems(report) == []


def test_chain_checker_rejects_corrupted_reports(tmp_path, capsys):
    good = run_chain(tmp_path, 3, 0)
    accepted = [i for i, o in enumerate(good["outcomes"]) if o["accepted"]]

    bad_p = json.loads(json.dumps(good))
    bad_p["success_probability"] += 1e-6
    bad_terms = json.loads(json.dumps(good))
    bad_terms["outcomes"][accepted[3]]["state"].pop()
    bad_entropy = json.loads(json.dumps(good))
    bad_entropy["outcomes"][accepted[-1]]["metrics"]["entropy[L0,L0']"] = 0.999
    bad_heralds = json.loads(json.dumps(good))
    bad_heralds["outcomes"][accepted[0]]["accepted"] = False
    for bad in (bad_p, bad_terms, bad_entropy, bad_heralds):
        assert check_chain_report(bad, 3)


def test_sweep_and_ghz_checkers_reject_corrupted_answers(tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert cli.main(["sweep", "ghz", "--steps", "5", "--alpha-from", "0.2",
                     "--alpha-to", "1.3", "--csv", str(out)]) == 0
    text = out.read_text()
    assert check_sweep_csv(text, 0.2, 1.3, 5) == []
    lines = text.splitlines()
    alpha, per_det, total, fid = lines[3].split(",")
    lines[3] = ",".join([alpha, repr(float(per_det) + 1e-6), total, fid])
    assert check_sweep_csv("\n".join(lines) + "\n", 0.2, 1.3, 5)
    assert check_sweep_csv(text, 0.2, 1.3, 6)

    report = tmp_path / "g.json"
    assert cli.main(["demo", "ghz", "--alpha", "0.5", "--json", str(report)]) == 0
    ghz = json.loads(report.read_text())
    assert check_ghz_report(ghz, 0.5, per_detector=True) == []
    ghz["outcomes"][0]["metrics"]["ghz_fidelity"] = 0.99
    assert check_ghz_report(ghz, 0.5, per_detector=True)


def test_malformed_output_is_a_problem_not_a_crash(tmp_path):
    workload = bench.WORKLOADS["demos"](1, tmp_path, ROOT)
    cmd = Command(("demo", "ghz"), tmp_path / "ghz.json")
    for data in (b"not json", b"{}", b"[]"):
        assert workload.check(0, 3, cmd, Result(0, "", data))


def test_corrupted_answer_counts_as_failed_op(monkeypatch):
    original = cli.run_ghz

    def skewed(*args, **kwargs):
        result = original(*args, **kwargs)
        result.per_detector["T"] *= 1 + 1e-6
        return result

    monkeypatch.setattr(cli, "run_ghz", skewed)
    result = tiny_run("sweep", False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 2


def test_raising_op_counts_as_failed_op(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "run_swap", broken)
    result = tiny_run("demos", False)
    assert result["failed"] == result["attempted"] >= 2


def test_counts_repeat_exactly_for_equal_seeds():
    first = tiny_run("chain", True, seed=7, k=3)["metrics"]
    second = tiny_run("chain", True, seed=7, k=3)["metrics"]
    counts = {name: first[name]["value"] for name in COUNT_NAMES}
    assert counts == {name: second[name]["value"] for name in COUNT_NAMES}
    # k=3: 4^2 accepted heralds plus the discard bucket, 2*4^2 accepted terms
    assert counts["experiments.outcomes"] == 17
    assert counts["experiments.accepted_term_ratio"] == 32 / counts["states.peak_terms"]
    assert counts["elements.lift_calls"] == 4
