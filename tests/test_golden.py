"""Byte-identical outputs against stored golden files, and the swap chain's exact answers.

The files under ``tests/golden/`` were written by the CLI before the sparse
engine was optimized, the two ``*_pretty.json`` files (``--pretty``
output) before the run reports were encoded in one batch, and
``sweep_ghz_unitary_257.csv`` and ``sweep_ghz_paper_tiny.csv`` (a range
from ``alpha = 1e-200``) before a sweep's angles were evolved as one batch;
every report, demo and sweep must still reproduce them byte for byte.  The
``unresolved_split_entropy`` field of ``demo_swap_paper_pi4.json`` and
``demo_swap_paper_a06.json`` was re-recorded from ``3.20342650381e-16`` to
``0.0`` once entropies stopped adding the rounding of eigenvalues at 1 (the
literal swap's combined state factorises across that cut).  The two
``demo_swap_*_tiny.json`` files (``alpha = 1e-200``) were written once the
swap's combined accepted state was taken from the run's final rows: the
first reports at an angle that small to hold its three metrics.  The k=5 swap
chain's report (745 KB) is pinned by its SHA-256 instead, recorded before
the array engine replaced the sparse one;
``chain5.qc`` is ``bench/workloads.chain_circuit(5, op_rng(0, 0))``.  Paths
are passed relative to the repository root, because a run report records
the circuit path it was given.
"""

import hashlib
import math
from pathlib import Path

import pytest

from aomsim import compile_circuit, parse
from aomsim.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path("tests") / "golden"

CASES = [
    (["run", "circuits/swap.qc", "--json"], "run_swap.json"),
    (["run", "circuits/ghz.qc", "--json"], "run_ghz.json"),
    (["run", str(GOLDEN / "chain3.qc"), "--json"], "chain3.json"),
    (["sweep", "ghz", "--steps", "17", "--convention", "paper", "--csv"], "sweep_ghz.csv"),
    (["sweep", "ghz", "--steps", "257", "--convention", "unitary", "--csv"],
     "sweep_ghz_unitary_257.csv"),
    (["sweep", "ghz", "--alpha-from=1e-200", "--alpha-to=0.5", "--steps", "9",
      "--convention", "paper", "--csv"], "sweep_ghz_paper_tiny.csv"),
    (["run", str(GOLDEN / "chain3.qc"), "--pretty", "--json"], "chain3_pretty.json"),
    (["demo", "ghz", "--pretty", "--json"], "demo_ghz_unitary_pi4_pretty.json"),
] + [
    (["demo", demo, "--convention", conv] + (["--alpha", alpha] if alpha else []) + ["--json"],
     f"demo_{demo}_{conv}_{tag}.json")
    for demo in ("swap", "ghz")
    for conv in ("unitary", "paper")
    for tag, alpha in (("pi4", None), ("a06", "0.6"))
] + [
    (["demo", "swap", "--alpha=1e-200", "--convention", conv, "--json"],
     f"demo_swap_{conv}_tiny.json")
    for conv in ("unitary", "paper")
]


@pytest.mark.parametrize("argv,golden", CASES, ids=[g for _, g in CASES])
def test_output_matches_golden_bytes(argv, golden, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    out = tmp_path / golden
    assert main(argv + [str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (ROOT / GOLDEN / golden).read_bytes()


CHAIN5_SHA256 = "c762e0adcb632114c40b73927deacbc54dc3ee426f96940a13aea1881c08a144"


def test_chain5_report_matches_recorded_hash(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    out = tmp_path / "chain5.json"
    assert main(["run", str(GOLDEN / "chain5.qc"), "--json", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CHAIN5_SHA256


def chain_circuit(k: int, conventions: list[str]) -> str:
    """k biphoton sources; AOMs join R_i with L_{i+1} as circuits/swap.qc joins 2 and 3."""
    lines = [f"source S{i} arms=(L{i}@0,R{i}@1) alt=(L{i}'@1,R{i}'@0)" for i in range(k)]
    for i in range(k - 1):
        j = i + 1
        lines.append(f"aom A{i} in=(R{i}@1,L{j}@0) out=(T{i},T{i}') "
                     f"convention={conventions[(2 * i) % len(conventions)]}")
        lines.append(f"aom B{i} in=(L{j}'@1,R{i}'@0) out=(U{i}',U{i}) "
                     f"convention={conventions[(2 * i + 1) % len(conventions)]}")
    clauses = [f"count(T{i},T{i}')==1 and count(U{i},U{i}')==1" for i in range(k - 1)]
    lines.append("herald " + " and ".join(clauses))
    lines.append("report entropy split=(L0,L0')")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("conventions", [["unitary"], ["paper"], ["unitary", "paper", "paper"]])
def test_swap_chain_exact_answers(k, conventions):
    result = compile_circuit(parse(chain_circuit(k, conventions))).run()
    accepted = [o for o in result.outcomes if o.accepted]
    assert math.isclose(result.success_probability, 2.0 ** -(k - 1), abs_tol=1e-12)
    assert len(accepted) == 4 ** (k - 1)
    assert sum(len(o.conditional_state.terms) for o in accepted) == 2 * 4 ** (k - 1)
    for o in accepted:
        assert o.metrics["entropy[L0,L0']"] == pytest.approx(1.0, abs=1e-12)
