"""Acceptance gate: every top-level requirement at its pinned tolerance.

Each test prints one [criterion NN] PASS/FAIL line (visible with ``pytest -s``
or in captured output on failure) and asserts the same condition.
"""

import json
import math

import numpy as np

from aomsim import (
    AomSpec,
    Convention,
    HeraldRule,
    apply_element,
    dense_oracle_apply,
    ket,
    make_aom,
    make_source,
    post_select,
    run_ghz,
    run_swap,
    tensor,
)
from aomsim.cli import main
from conftest import (
    M,
    ghz_aom,
    max_amplitude_dev,
    outcome_bits,
    random_circuit,
    random_state,
    reference_ghz,
    reference_swap,
    swap_aoms,
    swap_sources,
)

CONVENTIONS = (Convention.UNITARY, Convention.PAPER_LITERAL)
ALPHA_GRID = [i * (math.pi / 2) / 32 for i in range(33)]


def check(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status} {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_swap_success_probability():
    devs = [abs(run_swap(convention=c).success_probability - 0.5) for c in CONVENTIONS]
    check(1, "swap success probability 0.5 under both conventions",
          max(devs) <= 1e-12, f"max deviation {max(devs):.3e}")


def test_criterion_02_swap_resolved_heralds():
    worst_p, worst_e = 0.0, 0.0
    ok_counts = True
    for convention in CONVENTIONS:
        accepted = [o for o in run_swap(convention=convention).outcomes if o.accepted]
        ok_counts = ok_counts and len(accepted) == 4
        for o in accepted:
            worst_p = max(worst_p, abs(o.probability - 0.125))
            worst_e = max(worst_e, abs(o.metrics["pair_entropy"] - 1.0))
    check(2, "four resolved swap heralds at p=0.125 with 1 ebit",
          ok_counts and worst_p <= 1e-12 and worst_e <= 1e-9,
          f"probability dev {worst_p:.3e}, entropy dev {worst_e:.3e}")


def test_criterion_03_literal_post_selected_factorization():
    result = run_swap(convention=Convention.PAPER_LITERAL)
    entropy = result.metrics["unresolved_split_entropy"]
    fidelity = result.metrics["pair_block_fidelity"]
    check(3, "literal-convention swap state factorizes onto the target pair",
          entropy <= 1e-9 and fidelity >= 1 - 1e-9,
          f"cut entropy {entropy:.3e}, pair fidelity {fidelity:.12f}")


def test_criterion_04_literal_leftover_photons_disentangled():
    purity = run_swap(convention=Convention.PAPER_LITERAL).metrics["output_purity"]
    check(4, "literal-convention AOM-output reduction is pure",
          abs(purity - 1.0) <= 1e-9, f"purity {purity:.12f}")


def test_criterion_05_ghz_balanced_probabilities():
    worst = 0.0
    for convention in CONVENTIONS:
        result = run_ghz(convention=convention)
        worst = max(worst, abs(result.success_probability - 0.5))
        worst = max(worst, abs(result.per_detector["T"] - 0.25))
        worst = max(worst, abs(result.per_detector["T'"] - 0.25))
    check(5, "GHZ total probability 0.5, per-detector 0.25",
          worst <= 1e-12, f"max deviation {worst:.3e}")


def test_criterion_06_ghz_alpha_law():
    worst = 0.0
    for alpha in ALPHA_GRID:
        result = run_ghz(alpha=alpha)
        expected = math.sin(alpha) ** 2 * math.cos(alpha) ** 2
        worst = max(worst, abs(result.per_detector["T"] - expected))
        worst = max(worst, abs(result.per_detector["T'"] - expected))
    check(6, "per-detector GHZ probability follows sin^2(a) cos^2(a) on 33 points",
          worst <= 1e-9, f"max deviation {worst:.3e}")


def test_criterion_07_ghz_fidelity():
    worst = 0.0
    heralds = 0
    for convention in CONVENTIONS:
        for alpha in ALPHA_GRID + [math.pi / 4]:
            for o in run_ghz(alpha=alpha, convention=convention).outcomes:
                if o.accepted and o.probability > 1e-15:
                    heralds += 1
                    worst = max(worst, abs(o.metrics["ghz_fidelity"] - 1.0))
    check(7, "every nonzero-probability herald reaches GHZ fidelity 1",
          heralds > 0 and worst <= 1e-9,
          f"{heralds} heralds, max deviation {worst:.3e}")


def test_criterion_08_sparse_matches_dense_oracle():
    rng = np.random.default_rng(8)
    worst = 0.0
    circuits = 0
    while circuits < 200:
        state, aoms = random_circuit(rng)
        circuits += 1
        for spec in aoms:
            op = make_aom(spec)
            sparse = apply_element(state, op)
            dense = dense_oracle_apply(state, op)
            worst = max(worst, max_amplitude_dev(sparse, dense))
            state = sparse
    check(8, "200 randomized circuits: sparse vs dense oracle",
          worst <= 1e-12, f"max amplitude deviation {worst:.3e}")


def test_criterion_09_isometry_and_literal_flag():
    rng = np.random.default_rng(9)
    worst = 0.0
    flags_ok = True
    for i in range(1000):
        t = 2 ** -0.5 if i % 2 else float(rng.uniform(0.1, 0.9))
        op_u = make_aom(AomSpec("U", M("a", 1), M("b", 0), "x", "y", t_amp=t))
        state = random_state(rng, [M("a", 1), M("b", 0), M("s", 2)])
        worst = max(worst, abs(apply_element(state, op_u).norm() - 1.0))
        op_l = make_aom(AomSpec("L", M("a", 1), M("b", 0), "x", "y", t_amp=t,
                                phase_convention=Convention.PAPER_LITERAL))
        flags_ok = flags_ok and apply_element(state, op_l).non_unitary
    check(9, "1000 random states: unitary lift preserves norm, literal flags",
          worst <= 1e-12 and flags_ok, f"max norm deviation {worst:.3e}")


def test_criterion_10_post_selection_completeness():
    rng = np.random.default_rng(10)
    worst = 0.0
    calls = 0

    def completeness(state, rule):
        nonlocal worst, calls
        calls += 1
        total = sum(o.probability for o in post_select(state, rule))
        worst = max(worst, abs(total - 1.0))

    swap_rule = HeraldRule([({"T1", "T1'"}, 1), ({"T2", "T2'"}, 1)])
    ghz_rule = HeraldRule([({"T", "T'"}, 1)])
    for convention in CONVENTIONS:
        s1, s2 = swap_sources(math.pi / 4)
        state = tensor(make_source(s1), make_source(s2))
        completeness(state, HeraldRule([({"2", "3"}, 1)]))
        for spec in swap_aoms(convention):
            state = apply_element(state, make_aom(spec))
        completeness(state, swap_rule)
        completeness(apply_element(
            tensor(make_source(s1), make_source(s2)), make_aom(ghz_aom(convention))),
            ghz_rule)
    completeness(ket([M("a", 0)]), HeraldRule([({"a"}, 7)]))
    for _ in range(50):
        state = random_state(rng, [M("a", 0), M("a", 1), M("b", 0), M("c", 2)])
        rule = HeraldRule([({"a"}, int(rng.integers(0, 4))), ({"b"}, int(rng.integers(0, 3)))])
        completeness(state, rule)
    check(10, "accepted plus discarded probabilities complete to 1",
          worst <= 1e-9, f"{calls} post-selections, max deviation {worst:.3e}")


def test_criterion_11_dsl_matches_programmatic_runs():
    """run_swap and run_ghz compile the shipped circuits; the reference wires them by hand.

    Bit for bit: labels, ``repr`` of every probability and metric, and the
    bytes of every outcome state's rows; the batch ``run_ghz([...])`` member
    by member against one-angle reference runs.
    """
    runs, mismatches = 0, []
    for convention in CONVENTIONS:
        for alpha in (math.pi / 4, 0.6, 0.0, 1e-200):
            for run, reference in ((run_swap, reference_swap), (run_ghz, reference_ghz)):
                got, (outcomes, success) = run(alpha, convention), reference(alpha, convention)
                runs += 1
                if ([outcome_bits(o) for o in got.outcomes] != [outcome_bits(o) for o in outcomes]
                        or repr(got.success_probability) != repr(success)):
                    mismatches.append(f"{run.__name__}({alpha!r}, {convention.value})")
        alphas = ALPHA_GRID + [0.6, 1e-200, -0.0, 1e10]
        sweep = run_ghz(alphas, convention)
        for i, alpha in enumerate(alphas):
            outcomes, success = reference_ghz(alpha, convention)
            accepted = {o.pattern: o for o in outcomes if o.accepted}
            per_t = [o.probability for o in accepted.values() if dict(o.pattern)["T"] == 1]
            least = min((o.metrics["ghz_fidelity"] for o in accepted.values()), default=0.0)
            want = (per_t[0] if per_t else 0.0, success, least)
            got = (sweep.per_detector["T"][i].item(), sweep.success_probability[i].item(),
                   sweep.fidelity[i].item())
            runs += 1
            if repr(got) != repr(want):
                mismatches.append(f"run_ghz batch member {alpha!r} ({convention.value})")
    check(11, "shipped circuits reproduce the hand-wired schemes bit for bit",
          not mismatches, f"{runs} runs, mismatches: {mismatches[:3]}")


def test_criterion_12_json_reports_are_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["demo", "ghz", "--json", str(a)]) == 0
    assert main(["demo", "ghz", "--json", str(b)]) == 0
    capsys.readouterr()
    same = a.read_bytes() == b.read_bytes()
    parsed = json.loads(a.read_text())
    check(12, "repeated demo runs produce byte-identical JSON",
          same and parsed["schema_version"] == 1,
          f"{len(a.read_bytes())} bytes")
