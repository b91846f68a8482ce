"""Metrics on the engine's rows: batched partial traces and entropies, and kets on demand."""

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from aomsim import (
    Convention,
    FockKet,
    HeraldRule,
    ModeLabel,
    StateVector,
    apply_element,
    compile_circuit,
    entanglement_entropy,
    make_aom,
    parse,
    post_select,
    reduced_density,
    states,
)
from aomsim.cli import main
from conftest import circuit_texts, random_circuit

M = ModeLabel
ROOT = Path(__file__).resolve().parent.parent
CHAIN5 = Path("tests") / "golden" / "chain5.qc"


def dense_reduction(state: StateVector, keep: set[str]) -> tuple[list, np.ndarray]:
    """The kept basis in ket order, and rho = psi psi^dagger over it.

    ``psi`` is indexed by (kept sub-ket, traced-out sub-ket).
    """
    split = [(FockKet(p for p in k.pairs if p[0].path in keep),
              FockKet(p for p in k.pairs if p[0].path not in keep), a)
             for k, a in state.terms.items()]
    basis = sorted({on for on, _, _ in split})
    rest = list(dict.fromkeys(off for _, off, _ in split))
    psi = np.zeros((len(basis), len(rest)), dtype=complex)
    for on, off, a in split:
        psi[basis.index(on), rest.index(off)] = a
    return basis, psi @ psi.conj().T


def dense_entropy(rho: np.ndarray) -> float:
    return -sum(v * math.log2(v) for v in np.linalg.eigvalsh(rho).tolist() if v > 0.0)


@given(seed=st.integers(0, 2**32 - 1),
       convention=st.sampled_from([Convention.UNITARY, Convention.PAPER_LITERAL]),
       count=st.integers(0, 2),
       keep=st.sets(st.sampled_from(["a", "b", "c", "s1", "s2", "u", "v", "x", "y"])))
@settings(max_examples=80, deadline=None)
def test_batched_entropies_and_purities_match_a_dense_reference(seed, convention, count, keep):
    rng = np.random.default_rng(seed)
    state, aoms = random_circuit(rng, convention)
    for spec in aoms:
        state = apply_element(state, make_aom(spec))
    outcomes = [o for o in post_select(state, HeraldRule([({"x", "y"}, count)]))
                if o.rows is not None and len(o.rows.amp)]
    rows = [o.rows for o in outcomes]
    entropies = entanglement_entropy(rows, keep)
    matrices = reduced_density(rows, keep)
    assert len(entropies) == len(matrices) == len(outcomes)
    for o, entropy, rho in zip(outcomes, entropies, matrices):
        basis, want = dense_reduction(o.conditional_state, keep)
        assert list(rho.basis) == basis
        assert np.abs(rho.matrix - want).max() <= 1e-12
        assert abs(entropy - dense_entropy(want)) <= 1e-12
        assert abs(rho.purity() - np.trace(want @ want).real) <= 1e-12
        assert abs(rho.trace() - 1.0) <= 1e-12
        # one state at a time gives the same bits as the batch
        assert repr(entanglement_entropy(o.conditional_state, keep)) == repr(entropy)
        alone = reduced_density(o.rows, keep)
        assert alone.basis == rho.basis and alone.matrix.tobytes() == rho.matrix.tobytes()


def test_empty_list_gives_no_values():
    assert entanglement_entropy([], {"a"}) == []
    assert reduced_density([], {"a"}) == []


def test_chain_report_builds_kets_for_the_discard_bucket_only(monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(ROOT)
    built = []
    kets = states.kets

    def counted(modes, occ):
        built.append(len(occ))
        return kets(modes, occ)

    monkeypatch.setattr(states, "kets", counted)
    result = compile_circuit(parse(CHAIN5.read_text())).run()
    assert built == []
    discard = result.outcomes[-1]
    assert discard.label == "discard" and len(discard.conditional_state.terms) > 0
    assert built == [len(discard.rows.amp)]

    built.clear()
    assert main(["run", str(CHAIN5), "--json", str(tmp_path / "chain5.json")]) == 0
    capsys.readouterr()
    assert set(built) <= {len(discard.rows.amp)}

    accepted = result.outcomes[0]
    assert accepted.accepted and len(accepted.conditional_state.terms) == 2
    assert built[-1] == 2


# ------------------------------------------------------------- exact zeros


LITERAL_SWAP_SPLIT = ["demo", "swap", "--convention", "paper", "--alpha", "0.19634954084936207"]
PRODUCT_CIRCUIT = """\
source S0 arms=(s00@0,s01@2) alt=(s02@0,s03@2) alpha=0.7853981633974483
aom A1 in=(s03@2,s00@0) out=(x1,y1) shift=2 t=0.5 convention=unitary
aom A2 in=(s01@2,s02@0) out=(x2,y2) shift=2 t=0.5 convention=paper
filter F0 path=s01 pass=0 sigma=0.5
herald count(s00)==0
report entropy split=(s00)
"""


def test_product_states_print_an_entropy_of_exactly_zero(tmp_path, capsys):
    """Both states factorise across their cut: the table and the JSON say 0, not rounding noise."""
    assert main(LITERAL_SWAP_SPLIT + ["--json", str(tmp_path / "swap.json")]) == 0
    assert "unresolved_split_entropy: 0.000000" in capsys.readouterr().out
    report = json.loads((tmp_path / "swap.json").read_text())
    assert repr(report["metrics"]["unresolved_split_entropy"]) == "0.0"

    (tmp_path / "c.qc").write_text(PRODUCT_CIRCUIT)
    assert main(["run", str(tmp_path / "c.qc"), "--json", str(tmp_path / "c.json")]) == 0
    assert "entropy[s00]=0.000000" in capsys.readouterr().out
    (outcome,) = [o for o in json.loads((tmp_path / "c.json").read_text())["outcomes"]
                  if o["accepted"]]
    assert repr(outcome["metrics"]["entropy[s00]"]) == "0.0"


@given(circuit_texts())
@settings(max_examples=60, deadline=None)
def test_no_reported_entropy_is_negative(tmp_path_factory, text):
    folder = tmp_path_factory.mktemp("circuit")
    (folder / "c.qc").write_text(text)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["run", str(folder / "c.qc"), "--json", str(folder / "r.json")])
    if code != 0:  # the circuit is invalid, or fails at run time
        return
    report = json.loads((folder / "r.json").read_text())
    for outcome in report["outcomes"]:
        for key, value in outcome["metrics"].items():
            if key.startswith("entropy["):
                assert value >= 0.0, (text, key, value)


def test_a_small_resolved_eigenvalue_keeps_its_entropy():
    """sin^2(eps) = 1e-6 is far above the rounding the entropy drops near 0 and 1."""
    eps = math.asin(1e-3)
    state = StateVector({FockKet({M("a", 0): 1, M("b", 0): 1}): math.cos(eps),
                         FockKet({M("a", 1): 1, M("b", 1): 1}): math.sin(eps)})
    p = math.sin(eps) ** 2
    exact = -p * math.log2(p) - (1 - p) * math.log2(1 - p)
    assert abs(entanglement_entropy(state, {"a"}) - exact) <= 1e-12
