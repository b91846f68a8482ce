"""Metrics on the engine's rows: batched partial traces and entropies, and kets on demand."""

import math
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from aomsim import (
    Convention,
    FockKet,
    HeraldRule,
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
from conftest import random_circuit

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
       count=st.integers(0, 2), discard=st.booleans(),
       keep=st.sets(st.sampled_from(["a", "b", "c", "s1", "s2", "u", "v", "x", "y"])))
@settings(max_examples=80, deadline=None)
def test_batched_entropies_and_purities_match_a_dense_reference(seed, convention, count,
                                                                 discard, keep):
    rng = np.random.default_rng(seed)
    state, aoms = random_circuit(rng, convention)
    for spec in aoms:
        state = apply_element(state, make_aom(spec))
    outcomes = [o for o in post_select(state, HeraldRule([({"x", "y"}, count)], discard))
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
