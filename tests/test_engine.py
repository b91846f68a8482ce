"""The array engine: step-by-step agreement with the dense oracle, row order, budgets."""

import math
import tracemalloc
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aomsim import (
    AomSpec,
    CapExceededError,
    Convention,
    FilterSpec,
    FockKet,
    HeraldRule,
    NonFiniteError,
    SourceSpec,
    StateVector,
    ZeroStateError,
    apply_element,
    apply_filter,
    compile_circuit,
    dense_oracle_apply,
    engine,
    make_aom,
    make_source,
    normalize,
    parse,
    post_select,
    tensor,
)
from aomsim.cli import main
from aomsim.elements import circuit_modes
from aomsim.experiments import _herald
from aomsim.states import as_arrays, as_state
from conftest import M, max_amplitude_dev, random_circuit
from test_golden import chain_circuit

CONVENTIONS = (Convention.UNITARY, Convention.PAPER_LITERAL)


def evolve_arrays(state: StateVector, aoms: list[AomSpec]):
    """Each AOM's input and output on one occupation matrix over the circuit's modes."""
    ops = [make_aom(spec) for spec in aoms]
    arrays = as_arrays(state, circuit_modes((), ops))
    for op in ops:
        before = arrays
        arrays = apply_element(arrays, op)
        assert isinstance(arrays, engine.ArrayState)
        yield op, before, arrays


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_array_path_matches_dense_oracle_step_by_step(convention):
    rng = np.random.default_rng(31)
    for _ in range(60):
        state, aoms = random_circuit(rng, convention)
        for op, before, after in evolve_arrays(state, aoms):
            given = as_state(before)
            assert max_amplitude_dev(as_state(after), dense_oracle_apply(given, op)) < 1e-12
            # the StateVector wrapper runs the same kernel: identical terms, in order
            wrapped = apply_element(given, op)
            assert list(wrapped.terms.items()) == list(as_state(after).terms.items())
            assert after.non_unitary == wrapped.non_unitary


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_spectator_on_output_mode_matches_oracle(convention):
    # x@1 already holds photons, so image photons landing there need (n+m)! weights
    state = normalize(StateVector({
        FockKet({M("a", 1): 1, M("x", 1): 2}): 0.6,
        FockKet({M("b", 0): 2, M("x", 1): 1, M("s", 0): 1}): -0.8j,
    }))
    aom = AomSpec("A", M("a", 1), M("b", 0), "x", "y", phase_convention=convention)
    (op, _, after), = evolve_arrays(state, [aom])
    want = dense_oracle_apply(state, op, photon_cap=4)
    assert max_amplitude_dev(as_state(after), want) < 1e-12


@pytest.mark.parametrize("convention", CONVENTIONS)
@pytest.mark.parametrize("n_a,n_b", [(a, b) for a in range(4) for b in range(4) if a + b])
def test_input_occupations_up_to_three_match_oracle(convention, n_a, n_b):
    terms = {FockKet({M("a", 2): n_a, M("b", 1): n_b}): 0.8}
    terms[FockKet({M("a", 2): 1, M("s", 0): 1})] = 0.6j
    state = normalize(StateVector(terms))
    aom = AomSpec("A", M("a", 2), M("b", 1), "x", "y", t_amp=0.35, phase_convention=convention)
    (op, _, after), = evolve_arrays(state, [aom])
    want = dense_oracle_apply(state, op, photon_cap=6)
    assert max_amplitude_dev(as_state(after), want) < 1e-12


def test_pipeline_run_matches_oracle_on_swap_circuit():
    text = "\n".join([
        "source S1 arms=(1@0,2@1) alt=(1'@1,2'@0) alpha=0.4",
        "source S2 arms=(3@0,4@1) alt=(3'@1,4'@0) alpha=1.1",
        "aom A1 in=(2@1,3@0) out=(T1,T1') t=0.3 convention=paper",
        "aom A2 in=(3'@1,2'@0) out=(T2',T2)",
    ]) + "\n"
    pipeline = compile_circuit(parse(text))
    result = pipeline.run()
    state = as_state(engine.tensor(*(engine.source(s, circuit_modes(pipeline.sources, ()))
                                     for s in pipeline.sources)))
    for spec in pipeline.elements:
        state = dense_oracle_apply(state, make_aom(spec))
    assert max_amplitude_dev(result.evolved_state, state) < 1e-12
    assert result.non_unitary


def test_chain_k6_exact_answers():
    result = compile_circuit(parse(chain_circuit(6, ["unitary", "paper", "paper"]))).run()
    accepted = [o for o in result.outcomes if o.accepted]
    assert math.isclose(result.success_probability, 2.0 ** -5, abs_tol=1e-12)
    assert len(accepted) == 1024
    assert sum(len(o.conditional_state.terms) for o in accepted) == 2048
    for o in accepted:
        assert o.metrics["entropy[L0,L0']"] == pytest.approx(1.0, abs=1e-12)


def test_ket_order_and_grouping_match_python_sorting():
    rng = np.random.default_rng(5)
    modes = tuple(M(p, b) for p in "abc" for b in range(3))
    for n in [0, 1, 2, *rng.integers(3, 60, size=37).tolist()]:
        occ = rng.integers(0, 3, size=(n, len(modes))).astype(np.int8)
        occ[rng.random(n) < 0.1] = 0  # a few vacuum rows
        kets = [FockKet({m: int(c) for m, c in zip(modes, row)}) for row in occ]
        order = engine.ket_order(occ)
        assert [kets[i] for i in order] == sorted(kets)
        ids, first = engine._group(occ)
        rows = [tuple(r) for r in occ.tolist()]
        distinct = sorted(set(rows))
        assert ids.tolist() == [distinct.index(r) for r in rows]
        assert first.tolist() == [rows.index(r) for r in distinct]


def assert_ket_order(state):
    """Rows of an array state, or terms of a ``StateVector``, listed as ``FockKet`` sorts them."""
    if isinstance(state, StateVector):
        assert list(state.terms) == sorted(state.terms)
    else:
        assert engine.ket_order(state.occ).tolist() == list(range(len(state.occ)))


@given(seed=st.integers(0, 2**32 - 1), convention=st.sampled_from(CONVENTIONS),
       batch=st.booleans(), paths=st.permutations("pqrt"),
       bins=st.lists(st.integers(0, 2), min_size=4, max_size=4),
       alphas=st.lists(st.floats(0.1, 1.4), min_size=2, max_size=2))
@settings(max_examples=80, deadline=None)
def test_every_kernel_emits_its_rows_in_ket_order(seed, convention, batch, paths, bins, alphas):
    """Source, tensor, lift, filter, normalize and herald all leave rows in ket order, on
    array states (one state or a batch) and on ``StateVector`` terms."""
    rng = np.random.default_rng(seed)
    state, aoms = random_circuit(rng, convention)
    ops = [make_aom(spec) for spec in aoms]
    m = [M(p, b) for p, b in zip(paths, bins)]
    source = SourceSpec("S", (m[0], m[1]), (m[2], m[3]))
    spectators = {mode for k in state.terms for mode in k.modes()}
    modes = tuple(sorted(spectators.union(circuit_modes([source], ops))))
    shuffled = StateVector(dict(reversed(list(state.terms.items()))))
    arrays = as_arrays(shuffled, modes)
    assert_ket_order(arrays)
    emitted = make_source(source, modes, alphas if batch else alphas[0])
    assert_ket_order(emitted)
    assert_ket_order(tensor(arrays, emitted))
    arrays = tensor(emitted, arrays)
    assert_ket_order(arrays)
    for op in ops:
        arrays = apply_element(arrays, op)
        assert_ket_order(arrays)
    pass_bin = int(rng.integers(0, 3))
    try:
        arrays, _ = apply_filter(arrays, FilterSpec(aoms[-1].output_x, pass_bin))
        assert_ket_order(arrays)
    except ZeroStateError:  # the filter blocked every row
        pass
    assert_ket_order(engine.normalize(arrays))
    rule = HeraldRule([({aoms[-1].output_x, aoms[-1].output_y}, 1)])
    for _, _, rows, _, _ in _herald(arrays, rule):
        if rows is not None:
            assert_ket_order(rows)

    # the StateVector wrappers list their terms in ket order too
    single = make_source(source)
    assert_ket_order(single)
    assert_ket_order(tensor(shuffled, single))
    assert_ket_order(normalize(shuffled))
    evolved = shuffled
    for op in ops:
        evolved = apply_element(evolved, op)
        assert_ket_order(evolved)
    for outcome in post_select(evolved, rule):
        if outcome.conditional_state is not None:
            assert_ket_order(outcome.conditional_state)


def test_memoised_small_plans_match_fresh_vectorised_runs(monkeypatch):
    text = "\n".join([
        "source S1 arms=(1@0,2@1) alt=(1'@1,2'@0) alpha={alpha}",
        "source S2 arms=(3@0,4@1) alt=(3'@1,4'@0)",
        "aom A in=(2@1,3@0) out=(T',T) convention=paper",
        "herald count(T,T')==1",
    ]) + "\n"

    def terms(alpha):
        result = compile_circuit(parse(text.format(alpha=alpha))).run()
        return [(o.label, o.probability, list(o.conditional_state.terms.items()))
                for o in result.outcomes]

    memoised = {alpha: [terms(alpha), terms(alpha)] for alpha in (0.3, 0.7)}
    monkeypatch.setattr(engine, "_MEMO_ROWS", 0)  # no memo
    for alpha, runs in memoised.items():
        assert runs[0] == runs[1] == terms(alpha)


def test_tensor_plan_is_memoised_only_for_two_small_operands():
    modes = (M("a", 0), M("b", 0))
    small = engine.ArrayState(modes, np.array([[1, 0], [2, 0]], dtype=np.int8), np.ones(2, complex))
    big = engine.ArrayState(modes, np.array([[0, n] for n in range(1, 41)], dtype=np.int8),
                            np.ones(40, complex))
    before = engine._tensor_plan.cache_info()
    engine.tensor(small, big)
    after = engine._tensor_plan.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


def test_tensor_over_budget_raises(monkeypatch):
    monkeypatch.setattr(engine, "TERM_BUDGET", 3)
    modes = (M("a", 0), M("b", 0))
    one = engine.ArrayState(modes, np.array([[1, 0], [2, 0]], dtype=np.int8), np.ones(2, complex))
    two = engine.ArrayState(modes, np.array([[0, 1], [0, 2]], dtype=np.int8), np.ones(2, complex))
    with pytest.raises(CapExceededError, match="budget"):
        engine.tensor(one, two)


def test_int8_occupations_cannot_overflow():
    with pytest.raises(CapExceededError):
        as_arrays(StateVector({FockKet({M("a", 1): 200}): 1.0}))
    op = make_aom(AomSpec("A", M("a", 1), M("b", 0), "x", "y"))
    crowded = StateVector({FockKet({M("a", 1): 64, M("b", 0): 64}): 1.0})
    with pytest.raises(CapExceededError, match="photons"):
        apply_element(crowded, op)


def test_cli_exits_1_when_a_chain_exceeds_the_term_budget(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(engine, "TERM_BUDGET", 100)
    circuit = tmp_path / "chain4.qc"
    circuit.write_text(chain_circuit(4, ["unitary"]))
    assert main(["run", str(circuit)]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "budget" in err and "Traceback" not in err


LIFT_PEAK_BYTES_PER_CELL = 14.0
"""Bound on a lift's peak traced allocation per output cell (rows times columns).

Measured at 12.8 on the last lift of ``tests/golden/chain5.qc`` (2,744 rows
in, 4,802 rows out, 36 columns); about half of it is the int64 copy of the
key matrix that ``engine._pack`` multiplies.
"""


def test_a_chain_lift_peak_bytes_per_output_cell():
    pipeline = compile_circuit(parse(
        (Path(__file__).parent / "golden" / "chain5.qc").read_text(encoding="utf-8")))
    modes, steps = pipeline._steps(None)
    state = reduce(engine.tensor, [engine.source(spec, modes) for spec in pipeline.sources])
    *before, last = steps
    for step in before:
        state = engine.lift(state, step)
    engine.lift(state, last)  # fills the caches of image tables
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        out = engine.lift(state, last)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert out.occ.shape == (4802, 36)
    assert peak / out.occ.size <= LIFT_PEAK_BYTES_PER_CELL


def test_array_state_takes_occupations_of_any_integer_type():
    modes = (M("a", 1), M("b", 0), M("x", 1), M("y", 0))
    op = make_aom(AomSpec("A", M("a", 1), M("b", 0), "x", "y"))
    occ, amp = [[1, 1, 0, 0], [2, 0, 0, 0]], np.array([0.6, 0.8j])
    narrow = engine.ArrayState(modes, np.array(occ, dtype=np.int8), amp)
    wide = engine.ArrayState(modes, np.array(occ, dtype=np.int64), np.array([0.6, 0.8j]))
    assert wide.occ.dtype == np.int8 and len(wide.terms) == 2
    want, got = engine.lift(narrow, op), engine.lift(wide, op)
    assert got.occ.tolist() == want.occ.tolist() and got.amp.tolist() == want.amp.tolist()
    for bad in ([[200, 0, 0, 0]], [[-1, 0, 0, 0]]):
        with pytest.raises(CapExceededError):
            engine.ArrayState(modes, np.array(bad), np.ones(1, complex))


@pytest.mark.parametrize("scale", [1e-200, 1e-320])
def test_norm_and_unit_of_tiny_amplitudes(scale):
    """Squares that underflow neither zero the norm nor lose the state's shape."""
    amp = np.array([3 * scale, 4j * scale])
    assert engine.norm(amp) == pytest.approx(5 * scale, rel=1e-3 if scale < 1e-308 else 1e-15)
    assert np.allclose(engine.unit(amp), [0.6, 0.8j], atol=1e-3)


def test_norm_and_unit_of_a_batch_with_one_huge_member():
    """A member whose squares overflow is rescaled on its own; the others keep their bits."""
    amp = np.array([[0.6, 0.8j], [3e200, 4e200j], [3e-200, 4e-200j], [1.0, 0.0]])
    norms = engine.norm(amp)
    assert norms[1] == pytest.approx(5e200, rel=1e-15)
    assert [norms[i] for i in (0, 2, 3)] == [engine.norm(amp[i]) for i in (0, 2, 3)]
    assert np.allclose(engine.unit(amp), [[0.6, 0.8j]] * 3 + [[1.0, 0.0]], rtol=1e-15)
    with pytest.raises(NonFiniteError):
        engine.squared(norms)
