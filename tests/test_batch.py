"""Batches: many states over one occupation matrix, evolved bit for bit as their members."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aomsim import (
    CapExceededError,
    Convention,
    HeraldRule,
    SourceSpec,
    SpecInvariantError,
    compile_circuit,
    engine,
    entanglement_entropy,
    enumerate_outcomes,
    make_aom,
    make_source,
    parse,
    post_select,
    run_ghz,
    tensor,
)
from aomsim.cli import main
from aomsim.engine import ArrayState
from aomsim.experiments import _herald
from aomsim.states import as_arrays
from conftest import M, random_circuit

CIRCUITS = Path(__file__).resolve().parent.parent / "circuits"
CONVENTIONS = (Convention.UNITARY, Convention.PAPER_LITERAL)

# a zero source row, underflowing products and herald norms, cos(alpha) at its smallest
SPECIAL_ANGLES = [0.0, -0.0, 5e-324, 1e-310, 1e-200, 1e-160, math.pi / 2,
                  math.nextafter(math.pi / 2, 0.0), math.nextafter(math.pi / 2, 4.0), math.pi]


def bits(x: np.ndarray) -> list:
    return np.ascontiguousarray(x).view(np.int64).tolist()


@given(lo=st.one_of(st.sampled_from(SPECIAL_ANGLES), st.floats(-3.2, 3.2)),
       span=st.floats(1e-9, 3.2), steps=st.integers(2, 40),
       extra=st.lists(st.tuples(st.integers(0, 40), st.sampled_from(SPECIAL_ANGLES)),
                      max_size=3),
       convention=st.sampled_from(CONVENTIONS))
@settings(max_examples=60, deadline=None)
def test_batched_sweep_matches_one_angle_runs_in_every_bit(lo, span, steps, extra, convention):
    alphas = [lo + i * span / (steps - 1) for i in range(steps)]
    for at, alpha in extra:
        alphas.insert(at, alpha)
    sweep = run_ghz(alphas, convention)
    columns = (sweep.per_detector["T"], sweep.per_detector["T'"], sweep.success_probability,
               sweep.fidelity)
    assert sweep.alpha == alphas and all(len(c) == len(alphas) for c in columns)
    for alpha, *row in zip(alphas, *(c.tolist() for c in columns)):
        one = run_ghz(alpha, convention)
        fidelity = min((o.metrics["ghz_fidelity"] for o in one.outcomes if o.accepted),
                       default=0.0)
        want = (one.per_detector["T"], one.per_detector["T'"], one.success_probability, fidelity)
        assert list(map(repr, row)) == list(map(repr, want)), alpha


def record_lift_inputs(monkeypatch) -> list:
    """Shapes of the amplitudes of each lift that returns, from now on."""
    shapes = []
    lift = engine.lift

    def recorded(state, op):
        out = lift(state, op)
        shapes.append(state.amp.shape)
        return out

    monkeypatch.setattr(engine, "lift", recorded)
    return shapes


def test_angles_that_share_their_rows_are_one_batch(monkeypatch):
    shapes = record_lift_inputs(monkeypatch)
    run_ghz([0.1 + 0.05 * i for i in range(30)], Convention.PAPER_LITERAL)
    assert shapes == [(30, 4)]


@pytest.mark.parametrize("alpha_from,first_row", [
    ("0.0", "0,0,0,0"),  # sin(0) = 0 drops a source row: no herald is accepted
    ("1e-200", "1e-200,0,0,1"),  # the probability underflows, the heralded state does not
])
def test_angles_that_drop_rows_are_split_off(alpha_from, first_row, tmp_path, monkeypatch,
                                             capsys):
    shapes = record_lift_inputs(monkeypatch)
    out = tmp_path / "s.csv"
    assert main(["sweep", "ghz", f"--alpha-from={alpha_from}", "--alpha-to=1",
                 "--steps", "5", "--convention", "paper", "--csv", str(out)]) == 0
    capsys.readouterr()
    rows = out.read_text().splitlines()
    assert rows[1] == first_row
    assert all(row.endswith(",1") for row in rows[2:])
    assert [shape[0] for shape in shapes] == [1, 4]  # the first angle alone, then the rest


def test_sweep_is_chunked_to_the_term_budget(monkeypatch, tmp_path, capsys):
    argv = ["sweep", "ghz", "--steps", "24", "--convention", "paper", "--csv"]
    assert main(argv + [str(tmp_path / "full.csv")]) == 0
    shapes = record_lift_inputs(monkeypatch)
    monkeypatch.setattr(engine, "TERM_BUDGET", 24)  # 3 angles of the lift's 8 image terms
    assert main(argv + [str(tmp_path / "chunked.csv")]) == 0
    capsys.readouterr()
    assert (tmp_path / "chunked.csv").read_bytes() == (tmp_path / "full.csv").read_bytes()
    # alpha = 0 alone, then 23 angles in chunks of at most 3 (--steps stays within the budget)
    assert len(shapes) == 9 and max(members for members, _ in shapes) == 3


def test_one_angle_over_the_term_budget_still_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(engine, "TERM_BUDGET", 3)
    assert main(["sweep", "ghz", "--steps", "3"]) == 1
    err = capsys.readouterr().err
    assert "budget" in err and "Traceback" not in err


def source_spec():
    return SourceSpec("S", arms=(M("a", 0), M("b", 1)), alt=(M("c", 1), M("d", 0)))


def test_source_splits_members_whose_zero_rows_differ():
    spec = source_spec()
    modes = tuple(sorted(spec.arms + spec.alt))
    alphas = [0.3, 0.0, 0.5, 0.0]
    with pytest.raises(engine.BatchSplit) as split:
        engine.source(spec, modes, alphas)
    # groups in mask order: [kept, dropped] sorts before [kept, kept]
    assert [g.tolist() for g in split.value.groups] == [[1, 3], [0, 2]]

    def rows(index):
        state = engine.source(spec, modes, [alphas[i] for i in index])
        return [(len(state.occ), bits(a)) for a in state.amp]

    got = engine.in_batches(rows, len(alphas))
    want = [(len(s.occ), bits(s.amp)) for s in (engine.source(spec, modes, a) for a in alphas)]
    assert got == want


def test_an_empty_batch_of_angles_is_a_spec_error():
    spec = source_spec()
    with pytest.raises(SpecInvariantError, match="at least one angle"):
        make_source(spec, tuple(sorted(spec.arms + spec.alt)), [])
    pipeline = compile_circuit(parse((CIRCUITS / "ghz.qc").read_text()))
    with pytest.raises(SpecInvariantError, match="at least one angle"):
        pipeline.run(None, [])
    sweep = run_ghz([])  # no batch to evolve: an empty table
    assert sweep.alpha == [] and len(sweep.success_probability) == len(sweep.fidelity) == 0
    assert all(len(p) == 0 for p in sweep.per_detector.values())


def test_tensor_of_batches_on_different_columns_matches_member_tensors_in_every_bit():
    """Each operand is widened to the union of the columns; members multiply pairwise."""
    one = source_spec()
    two = SourceSpec("T", arms=(M("e", 0), M("f", 1)), alt=(M("g", 1), M("h", 0)))
    own = {spec: tuple(sorted(spec.arms + spec.alt)) for spec in (one, two)}
    first, second = [0.3, 0.9, 1.2, -0.4], [0.5, 0.1, 1.4, 2.0]
    product = tensor(make_source(one, own[one], first), make_source(two, own[two], second))
    assert product.modes == tuple(sorted(own[one] + own[two])) and product.amp.shape == (4, 4)
    for member, (a, b) in enumerate(zip(first, second)):
        alone = tensor(make_source(one, own[one], a), make_source(two, own[two], b))
        assert alone.modes == product.modes and np.array_equal(alone.occ, product.occ)
        assert bits(alone.amp) == bits(product.amp[member])


def test_herald_and_partial_trace_wrappers_take_single_states():
    spec = source_spec()
    batch = make_source(spec, tuple(sorted(spec.arms + spec.alt)), [0.3, 0.9])
    with pytest.raises(ValueError, match="post_select takes one state, not a batch"):
        post_select(batch, HeraldRule([({"a", "c"}, 1)]))
    with pytest.raises(ValueError, match="a partial trace takes single states, not batches"):
        entanglement_entropy(batch, {"a", "b"})
    with pytest.raises(ValueError, match="a photon-count distribution takes one state"):
        enumerate_outcomes(batch, {"a"})
    with pytest.raises(ValueError, match="a photon-count distribution takes one state"):
        engine.count_distribution(batch, ["a"])


@pytest.mark.parametrize("alpha", [math.nan, math.inf, [0.3, math.nan]])
def test_a_pipeline_run_rejects_an_angle_that_is_not_finite(alpha):
    pipeline = compile_circuit(parse((CIRCUITS / "ghz.qc").read_text()))
    with pytest.raises(SpecInvariantError, match="S1: alpha must be a finite number"):
        pipeline.run(alpha=alpha)


def test_batch_over_the_budget_is_chunked_and_a_single_state_raises(monkeypatch):
    spec = source_spec()
    modes = tuple(sorted(spec.arms + spec.alt))
    monkeypatch.setattr(engine, "TERM_BUDGET", 5)
    with pytest.raises(engine.BatchSplit) as split:
        engine.source(spec, modes, [0.1] * 7)
    assert [g.tolist() for g in split.value.groups] == [[0, 1], [2, 3], [4, 5], [6]]
    monkeypatch.setattr(engine, "TERM_BUDGET", 1)
    with pytest.raises(CapExceededError, match="budget"):
        engine.source(spec, modes, 0.1)


SCALES = np.array([1.0, 0.5j, 0.3 - 0.2j, -1e-3, 2.0 + 1.0j, 1e-160])


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_batch_kernels_match_each_member_bit_for_bit(convention):
    rng = np.random.default_rng(17)
    rule = HeraldRule([({"x", "y"}, 1)])
    for _ in range(40):
        state, aoms = random_circuit(rng, convention)
        ops = [make_aom(spec) for spec in aoms]
        start = as_arrays(state)
        amp = start.amp * SCALES[:, None]
        high = max(m[1] for op in ops for m in op.modes if m[0] == "x")

        def evolve(single: ArrayState):
            for op in ops:
                single = engine.lift(single, op)
            single, survived = engine.filter_rows(single, "x", high)
            branches = [(o.label, o.probability, o.rows) for o in _herald(single, rule)]
            return single, survived, branches

        def members(index):
            batch, survived, branches = evolve(ArrayState(start.modes, start.occ, amp[index]))
            return [(batch.occ.tolist(), bits(batch.amp[i]), survived[i],
                     [(label, p[i], None if r is None else (r.occ.tolist(), bits(r.amp[i])))
                      for label, p, r in branches])
                    for i in range(len(index))]

        def alone(i):
            single, survived, branches = evolve(ArrayState(start.modes, start.occ, amp[i]))
            return (single.occ.tolist(), bits(single.amp), survived,
                    [(label, p, None if r is None else (r.occ.tolist(), bits(r.amp)))
                     for label, p, r in branches])

        got = engine.in_batches(members, len(SCALES))
        for i, member in enumerate(got):
            assert repr(member) == repr(alone(i))
