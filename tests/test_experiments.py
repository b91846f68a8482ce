"""Heralding primitives and the two built-in experiments."""

import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aomsim import (
    Convention,
    FactorizationError,
    FockKet,
    HeraldRule,
    SimulatorError,
    SourceSpec,
    StateVector,
    ZeroStateError,
    engine,
    apply_element,
    enumerate_outcomes,
    entanglement_entropy,
    ket,
    make_aom,
    make_source,
    normalize,
    post_select,
    restrict_to_paths,
    run_ghz,
    run_swap,
    tensor,
)
from aomsim.dsl import Pipeline, compile_circuit, parse
from aomsim.engine import ArrayState
from aomsim.experiments import _combined_accepted, _herald
from aomsim.states import as_arrays, kets, reduced_density
from conftest import (GHZ_BRANCH_A, GHZ_BRANCH_B, M, ghz_aom, random_circuit, random_state,
                      swap_aoms, swap_sources)

SQ2 = 1 / math.sqrt(2)


def swap_evolved(convention=Convention.UNITARY, alpha=math.pi / 4) -> StateVector:
    s1, s2 = swap_sources(alpha)
    state = tensor(make_source(s1), make_source(s2))
    for spec in swap_aoms(convention):
        state = apply_element(state, make_aom(spec))
    return state


def ghz_evolved(convention=Convention.UNITARY, alpha=math.pi / 4) -> StateVector:
    s1, s2 = swap_sources(alpha)
    state = tensor(make_source(s1), make_source(s2))
    return apply_element(state, make_aom(ghz_aom(convention)))


# ---------------------------------------------------------------- post_select


def test_swap_herald_accepts_half():
    rule = HeraldRule([({"T1", "T1'"}, 1), ({"T2", "T2'"}, 1)])
    for convention in Convention:
        outcomes = post_select(swap_evolved(convention), rule)
        accepted = [o for o in outcomes if o.accepted]
        assert len(accepted) == 4
        assert sum(o.probability for o in accepted) == pytest.approx(0.5, abs=1e-12)
        total = sum(o.probability for o in outcomes)
        assert total == pytest.approx(1.0, abs=1e-9)


def test_inner_photon_herald_on_raw_product():
    # before any AOM: exactly one photon across the inner beams 2 and 3
    # keeps the two cross-source terms and drops the same-source ones
    s1, s2 = swap_sources(math.pi / 4)
    prod = tensor(make_source(s1), make_source(s2))
    outcomes = post_select(prod, HeraldRule([({"2", "3"}, 1)]))
    accepted = [o for o in outcomes if o.accepted]
    assert len(accepted) == 2
    assert sum(o.probability for o in accepted) == pytest.approx(0.5, abs=1e-12)
    labels = {o.label for o in accepted}
    assert labels == {"2=0,3=1", "2=1,3=0"}


def test_impossible_rule_discards_everything():
    s = ket([M("a", 0)])
    outcomes = post_select(s, HeraldRule([({"a"}, 5)]))
    assert [o for o in outcomes if o.accepted] == []
    assert outcomes[-1].label == "discard"
    assert outcomes[-1].probability == pytest.approx(1.0)


def test_discard_bucket_state_is_normalized_or_absent():
    outcomes = post_select(swap_evolved(), HeraldRule([({"T1", "T1'"}, 1), ({"T2", "T2'"}, 1)]))
    bucket = outcomes[-1]
    assert bucket.label == "discard"
    assert bucket.conditional_state.norm() == pytest.approx(1.0, abs=1e-12)
    # nothing rejected: bucket has zero probability and no state
    all_pass = post_select(ket([M("a", 0)]), HeraldRule([({"a"}, 1)]))
    assert all_pass[-1].probability == 0.0
    assert all_pass[-1].conditional_state is None


def test_a_zero_state_is_not_heralded():
    """A state with no terms has no outcome probabilities to sum to 1, one state or a batch."""
    rule = HeraldRule([({"a"}, 1)])
    with pytest.raises(ZeroStateError, match="cannot herald a zero state"):
        post_select(StateVector({}), rule)
    batch = ArrayState((M("a", 0),), np.zeros((0, 1), dtype=np.int8), np.zeros((2, 0)))
    with pytest.raises(ZeroStateError, match="cannot herald a zero state"):
        _herald(batch, rule)


def test_herald_rule_validation():
    with pytest.raises(ValueError):
        HeraldRule([({"a"}, 1), ({"a", "b"}, 1)])  # overlapping clauses
    with pytest.raises(ValueError):
        HeraldRule([({"a"}, -1)])
    with pytest.raises(ValueError):
        HeraldRule([(set(), 1)])


@pytest.mark.parametrize("clause, message", [
    (("T1", 1), "a herald clause must be a collection of path names, not the string 'T1'"),
    (({"a", ""}, 1), "a herald clause holds '', which is not a non-empty path name"),
    ((("a", 2), 1), "a herald clause holds 2, which is not a non-empty path name"),
    ((("a",), 1.5), "herald counts must be integers, not 1.5"),
    ((("a",), "1"), "herald counts must be integers, not '1'"),
])
def test_herald_rule_takes_path_names_and_integer_counts(clause, message):
    """A str clause was read as its characters, and a count went through ``int()``."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        HeraldRule([clause])
    assert HeraldRule([(("a",), np.int64(1))]).clauses == ((frozenset({"a"}), 1),)


def test_outcomes_and_restriction_take_path_names():
    """``"T1'"`` once counted paths T, 1 and ' and kept T1'; a set names the path."""
    s = run_swap().outcomes[0].conditional_state
    assert enumerate_outcomes(s, {"T1'"}) == {1: pytest.approx(1.0)}
    for call in (enumerate_outcomes, restrict_to_paths):
        with pytest.raises(ValueError, match="collection of path names"):
            call(s, "T1'")
        with pytest.raises(ValueError, match="not a non-empty path name"):
            call(as_arrays(s), [None])


@pytest.mark.parametrize("paths, twice", [(("a", "a"), "a"), (["b", "a", "b"], "b"),
                                          (("a", "b", "a", "b"), "a")])
def test_herald_rule_rejects_a_clause_that_names_a_path_twice(paths, twice):
    """A clause is a set of paths: a sequence that repeats one would merge it silently."""
    with pytest.raises(ValueError, match=f"herald clause names path '{twice}' twice"):
        HeraldRule([(paths, 1)])
    assert HeraldRule([(set(paths), 1)]).clauses == ((frozenset(paths), 1),)
    assert HeraldRule([(tuple(dict.fromkeys(paths)), 1)]).clauses == ((frozenset(paths), 1),)


@given(st.integers(0, 2**32 - 1), st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_post_select_probabilities_always_complete(seed, na, nb):
    """Every herald has one shape: the accepted patterns in pattern order, then one discard
    bucket, whose state is None exactly when no row is rejected; one state or a batch."""
    rng = np.random.default_rng(seed)
    s = random_state(rng, [M("a", 0), M("a", 1), M("b", 0), M("c", 2)])
    rows = as_arrays(s)
    batch = ArrayState(rows.modes, rows.occ, np.stack([rows.amp, -1j * rows.amp[::-1]]))
    for rule in (HeraldRule([({"a"}, na), ({"b"}, nb)]),
                 HeraldRule([({"a", "c"}, na), ({"b"}, nb)])):  # several patterns can pass
        paths = rule.paths()
        patterns = {tuple(k.count_on_paths({p}) for p in paths) for k in s.terms}
        passes = {p: all(sum(n for path, n in zip(paths, p) if path in clause) == count
                          for clause, count in rule.clauses) for p in patterns}
        want = [tuple(zip(paths, p)) for p in sorted(p for p in patterns if passes[p])]
        rejected = not all(passes.values())

        def assert_one_shape(outcomes):
            *kept, discard = outcomes
            assert [o.pattern for o in kept] == want
            assert all(o.accepted for o in kept)
            assert (discard.label, discard.pattern, discard.accepted) == ("discard", None, False)
            assert (discard.rows is None) is not rejected

        outcomes = post_select(s, rule)
        assert sum(o.probability for o in outcomes) == pytest.approx(1.0, abs=1e-9)
        assert_one_shape(outcomes)
        branches = _herald(batch, rule)
        for member in range(2):
            assert sum(o.probability[member] for o in branches) == pytest.approx(1.0, abs=1e-9)
        assert_one_shape(branches)


def assert_rows_in_ket_order(outcomes):
    for o in outcomes:
        if o.rows is not None:
            assert engine.ket_order(o.rows.occ).tolist() == list(range(len(o.rows.occ))), o.label


@given(seed=st.integers(0, 2**32 - 1), convention=st.sampled_from(list(Convention)),
       alphas=st.lists(st.floats(0.1, 1.4), min_size=2, max_size=2))
@settings(max_examples=60, deadline=None)
def test_every_outcome_lists_its_rows_in_ket_order(seed, convention, alphas):
    """The herald orders each outcome's rows, the discard bucket's too, and so does a run
    without a herald: a run report lists the rows as the outcomes hold them."""
    state, aoms = random_circuit(np.random.default_rng(seed), convention)
    rule = HeraldRule([({aoms[-1].output_x, aoms[-1].output_y}, 1)])
    for spec in aoms:
        state = apply_element(state, make_aom(spec))
    final = as_arrays(state)
    assert_rows_in_ket_order(post_select(final, rule))
    batch = ArrayState(final.modes, final.occ, np.stack([final.amp, -1j * final.amp[::-1]]))
    assert_rows_in_ket_order(_herald(batch, rule))

    # the same AOMs fed by sources: one on the first AOM's inputs, one on a fresh path
    sources = [SourceSpec("S1", (aoms[0].input_a, aoms[0].input_b), (M("p", 0), M("q", 1)))]
    sources += [SourceSpec("S2", (m, M("e", 0)), (M("f", 1), M("g", 0)))
                for a in aoms[1:] for m in (a.input_a, a.input_b) if m.path == "c"]
    for herald in (rule, None):
        pipeline = Pipeline(sources, aoms, herald, [], None)
        for alpha in (alphas[0], alphas):
            assert_rows_in_ket_order(pipeline.run(alpha=alpha).outcomes)


# ---------------------------------------------------------------- enumerate_outcomes


def test_enumerate_bell_single_side():
    s = normalize(StateVector({
        FockKet({M("a", 0): 1, M("b", 0): 1}): 1.0,
        FockKet({M("a", 1): 1, M("b", 1): 1}): 1.0,
    }))
    assert enumerate_outcomes(s, {"a"}) == {1: pytest.approx(1.0)}


def test_enumerate_counts_over_first_aom_outputs():
    # expansion after both AOMs: both photons in AOM1 with weight 1/4,
    # one photon with weight 1/2, none with weight 1/4
    for convention in Convention:
        dist = enumerate_outcomes(swap_evolved(convention), {"T1", "T1'"})
        assert dist[2] == pytest.approx(0.25, abs=1e-12)
        assert dist[1] == pytest.approx(0.5, abs=1e-12)
        assert dist[0] == pytest.approx(0.25, abs=1e-12)


def test_enumerate_counts_over_detector_paths():
    dist = enumerate_outcomes(ghz_evolved(), {"T", "T'"})
    assert dist[1] == pytest.approx(0.5, abs=1e-12)
    assert dist[0] == pytest.approx(0.25, abs=1e-12)
    assert dist[2] == pytest.approx(0.25, abs=1e-12)


# ---------------------------------------------------------------- restrict_to_paths


def test_restrict_strips_common_detector_factor():
    s = normalize(StateVector({
        FockKet({M("1", 0): 1, M("T", 0): 1}): 1.0,
        FockKet({M("1'", 1): 1, M("T", 0): 1}): 1.0,
    }))
    small = restrict_to_paths(s, {"1", "1'"})
    assert small.norm() == pytest.approx(1.0, abs=1e-12)
    assert set(small.terms) == {FockKet({M("1", 0): 1}), FockKet({M("1'", 1): 1})}


def test_restrict_refuses_entangled_cut():
    s = normalize(StateVector({
        FockKet({M("1", 0): 1, M("T", 0): 1}): 1.0,
        FockKet({M("1'", 1): 1, M("T'", 1): 1}): 1.0,
    }))
    with pytest.raises(ValueError):
        restrict_to_paths(s, {"1", "1'"})
    with pytest.raises(FactorizationError) as exc:  # also a SimulatorError: a runtime error
        restrict_to_paths(as_arrays(s), {"1", "1'"})
    assert isinstance(exc.value, SimulatorError)


def test_restrict_keeps_ket_order_when_a_dropped_column_sorts_last():
    """A row left with no photon on ``keep`` becomes the vacuum, which sorts first."""
    s = StateVector({FockKet({M("z", 0): 1}): 0.6, FockKet({M("p", 0): 1, M("z", 0): 1}): 0.8})
    r = restrict_to_paths(as_arrays(s), {"p"})
    assert r.occ.tolist() == [[0], [1]] and r.amp.tolist() == [0.6, 0.8]
    assert engine.ket_order(r.occ).tolist() == [0, 1]
    assert list(restrict_to_paths(s, {"p"}).terms) == [FockKet(), FockKet({M("p", 0): 1})]
    a = as_arrays(s)
    batch = restrict_to_paths(ArrayState(a.modes, a.occ, np.stack([a.amp, 2 * a.amp])), {"p"})
    assert batch.amp.tolist() == [[0.6, 0.8], [1.2, 1.6]]


# ---------------------------------------------------------------- run_swap


def test_swap_resolved_heralds_are_two_term_and_maximal():
    for convention in Convention:
        result = run_swap(convention=convention)
        accepted = [o for o in result.outcomes if o.accepted]
        assert len(accepted) == 4
        for o in accepted:
            assert o.probability == pytest.approx(0.125, abs=1e-12)
            kets = [k for k, a in o.conditional_state.terms.items() if abs(a) > 1e-12]
            assert len(kets) == 2
            mags = sorted(abs(o.conditional_state.amplitude(k)) for k in kets)
            assert mags[0] == pytest.approx(mags[1], abs=1e-12)
            assert o.metrics["pair_entropy"] == pytest.approx(1.0, abs=1e-9)
            pair = result.pair_states[o.label]
            assert pair.paths() <= {"1", "1'", "4", "4'"}
            for amp in pair.terms.values():
                assert abs(amp) == pytest.approx(SQ2, abs=1e-12)


def test_swap_literal_factorization_and_leftovers():
    result = run_swap(convention=Convention.PAPER_LITERAL)
    assert result.metrics["unresolved_split_entropy"] == pytest.approx(0.0, abs=1e-9)
    assert result.metrics["output_purity"] == pytest.approx(1.0, abs=1e-9)
    assert result.metrics["pair_block_fidelity"] == pytest.approx(1.0, abs=1e-9)
    # the combined accepted state carries eight equal-magnitude kets
    mags = {round(abs(a), 12) for a in result.combined_state.terms.values()}
    assert mags == {round(1 / (2 * math.sqrt(2)), 12)}
    assert len(result.combined_state.terms) == 8


def test_swap_unitary_unresolved_view_is_mixed():
    # without resolving which output fired, the unitary convention leaves the
    # outer pair classically correlated, not entangled
    result = run_swap(convention=Convention.UNITARY)
    assert result.metrics["unresolved_split_entropy"] == pytest.approx(1.0, abs=1e-9)
    assert result.metrics["output_purity"] == pytest.approx(0.5, abs=1e-9)
    assert result.metrics["pair_block_fidelity"] == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("convention", [Convention.UNITARY, Convention.PAPER_LITERAL])
@pytest.mark.parametrize("alpha", [math.pi / 4, 0.6, 1e-200])
def test_swap_fidelity_target_has_the_bits_of_normalize(convention, alpha):
    """The pair-block target, ``1 / sqrt(n)`` on each of its n kets, is ``normalize`` of all ones."""
    result = run_swap(alpha=alpha, convention=convention)
    kets = sorted({k for pair in result.pair_states.values() for k in pair.terms})
    direct = StateVector(dict.fromkeys(kets, 1.0 / math.sqrt(len(kets))))
    normalized = normalize(StateVector(dict.fromkeys(kets, 1.0)))
    assert len(kets) == 2 and sorted(normalized.terms) == kets

    def bits(s: StateVector) -> list:
        return np.array([s.terms[k] for k in kets]).view(np.int64).tolist()

    assert bits(direct) == bits(normalized)
    want = reduced_density(result.combined_state, {"1", "1'", "4", "4'"}).fidelity(normalized)
    assert repr(result.metrics["pair_block_fidelity"]) == repr(want)  # repr round-trips a float


def test_swap_magnitudes_are_convention_independent():
    ru = run_swap(convention=Convention.UNITARY)
    rp = run_swap(convention=Convention.PAPER_LITERAL)
    assert ru.success_probability == pytest.approx(rp.success_probability, abs=1e-9)
    for ou, op_ in zip(ru.outcomes, rp.outcomes):
        assert ou.label == op_.label
        assert ou.probability == pytest.approx(op_.probability, abs=1e-9)
        for key, value in ou.metrics.items():
            assert value == pytest.approx(op_.metrics[key], abs=1e-9)


def combined_by_mask(state: ArrayState, rule: HeraldRule) -> ArrayState | None:
    """The accepted rows of ``state``, renormalized, picked by a mask over its rows' kets."""
    keep = np.array([all(k.count_on_paths(paths) == count for paths, count in rule.clauses)
                     for k in kets(state.modes, state.occ)], dtype=bool)
    if not keep.any():
        return None
    return engine.normalize(ArrayState(state.modes, state.occ.compress(keep, axis=0),
                                       engine.select(state.amp, keep), state.non_unitary))


def test_combined_accepted_rows_match_a_mask_over_the_rows():
    """The herald plan's accepted rows, above the memo bound, and where none is accepted."""
    text = (Path(__file__).resolve().parent / "golden" / "chain3.qc").read_text()
    pipeline = compile_circuit(parse(text))
    state = pipeline.run().final
    assert len(state.amp) > engine._MEMO_ROWS
    got, want = _combined_accepted(state, pipeline.herald), combined_by_mask(state, pipeline.herald)
    assert (len(state.amp), len(got.amp)) == (98, 32)
    assert got.modes == want.modes and got.non_unitary == want.non_unitary
    assert np.array_equal(got.occ, want.occ) and got.amp.tobytes() == want.amp.tobytes()
    never = HeraldRule([({"T0", "T0'"}, 3)])
    assert _combined_accepted(state, never) is None and combined_by_mask(state, never) is None


def test_swap_product_inputs_cannot_entangle():
    result = run_swap(alpha=0.0)
    assert result.success_probability == pytest.approx(0.0, abs=1e-12)
    assert [o for o in result.outcomes if o.accepted] == []
    discard = result.outcomes[-1]
    assert entanglement_entropy(discard.conditional_state, {"1", "1'"}) == pytest.approx(
        0.0, abs=1e-9)


# ---------------------------------------------------------------- run_ghz


def test_ghz_balanced_probabilities_and_fidelity():
    for convention in Convention:
        result = run_ghz(convention=convention)
        assert result.success_probability == pytest.approx(0.5, abs=1e-12)
        assert result.per_detector["T"] == pytest.approx(0.25, abs=1e-12)
        assert result.per_detector["T'"] == pytest.approx(0.25, abs=1e-12)
        for o in result.outcomes:
            if o.accepted:
                assert o.metrics["ghz_fidelity"] == pytest.approx(1.0, abs=1e-9)
        assert result.bandwidth_valid


def test_ghz_conditional_states_match_branch_kets():
    result = run_ghz()
    assert set(result.heralded_states) == {"T", "T'"}
    for three in result.heralded_states.values():
        assert {k.total_photons() for k in three.terms} == {3}
        assert abs(three.amplitude(GHZ_BRANCH_A)) == pytest.approx(SQ2, abs=1e-12)
        assert abs(three.amplitude(GHZ_BRANCH_B)) == pytest.approx(SQ2, abs=1e-12)


def test_evolved_swap_state_carries_cross_term_weights():
    # a middle-term branch of the full expansion: photon 2 transmitted into
    # T1 and photon 3' diffracted into T2', alongside spectators 1 and 4'
    evolved = swap_evolved(Convention.PAPER_LITERAL)
    branch = FockKet({M("1", 0): 1, M("4'", 0): 1, M("T1", 1): 1, M("T2'", 1): 1})
    assert evolved.amplitude(branch) == pytest.approx(0.25, abs=1e-12)
    assert evolved.norm() == pytest.approx(1.0, abs=1e-12)


def test_ghz_alpha_law_crosschecked_by_dense_oracle():
    from aomsim import dense_oracle_apply

    for alpha in (0.3, 0.9, math.pi / 4):
        s1, s2 = swap_sources(alpha)
        prod = tensor(make_source(s1), make_source(s2))
        op = make_aom(ghz_aom())
        evolved = dense_oracle_apply(prod, op)
        outcomes = post_select(evolved, HeraldRule([({"T", "T'"}, 1)]))
        expected = math.sin(alpha) ** 2 * math.cos(alpha) ** 2
        accepted = {o.label: o.probability for o in outcomes if o.accepted}
        assert accepted["T=1,T'=0"] == pytest.approx(expected, abs=1e-12)
        assert accepted["T=0,T'=1"] == pytest.approx(expected, abs=1e-12)


def test_ghz_alpha_law_and_symmetry():
    for alpha in (0.2, 0.5, 1.1):
        result = run_ghz(alpha=alpha)
        expected = math.sin(alpha) ** 2 * math.cos(alpha) ** 2
        assert result.per_detector["T"] == pytest.approx(expected, abs=1e-9)
        assert result.per_detector["T'"] == pytest.approx(expected, abs=1e-9)
        assert result.success_probability == pytest.approx(2 * expected, abs=1e-9)
        mirrored = run_ghz(alpha=math.pi / 2 - alpha)
        assert mirrored.per_detector["T"] == pytest.approx(result.per_detector["T"], abs=1e-9)


def test_circuit_evolution_keeps_photon_number_uniform():
    # states produced by circuit evolution stay in one photon-number sector
    assert swap_evolved().photon_numbers() == {4}
    assert ghz_evolved(Convention.PAPER_LITERAL).photon_numbers() == {4}
    for o in run_swap().outcomes:
        if o.conditional_state is not None:
            assert o.conditional_state.photon_numbers() == {4}


def test_ghz_alpha_zero_never_heralds():
    result = run_ghz(alpha=0.0)
    assert result.success_probability == pytest.approx(0.0, abs=1e-12)
    assert result.per_detector == {"T": 0.0, "T'": 0.0}


SUBNORMAL_ANGLES = [5e-324, 1e-323, 1e-320, 1e-310]


@pytest.mark.parametrize("convention", list(Convention))
def test_ghz_fidelity_is_one_at_subnormal_angles(convention):
    """Heralded states whose norms are subnormal are normalised all the same."""
    for alpha in SUBNORMAL_ANGLES:
        result = run_ghz(alpha, convention)
        fidelities = [result.metrics[f"ghz_fidelity[{d}]"] for d in ("T", "T'")]
        assert fidelities == pytest.approx([1.0, 1.0], abs=1e-12), alpha
    sweep = run_ghz(SUBNORMAL_ANGLES, convention)
    assert sweep.fidelity.tolist() == pytest.approx([1.0] * len(SUBNORMAL_ANGLES), abs=1e-12)


def test_ghz_magnitudes_are_convention_independent():
    for alpha in (0.4, math.pi / 4):
        ru = run_ghz(alpha=alpha, convention=Convention.UNITARY)
        rp = run_ghz(alpha=alpha, convention=Convention.PAPER_LITERAL)
        assert ru.success_probability == pytest.approx(rp.success_probability, abs=1e-9)
        for key in ru.per_detector:
            assert ru.per_detector[key] == pytest.approx(rp.per_detector[key], abs=1e-9)
