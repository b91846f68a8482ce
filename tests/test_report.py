"""Run-report encoding against a reference encoder of the report structure.

The CLI encodes every outcome state of a report in one batch over the
engine's rows.  The reference below builds the report as nested Python
objects from each outcome's ``StateVector`` and serializes it with
``json.dumps``; both must give the same bytes, compact and ``--pretty``.
"""

import json

import numpy as np
import pytest

from aomsim import (
    Convention,
    FockKet,
    HeraldOutcome,
    HeraldRule,
    StateVector,
    apply_element,
    compile_circuit,
    make_aom,
    parse,
    post_select,
)
from aomsim import states
from aomsim.cli import _report, _write_json
from aomsim.engine import ArrayState
from aomsim.states import as_arrays, as_state
from conftest import M, random_circuit
from test_golden import chain_circuit


def reference_report(circuit, convention, outcomes, success, metrics, bandwidth_valid, extra):
    def rounded(x):
        if isinstance(x, float):
            return float(f"{x:.12g}")
        if isinstance(x, dict):
            return {k: rounded(v) for k, v in x.items()}
        return [rounded(v) for v in x] if isinstance(x, list) else x

    states = [o.conditional_state for o in outcomes if o.conditional_state is not None]
    return rounded({
        "schema_version": 1, "circuit": circuit, "convention": convention.value,
        "success_probability": success, "metrics": metrics, **extra,
        "flags": {"bandwidth_valid": bandwidth_valid,
                  "non_unitary": any(s.non_unitary for s in states)},
        "outcomes": [{
            "label": o.label, "accepted": o.accepted, "probability": o.probability,
            "metrics": o.metrics,
            "state": None if o.conditional_state is None else [
                {"modes": [[m.path, m.freq_bin, n] for m, n in k.items()],
                 "re": a.real, "im": a.imag}
                for k, a in o.conditional_state.sorted_items()],
        } for o in outcomes],
    })


def assert_encodes_like_reference(outcomes, tmp_path, bandwidth_valid=None, extra=None):
    success = sum(o.probability for o in outcomes if o.accepted)
    args = ("c.qc", Convention.UNITARY, outcomes, success, {"p": success}, bandwidth_valid,
            extra or {})
    want = reference_report(*args)
    for few_rows in (0, 10 ** 9):  # every report through both paths of the encoder
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(states, "_FEW_ROWS", few_rows)
            text = _report(*args)
        assert text == json.dumps(want, sort_keys=True, separators=(",", ":"))
    _write_json(text, tmp_path / "pretty.json", pretty=True)
    assert (tmp_path / "pretty.json").read_text() == json.dumps(want, sort_keys=True,
                                                                 indent=2) + "\n"
    return want


def evolve(state, aoms):
    for spec in aoms:
        state = apply_element(state, make_aom(spec))
    return state


@pytest.mark.parametrize("convention", [Convention.UNITARY, Convention.PAPER_LITERAL])
@pytest.mark.parametrize("seed", range(12))
def test_random_circuit_reports_match_reference(convention, seed, tmp_path):
    rng = np.random.default_rng(seed)
    state, aoms = random_circuit(rng, convention)
    final = evolve(state, aoms)
    outputs = frozenset({aoms[-1].output_x, aoms[-1].output_y})
    for keep_apart in (False, True):
        rule = HeraldRule(((outputs, 1),), discard_complement=not keep_apart)
        outcomes = post_select(final, rule)
        outcomes[0].metrics["entropy[x]"] = 0.1 + seed
        want = assert_encodes_like_reference(outcomes, tmp_path, True, {"alpha": 0.3})
        assert want["flags"]["non_unitary"] is (convention is Convention.PAPER_LITERAL)


def test_report_without_herald_lists_outcome_all(tmp_path):
    text = ("source S1 arms=(1@0,2@1) alt=(1'@1,2'@0) alpha=0.4\n"
            "source S2 arms=(3@0,4@1) alt=(3'@1,4'@0)\n"
            "aom A in=(2@1,3@0) out=(T,T') convention=paper\n")
    outcomes = compile_circuit(parse(text)).run().outcomes
    want = assert_encodes_like_reference(outcomes, tmp_path)
    assert [o["label"] for o in want["outcomes"]] == ["all"]
    assert len(want["outcomes"][0]["state"]) > 1


def test_empty_discard_bucket_has_null_state(tmp_path):
    state, aoms = random_circuit(np.random.default_rng(5))
    outcomes = post_select(evolve(state, aoms), HeraldRule(((frozenset({"nowhere"}), 0),)))
    want = assert_encodes_like_reference(outcomes, tmp_path)
    assert [o["label"] for o in want["outcomes"]] == ["nowhere=0", "discard"]
    assert want["outcomes"][1]["state"] is None


def test_state_with_no_terms_is_an_empty_list(tmp_path):
    state, aoms = random_circuit(np.random.default_rng(2))
    final = evolve(state, aoms)
    rows = as_arrays(final)
    empty = ArrayState(rows.modes, rows.occ[:0], rows.amp[:0])
    outcomes = [HeraldOutcome(label="all", probability=0.0, conditional_state=empty, accepted=True),
                HeraldOutcome(label="rest", probability=1.0, conditional_state=final,
                               accepted=False)]
    want = assert_encodes_like_reference(outcomes, tmp_path)
    assert want["outcomes"][0]["state"] == [] and want["outcomes"][1]["state"]


def test_amplitude_that_underflows_in_the_herald_is_dropped(tmp_path):
    state = StateVector({FockKet({M("a", 0): 1}): 4.0, FockKet({M("a", 1): 1}): 5e-324})
    outcomes = post_select(state, HeraldRule(((frozenset({"a"}), 1),)))
    assert len(outcomes[0].rows.amp) == len(outcomes[0].conditional_state.terms) == 1
    assert_encodes_like_reference(outcomes, tmp_path)


def test_multi_photon_modes_and_negative_zero_amplitudes(tmp_path):
    state = StateVector({
        FockKet({M("a", 1): 3, M("b", 0): 1}): complex(-0.0, 0.6),
        FockKet({M("a", 1): 1, M("b", 0): 3}): complex(0.48, -0.0),
        FockKet({M("b", 0): 2, M("c", -1): 2}): complex(0.0, 0.64),
    })
    heralded = post_select(state, HeraldRule(((frozenset({"b"}), 1),)))
    whole = HeraldOutcome(label="all", probability=1.0, conditional_state=state, accepted=True)
    for outcomes in (heralded, [whole]):
        text = json.dumps(assert_encodes_like_reference(outcomes, tmp_path))
        assert '"re": -0.0' in text and '"re": 0.0' in text
        assert '[["a", 1, 3], ["b", 0, 1]]' in text
    assert '"im": -0.0' in text


def test_outcomes_built_from_state_vectors(tmp_path):
    """A given StateVector is kept and becomes the outcome's rows; columns may differ."""
    a = StateVector({FockKet({M("a", 0): 1, M("b", 1): 1}): 0.6, FockKet({M("a", 1): 2}): -0.8j})
    b = StateVector({FockKet({M("c", -1): 1}): 1.0})
    outcomes = [HeraldOutcome("a", 0.5, a, True),
                HeraldOutcome("c=1", 0.5, conditional_state=b, accepted=False,
                              pattern=(("c", 1),))]
    assert outcomes[0].conditional_state is a
    assert outcomes[0].rows.modes == (M("a", 0), M("a", 1), M("b", 1))
    assert as_state(outcomes[1].rows).terms == b.terms
    assert outcomes[0] == HeraldOutcome("a", 0.5, a, True) != outcomes[1]
    for o in outcomes:
        for name in ("rows", "conditional_state"):
            with pytest.raises(AttributeError):
                setattr(o, name, None)
    assert_encodes_like_reference(outcomes, tmp_path)


def test_vacuum_row_has_no_modes(tmp_path):
    vacuum = StateVector({FockKet(): 0.6, FockKet({M("a", 0): 1}): -0.8j})
    whole = HeraldOutcome(label="all", probability=1.0, conditional_state=vacuum, accepted=True)
    for outcomes in ([whole], post_select(vacuum, HeraldRule(((frozenset({"a"}), 0),)))):
        want = assert_encodes_like_reference(outcomes, tmp_path)
        assert want["outcomes"][0]["state"][0]["modes"] == []


ESCAPED = ('q"uote', "back\\slash", "café")


def test_path_names_that_need_escaping(tmp_path):
    state = StateVector({
        FockKet({M(ESCAPED[0], 0): 1, M(ESCAPED[2], -1): 2}): 0.6,
        FockKet({M(ESCAPED[1], 1): 1, M(ESCAPED[2], -1): 1}): 0.8j,
    })
    for rule in (HeraldRule(((frozenset({ESCAPED[2]}), 1),)),
                 HeraldRule(((frozenset(ESCAPED[:2]), 1),), discard_complement=False)):
        outcomes = post_select(state, rule)
        want = assert_encodes_like_reference(outcomes, tmp_path)
        paths = {m[0] for o in want["outcomes"] if o["state"] for t in o["state"]
                 for m in t["modes"]}
        assert paths <= set(ESCAPED) and len(paths) >= 2


def test_metric_keys_that_need_escaping(tmp_path):
    state, aoms = random_circuit(np.random.default_rng(7))
    outcomes = post_select(evolve(state, aoms), HeraldRule(((frozenset({"x", "y"}), 1),)))
    keys = (*ESCAPED, "50%s", "{0}")  # also what a format template would read
    outcomes[0].metrics.update({key: 0.25 * i for i, key in enumerate(keys)})
    outcomes[-1].metrics[ESCAPED[2]] = -1e-300
    want = assert_encodes_like_reference(outcomes, tmp_path, extra={ESCAPED[1]: 2.0})
    assert sorted(want["outcomes"][0]["metrics"]) == sorted(keys)


@pytest.mark.parametrize("conventions", [["unitary"], ["paper"]])
def test_four_source_chain(conventions, tmp_path):
    outcomes = compile_circuit(parse(chain_circuit(4, conventions))).run().outcomes
    assert sum(len(o.rows.amp) for o in outcomes) == 686
    assert sum(o.accepted for o in outcomes) == 64
    assert_encodes_like_reference(outcomes, tmp_path)
