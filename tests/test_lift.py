"""The touched-mode lift: spectators on output modes, identity ops, memoised image tables."""

from pathlib import Path

import numpy as np
import pytest

from aomsim import (
    AomSpec,
    Convention,
    ElementOp,
    FockKet,
    ModeLabel,
    StateVector,
    apply_element,
    compile_circuit,
    dense_oracle_apply,
    engine,
    make_aom,
    normalize,
    parse,
)
from conftest import max_amplitude_dev, random_state

M = ModeLabel


def aom(convention=Convention.UNITARY, t=2 ** -0.5):
    # high input a@1 and low input b@0; x carries bin 1, y carries bin 0
    return make_aom(AomSpec("A", M("a", 1), M("b", 0), "x", "y", t_amp=t,
                            phase_convention=convention))


@pytest.mark.parametrize("convention", list(Convention))
def test_image_mode_landing_on_occupied_spectator_matches_oracle(convention):
    # x@1 and y@0 are image modes of the AOM that already hold photons, so the
    # output occupations add up and need (n+m)! weights, not n! m!
    s = normalize(StateVector({
        FockKet({M("a", 1): 1, M("x", 1): 1}): 0.6,
        FockKet({M("b", 0): 1, M("y", 0): 2}): 0.48j,
        FockKet({M("a", 1): 1, M("b", 0): 1, M("x", 1): 1}): -0.64,
    }))
    op = aom(convention)
    assert max_amplitude_dev(apply_element(s, op), dense_oracle_apply(s, op)) < 1e-12


@pytest.mark.parametrize("convention", list(Convention))
def test_untouched_multi_occupied_modes_match_oracle(convention):
    s = normalize(StateVector({
        FockKet({M("a", 1): 2, M("s", 0): 2}): 0.8,
        FockKet({M("a", 1): 1, M("b", 0): 1, M("s", 3): 1, M("r", 0): 1}): 0.6j,
    }))
    op = aom(convention, t=0.3)
    assert max_amplitude_dev(apply_element(s, op), dense_oracle_apply(s, op)) < 1e-12


def test_identity_op_matches_oracle_and_leaves_state_unchanged():
    rng = np.random.default_rng(7)
    modes = [M("a", 0), M("a", 1), M("b", -1), M("c", 2)]
    for _ in range(10):
        s = random_state(rng, modes)
        # the identity touches only some of the occupied modes
        op = ElementOp.identity(modes[:2])
        lifted = apply_element(s, op)
        assert max_amplitude_dev(lifted, dense_oracle_apply(s, op)) < 1e-12
        assert max_amplitude_dev(lifted, s) < 1e-12


def test_alternating_ops_never_share_cached_images():
    s = normalize(StateVector({
        FockKet({M("a", 1): 1, M("b", 0): 1, M("s", 0): 1}): 1.0,
        FockKet({M("a", 1): 2, M("s", 1): 1}): 0.5j,
        FockKet({M("b", 0): 1, M("s", 0): 1}): -0.7,
    }))
    ops = [aom(Convention.UNITARY), aom(Convention.PAPER_LITERAL), aom(t=0.3),
           aom(Convention.PAPER_LITERAL, t=0.8)]
    expected = [dense_oracle_apply(s, op) for op in ops]
    engine._image_table.cache_clear()
    for _ in range(3):
        for op, want in zip(ops, expected):
            assert max_amplitude_dev(apply_element(s, op), want) < 1e-12
    # one table per op and distinct sub-occupation of its modes: a@1 b@0 x@1 y@0
    # reads (1,1,0,0), (2,0,0,0) and (0,1,0,0) in the three kets
    assert engine._image_table.cache_info().currsize == 3 * len(ops)


def test_alternating_convention_override_reproduces_fresh_runs():
    text = (Path(__file__).resolve().parent.parent / "circuits" / "swap.qc").read_text()
    pipeline = compile_circuit(parse(text))
    fresh = {c: compile_circuit(parse(text)).run(convention_override=c) for c in Convention}
    for convention in [Convention.PAPER_LITERAL, Convention.UNITARY] * 2:
        got = pipeline.run(convention_override=convention)
        assert max_amplitude_dev(got.evolved_state, fresh[convention].evolved_state) == 0.0
