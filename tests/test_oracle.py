"""Dense enumeration oracle vs the sparse evolution path."""

import itertools
import math

import numpy as np
import pytest

from aomsim import (
    AomSpec,
    CapExceededError,
    Convention,
    ElementOp,
    FockKet,
    StateVector,
    UnexpectedFrequencyError,
    apply_element,
    dense_oracle_apply,
    ket,
    make_aom,
    normalize,
    permanent,
)
from aomsim.oracle import _permanents_stacked
from conftest import M, max_amplitude_dev, random_circuit


def brute_force_permanent(a: np.ndarray) -> complex:
    n = a.shape[0]
    return sum(
        math.prod(a[i, p[i]] for i in range(n))
        for p in itertools.permutations(range(n))
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_permanent_matches_permutation_sum(n):
    rng = np.random.default_rng(n)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    assert permanent(a) == pytest.approx(brute_force_permanent(a), abs=1e-10)


def test_permanent_known_values():
    assert permanent(np.array([[1.0, 2.0], [3.0, 4.0]])) == pytest.approx(10.0)
    assert permanent(np.eye(4)) == pytest.approx(1.0)


@pytest.mark.parametrize("axis", [1, 2])
def test_permanent_with_a_zero_row_or_column_is_exactly_zero(axis):
    """Ryser's signed sum leaves rounding noise on about half of these with a zero column."""
    rng = np.random.default_rng(axis)
    stack = rng.normal(size=(200, 4, 4)) + 1j * rng.normal(size=(200, 4, 4))
    zeroed = stack.copy()
    line = rng.integers(0, 4, 200)
    if axis == 1:
        zeroed[np.arange(200), line, :] = 0.0
    else:
        zeroed[np.arange(200), :, line] = 0.0
    assert [permanent(a) for a in zeroed] == [0j] * 200
    mixed = np.concatenate([zeroed, stack])
    assert _permanents_stacked(mixed).tolist() == [0j] * 200 + [permanent(a) for a in stack]


@pytest.mark.parametrize("convention", list(Convention))
@pytest.mark.parametrize("t_amp", [0.41, 0.6, 0.77])
@pytest.mark.parametrize("photons", [[M("a", 1), M("b", 0), M("s", 0)],
                                     [M("a", 1), M("a", 1), M("s", 0), M("s", 1)]])
def test_oracle_lists_no_ket_the_element_cannot_reach(convention, t_amp, photons):
    """An output ket that no input photon reaches has a zero row or column in its permanent."""
    op = make_aom(AomSpec("A", M("a", 1), M("b", 0), "x", "y", t_amp=t_amp,
                          phase_convention=convention))
    s = ket(photons)
    assert set(dense_oracle_apply(s, op).terms) == set(apply_element(s, op).terms)


def test_identity_element_leaves_state_unchanged():
    s = normalize(StateVector({
        FockKet({M("a", 0): 2, M("b", 1): 1}): 0.6,
        FockKet({M("a", 0): 1, M("c", -1): 1}): 0.8j,
    }))
    op = ElementOp.identity([M("a", 0), M("b", 1), M("c", -1)])
    assert max_amplitude_dev(dense_oracle_apply(s, op), s) < 1e-12
    assert max_amplitude_dev(apply_element(s, op), s) < 1e-12


def test_single_photon_through_balanced_aom_agrees():
    for convention in Convention:
        op = make_aom(AomSpec("A", M("2", 1), M("3", 0), "T1", "T1'",
                              phase_convention=convention))
        for start in (M("2", 1), M("3", 0)):
            s = ket([start])
            assert max_amplitude_dev(apply_element(s, op),
                                     dense_oracle_apply(s, op)) < 1e-12


def test_two_photons_into_balanced_aom_agree_on_all_kets():
    s = ket([M("a", 1), M("b", 0)])
    for convention in Convention:
        op = make_aom(AomSpec("A", M("a", 1), M("b", 0), "x", "y",
                              phase_convention=convention))
        sparse = apply_element(s, op)
        dense = dense_oracle_apply(s, op)
        keys = set(sparse.terms) | set(dense.terms)
        significant = {k for k in keys if abs(sparse.amplitude(k)) > 1e-12}
        expected = {FockKet({M("x", 1): 2}), FockKet({M("y", 0): 2})}
        if convention is Convention.PAPER_LITERAL:
            expected.add(FockKet({M("x", 1): 1, M("y", 0): 1}))
        assert significant == expected
        assert max_amplitude_dev(sparse, dense) < 1e-12


def test_oracle_rejects_wrong_bin_like_sparse_path():
    op = make_aom(AomSpec("A", M("a", 1), M("b", 0), "x", "y"))
    with pytest.raises(UnexpectedFrequencyError):
        dense_oracle_apply(ket([M("a", 0)]), op)


def test_mode_cap_enforced():
    modes = [M(f"p{i}", 0) for i in range(13)]
    s = ket(modes[:1])
    op = ElementOp.identity(modes)
    big = normalize(StateVector({FockKet.from_modes([m]): 1.0 for m in modes}))
    with pytest.raises(CapExceededError):
        dense_oracle_apply(big, op)
    assert dense_oracle_apply(s, op, mode_cap=13) is not None


def test_photon_cap_enforced():
    s = ket([M("a", 0)] * 5)
    op = ElementOp.identity([M("a", 0)])
    with pytest.raises(CapExceededError):
        dense_oracle_apply(s, op)


def test_randomized_circuits_agree_small_batch():
    rng = np.random.default_rng(20260808)
    worst = 0.0
    for _ in range(30):
        state, aoms = random_circuit(rng)
        for spec in aoms:
            op = make_aom(spec)
            sparse = apply_element(state, op)
            dense = dense_oracle_apply(state, op)
            worst = max(worst, max_amplitude_dev(sparse, dense))
            state = sparse
    assert worst <= 1e-12


def test_oracle_handles_mixed_photon_sectors():
    op = make_aom(AomSpec("A", M("a", 1), M("b", 0), "x", "y", t_amp=0.41))
    s = normalize(StateVector({
        FockKet({M("a", 1): 1}): 1.0,
        FockKet({M("a", 1): 2, M("b", 0): 1}): 0.5,
    }))
    assert max_amplitude_dev(apply_element(s, op), dense_oracle_apply(s, op)) < 1e-12
