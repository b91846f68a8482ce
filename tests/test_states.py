"""State layer: kets, tensor products, reductions, entropy, GHZ fidelity."""

import cmath
import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aomsim import (
    FockKet,
    ModeLabel,
    NonFiniteError,
    OverlappingPathsError,
    StateVector,
    ZeroStateError,
    entanglement_entropy,
    ghz_fidelity,
    inner,
    ket,
    normalize,
    reduced_density,
    tensor,
)
from aomsim.engine import ArrayState
from aomsim.states import as_arrays, as_state
from conftest import M, max_amplitude_dev, random_state

SQ2 = 1 / math.sqrt(2)


def bell(pa="a", pb="b") -> StateVector:
    return normalize(StateVector({
        FockKet({M(pa, 0): 1, M(pb, 0): 1}): 1.0,
        FockKet({M(pa, 1): 1, M(pb, 1): 1}): 1.0,
    }))


def biphoton(alpha, arms, alt) -> StateVector:
    return StateVector({
        FockKet.from_modes(arms): math.cos(alpha),
        FockKet.from_modes(alt): math.sin(alpha),
    })


# ---------------------------------------------------------------- ket


def test_ket_single_mode():
    s = ket([M("p1", 0)])
    assert s.terms == {FockKet({M("p1", 0): 1}): 1.0 + 0j}
    assert s.norm() == 1.0


def test_ket_repeated_mode_counts_occupation():
    s = ket([M("p1", 0), M("p1", 0)])
    (k, amp), = s.terms.items()
    assert k.count(M("p1", 0)) == 2
    assert amp == 1.0 + 0j


def test_ket_two_paths():
    s = ket([M("p1", 0), M("p2", 1)])
    (k, _), = s.terms.items()
    assert k.total_photons() == 2
    assert k.count(M("p2", 1)) == 1


def test_ket_permutation_invariant():
    modes = [M("b", 1), M("a", 0), M("a", 0), M("c", -2)]
    assert ket(modes).terms == ket(list(reversed(modes))).terms


def test_mode_label_ordering_and_validation():
    assert M("a", 1) < M("a", 2) < M("b", -5)
    modes = [M("b", 0), M("a", 2), M("a'", -1), M("a", -3), M("B", 5), M("a", 0)]
    assert [str(m) for m in sorted(modes)] == ["B@5", "a@-3", "a@0", "a@2", "a'@-1", "b@0"]
    with pytest.raises(ValueError):
        M("", 0)


def test_mode_label_bin_is_an_integer():
    """Frequency equality is exact integer equality, so a bin is an integer or raises."""
    for bad in (1.5, 1.0, "1", None):
        with pytest.raises(ValueError, match="frequency bin must be an integer"):
            M("a", bad)
    m = M("a", np.int64(-2))
    assert m == ("a", -2) and type(m.freq_bin) is int and str(m) == "a@-2"


def test_mode_label_is_the_tuple_path_bin():
    m = M("a", 1)
    assert m == ("a", 1) and hash(m) == hash(("a", 1))
    assert (m.path, m.freq_bin) == ("a", 1)
    assert M(path="a", freq_bin=1) == m
    assert repr(m) == "ModeLabel(path='a', freq_bin=1)"
    with pytest.raises(AttributeError):
        m.path = "b"


def test_mode_label_survives_copy_and_pickle():
    m = M("T1'", -2)
    for clone in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
        assert clone == m and type(clone) is ModeLabel
        assert str(clone) == "T1'@-2"


def test_fock_ket_canonical_and_immutable():
    k = FockKet({M("a", 0): 1, M("b", 1): 2})
    assert k == FockKet([(M("b", 1), 2), (M("a", 0), 1)])
    assert FockKet({M("a", 0): 0}) == FockKet()
    with pytest.raises(AttributeError):
        k.pairs = ()
    with pytest.raises(ValueError):
        FockKet({M("a", 0): -1})


# ---------------------------------------------------------------- tensor


def test_tensor_two_singles():
    s = tensor(ket([M("p", 0)]), ket([M("q", 0)]))
    assert s.terms == {FockKet({M("p", 0): 1, M("q", 0): 1}): 1.0 + 0j}


def test_tensor_balanced_sources_gives_four_equal_terms():
    phi = biphoton(math.pi / 4, (M("1", 0), M("2", 1)), (M("1'", 1), M("2'", 0)))
    psi = biphoton(math.pi / 4, (M("3", 0), M("4", 1)), (M("3'", 1), M("4'", 0)))
    prod = tensor(phi, psi)
    assert len(prod.terms) == 4
    for amp in prod.terms.values():
        assert amp == pytest.approx(0.5, abs=1e-12)
    # hand expansion of one representative term
    k = FockKet({M("1", 0): 1, M("2", 1): 1, M("3'", 1): 1, M("4'", 0): 1})
    assert prod.amplitude(k) == pytest.approx(math.cos(math.pi / 4) * math.sin(math.pi / 4))


def test_tensor_general_alpha_amplitudes():
    # expected amplitudes computed by expanding the product by hand
    alpha = 0.7
    c, s = math.cos(alpha), math.sin(alpha)
    phi = biphoton(alpha, (M("1", 0), M("2", 1)), (M("1'", 1), M("2'", 0)))
    psi = biphoton(alpha, (M("3", 0), M("4", 1)), (M("3'", 1), M("4'", 0)))
    prod = tensor(phi, psi)
    expected = {
        FockKet({M("1", 0): 1, M("2", 1): 1, M("3", 0): 1, M("4", 1): 1}): c * c,
        FockKet({M("1", 0): 1, M("2", 1): 1, M("3'", 1): 1, M("4'", 0): 1}): c * s,
        FockKet({M("1'", 1): 1, M("2'", 0): 1, M("3", 0): 1, M("4", 1): 1}): s * c,
        FockKet({M("1'", 1): 1, M("2'", 0): 1, M("3'", 1): 1, M("4'", 0): 1}): s * s,
    }
    assert max_amplitude_dev(prod, StateVector(expected)) < 1e-15


def test_tensor_rejects_shared_paths():
    with pytest.raises(OverlappingPathsError):
        tensor(ket([M("p", 0)]), ket([M("p", 1)]))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_tensor_norm_is_product_of_norms(seed):
    rng = np.random.default_rng(seed)
    a = random_state(rng, [M("a", 0), M("a", 1), M("b", 0)]).scaled(0.7)
    b = random_state(rng, [M("c", 0), M("c", 1)]).scaled(1.3)
    assert tensor(a, b).norm() == pytest.approx(a.norm() * b.norm(), abs=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_inner_factorizes_over_tensor(seed):
    rng = np.random.default_rng(seed)
    left = [M("a", 0), M("a", 1)]
    right = [M("b", 0), M("b", 1)]
    a, c = random_state(rng, left), random_state(rng, left)
    b, d = random_state(rng, right), random_state(rng, right)
    lhs = inner(tensor(a, b), tensor(c, d))
    rhs = inner(a, c) * inner(b, d)
    assert abs(lhs - rhs) < 1e-12


# ---------------------------------------------------------------- inner


def test_inner_normalized_self_overlap():
    s = bell()
    assert inner(s, s) == pytest.approx(1.0, abs=1e-12)


def test_inner_orthogonal_bins():
    assert inner(ket([M("p", 0)]), ket([M("p", 1)])) == 0


def test_inner_against_biphoton_component():
    phi = biphoton(math.pi / 4, (M("1", 0), M("2", 1)), (M("1'", 1), M("2'", 0)))
    first = ket([M("1", 0), M("2", 1)])
    assert inner(phi, first) == pytest.approx(SQ2, abs=1e-15)


def test_inner_conjugate_linear_in_first_argument():
    a = ket([M("p", 0)]).scaled(1j)
    b = ket([M("p", 0)]).scaled(2.0)
    assert inner(a, b) == pytest.approx(-2j)
    assert inner(b, a) == pytest.approx(2j)


# ---------------------------------------------------------------- normalize


def test_normalize_rescales():
    k = FockKet({M("p", 0): 1})
    assert normalize(StateVector({k: 2.0})).terms[k] == pytest.approx(1.0)


def test_normalize_two_equal_halves():
    # two terms of amplitude 1/2 have squared norm 1/2; they normalize to 1/sqrt(2)
    s = StateVector({
        FockKet({M("1", 0): 1, M("4'", 0): 1}): 0.5,
        FockKet({M("1'", 1): 1, M("4", 1): 1}): 0.5,
    })
    for amp in normalize(s).terms.values():
        assert abs(amp) == pytest.approx(SQ2, abs=1e-15)


def test_normalize_idempotent():
    s = bell()
    assert max_amplitude_dev(normalize(s), s) < 1e-15


def test_normalize_zero_state_raises():
    with pytest.raises(ZeroStateError):
        normalize(StateVector({}))


@pytest.mark.parametrize("scale", [1e-200, 1e-320])
def test_norm_and_normalize_of_a_tiny_nonzero_state(scale):
    """Squares that underflow neither zero the norm nor fail the normalization."""
    k = FockKet({M("a", 0): 1})
    s = StateVector({k: scale})
    assert s.norm() == scale
    assert normalize(s).terms == {k: 1.0}
    pair = StateVector({k: 3 * scale, FockKet({M("b", 0): 1}): 4j * scale})
    assert pair.norm() == pytest.approx(5 * scale, rel=1e-3 if scale < 1e-308 else 1e-15)
    assert abs(normalize(pair).amplitude(k)) == pytest.approx(0.6, rel=1e-3)


@pytest.mark.parametrize("terms", [2, 3])
@pytest.mark.parametrize("scale", [5e-324, 1e-323, 1e-320, 1e-310])
def test_normalize_a_state_whose_norm_is_subnormal(scale, terms):
    """A subnormal norm has lost significant bits; the state still normalises to norm 1."""
    s = StateVector({FockKet({M(p, 0): 1}): scale for p in "abc"[:terms]})
    assert normalize(s).norm() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("scale", [1e200, 1e300, 3e307])
def test_norm_and_normalize_of_a_huge_state(scale):
    """Squares that overflow neither fail the norm nor the normalization."""
    k = FockKet({M("a", 0): 1})
    s = StateVector({k: scale})
    assert s.norm() == scale
    assert normalize(s).terms == {k: 1.0}
    pair = StateVector({k: 3 * scale, FockKet({M("b", 0): 1}): 4j * scale})
    assert pair.norm() == pytest.approx(5 * scale, rel=1e-15)
    assert abs(normalize(pair).amplitude(k)) == pytest.approx(0.6, rel=1e-15)


@pytest.mark.parametrize("amp", [1.5e308, math.inf])
def test_norm_past_the_largest_float_raises(amp):
    s = StateVector({FockKet({M("a", 0): 1}): amp, FockKet({M("a", 1): 1}): amp})
    with pytest.raises(NonFiniteError):
        s.norm()
    with pytest.raises(NonFiniteError):
        normalize(s)


@pytest.mark.parametrize("nan", [math.nan, complex(math.nan, 1.0), complex(0.0, math.nan)])
def test_a_nan_amplitude_raises_and_is_not_dropped(nan):
    a, b = FockKet({M("a", 0): 1}), FockKet({M("b", 0): 1})
    with pytest.raises(NonFiniteError):
        StateVector({a: nan, b: 1.0})
    with pytest.raises(NonFiniteError):
        normalize(StateVector({a: nan}))


def test_as_state_goes_through_the_state_vector_constructor():
    """A zero row is dropped, and a NaN row raises where it was once dropped silently."""
    modes = (M("a", 0), M("b", 0))
    occ = np.array([[1, 0], [0, 1]], dtype=np.int8)
    kept = as_state(ArrayState(modes, occ, np.array([0.0, 1.0])))
    assert kept.terms == {FockKet({M("b", 0): 1}): 1.0 + 0j}
    with pytest.raises(NonFiniteError, match="NaN"):
        as_state(ArrayState(modes, occ, np.array([complex(math.nan, 0.0), 1.0])))


def test_exact_zeros_are_still_dropped():
    a, b = FockKet({M("a", 0): 1}), FockKet({M("b", 0): 1})
    s = StateVector({a: complex(-0.0, 0.0), b: 5e-324, FockKet(): complex(0.0, -5e-324)})
    assert list(s.terms) == [b, FockKet()]


# ---------------------------------------------------------------- reductions


def test_reduced_density_bell_is_maximally_mixed():
    rho = reduced_density(bell(), {"a"})
    assert rho.matrix.shape == (2, 2)
    assert np.allclose(rho.matrix, np.eye(2) / 2, atol=1e-12)


def test_reduced_density_product_state_is_pure():
    s = tensor(bell("a", "b"), ket([M("c", 0)]))
    rho = reduced_density(s, {"c"})
    assert rho.purity() == pytest.approx(1.0, abs=1e-12)
    rho2 = reduced_density(s, {"a", "b"})
    assert rho2.purity() == pytest.approx(1.0, abs=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_reduced_density_is_valid_density_operator(seed):
    rng = np.random.default_rng(seed)
    s = random_state(rng, [M("a", 0), M("a", 1), M("b", 0), M("c", 1)])
    rho = reduced_density(s, {"a", "c"})
    assert np.allclose(rho.matrix, rho.matrix.conj().T, atol=1e-12)
    assert rho.trace() == pytest.approx(1.0, abs=1e-12)
    lam = rho.eigenvalues()
    assert lam.min() >= -1e-12
    assert lam.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("call", [reduced_density, entanglement_entropy])
@pytest.mark.parametrize("paths, bad", [("a'", "string \"a'\""), ({"a", ""}, "''"),
                                        (["a", 3], "3")])
def test_a_path_set_is_a_collection_of_names(call, paths, bad):
    """A str would be read by ``in`` as its substrings: "a'" would keep path a."""
    s = tensor(bell("a", "a'"), ket([M("b", 0)]))
    with pytest.raises(ValueError, match=bad):
        call(s, paths)
    with pytest.raises(ValueError, match=bad):
        call([], paths)


def test_reduced_density_zero_state_raises():
    with pytest.raises(ZeroStateError):
        reduced_density(StateVector({}), {"a"})


# ---------------------------------------------------------------- entropy


def test_entropy_product_state_is_zero():
    s = tensor(ket([M("a", 0)]), ket([M("b", 1)]))
    assert entanglement_entropy(s, {"a"}) == pytest.approx(0.0, abs=1e-12)


def test_entropy_bell_is_one_ebit():
    assert entanglement_entropy(bell(), {"a"}) == pytest.approx(1.0, abs=1e-12)


def test_entropy_ghz_branch_split():
    # three-photon two-branch superposition: tracing any single path leaves
    # two equal Schmidt weights, hence exactly one ebit
    s = normalize(StateVector({
        FockKet({M("1", 0): 1, M("3'", 1): 1, M("4'", 0): 1}): 1.0,
        FockKet({M("1'", 1): 1, M("2'", 0): 1, M("4", 1): 1}): 1.0,
    }))
    assert entanglement_entropy(s, {"1"}) == pytest.approx(1.0, abs=1e-9)
    assert entanglement_entropy(s, {"3'", "4'"}) == pytest.approx(1.0, abs=1e-9)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_entropy_symmetric_under_complement(seed):
    rng = np.random.default_rng(seed)
    s = random_state(rng, [M("a", 0), M("a", 1), M("b", 0), M("c", 1), M("d", 0)])
    partition = {"a", "d"}
    complement = set(p for p in s.paths() if p not in partition)
    if not complement:
        return
    e1 = entanglement_entropy(s, partition)
    e2 = entanglement_entropy(s, complement)
    assert e1 == pytest.approx(e2, abs=1e-9)


# ---------------------------------------------------------------- ghz fidelity

A3 = FockKet({M("1", 0): 1, M("3'", 1): 1, M("4'", 0): 1})
B3 = FockKet({M("1'", 1): 1, M("2'", 0): 1, M("4", 1): 1})


def _grid_fidelity(s: StateVector, a: FockKet, b: FockKet, points: int = 720) -> float:
    """Independent oracle: brute-force maximization over the relative phase."""
    best = 0.0
    for j in range(points):
        phi = 2 * math.pi * j / points
        target = StateVector({a: SQ2, b: cmath.exp(1j * phi) * SQ2})
        best = max(best, abs(inner(target, s)) ** 2)
    return best


def test_ghz_fidelity_perfect_match():
    s = normalize(StateVector({A3: 1.0, B3: 1.0}))
    assert ghz_fidelity(s, A3, B3) == pytest.approx(1.0, abs=1e-12)


def test_ghz_fidelity_phase_insensitive():
    s = normalize(StateVector({A3: 1.0, B3: 1j}))
    assert ghz_fidelity(s, A3, B3) == pytest.approx(1.0, abs=1e-12)


def test_ghz_fidelity_single_branch():
    assert ghz_fidelity(StateVector({A3: 1.0}), A3, B3) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("amp", [1e160, 7e153, math.inf, math.nan])
def test_ghz_fidelity_that_is_not_finite_raises(amp):
    """Past about 1.34e154 the closed form's square overflows; no warning, a typed error."""
    assert ghz_fidelity(StateVector({A3: 6e153, B3: 6e153}), A3, B3) == (1.2e154) ** 2 / 2.0
    with pytest.raises(NonFiniteError):
        ghz_fidelity(StateVector({A3: amp, B3: 7e153}), A3, B3)
    rows = as_arrays(StateVector({A3: 1.0, B3: 1.0}))
    batch = ArrayState(rows.modes, rows.occ, np.array([[0.6, 0.8], [amp, 7e153]], dtype=complex))
    with pytest.raises(NonFiniteError):
        ghz_fidelity(batch, A3, B3)


def test_ghz_fidelity_equal_branches_required():
    with pytest.raises(ValueError):
        ghz_fidelity(StateVector({A3: 1.0}), A3, A3)


@pytest.mark.parametrize("mag_a,mag_b,grid_step", [
    (SQ2, SQ2, 0), (0.6, 0.8, 180), (0.6, 0.8, 90), (0.28, 0.96, 371), (1.0, 0.0, 45),
])
def test_ghz_fidelity_matches_grid_search(mag_a, mag_b, grid_step):
    # optimum phases sit on the 720-point grid, so the brute-force scan is exact
    phase = cmath.exp(2j * math.pi * grid_step / 720)
    s = StateVector({A3: mag_a, B3: mag_b * phase})
    closed = ghz_fidelity(s, A3, B3)
    assert closed == pytest.approx(_grid_fidelity(s, A3, B3), abs=1e-9)


@given(st.floats(0, 2 * math.pi), st.floats(0.0, 1.0))
@settings(max_examples=40, deadline=None)
def test_ghz_fidelity_upper_bounds_grid_search(phase, weight):
    # for arbitrary phases the grid can only undershoot the analytic maximum
    mag_b = math.sqrt(1 - weight**2)
    s = StateVector({A3: weight, B3: mag_b * cmath.exp(1j * phase)})
    if not s.terms:
        return
    closed = ghz_fidelity(s, A3, B3)
    assert closed >= _grid_fidelity(s, A3, B3, points=64) - 1e-12
