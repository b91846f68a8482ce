"""Element layer: AOM maps, bosonic lift, sources, filters, bandwidth check."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aomsim import (
    AomSpec,
    BandwidthCheck,
    Convention,
    FilterSpec,
    SourceSpec,
    SpecInvariantError,
    StateVector,
    FockKet,
    UnexpectedFrequencyError,
    ZeroStateError,
    apply_element,
    apply_filter,
    check_bandwidth,
    ket,
    make_aom,
    make_source,
    normalize,
)
from aomsim.states import as_state
from conftest import M, max_amplitude_dev, random_state

SQ2 = 1 / math.sqrt(2)


def swap_aom1(convention=Convention.UNITARY) -> AomSpec:
    return AomSpec("AOM1", M("2", 1), M("3", 0), "T1", "T1'", phase_convention=convention)


def ghz_aom(convention=Convention.UNITARY) -> AomSpec:
    return AomSpec("AOM", M("2", 1), M("3", 0), "T'", "T", phase_convention=convention)


# ---------------------------------------------------------------- make_aom


def test_unitary_map_high_input():
    # high-frequency input: transmitted keeps its bin, diffracted drops one
    out = apply_element(ket([M("2", 1)]), make_aom(swap_aom1()))
    assert out.amplitude(FockKet({M("T1", 1): 1})) == pytest.approx(SQ2, abs=1e-15)
    assert out.amplitude(FockKet({M("T1'", 0): 1})) == pytest.approx(1j * SQ2, abs=1e-15)


def test_unitary_map_low_input():
    out = apply_element(ket([M("3", 0)]), make_aom(swap_aom1()))
    assert out.amplitude(FockKet({M("T1", 1): 1})) == pytest.approx(1j * SQ2, abs=1e-15)
    assert out.amplitude(FockKet({M("T1'", 0): 1})) == pytest.approx(SQ2, abs=1e-15)


def test_literal_map_is_all_positive():
    out = apply_element(ket([M("2", 1)]), make_aom(swap_aom1(Convention.PAPER_LITERAL)))
    assert out.amplitude(FockKet({M("T1", 1): 1})) == pytest.approx(SQ2, abs=1e-15)
    assert out.amplitude(FockKet({M("T1'", 0): 1})) == pytest.approx(SQ2, abs=1e-15)
    assert out.non_unitary


def test_unitary_single_photon_matrix_is_isometry():
    op = make_aom(AomSpec("A", M("a", 2), M("b", 0), "x", "y", shift=2, t_amp=0.37))
    cols = []
    for mode in (M("a", 2), M("b", 0)):
        images = dict((m, w) for m, w in op.images[mode])
        cols.append([images.get(out, 0j) for out in op.output_modes])
    mat = np.array(cols).T
    assert np.allclose(mat.conj().T @ mat, np.eye(2), atol=1e-12)


def test_aom_spec_invariants():
    with pytest.raises(SpecInvariantError):  # bins incompatible with shift
        AomSpec("A", M("a", 1), M("b", 1), "x", "y")
    with pytest.raises(SpecInvariantError):  # paths must be distinct
        AomSpec("A", M("a", 1), M("b", 0), "a", "y")
    with pytest.raises(SpecInvariantError):  # t out of range
        AomSpec("A", M("a", 1), M("b", 0), "x", "y", t_amp=1.0)
    with pytest.raises(SpecInvariantError):
        AomSpec("A", M("a", 1), M("b", 0), "x", "y", shift=0)


def test_aom_custom_shift_moves_bins():
    op = make_aom(AomSpec("A", M("a", 3), M("b", 1), "x", "y", shift=2))
    out = apply_element(ket([M("a", 3)]), op)
    assert set(out.terms) == {FockKet({M("x", 3): 1}), FockKet({M("y", 1): 1})}


# ---------------------------------------------------------------- apply_element


def retained_two_term_state() -> StateVector:
    # the two cross-source terms that survive the both-fire/both-dark cut,
    # as printed (amplitude 1/2 each, squared norm 1/2)
    return StateVector({
        FockKet({M("1", 0): 1, M("2", 1): 1, M("3'", 1): 1, M("4'", 0): 1}): 0.5,
        FockKet({M("1'", 1): 1, M("2'", 0): 1, M("3", 0): 1, M("4", 1): 1}): 0.5,
    })


def test_ghz_aom_expands_retained_terms():
    # each retained term splits over the detector paths: four kets of
    # magnitude 1/(2 sqrt(2)), with T carrying bin 0 and T' bin 1
    out = apply_element(retained_two_term_state(), make_aom(ghz_aom()))
    assert len(out.terms) == 4
    for k, amp in out.terms.items():
        assert abs(amp) == pytest.approx(1 / (2 * math.sqrt(2)), abs=1e-15)
        assert k.count_on_paths({"T"}) + k.count_on_paths({"T'"}) == 1
    expected_detector_modes = {M("T", 0), M("T'", 1)}
    for k in out.terms:
        assert set(k.modes()) & {M("T", 1), M("T'", 0)} == set()
        assert set(k.modes()) & expected_detector_modes


def test_ghz_aom_literal_magnitudes_on_normalized_input():
    out = apply_element(normalize(retained_two_term_state()),
                        make_aom(ghz_aom(Convention.PAPER_LITERAL)))
    assert out.non_unitary
    assert out.norm() == pytest.approx(1.0, abs=1e-12)
    for amp in out.terms.values():
        assert amp.real == pytest.approx(0.5, abs=1e-15)
        assert amp.imag == 0.0


def test_apply_element_passthrough_when_inputs_unoccupied():
    s = ket([M("z", 0), M("w", 1)])
    out = apply_element(s, make_aom(swap_aom1()))
    assert max_amplitude_dev(out, s) == 0.0


def test_apply_element_rejects_wrong_bin_on_input_path():
    with pytest.raises(UnexpectedFrequencyError):
        apply_element(ket([M("2", 0)]), make_aom(swap_aom1()))


def test_apply_element_preserves_photon_number_per_ket():
    rng = np.random.default_rng(7)
    op = make_aom(swap_aom1())
    s = random_state(rng, [M("2", 1), M("3", 0), M("z", 2)])
    out = apply_element(s, op)
    assert {k.total_photons() for k in out.terms} <= s.photon_numbers()


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_unitary_lift_preserves_norm(seed):
    rng = np.random.default_rng(seed)
    t = float(rng.uniform(0.1, 0.9))
    op = make_aom(AomSpec("A", M("a", 1), M("b", 0), "x", "y", t_amp=t))
    s = random_state(rng, [M("a", 1), M("b", 0), M("s", 0), M("s", 1)])
    out = apply_element(s, op)
    assert out.norm() == pytest.approx(1.0, abs=1e-12)
    assert not out.non_unitary


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_literal_lift_always_flags_and_renormalizes(seed):
    rng = np.random.default_rng(seed)
    op = make_aom(AomSpec("A", M("a", 1), M("b", 0), "x", "y",
                          phase_convention=Convention.PAPER_LITERAL))
    s = random_state(rng, [M("a", 1), M("b", 0), M("s", 0)])
    out = apply_element(s, op)
    assert out.non_unitary
    assert out.norm() == pytest.approx(1.0, abs=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_output_bins_align_with_output_paths(seed):
    # after an AOM no ket may hold (output_x, low bin) or (output_y, high bin)
    rng = np.random.default_rng(seed)
    op = make_aom(AomSpec("A", M("a", 1), M("b", 0), "x", "y",
                          t_amp=float(rng.uniform(0.1, 0.9))))
    s = random_state(rng, [M("a", 1), M("b", 0)])
    out = apply_element(s, op)
    for k in out.terms:
        assert k.count(M("x", 0)) == 0
        assert k.count(M("y", 1)) == 0


def test_hom_interference_kills_coincidence_for_balanced_unitary_aom():
    op = make_aom(AomSpec("A", M("a", 1), M("b", 0), "x", "y"))
    out = apply_element(ket([M("a", 1), M("b", 0)]), op)
    assert abs(out.amplitude(FockKet({M("x", 1): 1, M("y", 0): 1}))) < 1e-15
    assert abs(out.amplitude(FockKet({M("x", 1): 2}))) == pytest.approx(SQ2, abs=1e-12)
    assert abs(out.amplitude(FockKet({M("y", 0): 2}))) == pytest.approx(SQ2, abs=1e-12)


# ---------------------------------------------------------------- make_source


def balanced_source(name="S1") -> SourceSpec:
    return SourceSpec(name, arms=(M("1", 0), M("2", 1)), alt=(M("1'", 1), M("2'", 0)))


def test_source_balanced_coefficients():
    s = make_source(balanced_source())
    assert s.amplitude(FockKet({M("1", 0): 1, M("2", 1): 1})) == pytest.approx(SQ2)
    assert s.amplitude(FockKet({M("1'", 1): 1, M("2'", 0): 1})) == pytest.approx(SQ2)
    assert s.norm() == pytest.approx(1.0, abs=1e-15)


def test_source_alpha_zero_is_product_arm_pair():
    spec = SourceSpec("S", arms=(M("1", 0), M("2", 1)), alt=(M("1'", 1), M("2'", 0)), alpha=0.0)
    s = make_source(spec)
    assert s.terms == {FockKet({M("1", 0): 1, M("2", 1): 1}): 1.0 + 0j}


def test_source_alpha_pi_third():
    spec = SourceSpec("S", arms=(M("1", 0), M("2", 1)), alt=(M("1'", 1), M("2'", 0)),
                      alpha=math.pi / 3)
    s = make_source(spec)
    assert s.amplitude(FockKet({M("1", 0): 1, M("2", 1): 1})) == pytest.approx(0.5)
    assert s.amplitude(FockKet({M("1'", 1): 1, M("2'", 0): 1})) == pytest.approx(math.sqrt(3) / 2)


def test_source_honours_alpha_without_modes():
    s = make_source(balanced_source(), alpha=0.3)
    assert s.terms == {FockKet({M("1", 0): 1, M("2", 1): 1}): complex(math.cos(0.3)),
                       FockKet({M("1'", 1): 1, M("2'", 0): 1}): complex(math.sin(0.3))}


def test_source_rows_cover_the_given_modes_and_the_source_own():
    spec = balanced_source()
    given = (M("0", 0), M("1", 0), M("3", 2))  # lacks three of the source's four modes
    rows = make_source(spec, given, 0.3)
    assert rows.modes == tuple(sorted({*given, *spec.arms, *spec.alt}))
    assert as_state(rows) == make_source(spec, alpha=0.3)


def test_source_requires_distinct_paths():
    with pytest.raises(SpecInvariantError):
        SourceSpec("S", arms=(M("1", 0), M("2", 1)), alt=(M("1", 1), M("2'", 0)))


# ---------------------------------------------------------------- apply_filter


def test_filter_passes_aligned_state():
    s = normalize(StateVector({
        FockKet({M("T", 0): 1, M("z", 0): 1}): 1.0,
        FockKet({M("T", 0): 1, M("z", 1): 1}): 1.0,
    }))
    out, prob = apply_filter(s, FilterSpec("T", pass_bin=0))
    assert prob == pytest.approx(1.0, abs=1e-12)
    assert max_amplitude_dev(out, s) < 1e-15


def test_filter_blocks_everything_raises():
    s = ket([M("T", 0)])
    with pytest.raises(ZeroStateError):
        apply_filter(s, FilterSpec("T", pass_bin=1))


def test_filter_projects_mixed_bins():
    s = normalize(StateVector({
        FockKet({M("T", 0): 1, M("z", 0): 1}): 1.0,
        FockKet({M("T", 1): 1, M("z", 1): 1}): 1.0,
    }))
    out, prob = apply_filter(s, FilterSpec("T", pass_bin=0))
    assert prob == pytest.approx(0.5, abs=1e-12)
    assert out.terms == {FockKet({M("T", 0): 1, M("z", 0): 1}): pytest.approx(1.0)}


def test_filter_lets_kets_without_the_path_pass():
    # projector semantics: a term with no photon on the filtered path survives
    s = normalize(StateVector({
        FockKet({M("T", 0): 1, M("z", 0): 1}): 1.0,
        FockKet({M("T'", 1): 1, M("z", 1): 1}): 1.0,
    }))
    out, prob = apply_filter(s, FilterSpec("T", pass_bin=0))
    assert prob == pytest.approx(1.0, abs=1e-12)
    assert len(out.terms) == 2


def test_filters_on_evolved_detector_state_are_transparent():
    # after the AOM the detector paths only carry their aligned bins, so the
    # two narrow filters remove nothing; the 50% reduction happens only at
    # the heralding step
    evolved = apply_element(normalize(retained_two_term_state()), make_aom(ghz_aom()))
    out, prob_t = apply_filter(evolved, FilterSpec("T", pass_bin=0))
    out, prob_tp = apply_filter(out, FilterSpec("T'", pass_bin=1))
    assert prob_t == pytest.approx(1.0, abs=1e-12)
    assert prob_tp == pytest.approx(1.0, abs=1e-12)
    assert max_amplitude_dev(out, evolved) < 1e-15


def test_filter_sigma_must_be_positive():
    with pytest.raises(SpecInvariantError):
        FilterSpec("T", pass_bin=0, sigma=0.0)


# ---------------------------------------------------------------- check_bandwidth


@pytest.mark.parametrize("pump,sigmas,expected", [
    (2.0, (1.0, 1.0), True),
    (1.0, (2.0, 1.0), False),
    (1.0, (1.0, 1.0), True),  # boundary: >= passes
    (0.5, (), True),
])
def test_check_bandwidth(pump, sigmas, expected):
    assert check_bandwidth(BandwidthCheck(pump, sigmas)) is expected


# ---------------------------------------------------------------- non-finite numbers


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_source_rejects_non_finite_alpha(alpha):
    with pytest.raises(SpecInvariantError):
        SourceSpec("S", arms=(M("1", 0), M("2", 1)), alt=(M("1'", 1), M("2'", 0)), alpha=alpha)


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -1.0])
def test_filter_rejects_non_finite_or_negative_sigma(sigma):
    with pytest.raises(SpecInvariantError):
        FilterSpec("T", pass_bin=0, sigma=sigma)


@pytest.mark.parametrize("pump,sigmas", [
    (math.nan, ()), (math.inf, ()), (0.0, ()), (1.0, (math.nan,)), (1.0, (1.0, -2.0)),
])
def test_bandwidth_check_rejects_bad_bandwidths(pump, sigmas):
    with pytest.raises(SpecInvariantError):
        BandwidthCheck(pump, sigmas)


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_aom_rejects_non_finite_t(t):
    with pytest.raises(SpecInvariantError):
        AomSpec("A", M("2", 1), M("3", 0), "x", "y", t_amp=t)
