"""Norms, herald and photon-count probabilities and GHZ fidelities against a left-to-right
Python sum.

The engine sums squared magnitudes with numpy (``np.hypot``,
``np.float_power``, ``np.bincount``).  The references below do the
same arithmetic one Python float at a time: ``abs(a) ** 2`` added with
``total += x``, so their order is fixed on every Python version (the
built-in ``sum`` compensates from Python 3.12).  Every result must agree
bit for bit, for single states and batches, over lengths from 0 to 5,000
and over subnormal, tiny, huge and signed-zero amplitudes.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aomsim import (AomSpec, Convention, FockKet, HeraldRule, NonFiniteError, engine,
                    enumerate_outcomes, make_aom)
from aomsim.engine import ArrayState
from aomsim.experiments import _herald, _herald_plan
from aomsim.states import StateVector, as_arrays, ghz_fidelity
from conftest import GHZ_BRANCH_A, GHZ_BRANCH_B, M

TINY = float(np.finfo(float).tiny)
LARGEST = float(np.finfo(float).max)

SPECIAL_PARTS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-200, -1e-200, 1e200, -1e200,
                 3e199, 1.0, -0.5]


def square(x: float) -> float:
    """``x ** 2``, or ``inf`` where Python raises ``OverflowError``."""
    try:
        return x ** 2
    except OverflowError:
        return math.inf


def reference_norm(values: list[complex]) -> float:
    """The norm as a Python loop: squares added left to right, rescaled if that under- or overflows.

    The rescale divides by the largest magnitude as ``np.abs`` gives it.
    """
    total = 0.0
    for a in values:
        total += square(abs(a))
    if not TINY <= total <= LARGEST:
        peak = float(np.abs(np.array(values, dtype=complex)).max(initial=0.0))
        if peak > 0.0:
            scaled = 0.0
            for a in values:
                scaled += (abs(a) / peak) ** 2
            return peak * math.sqrt(scaled)
    return math.sqrt(total)


def reference_fidelity(a: complex, b: complex) -> float:
    return square(abs(a) + abs(b)) / 2.0


def bits(x) -> list:
    return np.array(x, dtype=float).view(np.int64).tolist()


def amp_bits(amp: np.ndarray) -> list:
    """The bits of complex amplitudes, real and imaginary parts in turn."""
    return bits(np.ascontiguousarray(amp).view(float))


part = st.one_of(st.sampled_from(SPECIAL_PARTS),
                 st.floats(-1e3, 1e3, allow_subnormal=True),
                 st.floats(-1e-150, 1e-150, allow_subnormal=True))
amplitude = st.builds(complex, part, part)


@given(members=st.lists(st.lists(amplitude, max_size=12), min_size=1, max_size=5),
       length=st.integers(0, 12))
@settings(max_examples=150, deadline=None)
def test_norm_of_states_and_batches_matches_the_loop(members, length):
    rows = [(m + [0j] * length)[:length] for m in members]
    batch = np.array(rows, dtype=complex).reshape(len(rows), length)
    want = [reference_norm(r) for r in rows]
    assert bits(engine.norm(batch)) == bits(want)
    for values, n in zip(rows, want):
        got = engine.norm(np.array(values, dtype=complex))
        assert isinstance(got, float) and bits(got) == bits(n)


@pytest.mark.parametrize("members,length", [(3, 0), (3, 1), (3, 2), (3, 3), (3, 257),
                                            (3, 5000), (20000, 2)])
def test_norm_of_long_states_and_wide_batches_matches_the_loop(members, length):
    """The wide batch meets squares where ``x * x`` and ``x ** 2`` differ in the last bit."""
    rng = np.random.default_rng(length)
    parts = (rng.normal(size=(members, 2, length))
             * 10.0 ** rng.integers(-3, 4, size=(members, 2, length)))
    batch = parts[:, 0] + 1j * parts[:, 1]
    special = np.array(SPECIAL_PARTS)
    batch[1] *= 1e-200  # a member whose squares underflow
    batch[2].real[::7] = special[np.arange(len(batch[2].real[::7])) % len(special)]
    want = [reference_norm(r) for r in batch.tolist()]
    assert bits(engine.norm(batch)) == bits(want)
    assert [bits(engine.norm(member)) for member in batch] == [bits(n) for n in want]


def test_span_norms_of_mixed_scales_in_one_member_match_the_loop():
    """Tiny, huge and normal spans side by side in each member, with empty spans between.

    Each span that under- or overflows is rescaled by its own largest
    magnitude: one member's peak would turn its tiny span's norm to 0.
    """
    sizes = [0, 3, 0, 4, 0, 0, 5, 2, 0]
    scales = np.array([[1.0, 1e-200, 1.0, 1e200, 1.0, 1.0, 1.0, 1e-170, 1.0],
                       [1.0, 1e200, 1.0, 1.0, 1.0, 1.0, 1e-200, 1e150, 1.0],
                       [1.0, 1.0, 1.0, 1e-300, 1.0, 1.0, 1e200, 1.0, 1.0]])
    rng = np.random.default_rng(11)
    terms = sum(sizes)
    amp = (rng.normal(size=(3, terms)) + 1j * rng.normal(size=(3, terms))) * np.repeat(
        scales, sizes, axis=1)
    bounds = np.cumsum([0] + sizes).tolist()
    want = [[reference_norm(row[a:b]) for a, b in zip(bounds, bounds[1:])]
            for row in amp.tolist()]
    assert all(n > 0.0 for row in want for n, size in zip(row, sizes) if size)
    assert bits(engine.span_norms(amp, sizes)) == bits(want)
    assert [bits(engine.span_norms(member, sizes)) for member in amp] == [bits(w) for w in want]


def test_squared_norms_match_python():
    norms = (np.random.default_rng(3).random(100000) * 10.0 ** np.arange(-150, 150, 3)[
        np.arange(100000) % 100]).tolist() + [0.0, 5e-324, 1e-200, 1e150]
    assert bits(engine.squared(norms)) == bits([n ** 2 for n in norms])
    assert [bits(engine.squared(n)) for n in norms[-4:]] == [bits(n ** 2) for n in norms[-4:]]


def random_rows(rng: np.random.Generator, terms: int) -> np.ndarray:
    """``terms`` distinct occupation rows over four modes, one photon per row on x or y."""
    rows = {(int(rng.integers(0, 2)), int(rng.integers(0, 2)), int(rng.integers(0, 3)), i)
            for i in range(terms)}
    return np.array(sorted(rows), dtype=np.int8)


@given(seed=st.integers(0, 2 ** 32 - 1), terms=st.integers(1, 30),
       members=st.integers(1, 4), parts=st.lists(part, min_size=2, max_size=2))
@settings(max_examples=150, deadline=None)
def test_herald_probabilities_match_the_loop(seed, terms, members, parts):
    rng = np.random.default_rng(seed)
    modes = (M("s", 0), M("x", 0), M("y", 0), M("z", 0))
    occ = random_rows(rng, terms)
    amp = rng.normal(size=(members, terms)) + 1j * rng.normal(size=(members, terms))
    amp *= 10.0 ** rng.choice([-200, 0, 150], size=(members, 1))
    amp[:, rng.integers(0, terms)] = complex(*parts) or 1e-200  # rows stay nonzero
    rule = HeraldRule([({"x", "y"}, 1)])
    order, sizes, _ = _herald_plan(occ, modes, rule)  # outcome by outcome, each in ket order
    bounds = np.cumsum([0] + sizes).tolist()
    want = [[square(reference_norm(values[a:b])) for a, b in zip(bounds, bounds[1:])]
            for values in amp[:, order].tolist()]

    def probabilities(index: np.ndarray) -> list:
        """Each member's outcome probabilities, from one herald of the members in ``index``."""
        outcomes = _herald(ArrayState(modes, occ, amp[index]), rule)
        return [[o.probability[i] for o in outcomes] for i in range(len(index))]

    def alone(member: np.ndarray) -> list:
        return [o.probability for o in _herald(ArrayState(modes, occ, member), rule)]

    if all(math.isfinite(p) for member in want for p in member):
        assert bits(engine.in_batches(probabilities, members)) == bits(want)
        assert [bits(alone(member)) for member in amp] == [bits(w) for w in want]
    else:  # a norm past 1.34e154 has no finite square
        with pytest.raises(NonFiniteError):
            engine.in_batches(probabilities, members)


@given(branches=st.lists(st.tuples(amplitude, amplitude), min_size=1, max_size=8),
       absent=st.sampled_from([None, "a", "b"]))
@settings(max_examples=100, deadline=None)
def test_batch_ghz_fidelity_matches_the_loop(branches, absent):
    kets = [k for k, name in ((GHZ_BRANCH_A, "a"), (GHZ_BRANCH_B, "b")) if name != absent]
    single = as_arrays(StateVector({k: 1.0 for k in kets}))
    column = [kets.index(GHZ_BRANCH_A) if GHZ_BRANCH_A in kets else None,
              kets.index(GHZ_BRANCH_B) if GHZ_BRANCH_B in kets else None]
    amp = np.array([[pair[i] for i in range(2) if column[i] is not None] for pair in branches],
                   dtype=complex).reshape(len(branches), len(kets))
    values = amp.tolist()
    want = [reference_fidelity(*(row[c] if c is not None else 0j for c in column))
            for row in values]

    def fidelity(amp: np.ndarray):
        return ghz_fidelity(ArrayState(single.modes, single.occ, amp), GHZ_BRANCH_A, GHZ_BRANCH_B)

    for member, f in zip(amp, want):
        if math.isfinite(f):
            assert bits(fidelity(member)) == bits(f)
        else:  # (1e200 + 1e200) ** 2 overflows, where Python raises
            with pytest.raises(NonFiniteError):
                fidelity(member)
    if all(math.isfinite(f) for f in want):
        assert bits(fidelity(amp)) == bits(want)
    else:
        with pytest.raises(NonFiniteError):
            fidelity(amp)


def test_wide_batch_ghz_fidelity_matches_the_loop():
    single = as_arrays(StateVector({GHZ_BRANCH_A: 1.0, GHZ_BRANCH_B: 1.0}))
    rng = np.random.default_rng(5)
    amp = rng.normal(size=(20000, 2)) + 1j * rng.normal(size=(20000, 2))
    want = [reference_fidelity(a, b) for a, b in amp.tolist()]
    got = ghz_fidelity(ArrayState(single.modes, single.occ, amp), GHZ_BRANCH_A, GHZ_BRANCH_B)
    assert bits(got) == bits(want)


# rows over (a@1, b@0, s@0), in ket order: a|s, a|b, b|s and s twice
SUBNORMAL_MODES = (M("a", 1), M("b", 0), M("s", 0))
SUBNORMAL_OCC = np.array([[1, 0, 1], [1, 1, 0], [0, 1, 1], [0, 0, 2]], dtype=np.int8)
LITERAL_AOM = make_aom(AomSpec("A", M("a", 1), M("b", 0), "x", "y", shift=1, t_amp=0.6,
                               phase_convention=Convention.PAPER_LITERAL))


def normalised_by(caller: str, state: ArrayState) -> list[ArrayState]:
    """The states that ``caller`` normalises from ``state``: one, or one per herald outcome."""
    if caller == "filter_rows":
        return [engine.filter_rows(state, "a", 0)[0]]  # keeps b|s and s twice
    if caller == "lift":
        return [engine.lift(state, LITERAL_AOM)]
    if caller == "normalize":
        return [engine.normalize(state)]
    return [o.rows for o in _herald(state, HeraldRule([({"a"}, 1)])) if o.rows]


@pytest.mark.parametrize("tiny,caller", [
    pytest.param(tiny, caller, id=str(tiny) if caller == "_herald" else f"{caller}-{tiny}")
    for caller in ("filter_rows", "lift", "normalize", "_herald")
    for tiny in (5e-324, 1e-323, 1e-320, 1e-310)])
def test_subnormal_norms_in_a_batch_and_a_herald_normalise(tiny, caller):
    """States and members of subnormal norm come out of norm 1, through every caller of the rescale.

    Huge members are not rescaled, and a batch gets each member's bits.
    """
    amp = np.array([[tiny, tiny * 1j, -tiny, tiny], [1e150, -1e150j, 1e150, 1e150]])
    unit = [engine.norm(member) for member in engine.unit(amp)]
    assert unit == pytest.approx([1.0, 1.0], abs=1e-12)
    for member in amp:  # each state alone
        for state in normalised_by(caller, ArrayState(SUBNORMAL_MODES, SUBNORMAL_OCC, member)):
            assert engine.norm(state.amp) == pytest.approx(1.0, abs=1e-12)

    def members(index: np.ndarray) -> list:
        states = normalised_by(caller, ArrayState(SUBNORMAL_MODES, SUBNORMAL_OCC, amp[index]))
        return [[(s.occ.tobytes(), amp_bits(s.amp[i])) for s in states] for i in range(len(index))]

    alone = [[(s.occ.tobytes(), amp_bits(s.amp)) for s in
              normalised_by(caller, ArrayState(SUBNORMAL_MODES, SUBNORMAL_OCC, member))]
             for member in amp]
    assert engine.in_batches(members, len(amp)) == alone


@pytest.mark.parametrize("values", [[1.5e308, 1.5e308], [math.inf, 1.0], [math.nan, 1.0],
                                    [complex(1.0, math.inf)]])
def test_a_norm_that_is_not_finite_raises(values):
    with pytest.raises(NonFiniteError):
        engine.norm(np.array(values, dtype=complex))
    with pytest.raises(NonFiniteError):
        engine.norm(np.array([[0.6, 0.8], values[:1] * 2], dtype=complex))


def reference_counts(totals: list[int], values: list[complex]) -> dict[int, float]:
    """Photon-count probabilities as a Python loop: each count's squares added in row order."""
    dist: dict[int, float] = {}
    for c, a in zip(totals, values):
        dist[c] = dist.get(c, 0.0) + square(abs(a))
    return dict(sorted(dist.items()))


@given(seed=st.integers(0, 2 ** 32 - 1), terms=st.integers(0, 30),
       values=st.lists(amplitude, min_size=30, max_size=30),
       paths=st.sampled_from([{"x"}, {"x", "y"}, {"s", "z"}, {"s", "x", "y", "z"}, {"q"}]))
@settings(max_examples=150, deadline=None)
def test_count_distribution_matches_the_loop(seed, terms, values, paths):
    modes = (M("s", 0), M("x", 0), M("y", 0), M("z", 0))
    occ = random_rows(np.random.default_rng(seed), terms).reshape(terms, len(modes))
    values = [a if a else complex(-0.0, 5e-324) for a in values[:terms]]  # rows stay nonzero
    state = ArrayState(modes, occ, np.array(values, dtype=complex))
    cols = [j for j, m in enumerate(modes) if m.path in paths]
    want = reference_counts([sum(row[j] for j in cols) for row in occ.tolist()], values)
    if all(math.isfinite(p) for p in want.values()):
        got = engine.count_distribution(state, paths)
        assert list(got) == list(want) and bits(list(got.values())) == bits(list(want.values()))
    else:
        with pytest.raises(NonFiniteError):
            engine.count_distribution(state, paths)


@pytest.mark.parametrize("terms", [8, 9, 257, 5000])
def test_count_distribution_of_long_states_matches_the_loop(terms):
    """Counts with many rows each, where a pairwise or blocked sum would round differently."""
    modes = (M("s", 0), M("x", 0), M("y", 0), M("z", 0))
    occ = np.array(list(np.ndindex(9, 9, 9, 9))[:terms], dtype=np.int8)
    rng = np.random.default_rng(terms)
    amp = rng.normal(size=terms) + 1j * rng.normal(size=terms)
    amp *= 10.0 ** rng.integers(-3, 4, terms)
    for paths in ({"q"}, {"x", "y"}, {"z"}):
        cols = [j for j, m in enumerate(modes) if m.path in paths]
        want = reference_counts(occ[:, cols].sum(axis=1).tolist(), amp.tolist())
        got = engine.count_distribution(ArrayState(modes, occ, amp), paths)
        assert list(got) == list(want) and bits(list(got.values())) == bits(list(want.values()))


def test_a_count_probability_past_the_float_range_raises():
    s = StateVector({FockKet({M("a", 0): 1}): 1e200, FockKet({M("a", 1): 1}): 3e199})
    with pytest.raises(NonFiniteError):
        enumerate_outcomes(s, {"a"})


def test_subnormal_rescale_leaves_no_span_it_sums_underflowed(monkeypatch):
    """Spans [2, 0, 4], the first of subnormal norm: each span over its own norm, bit for bit.

    After the norms of ``amp``, every amplitude ``span_norms`` sums has no
    nonempty span that underflows: the spans that are not lifted must not
    read as underflowed, which would have them summed again.
    """
    tiny = [complex(3e-320, -0.0), complex(-5e-324, 4e-320)]
    rest = [0.5 + 0j, -0.5j, complex(0.3, -0.4), complex(-1e-200, 0.0)]
    up = [complex(a.real * 2.0 ** 600, a.imag * 2.0 ** 600) for a in tiny]
    want = ([a / reference_norm(up) for a in up]
            + [a * complex(1.0 / reference_norm(rest), 0.0) for a in rest])
    amp = np.array(tiny + rest)
    summed = []
    span_norms = engine.span_norms
    monkeypatch.setattr(engine, "span_norms",
                        lambda a, sizes: summed.append(a.tolist()) or span_norms(a, sizes))
    got = engine.unit(amp, [2, 0, 4])
    assert summed[0] == tiny + rest
    for a in summed[1:]:
        assert all(TINY <= sum(square(abs(x)) for x in span) <= LARGEST
                   for span in (a[:2], a[2:]))
    assert amp_bits(got) == amp_bits(np.array(want))
