"""Norms, herald probabilities and GHZ fidelities against an explicit left-to-right Python sum.

The engine sums squared magnitudes with numpy (``np.hypot``,
``np.float_power``, ``np.add.accumulate``).  The references below do the
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

from aomsim import HeraldRule, NonFiniteError, engine
from aomsim.engine import ArrayState
from aomsim.experiments import GHZ_BRANCH_A, GHZ_BRANCH_B, _herald, _herald_plan
from aomsim.states import StateVector, as_arrays, ghz_fidelity
from conftest import M

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
    rule = HeraldRule([({"x", "y"}, 1)], discard_complement=bool(seed % 2))
    order, sizes, _ = _herald_plan(occ, modes, rule)
    bounds = np.cumsum([0] + sizes).tolist()
    want = [[square(reference_norm(values[a:b])) for a, b in zip(bounds, bounds[1:])]
            for values in amp[:, order].tolist()]

    def probabilities(index: np.ndarray) -> list:
        """Each member's outcome probabilities, from one herald of the members in ``index``."""
        branches = _herald(ArrayState(modes, occ, amp[index]), rule)
        return [[p[i] for _, p, _, _, _ in branches] for i in range(len(index))]

    def alone(member: np.ndarray) -> list:
        return [p for _, p, _, _, _ in _herald(ArrayState(modes, occ, member), rule)]

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
    with np.errstate(over="ignore"):  # (1e200 + 1e200) ** 2 is inf, where Python raises
        got = ghz_fidelity(ArrayState(single.modes, single.occ, amp), GHZ_BRANCH_A, GHZ_BRANCH_B)
        alone = [ghz_fidelity(ArrayState(single.modes, single.occ, member),
                              GHZ_BRANCH_A, GHZ_BRANCH_B) for member in amp]
    assert bits(got) == bits(want) and bits(alone) == bits(want)


def test_wide_batch_ghz_fidelity_matches_the_loop():
    single = as_arrays(StateVector({GHZ_BRANCH_A: 1.0, GHZ_BRANCH_B: 1.0}))
    rng = np.random.default_rng(5)
    amp = rng.normal(size=(20000, 2)) + 1j * rng.normal(size=(20000, 2))
    want = [reference_fidelity(a, b) for a, b in amp.tolist()]
    got = ghz_fidelity(ArrayState(single.modes, single.occ, amp), GHZ_BRANCH_A, GHZ_BRANCH_B)
    assert bits(got) == bits(want)


@pytest.mark.parametrize("values", [[1.5e308, 1.5e308], [math.inf, 1.0], [math.nan, 1.0],
                                    [complex(1.0, math.inf)]])
def test_a_norm_that_is_not_finite_raises(values):
    with pytest.raises(NonFiniteError):
        engine.norm(np.array(values, dtype=complex))
    with pytest.raises(NonFiniteError):
        engine.norm(np.array([[0.6, 0.8], values[:1] * 2], dtype=complex))
