"""Turnkey pipelines: heralded entanglement swap and three-photon GHZ scheme.

Both experiments start from two biphoton sources, route the inner photon
pairs through AOMs, and condition on number-resolving photon-count patterns
over the AOM output paths.  :func:`post_select` is the shared heralding
primitive: it partitions a state by the per-path photon-count pattern over
the paths a rule mentions, accepts the patterns whose per-clause totals match
exactly, and lumps everything else into one discard bucket.  It groups the
rows of an array state (:mod:`aomsim.engine`), lists them outcome by outcome,
and normalizes every outcome in one pass over those rows; no outcome builds
its kets until its conditional state is read.  The metrics (entropies,
fidelities, the swap's combined accepted state) run on the same rows.

The GHZ scheme is evaluated for a batch of source angles at once: every
angle shares the occupations and row plans, and only the amplitudes carry
one row per angle.  :func:`run_ghz` of one angle is that evaluation without
the batch axis; given a list of angles, it reads each angle's
probabilities and fidelity straight from the batch (:class:`GhzSweep`).

The swap layout (two AOMs) projects the two untouched outer photons onto a
maximally frequency-entangled pair whenever exactly one photon exits each
AOM; the single-AOM layout heralds a three-photon GHZ-class state on exactly
one detector firing.  Success probabilities, conditional states, entropies,
and GHZ fidelities are reported per herald.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import engine
from .engine import ArrayState
from .elements import (
    AomSpec,
    BandwidthCheck,
    Convention,
    FilterSpec,
    SourceSpec,
    apply_element,
    apply_filter,
    check_bandwidth,
    circuit_modes,
    make_aom,
    make_source,
)
from .states import (
    FockKet,
    ModeLabel,
    StateVector,
    as_arrays,
    as_state,
    entanglement_entropy,
    normalize,
    reduced_density,
    ghz_fidelity,
    shared_columns,
    tensor,
)

__all__ = [
    "HeraldRule",
    "HeraldOutcome",
    "SwapResult",
    "GhzResult",
    "GhzSweep",
    "post_select",
    "enumerate_outcomes",
    "restrict_to_paths",
    "run_swap",
    "run_ghz",
    "swap_herald_rule",
    "ghz_herald_rule",
    "GHZ_BRANCH_A",
    "GHZ_BRANCH_B",
]

_m = ModeLabel

# herald branches of the three-photon GHZ state: the two ways the undetected
# photons can be correlated once one AOM output fires
GHZ_BRANCH_A = FockKet({_m("1", 0): 1, _m("3'", 1): 1, _m("4'", 0): 1})
GHZ_BRANCH_B = FockKet({_m("1'", 1): 1, _m("2'", 0): 1, _m("4", 1): 1})
GHZ_BRANCH_PATHS = frozenset(m.path for m in GHZ_BRANCH_A.modes() + GHZ_BRANCH_B.modes())
GHZ_FILTERS = (FilterSpec("T", pass_bin=0, sigma=1.0), FilterSpec("T'", pass_bin=1, sigma=1.0))

SWAP_PAIR_PATHS = frozenset({"1", "1'", "4", "4'"})
SWAP_OUTPUT_PATHS = frozenset({"T1", "T1'", "T2", "T2'"})


@dataclass(frozen=True)
class HeraldRule:
    """Exact photon-count requirements over disjoint path sets.

    A pattern satisfies the rule iff every clause's photon total over its
    path set equals the required count exactly (number-resolving semantics).
    With ``discard_complement`` (the default) all rejected patterns are
    reported as a single bucket; otherwise each keeps its own outcome.
    """

    clauses: tuple[tuple[frozenset[str], int], ...]
    discard_complement: bool = True

    def __init__(self, clauses, discard_complement: bool = True):
        normed = tuple((frozenset(paths), int(count)) for paths, count in clauses)
        seen: set[str] = set()
        for paths, count in normed:
            if count < 0:
                raise ValueError("herald counts must be non-negative")
            if not paths:
                raise ValueError("herald clauses need at least one path")
            if seen & paths:
                raise ValueError("herald clauses must use pairwise-disjoint path sets")
            seen |= paths
        object.__setattr__(self, "clauses", normed)
        object.__setattr__(self, "discard_complement", bool(discard_complement))

    def paths(self) -> tuple[str, ...]:
        return tuple(sorted(set().union(*(paths for paths, _ in self.clauses))))


@dataclass(init=False)
class HeraldOutcome:
    """One heralded branch: its probability and post-herald state.

    The conditional state may be given as a :class:`StateVector` or as the
    engine's rows (an :class:`ArrayState`), and is ``None`` for an empty
    discard bucket.  It is held once, as rows: ``rows`` is that
    :class:`ArrayState`, and ``conditional_state`` its :class:`StateVector`,
    built on first read unless it was given.  Both are read-only.
    """

    label: str
    probability: float
    accepted: bool
    pattern: tuple[tuple[str, int], ...] | None
    metrics: dict[str, float]

    def __init__(self, label: str, probability: float,
                 conditional_state: StateVector | ArrayState | None, accepted: bool,
                 pattern: tuple[tuple[str, int], ...] | None = None,
                 metrics: dict[str, float] | None = None):
        self.label, self.probability = label, probability
        self.accepted, self.pattern = accepted, pattern
        self.metrics = {} if metrics is None else metrics
        self._rows = None if conditional_state is None else as_arrays(conditional_state)
        self._state = conditional_state if isinstance(conditional_state, StateVector) else None

    @property
    def rows(self) -> ArrayState | None:
        return self._rows

    @property
    def conditional_state(self) -> StateVector | None:
        if self._state is None and self._rows is not None:
            self._state = as_state(self._rows)
        return self._state

    def __eq__(self, other) -> bool:
        if not isinstance(other, HeraldOutcome):
            return NotImplemented
        fields = ("label", "probability", "conditional_state", "accepted", "pattern", "metrics")
        return all(getattr(self, f) == getattr(other, f) for f in fields)


@dataclass
class SwapResult:
    alpha: float
    convention: Convention
    outcomes: list[HeraldOutcome]
    success_probability: float
    combined_state: StateVector | None
    pair_states: dict[str, StateVector]
    metrics: dict[str, float]


@dataclass
class GhzResult:
    alpha: float
    convention: Convention
    outcomes: list[HeraldOutcome]
    success_probability: float
    per_detector: dict[str, float]
    heralded_states: dict[str, StateVector]
    metrics: dict[str, float]
    bandwidth_valid: bool


def _pattern_labels(paths: tuple[str, ...], patterns: list[list[int]]) -> list[str]:
    """``path=count,...`` for each pattern, formatted by one template."""
    template = ",".join(p.replace("{", "{{").replace("}", "}}") + "={}" for p in paths)
    return [template.format(*pattern) for pattern in patterns]


@engine.memo_small
def _herald_plan(occ, modes: tuple, rule: HeraldRule):
    """Row order and outcomes of a herald: ``(order, sizes, [(label, pattern, accepted)])``.

    ``order`` lists the state's rows outcome by outcome, in ket order within
    each, and ``sizes`` counts them.  The discard bucket comes last, made of
    the rejected patterns in pattern order, unless the rule keeps them apart.
    """
    paths = rule.paths()
    order, patterns, sizes, accepted = engine.herald_groups(occ, modes, paths, rule.clauses)
    shown = accepted if rule.discard_complement else np.ones(len(sizes), dtype=bool)
    groups = np.flatnonzero(accepted).tolist() + np.flatnonzero(~accepted & shown).tolist()
    rank = np.full(len(sizes), len(groups))  # the discard bucket's groups rank last
    rank[groups] = np.arange(len(groups))
    order = order[np.argsort(np.repeat(rank, sizes), kind="stable")]
    shown_patterns = patterns[groups].tolist()
    outcomes = [(label, tuple(zip(paths, pattern)), is_accepted) for label, pattern, is_accepted
                in zip(_pattern_labels(paths, shown_patterns), shown_patterns,
                       accepted[groups].tolist())]
    counts = sizes[groups].tolist()
    if rule.discard_complement:
        outcomes.append(("discard", None, False))
        counts.append(int(sizes[~accepted].sum()))
    return order, counts, outcomes


def _herald(state: ArrayState, rule: HeraldRule) -> list[tuple]:
    """The branches of a herald, each normalized on its own, for a state or a batch.

    One ``(label, probability, rows, accepted, pattern)`` per outcome, the
    arguments of :class:`HeraldOutcome`: ``probability`` is a list with one
    per member for a batch, and ``rows`` the normalized conditional state
    (None for an empty discard bucket).  The outcomes' norms are taken at
    once (:func:`aomsim.engine.span_norms`), each over its own rows, and
    every row is rescaled in one product.
    """
    order, sizes, plan = _herald_plan(state.occ, state.modes, rule)
    occ, amp = state.occ[order], engine.select(state.amp, order)
    bounds = np.cumsum([0] + sizes).tolist()
    norms = engine.span_norms(amp, sizes)
    unit = engine.unit(amp, np.repeat(norms, sizes, axis=-1))  # by each row's norm
    if np.count_nonzero(unit) < unit.size:  # a tiny amplitude underflowed to 0
        keep = engine.kept_rows(unit)
        unit, occ = engine.select(unit, keep), occ.compress(keep, axis=0)
        bounds = np.cumsum([0] + keep.tolist())[bounds].tolist()
    branches = []
    for (label, pattern, accepted), p, size, a, b in zip(
            plan, engine.squared(norms.T), sizes, bounds, bounds[1:]):
        rows = None
        if pattern is not None or size:  # an empty discard bucket has no state
            rows = ArrayState(state.modes, occ[a:b], engine.select(unit, slice(a, b)),
                              state.non_unitary)
        branches.append((label, p, rows, accepted, pattern))
    return branches


def post_select(s: StateVector | ArrayState, rule: HeraldRule) -> list[HeraldOutcome]:
    """Split a normalized state by photon-count pattern over the rule paths.

    Returns one outcome per satisfying pattern (sorted by pattern) followed
    by the rejected remainder; probabilities over the full list sum to 1.
    Each outcome's terms are in ket order, and the discard bucket holds the
    rejected patterns in pattern order.  Takes one state, not a batch.
    """
    state = as_arrays(s)
    if state.amp.ndim > 1:
        raise ValueError("post_select takes one state, not a batch")
    return [HeraldOutcome(*branch) for branch in _herald(state, rule)]


def enumerate_outcomes(s: StateVector, paths: set[str] | frozenset[str]) -> dict[int, float]:
    """Distribution of the total photon count over a path set."""
    return engine.count_distribution(as_arrays(s), sorted(paths))


@engine.memo_small
def _restriction(occ, modes: tuple, keep: frozenset):
    """Columns on the paths ``keep`` and their occupations, once the rest is one common factor."""
    kept = [m[0] in keep for m in modes]
    rest = occ[:, [not k for k in kept]]
    if (rest != rest[:1]).any():
        raise ValueError("state does not factor across the requested path split")
    return tuple(m for m, k in zip(modes, kept) if k), occ[:, kept]


def restrict_to_paths(s: StateVector | ArrayState, keep: set[str] | frozenset[str]
                      ) -> StateVector | ArrayState:
    """Drop modes outside ``keep`` when they form one common factor ket.

    Valid only when every term carries the identical occupation pattern on
    the dropped paths (e.g. a resolved herald); raises ``ValueError``
    otherwise, because the restriction would not be a pure state.  An
    :class:`ArrayState` (also a batch) keeps its amplitudes and the columns
    on ``keep``; a :class:`StateVector` is restricted on its rows.
    """
    if isinstance(s, StateVector):
        return as_state(restrict_to_paths(as_arrays(s), keep))
    modes, occ = _restriction(s.occ, s.modes, frozenset(keep))
    return ArrayState(modes, occ, s.amp, s.non_unitary)


def _combined_accepted(outcomes: list[HeraldOutcome]) -> ArrayState | None:
    """Coherent sum of the accepted components, renormalized, on their rows.

    The outcomes of one herald hold distinct kets, so the sum lists their
    rows one after another, each amplitude weighted by the square root of
    its outcome's probability as Python multiplies a complex by a float.
    """
    accepted = [o for o in outcomes if o.accepted and o.rows is not None]
    if not accepted:
        return None
    parts = shared_columns([o.rows for o in accepted])
    weights = np.repeat([math.sqrt(o.probability) for o in accepted], [len(p.amp) for p in parts])
    amp = 0j + engine._cmul(np.concatenate([p.amp for p in parts]), weights + 0j)
    keep = engine.kept_rows(amp)
    if not keep.any():  # no accepted component, or its weight underflowed to 0
        return None
    occ = np.concatenate([p.occ for p in parts]).compress(keep, axis=0)
    return engine.normalize(ArrayState(parts[0].modes, occ, amp[keep],
                                       any(p.non_unitary for p in parts)))


def swap_sources(alpha: float) -> tuple[SourceSpec, SourceSpec]:
    s1 = SourceSpec("S1", arms=(_m("1", 0), _m("2", 1)), alt=(_m("1'", 1), _m("2'", 0)), alpha=alpha)
    s2 = SourceSpec("S2", arms=(_m("3", 0), _m("4", 1)), alt=(_m("3'", 1), _m("4'", 0)), alpha=alpha)
    return s1, s2


def swap_herald_rule() -> HeraldRule:
    return HeraldRule(
        clauses=((frozenset({"T1", "T1'"}), 1), (frozenset({"T2", "T2'"}), 1))
    )


def ghz_herald_rule() -> HeraldRule:
    return HeraldRule(clauses=((frozenset({"T", "T'"}), 1),))


def run_swap(alpha: float = math.pi / 4, convention: Convention = Convention.UNITARY) -> SwapResult:
    """Entanglement swap: two sources, two AOMs, one photon per output pair.

    The four resolved heralds (one specific output path per AOM) each carry
    the conditional state of the outer photons and its entanglement entropy
    across the {1, 1'} | {4, 4'} cut.  The combined (pattern-blind) accepted
    state is also reported with metrics probing whether it factorizes into
    outer-pair times AOM-output parts, which holds for the all-positive
    literal convention but not for the unitary one.
    """
    s1, s2 = swap_sources(alpha)
    aom1 = AomSpec("AOM1", _m("2", 1), _m("3", 0), output_x="T1", output_y="T1'",
                   phase_convention=convention)
    aom2 = AomSpec("AOM2", _m("3'", 1), _m("2'", 0), output_x="T2'", output_y="T2",
                   phase_convention=convention)
    ops = (make_aom(aom1), make_aom(aom2))
    modes = circuit_modes((s1, s2), ops)
    state = tensor(make_source(s1, modes), make_source(s2, modes))
    for op in ops:
        state = apply_element(state, op)
    outcomes = post_select(state, swap_herald_rule())
    accepted = [o for o in outcomes if o.accepted]

    success = 0.0
    for o in accepted:
        success += o.probability
    # the detector modes factor out of a resolved herald, leaving the pure
    # state of the four outer-photon paths
    pairs = [restrict_to_paths(o.rows, SWAP_PAIR_PATHS) for o in accepted]
    pair_states: dict[str, StateVector] = {}
    for o, pair, entropy in zip(accepted, pairs, entanglement_entropy(pairs, {"1", "1'"})):
        pair_states[o.label] = as_state(pair)
        o.metrics["pair_entropy"] = entropy

    combined = _combined_accepted(outcomes)
    metrics: dict[str, float] = {"success_probability": success}
    if combined is not None:
        metrics["unresolved_split_entropy"] = entanglement_entropy(combined, SWAP_PAIR_PATHS)
        metrics["output_purity"] = reduced_density(combined, SWAP_OUTPUT_PATHS).purity()
        target = normalize(StateVector({
            FockKet({_m("1", 0): 1, _m("4'", 0): 1}): 1.0,
            FockKet({_m("1'", 1): 1, _m("4", 1): 1}): 1.0,
        }))
        metrics["pair_block_fidelity"] = reduced_density(combined, SWAP_PAIR_PATHS).fidelity(target)
    return SwapResult(
        alpha=alpha,
        convention=convention,
        outcomes=outcomes,
        success_probability=success,
        combined_state=None if combined is None else as_state(combined),
        pair_states=pair_states,
        metrics=metrics,
    )


def _fired(pattern: tuple[tuple[str, int], ...]) -> str:
    """The detector that fired in an accepted GHZ herald pattern."""
    return next(p for p, c in pattern if c == 1)


@dataclass
class GhzSweep:
    """The GHZ scheme at a list of source angles; each array holds one value per angle.

    ``fidelity`` is the least GHZ fidelity of the accepted heralds, 0.0
    where none is accepted.
    """

    alpha: list[float]
    convention: Convention
    per_detector: dict[str, np.ndarray]
    success_probability: np.ndarray
    fidelity: np.ndarray


@dataclass
class _GhzBatch:
    """The GHZ scheme evolved for one angle or a batch; every array has one entry per angle.

    ``fidelity`` has the GHZ fidelity per fired detector, in herald order.
    """

    branches: list[tuple]
    per_detector: dict[str, np.ndarray]
    success: np.ndarray
    fidelity: dict[str, np.ndarray]


@lru_cache(maxsize=None)
def _ghz_circuit(convention: Convention):
    """Sources, AOM and mode closure of the GHZ scheme; each evaluation gives its own angles."""
    s1, s2 = swap_sources(math.pi / 4)
    aom = AomSpec("AOM", _m("2", 1), _m("3", 0), output_x="T'", output_y="T",
                  phase_convention=convention)
    op = make_aom(aom)
    return s1, s2, op, circuit_modes((s1, s2), (op,))


def _ghz_batch(alpha: float | list[float], convention: Convention) -> _GhzBatch:
    """Evolve the GHZ scheme for one angle, or for a list of angles as one batch.

    Both sources emit one member per angle, so the herald's probabilities
    and the accepted states' fidelities come out per angle.  Raises
    :class:`~aomsim.engine.BatchSplit` where the angles cannot share rows.
    """
    s1, s2, op, modes = _ghz_circuit(convention)
    state = tensor(make_source(s1, modes, alpha), make_source(s2, modes, alpha))
    state = apply_element(state, op)
    for spec in GHZ_FILTERS:
        state, _ = apply_filter(state, spec)
    branches = _herald(state, ghz_herald_rule())

    members = len(alpha) if isinstance(alpha, list) else 1
    per_detector = {"T": np.zeros(members), "T'": np.zeros(members)}
    success = np.zeros(members)
    fidelity: dict[str, np.ndarray] = {}
    for _, probability, rows, accepted, pattern in branches:
        if not accepted:
            continue
        fired, probability = _fired(pattern), np.reshape(probability, members)
        success = success + probability
        per_detector[fired] = probability
        three_photon = restrict_to_paths(rows, GHZ_BRANCH_PATHS)
        fidelity[fired] = np.reshape(ghz_fidelity(three_photon, GHZ_BRANCH_A, GHZ_BRANCH_B),
                                     members)
    return _GhzBatch(branches, per_detector, success, fidelity)


def run_ghz(alpha: float | list[float] = math.pi / 4,
            convention: Convention = Convention.UNITARY) -> GhzResult | GhzSweep:
    """Three-photon GHZ scheme: one AOM, two filtered detectors, one click.

    Heralding on exactly one photon across {T, T'} excludes both the
    both-fire and both-dark branches; each detector outcome leaves the three
    undetected photons in an equal-weight two-branch superposition whose
    phase-maximized GHZ fidelity is reported.  Per-detector probability is
    sin^2(alpha) cos^2(alpha); the total is twice that.

    Given a list of angles, evaluates them as batches through the same
    kernels and returns a :class:`GhzSweep`, whose values are bit-identical
    to those of one-angle runs.
    """
    if isinstance(alpha, list):
        return _ghz_sweep(alpha, convention)
    batch = _ghz_batch(alpha, convention)
    outcomes = [HeraldOutcome(*branch) for branch in batch.branches]
    heralded_states: dict[str, StateVector] = {}
    metrics: dict[str, float] = {}
    for o in outcomes:
        if o.accepted:
            fired = _fired(o.pattern)
            heralded_states[fired] = as_state(restrict_to_paths(o.rows, GHZ_BRANCH_PATHS))
            o.metrics["ghz_fidelity"] = metrics[f"ghz_fidelity[{fired}]"] = (
                batch.fidelity[fired].item())
    success = batch.success.item()
    metrics["total_probability"] = success

    valid = check_bandwidth(BandwidthCheck(
        sigma_pump=1.0, filter_sigmas=tuple(f.sigma for f in GHZ_FILTERS)
    ))
    return GhzResult(
        alpha=alpha,
        convention=convention,
        outcomes=outcomes,
        success_probability=success,
        per_detector={k: v.item() for k, v in batch.per_detector.items()},
        heralded_states=heralded_states,
        metrics=metrics,
        bandwidth_valid=valid,
    )


def _ghz_sweep(alphas: list[float], convention: Convention) -> GhzSweep:
    """The GHZ scheme at every angle, evolved as batches (:func:`aomsim.engine.in_batches`).

    The angles go through the kernels all at once where they share their
    rows and fit the engine's term budget, else in the groups and chunks
    that the kernels split them into.
    """
    def evolve(index: np.ndarray):
        batch = _ghz_batch([alphas[i] for i in index.tolist()], convention)
        least = np.min(list(batch.fidelity.values()) or [np.zeros(len(index))], axis=0)
        return np.column_stack((batch.per_detector["T"], batch.per_detector["T'"],
                                batch.success, least)).tolist()

    rows = engine.in_batches(evolve, len(alphas)) if alphas else []
    per_t, per_t_prime, success, least = np.array(rows, dtype=float).reshape(-1, 4).T
    return GhzSweep(alphas, convention, {"T": per_t, "T'": per_t_prime}, success, least)
