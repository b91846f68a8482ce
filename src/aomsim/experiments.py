"""Heralding primitives and the paper's two schemes: entanglement swap and three-photon GHZ.

:func:`_herald` is the shared heralding primitive: it partitions a state,
or a batch of states, by the per-path photon-count pattern over the paths a
rule mentions, accepts the patterns whose per-clause totals match exactly,
and lumps everything else into one discard bucket.  It groups the rows of an
array state (:mod:`aomsim.engine`), lists them outcome by outcome, normalizes
every outcome in one pass over those rows and returns the
:class:`HeraldOutcome` list, with one probability per member for a batch; no
outcome builds its kets until its conditional state is read.
:func:`post_select` is its public face for one state.

The schemes themselves are circuit text, shipped with the package as
``circuits/swap.qc`` and ``circuits/ghz.qc``: :func:`run_swap` and
:func:`run_ghz` compile them (once per process) and run them through
:meth:`aomsim.dsl.Pipeline.run`, the one code path that evolves a circuit.
They add only their own metrics and result types.  The swap layout (two
AOMs) projects the two untouched outer photons onto a maximally
frequency-entangled pair whenever exactly one photon exits each AOM; its
combined accepted state, the run's final rows whose pattern the herald
accepts, renormalized, is probed for factorization.  The
GHZ layout (one AOM, two filtered detectors) heralds a three-photon
GHZ-class state on exactly one detector firing.  Given a list of angles,
:func:`run_ghz` runs them as one batch through the same ``Pipeline.run``,
with one amplitude row per angle, and reads each angle's probabilities and
fidelity from it (:class:`GhzSweep`).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

import numpy as np

from . import engine
from .engine import ArrayState
from .errors import FactorizationError, ZeroStateError
# apply_element, apply_filter, make_source, tensor, entanglement_entropy and ghz_fidelity go
# unused here but stay bound, since bench/tracing.py wraps each by name in this module
from .elements import AomSpec, Convention, apply_element, apply_filter, make_source
from .states import (
    StateVector,
    _path_names,
    as_arrays,
    as_state,
    entanglement_entropy,
    ghz_fidelity,
    reduced_density,
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
]


def _distinct(paths: tuple[str, ...], what: str):
    """Raise ``ValueError`` at the first path that the list ``what`` names a second time."""
    for i, p in enumerate(paths):
        if p in paths[:i]:
            raise ValueError(f"{what} names path '{p}' twice")


@dataclass(frozen=True)
class HeraldRule:
    """Exact photon-count requirements over disjoint path sets.

    A pattern satisfies the rule iff every clause's photon total over its
    path set equals the required count exactly (number-resolving semantics).
    A herald lists each accepted pattern as an outcome of its own, then all
    rejected patterns as one ``discard`` bucket.  A clause names each path once,
    as a collection of path names (not a bare ``str``), and its count is an integer.
    """

    clauses: tuple[tuple[frozenset[str], int], ...]

    def __init__(self, clauses):
        normed = []
        seen: set[str] = set()
        for listed, count in clauses:
            listed = _path_names(listed, "a herald clause")
            try:
                count = operator.index(count)
            except TypeError:
                raise ValueError(f"herald counts must be integers, not {count!r}") from None
            _distinct(listed, "herald clause")
            paths = frozenset(listed)
            if count < 0:
                raise ValueError("herald counts must be non-negative")
            if not paths:
                raise ValueError("herald clauses need at least one path")
            if seen & paths:
                raise ValueError("herald clauses must use pairwise-disjoint path sets")
            seen |= paths
            normed.append((paths, count))
        object.__setattr__(self, "clauses", tuple(normed))

    def paths(self) -> tuple[str, ...]:
        return tuple(sorted(set().union(*(paths for paths, _ in self.clauses))))


@dataclass(init=False)
class HeraldOutcome:
    """One heralded branch: its probability and post-herald state.

    The conditional state may be given as a :class:`StateVector` or as the
    engine's rows (an :class:`ArrayState`), and is ``None`` for an empty
    discard bucket.  It is held once, as rows: ``rows`` is that
    :class:`ArrayState`, and ``conditional_state`` its :class:`StateVector`,
    built on first read unless it was given.  Both are read-only.  The rows
    are in ket order (:mod:`aomsim.engine`), the order a run report lists
    the terms in.
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
    """The row order and outcomes of a herald: ``(order, sizes, outcomes)``.

    ``order`` lists the state's rows outcome by outcome, each outcome's rows
    in ket order (the state's), ``sizes`` counts them and ``outcomes`` holds
    each one's ``(label, pattern, accepted)``: the accepted patterns in
    pattern order, then the ``discard`` bucket, made of every rejected
    pattern, whose rows are in ket order too, whatever their patterns.
    """
    paths = rule.paths()
    counts = engine._path_counts(occ, modes, paths)
    ids, first = engine._group(counts)  # groups in pattern order
    patterns, sizes = counts[first], np.bincount(ids, minlength=len(first))
    accepted = np.ones(len(first), dtype=bool)
    for clause_paths, required in rule.clauses:  # as HeraldRule accepts a pattern
        accepted &= patterns[:, [paths.index(p) for p in clause_paths]].sum(axis=1) == required
    groups = np.flatnonzero(accepted)
    rank = np.full(len(sizes), len(groups))  # the discard bucket's groups rank last
    rank[groups] = np.arange(len(groups))
    order = np.argsort(rank[ids], kind="stable")
    passing = patterns[groups].tolist()
    outcomes = [(label, tuple(zip(paths, pattern)), True)
                for label, pattern in zip(_pattern_labels(paths, passing), passing)]
    outcomes.append(("discard", None, False))
    return order, sizes[groups].tolist() + [int(sizes[~accepted].sum())], outcomes


def _herald(state: ArrayState, rule: HeraldRule) -> list[HeraldOutcome]:
    """The outcomes of a herald, each normalized on its own, for a state or a batch.

    Each outcome's ``probability`` is a list with one per member for a
    batch, and its ``rows`` the normalized conditional state (None for an
    empty discard bucket), in ket order.  The rows are gathered outcome by
    outcome once, and one engine call (:func:`aomsim.engine.unit_rows`)
    normalizes each outcome's span of them and returns the span norms, each
    summed in ket order, the discard bucket's too.  Raises
    :class:`ZeroStateError` for a state with no rows, whose outcomes have no
    probabilities to sum to 1.
    """
    if not len(state.occ):
        raise ZeroStateError("cannot herald a zero state")
    order, sizes, plan = _herald_plan(state.occ, state.modes, rule)
    rows, norms, bounds = engine.unit_rows(ArrayState(
        state.modes, state.occ[order], engine.select(state.amp, order), state.non_unitary), sizes)
    branches = []
    for (label, pattern, accepted), p, size, a, b in zip(
            plan, engine.squared(norms.T), sizes, bounds, bounds[1:]):
        outcome = None
        if pattern is not None or size:  # an empty discard bucket has no state
            outcome = ArrayState(state.modes, rows.occ[a:b], engine.select(rows.amp, slice(a, b)),
                                 state.non_unitary)
        branches.append(HeraldOutcome(label, p, outcome, accepted, pattern))
    return branches


def post_select(s: StateVector | ArrayState, rule: HeraldRule) -> list[HeraldOutcome]:
    """Split a normalized state by photon-count pattern over the rule paths (:func:`_herald`).

    Returns one outcome per satisfying pattern (sorted by pattern) followed
    by the rejected remainder; probabilities over the full list sum to 1.
    Each outcome's terms are in ket order, the discard bucket's too, and
    each outcome's norm is summed over its terms in that order
    (:func:`aomsim.engine.unit_rows`).  Takes one nonzero state, not a batch.
    """
    state = as_arrays(s)
    if state.amp.ndim > 1:
        raise ValueError("post_select takes one state, not a batch")
    return _herald(state, rule)


def enumerate_outcomes(s: StateVector, paths: set[str] | frozenset[str]) -> dict[int, float]:
    """Distribution of the total photon count over a path set, for one state, not a batch.

    ``paths`` is a collection of path names, not a bare ``str``.
    """
    return engine.count_distribution(as_arrays(s), sorted(_path_names(paths, "paths")))


@engine.memo_small
def _restriction(occ, modes: tuple, keep: frozenset):
    """Columns on the paths ``keep`` and their occupations, once the rest is one common factor."""
    kept = [m[0] in keep for m in modes]
    rest = occ[:, [not k for k in kept]]
    if (rest != rest[:1]).any():
        raise FactorizationError("state does not factor across the requested path split")
    return tuple(m for m, k in zip(modes, kept) if k), occ[:, kept]


def restrict_to_paths(s: StateVector | ArrayState, keep: set[str] | frozenset[str]
                      ) -> StateVector | ArrayState:
    """Drop modes outside ``keep`` when they form one common factor ket.

    Valid only when every term carries the identical occupation pattern on
    the dropped paths (e.g. a resolved herald); raises
    :class:`FactorizationError` (also a ``ValueError``) otherwise, because
    the restriction would not be a pure state.  An :class:`ArrayState` (also
    a batch) keeps its amplitudes and the columns on ``keep``; a
    :class:`StateVector` is restricted on its rows.  ``keep`` is a collection
    of path names, not a bare ``str``.
    """
    keep = frozenset(_path_names(keep, "keep"))
    if isinstance(s, StateVector):
        return as_state(restrict_to_paths(as_arrays(s), keep))
    modes, occ = _restriction(s.occ, s.modes, keep)
    return ArrayState(modes, occ, s.amp, s.non_unitary)


def _combined_accepted(state: ArrayState, rule: HeraldRule) -> ArrayState | None:
    """The rows of ``state`` whose herald pattern ``rule`` accepts, renormalized, or None.

    This is the coherent sum of the accepted outcomes, each with its own
    weight; the rows keep the state's ket order.  They are read from the
    herald's plan (:func:`_herald_plan`), which lists the accepted rows first.
    """
    order, sizes, _ = _herald_plan(state.occ, state.modes, rule)
    keep = np.sort(order[:sum(sizes[:-1])])
    if not keep.size:
        return None
    return engine.normalize(ArrayState(state.modes, state.occ[keep],
                                       engine.select(state.amp, keep), state.non_unitary))


@lru_cache(maxsize=None)
def _shipped(name: str):
    """The :class:`~aomsim.dsl.Pipeline` of the shipped ``circuits/<name>.qc``, compiled once."""
    from .dsl import compile_circuit, parse  # imported here: dsl imports the heralding above

    text = (resources.files("aomsim") / "circuits" / f"{name}.qc").read_text("utf-8")
    return compile_circuit(parse(text))


def _untouched_paths(pipeline) -> frozenset[str]:
    """Paths a source emits on that no element reads: the swap's outer photons."""
    read: set[str] = set()
    for e in pipeline.elements:
        read |= {e.input_a.path, e.input_b.path} if isinstance(e, AomSpec) else {e.path}
    return frozenset(m.path for s in pipeline.sources for m in s.arms + s.alt) - read


def run_swap(alpha: float = math.pi / 4, convention: Convention = Convention.UNITARY) -> SwapResult:
    """Entanglement swap (``circuits/swap.qc``): two sources, two AOMs, one photon per output pair.

    The four resolved heralds (one specific output path per AOM) each carry
    the conditional state of the outer photons and its entanglement entropy
    across the {1, 1'} | {4, 4'} cut (the circuit's ``report entropy``,
    relabelled ``pair_entropy``).  The combined (pattern-blind) accepted
    state is also reported with metrics probing whether it factorizes into
    outer-pair times AOM-output parts, which holds for the all-positive
    literal convention but not for the unitary one.
    """
    pipeline = _shipped("swap")
    run = pipeline.run(convention, alpha)
    outcomes = run.outcomes
    pair_paths = _untouched_paths(pipeline)
    pair_states: dict[str, StateVector] = {}
    for o in outcomes:
        if o.accepted:
            (entropy,) = o.metrics.values()  # the circuit's one report, across {1, 1'}
            o.metrics = {"pair_entropy": entropy}
            # the detector modes factor out of a resolved herald, leaving the
            # pure state of the four outer-photon paths
            pair_states[o.label] = as_state(restrict_to_paths(o.rows, pair_paths))

    combined = _combined_accepted(run.final, pipeline.herald)
    metrics: dict[str, float] = {"success_probability": run.success_probability}
    if combined is not None:
        pair_rho = reduced_density(combined, pair_paths)  # formed once, for entropy and fidelity
        metrics["unresolved_split_entropy"] = pair_rho.entropy()
        output_paths = frozenset(pipeline.herald.paths())
        metrics["output_purity"] = reduced_density(combined, output_paths).purity()
        # the in-phase superposition of the two kets each resolved herald leaves on the pair
        kets = sorted({k for pair in pair_states.values() for k in pair.terms})
        target = StateVector(dict.fromkeys(kets, 1.0 / math.sqrt(len(kets))))
        metrics["pair_block_fidelity"] = pair_rho.fidelity(target)
    return SwapResult(
        alpha=alpha,
        convention=convention,
        outcomes=outcomes,
        success_probability=run.success_probability,
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


def run_ghz(alpha: float | list[float] = math.pi / 4,
            convention: Convention = Convention.UNITARY) -> GhzResult | GhzSweep:
    """Three-photon GHZ scheme (``circuits/ghz.qc``): one AOM, two filtered detectors, one click.

    Heralding on exactly one photon across {T, T'} excludes both the
    both-fire and both-dark branches; each detector outcome leaves the three
    undetected photons in an equal-weight two-branch superposition whose
    phase-maximized GHZ fidelity is reported.  Per-detector probability is
    sin^2(alpha) cos^2(alpha); the total is twice that.

    Given a list of angles, runs them as batches through the same
    ``Pipeline.run`` and returns a :class:`GhzSweep`, whose values are
    bit-identical to those of one-angle runs.
    """
    pipeline = _shipped("ghz")
    if isinstance(alpha, list):
        return _ghz_sweep(pipeline, alpha, convention)
    run = pipeline.run(convention, alpha)
    (report,) = pipeline.reports
    per_detector = dict.fromkeys(pipeline.herald.paths(), 0.0)
    heralded_states: dict[str, StateVector] = {}
    metrics: dict[str, float] = {}
    for o in run.outcomes:
        if o.accepted:
            fired = _fired(o.pattern)
            per_detector[fired] = o.probability
            heralded_states[fired] = as_state(restrict_to_paths(o.rows, report.target[0]))
            metrics[f"ghz_fidelity[{fired}]"] = o.metrics["ghz_fidelity"]
    metrics["total_probability"] = run.success_probability
    return GhzResult(
        alpha=alpha,
        convention=convention,
        outcomes=run.outcomes,
        success_probability=run.success_probability,
        per_detector=per_detector,
        heralded_states=heralded_states,
        metrics=metrics,
        bandwidth_valid=run.bandwidth_valid,
    )


def _ghz_sweep(pipeline, alphas: list[float], convention: Convention) -> GhzSweep:
    """The GHZ scheme at every angle, run as batches (:func:`aomsim.engine.in_batches`).

    The angles go through ``Pipeline.run`` all at once where they share
    their rows and fit the engine's term budget, else in the groups and
    chunks that the kernels split them into.
    """
    detectors = pipeline.herald.paths()

    def evolve(index: np.ndarray):
        run = pipeline.run(convention, [alphas[i] for i in index.tolist()])
        none = [0.0] * len(index)
        per_detector = dict.fromkeys(detectors, none)
        fidelities = []
        for o in run.outcomes:
            if o.accepted:
                per_detector[_fired(o.pattern)] = o.probability
                fidelities.append(o.metrics["ghz_fidelity"])
        table = np.array([*per_detector.values(), run.success_probability, *(fidelities or [none])])
        table[columns - 1] = table[columns - 1:].min(axis=0)  # the least fidelity
        return table[:columns].T.tolist()

    columns = len(detectors) + 2
    rows = engine.in_batches(evolve, len(alphas)) if alphas else []
    *per_detector, success, least = np.array(rows, dtype=float).reshape(-1, columns).T
    return GhzSweep(alphas, convention, dict(zip(detectors, per_detector)), success, least)
