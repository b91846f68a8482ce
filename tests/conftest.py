"""Shared helpers: random states and randomized AOM circuits for oracle checks, and the
paper's two schemes wired by hand as a reference for the shipped circuits."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import strategies as st

from aomsim import (
    AomSpec,
    Convention,
    FilterSpec,
    FockKet,
    HeraldRule,
    ModeLabel,
    SourceSpec,
    StateVector,
    apply_element,
    apply_filter,
    entanglement_entropy,
    ghz_fidelity,
    make_aom,
    make_source,
    normalize,
    post_select,
    restrict_to_paths,
    tensor,
)

M = ModeLabel


def max_amplitude_dev(a: StateVector, b: StateVector) -> float:
    keys = set(a.terms) | set(b.terms)
    return max((abs(a.amplitude(k) - b.amplitude(k)) for k in keys), default=0.0)


def random_state(rng: np.random.Generator, modes: list[ModeLabel],
                 max_photons: int = 4, max_terms: int = 4) -> StateVector:
    """Normalized state whose kets draw photons only from the given modes."""
    terms: dict[FockKet, complex] = {}
    for _ in range(int(rng.integers(1, max_terms + 1))):
        n = int(rng.integers(1, max_photons + 1))
        picks = [modes[int(i)] for i in rng.integers(0, len(modes), size=n)]
        k = FockKet.from_modes(picks)
        terms[k] = terms.get(k, 0j) + complex(rng.normal(), rng.normal())
    return normalize(StateVector(terms))


def random_aom(rng: np.random.Generator, in_a: ModeLabel, in_b: ModeLabel,
               out_x: str, out_y: str, convention: Convention | None = None) -> AomSpec:
    shift = in_a.freq_bin - in_b.freq_bin
    t = 2 ** -0.5 if rng.random() < 0.5 else float(rng.uniform(0.1, 0.9))
    if convention is None:
        convention = Convention.UNITARY if rng.random() < 0.5 else Convention.PAPER_LITERAL
    return AomSpec(f"R{out_x}", in_a, in_b, out_x, out_y, shift=shift, t_amp=t,
                   phase_convention=convention)


def random_circuit(rng: np.random.Generator, convention: Convention | None = None
                   ) -> tuple[StateVector, list[AomSpec]]:
    """A random initial state plus one or two consistently wired AOMs.

    Photons start on the first AOM's expected inputs and on spectator paths;
    a second AOM, when present, takes one output of the first (at the bin
    that output actually carries) plus a fresh path.  Closure stays within
    the dense-oracle caps (<= 12 modes, <= 4 photons).
    """
    base = int(rng.integers(-1, 2))
    shift = int(rng.integers(1, 3))
    in_a, in_b = M("a", base + shift), M("b", base)
    aom1 = random_aom(rng, in_a, in_b, "x", "y", convention)
    spectators = [M("s1", int(rng.integers(-1, 3))), M("s2", int(rng.integers(-1, 3)))]
    pool = [in_a, in_b] + spectators[: int(rng.integers(0, 3))]
    state = random_state(rng, pool)
    aoms = [aom1]
    if rng.random() < 0.5:
        shift2 = int(rng.integers(1, 3))
        if rng.random() < 0.5:
            # feed the high-bin output of the first AOM into the second
            in_a2 = M("x", base + shift)
            in_b2 = M("c", base + shift - shift2)
        else:
            # feed the low-bin output of the first AOM into the second
            in_a2 = M("c", base + shift2)
            in_b2 = M("y", base)
        aoms.append(random_aom(rng, in_a2, in_b2, "u", "v", convention))
    return state, aoms


@st.composite
def circuit_texts(draw, sources: tuple[int, int] = (1, 3), aoms: tuple[int, int] = (0, 3)) -> str:
    """Circuit text: sources, AOMs on modes the circuit carries, filters, a herald, reports.

    The counts of sources and of AOM draws lie in the inclusive ranges
    ``sources`` and ``aoms``; a drawn AOM whose inputs do not fit is left
    out.  Report branches are drawn from the mode closure: the modes the
    sources emit and the AOMs write.
    """
    lines, modes = [], []
    for i in range(draw(st.integers(*sources))):
        emitted = [(f"s{i}{k}", draw(st.integers(0, 2))) for k in range(4)]
        arms, alt = (",".join(f"{p}@{b}" for p, b in pair) for pair in (emitted[:2], emitted[2:]))
        alpha = draw(st.sampled_from([0.0, 0.3, math.pi / 4, 1.2, 1e-200]))
        lines.append(f"source S{i} arms=({arms}) alt=({alt}) alpha={alpha!r}")
        modes += emitted
    for j in range(draw(st.integers(*aoms))):
        lo, hi = sorted((draw(st.sampled_from(modes)), draw(st.sampled_from(modes))),
                        key=lambda m: m[1])
        if lo[0] == hi[0] or lo[1] == hi[1]:  # an AOM needs two paths, one bin apart or more
            continue
        t = draw(st.sampled_from([0.5, 0.7071067811865476, 0.9]))
        convention = draw(st.sampled_from(["unitary", "paper"]))
        lines.append(f"aom A{j} in=({hi[0]}@{hi[1]},{lo[0]}@{lo[1]}) out=(x{j},y{j}) "
                     f"shift={hi[1] - lo[1]} t={t!r} convention={convention}")
        modes += [(f"x{j}", hi[1]), (f"y{j}", lo[1])]
    paths = sorted({p for p, _ in modes})
    for k in range(draw(st.integers(0, 2))):
        lines.append(f"filter F{k} path={draw(st.sampled_from(paths))} "
                     f"pass={draw(st.integers(0, 2))} sigma={draw(st.sampled_from([0.5, 1.0]))}")
    if draw(st.booleans()):
        lines.append("check bandwidth pump=1.0")
    heralded = draw(st.lists(st.sampled_from(paths), min_size=1, max_size=4, unique=True))
    cut = draw(st.integers(1, len(heralded)))
    clauses = [f"count({','.join(part)})=={draw(st.integers(0, 2))}"
               for part in (heralded[:cut], heralded[cut:]) if part]
    lines.append("herald " + " and ".join(clauses))
    some_paths = st.lists(st.sampled_from(paths), min_size=1, max_size=3, unique=True)
    some_modes = st.lists(st.sampled_from([f"{p}@{b}" for p, b in modes]), min_size=1, max_size=4)
    for kind in draw(st.lists(st.sampled_from(["entropy", "ghz", "outcomes"]), max_size=2)):
        if kind == "ghz":
            lines.append(f"report ghz a=({','.join(draw(some_modes))}) "
                         f"b=({','.join(draw(some_modes))})")
        else:
            key = "split" if kind == "entropy" else "paths"
            lines.append(f"report {kind} {key}=({','.join(draw(some_paths))})")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------- reference wiring
#
# run_swap and run_ghz compile circuits/swap.qc and circuits/ghz.qc.  The
# same schemes are wired here by hand, through the element, engine and
# herald functions only, so that comparing the two checks the circuit text
# and Pipeline.run against an independent evolution.

# herald branches of the three-photon GHZ state: the two ways the undetected
# photons can be correlated once one AOM output fires
GHZ_BRANCH_A = FockKet({M("1", 0): 1, M("3'", 1): 1, M("4'", 0): 1})
GHZ_BRANCH_B = FockKet({M("1'", 1): 1, M("2'", 0): 1, M("4", 1): 1})
GHZ_FILTERS = (FilterSpec("T", pass_bin=0, sigma=1.0), FilterSpec("T'", pass_bin=1, sigma=1.0))
SWAP_RULE = HeraldRule([({"T1", "T1'"}, 1), ({"T2", "T2'"}, 1)])
GHZ_RULE = HeraldRule([({"T", "T'"}, 1)])


def swap_sources(alpha: float) -> tuple[SourceSpec, SourceSpec]:
    """The two biphoton sources both schemes start from."""
    s1 = SourceSpec("S1", arms=(M("1", 0), M("2", 1)), alt=(M("1'", 1), M("2'", 0)), alpha=alpha)
    s2 = SourceSpec("S2", arms=(M("3", 0), M("4", 1)), alt=(M("3'", 1), M("4'", 0)), alpha=alpha)
    return s1, s2


def swap_aoms(convention: Convention = Convention.UNITARY) -> tuple[AomSpec, AomSpec]:
    return (AomSpec("AOM1", M("2", 1), M("3", 0), "T1", "T1'", phase_convention=convention),
            AomSpec("AOM2", M("3'", 1), M("2'", 0), "T2'", "T2", phase_convention=convention))


def ghz_aom(convention: Convention = Convention.UNITARY) -> AomSpec:
    return AomSpec("AOM", M("2", 1), M("3", 0), "T'", "T", phase_convention=convention)


def _reference(alpha, aoms, filters, rule):
    """Outcomes and success probability of the two sources through ``aoms`` and ``filters``.

    Each source is emitted over its own modes and each lift adds the columns it lacks, so
    the pipeline's pre-allocated columns are checked against columns that enter late.
    """
    s1, s2 = swap_sources(alpha)
    state = tensor(make_source(s1, ()), make_source(s2, ()))
    for spec in aoms:
        state = apply_element(state, make_aom(spec))
    for spec in filters:
        state, _ = apply_filter(state, spec)
    outcomes = post_select(state, rule)
    success = 0.0
    for o in outcomes:
        if o.accepted:
            success += o.probability
    return outcomes, success


def reference_swap(alpha: float, convention: Convention):
    """The swap by hand: each accepted outcome's ``pair_entropy`` on its outer-pair state."""
    outcomes, success = _reference(alpha, swap_aoms(convention), (), SWAP_RULE)
    accepted = [o for o in outcomes if o.accepted]
    pairs = [restrict_to_paths(o.rows, {"1", "1'", "4", "4'"}) for o in accepted]
    for o, entropy in zip(accepted, entanglement_entropy(pairs, {"1", "1'"})):
        o.metrics["pair_entropy"] = entropy
    return outcomes, success


def reference_ghz(alpha: float, convention: Convention):
    """The GHZ scheme by hand: each accepted outcome's ``ghz_fidelity``."""
    outcomes, success = _reference(alpha, (ghz_aom(convention),), GHZ_FILTERS, GHZ_RULE)
    paths = {m.path for m in GHZ_BRANCH_A.modes() + GHZ_BRANCH_B.modes()}
    for o in outcomes:
        if o.accepted:
            three = restrict_to_paths(o.rows, paths)
            o.metrics["ghz_fidelity"] = ghz_fidelity(three, GHZ_BRANCH_A, GHZ_BRANCH_B)
    return outcomes, success


def outcome_bits(o) -> tuple:
    """An outcome as exact text and bytes: label, probability and metric reprs, state rows."""
    rows = None if o.rows is None else (o.rows.modes, o.rows.occ.tobytes(), o.rows.amp.tobytes(),
                                        o.rows.non_unitary)
    metrics = sorted((k, repr(v)) for k, v in o.metrics.items())
    return o.label, repr(o.probability), o.accepted, o.pattern, metrics, rows
