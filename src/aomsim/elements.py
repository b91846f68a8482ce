"""Optical elements as single-photon mode maps lifted to multi-photon states.

An acousto-optic modulator (AOM) driven at radio frequency ``delta`` splits
each input beam into a transmitted beam (frequency unchanged) and a diffracted
beam (frequency shifted by one bin, up or down depending on the input
direction).  Here an AOM is a two-input, two-output mode map arranged so that
one output path carries only the high frequency bin and the other only the low
bin: detecting a photon on an output path reveals nothing about which input it
came from.

Two phase conventions are supported:

* ``UNITARY`` gives the diffracted amplitude a 90-degree phase (``i*d``),
  which makes the 2x2 single-photon matrix an isometry, so multi-photon
  evolution conserves probability.
* ``PAPER_LITERAL`` uses all-positive amplitudes.  That map is not an isometry
  on the joint two-input subspace, so :func:`apply_element` rescales the image
  of each input ket back to the ket's own weight (and renormalizes the total),
  flagging the result ``non_unitary``.

Elements act on states through the array engine (:mod:`aomsim.engine`):
:func:`apply_element`, :func:`make_source` and :func:`apply_filter` take and
return :class:`StateVector` and wrap the engine's lift, source and filter
kernels.  Given an :class:`~aomsim.engine.ArrayState`, :func:`apply_element`
and :func:`apply_filter` return one, so a compiled pipeline evolves one
occupation matrix and builds kets only for its results.

Sources are two-photon emitters ``cos(a)|arm pair> + sin(a)|alt pair>``;
filters are ideal frequency-bin projectors; physical bandwidth enters only
through :func:`check_bandwidth`.  Every spec rejects non-finite numbers.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property

from . import engine
from .errors import SpecInvariantError
from .engine import ArrayState
from .states import ModeLabel, StateVector, as_arrays, as_state, match_kind

__all__ = [
    "Convention",
    "AomSpec",
    "SourceSpec",
    "FilterSpec",
    "BandwidthCheck",
    "ElementOp",
    "make_aom",
    "apply_element",
    "make_source",
    "apply_filter",
    "check_bandwidth",
]

BALANCED_T = 1.0 / math.sqrt(2.0)


class Convention(enum.Enum):
    """Phase convention for the diffracted AOM amplitude."""

    UNITARY = "unitary"
    PAPER_LITERAL = "paper"


@dataclass(frozen=True)
class ElementOp:
    """A single-photon mode map plus the metadata needed to lift it.

    ``images`` sends each expected input mode to a superposition of output
    modes (tuples of ``(mode, amplitude)``).  Modes not listed pass through
    unchanged; a photon on an input *path* but with an unlisted bin is a
    wiring error.  ``literal`` marks maps that need renormalization.
    """

    name: str
    images: dict[ModeLabel, tuple[tuple[ModeLabel, complex], ...]]
    literal: bool = False

    @cached_property
    def input_paths(self) -> frozenset[str]:
        return frozenset(m.path for m in self.images)

    @cached_property
    def output_modes(self) -> tuple[ModeLabel, ...]:
        return tuple(sorted({m for targets in self.images.values() for m, _ in targets}))

    @cached_property
    def modes(self) -> tuple[ModeLabel, ...]:
        """Every mode the map reads or writes, sorted."""
        return tuple(sorted({*self.images, *self.output_modes}))

    @staticmethod
    def identity(modes: tuple[ModeLabel, ...] | list[ModeLabel]) -> ElementOp:
        return ElementOp("identity", {m: ((m, 1.0 + 0j),) for m in modes})


@dataclass(frozen=True)
class AomSpec:
    """Wiring of one AOM: two expected inputs, two outputs, drive parameters.

    ``input_a`` must sit one ``shift`` above ``input_b`` in frequency (the
    high-frequency input diffracts down, the low one diffracts up), so that
    ``output_x`` carries only the high bin and ``output_y`` only the low bin.
    ``t_amp`` is the transmitted amplitude; the diffracted amplitude is
    ``sqrt(1 - t_amp^2)``.
    """

    name: str
    input_a: ModeLabel
    input_b: ModeLabel
    output_x: str
    output_y: str
    shift: int = 1
    t_amp: float = BALANCED_T
    phase_convention: Convention = Convention.UNITARY

    def __post_init__(self):
        if self.shift <= 0:
            raise SpecInvariantError(f"{self.name}: shift must be a positive integer")
        if self.input_a.freq_bin != self.input_b.freq_bin + self.shift:
            raise SpecInvariantError(
                f"{self.name}: input bins {self.input_a.freq_bin} and "
                f"{self.input_b.freq_bin} are incompatible with shift {self.shift}"
            )
        paths = {self.input_a.path, self.input_b.path, self.output_x, self.output_y}
        if len(paths) != 4:
            raise SpecInvariantError(f"{self.name}: the four paths must be distinct")
        if not (0.0 < self.t_amp < 1.0):
            raise SpecInvariantError(f"{self.name}: t_amp must lie strictly in (0, 1)")

    @property
    def d_amp(self) -> float:
        return math.sqrt(1.0 - self.t_amp * self.t_amp)


@dataclass(frozen=True)
class SourceSpec:
    """Biphoton source: cos(alpha)|arm pair> + sin(alpha)|alt pair>."""

    name: str
    arms: tuple[ModeLabel, ModeLabel]
    alt: tuple[ModeLabel, ModeLabel]
    alpha: float = math.pi / 4

    def __post_init__(self):
        paths = {self.arms[0].path, self.arms[1].path, self.alt[0].path, self.alt[1].path}
        if len(paths) != 4:
            raise SpecInvariantError(f"{self.name}: the four source paths must be distinct")
        if not math.isfinite(self.alpha):
            raise SpecInvariantError(f"{self.name}: alpha must be a finite number")


@dataclass(frozen=True)
class FilterSpec:
    """Ideal frequency filter on one path: keep only ``pass_bin`` there.

    ``sigma`` records the physical bandwidth for :func:`check_bandwidth`;
    it does not affect the projection.
    """

    path: str
    pass_bin: int
    sigma: float = 1.0

    def __post_init__(self):
        if not _positive(self.sigma):
            raise SpecInvariantError(f"filter on {self.path}: sigma must be positive and finite")


@dataclass(frozen=True)
class BandwidthCheck:
    """Validity condition: the pump bandwidth dominates every filter's."""

    sigma_pump: float
    filter_sigmas: tuple[float, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if not _positive(self.sigma_pump):
            raise SpecInvariantError("pump bandwidth must be positive and finite")
        if not all(_positive(sig) for sig in self.filter_sigmas):
            raise SpecInvariantError("filter bandwidths must be positive and finite")


def _positive(x: float) -> bool:
    return math.isfinite(x) and x > 0


def make_aom(spec: AomSpec) -> ElementOp:
    """Build the AOM mode map for the given wiring and phase convention."""
    t = complex(spec.t_amp)
    d = spec.d_amp if spec.phase_convention is Convention.PAPER_LITERAL else 1j * spec.d_amp
    high = spec.input_a.freq_bin
    low = spec.input_b.freq_bin
    out_hi = ModeLabel(spec.output_x, high)
    out_lo = ModeLabel(spec.output_y, low)
    images = {
        spec.input_a: ((out_hi, t), (out_lo, complex(d))),
        spec.input_b: ((out_hi, complex(d)), (out_lo, t)),
    }
    return ElementOp(
        name=spec.name,
        images=images,
        literal=spec.phase_convention is Convention.PAPER_LITERAL,
    )


def apply_element(s: StateVector | ArrayState, op: ElementOp) -> StateVector | ArrayState:
    """Evolve a state through one element (bosonic lift of its mode map).

    The element's modes that the state lacks enter as all-zero columns.
    Unitary-convention elements preserve the norm.  Literal maps rescale each
    input ket's image to that ket's weight, then renormalize the total, and
    the result carries ``non_unitary=True``.
    """
    return match_kind(s, engine.lift(as_arrays(s), op))


def make_source(spec: SourceSpec, modes: tuple[ModeLabel, ...] | None = None,
                alpha: float | list[float] | None = None) -> StateVector | ArrayState:
    """Two-term biphoton state of the source; alpha = pi/4 gives 1/sqrt(2) each.

    ``alpha`` replaces ``spec.alpha``.  Without ``modes``, returns a
    :class:`StateVector`; given ``modes``, the rows over those and the
    source's own as an :class:`~aomsim.engine.ArrayState`, a list of angles
    giving a batch.
    """
    rows = engine.source(spec, () if modes is None else modes, alpha)
    return rows if modes is not None else as_state(rows)


def apply_filter(s: StateVector | ArrayState, f: FilterSpec
                 ) -> tuple[StateVector | ArrayState, float]:
    """Project onto ``pass_bin`` on the filter path and renormalize.

    Kets carrying a photon on the path at any other bin are removed; kets with
    no photon on the path pass untouched.  Returns the surviving state and the
    survival probability (squared surviving norm of a normalized input).
    """
    survivors, prob = engine.filter_rows(as_arrays(s), f.path, f.pass_bin)
    return match_kind(s, survivors), prob


def check_bandwidth(c: BandwidthCheck) -> bool:
    """True iff the pump bandwidth is at least every filter bandwidth."""
    return all(c.sigma_pump >= sig for sig in c.filter_sigmas)
