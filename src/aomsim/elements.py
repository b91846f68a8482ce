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

The lift of a mode map to multi-photon kets expands only the touched modes
of each ket: the modes on the element's input paths, plus any occupied mode
that an image photon could land on (so its ``sqrt(n!)`` weight stays exact).
The untouched remainder is appended to every image ket unchanged.  Each
:class:`ElementOp` caches the image of every touched sub-ket it has lifted,
so a state of thousands of kets costs a handful of expansions; for that
reason an op's ``images`` must not be mutated after its first use.

Sources are two-photon emitters ``cos(a)|arm pair> + sin(a)|alt pair>``;
filters are ideal frequency-bin projectors; physical bandwidth enters only
through :func:`check_bandwidth`.  Every spec rejects non-finite numbers.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property

from .errors import SpecInvariantError, UnexpectedFrequencyError, ZeroStateError
from .states import FockKet, ModeLabel, StateVector, normalize

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

    The op memoises the lifted image of each touched sub-ket it has seen
    (see :func:`apply_element`), so ``images`` must not be mutated after the
    op's first use; build a new op instead.
    """

    name: str
    images: dict[ModeLabel, tuple[tuple[ModeLabel, complex], ...]]
    literal: bool = False
    _lifted: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def input_paths(self) -> frozenset[str]:
        return frozenset(m.path for m in self.images)

    @cached_property
    def output_modes(self) -> tuple[ModeLabel, ...]:
        return tuple(sorted({m for targets in self.images.values() for m, _ in targets}))

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


def _lift_sub(
    sub: tuple[tuple[ModeLabel, int], ...],
    rest_factorials: int,
    images: dict[ModeLabel, tuple[tuple[ModeLabel, complex], ...]],
) -> tuple[tuple[tuple[tuple[ModeLabel, int], ...], complex], ...]:
    """Image of the touched part ``sub`` of a ket under the bosonic lift.

    Each touched photon is expanded through its mode's image (identity for a
    mode listed only as an output), and the creation-operator polynomial is
    converted back to occupation pairs with the usual sqrt(n!) weights.
    ``rest_factorials`` is prod(n!) over the untouched remainder of the ket,
    which enters those weights as if the remainder had been expanded too, so
    the amplitudes round exactly as a full expansion of the ket would.
    """
    poly: dict[tuple[ModeLabel, ...], complex] = {(): 1.0 + 0j}
    denom = float(rest_factorials)
    for mode, n in sub:
        denom *= math.factorial(n)
        targets = images.get(mode, ((mode, 1.0 + 0j),))
        for _ in range(n):
            grown: dict[tuple[ModeLabel, ...], complex] = {}
            for mono, coeff in poly.items():
                for out_mode, w in targets:
                    key = tuple(sorted(mono + (out_mode,)))
                    grown[key] = grown.get(key, 0j) + coeff * w
            poly = grown
    image: dict[tuple[tuple[ModeLabel, int], ...], complex] = {}
    scale = 1.0 / math.sqrt(denom)
    for mono, coeff in poly.items():
        if coeff == 0j:
            continue
        counts: dict[ModeLabel, int] = {}
        for m in mono:
            counts[m] = counts.get(m, 0) + 1
        num = float(rest_factorials)
        for c in counts.values():
            num *= math.factorial(c)
        pairs = tuple(counts.items())  # sorted, since mono is
        image[pairs] = image.get(pairs, 0j) + coeff * math.sqrt(num) * scale
    return tuple(image.items())


def _lift_ket(k: FockKet, op: ElementOp, outputs: frozenset[ModeLabel]
              ) -> tuple[list[tuple[FockKet, complex]], float]:
    """Image of one basis ket under the bosonic lift of ``op``, and its norm.

    Only the touched modes are expanded: those on the op's input paths, plus
    any occupied mode among ``outputs`` (the op's output modes), whose count
    an image photon could raise.  The touched sub-ket's image comes from the
    op's cache; the untouched remainder is appended to each image ket.
    """
    images = op.images
    sub: list[tuple[ModeLabel, int]] = []
    rest: list[tuple[ModeLabel, int]] = []
    rest_factorials = 1
    for pair in k.pairs:
        mode = pair[0]
        if mode in images:
            sub.append(pair)
        elif mode[0] in op.input_paths:
            raise UnexpectedFrequencyError(
                f"{op.name}: photon at {mode} on an input path, but the element "
                f"expects bins {sorted(m.freq_bin for m in images if m.path == mode.path)}"
            )
        elif mode in outputs:
            sub.append(pair)
        else:
            rest.append(pair)
            if pair[1] > 1:
                rest_factorials *= math.factorial(pair[1])
    key = (tuple(sub), rest_factorials)
    lifted = op._lifted.get(key)
    if lifted is None:
        image = _lift_sub(key[0], rest_factorials, images)
        norm = math.sqrt(sum(abs(c) ** 2 for _, c in image))
        lifted = op._lifted[key] = (image, norm)
    image, norm = lifted
    if rest:
        tail = tuple(rest)
        return [(FockKet._canonical(tuple(sorted(pairs + tail))), c) for pairs, c in image], norm
    return [(FockKet._canonical(pairs), c) for pairs, c in image], norm


def apply_element(s: StateVector, op: ElementOp) -> StateVector:
    """Evolve a state through one element (bosonic lift of its mode map).

    Unitary-convention elements preserve the norm.  Literal maps rescale each
    input ket's image to that ket's weight, then renormalize the total, and
    the result carries ``non_unitary=True``.
    """
    outputs = frozenset(op.output_modes)
    out: dict[FockKet, complex] = {}
    for k, amp in s.sorted_items():
        image, image_norm = _lift_ket(k, op, outputs)
        if op.literal and image_norm > 0.0:
            amp = amp / image_norm
        for out_ket, coeff in image:
            out[out_ket] = out.get(out_ket, 0j) + amp * coeff
    result = StateVector(out, non_unitary=s.non_unitary or op.literal)
    if op.literal and result.terms:
        result = normalize(result)
    return result


def make_source(spec: SourceSpec) -> StateVector:
    """Two-term biphoton state of the source; alpha = pi/4 gives 1/sqrt(2) each."""
    c, s = math.cos(spec.alpha), math.sin(spec.alpha)
    arm_ket = FockKet.from_modes(spec.arms)
    alt_ket = FockKet.from_modes(spec.alt)
    return StateVector({arm_ket: complex(c), alt_ket: complex(s)})


def apply_filter(s: StateVector, f: FilterSpec) -> tuple[StateVector, float]:
    """Project onto ``pass_bin`` on the filter path and renormalize.

    Kets carrying a photon on the path at any other bin are removed; kets with
    no photon on the path pass untouched.  Returns the surviving state and the
    survival probability (squared surviving norm of a normalized input).
    """
    survivors: dict[FockKet, complex] = {}
    for k, amp in s.terms.items():
        blocked = any(
            m.path == f.path and m.freq_bin != f.pass_bin for m, _ in k.items()
        )
        if not blocked:
            survivors[k] = amp
    surviving = StateVector(survivors, non_unitary=s.non_unitary)
    prob = surviving.norm() ** 2
    if prob == 0.0:
        raise ZeroStateError(f"filter on {f.path} (pass bin {f.pass_bin}) removed every term")
    return normalize(surviving), prob


def check_bandwidth(c: BandwidthCheck) -> bool:
    """True iff the pump bandwidth is at least every filter bandwidth."""
    return all(c.sigma_pump >= sig for sig in c.filter_sigmas)
