"""The single-AOM laws of the paper's two schemes, over the whole (t, alpha, convention) plane.

Both shipped circuits are run with every AOM at transmitted amplitude ``t``
(diffracted amplitude ``d``, ``d**2 = 1 - t**2``), every source at angle
``alpha`` and every AOM under one drawn convention.  Write ``c = cos(alpha)``,
``s = sin(alpha)`` and ``d'`` for the diffracted coefficient, ``i*d`` under
the unitary convention and ``d`` under the literal one.

Two facts carry every derivation below.  An AOM conserves photon number, so
the photons over its two outputs are the photons that entered it, and a
herald on one AOM's output pair accepts exactly the product terms that sent
that many photons into it.  And the four product terms of the two sources
differ on the photons no AOM reads, so their images stay orthogonal: the
literal convention's rescale, which gives each input ket's image that ket's
weight, then leaves the total norm at 1, and every magnitude below is the
same under both conventions (a single photon's image has norm
``sqrt(t**2 + d**2) = 1`` already).

Angles whose branch amplitudes would leave the normal floats
(``0 < |sin 2 alpha| < 1e-100``) are left out: there rounding, not the law,
sets the error.
"""

import math
from pathlib import Path

from hypothesis import given, settings, strategies as st

from aomsim import Convention, compile_circuit, parse

CIRCUITS = Path(__file__).resolve().parent.parent / "circuits"
TOL = 1e-12

TRANSMISSIONS = st.floats(0.05, 0.95)
ANGLES = st.floats(-math.pi, math.pi).filter(lambda a: not 0.0 < abs(math.sin(2 * a)) < 1e-100)
CONVENTIONS = st.sampled_from([Convention.UNITARY, Convention.PAPER_LITERAL])


def run_shipped(name: str, t: float, alpha: float, convention: Convention):
    """``circuits/<name>.qc`` with every AOM at transmitted amplitude ``t``, run at ``alpha``."""
    lines = (CIRCUITS / f"{name}.qc").read_text().splitlines()
    text = "\n".join(f"{line} t={t!r}" if line.startswith("aom ") else line for line in lines)
    return compile_circuit(parse(text + "\n")).run(convention, alpha)


def binary_entropy(p: float) -> float:
    return -sum(q * math.log2(q) for q in (p, 1.0 - p) if q > 0.0)


@given(t=TRANSMISSIONS, alpha=ANGLES, convention=CONVENTIONS)
@settings(max_examples=60, deadline=None)
def test_swap_success_and_herald_entropies_over_the_plane(t, alpha, convention):
    """Swap success is ``sin²(2α)/2``; a same-side herald carries 1 ebit, a crossed one
    ``H2(t⁴/(t⁴+d⁴))``.

    The sources emit ``(c|1,2> + s|1',2'>)(c|3,4> + s|3',4'>)``.  A1 reads
    2 and 3, A2 reads 3' and 2', and the herald asks one photon of each.
    ``c²|1,2,3,4>`` puts two photons into A1 and none into A2, ``s²`` the
    reverse, so only the cross terms ``cs|1,4'>|2,3'>`` and
    ``sc|1',4>|3,2'>`` pass: success ``2c²s² = sin²(2α)/2``, for every ``t``.

    A1 sends 2@1 to ``t T1 + d' T1'`` and 3@0 to ``d' T1 + t T1'``; A2 sends
    3'@1 to ``t T2' + d' T2`` and 2'@0 to ``d' T2' + t T2``.  On a same-side
    herald (T1 and T2, or T1' and T2') the outer pairs ``|1,4'>`` and
    ``|1',4>`` get ``cs·t·d'`` and ``sc·d'·t``: equal magnitudes, so the cut
    {1, 1'} | {4, 4'} carries 1 ebit, and the herald has probability
    ``2c²s²t²d² = sin²(2α)/2 · t²d²``.  On a crossed herald (T1 and T2', or
    T1' and T2) they get ``t²`` and ``d'²`` times ``cs``: Schmidt weights
    ``t⁴`` and ``d⁴`` over ``t⁴ + d⁴``, entropy ``H2(t⁴/(t⁴+d⁴))`` and
    probability ``c²s²(t⁴ + d⁴) = sin²(2α)/4 · (t⁴ + d⁴)``.
    """
    result = run_shipped("swap", t, alpha, convention)
    t2, d2 = t * t, 1.0 - t * t
    assert abs(result.success_probability - math.sin(2 * alpha) ** 2 / 2) <= TOL
    accepted = [o for o in result.outcomes if o.accepted]
    assert len(accepted) == (4 if math.sin(2 * alpha) else 0)
    for o in accepted:
        counts = dict(o.pattern)
        if counts["T1"] == counts["T2"]:  # same side
            entropy, probability = 1.0, math.sin(2 * alpha) ** 2 / 2 * t2 * d2
        else:
            entropy = binary_entropy(t2 * t2 / (t2 * t2 + d2 * d2))
            probability = math.sin(2 * alpha) ** 2 / 4 * (t2 * t2 + d2 * d2)
        assert abs(o.metrics["entropy[1,1']"] - entropy) <= TOL, o.label
        assert abs(o.probability - probability) <= TOL, o.label


@given(t=TRANSMISSIONS, alpha=ANGLES, convention=CONVENTIONS)
@settings(max_examples=60, deadline=None)
def test_ghz_per_detector_probability_and_fidelity_over_the_plane(t, alpha, convention):
    """Each detector fires with probability ``sin²α cos²α`` and heralds fidelity ``1/2 + t·d``.

    The AOM reads 2@1 and 3@0 and sends 2@1 to ``t T'@1 + d' T@0`` and 3@0
    to ``d' T'@1 + t T@0``; the filters pass both images (T at bin 0, T' at
    bin 1).  One click needs one photon in the AOM, so ``c²`` (two photons)
    and ``s²`` (none) fail, and the click on T leaves
    ``cs·d'|1@0,3'@1,4'@0> + sc·t|1'@1,2'@0,4@1>``: probability
    ``c²s²(d² + t²) = c²s²``, for every ``t``.  The click on T' swaps ``t``
    and ``d'``.  Normalized, the two GHZ branches have magnitudes ``d`` and
    ``t``, so the phase-maximized fidelity ``(|a| + |b|)²/2`` is
    ``(t + d)²/2 = 1/2 + t·d``, whatever ``alpha`` and the convention.
    """
    result = run_shipped("ghz", t, alpha, convention)
    c2s2 = (math.sin(alpha) * math.cos(alpha)) ** 2
    accepted = [o for o in result.outcomes if o.accepted]
    assert sorted(o.label for o in accepted) == (["T=0,T'=1", "T=1,T'=0"] if c2s2 else [])
    for o in accepted:
        assert abs(o.probability - c2s2) <= TOL, o.label
        assert abs(o.metrics["ghz_fidelity"] - (0.5 + t * math.sqrt(1.0 - t * t))) <= TOL, o.label
