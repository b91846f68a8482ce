"""Dense brute-force verification path for element application.

Instead of the array engine's lift (:mod:`aomsim.engine`, behind
:func:`aomsim.elements.apply_element`), which expands each distinct
sub-occupation as a creation-operator polynomial, this module enumerates the
full occupation basis over the closed mode set and evaluates every output
amplitude through matrix permanents:

    <k| lift(M) |n> = per(M[k_rows, n_cols]) / sqrt(prod(k!) * prod(n!))

where rows and columns are repeated according to the occupations.  The two
routes share no code beyond the data types, so agreement is a real check.
Caps on mode and photon counts keep the enumerated basis at desk scale.
"""

from __future__ import annotations

import math
from itertools import combinations_with_replacement

import numpy as np

from .errors import CapExceededError, UnexpectedFrequencyError
from .states import FockKet, ModeLabel, StateVector
from .elements import ElementOp

__all__ = ["dense_oracle_apply", "permanent", "DEFAULT_MODE_CAP", "DEFAULT_PHOTON_CAP"]

DEFAULT_MODE_CAP = 12
DEFAULT_PHOTON_CAP = 4


def permanent(a: np.ndarray) -> complex:
    """Permanent of a square matrix via Ryser's inclusion-exclusion formula."""
    return complex(_permanents_stacked(np.asarray(a, dtype=complex)[None])[0])


def _permanents_stacked(stack: np.ndarray) -> np.ndarray:
    """Ryser permanents of a (R, p, p) stack, vectorized over the first axis.

    A matrix with an all-zero row or column has permanent exactly 0, where
    Ryser's signed sum would leave rounding noise.
    """
    r, p, _ = stack.shape
    if p == 0:
        return np.ones(r, dtype=complex)
    out = np.zeros(r, dtype=complex)
    for mask in range(1, 1 << p):
        cols = [j for j in range(p) if mask >> j & 1]
        sign = -1.0 if (p - len(cols)) % 2 else 1.0
        out += sign * stack[:, :, cols].sum(axis=2).prod(axis=1)
    zero = stack == 0
    out[zero.all(axis=2).any(axis=1) | zero.all(axis=1).any(axis=1)] = 0j
    return out


def _closure_modes(s: StateVector, op: ElementOp) -> list[ModeLabel]:
    closure: set[ModeLabel] = set()
    for k in s.terms:
        for mode, _ in k.items():
            closure.add(mode)
            if mode in op.images:
                closure.update(m for m, _ in op.images[mode])
    return sorted(closure)


def dense_oracle_apply(
    s: StateVector,
    op: ElementOp,
    mode_cap: int = DEFAULT_MODE_CAP,
    photon_cap: int = DEFAULT_PHOTON_CAP,
) -> StateVector:
    """Apply ``op`` by dense enumeration; must agree with the array engine.

    Mirrors :func:`aomsim.elements.apply_element` exactly, including the
    wrong-bin wiring check and the per-ket rescaling of literal maps.
    Raises :class:`CapExceededError` when the closed mode set exceeds
    ``mode_cap`` or any ket carries more than ``photon_cap`` photons.
    """
    for k in s.terms:
        for mode, _ in k.items():
            if mode.path in op.input_paths and mode not in op.images:
                raise UnexpectedFrequencyError(
                    f"{op.name}: photon at {mode} on an input path with an unexpected bin"
                )

    modes = _closure_modes(s, op)
    if len(modes) > mode_cap:
        raise CapExceededError(f"{len(modes)} modes in closure exceeds cap {mode_cap}")
    photon_counts = {k.total_photons() for k in s.terms}
    if any(n > photon_cap for n in photon_counts):
        raise CapExceededError(f"photon number exceeds cap {photon_cap}")

    index = {m: i for i, m in enumerate(modes)}
    m_single = np.eye(len(modes), dtype=complex)
    for src, targets in op.images.items():
        if src not in index:
            continue
        col = np.zeros(len(modes), dtype=complex)
        for out_mode, w in targets:
            col[index[out_mode]] += w
        m_single[:, index[src]] = col

    out_amps: dict[FockKet, complex] = {}
    for n in sorted(photon_counts):
        rows = np.array(list(combinations_with_replacement(range(len(modes)), n)),
                        dtype=int)
        if rows.ndim == 1:
            rows = rows.reshape(len(rows), 0)
        row_norms = np.array([_occupation_norm(tuple(r)) for r in rows])
        kets = [_ket_from_indices(tuple(r), modes) for r in rows]
        for k, amp in s.sorted_items():
            if k.total_photons() != n:
                continue
            cols: list[int] = []
            col_norm = 1.0
            for mode, cnt in k.items():
                cols.extend([index[mode]] * cnt)
                col_norm *= math.factorial(cnt)
            stack = m_single[rows[:, :, None], np.array(cols, dtype=int)[None, None, :]]
            column = _permanents_stacked(stack) / (row_norms * math.sqrt(col_norm))
            if op.literal:
                norm = float(np.linalg.norm(column))
                if norm > 0.0:
                    column = column / norm
            for out_ket, value in zip(kets, amp * column):
                if value != 0j:
                    out_amps[out_ket] = out_amps.get(out_ket, 0j) + complex(value)

    result = StateVector(out_amps, non_unitary=s.non_unitary or op.literal)
    if op.literal and result.terms:
        total = float(np.linalg.norm(list(result.terms.values())))
        result = result.scaled(1.0 / total)
    return result


def _occupation_norm(row: tuple[int, ...]) -> float:
    norm = 1.0
    run = 1
    for i in range(1, len(row)):
        run = run + 1 if row[i] == row[i - 1] else 1
        norm *= run if run > 1 else 1
    # product over multiplicities m of m! equals the running product above
    return math.sqrt(norm)


def _ket_from_indices(row: tuple[int, ...], modes: list[ModeLabel]) -> FockKet:
    counts: dict[ModeLabel, int] = {}
    for i in row:
        counts[modes[i]] = counts.get(modes[i], 0) + 1
    return FockKet(counts)
