"""Compiled array engine: occupation matrices evolved by vectorised kernels.

A state over a fixed, sorted tuple of modes (one column per mode) is an
occupation matrix ``occ: int8[terms, modes]`` plus an amplitude vector
``amp: complex128[terms]``, held by :class:`ArrayState`.  The kernels here
build the source tensor product by broadcasting, lift element mode maps,
filter rows and group rows by herald pattern.  ``FockKet`` and
``StateVector`` appear only at the API boundary (:mod:`aomsim.states`).

Rows are in ket order, as ``FockKet`` sorts them (:func:`ket_order`): the
kernels that make rows emit them so, those that drop rows keep the order,
and a ``StateVector``'s terms are put in it where they enter
(:func:`aomsim.states.as_arrays`).
Complex products and quotients are written out in real parts exactly as
Python evaluates them, so amplitudes are bit-identical to a ket-by-ket
evolution with Python complex numbers.

Every floating-point sum in the engine is one ``np.bincount`` with
weights, which adds each bin's values from 0.0 in input order, as
``total += x`` adds them: the lift's merge of duplicate rows, the norms of
spans of rows (:func:`span_norms`) and the photon-count probabilities.  A
norm's squares are ``np.float_power(np.hypot(re, im), 2.0)``, Python's
``abs(a) ** 2`` bit for bit (``np.abs`` and ``x * x`` round differently in
the last bit), so a norm and the probability ``norm ** 2`` have the bits
of that Python loop on any Python version (the built-in ``sum``
compensates from Python 3.12).

One routine rescales to unit norm, :func:`unit`, span by span (a state, or
each outcome of a herald); :func:`unit_rows`, which also drops the rows that
underflowed, serves :func:`normalize`, :func:`filter_rows`, the literal
:func:`lift` and the herald (:func:`aomsim.experiments.post_select`).

The lift groups rows by their occupation of the element's modes (inputs
plus outputs).  Each distinct sub-occupation is expanded once through the
bosonic lift (:func:`_lift_sub`); the image tables are memoised by element
map and sub-occupation, the amplitude sharing of SLOS (Heurtel et al.,
arXiv:2206.10549).  Rows are expanded with ``np.repeat`` and duplicates are
merged with a stable grouping on packed row keys and ``np.bincount``.

Row plans (order, grouping, expansion) depend only on the occupations, so
those of small matrices are memoised (:func:`memo_small`).

A batch of states that share their occupations, such as the angles of a
parameter sweep, is one :class:`ArrayState` whose amplitudes carry a
leading batch axis: ``amp: complex128[members, terms]``.  The kernels are
written once, over ``amp[..., terms]``; a single state is the batch without
that axis.  Each member gets exactly the arithmetic it would get on its own
(each member's squares are summed along its own row), so a batch is
bit-identical to evolving its members one by one.  Where a kernel drops
rows whose amplitude is zero, every member must drop the same rows: if
their masks differ, the kernel raises :class:`BatchSplit` with the groups
of members that agree, and :func:`in_batches` evolves each group again as
a batch of its own, by the same code.

:data:`TERM_BUDGET` bounds every step: a source, tensor product or lift
whose amplitudes (members times rows) would pass it splits its batch into
chunks that fit (:class:`BatchSplit`), and a single state that would pass
it raises :class:`CapExceededError` first, as does a lift whose image could
put more photons in one mode than ``int8`` holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, wraps

import numpy as np

from .errors import (
    CapExceededError,
    NonFiniteError,
    OverlappingPathsError,
    SpecInvariantError,
    UnexpectedFrequencyError,
    ZeroStateError,
)

__all__ = [
    "TERM_BUDGET",
    "MAX_OCCUPATION",
    "ArrayState",
    "BatchSplit",
    "in_batches",
    "select",
    "kept_rows",
    "memo_small",
    "ket_order",
    "norm",
    "span_norms",
    "squared",
    "unit",
    "unit_rows",
    "normalize",
    "source",
    "tensor",
    "lift",
    "filter_rows",
    "herald_groups",
    "count_distribution",
]

TERM_BUDGET = 1 << 20
"""Most rows (terms) one step may allocate, counted over every member of a batch.

The largest step of a k=7 swap chain holds 235,298 rows over 52 modes; a
k=8 chain would pass the budget.  That step's lift peaks at 143 MB of
traced allocations, 637 bytes per output row (about 12 per row and mode),
where its occupation matrix takes 52 bytes per row; about half of it is
the int64 copy of the key matrix that :func:`_pack` multiplies.  At 2^20
rows and 100 modes the occupation matrix alone takes 100 MB, 2^20
amplitudes take 16 MB, and a lift at that rate would peak near 1.3 GB.
"""

MAX_OCCUPATION = int(np.iinfo(np.int8).max)

_SMALLEST_NORMAL = float(np.finfo(float).tiny)
_LARGEST = float(np.finfo(float).max)
_LARGEST_ROOT = math.sqrt(_LARGEST)  # the largest float whose square is finite
_UP = 2.0 ** 600  # an exact power of two that lifts a subnormal norm's amplitudes to normal

# Row plans of occupation matrices with at most this many rows are memoised
# (see memo_small); the bound keeps the cached keys and plans small.
_MEMO_ROWS = 32


@dataclass(frozen=True, eq=False)
class ArrayState:
    """Occupation matrix over sorted ``modes`` plus one amplitude per row.

    ``amp`` is ``complex128[terms]`` for one state, or
    ``complex128[members, terms]`` for a batch of states that share the
    occupations.  Rows are distinct kets, in ket order, with nonzero
    amplitudes in every member; every kernel keeps that.  Occupations of
    another integer type are converted to ``int8``, and raise
    :class:`CapExceededError` if a count does not fit.
    """

    modes: tuple
    occ: np.ndarray
    amp: np.ndarray
    non_unitary: bool = False

    def __post_init__(self):
        if self.occ.dtype != np.int8:
            if self.occ.size and not 0 <= self.occ.min() <= self.occ.max() <= MAX_OCCUPATION:
                raise CapExceededError(f"occupations must lie in 0..{MAX_OCCUPATION}")
            object.__setattr__(self, "occ", self.occ.astype(np.int8))
        if self.amp.dtype != complex:
            object.__setattr__(self, "amp", self.amp.astype(complex))

    @property
    def terms(self) -> range:
        """For ``len(state.terms)``, the number of terms, as for a ``StateVector``."""
        return range(self.amp.shape[-1])


class BatchSplit(Exception):
    """A batch that cannot go on as one: ``groups`` lists the members of each part.

    Raised by a kernel in place of its result (for the budget, before it
    allocates), and handled by :func:`in_batches`, which evolves each group
    as a batch of its own; only a batch raises it, never a single state.
    """

    def __init__(self, groups: list[np.ndarray]):
        super().__init__(f"batch split into {len(groups)} groups")
        self.groups = groups


def in_batches(evolve, members: int) -> list:
    """``evolve`` over members ``0..members-1`` as one batch: one result per member, in order.

    ``evolve(index)`` evolves the members in the index array as one batch
    and returns one result per member.  When a kernel splits that batch
    (:class:`BatchSplit`), each group is evolved again, by the same
    function, and may split further; a group is always smaller than its
    batch, so this ends with batches of one member at worst.
    """
    def run(index: np.ndarray) -> list:
        try:
            return list(evolve(index))
        except BatchSplit as split:
            out = [None] * len(index)
            for group in split.groups:
                for i, result in zip(group.tolist(), run(index[group])):
                    out[i] = result
            return out

    return run(np.arange(members))


def select(amp: np.ndarray, index) -> np.ndarray:
    """``amp[..., index]``: the given terms of a state, or of every member of a batch.

    Indexes the terms axis directly; numpy's ``...`` indexing costs a few
    times more per call on small arrays.
    """
    return amp[index] if amp.ndim == 1 else amp[:, index]


def _batch_size(amp: np.ndarray) -> int:
    """Members in ``amp[..., terms]``: a single state is one."""
    return len(amp) if amp.ndim > 1 else 1


def _check_budget(rows: int, what: str, members: int = 1):
    """Rows per member of a step: over budget for one member raises, else chunks the batch."""
    if rows > TERM_BUDGET:
        raise CapExceededError(
            f"{what} would hold {rows} terms, over the engine's budget of {TERM_BUDGET}"
        )
    if rows * members > TERM_BUDGET:
        step = TERM_BUDGET // rows
        raise BatchSplit([np.arange(i, min(i + step, members)) for i in range(0, members, step)])


# ---------------------------------------------------------------- arithmetic


def _cmul(a, b) -> np.ndarray:
    """``a * b`` as Python multiplies complex numbers: no fused multiply-add."""
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _cdiv(a: np.ndarray, d: np.ndarray) -> np.ndarray:
    """``a / d`` for real ``d > 0`` as Python divides a complex by a float."""
    out = np.empty(a.shape, dtype=complex)
    out.real = (a.real + a.imag * 0.0) / d
    out.imag = (a.imag - a.real * 0.0) / d
    return out


def _nonzero(amp: np.ndarray) -> np.ndarray:
    return np.hypot(amp.real, amp.imag) > 0.0


def kept_rows(amp: np.ndarray) -> np.ndarray:
    """Mask of the rows whose amplitude is nonzero, the same for every member.

    Members whose masks differ raise :class:`BatchSplit`, grouped by mask.
    Kernels keep the rows with ``occ.compress(keep, axis=0)``, which on
    numpy takes a fraction of the time of ``occ[keep]`` (15 against 57 µs
    on an ``int8`` matrix of 4,802 rows by 52 columns).
    """
    nz = _nonzero(amp)
    if nz.ndim == 1:
        return nz
    if len(nz) > 1 and not (nz == nz[0]).all():
        ids, first = _group(nz.view(np.int8))
        raise BatchSplit([np.flatnonzero(ids == g) for g in range(len(first))])
    return nz[0]


def _squares(amp: np.ndarray) -> np.ndarray:
    """``abs(a) ** 2`` of every amplitude, bit for bit as Python computes it.

    ``np.hypot`` gives Python's complex ``abs`` (``np.abs`` does not, in the
    last bit), and ``np.float_power(x, 2.0)`` its ``x ** 2``, the C ``pow``
    (``x * x`` and ``np.power`` round differently); a square past the
    largest float is ``inf``, where Python raises ``OverflowError``.
    """
    mag = np.hypot(amp.real, amp.imag)
    if mag.size and mag.max() > _LARGEST_ROOT:
        with np.errstate(over="ignore"):
            return np.float_power(mag, 2.0)
    return np.float_power(mag, 2.0)


def norm(amp: np.ndarray) -> float | list[float]:
    """Euclidean norm, squares summed in row order, as ``StateVector.norm`` sums its terms.

    The one-span case of :func:`span_norms`, with its bits and its rescale
    of a sum that under- or overflows; a batch gets a list with each
    member's norm.
    """
    return span_norms(amp, [amp.shape[-1]])[..., 0].tolist()


def span_norms(amp: np.ndarray, sizes: list[int]) -> np.ndarray:
    """Norms of consecutive spans of the terms, ``sizes[i]`` terms in span ``i``.

    Returns ``amp.shape[:-1] + (len(sizes),)``: a row of span norms per
    member of a batch.  Each term's square gets the id of its span, offset
    by ``member * len(sizes)`` in a batch, and one ``np.bincount`` adds them
    all in order, so each norm has the bits of ``math.sqrt`` of a
    left-to-right sum of Python's ``abs(a) ** 2`` on any Python version.  A
    nonempty span whose sum underflows or overflows is summed again, by a
    second ``np.bincount``, over the squared ratios to the span's own
    largest magnitude, so a tiny nonzero span never has norm 0 and a huge
    one never overflows; a norm past the largest float, or of an infinite
    or NaN amplitude, raises :class:`NonFiniteError`.  An empty span has
    norm 0.
    """
    members, spans = _batch_size(amp), len(sizes)
    ids = np.repeat(np.arange(spans), sizes)
    if amp.ndim > 1:
        ids = (ids + spans * np.arange(members)[:, None]).ravel()
    shape = amp.shape[:-1] + (spans,)
    total = np.bincount(ids, _squares(amp).ravel(), members * spans)
    n = np.sqrt(total).reshape(shape)
    fine = ((total >= _SMALLEST_NORMAL) & (total <= _LARGEST)).reshape(shape) | np.equal(sizes, 0)
    if fine.all():
        return n
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        peak = np.zeros(members * spans)
        np.maximum.at(peak, ids, np.abs(amp).ravel())
        ratio = np.hypot(amp.real, amp.imag).ravel() / peak[ids]
        scaled = np.bincount(ids, np.float_power(ratio, 2.0), members * spans)
        peak = peak.reshape(shape)
        n = np.where(fine | (peak == 0.0), n, peak * np.sqrt(scaled.reshape(shape)))
    if not np.isfinite(n).all():
        raise NonFiniteError("the norm of a state is not a finite number")
    return n


def squared(n: float | list[float] | np.ndarray) -> float | list[float]:
    """``n ** 2`` of a norm, or of each member's norm, as Python squares a float.

    Raises :class:`NonFiniteError` if a square passes the largest float.
    """
    n = np.asarray(n)
    if n.size and n.max() > _LARGEST_ROOT:
        raise NonFiniteError("a squared norm passes the largest float")
    return np.float_power(n, 2.0).tolist()


def _lifted(amp: np.ndarray) -> np.ndarray:
    """``amp * _UP``, exactly: the real and imaginary parts are scaled on their own."""
    out = np.empty(amp.shape, dtype=complex)
    out.real, out.imag = amp.real * _UP, amp.imag * _UP
    return out


def unit(amp: np.ndarray, sizes: list[int] | None = None, n: np.ndarray | None = None
         ) -> np.ndarray:
    """``amp`` with each span of terms over the span's norm.

    ``sizes`` counts the terms of consecutive spans, by default one span of
    every term, and ``n`` holds the span norms as :func:`span_norms` sums
    them, in order by one ``np.bincount`` (taken from ``amp`` if not
    given).  Raises :class:`ZeroStateError` for a span with terms whose
    norm is 0, or for no terms at all without ``sizes``; an empty span, such
    as an empty discard bucket, is left alone.  A norm below the smallest
    normal float has lost its significant bits, so the terms of that span
    are scaled by an exact power of two and divided by the norm of the
    scaled span, summed by the same ``np.bincount``; only those are scaled.
    """
    if sizes is None:
        if not amp.shape[-1]:
            raise ZeroStateError("cannot normalize a zero state")
        sizes = [amp.shape[-1]]
    n = np.repeat(span_norms(amp, sizes) if n is None else n, sizes, axis=-1)  # per term
    if not n.all():
        raise ZeroStateError("cannot normalize a zero state")
    if n.min(initial=math.inf) >= _SMALLEST_NORMAL:
        return _cmul(amp, 1.0 / n + 0j)
    tiny = n < _SMALLEST_NORMAL  # 1 / n would overflow
    # the other spans' terms lift to 1.0: lifted as they are they could overflow, and
    # zeroed they would read as underflowed and be summed again
    up = _lifted(np.where(tiny, amp, 1.0 / _UP))
    up_n = np.repeat(span_norms(up, sizes), sizes, axis=-1)
    return np.where(tiny, _cdiv(up, np.where(tiny, up_n, 1.0)),
                    _cmul(amp, 1.0 / np.maximum(n, _SMALLEST_NORMAL) + 0j))


def unit_rows(state: ArrayState, sizes: list[int] | None = None
              ) -> tuple[ArrayState, np.ndarray, list[int]]:
    """The state with each span of rows normalized (:func:`unit`), less rows that underflowed to 0.

    Returns that state, the span norms (:func:`span_norms`) and the bounds
    of the spans after the drop: span ``i`` is rows ``bounds[i]:bounds[i + 1]``.
    """
    spans = [len(state.occ)] if sizes is None else sizes
    n = span_norms(state.amp, spans)
    amp = unit(state.amp, sizes, n)
    occ, bounds = state.occ, np.cumsum([0, *spans])
    if np.count_nonzero(amp) < amp.size:  # a tiny amplitude underflowed to 0
        keep = kept_rows(amp)
        occ, amp = occ.compress(keep, axis=0), select(amp, keep)
        bounds = np.concatenate(([0], np.cumsum(keep)))[bounds]
    return ArrayState(state.modes, occ, amp, state.non_unitary), n, bounds.tolist()


def normalize(state: ArrayState) -> ArrayState:
    """Rescale to unit norm (:func:`unit_rows`); raises :class:`ZeroStateError` on a zero state."""
    return unit_rows(state)[0]


def _read_only(obj):
    """``obj`` with every array inside its tuples and lists made read-only."""
    if isinstance(obj, np.ndarray):
        obj.flags.writeable = False
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            _read_only(item)
    return obj


def memo_small(plan):
    """Memoise ``plan(occ, *key)`` for occupation matrices of at most ``_MEMO_ROWS`` rows.

    A plan is what a kernel does to the rows (order, grouping, expansion),
    which depends only on the occupations and ``key``; runs of one small
    circuit, as in a parameter sweep, then only redo the amplitudes.  The
    memoised arrays are shared between calls and read-only.
    """
    @lru_cache(maxsize=1024)
    def cached(raw: bytes, shape: tuple, *key):
        return _read_only(plan(np.frombuffer(raw, dtype=np.int8).reshape(shape), *key))

    @wraps(plan)
    def planned(occ: np.ndarray, *key):
        if len(occ) <= _MEMO_ROWS:
            return cached(occ.tobytes(), occ.shape, *key)
        return plan(occ, *key)

    planned.cache_info = cached.cache_info
    return planned


# ------------------------------------------------------------- row ordering


def _pack(values: np.ndarray) -> list[np.ndarray]:
    """Rows of non-negative integers as int64 words, first column most significant.

    Each column gets the bit width of its largest value, so comparing the
    words in order compares the rows lexicographically.
    """
    weights = [[0] * values.shape[1]]  # per word, the weight of each column
    used = 0
    for j, width in reversed(list(enumerate(
            int(w).bit_length() for w in values.max(axis=0).tolist()))):
        if used + width > 63:
            weights.insert(0, [0] * values.shape[1])
            used = 0
        if width:
            weights[0][j] = 1 << used
            used += width
    return [values @ np.array(w, dtype=np.int64) for w in weights]


def _group(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group equal rows: (group of each row, first row of each group).

    Groups are numbered in lexicographic row order, and a group's first row
    is its first occurrence.
    """
    if not len(values):
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    words = _pack(values)
    order = np.lexsort(words[::-1])  # stable, so each group starts at its first row
    new = np.zeros(len(order), dtype=bool)
    new[0] = True
    for w in words:
        ws = w[order]
        new[1:] |= ws[1:] != ws[:-1]
    ids = np.empty(len(order), dtype=np.intp)
    ids[order] = np.cumsum(new) - 1
    return ids, order[new]


def _ket_keys(occ: np.ndarray) -> np.ndarray:
    """Rows recoded so that they compare lexicographically as their kets compare.

    Kets compare as tuples of ``(mode, count)`` pairs, and columns are
    sorted by mode.  In packed form: at the first column where two rows
    differ, a smaller count comes first; a row with no photon there comes
    after, since its next pair has a later mode, unless it has no photon
    left at all, since a tuple that ends first is smaller.
    """
    if not occ.size:  # no rows, or only vacua
        return occ
    occupied = occ != 0
    # one past each row's last occupied column (0 for the vacuum)
    end = np.where(occupied.any(axis=1), occ.shape[1] - np.argmax(occupied[:, ::-1], axis=1), 0)
    gap = (np.arange(occ.shape[1]) < end[:, None]) & ~occupied
    return occ + gap * np.int16(int(occ.max()) + 1)


def ket_order(occ: np.ndarray) -> np.ndarray:
    """Row permutation listing kets as ``FockKet`` sorts them."""
    if not occ.size:
        return np.arange(len(occ))
    return np.lexsort(_pack(_ket_keys(occ))[::-1])


# ------------------------------------------------------------------ kernels


def source(spec, modes, alpha: float | list[float] | None = None) -> ArrayState:
    """Rows of ``cos(alpha)|arms> + sin(alpha)|alt>`` over ``modes``.

    ``alpha`` replaces ``spec.alpha``; a list of angles gives a batch with
    one member per angle; an empty list raises :class:`SpecInvariantError`.
    The two rows are in ket order, and a zero amplitude drops its row, as
    ``StateVector`` drops zero terms.
    """
    batch = isinstance(alpha, list)
    angles = alpha if batch else [spec.alpha if alpha is None else alpha]
    if not angles:
        raise SpecInvariantError(f"{spec.name}: a batch needs at least one angle")
    _check_budget(2, f"{spec.name} source", len(angles))
    if not all(map(math.isfinite, angles)):
        raise SpecInvariantError(f"{spec.name}: alpha must be a finite number")
    occ, arms_row = _source_rows(spec.arms, spec.alt, tuple(modes))
    amp = np.zeros((len(angles), 2), dtype=complex)
    amp.real[:, arms_row] = list(map(math.cos, angles))  # (a third of the time of a list of pairs)
    amp.real[:, 1 - arms_row] = list(map(math.sin, angles))
    if not batch:
        amp = amp[0]
    keep = kept_rows(amp)
    return ArrayState(tuple(modes), occ.compress(keep, axis=0), select(amp, keep))


@lru_cache(maxsize=256)
def _source_rows(arms: tuple, alt: tuple, modes: tuple) -> tuple[np.ndarray, int]:
    """A source's two rows over ``modes`` in ket order (read-only), and the row of ``arms``."""
    index = {m: j for j, m in enumerate(modes)}
    occ = np.zeros((2, len(modes)), dtype=np.int8)
    for r, pair in enumerate((arms, alt)):
        for m in pair:
            occ[r, index[m]] += 1
    order = ket_order(occ)
    return _read_only(occ[order]), int(order[0])  # two rows: order is its own inverse


@memo_small
def _tensor_plan(a: np.ndarray, modes: tuple, b_raw: bytes, b_shape: tuple):
    """The product's rows in ket order: the row of each operand in each, and their occupations."""
    b = np.frombuffer(b_raw, dtype=np.int8).reshape(b_shape)
    used_a, used_b = a.any(axis=0).tolist(), b.any(axis=0).tolist()
    shared = ({m[0] for m, x in zip(modes, used_a) if x}
              & {m[0] for m, y in zip(modes, used_b) if y})
    if shared:
        raise OverlappingPathsError(f"operands share path(s): {', '.join(sorted(shared))}")
    occ = (a[:, None, :] + b[None, :, :]).reshape(-1, len(modes))
    order = ket_order(occ)
    return order // len(b), order % len(b), occ[order]


def tensor(a: ArrayState, b: ArrayState) -> ArrayState:
    """Tensor product of states on disjoint path sets and the same columns.

    Each row is a ket of ``a`` times a ket of ``b``, rows in ket order.
    Batches multiply member by member.
    """
    if a.modes != b.modes:
        raise ValueError("tensor operands must share their columns")
    _check_budget(len(a.occ) * len(b.occ), "tensor product",
                  max(_batch_size(a.amp), _batch_size(b.amp)))
    plan = _tensor_plan if len(b.occ) <= _MEMO_ROWS else _tensor_plan.__wrapped__
    rows_a, rows_b, occ = plan(a.occ, a.modes, b.occ.tobytes(), b.occ.shape)
    amp = _cmul(select(a.amp, rows_a), select(b.amp, rows_b))
    keep = kept_rows(amp)
    return ArrayState(a.modes, occ.compress(keep, axis=0), select(amp, keep),
                      a.non_unitary or b.non_unitary)


def _lift_sub(sub, images) -> tuple:
    """Image of the sub-ket ``sub`` (sorted ``(mode, n)`` pairs) under the bosonic lift.

    Each photon is expanded through its mode's image (identity for a mode
    listed only as an output), and the creation-operator polynomial is
    converted back to occupation pairs with the usual sqrt(n!) weights.
    """
    poly: dict[tuple, complex] = {(): 1.0 + 0j}
    denom = 1.0
    for mode, n in sub:
        denom *= math.factorial(n)
        targets = images.get(mode, ((mode, 1.0 + 0j),))
        for _ in range(n):
            grown: dict[tuple, complex] = {}
            for mono, coeff in poly.items():
                for out_mode, w in targets:
                    key = tuple(sorted(mono + (out_mode,)))
                    grown[key] = grown.get(key, 0j) + coeff * w
            poly = grown
    image: dict[tuple, complex] = {}
    scale = 1.0 / math.sqrt(denom)
    for mono, coeff in poly.items():
        if coeff == 0j:
            continue
        counts: dict = {}
        for m in mono:
            counts[m] = counts.get(m, 0) + 1
        num = 1.0
        for c in counts.values():
            num *= math.factorial(c)
        pairs = tuple(counts.items())  # sorted, since mono is
        image[pairs] = image.get(pairs, 0j) + coeff * math.sqrt(num) * scale
    return tuple(image.items())


@lru_cache(maxsize=4096)
def _image_table(images: tuple, op_modes: tuple, sub: tuple[int, ...]):
    """Image of one sub-occupation of ``op_modes``: (occupations, amplitudes, norm).

    The arrays are shared between calls and read-only.
    """
    image = _lift_sub(tuple((m, n) for m, n in zip(op_modes, sub) if n), dict(images))
    index = {m: i for i, m in enumerate(op_modes)}
    occ = np.zeros((len(image), len(op_modes)), dtype=np.int8)
    for row, (pairs, _) in enumerate(image):
        for m, n in pairs:
            occ[row, index[m]] = n
    amp = np.array([c for _, c in image], dtype=complex)
    return _read_only((occ, amp, norm(amp)))


def _check_wiring(modes: tuple, occ: np.ndarray, name: str, images: dict):
    """A photon on an input path at a bin the element does not expect is a wiring error."""
    input_paths = {m[0] for m in images}
    stray = [j for j, m in enumerate(modes) if m[0] in input_paths and m not in images]
    if not stray:
        return
    hits = occ[:, stray] != 0
    bad_rows = hits.any(axis=1)
    if bad_rows.any():
        row = int(np.argmax(bad_rows))
        mode = modes[stray[int(np.argmax(hits[row]))]]
        expected = sorted(m.freq_bin for m in images if m.path == mode.path)
        raise UnexpectedFrequencyError(
            f"{name}: photon at {mode} on an input path, but the element "
            f"expects bins {expected}"
        )


@memo_small
def _lift_plan(occ: np.ndarray, modes: tuple, images: tuple, op_modes: tuple, name: str):
    """Rows of a lift: ``(rows, coeff, norms, ids, merged)``.

    Image term ``e`` multiplies input row ``rows[e]`` by ``coeff[e]``
    (literal maps first divide it by its image's norm ``norms[e]``) and adds
    into output row ``ids[e]``, whose occupations are ``merged[ids[e]]``.
    Input rows are visited in their own order, which is ket order, and
    output rows are numbered in ket order.
    """
    table = dict(images)
    touched = [modes.index(m) for m in op_modes]
    _check_wiring(modes, occ, name, table)
    sub_ids, first = _group(occ[:, touched])
    tables = []
    for sub in occ[first][:, touched].tolist():
        if sum(sub) > MAX_OCCUPATION:
            raise CapExceededError(
                f"{name}: {sum(sub)} photons meet in one element, over {MAX_OCCUPATION}"
            )
        tables.append(_image_table(images, op_modes, tuple(sub)))
    sizes = np.array([len(t[1]) for t in tables], dtype=np.intp)
    reps = sizes[sub_ids]
    total = int(reps.sum())
    _check_budget(total, f"{name} lift")

    # image term e is entry (e - first term of its input row) of that row's
    # image table, concatenated after the tables before it
    rows = np.repeat(np.arange(len(occ)), reps)
    offset = np.cumsum(sizes) - sizes
    entry = np.arange(total) - np.repeat(np.cumsum(reps) - reps - offset[sub_ids], reps)
    coeff = np.concatenate([t[1] for t in tables])[entry]
    norms = np.array([t[2] for t in tables])[sub_ids][rows]
    out = occ[rows]
    out[:, touched] = np.concatenate([t[0] for t in tables])[entry]
    ids, first = _group(_ket_keys(out))  # groups in ket order
    return rows, coeff, norms, ids, out[first]


def lift(state: ArrayState, op) -> ArrayState:
    """Evolve through one element: the bosonic lift of its single-photon mode map.

    Every mode of ``op`` must be a column of ``state``.  Unitary maps keep
    the norm.  Literal maps rescale each input ket's image to that ket's
    weight, then renormalize the total, and flag the result ``non_unitary``.
    Duplicates are merged per member with ``np.bincount`` on output ids
    offset by ``member * rows``, so each output row adds its image terms in
    input order; output rows are in ket order.
    """
    op_modes = op.modes
    missing = set(op_modes) - set(state.modes)
    if missing:
        raise ValueError(f"{op.name}: modes {sorted(missing)} are not columns of the state")
    non_unitary = state.non_unitary or op.literal
    if not len(state.occ):
        _check_wiring(state.modes, state.occ, op.name, op.images)
        return ArrayState(state.modes, state.occ, state.amp, non_unitary)
    rows, coeff, norms, ids, merged = _lift_plan(
        state.occ, state.modes, tuple(op.images.items()), op_modes, op.name)
    members = _batch_size(state.amp)
    _check_budget(len(rows), f"{op.name} lift", members)
    amp = select(state.amp, rows)
    if op.literal:
        amp = _cdiv(amp, norms)
    values = _cmul(amp, coeff).ravel()
    n = len(merged)
    if members > 1:  # member m adds into bins m * n .. m * n + n - 1
        ids = (ids + n * np.arange(members)[:, None]).ravel()
    out = np.empty(state.amp.shape[:-1] + (n,), dtype=complex)
    out.real = np.bincount(ids, values.real, members * n).reshape(out.shape)
    out.imag = np.bincount(ids, values.imag, members * n).reshape(out.shape)
    keep = kept_rows(out)
    result = ArrayState(state.modes, merged.compress(keep, axis=0), select(out, keep), non_unitary)
    if op.literal and len(result.occ):
        result = normalize(result)
    return result


def filter_rows(state: ArrayState, path: str, pass_bin: int) -> tuple[ArrayState, float]:
    """Keep rows with no photon on ``path`` outside ``pass_bin``, then renormalize.

    Returns the surviving state and its squared norm before renormalizing
    (a list with one per member, for a batch).
    """
    blocked = [j for j, m in enumerate(state.modes) if m[0] == path and m[1] != pass_bin]
    if blocked:
        keep = ~(state.occ[:, blocked] != 0).any(axis=1)
        state = ArrayState(state.modes, state.occ.compress(keep, axis=0),
                           select(state.amp, keep), state.non_unitary)
    if not len(state.occ):
        raise ZeroStateError(f"filter on {path} (pass bin {pass_bin}) removed every term")
    survivors, n, _ = unit_rows(state)
    return survivors, squared(n[..., 0])


def _path_counts(occ: np.ndarray, modes: tuple, paths) -> np.ndarray:
    """Photons per row on each of ``paths``.

    Column sums per path, not a matrix product: numpy's integer matmul is
    slow, and a float one starts BLAS, whose buffers cost megabytes of RSS.
    """
    counts = np.zeros((len(occ), len(paths)), dtype=np.int32)
    for i, path in enumerate(paths):
        cols = [j for j, m in enumerate(modes) if m[0] == path]
        if cols:
            counts[:, i] = occ[:, cols].sum(axis=1, dtype=np.int32)
    return counts


def herald_groups(occ: np.ndarray, modes: tuple, paths: tuple[str, ...], clauses
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Rows grouped by their photon-count pattern over ``paths``.

    Returns ``(ids, patterns, sizes, accepted)``: ``ids`` gives each row's
    group; ``patterns``, ``sizes`` and ``accepted`` are per group, groups in
    sorted pattern order.  A pattern is accepted iff every ``(clause paths,
    count)`` total matches.
    """
    counts = _path_counts(occ, modes, paths)
    ids, first = _group(counts)
    patterns = counts[first]
    index = {p: i for i, p in enumerate(paths)}
    accepted = np.ones(len(first), dtype=bool)
    for clause_paths, required in clauses:
        accepted &= patterns[:, [index[p] for p in clause_paths]].sum(axis=1) == required
    return ids, patterns, np.bincount(ids, minlength=len(first)), accepted


def count_distribution(state: ArrayState, paths) -> dict[int, float]:
    """Probability of each total photon count over ``paths``, summed in ket order (one state).

    Each count's squares (:func:`_squares`) are added in row order by
    ``np.bincount``, as ``total += abs(a) ** 2`` adds them.  Raises
    :class:`NonFiniteError` if a probability passes the largest float.
    """
    totals = _path_counts(state.occ, state.modes, sorted(set(paths))).sum(axis=1)
    probs = np.bincount(totals, _squares(state.amp))
    if not np.isfinite(probs).all():
        raise NonFiniteError("a photon-count probability passes the largest float")
    counts = np.flatnonzero(np.bincount(totals))
    return dict(zip(counts.tolist(), probs[counts].tolist()))
