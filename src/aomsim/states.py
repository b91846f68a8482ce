"""Fock states over (path, frequency-bin) modes, and the state algebra.

A mode is a photon "slot" identified by a path name and an integer frequency
bin: bin ``n`` stands for the optical frequency ``omega + n * delta`` on an
implicit grid, so frequency equality is exact integer equality.  A
:class:`ModeLabel` is a ``tuple`` subclass, so it hashes, compares and sorts
as the plain tuple ``(path, freq_bin)`` does, at C speed, and compares equal
to that tuple.  Multi-photon basis states are occupation maps over modes
(:class:`FockKet`), and a state is a sparse complex-amplitude map over such
kets (:class:`StateVector`).

``StateVector`` is the API boundary of the array engine
(:mod:`aomsim.engine`), which evolves occupation matrices:
:func:`as_arrays` and :func:`as_state` convert between the two, rows in ket
order, the one through :func:`aomsim.engine.occupations` and the other
through ``StateVector``'s own constructor, and :func:`tensor` is a wrapper
over the engine's broadcasting kernel.  Like the element and herald
wrappers, it also takes an :class:`~aomsim.engine.ArrayState` and then
returns one, so a compiled pipeline runs through the same public functions
without building kets.

The module also provides the linear-algebra layer used on results: inner
products, partial traces (:func:`reduced_density`), bipartite entanglement
entropy, and a phase-maximized fidelity against two-branch superposition
targets (:func:`ghz_fidelity`).  Partial traces and entropies run on the
engine's rows, of one state or of a list of states at once (a herald's
accepted outcomes), with the sums of a trace state by state, so a batch
gives each state the same bits as a call of its own.  A path set is a
collection of path names, never a bare ``str``, and an infinite or NaN
amplitude raises :class:`NonFiniteError` before a trace multiplies it.

Everything here is value-like: kets are immutable, states are never mutated
after construction, and every operation returns a fresh object, so instances
can be shared freely across threads.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterable, Mapping

import numpy as np

from . import engine
from .engine import ArrayState
from .errors import NonFiniteError, ZeroStateError

__all__ = [
    "ModeLabel",
    "FockKet",
    "StateVector",
    "DensityMatrix",
    "ket",
    "as_arrays",
    "as_state",
    "kets",
    "match_kind",
    "shared_columns",
    "tensor",
    "inner",
    "normalize",
    "reduced_density",
    "entanglement_entropy",
    "ghz_fidelity",
]


class ModeLabel(tuple):
    """A single-photon mode: a path name plus an integer frequency bin.

    A mode is the tuple ``(path, freq_bin)``, so hashing, equality and
    ordering run at C speed, and a mode compares equal to the plain tuple
    ``(path, freq_bin)``.  Ordering is lexicographic by ``(path, freq_bin)``
    and is the canonical ordering used everywhere (ket storage, iteration,
    serialization).
    """

    __slots__ = ()

    def __new__(cls, path: str, freq_bin: int):
        if not path:
            raise ValueError("mode path must be a non-empty string")
        try:
            freq_bin = operator.index(freq_bin)
        except TypeError:
            raise ValueError(f"mode frequency bin must be an integer, not {freq_bin!r}") from None
        return tuple.__new__(cls, (path, freq_bin))

    path = property(operator.itemgetter(0), doc="Path name.")
    freq_bin = property(operator.itemgetter(1), doc="Integer frequency bin.")

    def __getnewargs__(self):
        return tuple(self)

    def __str__(self) -> str:
        return f"{self[0]}@{self[1]}"

    def __repr__(self) -> str:
        return f"ModeLabel(path={self[0]!r}, freq_bin={self[1]!r})"


class FockKet:
    """Canonical multi-photon basis state: occupation counts per mode.

    The representation is unique: zero counts are never stored, and pairs are
    kept sorted by mode, so two kets are equal iff they describe the same
    occupations.  Instances are immutable and hashable.
    """

    __slots__ = ("_pairs", "_hash")

    def __init__(self, occupations: Mapping[ModeLabel, int] | Iterable[tuple[ModeLabel, int]] = ()):
        items = occupations.items() if isinstance(occupations, Mapping) else occupations
        merged: dict[ModeLabel, int] = {}
        for mode, count in items:
            if count == 0:
                continue
            if count < 0 or count != int(count):
                raise ValueError(f"occupation count for {mode} must be a positive integer")
            merged[mode] = merged.get(mode, 0) + int(count)
        pairs = tuple(sorted(merged.items()))
        object.__setattr__(self, "_pairs", pairs)
        object.__setattr__(self, "_hash", hash(pairs))

    @classmethod
    def from_modes(cls, modes: Iterable[ModeLabel]) -> FockKet:
        """Build a ket from a list of occupied modes; repeats raise the count."""
        return cls((m, 1) for m in modes)

    @property
    def pairs(self) -> tuple[tuple[ModeLabel, int], ...]:
        return self._pairs

    def items(self) -> tuple[tuple[ModeLabel, int], ...]:
        return self._pairs

    def count(self, mode: ModeLabel) -> int:
        for m, n in self._pairs:
            if m == mode:
                return n
        return 0

    def total_photons(self) -> int:
        return sum(n for _, n in self._pairs)

    def modes(self) -> tuple[ModeLabel, ...]:
        return tuple(m for m, _ in self._pairs)

    def paths(self) -> frozenset[str]:
        return frozenset(m.path for m, _ in self._pairs)

    def count_on_paths(self, paths: frozenset[str] | set[str]) -> int:
        return sum(n for m, n in self._pairs if m.path in paths)

    def __eq__(self, other) -> bool:
        return isinstance(other, FockKet) and self._pairs == other._pairs

    def __lt__(self, other: FockKet) -> bool:
        return self._pairs < other._pairs

    def __hash__(self) -> int:
        return self._hash

    def __setattr__(self, name, value):
        raise AttributeError("FockKet is immutable")

    def __repr__(self) -> str:
        if not self._pairs:
            return "|vac>"
        body = " ".join(f"{m}" if n == 1 else f"{m}*{n}" for m, n in self._pairs)
        return f"|{body}>"


@dataclass
class StateVector:
    """Sparse state: map from :class:`FockKet` to complex amplitude.

    Exact zeros are dropped at construction time, and a NaN part raises
    :class:`NonFiniteError`.  ``non_unitary`` marks
    states whose history includes a renormalizing (non-isometric) element
    application; the flag is sticky through later operations that preserve
    it explicitly.
    """

    terms: dict[FockKet, complex] = field(default_factory=dict)
    non_unitary: bool = False

    def __post_init__(self):
        terms = {k: complex(a) for k, a in self.terms.items()}
        if any(c != c for c in terms.values()):  # only NaN compares unequal to itself
            raise NonFiniteError("an amplitude is NaN")
        self.terms = {k: c for k, c in terms.items() if c}

    def sorted_items(self) -> list[tuple[FockKet, complex]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0].pairs)

    def amplitude(self, k: FockKet) -> complex:
        return self.terms.get(k, 0j)

    def norm(self) -> float:
        """Euclidean norm, rescaled as :func:`aomsim.engine.norm` rescales tiny states."""
        return engine.norm(np.array(list(self.terms.values()), dtype=complex))

    def paths(self) -> frozenset[str]:
        out: set[str] = set()
        for k in self.terms:
            out.update(k.paths())
        return frozenset(out)

    def photon_numbers(self) -> frozenset[int]:
        return frozenset(k.total_photons() for k in self.terms)

    def scaled(self, factor: complex) -> StateVector:
        return StateVector(
            {k: a * factor for k, a in self.terms.items()}, non_unitary=self.non_unitary
        )

    def __repr__(self) -> str:
        parts = [f"({a:.4g}){k}" for k, a in self.sorted_items()]
        return "StateVector[" + " + ".join(parts) + "]" if parts else "StateVector[0]"


@dataclass
class DensityMatrix:
    """Dense density operator over an explicit ordered ket basis."""

    basis: tuple[FockKet, ...]
    matrix: np.ndarray

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)

    def entropy(self) -> float:
        """Von Neumann entropy in bits, as :func:`entanglement_entropy` gives it for this matrix."""
        return _entropy(self.eigenvalues().tolist())

    def fidelity(self, pure: StateVector) -> float:
        """Overlap <psi|rho|psi> with a pure state on the same mode space."""
        v = np.array([pure.amplitude(k) for k in self.basis], dtype=complex)
        return float((v.conj() @ self.matrix @ v).real)


def _path_names(paths, what: str) -> tuple[str, ...]:
    """``paths``, a collection of path names, as a tuple in its own order.

    Raises ``ValueError`` for a bare ``str``, which would otherwise be read
    as its characters or substrings, and for a member that is not a
    non-empty ``str``; ``what`` names the argument in the message.
    """
    if isinstance(paths, str):
        raise ValueError(f"{what} must be a collection of path names, not the string {paths!r}")
    listed = tuple(paths)
    for p in listed:
        if not isinstance(p, str) or not p:
            raise ValueError(f"{what} holds {p!r}, which is not a non-empty path name")
    return listed


def ket(modes: Iterable[ModeLabel]) -> StateVector:
    """Unit-amplitude basis state with occupation counts taken from the list.

    The list may contain repeats; repeats become multi-occupation of the same
    mode.  The result is invariant under permutation of the input list.
    """
    return StateVector({FockKet.from_modes(modes): 1.0 + 0j})


def as_arrays(s: StateVector | ArrayState) -> ArrayState:
    """The state as an occupation matrix, one row per term in ket order.

    The columns are the state's own modes, sorted.  An :class:`ArrayState`
    is returned as it is.  The rows come from :func:`aomsim.engine.occupations`,
    which raises :class:`CapExceededError` if a mode holds more photons than
    the engine's ``int8`` occupations can.
    """
    if isinstance(s, ArrayState):
        return s
    columns = tuple(sorted({m for k in s.terms for m, _ in k._pairs}))
    occ = engine.occupations([k._pairs for k in s.terms], columns)
    amp = np.array(list(s.terms.values()), dtype=complex).reshape(len(s.terms))
    order = engine.ket_order(occ)
    return ArrayState(columns, occ[order], amp[order], s.non_unitary)


# Up to this many rows, Python lists handle an occupation matrix faster than
# numpy, whose fixed cost per call then dominates.
_FEW_ROWS = 32


def row_pieces(modes: tuple[ModeLabel, ...], occ: np.ndarray, piece) -> tuple[list, list[int]]:
    """Every occupied cell as ``piece(mode, n)``, row after row, and where each row's pieces end.

    Row ``i`` holds ``pieces[ends[i - 1]:ends[i]]`` (from 0 for row 0), one
    piece per occupied column in order.  ``piece`` is called once per
    distinct ``(column, count)`` and cells share its results.  Beyond
    ``_FEW_ROWS`` rows the occupied cells are found in one pass over the
    flattened matrix, coded ``column * 128 + count``, and each row's end is
    a running count of its cells.
    """
    if len(occ) <= _FEW_ROWS:
        made: dict = {}
        rows = occ.tolist()
        return ([made[c, n] if (c, n) in made else made.setdefault((c, n), piece(modes[c], n))
                 for row in rows for c, n in enumerate(row) if n],
                list(accumulate(len(row) - row.count(0) for row in rows)))
    width, base = occ.shape[1], engine.MAX_OCCUPATION + 1
    cells = occ.ravel()
    flat = np.flatnonzero(cells != 0)
    rows = flat // width
    codes = (flat - rows * width) * base + cells[flat]
    table = np.empty(width * base, dtype=object)
    for c in np.flatnonzero(np.bincount(codes, minlength=len(table))).tolist():
        table[c] = piece(modes[c // base], c % base)
    return table[codes].tolist(), np.cumsum(np.bincount(rows, minlength=len(occ))).tolist()


def kets(modes: tuple[ModeLabel, ...], occ: np.ndarray) -> list[FockKet]:
    """One ket per occupation row, built in one batch; kets share their pairs."""
    new, set_pairs, set_hash = object.__new__, FockKet._pairs.__set__, FockKet._hash.__set__
    pairs, ends = row_pieces(modes, occ, lambda mode, n: (mode, n))
    pairs = tuple(pairs)  # each row's slice is then its ket's pairs
    out = []
    for a, b in zip([0, *ends], ends):
        ket_pairs = pairs[a:b]
        k = new(FockKet)
        set_pairs(k, ket_pairs)
        set_hash(k, hash(ket_pairs))
        out.append(k)
    return out


def as_state(a: ArrayState) -> StateVector:
    """The array state as a :class:`StateVector`, terms in row order.

    The terms go through ``StateVector``'s constructor, which drops zero
    amplitudes and raises :class:`NonFiniteError` on a NaN one.
    """
    if a.amp.ndim > 1:
        raise ValueError("a batch of states has no single StateVector; read its rows")
    return StateVector(dict(zip(kets(a.modes, a.occ), a.amp.tolist())), a.non_unitary)


def match_kind(given: StateVector | ArrayState, result: ArrayState) -> StateVector | ArrayState:
    """``result`` as the kind of state the caller gave: arrays stay arrays."""
    return result if isinstance(given, ArrayState) else as_state(result)


def tensor(a: StateVector | ArrayState, b: StateVector | ArrayState) -> StateVector | ArrayState:
    """Tensor product of states on disjoint path sets, over the union of their columns.

    Returns the kind of state ``a`` is, a :class:`StateVector` or an
    :class:`ArrayState`.
    """
    return match_kind(a, engine.tensor(as_arrays(a), as_arrays(b)))


def inner(a: StateVector, b: StateVector) -> complex:
    """Inner product <a|b>, conjugate-linear in ``a``."""
    if len(b.terms) < len(a.terms):
        return sum(a.terms[k].conjugate() * cb for k, cb in b.terms.items() if k in a.terms)
    return sum(ca.conjugate() * b.terms[k] for k, ca in a.terms.items() if k in b.terms)


def normalize(s: StateVector) -> StateVector:
    """Rescale to unit norm, on the rows; raises :class:`ZeroStateError` on a zero state."""
    return as_state(engine.normalize(as_arrays(s)))


def shared_columns(states: list[StateVector | ArrayState]) -> list[ArrayState]:
    """The states as rows over one tuple of columns, the union of theirs, rows in order."""
    arrays = [as_arrays(s) for s in states]
    if any(a.modes != arrays[0].modes for a in arrays):  # states built one by one
        modes = set().union(*(a.modes for a in arrays))
        arrays = [engine.widen(a, modes) for a in arrays]
    return arrays


def _reduce(states: list, keep_paths) -> tuple:
    """Partial traces of single states onto ``keep_paths``, on all their rows at once.

    Returns ``(modes, basis, dims, rho, base)``: the kept columns, each
    state's basis as kept occupations (``dims[i]`` rows for state ``i``, in
    ket order), and the matrices flattened one after another (state ``i``'s
    from ``base[i]``).  Each group of rows that share their traced-out
    occupations adds the outer product of its amplitudes (numpy's products,
    as ``np.outer``), groups in order of first occurrence, by ``np.bincount``
    from +0.0: the sums of a trace state by state, less the zero terms.
    """
    arrays = shared_columns(states)
    if any(a.amp.ndim > 1 for a in arrays):
        raise ValueError("a partial trace takes single states, not batches")
    sizes = [len(a.amp) for a in arrays]
    if not all(sizes):
        raise ZeroStateError("cannot reduce a zero state")
    modes = arrays[0].modes
    keep = np.array([m[0] in keep_paths for m in modes], dtype=bool)
    occ = np.concatenate([a.occ for a in arrays])
    amp = np.concatenate([a.amp for a in arrays])
    engine._check_finite(amp)
    state = np.repeat(np.arange(len(arrays)), sizes)

    # the basis: distinct kept occupations per state, in ket order within each
    ids, listed = engine._group(np.column_stack([state, engine._ket_keys(occ[:, keep])]))
    dims = np.bincount(state[listed], minlength=len(arrays))
    index = ids - np.repeat(np.cumsum(dims) - dims, sizes)

    # rows grouped by traced-out occupation, groups in order of first occurrence
    rest, first = engine._group(np.column_stack([state, occ[:, ~keep]]))
    key = first[rest]
    rows = np.argsort(key, kind="stable")
    key = key[rows]
    n = np.bincount(rest)[rest[rows]]  # size of each listed row's group
    # every ordered pair (a, b) of rows in a group, group by group
    a = np.repeat(rows, n)
    partner = np.arange(len(a)) - np.repeat(np.cumsum(n) - n, n)
    b = rows[np.repeat(np.searchsorted(key, key), n) + partner]
    dims2 = dims * dims
    base = np.cumsum(dims2) - dims2
    entry = base[state[a]] + index[a] * dims[state[a]] + index[b]
    products = amp[a] * amp[b].conj()
    rho = np.empty(int(dims2.sum()), dtype=complex)
    rho.real = np.bincount(entry, products.real, len(rho))
    rho.imag = np.bincount(entry, products.imag, len(rho))
    kept_modes = tuple(m for m, kept in zip(modes, keep.tolist()) if kept)
    return kept_modes, occ[listed][:, keep], dims, rho, base


def reduced_density(s: StateVector | ArrayState | list, keep_paths: set[str] | frozenset[str]
                    ) -> DensityMatrix | list[DensityMatrix]:
    """Partial trace over every mode whose path is not in ``keep_paths``.

    Expects a normalized input; the result then has unit trace.  Given a
    list of states, such as a herald's accepted outcomes, traces them all at
    once on their rows and returns one matrix per state.
    """
    keep_paths = frozenset(_path_names(keep_paths, "keep_paths"))
    many = isinstance(s, (list, tuple))
    if many and not s:
        return []
    modes, basis, dims, rho, base = _reduce(s if many else [s], keep_paths)
    terms = kets(modes, basis)
    out = [DensityMatrix(tuple(terms[start:start + d]), rho[at:at + d * d].reshape(d, d))
           for d, at, start in zip(dims.tolist(), base.tolist(), (np.cumsum(dims) - dims).tolist())]
    return out if many else out[0]


_EIGEN_TOL = 1e-14
"""Eigenvalues of a density matrix this close to 0 or 1 are taken as exact.

``np.linalg.eigvalsh`` is accurate to a few ulps of the largest eigenvalue
(1 for a normalized state), which this bound covers with room to spare.
"""


def entanglement_entropy(s: StateVector | ArrayState | list, partition: set[str] | frozenset[str]
                         ) -> float | list[float]:
    """Von Neumann entropy, in bits, of the reduction onto ``partition``.

    For a pure state this measures entanglement across the cut
    ``partition | complement``; 0 log 0 is taken as 0.  An eigenvalue
    within ``_EIGEN_TOL`` of 0 or of 1 adds nothing, so a product state's
    entropy is exactly 0, not the noise of ``eigvalsh``'s rounding, of
    either sign; what is dropped is at most 4.7e-13.  Given a list of
    states, returns one entropy per state: their density matrices are formed
    at once, as :func:`reduced_density` forms them, and ``np.linalg.eigvalsh``
    runs once per stack of matrices of one size.
    """
    partition = frozenset(_path_names(partition, "partition"))
    many = isinstance(s, (list, tuple))
    if many and not s:
        return []
    _, _, dims, rho, base = _reduce(s if many else [s], partition)
    out = [0.0] * len(dims)
    for d in set(dims.tolist()):
        chosen = np.flatnonzero(dims == d)
        stack = rho[base[chosen, None] + np.arange(d * d)].reshape(-1, d, d)
        for i, lam in zip(chosen.tolist(), np.linalg.eigvalsh(stack).tolist()):
            out[i] = _entropy(lam)
    return out if many else out[0]


def _entropy(eigenvalues: list[float]) -> float:
    """``-sum(v log2 v)`` in order, less the eigenvalues within ``_EIGEN_TOL`` of 0 or of 1."""
    out = 0.0
    for v in eigenvalues:
        if v > _EIGEN_TOL and abs(v - 1.0) > _EIGEN_TOL:
            out -= v * math.log2(v)
    return out


@engine.memo_small
def _row_of(occ, modes: tuple, k: FockKet) -> int | None:
    """The row of ket ``k`` in an occupation matrix over ``modes``, or None."""
    counts = dict(k.pairs)
    row = [counts.pop(m, 0) for m in modes]
    rows = occ.tolist()
    if counts or row not in rows:  # a mode of k is not a column, or no row matches
        return None
    return rows.index(row)


def _magnitudes_of(s: ArrayState, k: FockKet) -> np.ndarray:
    """``abs`` of the amplitude of ket ``k`` in the array state, per member of a batch (0 if absent)."""
    row = _row_of(s.occ, s.modes, k)
    if row is None:
        return np.zeros(s.amp.shape[:-1])
    a = s.amp[..., row]
    return np.hypot(a.real, a.imag)


def ghz_fidelity(s: StateVector | ArrayState, branch_a: FockKet, branch_b: FockKet
                 ) -> float | list[float]:
    """Best overlap with the family (|a> + e^{i phi}|b>)/sqrt(2) over phi.

    Phase-insensitive by construction; the maximum over phi has the closed
    form (|<a|s>| + |<b|s>|)^2 / 2, which this returns, with the bits of
    Python's ``(abs(a) + abs(b)) ** 2 / 2.0``.  A batch of array states gets
    a list with each member's fidelity.  Raises :class:`NonFiniteError` if
    a fidelity is not a finite number, as when a magnitude passes the
    square root of the largest float (an unnormalised state).
    """
    if branch_a == branch_b:
        raise ValueError("branch kets must differ")
    s = as_arrays(s)
    total = _magnitudes_of(s, branch_a) + _magnitudes_of(s, branch_b)
    if not total.max(initial=0.0) <= engine._LARGEST_ROOT:  # also NaN: the square is not finite
        raise NonFiniteError("a GHZ fidelity is not a finite number")
    return (np.float_power(total, 2.0) / 2.0).tolist()
