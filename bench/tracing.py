"""Per-layer spans recorded from outside the program.

:class:`Tracer` replaces public ``aomsim`` functions with timing wrappers in
the namespaces where their callers look them up (``aomsim.dsl.apply_element``
and ``aomsim.experiments.apply_element`` are separate bindings, for example),
and restores the originals on exit.  Each span records its layer, its parent
span and its start and end; spans stay in memory.  At the end of an op,
:meth:`Tracer.end_op` folds that op's spans into self time per layer (a
span's duration minus the time its child spans cover) and the op's counts.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter


def _terms(state) -> int:
    return len(state.terms)


def _count_lift(c, args, out):
    c["elements.lift_calls"] += 1
    c["elements.lift_terms_in"] += _terms(args[0])
    c["elements.lift_terms_out"] += _terms(out)
    c.peak(_terms(args[0]), _terms(out))


def _count_filter(c, args, out):
    c["filter_terms_in"] += _terms(args[0])
    c["filter_terms_out"] += _terms(out[0])
    c.peak(_terms(args[0]))


def _count_herald(c, args, out):
    c["experiments.outcomes"] += len(out)
    c["herald_terms_in"] += _terms(args[0])
    c["herald_terms_accepted"] += sum(
        _terms(o.conditional_state) for o in out
        if o.accepted and o.conditional_state is not None
    )
    c.peak(_terms(args[0]))


def _count_state_out(c, args, out):
    c.peak(_terms(out))


def _count_statements(c, args, out):
    if not isinstance(out, list):  # a list means parse errors
        c["dsl.statements"] += len(out.statements)


# (module, attribute path, span name, count hook).  The span name is the
# layer metric its self time feeds: "<name>_ms".
TARGETS = [
    ("aomsim.cli", "main", "cli.self", None),
    ("aomsim.cli", "parse", "dsl.parse", _count_statements),
    ("aomsim.cli", "compile_circuit", "dsl.compile", None),
    ("aomsim.dsl", "Pipeline.run", "dsl.run_self", None),
    ("aomsim.cli", "run_swap", "experiments.run_self", None),
    ("aomsim.cli", "run_ghz", "experiments.run_self", None),
    ("aomsim.dsl", "post_select", "experiments.herald", _count_herald),
    ("aomsim.experiments", "post_select", "experiments.herald", _count_herald),
    ("aomsim.dsl", "restrict_to_paths", "experiments.restrict", None),
    ("aomsim.experiments", "restrict_to_paths", "experiments.restrict", None),
    ("aomsim.dsl", "apply_element", "elements.lift", _count_lift),
    ("aomsim.experiments", "apply_element", "elements.lift", _count_lift),
    ("aomsim.dsl", "apply_filter", "elements.filter", _count_filter),
    ("aomsim.experiments", "apply_filter", "elements.filter", _count_filter),
    ("aomsim.dsl", "make_source", "elements.source", None),
    ("aomsim.experiments", "make_source", "elements.source", None),
    ("aomsim.dsl", "tensor", "states.tensor", _count_state_out),
    ("aomsim.experiments", "tensor", "states.tensor", _count_state_out),
    ("aomsim.dsl", "entanglement_entropy", "states.metrics", None),
    ("aomsim.experiments", "entanglement_entropy", "states.metrics", None),
    ("aomsim.experiments", "reduced_density", "states.metrics", None),
    ("aomsim.dsl", "ghz_fidelity", "states.metrics", None),
    ("aomsim.experiments", "ghz_fidelity", "states.metrics", None),
    ("aomsim.states", "DensityMatrix.purity", "states.metrics", None),
    ("aomsim.states", "DensityMatrix.fidelity", "states.metrics", None),
]

SPAN_NAMES = sorted({name for _, _, name, _ in TARGETS})
COUNT_NAMES = [
    "cli.bytes_out",
    "dsl.statements",
    "elements.lift_calls",
    "elements.lift_terms_in",
    "elements.lift_terms_out",
    "elements.filter_survival",
    "experiments.outcomes",
    "experiments.accepted_term_ratio",
    "states.peak_terms",
]


class Counts(defaultdict):
    def __init__(self):
        super().__init__(int)

    def peak(self, *sizes: int):
        self["states.peak_terms"] = max(self["states.peak_terms"], *sizes)


class Tracer:
    """Installs the span wrappers while in a ``with`` block.

    ``ops`` collects ``(self seconds per layer, counts)`` per traced op, and
    ``kept_spans`` the raw spans of the first ``kept`` ops.
    """

    def __init__(self, kept: int = 3):
        self.spans: list = []  # (span id, parent id, name, start, end) of the current op
        self.counts = Counts()
        self.ops: list[tuple[dict[str, float], dict[str, float]]] = []
        self.kept = kept
        self.kept_spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list = []

    def _wrap(self, fn, name, hook):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[span_id] = (span_id, parent, name, start, end)
            if hook is not None:
                hook(counts, args, out)
            return out

        return traced

    def __enter__(self):
        for module, attr_path, name, hook in TARGETS:
            owner = importlib.import_module(module)
            *owners, attr = attr_path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, hook))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def end_op(self, index: int):
        """Fold the current op's spans into self seconds per layer, and its counts."""
        spans = list(self.spans)
        child_time = [0.0] * len(spans)
        for _, parent, _, start, end in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        for span_id, _, name, start, end in spans:
            self_s[name] += end - start - child_time[span_id]
        c = self.counts
        counts = {k: float(c[k]) for k in COUNT_NAMES}
        counts["elements.filter_survival"] = (
            c["filter_terms_out"] / c["filter_terms_in"] if c["filter_terms_in"] else 0.0
        )
        counts["experiments.accepted_term_ratio"] = (
            c["herald_terms_accepted"] / c["herald_terms_in"] if c["herald_terms_in"] else 0.0
        )
        self.spans.clear()
        self.counts.clear()
        self.ops.append((self_s, counts))
        if index < self.kept:
            self.kept_spans.append(spans)
