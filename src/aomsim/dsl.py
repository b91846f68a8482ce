"""Line-oriented circuit description language: parser, formatter, compiler.

One statement per line, ``#`` starts a comment, tokens are whitespace
separated, arguments are ``key=value``, and path lists sit in parentheses.
Frequency bins are written ``path@bin``.

::

    source NAME arms=(P@B,P@B) alt=(P@B,P@B) [alpha=FLOAT]
    aom NAME in=(P@B,P@B) out=(P,P) [shift=INT] [t=FLOAT] [convention=unitary|paper]
    filter NAME path=P pass=INT [sigma=FLOAT]
    herald count(P,...)==INT [and count(P,...)==INT ...]
    check bandwidth pump=FLOAT
    report entropy split=(P,...)
    report ghz a=(P@B,...) b=(P@B,...)
    report outcomes paths=(P,...)

Paths are declared by the statement that creates them (source arms/alt, AOM
outputs) and must be declared before any use; at most one herald is allowed
and reports must follow it.  :func:`parse` is stateless and works one
line at a time: the function for a line's keyword checks that line alone
(tokens, arguments, finite and positive numbers) and returns its statement
or raises at the line's first fault.  :func:`parse` never raises on bad
input: it returns either a :class:`CircuitAst` or the list of
:class:`ParseError` diagnostics (1-based line/column), one per bad line.
:func:`compile_circuit` checks how statements relate (declarations, the
herald, reports) and the AOM wiring, for parsed text and for ASTs built in
code alike, and stops at the first error.

:meth:`Pipeline.run` is the one code path that evolves a circuit: ``aomsim
run`` calls it on a file, and :func:`~aomsim.experiments.run_swap` and
:func:`~aomsim.experiments.run_ghz` on the shipped ``circuits/swap.qc`` and
``circuits/ghz.qc``.  It can override every source's angle, and a list of
angles runs as one batch through the engine, one amplitude row per angle.
A circuit is lowered once per convention override; a run then only emits
the sources, applies the steps, heralds and reports.
"""

from __future__ import annotations

import dataclasses
import math
import re
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import engine
from .elements import (
    AomSpec,
    BALANCED_T,
    BandwidthCheck,
    Convention,
    ElementOp,
    FilterSpec,
    SourceSpec,
    apply_element,
    apply_filter,
    check_bandwidth,
    circuit_modes,
    make_aom,
    make_source,
)
from .errors import CompileError, SpecInvariantError, ZeroStateError
from .experiments import (
    HeraldOutcome,
    HeraldRule,
    _herald,
    post_select,
    restrict_to_paths,
)
from .states import (
    FockKet,
    ModeLabel,
    StateVector,
    as_state,
    entanglement_entropy,
    ghz_fidelity,
    tensor,
)

__all__ = [
    "ParseError",
    "CircuitAst",
    "Pipeline",
    "PipelineResult",
    "parse",
    "compile_circuit",
    "format_circuit",
    "SourceStmt",
    "AomStmt",
    "FilterStmt",
    "HeraldStmt",
    "CheckStmt",
    "ReportEntropyStmt",
    "ReportGhzStmt",
    "ReportOutcomesStmt",
]

_IDENT = r"[A-Za-z0-9_']+"
_MODE_RE = re.compile(rf"^({_IDENT})@(-?\d+)$")
_IDENT_RE = re.compile(rf"^{_IDENT}$")
_COUNT_RE = re.compile(rf"^count\(({_IDENT}(?:,{_IDENT})*)\)==(-?\d+)$")


@dataclass(frozen=True)
class ParseError:
    line: int
    column: int
    message: str
    token: str

    def __str__(self) -> str:
        return f"line {self.line}, col {self.column}: {self.message} (at {self.token!r})"


@dataclass(frozen=True)
class SourceStmt:
    name: str
    arms: tuple[ModeLabel, ModeLabel]
    alt: tuple[ModeLabel, ModeLabel]
    alpha: float = math.pi / 4
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class AomStmt:
    name: str
    inputs: tuple[ModeLabel, ModeLabel]
    outputs: tuple[str, str]
    shift: int = 1
    t_amp: float = BALANCED_T
    convention: Convention = Convention.UNITARY
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class FilterStmt:
    name: str
    path: str
    pass_bin: int
    sigma: float = 1.0
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class HeraldStmt:
    clauses: tuple[tuple[tuple[str, ...], int], ...]
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class CheckStmt:
    pump: float
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class ReportEntropyStmt:
    split: tuple[str, ...]
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class ReportGhzStmt:
    branch_a: tuple[ModeLabel, ...]
    branch_b: tuple[ModeLabel, ...]
    line: int = field(default=0, compare=False)

    @cached_property
    def target(self) -> tuple[frozenset[str], FockKet, FockKet]:
        """The paths of both branches and the two branch kets, which must differ."""
        a, b = FockKet.from_modes(self.branch_a), FockKet.from_modes(self.branch_b)
        if a == b:
            raise ValueError("report ghz branches a and b are the same ket")
        return frozenset(m.path for m in self.branch_a + self.branch_b), a, b


@dataclass(frozen=True)
class ReportOutcomesStmt:
    paths: tuple[str, ...]
    line: int = field(default=0, compare=False)


Statement = (
    SourceStmt
    | AomStmt
    | FilterStmt
    | HeraldStmt
    | CheckStmt
    | ReportEntropyStmt
    | ReportGhzStmt
    | ReportOutcomesStmt
)


@dataclass(frozen=True)
class CircuitAst:
    statements: tuple[Statement, ...]


class _Token:
    __slots__ = ("text", "col")

    def __init__(self, text: str, col: int):
        self.text = text
        self.col = col


class _LineError(Exception):
    """A line's first fault, raised as ``(token, message)``; parsing goes on at the next line."""


# argument helpers ----------------------------------------------------------


def _kv_args(tokens: list[_Token], allowed: set[str]) -> dict[str, _Token]:
    args: dict[str, _Token] = {}
    for tok in tokens:
        if "=" not in tok.text:
            raise _LineError(tok, "expected key=value argument")
        key, value = tok.text.split("=", 1)
        if key not in allowed:
            raise _LineError(tok, f"unknown argument '{key}' (expected {sorted(allowed)})")
        if key in args:
            raise _LineError(tok, f"duplicate argument '{key}'")
        args[key] = _Token(value, tok.col + len(key) + 1)
    return args


def _need(args: dict[str, _Token], key: str, head: _Token) -> _Token:
    if key not in args:
        raise _LineError(head, f"missing required argument '{key}'")
    return args[key]


def _float(tok: _Token, positive: bool = False) -> float:
    try:
        value = float(tok.text)
    except ValueError:
        raise _LineError(tok, f"malformed number '{tok.text}'") from None
    if not math.isfinite(value):
        raise _LineError(tok, f"number must be finite, got '{tok.text}'")
    if positive and value <= 0:
        raise _LineError(tok, f"bandwidth must be positive, got '{tok.text}'")
    return value


def _int(tok: _Token) -> int:
    try:
        return int(tok.text)
    except ValueError:
        raise _LineError(tok, f"malformed integer '{tok.text}'") from None


def _items(tok: _Token) -> list[_Token]:
    text = tok.text
    if not (text.startswith("(") and text.endswith(")")):
        raise _LineError(tok, "expected a parenthesized list")
    items: list[_Token] = []
    col = tok.col + 1
    for piece in text[1:-1].split(","):
        if piece:
            items.append(_Token(piece, col))
        col += len(piece) + 1
    if not items:
        raise _LineError(tok, "list is empty")
    return items


def _two(args: dict[str, _Token], key: str, head: _Token, what: str) -> list[_Token]:
    tok = _need(args, key, head)
    items = _items(tok)
    if len(items) != 2:
        raise _LineError(tok, f"expected two {what}")
    return items


def _mode(tok: _Token) -> ModeLabel:
    m = _MODE_RE.match(tok.text)
    if m is None:
        raise _LineError(tok, f"expected path@bin, got '{tok.text}'")
    return ModeLabel(m.group(1), int(m.group(2)))


def _path(tok: _Token) -> str:
    if not _IDENT_RE.match(tok.text):
        raise _LineError(tok, f"invalid path name '{tok.text}'")
    return tok.text


def _name(tokens: list[_Token]) -> str:
    if len(tokens) < 2 or "=" in tokens[1].text:
        raise _LineError(tokens[0], "missing element name")
    name = tokens[1]
    if not _IDENT_RE.match(name.text):
        raise _LineError(name, f"invalid name '{name.text}'")
    return name.text


# statements: each takes a line's tokens and its number, and returns its statement


def _source_stmt(tokens: list[_Token], line: int) -> SourceStmt:
    head = tokens[0]
    name = _name(tokens)
    args = _kv_args(tokens[2:], {"arms", "alt", "alpha"})
    arm_items = _two(args, "arms", head, "arm modes")
    alt_items = _two(args, "alt", head, "alt modes")
    arms = tuple(map(_mode, arm_items))
    alt = tuple(map(_mode, alt_items))
    alpha = _float(args["alpha"]) if "alpha" in args else math.pi / 4
    return SourceStmt(name, arms, alt, alpha, line=line)


def _aom_stmt(tokens: list[_Token], line: int) -> AomStmt:
    head = tokens[0]
    name = _name(tokens)
    args = _kv_args(tokens[2:], {"in", "out", "shift", "t", "convention"})
    in_items = _two(args, "in", head, "inputs")
    out_items = _two(args, "out", head, "outputs")
    inputs = tuple(map(_mode, in_items))
    outputs = tuple(map(_path, out_items))
    shift = _int(args["shift"]) if "shift" in args else 1
    t_amp = _float(args["t"]) if "t" in args else BALANCED_T
    convention = Convention.UNITARY
    if "convention" in args:
        tok = args["convention"]
        values = {c.value: c for c in Convention}
        if tok.text not in values:
            raise _LineError(tok, f"convention must be one of {sorted(values)}")
        convention = values[tok.text]
    return AomStmt(name, inputs, outputs, shift, t_amp, convention, line=line)


def _filter_stmt(tokens: list[_Token], line: int) -> FilterStmt:
    head = tokens[0]
    name = _name(tokens)
    args = _kv_args(tokens[2:], {"path", "pass", "sigma"})
    path = _path(_need(args, "path", head))
    pass_bin = _int(_need(args, "pass", head))
    sigma = _float(args["sigma"], positive=True) if "sigma" in args else 1.0
    return FilterStmt(name, path, pass_bin, sigma, line=line)


def _herald_stmt(tokens: list[_Token], line: int) -> HeraldStmt:
    head, rest = tokens[0], tokens[1:]
    if not rest:
        raise _LineError(head, "herald needs at least one count(...)==N clause")
    clauses: list[tuple[tuple[str, ...], int]] = []
    for i, tok in enumerate(rest):  # clauses at even positions, 'and' at odd ones
        if i % 2:
            if tok.text != "and":
                raise _LineError(tok, "expected 'and' between herald clauses")
            continue
        m = _COUNT_RE.match(tok.text)
        if m is None:
            raise _LineError(tok, "expected clause of the form count(P,...)==N")
        clauses.append((tuple(m.group(1).split(",")), int(m.group(2))))
    if len(rest) % 2 == 0:
        raise _LineError(rest[-1], "trailing 'and' without a clause")
    return HeraldStmt(tuple(clauses), line=line)


def _check_stmt(tokens: list[_Token], line: int) -> CheckStmt:
    head = tokens[0]
    if len(tokens) < 2 or tokens[1].text != "bandwidth":
        raise _LineError(head, "expected 'check bandwidth pump=FLOAT'")
    args = _kv_args(tokens[2:], {"pump"})
    return CheckStmt(_float(_need(args, "pump", head), positive=True), line=line)


_REPORT_ARGS = {"entropy": {"split"}, "ghz": {"a", "b"}, "outcomes": {"paths"}}


def _report_stmt(tokens: list[_Token], line: int) -> Statement:
    head = tokens[0]
    if len(tokens) < 2:
        raise _LineError(head, "missing report kind (entropy, ghz, or outcomes)")
    kind = tokens[1].text
    if kind not in _REPORT_ARGS:
        raise _LineError(tokens[1], f"unknown report kind '{kind}'")
    args = _kv_args(tokens[2:], _REPORT_ARGS[kind])
    if kind == "ghz":
        a_items = _items(_need(args, "a", head))
        b_items = _items(_need(args, "b", head))
        return ReportGhzStmt(tuple(map(_mode, a_items)), tuple(map(_mode, b_items)), line=line)
    (key,) = _REPORT_ARGS[kind]  # entropy split=(...) or outcomes paths=(...)
    paths = tuple(map(_path, _items(_need(args, key, head))))
    return (ReportEntropyStmt if kind == "entropy" else ReportOutcomesStmt)(paths, line=line)


_STATEMENTS = {
    "source": _source_stmt,
    "aom": _aom_stmt,
    "filter": _filter_stmt,
    "herald": _herald_stmt,
    "check": _check_stmt,
    "report": _report_stmt,
}


def parse(text: str) -> CircuitAst | list[ParseError]:
    """Parse circuit text; returns the AST or a non-empty list of errors."""
    statements: list[Statement] = []
    errors: list[ParseError] = []
    for line, raw in enumerate(text.splitlines(), start=1):
        tokens = [_Token(m.group(0), m.start() + 1)
                  for m in re.finditer(r"\S+", raw.split("#", 1)[0])]
        if not tokens:
            continue
        head = tokens[0]
        try:
            if head.text not in _STATEMENTS:
                raise _LineError(head, f"unknown statement '{head.text}'")
            statements.append(_STATEMENTS[head.text](tokens, line))
        except _LineError as exc:
            tok, message = exc.args
            errors.append(ParseError(line, tok.col, message, tok.text))
    return errors or CircuitAst(tuple(statements))


def format_circuit(ast: CircuitAst) -> str:
    """Render an AST back to canonical circuit text (reparses to an equal AST)."""
    lines: list[str] = []
    for stmt in ast.statements:
        if isinstance(stmt, SourceStmt):
            lines.append(
                f"source {stmt.name} arms={_modes(stmt.arms)} alt={_modes(stmt.alt)} "
                f"alpha={stmt.alpha!r}"
            )
        elif isinstance(stmt, AomStmt):
            lines.append(
                f"aom {stmt.name} in={_modes(stmt.inputs)} out=({','.join(stmt.outputs)}) "
                f"shift={stmt.shift} t={stmt.t_amp!r} convention={stmt.convention.value}"
            )
        elif isinstance(stmt, FilterStmt):
            lines.append(
                f"filter {stmt.name} path={stmt.path} pass={stmt.pass_bin} sigma={stmt.sigma!r}"
            )
        elif isinstance(stmt, HeraldStmt):
            clauses = " and ".join(
                f"count({','.join(paths)})=={count}" for paths, count in stmt.clauses
            )
            lines.append(f"herald {clauses}")
        elif isinstance(stmt, CheckStmt):
            lines.append(f"check bandwidth pump={stmt.pump!r}")
        elif isinstance(stmt, ReportEntropyStmt):
            lines.append(f"report entropy split=({','.join(stmt.split)})")
        elif isinstance(stmt, ReportGhzStmt):
            lines.append(f"report ghz a={_modes(stmt.branch_a)} b={_modes(stmt.branch_b)}")
        elif isinstance(stmt, ReportOutcomesStmt):
            lines.append(f"report outcomes paths=({','.join(stmt.paths)})")
        else:
            raise TypeError(f"unknown statement type {type(stmt).__name__}")
    return "\n".join(lines) + ("\n" if lines else "")


def _modes(modes: tuple[ModeLabel, ...]) -> str:
    return "(" + ",".join(f"{m.path}@{m.freq_bin}" for m in modes) + ")"


@dataclass
class PipelineResult:
    """Execution record: heralded outcomes plus pre-herald diagnostics.

    ``final`` is the evolved state as the engine holds it, rows in ket
    order; ``evolved_state`` builds its kets on first use.
    """

    outcomes: list[HeraldOutcome]
    success_probability: float
    final: engine.ArrayState = field(repr=False)
    count_distributions: dict[str, dict[int, float]]
    filter_survivals: dict[str, float]
    bandwidth_valid: bool | None
    non_unitary: bool

    @cached_property
    def evolved_state(self) -> StateVector:
        return as_state(self.final)


@dataclass(frozen=True)
class Pipeline:
    """Executable circuit lowered from an AST; ``run`` evolves and heralds.

    The AOM ops and the mode closure are made once per convention override.
    """

    sources: tuple[SourceSpec, ...]
    elements: tuple[AomSpec | FilterSpec, ...]
    herald: HeraldRule | None
    reports: tuple[ReportEntropyStmt | ReportGhzStmt | ReportOutcomesStmt, ...]
    bandwidth_valid: bool | None
    _lowered: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def _steps(self, override: Convention | None):
        """The mode closure and the ops and filters under ``override``, made on its first run."""
        if override not in self._lowered:
            steps = tuple(e if isinstance(e, FilterSpec) else make_aom(dataclasses.replace(
                e, phase_convention=override or e.phase_convention)) for e in self.elements)
            modes = circuit_modes(self.sources, [s for s in steps if isinstance(s, ElementOp)])
            self._lowered[override] = modes, steps
        return self._lowered[override]

    def run(self, convention_override: Convention | None = None,
            alpha: float | list[float] | None = None) -> PipelineResult:
        """Evolve one occupation matrix over the mode closure, then herald and report.

        Rows stay in ket order from the sources to the outcomes; without a
        herald, the final state is the one outcome, ``all``.  ``alpha``
        gives every source that angle, as ``convention_override`` gives
        every AOM that convention.  A list of angles evolves one batch with
        one member per angle (:mod:`aomsim.engine`): each outcome's
        probability, each ``report ghz`` fidelity, each filter survival and
        the success probability are then lists with one value per member,
        and a circuit with ``report entropy`` or ``report outcomes`` raises
        ``ValueError``.  A batch whose members cannot share their rows raises
        :class:`~aomsim.engine.BatchSplit`, for
        :func:`~aomsim.engine.in_batches` to run its groups.
        """
        if not self.sources:
            raise ZeroStateError("circuit has no sources; nothing to evolve")
        batch = isinstance(alpha, list)
        if batch and not all(isinstance(r, ReportGhzStmt) for r in self.reports):
            raise ValueError("a batch of angles supports only 'report ghz'")
        modes, steps = self._steps(convention_override)
        state: engine.ArrayState | None = None
        for spec in self.sources:
            emitted = make_source(spec, modes, alpha)
            state = emitted if state is None else tensor(state, emitted)
        filter_survivals: dict[str, float] = {}
        for step in steps:
            if isinstance(step, ElementOp):
                state = apply_element(state, step)
            else:
                state, filter_survivals[step.path] = apply_filter(state, step)
        if self.herald is None:
            outcomes = [HeraldOutcome("all", engine.squared(engine.norm(state.amp)), state, True)]
        elif batch:  # post_select takes one state
            outcomes = [HeraldOutcome(*branch) for branch in _herald(state, self.herald)]
        else:
            outcomes = post_select(state, self.herald)
        # metrics are computed on the outcomes' rows, all outcomes at once
        accepted = [o for o in outcomes if o.accepted and o.rows is not None]
        count_distributions: dict[str, dict[int, float]] = {}
        for report in self.reports:
            if isinstance(report, ReportOutcomesStmt):
                key = ",".join(report.paths)
                count_distributions[key] = engine.count_distribution(state, report.paths)
            elif isinstance(report, ReportEntropyStmt):
                key = f"entropy[{','.join(report.split)}]"
                entropies = entanglement_entropy([o.rows for o in accepted], set(report.split))
                for outcome, entropy in zip(accepted, entropies):
                    outcome.metrics[key] = entropy
            elif isinstance(report, ReportGhzStmt):
                paths, a, b = report.target
                for outcome in accepted:
                    outcome.metrics["ghz_fidelity"] = ghz_fidelity(
                        restrict_to_paths(outcome.rows, paths), a, b)
        # from 0.0 in outcome order, per member for a batch: sum() would give the int 0
        # when nothing is accepted, and compensates from Python 3.12
        success = np.zeros(len(alpha)) if batch else 0.0
        for o in outcomes:
            if o.accepted:
                success = success + o.probability
        return PipelineResult(
            outcomes=outcomes,
            success_probability=success.tolist() if batch else success,
            final=state,
            count_distributions=count_distributions,
            filter_survivals=filter_survivals,
            bandwidth_valid=self.bandwidth_valid,
            non_unitary=state.non_unitary,
        )


def compile_circuit(ast: CircuitAst) -> Pipeline:
    """Lower an AST to a pipeline, validating element-level consistency.

    Raises :class:`CompileError` (with the statement's line) on AOM bin/shift
    mismatches, reuse of a path by two declaring statements, references to
    undeclared paths, a second herald, a report before the herald, a
    ``report ghz`` with equal branches, a second ``report ghz`` (each would
    write the one ``ghz_fidelity`` metric), or a report equal to an earlier
    one (it would compute and write the same key twice).  The ``check
    bandwidth`` verdict is decided here, once.
    """
    sources: list[SourceSpec] = []
    elements: list[AomSpec | FilterSpec] = []
    herald: HeraldRule | None = None
    reports: list[ReportEntropyStmt | ReportGhzStmt | ReportOutcomesStmt] = []
    pump: float | None = None
    declared: set[str] = set()

    def declare(path: str, line: int):
        if path in declared:
            raise CompileError(f"path '{path}' already declared by an earlier statement", line)
        declared.add(path)

    def known(path: str, line: int):
        if path not in declared:
            raise CompileError(f"undeclared path '{path}'", line)

    for stmt in ast.statements:
        try:  # an invalid spec or herald rule is an error on the statement's line
            # a spec checks that its own paths are distinct before any is declared
            if isinstance(stmt, SourceStmt):
                sources.append(SourceSpec(stmt.name, stmt.arms, stmt.alt, stmt.alpha))
                for mode in stmt.arms + stmt.alt:
                    declare(mode.path, stmt.line)
            elif isinstance(stmt, AomStmt):
                for mode in stmt.inputs:
                    known(mode.path, stmt.line)
                elements.append(AomSpec(
                    stmt.name, stmt.inputs[0], stmt.inputs[1], output_x=stmt.outputs[0],
                    output_y=stmt.outputs[1], shift=stmt.shift, t_amp=stmt.t_amp,
                    phase_convention=stmt.convention))
                for path in stmt.outputs:
                    declare(path, stmt.line)
            elif isinstance(stmt, FilterStmt):
                known(stmt.path, stmt.line)
                elements.append(FilterSpec(stmt.path, stmt.pass_bin, stmt.sigma))
            elif isinstance(stmt, HeraldStmt):
                if herald is not None:
                    raise CompileError("multiple herald statements", stmt.line)
                for paths, _ in stmt.clauses:
                    for p in paths:
                        known(p, stmt.line)
                herald = HeraldRule(
                    tuple((frozenset(paths), count) for paths, count in stmt.clauses))
            elif isinstance(stmt, CheckStmt):
                BandwidthCheck(stmt.pump)
                pump = stmt.pump
            elif isinstance(stmt, (ReportEntropyStmt, ReportGhzStmt, ReportOutcomesStmt)):
                if herald is None:
                    raise CompileError("report statements must follow the herald", stmt.line)
                if isinstance(stmt, ReportGhzStmt):
                    if any(isinstance(r, ReportGhzStmt) for r in reports):  # one metric key
                        raise CompileError("multiple report ghz statements", stmt.line)
                    paths = sorted(stmt.target[0])
                elif stmt in reports:  # one metric key, computed twice
                    raise CompileError("repeated report statement", stmt.line)
                else:
                    paths = stmt.split if isinstance(stmt, ReportEntropyStmt) else stmt.paths
                for p in paths:
                    known(p, stmt.line)
                reports.append(stmt)
            else:
                raise CompileError(f"unsupported statement type {type(stmt).__name__}")
        except (SpecInvariantError, ValueError) as exc:
            raise CompileError(str(exc), stmt.line) from exc
    sigmas = tuple(e.sigma for e in elements if isinstance(e, FilterSpec))
    bandwidth_valid = None if pump is None else check_bandwidth(BandwidthCheck(pump, sigmas))
    return Pipeline(tuple(sources), tuple(elements), herald, tuple(reports), bandwidth_valid)
