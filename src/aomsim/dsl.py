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
and reports must follow it.  :func:`parse` never raises on bad input: it
returns either a :class:`CircuitAst` or the list of :class:`ParseError`
diagnostics (1-based line/column).  Structural checks that need element
semantics (AOM bin/shift consistency) happen in :func:`compile_circuit`.

:meth:`Pipeline.run` is the one code path that evolves a circuit: ``aomsim
run`` calls it on a file, and :func:`~aomsim.experiments.run_swap` and
:func:`~aomsim.experiments.run_ghz` on the shipped ``circuits/swap.qc`` and
``circuits/ghz.qc``.  It can override every source's angle, and a list of
angles runs as one batch through the engine, one amplitude row per angle.
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
    """Internal signal: abandon the current statement, keep parsing."""


class _Parser:
    def __init__(self):
        self.errors: list[ParseError] = []
        self.statements: list[Statement] = []
        self.declared: set[str] = set()
        self.herald_line: int | None = None

    def fail(self, line: int, tok: _Token, message: str):
        self.errors.append(ParseError(line, tok.col, message, tok.text))
        raise _LineError

    def parse(self, text: str) -> CircuitAst | list[ParseError]:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            body = raw.split("#", 1)[0]
            tokens = [_Token(m.group(0), m.start() + 1) for m in re.finditer(r"\S+", body)]
            if not tokens:
                continue
            try:
                self.statement(lineno, tokens)
            except _LineError:
                continue
        return self.errors if self.errors else CircuitAst(tuple(self.statements))

    def statement(self, line: int, tokens: list[_Token]):
        head = tokens[0]
        handlers = {
            "source": self.source_stmt,
            "aom": self.aom_stmt,
            "filter": self.filter_stmt,
            "herald": self.herald_stmt,
            "check": self.check_stmt,
            "report": self.report_stmt,
        }
        handler = handlers.get(head.text)
        if handler is None:
            self.fail(line, head, f"unknown statement '{head.text}'")
        handler(line, tokens)

    # argument helpers ----------------------------------------------------

    def kv_args(self, line: int, tokens: list[_Token], allowed: set[str]) -> dict[str, _Token]:
        args: dict[str, _Token] = {}
        for tok in tokens:
            if "=" not in tok.text:
                self.fail(line, tok, "expected key=value argument")
            key, value = tok.text.split("=", 1)
            if key not in allowed:
                self.fail(line, tok, f"unknown argument '{key}' (expected {sorted(allowed)})")
            if key in args:
                self.fail(line, tok, f"duplicate argument '{key}'")
            args[key] = _Token(value, tok.col + len(key) + 1)
        return args

    def need(self, line: int, args: dict[str, _Token], key: str, head: _Token) -> _Token:
        if key not in args:
            self.fail(line, head, f"missing required argument '{key}'")
        return args[key]

    def float_value(self, line: int, tok: _Token, positive: bool = False) -> float:
        try:
            value = float(tok.text)
        except ValueError:
            self.fail(line, tok, f"malformed number '{tok.text}'")
        if not math.isfinite(value):
            self.fail(line, tok, f"number must be finite, got '{tok.text}'")
        if positive and value <= 0:
            self.fail(line, tok, f"bandwidth must be positive, got '{tok.text}'")
        return value

    def int_value(self, line: int, tok: _Token) -> int:
        try:
            return int(tok.text)
        except ValueError:
            self.fail(line, tok, f"malformed integer '{tok.text}'")

    def list_items(self, line: int, tok: _Token) -> list[_Token]:
        text = tok.text
        if not (text.startswith("(") and text.endswith(")")):
            self.fail(line, tok, "expected a parenthesized list")
        inner = text[1:-1]
        items: list[_Token] = []
        col = tok.col + 1
        for piece in inner.split(","):
            if piece:
                items.append(_Token(piece, col))
            col += len(piece) + 1
        if not items:
            self.fail(line, tok, "list is empty")
        return items

    def two_items(self, line: int, args: dict[str, _Token], key: str, head: _Token,
                  what: str) -> list[_Token]:
        tok = self.need(line, args, key, head)
        items = self.list_items(line, tok)
        if len(items) != 2:
            self.fail(line, tok, f"expected two {what}")
        return items

    def mode_item(self, line: int, tok: _Token) -> ModeLabel:
        m = _MODE_RE.match(tok.text)
        if m is None:
            self.fail(line, tok, f"expected path@bin, got '{tok.text}'")
        return ModeLabel(m.group(1), int(m.group(2)))

    def path_item(self, line: int, tok: _Token) -> str:
        if not _IDENT_RE.match(tok.text):
            self.fail(line, tok, f"invalid path name '{tok.text}'")
        return tok.text

    def name_token(self, line: int, tokens: list[_Token], head: _Token) -> _Token:
        if len(tokens) < 2 or "=" in tokens[1].text:
            self.fail(line, head, "missing element name")
        name = tokens[1]
        if not _IDENT_RE.match(name.text):
            self.fail(line, name, f"invalid name '{name.text}'")
        return name

    def declare(self, line: int, tok: _Token, path: str):
        if path in self.declared:
            self.fail(line, tok, f"duplicate path declaration '{path}'")
        self.declared.add(path)

    def require_declared(self, line: int, tok: _Token, path: str):
        if path not in self.declared:
            self.fail(line, tok, f"undeclared path '{path}'")

    # statements -----------------------------------------------------------

    def source_stmt(self, line: int, tokens: list[_Token]):
        head = tokens[0]
        name = self.name_token(line, tokens, head)
        args = self.kv_args(line, tokens[2:], {"arms", "alt", "alpha"})
        arm_items = self.two_items(line, args, "arms", head, "arm modes")
        alt_items = self.two_items(line, args, "alt", head, "alt modes")
        arms = tuple(self.mode_item(line, t) for t in arm_items)
        alt = tuple(self.mode_item(line, t) for t in alt_items)
        alpha = self.float_value(line, args["alpha"]) if "alpha" in args else math.pi / 4
        for tok, mode in zip(arm_items + alt_items, arms + alt):
            self.declare(line, tok, mode.path)
        self.statements.append(SourceStmt(name.text, arms, alt, alpha, line=line))

    def aom_stmt(self, line: int, tokens: list[_Token]):
        head = tokens[0]
        name = self.name_token(line, tokens, head)
        args = self.kv_args(line, tokens[2:], {"in", "out", "shift", "t", "convention"})
        in_items = self.two_items(line, args, "in", head, "inputs")
        out_items = self.two_items(line, args, "out", head, "outputs")
        inputs = tuple(self.mode_item(line, t) for t in in_items)
        outputs = tuple(self.path_item(line, t) for t in out_items)
        for tok, mode in zip(in_items, inputs):
            self.require_declared(line, tok, mode.path)
        shift = self.int_value(line, args["shift"]) if "shift" in args else 1
        t_amp = self.float_value(line, args["t"]) if "t" in args else BALANCED_T
        convention = Convention.UNITARY
        if "convention" in args:
            tok = args["convention"]
            values = {c.value: c for c in Convention}
            if tok.text not in values:
                self.fail(line, tok, f"convention must be one of {sorted(values)}")
            convention = values[tok.text]
        for tok, path in zip(out_items, outputs):
            self.declare(line, tok, path)
        self.statements.append(
            AomStmt(name.text, inputs, outputs, shift, t_amp, convention, line=line)
        )

    def filter_stmt(self, line: int, tokens: list[_Token]):
        head = tokens[0]
        name = self.name_token(line, tokens, head)
        args = self.kv_args(line, tokens[2:], {"path", "pass", "sigma"})
        path_tok = self.need(line, args, "path", head)
        path = self.path_item(line, path_tok)
        self.require_declared(line, path_tok, path)
        pass_bin = self.int_value(line, self.need(line, args, "pass", head))
        sigma = self.float_value(line, args["sigma"], positive=True) if "sigma" in args else 1.0
        self.statements.append(FilterStmt(name.text, path, pass_bin, sigma, line=line))

    def herald_stmt(self, line: int, tokens: list[_Token]):
        head = tokens[0]
        if self.herald_line is not None:
            self.fail(line, head, f"multiple herald statements (first at line {self.herald_line})")
        rest = tokens[1:]
        if not rest:
            self.fail(line, head, "herald needs at least one count(...)==N clause")
        clauses: list[tuple[tuple[str, ...], int]] = []
        expect_clause = True
        for tok in rest:
            if expect_clause:
                m = _COUNT_RE.match(tok.text)
                if m is None:
                    self.fail(line, tok, "expected clause of the form count(P,...)==N")
                paths = tuple(m.group(1).split(","))
                for p in paths:
                    self.require_declared(line, tok, p)
                clauses.append((paths, int(m.group(2))))
                expect_clause = False
            else:
                if tok.text != "and":
                    self.fail(line, tok, "expected 'and' between herald clauses")
                expect_clause = True
        if expect_clause:
            self.fail(line, rest[-1], "trailing 'and' without a clause")
        self.herald_line = line
        self.statements.append(HeraldStmt(tuple(clauses), line=line))

    def check_stmt(self, line: int, tokens: list[_Token]):
        head = tokens[0]
        if len(tokens) < 2 or tokens[1].text != "bandwidth":
            self.fail(line, head, "expected 'check bandwidth pump=FLOAT'")
        args = self.kv_args(line, tokens[2:], {"pump"})
        pump = self.float_value(line, self.need(line, args, "pump", head), positive=True)
        self.statements.append(CheckStmt(pump, line=line))

    def report_stmt(self, line: int, tokens: list[_Token]):
        head = tokens[0]
        if self.herald_line is None:
            self.fail(line, head, "report statements must follow the herald")
        if len(tokens) < 2:
            self.fail(line, head, "missing report kind (entropy, ghz, or outcomes)")
        kind = tokens[1]
        allowed = {"entropy": {"split"}, "ghz": {"a", "b"}, "outcomes": {"paths"}}
        if kind.text not in allowed:
            self.fail(line, kind, f"unknown report kind '{kind.text}'")
        args = self.kv_args(line, tokens[2:], allowed[kind.text])
        if kind.text == "ghz":
            a_items = self.list_items(line, self.need(line, args, "a", head))
            b_items = self.list_items(line, self.need(line, args, "b", head))
            branch_a = tuple(self.mode_item(line, t) for t in a_items)
            branch_b = tuple(self.mode_item(line, t) for t in b_items)
            for tok, mode in zip(a_items + b_items, branch_a + branch_b):
                self.require_declared(line, tok, mode.path)
            self.statements.append(ReportGhzStmt(branch_a, branch_b, line=line))
        else:  # entropy split=(...) or outcomes paths=(...)
            (key,) = allowed[kind.text]
            items = self.list_items(line, self.need(line, args, key, head))
            paths = tuple(self.path_item(line, t) for t in items)
            for tok, p in zip(items, paths):
                self.require_declared(line, tok, p)
            stmt = ReportEntropyStmt if kind.text == "entropy" else ReportOutcomesStmt
            self.statements.append(stmt(paths, line=line))


def parse(text: str) -> CircuitAst | list[ParseError]:
    """Parse circuit text; returns the AST or a non-empty list of errors."""
    return _Parser().parse(text)


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

    ``final`` is the evolved state as the engine holds it;
    ``evolved_state`` builds its kets on first use.
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


@dataclass
class Pipeline:
    """Executable circuit lowered from an AST; ``run`` evolves and heralds."""

    sources: list[SourceSpec]
    elements: list[AomSpec | FilterSpec]
    herald: HeraldRule | None
    reports: list[ReportEntropyStmt | ReportGhzStmt | ReportOutcomesStmt]
    pump_sigma: float | None

    def run(self, convention_override: Convention | None = None,
            alpha: float | list[float] | None = None) -> PipelineResult:
        """Evolve one occupation matrix over the mode closure, then herald and report.

        ``alpha`` gives every source that angle, as ``convention_override``
        gives every AOM that convention.  A list of angles evolves one batch
        with one member per angle (:mod:`aomsim.engine`): each outcome's
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
        steps: list[ElementOp | FilterSpec] = []
        for element in self.elements:
            if isinstance(element, AomSpec):
                if convention_override is not None:
                    element = dataclasses.replace(element, phase_convention=convention_override)
                element = make_aom(element)
            steps.append(element)
        modes = circuit_modes(self.sources, [s for s in steps if isinstance(s, ElementOp)])
        state: engine.ArrayState | None = None
        for spec in self.sources:
            emitted = make_source(spec, modes, alpha)
            state = emitted if state is None else tensor(state, emitted)
        filter_survivals: dict[str, float] = {}
        filter_sigmas: list[float] = []
        for step in steps:
            if isinstance(step, ElementOp):
                state = apply_element(state, step)
            else:
                state, survived = apply_filter(state, step)
                filter_survivals[step.path] = survived
                filter_sigmas.append(step.sigma)
        bandwidth_valid = None
        if self.pump_sigma is not None:
            bandwidth_valid = check_bandwidth(
                BandwidthCheck(self.pump_sigma, tuple(filter_sigmas))
            )
        if self.herald is None:  # one outcome, its rows in ket order as a herald lists them
            by_ket = engine.ket_order(state.occ)
            outcomes = [
                HeraldOutcome(
                    label="all",
                    probability=engine.squared(engine.norm(state.amp)),
                    conditional_state=engine.ArrayState(
                        state.modes, state.occ[by_ket], engine.select(state.amp, by_ket),
                        state.non_unitary),
                    accepted=True,
                )
            ]
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
                branch_paths = {m.path for m in report.branch_a + report.branch_b}
                a, b = FockKet.from_modes(report.branch_a), FockKet.from_modes(report.branch_b)
                for outcome in accepted:
                    outcome.metrics["ghz_fidelity"] = ghz_fidelity(
                        restrict_to_paths(outcome.rows, branch_paths), a, b)
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
            bandwidth_valid=bandwidth_valid,
            non_unitary=state.non_unitary,
        )


def compile_circuit(ast: CircuitAst) -> Pipeline:
    """Lower an AST to a pipeline, validating element-level consistency.

    Raises :class:`CompileError` (with the statement's line) on AOM bin/shift
    mismatches, reuse of a path by two declaring statements, or herald/report
    references to undeclared paths.  Parse already enforces these for text
    input; the compiler re-checks so programmatically built ASTs get the same
    diagnostics.
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
            if isinstance(stmt, SourceStmt):
                for mode in stmt.arms + stmt.alt:
                    declare(mode.path, stmt.line)
                sources.append(SourceSpec(stmt.name, stmt.arms, stmt.alt, stmt.alpha))
            elif isinstance(stmt, AomStmt):
                for mode in stmt.inputs:
                    known(mode.path, stmt.line)
                for path in stmt.outputs:
                    declare(path, stmt.line)
                elements.append(AomSpec(
                    stmt.name, stmt.inputs[0], stmt.inputs[1], output_x=stmt.outputs[0],
                    output_y=stmt.outputs[1], shift=stmt.shift, t_amp=stmt.t_amp,
                    phase_convention=stmt.convention))
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
                    paths = [mode.path for mode in stmt.branch_a + stmt.branch_b]
                else:
                    paths = stmt.split if isinstance(stmt, ReportEntropyStmt) else stmt.paths
                for p in paths:
                    known(p, stmt.line)
                reports.append(stmt)
            else:
                raise CompileError(f"unsupported statement type {type(stmt).__name__}")
        except (SpecInvariantError, ValueError) as exc:
            raise CompileError(str(exc), stmt.line) from exc
    return Pipeline(
        sources=sources,
        elements=elements,
        herald=herald,
        reports=reports,
        pump_sigma=pump,
    )
