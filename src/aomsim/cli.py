"""Command-line front end: run circuit files, built-in demos, parameter sweeps.

Exit codes follow compiler-tool convention: 0 success, 2 parse/compile/usage
errors (diagnostics on stderr with line numbers, and output paths that
cannot be written), 1 runtime errors and any unexpected exception (one line
on stderr, no traceback).  Machine
output (JSON reports, CSV sweeps) is deterministic: no timestamps, sorted
keys, floats at 12 significant digits.

A run report is encoded in one batch from the engine's rows of the outcome
states (``HeraldOutcome.rows``), never from kets: the rows are read in the
order the outcomes hold them, which is ket order (the herald orders them).
One pass over the concatenated rows lists the ``[path,bin,n]`` fragment of
every occupied cell, each distinct fragment and each distinct amplitude bit
pattern encoded once, and each term is one format string that joins its
row's fragments.  Outcome heads come from one ``%`` template per sorted
tuple of metric keys, their floats encoded in one batch.  The compact text
is assembled from those pieces and small ``json.dumps`` pieces with sorted
keys, in one join.  ``--pretty`` re-indents that text; float reprs
round-trip, so only whitespace changes.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from functools import lru_cache
from importlib import resources
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import engine
from .dsl import Pipeline, PipelineResult, compile_circuit, parse
from .elements import Convention
from .errors import CompileError, SimulatorError
from .experiments import GhzResult, HeraldOutcome, SwapResult, run_ghz, run_swap
from .states import row_pieces, shared_columns

SCHEMA_VERSION = 1

__all__ = ["main", "cmd_run", "cmd_demo", "cmd_sweep", "load_report_schema", "SCHEMA_VERSION"]


def load_report_schema() -> dict:
    """The JSON schema the run reports conform to (shipped with the package)."""
    text = resources.files("aomsim").joinpath("run_report_schema.json").read_text("utf-8")
    return json.loads(text)


def _sig12(x: float) -> float:
    return float(f"{x:.12g}")


def _round_floats(obj):
    if isinstance(obj, float):
        return _sig12(obj)
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_round_floats(v) for v in obj]
    return obj


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _compact(obj) -> str:
    """``obj`` as compact JSON with sorted keys, every float rounded."""
    return _ENCODER.encode(_round_floats(obj))


def _floats_json(x: np.ndarray) -> list[str]:
    """Each (finite) float rounded to 12 significant digits, as JSON; each value encoded once.

    Values are told apart by bit pattern (one ``np.unique``), which keeps
    -0.0 apart from 0.0.
    """
    bits, inverse = np.unique(x.view(np.int64), return_inverse=True)
    distinct = np.array([repr(_sig12(v)) for v in bits.view(np.float64).tolist()], dtype=object)
    return distinct[inverse].tolist()


def _head_template(keys: tuple[str, ...]) -> str:
    """An outcome's head as a ``%`` template: accepted, label, the metrics of ``keys``, probability."""
    metrics = ",".join(encode_basestring_ascii(k).replace("%", "%%") + ":%s" for k in keys)
    return '{"accepted":%s,"label":%s,"metrics":{' + metrics + '},"probability":%s'


def _heads(outcomes: list[HeraldOutcome]) -> list[str]:
    """Each outcome's keys before ``state`` as compact JSON, without the closing brace.

    Keys are in sorted order, strings are encoded as the JSON encoder
    encodes them and floats are rounded as :func:`_compact` rounds them.
    Each sorted tuple of metric keys has one template, and the floats of
    all heads are encoded in one batch.
    """
    keys = [tuple(sorted(o.metrics)) for o in outcomes]
    values = [v for o, k in zip(outcomes, keys) for v in (*map(o.metrics.__getitem__, k),
                                                           o.probability)]
    texts = _floats_json(np.array(values, dtype=float))
    templates: dict[tuple[str, ...], str] = {}
    out = []
    end = 0
    for o, k in zip(outcomes, keys):
        template = templates[k] if k in templates else templates.setdefault(k, _head_template(k))
        start, end = end, end + len(k) + 1
        out.append(template % ("true" if o.accepted else "false",
                               encode_basestring_ascii(o.label), *texts[start:end]))
    return out


def _fragment(mode, n: int) -> str:
    """``[path,bin,n]`` as compact JSON."""
    return f"[{encode_basestring_ascii(mode[0])},{mode[1]},{n}]"


def _terms_json(outcomes: list[HeraldOutcome]) -> list[str]:
    """Every term of the outcome states as text, outcome after outcome, each in its rows' order.

    The rows of all states are encoded in one batch, on shared columns (the
    outcomes of one herald share theirs already), in the order the outcomes
    hold them: ket order, as the herald lists them.  The ``[path,bin,n]``
    fragments of every occupied cell come from one pass over the rows
    (:func:`aomsim.states.row_pieces`), and each row's ``modes`` text is
    joined inside its term's format string.  Each term starts with what
    precedes it in its state's list: ``[`` for the first term, ``,`` for the
    others.  Amplitudes are rounded to 12 significant digits.
    """
    arrays = shared_columns([o.rows for o in outcomes if o.rows is not None])
    if not arrays:
        return []
    occ = np.concatenate([s.occ for s in arrays])
    amp = np.concatenate([s.amp for s in arrays])
    # each term's lead, one character per term
    leads = "".join("[" + "," * (len(s.amp) - 1) for s in arrays if len(s.amp))
    parts = _floats_json(amp.view(np.float64))  # real and imaginary part of each term in turn
    pieces, ends = row_pieces(arrays[0].modes, occ, _fragment)
    return [f'{lead}{{"im":{im},"modes":[{",".join(pieces[a:b])}],"re":{re}}}'
            for lead, re, im, a, b in zip(leads, parts[::2], parts[1::2], [0, *ends], ends)]


def _outcomes_json(outcomes: list[HeraldOutcome]) -> list[str]:
    """The report's ``outcomes`` list as pieces of text, to be joined once.

    A report is mostly its outcome states' terms; keeping each term a piece
    of its own builds the report in one join, with no per-state copy.
    """
    terms = iter(_terms_json(outcomes))
    pieces = ["["]
    for i, (o, head) in enumerate(zip(outcomes, _heads(outcomes))):
        pieces.append(f'{"," if i else ""}{head},"state":')  # "state" sorts last
        if o.rows is None:
            pieces.append("null}")
        elif len(o.rows.amp):
            pieces += itertools.islice(terms, len(o.rows.amp))
            pieces.append("]}")
        else:
            pieces.append("[]}")
    pieces.append("]")
    return pieces


def _flags(outcomes: list[HeraldOutcome], bandwidth_valid: bool | None) -> dict:
    non_unitary = any(o.rows.non_unitary for o in outcomes if o.rows is not None)
    return {"bandwidth_valid": bandwidth_valid, "non_unitary": non_unitary}


def _report(
    circuit: str,
    convention: Convention,
    outcomes: list[HeraldOutcome],
    success: float,
    metrics: dict[str, float],
    bandwidth_valid: bool | None,
    extra: dict | None = None,
) -> str:
    """The run report as compact JSON: sorted keys, floats at 12 significant digits."""
    fields = {
        "schema_version": SCHEMA_VERSION,
        "circuit": circuit,
        "convention": convention.value,
        "success_probability": success,
        "metrics": metrics,
        "flags": _flags(outcomes, bandwidth_valid),
        **(extra or {}),
    }
    # "circuit" sorts before "outcomes" and "schema_version" after it
    head = _compact({k: v for k, v in fields.items() if k < "outcomes"})
    tail = _compact({k: v for k, v in fields.items() if k > "outcomes"})
    return "".join([head[:-1], ',"outcomes":', *_outcomes_json(outcomes), ",", tail[1:]])


def _write(path: str, text: str) -> int:
    """Write ``text`` to ``path``: exit code 0, or 2 if the path cannot be written."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return 2
    return 0


def _write_json(report: str, path: str, pretty: bool) -> int:
    if pretty:  # float reprs round-trip, so this only changes whitespace
        report = json.dumps(json.loads(report), sort_keys=True, indent=2)
    return _write(path, report + "\n")


def _print_outcomes(outcomes: list[HeraldOutcome]):
    width = max(len(o.label) for o in outcomes) + 2
    lines = [f"{'outcome':<{width}} probability  details"]
    for o in outcomes:
        details = " ".join(f"{k}={v:.6f}" for k, v in sorted(o.metrics.items()))
        lines.append(f"{o.label:<{width}} {o.probability:<12.6f} {details}".rstrip())
    print("\n".join(lines))  # one write for the whole table


def _print_pipeline_result(name: str, convention: Convention | None, result: PipelineResult):
    print(f"circuit: {name}")
    if convention is not None:
        print(f"convention: {convention.value} (override)")
    if result.bandwidth_valid is not None:
        print(f"bandwidth check: {'valid' if result.bandwidth_valid else 'INVALID'}")
    if result.non_unitary:
        print("note: evolution included a renormalizing (non-unitary) element")
    print(f"success probability: {result.success_probability:.6f}")
    print()
    _print_outcomes(result.outcomes)
    for key, dist in sorted(result.count_distributions.items()):
        print(f"\nphoton-count distribution over ({key}):")
        for count, prob in dist.items():
            print(f"  {count} photon(s): {prob:.6f}")


def cmd_run(args) -> int:
    try:
        text = Path(args.file).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
        return 2
    parsed = parse(text)
    if isinstance(parsed, list):
        for err in parsed:
            print(f"{args.file}:{err}", file=sys.stderr)
        return 2
    try:
        pipeline = compile_circuit(parsed)
    except CompileError as exc:
        print(f"{args.file}: {exc}", file=sys.stderr)
        return 2
    convention = Convention(args.convention) if args.convention else None
    result = pipeline.run(convention_override=convention)
    _print_pipeline_result(args.file, convention, result)
    if args.json:
        used = convention or _pipeline_convention(pipeline)
        metrics = {"success_probability": result.success_probability}
        extra = {}
        if result.count_distributions:
            extra["count_distributions"] = {
                k: {str(c): p for c, p in d.items()}
                for k, d in result.count_distributions.items()
            }
        report = _report(args.file, used, result.outcomes, result.success_probability,
                         metrics, result.bandwidth_valid, extra)
        return _write_json(report, args.json, args.pretty)
    return 0


def _pipeline_convention(pipeline: Pipeline) -> Convention:
    for element in pipeline.elements:
        if hasattr(element, "phase_convention"):
            return element.phase_convention
    return Convention.UNITARY


def cmd_demo(args) -> int:
    if not math.isfinite(args.alpha):
        print("error: --alpha must be a finite number", file=sys.stderr)
        return 2
    convention = Convention(args.convention)
    if args.name == "swap":
        result = run_swap(alpha=args.alpha, convention=convention)
        _print_swap(result)
        bandwidth_valid, extra = None, {"alpha": result.alpha}
    else:
        result = run_ghz(alpha=args.alpha, convention=convention)
        _print_ghz(result)
        bandwidth_valid = result.bandwidth_valid
        extra = {"alpha": result.alpha, "per_detector": result.per_detector}
    if args.json:
        report = _report(f"demo:{args.name}", convention, result.outcomes,
                         result.success_probability, result.metrics, bandwidth_valid, extra)
        return _write_json(report, args.json, args.pretty)
    return 0


def _print_swap(result: SwapResult):
    print(f"demo: entanglement swap (convention: {result.convention.value}, "
          f"alpha: {result.alpha:.6f})")
    print(f"success probability: {result.success_probability:.6f}")
    print()
    _print_outcomes(result.outcomes)
    print()
    for key, value in sorted(result.metrics.items()):
        print(f"{key}: {value:.6f}")


def _print_ghz(result: GhzResult):
    print(f"demo: three-photon GHZ generation (convention: {result.convention.value}, "
          f"alpha: {result.alpha:.6f})")
    print(f"bandwidth check: {'valid' if result.bandwidth_valid else 'INVALID'}")
    for detector in sorted(result.per_detector):
        print(f"per-detector probability [{detector}]: {result.per_detector[detector]:.6f}")
    print(f"total heralded probability: {result.success_probability:.6f}")
    print()
    _print_outcomes(result.outcomes)


def cmd_sweep(args) -> int:
    """CSV of the GHZ scheme over evenly spaced source angles.

    Every angle is evolved in one batch through the engine kernels
    (``run_ghz`` of the list of angles): the angles share one occupation
    matrix and row plan, and only the amplitudes carry a row per angle.  An
    angle whose amplitudes drop other rows than the rest (``alpha = 0``
    drops a source row) is split off and evolved as a batch of its own, and
    the angles are chunked so that angles times terms stays within
    ``engine.TERM_BUDGET``.  Each row is bit-identical to ``run_ghz`` at its
    angle.
    """
    if args.steps < 2:
        print("error: --steps must be at least 2", file=sys.stderr)
        return 2
    if args.steps > engine.TERM_BUDGET:
        print(f"error: --steps must be at most {engine.TERM_BUDGET}, the engine's term budget",
              file=sys.stderr)
        return 2
    if not (math.isfinite(args.alpha_from) and math.isfinite(args.alpha_to)):
        print("error: --alpha-from and --alpha-to must be finite numbers", file=sys.stderr)
        return 2
    if not args.alpha_from < args.alpha_to:
        print("error: --alpha-from must be below --alpha-to", file=sys.stderr)
        return 2

    def alpha_at(i: int) -> float:
        return args.alpha_from + i * (args.alpha_to - args.alpha_from) / (args.steps - 1)

    if not math.isfinite(alpha_at(args.steps - 1)):  # the largest step bounds the others
        print("error: --alpha-from and --alpha-to are too far apart", file=sys.stderr)
        return 2
    alphas = [alpha_at(i) for i in range(args.steps)]
    sweep = run_ghz(alphas, Convention(args.convention))
    columns = (alphas, sweep.per_detector["T"].tolist(), sweep.success_probability.tolist(),
               sweep.fidelity.tolist())
    lines = ["alpha,per_detector_prob,total_prob,ghz_fidelity"]
    lines += ["%.12g,%.12g,%.12g,%.12g" % row for row in zip(*columns)]
    text = "\n".join(lines) + "\n"
    if args.csv:
        return _write(args.csv, text)
    sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aomsim",
        description="Simulate frequency-bin photonic circuits built from AOM elements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="parse, compile, and execute a circuit file")
    p_run.add_argument("file", help="circuit file (.qc)")
    p_run.add_argument("--json", metavar="PATH", help="write a JSON run report")
    p_run.add_argument("--convention", choices=[c.value for c in Convention],
                       help="override the phase convention of every AOM")
    p_run.add_argument("--pretty", action="store_true", help="indent JSON output")

    p_demo = sub.add_parser("demo", help="run a built-in experiment")
    p_demo.add_argument("name", choices=["swap", "ghz"])
    p_demo.add_argument("--alpha", type=float, default=math.pi / 4,
                        help="source mixing angle in radians (default pi/4)")
    p_demo.add_argument("--convention", choices=[c.value for c in Convention],
                        default=Convention.UNITARY.value)
    p_demo.add_argument("--json", metavar="PATH", help="write a JSON run report")
    p_demo.add_argument("--pretty", action="store_true", help="indent JSON output")

    p_sweep = sub.add_parser("sweep", help="sweep the GHZ mixing angle, emit CSV")
    p_sweep.add_argument("name", choices=["ghz"])
    p_sweep.add_argument("--alpha-from", type=float, default=0.0)
    p_sweep.add_argument("--alpha-to", type=float, default=math.pi / 2)
    p_sweep.add_argument("--steps", type=int, default=33)
    p_sweep.add_argument("--convention", choices=[c.value for c in Convention],
                         default=Convention.UNITARY.value)
    p_sweep.add_argument("--csv", metavar="PATH", help="write the table to a file")
    return parser


_parser = lru_cache(maxsize=None)(build_parser)  # built once: parsing leaves no state in it

_FLOAT_OPTIONS = ("--alpha", "--alpha-from", "--alpha-to")


def _is_float(text: str) -> bool:
    try:
        return float(text) is not None
    except ValueError:
        return False


def _join_float_values(argv: list[str]) -> list[str]:
    """``--alpha -1e-3`` as ``--alpha=-1e-3``: argparse reads ``-1e-3`` as an option."""
    out: list[str] = []
    for token in argv:
        if out and out[-1] in _FLOAT_OPTIONS and _is_float(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(_join_float_values(sys.argv[1:] if argv is None else argv))
    try:
        # looked up by name on each call, so a replaced cmd_* takes effect
        return globals()[f"cmd_{args.command}"](args)
    except SimulatorError as exc:  # parse and compile errors are handled in cmd_run
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # a defect, not bad input: report it on one line
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
