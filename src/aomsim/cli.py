"""Command-line front end: run circuit files, built-in demos, parameter sweeps.

Exit codes follow compiler-tool convention: 0 success, 2 parse/compile/usage
errors (diagnostics on stderr with line numbers), 1 runtime errors and any
unexpected exception (one line on stderr, no traceback).  Machine
output (JSON reports, CSV sweeps) is deterministic: no timestamps, sorted
keys, floats at 12 significant digits.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from importlib import resources
from pathlib import Path

from .dsl import Pipeline, PipelineResult, compile_circuit, parse
from .elements import Convention
from .errors import CompileError, SimulatorError
from .experiments import GhzResult, HeraldOutcome, SwapResult, run_ghz, run_swap
from .states import StateVector

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


class _PairLists(dict):
    """``(mode, n)`` pair -> its ``[path, bin, n]`` JSON list, one list per pair.

    A report reuses the list wherever the pair occurs, instead of building a
    new one per term; the serialized bytes are the same.
    """

    def __missing__(self, pair):
        item = self[pair] = [pair[0][0], pair[0][1], pair[1]]
        return item


def _state_json(state: StateVector | None, pairs: _PairLists) -> list[dict] | None:
    """Terms of a state in ket order, amplitudes already rounded."""
    if state is None:
        return None
    lists = pairs.__getitem__
    return [
        {
            "modes": list(map(lists, k.items())),
            "re": _sig12(amp.real),
            "im": _sig12(amp.imag),
        }
        for k, amp in state.sorted_items()
    ]


def _outcome_json(o: HeraldOutcome, pairs: _PairLists) -> dict:
    out = _round_floats({
        "label": o.label,
        "accepted": o.accepted,
        "probability": o.probability,
        "metrics": dict(sorted(o.metrics.items())),
    })
    out["state"] = _state_json(o.conditional_state, pairs)
    return out


def _flags(outcomes: list[HeraldOutcome], bandwidth_valid: bool | None) -> dict:
    non_unitary = any(
        o.conditional_state.non_unitary for o in outcomes if o.conditional_state is not None
    )
    return {"bandwidth_valid": bandwidth_valid, "non_unitary": non_unitary}


def _report(
    circuit: str,
    convention: Convention,
    outcomes: list[HeraldOutcome],
    success: float,
    metrics: dict[str, float],
    bandwidth_valid: bool | None,
    extra: dict | None = None,
) -> dict:
    """The run report with every float rounded to 12 significant digits."""
    report = {
        "schema_version": SCHEMA_VERSION,
        "circuit": circuit,
        "convention": convention.value,
        "success_probability": success,
        "metrics": dict(sorted(metrics.items())),
        "flags": _flags(outcomes, bandwidth_valid),
    }
    if extra:
        report.update(extra)
    report = _round_floats(report)
    # outcome states are the bulk of a report; _state_json rounds them itself
    pairs = _PairLists()
    report["outcomes"] = [_outcome_json(o, pairs) for o in outcomes]
    return report


def _write_json(report: dict, path: str, pretty: bool):
    indent = 2 if pretty else None
    text = json.dumps(report, sort_keys=True, indent=indent,
                      separators=None if pretty else (",", ":"))
    Path(path).write_text(text + "\n", encoding="utf-8")


def _print_outcomes(outcomes: list[HeraldOutcome]):
    width = max(len(o.label) for o in outcomes) + 2
    print(f"{'outcome':<{width}} probability  details")
    for o in outcomes:
        details = " ".join(f"{k}={v:.6f}" for k, v in sorted(o.metrics.items()))
        print(f"{o.label:<{width}} {o.probability:<12.6f} {details}".rstrip())


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
    except OSError as exc:
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
        _write_json(report, args.json, args.pretty)
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
        report = _report("demo:swap", convention, result.outcomes,
                         result.success_probability, result.metrics, None,
                         {"alpha": result.alpha})
    else:
        result = run_ghz(alpha=args.alpha, convention=convention)
        _print_ghz(result)
        report = _report("demo:ghz", convention, result.outcomes,
                         result.success_probability, result.metrics,
                         result.bandwidth_valid,
                         {"alpha": result.alpha,
                          "per_detector": dict(sorted(result.per_detector.items()))})
    if args.json:
        _write_json(report, args.json, args.pretty)
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
    if args.steps < 2:
        print("error: --steps must be at least 2", file=sys.stderr)
        return 2
    if not (math.isfinite(args.alpha_from) and math.isfinite(args.alpha_to)):
        print("error: --alpha-from and --alpha-to must be finite numbers", file=sys.stderr)
        return 2
    if not args.alpha_from < args.alpha_to:
        print("error: --alpha-from must be below --alpha-to", file=sys.stderr)
        return 2
    convention = Convention(args.convention)
    rows = []
    for i in range(args.steps):
        alpha = args.alpha_from + i * (args.alpha_to - args.alpha_from) / (args.steps - 1)
        result = run_ghz(alpha=alpha, convention=convention)
        accepted = [o for o in result.outcomes if o.accepted]
        fidelity = min((o.metrics["ghz_fidelity"] for o in accepted), default=0.0)
        rows.append((alpha, result.per_detector["T"], result.success_probability, fidelity))
    lines = ["alpha,per_detector_prob,total_prob,ghz_fidelity"]
    lines += [",".join(f"{v:.12g}" for v in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if args.csv:
        Path(args.csv).write_text(text, encoding="utf-8")
    else:
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
    p_run.set_defaults(func=cmd_run)

    p_demo = sub.add_parser("demo", help="run a built-in experiment")
    p_demo.add_argument("name", choices=["swap", "ghz"])
    p_demo.add_argument("--alpha", type=float, default=math.pi / 4,
                        help="source mixing angle in radians (default pi/4)")
    p_demo.add_argument("--convention", choices=[c.value for c in Convention],
                        default=Convention.UNITARY.value)
    p_demo.add_argument("--json", metavar="PATH", help="write a JSON run report")
    p_demo.add_argument("--pretty", action="store_true", help="indent JSON output")
    p_demo.set_defaults(func=cmd_demo)

    p_sweep = sub.add_parser("sweep", help="sweep the GHZ mixing angle, emit CSV")
    p_sweep.add_argument("name", choices=["ghz"])
    p_sweep.add_argument("--alpha-from", type=float, default=0.0)
    p_sweep.add_argument("--alpha-to", type=float, default=math.pi / 2)
    p_sweep.add_argument("--steps", type=int, default=33)
    p_sweep.add_argument("--convention", choices=[c.value for c in Convention],
                         default=Convention.UNITARY.value)
    p_sweep.add_argument("--csv", metavar="PATH", help="write the table to a file")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SimulatorError as exc:  # parse and compile errors are handled in cmd_run
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # a defect, not bad input: report it on one line
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
