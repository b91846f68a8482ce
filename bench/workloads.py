"""Seeded inputs and exact output checks for the aomsim benchmark workloads.

A workload turns ``(seed, op index)`` into one operation: a list of
:class:`Command` invocations that the harness runs in turn through
``aomsim.cli.main``.  Inputs for op ``i`` depend only on the seed and ``i``,
so every run with the same seed sees the same sequence.  After the timed
region, :meth:`Workload.check` receives what one command returned, printed
and wrote, and lists every problem found; an empty list means the output is
right.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

TOL = 1e-9
CONVENTIONS = ("unitary", "paper")


@dataclass(frozen=True)
class Command:
    """One ``aomsim`` invocation, the files it reads and the file it writes.

    ``inputs`` holds ``(path, text)`` pairs the harness writes before the
    timed region; argv and inputs together identify what the command computes.
    """

    argv: tuple[str, ...]
    output: Path | None
    inputs: tuple[tuple[Path, str], ...] = ()


@dataclass(frozen=True)
class Result:
    """What one command did: exit code (None if it raised), stdout, file bytes."""

    rc: int | None
    stdout: str
    data: bytes | None

    @property
    def bytes_out(self) -> int:
        return len(self.stdout.encode("utf-8")) + len(self.data or b"")


def op_rng(seed: int, index: int) -> random.Random:
    # string seeds hash through sha512, independent of PYTHONHASHSEED
    return random.Random(f"aomsim-bench:{seed}:{index}")


def close(x: float, want: float) -> bool:
    return abs(x - want) <= TOL


class ReportValidator:
    """Validates run reports against the schema shipped in the source tree."""

    def __init__(self, schema_path: Path):
        import jsonschema

        schema = json.loads(schema_path.read_text("utf-8"))
        self._validator = jsonschema.validators.validator_for(schema)(schema)

    def problems(self, report: dict) -> list[str]:
        return [f"schema: {e.message}" for e in self._validator.iter_errors(report)]


# --------------------------------------------------------------------- chain


def chain_circuit(k: int, rng: random.Random) -> str:
    """Entanglement-swap chain over ``k`` biphoton sources.

    Source ``i`` emits photons on ``L_i``/``R_i`` (primed paths for the
    alternative pair).  Between sources ``i`` and ``i+1`` two AOMs join
    ``R_i`` with ``L_{i+1}`` exactly as ``circuits/swap.qc`` joins photons 2
    and 3.  The generator draws each AOM's phase convention and the order of
    the AOM statements; the herald asks for one photon per AOM output pair.
    """
    lines = [f"# swap chain, k={k}"]
    for i in range(k):
        lines.append(f"source S{i} arms=(L{i}@0,R{i}@1) alt=(L{i}'@1,R{i}'@0)")
    aoms = []
    for i in range(k - 1):
        j = i + 1
        aoms.append(f"aom A{i} in=(R{i}@1,L{j}@0) out=(T{i},T{i}') "
                    f"convention={rng.choice(CONVENTIONS)}")
        aoms.append(f"aom B{i} in=(L{j}'@1,R{i}'@0) out=(U{i}',U{i}) "
                    f"convention={rng.choice(CONVENTIONS)}")
    rng.shuffle(aoms)
    lines += aoms
    clauses = [f"count(T{i},T{i}')==1 and count(U{i},U{i}')==1" for i in range(k - 1)]
    lines.append("herald " + " and ".join(clauses))
    lines.append("report entropy split=(L0,L0')")
    return "\n".join(lines) + "\n"


def check_chain_report(report: dict, k: int) -> list[str]:
    """Exact answers of the k-source chain, whatever the per-AOM conventions.

    Success probability ``2^-(k-1)``; ``4^(k-1)`` accepted heralds holding
    ``2*4^(k-1)`` terms between them; one ebit across ``{L0, L0'}`` in each.
    """
    problems = []
    heralds = 4 ** (k - 1)
    if not close(report.get("success_probability", -1.0), 2.0 ** -(k - 1)):
        problems.append(f"success probability {report.get('success_probability')} "
                        f"!= 2^-{k - 1}")
    accepted = [o for o in report.get("outcomes", []) if o.get("accepted")]
    if len(accepted) != heralds:
        problems.append(f"{len(accepted)} accepted heralds, expected {heralds}")
    terms = sum(len(o.get("state") or ()) for o in accepted)
    if terms != 2 * heralds:
        problems.append(f"accepted heralds hold {terms} terms, expected {2 * heralds}")
    for o in accepted:
        ent = o.get("metrics", {}).get("entropy[L0,L0']")
        if ent is None or not close(ent, 1.0):
            problems.append(f"herald {o.get('label')}: entropy {ent}, expected 1 ebit")
            break
    return problems


# --------------------------------------------------------------------- sweep


def sweep_alphas(alpha_from: float, alpha_to: float, steps: int) -> list[float]:
    return [alpha_from + i * (alpha_to - alpha_from) / (steps - 1) for i in range(steps)]


def check_sweep_csv(text: str, alpha_from: float, alpha_to: float, steps: int) -> list[str]:
    """GHZ law per row: per detector sin^2 cos^2, total twice that, fidelity 1."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["alpha", "per_detector_prob", "total_prob", "ghz_fidelity"]:
        return ["missing or wrong CSV header"]
    body = rows[1:]
    if len(body) != steps:
        return [f"{len(body)} rows, expected {steps}"]
    for want_alpha, row in zip(sweep_alphas(alpha_from, alpha_to, steps), body):
        try:
            alpha, per_det, total, fid = (float(v) for v in row)
        except ValueError:
            return [f"malformed row {row}"]
        law = (math.sin(want_alpha) * math.cos(want_alpha)) ** 2
        if not (close(alpha, want_alpha) and close(per_det, law)
                and close(total, 2 * law) and close(fid, 1.0)):
            return [f"row {row} breaks the GHZ law at alpha={want_alpha!r}"]
    return []


# --------------------------------------------------------------------- demos


def check_swap_report(report: dict, entropy_key: str) -> list[str]:
    """Swap: p=1/2 in total, four resolved heralds at 1/8, 1 ebit each."""
    problems = []
    if not close(report["success_probability"], 0.5):
        problems.append(f"swap success probability {report['success_probability']} != 1/2")
    accepted = [o for o in report["outcomes"] if o["accepted"]]
    if len(accepted) != 4:
        problems.append(f"{len(accepted)} swap heralds, expected 4")
    for o in accepted:
        if not close(o["probability"], 0.125):
            problems.append(f"herald {o['label']}: p={o['probability']}, expected 1/8")
        if not close(o["metrics"].get(entropy_key, -1.0), 1.0):
            problems.append(f"herald {o['label']}: {entropy_key} is not 1 ebit")
    return problems


def check_ghz_report(report: dict, alpha: float, per_detector: bool) -> list[str]:
    """GHZ: sin^2 cos^2 per detector, twice that in total, fidelity 1."""
    problems = []
    law = (math.sin(alpha) * math.cos(alpha)) ** 2
    if not close(report["success_probability"], 2 * law):
        problems.append(f"GHZ total {report['success_probability']} != 2 sin^2 cos^2")
    if per_detector:
        for det, p in report.get("per_detector", {}).items():
            if not close(p, law):
                problems.append(f"GHZ detector {det}: {p} != sin^2 cos^2")
        if len(report.get("per_detector", {})) != 2:
            problems.append("GHZ report lacks the two per-detector probabilities")
    accepted = [o for o in report["outcomes"] if o["accepted"]]
    if len(accepted) != 2:
        problems.append(f"{len(accepted)} GHZ heralds, expected 2")
    for o in accepted:
        if not close(o["probability"], law):
            problems.append(f"GHZ herald {o['label']}: p={o['probability']}")
        if not close(o["metrics"].get("ghz_fidelity", -1.0), 1.0):
            problems.append(f"GHZ herald {o['label']}: fidelity is not 1")
    return problems


# ----------------------------------------------------------------- workloads


class Workload:
    """Seeded op generator plus the checker for each command's outputs."""

    name = ""

    def __init__(self, seed: int, tmp: Path, root: Path):
        self.seed = seed
        self.tmp = tmp
        self.root = root

    def op(self, index: int) -> list[Command]:
        raise NotImplementedError

    def check(self, index: int, slot: int, cmd: Command, result: Result) -> list[str]:
        """Problems with the output of command ``slot`` of op ``index``."""
        if result.rc != 0:
            return [f"{' '.join(cmd.argv)} exited with {result.rc}"]
        if cmd.output is not None and result.data is None:
            return [f"{' '.join(cmd.argv)} wrote no output file"]
        try:
            return self.check_output(index, slot, result.data)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            return [f"{' '.join(cmd.argv)}: malformed output ({type(exc).__name__}: {exc})"]

    def check_output(self, index: int, slot: int, data: bytes | None) -> list[str]:
        raise NotImplementedError

    def rel(self, path: Path) -> str:
        return str(path.relative_to(self.root))


class ChainWorkload(Workload):
    """``aomsim run <chain.qc> --json <tmp>`` on a generated k-source chain."""

    name = "chain"

    def __init__(self, seed: int, tmp: Path, root: Path, k: int = 5):
        super().__init__(seed, tmp, root)
        self.k = k

    def op(self, index: int) -> list[Command]:
        circuit = self.tmp / "chain.qc"
        text = chain_circuit(self.k, op_rng(self.seed, index))
        report = self.tmp / "chain.json"
        return [Command(("run", self.rel(circuit), "--json", self.rel(report)), report,
                        ((circuit, text),))]

    def check_output(self, index, slot, data):
        return check_chain_report(json.loads(data), self.k)


class SweepWorkload(Workload):
    """``aomsim sweep ghz --steps N --csv <tmp>`` over a seeded alpha range."""

    name = "sweep"

    def __init__(self, seed: int, tmp: Path, root: Path, steps: int = 257):
        super().__init__(seed, tmp, root)
        self.steps = steps

    def params(self, index: int) -> tuple[float, float, str]:
        rng = op_rng(self.seed, index)
        return rng.uniform(0.01, 0.6), rng.uniform(0.97, 1.56), rng.choice(CONVENTIONS)

    def op(self, index: int) -> list[Command]:
        lo, hi, convention = self.params(index)
        out = self.tmp / "sweep.csv"
        argv = ("sweep", "ghz", "--steps", str(self.steps), "--alpha-from", repr(lo),
                "--alpha-to", repr(hi), "--convention", convention, "--csv", self.rel(out))
        return [Command(argv, out)]

    def check_output(self, index, slot, data):
        lo, hi, _ = self.params(index)
        return check_sweep_csv(data.decode("utf-8"), lo, hi, self.steps)


class DemosWorkload(Workload):
    """Both shipped circuits and both built-in demos, four commands per op."""

    name = "demos"

    def __init__(self, seed: int, tmp: Path, root: Path):
        super().__init__(seed, tmp, root)
        self.validator = ReportValidator(root / "src" / "aomsim" / "run_report_schema.json")

    def params(self, index: int) -> tuple[str, float, str]:
        rng = op_rng(self.seed, index)
        return rng.choice(CONVENTIONS), rng.uniform(0.05, 1.52), rng.choice(CONVENTIONS)

    def op(self, index: int) -> list[Command]:
        swap_conv, alpha, ghz_conv = self.params(index)
        out = [self.tmp / f"demo{j}.json" for j in range(4)]
        return [
            Command(("run", "circuits/swap.qc", "--json", self.rel(out[0])), out[0]),
            Command(("run", "circuits/ghz.qc", "--json", self.rel(out[1])), out[1]),
            Command(("demo", "swap", "--convention", swap_conv, "--json", self.rel(out[2])),
                    out[2]),
            Command(("demo", "ghz", "--alpha", repr(alpha), "--convention", ghz_conv,
                     "--json", self.rel(out[3])), out[3]),
        ]

    def check_output(self, index, slot, data):
        report = json.loads(data)
        problems = self.validator.problems(report)
        if problems:
            return problems
        if slot == 0:
            return check_swap_report(report, "entropy[1,1']")
        if slot == 1:
            return check_ghz_report(report, math.pi / 4, per_detector=False)
        if slot == 2:
            return check_swap_report(report, "pair_entropy")
        _, alpha, _ = self.params(index)
        problems = check_ghz_report(report, alpha, per_detector=True)
        if not close(report.get("alpha", -1.0), alpha):
            problems.append("demo ghz report carries the wrong alpha")
        return problems


WORKLOADS = {w.name: w for w in (ChainWorkload, SweepWorkload, DemosWorkload)}
