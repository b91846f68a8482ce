"""aomsim benchmark: user-facing commands, end to end and layer by layer.

Usage (from the root of a source checkout)::

    python3 bench/run.py --workload chain|sweep|demos --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seconds S      # every workload, one table

One process, no threads, one client in a closed loop: each op is a list of
``aomsim`` commands run in-process through ``aomsim.cli.main(argv)`` with
stdout captured, and the next op starts when the previous one has finished
and been checked.  The package is imported from ``src/`` of the checkout.
Op inputs come from the seed (see ``workloads.py``); every op's outputs are
checked outside the timed region, and an op that exits non-zero, raises or
fails a check counts as failed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every op
twice, untraced and then with the span wrappers of ``tracing.py`` installed,
and reports the per-layer metrics: per-op self time per layer (median over
the traced ops), the counts of the first traced op, and the traced over
untraced median op time.  The last stdout line is the JSON result; the full
record, with run metadata and the spans of the first traced ops, is written
to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 9

sys.path.insert(0, str(BENCH_DIR))

from tracing import COUNT_NAMES, SPAN_NAMES, Tracer  # noqa: E402
from workloads import WORKLOADS, Result  # noqa: E402


def import_program():
    """Import ``aomsim.cli`` from this checkout's ``src/``, never an installed copy."""
    if not (SRC / "aomsim" / "cli.py").is_file():
        raise SystemExit(f"error: no aomsim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import aomsim.cli

    if Path(aomsim.cli.__file__).resolve().parent != (SRC / "aomsim").resolve():
        raise SystemExit(f"error: imported aomsim from {aomsim.cli.__file__}, not {SRC}")
    return aomsim.cli


class SetupClock:
    """Wall time of a fresh interpreter importing ``aomsim.cli``.

    The samples are spread over the timed loop, between ops, so that drift
    in host speed over the run reaches them as it reaches the op times.
    """

    def __init__(self, repeats: int, seconds: float):
        code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import aomsim.cli"
        self.cmd = [sys.executable, "-I", "-c", code]
        self.repeats = repeats
        self.seconds = seconds
        self.samples: list[float] = []
        subprocess.run(self.cmd, cwd=ROOT, check=True)  # writes bytecode caches
        self.start = time.perf_counter()

    def sample(self):
        start = time.perf_counter()
        subprocess.run(self.cmd, cwd=ROOT, check=True)
        self.samples.append(time.perf_counter() - start)

    def between_ops(self):
        elapsed = time.perf_counter() - self.start
        if len(self.samples) < self.repeats * elapsed / self.seconds:
            self.sample()

    def median(self) -> float:
        while len(self.samples) < self.repeats:
            self.sample()
        return statistics.median(self.samples)


def run_command(cli, cmd) -> tuple[int | None, str]:
    """Exit code (None if ``main`` raised) and stdout of one command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(cmd.argv))
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a traceback is a failed op, not a crashed run
            print(f"{type(exc).__name__}: {exc}", file=err)
            rc = None
    return rc, out.getvalue()


def run_op(cli, cmds) -> tuple[float, list[Result]]:
    for cmd in cmds:
        for path, text in cmd.inputs:
            path.write_text(text, encoding="utf-8")
        if cmd.output is not None and cmd.output.exists():
            cmd.output.unlink()
    start = time.perf_counter()
    results = [run_command(cli, cmd) for cmd in cmds]
    elapsed = time.perf_counter() - start
    return elapsed, [
        Result(rc, stdout,
               cmd.output.read_bytes() if cmd.output is not None and cmd.output.exists() else None)
        for cmd, (rc, stdout) in zip(cmds, results)
    ]


class Loop:
    """Closed loop over a workload's ops for a fixed wall time."""

    def __init__(self, cli, workload):
        self.cli = cli
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        # warm-up: op 0, untimed and checked; the timed ops start again at op 0
        self.reference_cmds = workload.op(0)
        _, self.reference = run_op(cli, self.reference_cmds)
        self.reference_problems = [
            workload.check(0, slot, cmd, res)
            for slot, (cmd, res) in enumerate(zip(self.reference_cmds, self.reference))
        ]

    def check(self, index, cmds, results) -> list[str]:
        problems = []
        for slot, (cmd, res) in enumerate(zip(cmds, results)):
            if cmd != self.reference_cmds[slot]:
                problems += self.workload.check(index, slot, cmd, res)
                continue
            # a repeat of a checked warm-up command must reproduce its output byte for byte
            problems += self.reference_problems[slot]
            if res != self.reference[slot]:
                problems.append(f"{' '.join(cmd.argv)}: output differs from an identical run")
        return problems

    def attempt(self, index, cmds, tracer=None) -> float:
        gc.collect()
        with tracer or contextlib.nullcontext():
            elapsed, results = run_op(self.cli, cmds)
        self.attempted += 1
        problems = self.check(index, cmds, results)
        if problems:
            self.failed += 1
            self.problems.extend(f"op {index}: {p}" for p in problems)
        return elapsed

    def run(self, seconds: float, between_ops=None, tracer=None):
        """Op times until ``seconds`` have passed (at least two ops).

        With a tracer, each op runs twice in a row, untraced and then traced,
        so that both see the same host conditions; returns both time lists.
        """
        plain, traced = [], []
        deadline = time.perf_counter() + seconds
        index = 0
        while index < 2 or time.perf_counter() < deadline:
            cmds = self.workload.op(index)
            plain.append(self.attempt(index, cmds))
            if tracer is not None:
                traced.append(self.attempt(index, cmds, tracer))
                tracer.end_op(index)
            if between_ops is not None:
                between_ops()
            index += 1
        return plain, traced


def p90(times: list[float]) -> float:
    return statistics.quantiles(times, n=10, method="inclusive")[8]


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 setup_repeats: int = SETUP_REPEATS, **params) -> dict:
    """One benchmark run; returns the full record (result line under "result")."""
    meta = {"load_avg_start": os.getloadavg()}
    cli = import_program()
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=ROOT) as tmp:
        workload = WORKLOADS[name](seed, Path(tmp), ROOT, **params)
        loop = Loop(cli, workload)
        gc.collect()
        gc.freeze()
        if not trace:
            setup = SetupClock(setup_repeats, seconds)
            times, _ = loop.run(seconds, between_ops=setup.between_ops)
            metrics = {
                "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
                "op_p90_ms": (p90(times) * 1e3, "ms"),
                "ops_per_s": (len(times) / sum(times), "1/s"),
                "setup_s": (setup.median(), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            tracer = None
        else:
            tracer = Tracer()
            times, traced = loop.run(seconds, tracer=tracer)
            metrics = layer_metrics(tracer.ops, sum(r.bytes_out for r in loop.reference))
            metrics["trace.overhead_ratio"] = (
                statistics.median(traced) / statistics.median(times), "ratio")
    meta.update(run_metadata(seed))
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "params": params, "meta": meta, "result": result,
        "fail_ratio": loop.failed / loop.attempted, "op_seconds": times,
        "problems": loop.problems[:20],
        "layers": tracer and tracer.ops, "spans": tracer and tracer.kept_spans,
    }


def layer_metrics(layers, bytes_out: int) -> dict:
    metrics = {
        f"{name}_ms": (statistics.median(self_s[name] for self_s, _ in layers) * 1e3, "ms")
        for name in SPAN_NAMES
    }
    first = layers[0][1]  # counts of op 0, the same op in every run with this seed
    for name in COUNT_NAMES:
        unit = "ratio" if name.endswith(("ratio", "survival")) else "count"
        metrics[name] = (first[name], unit)
    metrics["cli.bytes_out"] = (bytes_out, "bytes")
    return metrics


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def run_metadata(seed: int) -> dict:
    import numpy

    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "load_avg_end": os.getloadavg(),
        "seed": seed,
    }


def print_table(record: dict):
    res = record["result"]
    print(f"{record['workload']}: seed={record['seed']} trace={record['trace']} "
          f"ops={res['attempted']} failed={res['failed']} fail_ratio={record['fail_ratio']:g}")
    for name, m in res["metrics"].items():
        print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}")
    for problem in record["problems"]:
        print(f"  check: {problem}")


def run_all(args) -> int:
    """Each workload in its own process (peak RSS is per workload), one table."""
    ok = True
    summary = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: benchmark exited with {proc.returncode}")
            ok = False
            continue
        summary[name] = json.loads(lines[-1])
        ok = ok and summary[name]["correct"]
    print(json.dumps(summary, sort_keys=True))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, default=list) + "\n", encoding="utf-8")
    print_table(record)
    print(f"record: {out.relative_to(ROOT)}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
