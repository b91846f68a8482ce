"""Whole runs against an independent dense reference: ``aomsim run --json`` on random circuits.

The reference evolves each circuit on its own.  It takes the product of the
sources' kets, applies each AOM ket by ket through the permanent oracle
(:func:`aomsim.oracle.dense_oracle_apply`), applies a filter and each
herald pattern as a diagonal projector, and takes entropies from a numpy
partial trace and ``eigvalsh``.  It never renormalises on the way: every
renormalisation of the run is a positive factor, which the reference takes
out once, at the end.  It shares no code with the row kernels of
:mod:`aomsim.engine`, :mod:`aomsim.experiments` or :mod:`aomsim.states`.

Where amplitudes cancel exactly (two photons meeting in a balanced AOM, say),
the run and the reference are each left with rounding noise of about 1e-16
that neither can predict of the other.  So next to each amplitude the
reference carries a bound: the same sum, taken over magnitudes.  An
amplitude below ``NOISE`` of its bound is noise, and may be a row of the run
or not.  A permanent below ``PERMANENT_NOISE`` is taken as 0 but keeps that
much in its bound: an AOM at a rounded ``t`` (``0.7071067811865476`` for
1/sqrt 2) leaves two meeting photons about 1e-16, not 0, which outweighs a
branch as faint as ``alpha=1e-200``.  An outcome whose norm is below
``RESOLVED`` of its bound's is noise as a whole: only its probability, about
0, is compared.  A runtime error that turns on noise rows alone (a filter
that leaves only noise, a noise row that spoils a factorisation) may or may
not be raised.

Values are compared to 1e-12 beyond the 12 significant digits the report
prints.
"""

import contextlib
import io
import json
import math
from collections import Counter
from functools import lru_cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from aomsim import AomSpec, Convention, FockKet, ModeLabel, StateVector, make_aom, parse
from aomsim.cli import main
from aomsim.dsl import (
    AomStmt,
    CheckStmt,
    FilterStmt,
    HeraldStmt,
    ReportEntropyStmt,
    ReportGhzStmt,
    ReportOutcomesStmt,
    SourceStmt,
)
from aomsim.errors import UnexpectedFrequencyError
from aomsim.oracle import dense_oracle_apply
from conftest import circuit_texts

NOISE = 1e-9
RESOLVED = 1e-6
PERMANENT_NOISE = 1e-12


def close(got: float, want: float) -> bool:
    """Within 1e-12, after the report's rounding to 12 significant digits."""
    return abs(got - want) <= 1e-12 + 5e-12 * abs(want)


def counts(modes) -> tuple:
    """A ket as sorted ``((path, bin), n)`` pairs, from the modes it holds (repeats add up)."""
    return tuple(sorted(Counter((m[0], m[1]) for m in modes).items()))


def merged(a: tuple, b: tuple) -> tuple:
    return tuple(sorted((Counter(dict(a)) + Counter(dict(b))).items()))


def part(ket: tuple, paths: set[str], on: bool = True) -> tuple:
    """The photons of a ket on ``paths``, or off them."""
    return tuple((m, n) for m, n in ket if (m[0] in paths) == on)


def photons(ket: tuple, paths: set[str]) -> int:
    return sum(n for _, n in part(ket, paths))


def norm(values) -> float:
    """Euclidean norm, scaled by the largest magnitude first so that no square underflows."""
    mags = np.abs(np.array(list(values), dtype=complex))
    peak = mags.max(initial=0.0)
    return 0.0 if peak == 0.0 else float(peak * np.sqrt(np.sum((mags / peak) ** 2)))


class Run:
    """What a correct run reports.

    It must or may fail at run time (``must_fail``, ``may_fail``), or be
    left with noise alone (``noise_only``); else it has its outcomes by
    label, its success probability and its count distributions.
    """

    def __init__(self):
        self.must_fail = self.may_fail = self.noise_only = False
        self.outcomes: dict[str, dict] = {}
        self.success = 0.0
        self.counts: dict[str, dict[str, float]] = {}


@lru_cache(maxsize=None)
def aom(stmt: AomStmt, convention: Convention):
    return make_aom(AomSpec(stmt.name, stmt.inputs[0], stmt.inputs[1], stmt.outputs[0],
                            stmt.outputs[1], stmt.shift, stmt.t_amp, convention))


@lru_cache(maxsize=None)
def sub_image(sub: tuple, stmt: AomStmt, convention: Convention) -> tuple:
    """The oracle's image of the photons ``sub`` on an AOM's modes: ``((ket, amplitude), ...)``."""
    out = dense_oracle_apply(StateVector({FockKet({ModeLabel(*m): n for m, n in sub}): 1.0}),
                             aom(stmt, convention))
    return tuple((counts(m for m, n in k.items() for _ in range(n)), a)
                 for k, a in out.terms.items())


def image(ket: tuple, stmt: AomStmt, convention: Convention) -> list:
    """The image of a ket: that of its photons on the AOM's modes, times the others."""
    op_modes = set(aom(stmt, convention).modes)
    sub = tuple((m, n) for m, n in ket if ModeLabel(*m) in op_modes)
    rest = tuple((m, n) for m, n in ket if ModeLabel(*m) not in op_modes)
    return [(merged(k, rest), a) for k, a in sub_image(sub, stmt, convention)]


def reference(text: str, override: str | None) -> Run:
    stmts = parse(text).statements
    run = Run()
    v, bound = {(): 1.0 + 0j}, {(): 1.0}  # amplitude and magnitude bound of each ket
    for s in (s for s in stmts if isinstance(s, SourceStmt)):
        weights = [(counts(s.arms), math.cos(s.alpha)), (counts(s.alt), math.sin(s.alpha))]
        v = {merged(k, emitted): a * w for k, a in v.items() for emitted, w in weights if w}
        bound = {merged(k, emitted): b * abs(w)
                 for k, b in bound.items() for emitted, w in weights if w}

    def definite(k) -> bool:
        return abs(v[k]) > NOISE * bound[k]

    for s in stmts:
        if isinstance(s, AomStmt):
            convention = Convention(override) if override else s.convention
            new_v, new_bound = {}, {}
            for k in v:
                try:
                    terms = image(k, s, convention)
                except UnexpectedFrequencyError:
                    run.must_fail |= definite(k)
                    run.may_fail = True
                    continue
                for out, w in terms:
                    size = abs(w)
                    if size <= PERMANENT_NOISE:  # a permanent of 0, as Ryser's sum rounds it
                        w, size = 0j, PERMANENT_NOISE  # or as small but not 0: a bound, not a 0
                    new_v[out] = new_v.get(out, 0j) + v[k] * w
                    new_bound[out] = new_bound.get(out, 0.0) + bound[k] * size
            v, bound = new_v, new_bound
        elif isinstance(s, FilterStmt):
            passes = [k for k in v if all(p != s.path or b == s.pass_bin for (p, b), _ in k)]
            v, bound = {k: v[k] for k in passes}, {k: bound[k] for k in passes}
            if not any(map(definite, v)):  # the filter removed every term, or left noise
                run.must_fail |= not v
                run.may_fail = run.noise_only = True
        if run.must_fail or run.noise_only:
            return run

    total = norm(v.values())
    (herald,) = [s for s in stmts if isinstance(s, HeraldStmt)]
    paths = sorted({p for clause, _ in herald.clauses for p in clause})
    groups: dict[str, list] = {}
    for k in v:
        pattern = [photons(k, {p}) for p in paths]
        by_path = dict(zip(paths, pattern))
        accepted = all(sum(by_path[p] for p in clause) == c for clause, c in herald.clauses)
        label = ",".join(f"{p}={c}" for p, c in zip(paths, pattern)) if accepted else "discard"
        groups.setdefault(label, []).append(k)
    groups.setdefault("discard", [])
    for label, kets in groups.items():
        n, nb = norm(v[k] for k in kets), norm(bound[k] for k in kets)
        run.outcomes[label] = {
            "accepted": label != "discard", "kets": kets,
            "definite": any(map(definite, kets)),
            "probability": (n / total) ** 2 if total else 0.0,
            "state": {k: v[k] / n for k in kets} if n > RESOLVED * nb else None,
            "metrics": {},
        }
    accepted = [o for o in run.outcomes.values() if o["accepted"]]
    run.success = sum(o["probability"] for o in accepted)

    for s in stmts:
        if isinstance(s, ReportOutcomesStmt):
            dist: dict[str, float] = {}
            for k, a in v.items():
                c = str(photons(k, set(s.paths)))
                dist[c] = dist.get(c, 0.0) + (abs(a) / total) ** 2
            run.counts[",".join(s.paths)] = dist
        elif isinstance(s, ReportEntropyStmt):
            for o in accepted:
                o["metrics"][f"entropy[{','.join(s.split)}]"] = entropy(o["state"], set(s.split))
        elif isinstance(s, ReportGhzStmt):  # the outcome must factor off the branches' paths
            a, b = counts(s.branch_a), counts(s.branch_b)
            target = {m[0] for m in s.branch_a + s.branch_b}
            for o in accepted:
                rests = {part(k, target, False) for k in o["kets"] if definite(k)}
                run.must_fail |= len(rests) > 1
                run.may_fail |= len({part(k, target, False) for k in o["kets"]}) > 1
                o["metrics"]["ghz_fidelity"] = None
                if o["state"] is not None:
                    kept = {part(k, target): x for k, x in o["state"].items()
                            if part(k, target, False) in rests}
                    fidelity = (abs(kept.get(a, 0j)) + abs(kept.get(b, 0j))) ** 2 / 2.0
                    o["metrics"]["ghz_fidelity"] = fidelity
    return run


def entropy(state: dict | None, split: set[str]) -> float | None:
    """Von Neumann entropy, in bits, of the state reduced onto the modes of ``split``."""
    if state is None:
        return None
    kept = sorted({part(k, split) for k in state})
    traced = sorted({part(k, split, False) for k in state})
    psi = np.zeros((len(kept), len(traced)), dtype=complex)
    for k, x in state.items():
        psi[kept.index(part(k, split)), traced.index(part(k, split, False))] = x
    lam = np.linalg.eigvalsh(psi @ psi.conj().T)
    return float(-sum(x * math.log2(x) for x in lam if x > 0.0))


def reported_state(terms: list) -> dict:
    return {counts((path, b) for path, b, n in t["modes"] for _ in range(n)):
            complex(t["re"], t["im"]) for t in terms}


def check_against(report: dict, run: Run, text: str, override: str | None):
    stmts = parse(text).statements
    aoms = [s for s in stmts if isinstance(s, AomStmt)]
    conventions = [Convention(override) if override else s.convention for s in aoms]
    assert report["convention"] == (override or (conventions[0].value if conventions else
                                                 "unitary"))
    checks = [s for s in stmts if isinstance(s, CheckStmt)]
    sigmas = [s.sigma for s in stmts if isinstance(s, FilterStmt)]
    assert report["flags"] == {
        "bandwidth_valid": all(checks[-1].pump >= x for x in sigmas) if checks else None,
        "non_unitary": Convention.PAPER_LITERAL in conventions}
    assert close(report["success_probability"], run.success)
    assert report["metrics"] == {"success_probability": report["success_probability"]}
    listed = {o["label"]: o for o in report["outcomes"]}
    *heralds, last = listed  # the accepted patterns in order, then the discard bucket
    assert last == "discard"
    patterns = [[int(pair.split("=")[1]) for pair in label.split(",")] for label in heralds]
    assert patterns == sorted(patterns)
    assert set(listed) <= set(run.outcomes)
    for label, want in run.outcomes.items():
        got = listed.get(label)
        if got is None:
            assert not want["definite"] and want["probability"] <= 1e-12, label
            continue
        assert got["accepted"] is want["accepted"]
        assert close(got["probability"], want["probability"]), label
        if got["state"] is None:  # an empty discard bucket
            assert not want["definite"], label
            continue
        if want["state"] is not None:
            have, expect = reported_state(got["state"]), want["state"]
            for k in set(have) | set(expect):
                assert abs(have.get(k, 0j) - expect.get(k, 0j)) <= 1e-12, (label, k)
        assert set(got["metrics"]) == set(want["metrics"]), label
        for key, value in want["metrics"].items():
            if value is not None:
                assert close(got["metrics"][key], value), (label, key)
    assert set(report.get("count_distributions", {})) == set(run.counts)
    for key, dist in run.counts.items():
        have = report["count_distributions"][key]
        for c in set(have) | set(dist):
            assert close(have.get(c, 0.0), dist.get(c, 0.0)), (key, c)


def bad_reports(text: str) -> bool:
    """A ``report ghz`` with equal branches, a second ``report ghz``, or a report equal
    to an earlier one: each is a compile error."""
    reports = [s for s in parse(text).statements
               if isinstance(s, (ReportEntropyStmt, ReportGhzStmt, ReportOutcomesStmt))]
    ghz = [s for s in reports if isinstance(s, ReportGhzStmt)]
    return (len(ghz) > 1 or len(set(reports)) < len(reports)
            or any(counts(s.branch_a) == counts(s.branch_b) for s in ghz))


@given(circuit_texts(sources=(2, 2), aoms=(1, 4)), st.sampled_from([None, "unitary", "paper"]))
@settings(max_examples=200, deadline=None)
def test_a_run_report_matches_the_dense_reference(tmp_path_factory, text, override):
    folder = tmp_path_factory.mktemp("circuit")
    (folder / "c.qc").write_text(text)
    argv = ["run", str(folder / "c.qc"), "--json", str(folder / "r.json")]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv + (["--convention", override] if override else []))
    if bad_reports(text):
        assert code == 2, text
        return
    run = reference(text, override)
    if run.must_fail or code == 1:  # a runtime error, which noise rows alone may also raise
        assert code == 1 and (run.must_fail or run.may_fail), text
        return
    assert code == 0, text
    if not run.noise_only:
        check_against(json.loads((folder / "r.json").read_text()), run, text, override)
