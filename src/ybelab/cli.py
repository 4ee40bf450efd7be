"""Command line front end: examples, file verification, derivations, suites.

Reports are line oriented, `STEP <name> PASS|FAIL <micros> [witness]`.
Stdout carries real timings; report files written under --out zero the
micros column so identical runs produce identical bytes.  Exit status is
0 iff every asserted step passed, 1 on a failed step, 2 on unusable input
(parse errors, unknown names, precondition failures).
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import files
from .braces import SkewBrace, brace_solution, verify_skew_brace
from .bracoids import SkewBracoid, contains_brace, lambda_rho_identity_checks, verify_bracoid
from .catalog import (
    CatalogInstance,
    SearchExhausted,
    UnknownExample,
    abelianmap_instance,
    acceptance_instances,
    build_example,
    cyclic_pq_instance,
    promote_brace,
    seeded_braces,
    semidirect_instance,
    trivial_brace_instance,
)
from .checks import Report, group_table_checks
from .files import ParseError
from .groups import FiniteGroup, find_complements, holomorph, is_transitive, subgroup_generated
from .semibraces import (
    Semibrace,
    bracoid_to_semibrace,
    decompose,
    roundtrip_check,
    semibrace_to_bracoid,
    verify_semibrace,
)
from .ybe import (
    check_braid,
    conjugate_solution,
    solution_from_bracoid,
    solution_from_semibrace,
    solutions_equal,
    tilde_solution_from_bracoid,
)

PIPELINES = (
    "semibrace-from-bracoid",
    "bracoid-from-semibrace",
    "solution-from-bracoid",
    "solution-from-brace",
    "solution-from-semibrace",
)

VERIFY_KINDS = ("group", "brace", "bracoid", "semibrace", "solution")

# Above this order the lemma battery samples triples instead of scanning.
LEMMA_EXHAUSTIVE_ORDER = 24


class PreconditionFailed(RuntimeError):
    """The input cannot feed the requested pipeline."""


@dataclass
class Step:
    name: str
    ok: bool
    micros: int = 0
    witness: str = ""
    asserted: bool = True

    def line(self, zero_timings: bool = False) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        out = f"STEP {self.name} {verdict} {0 if zero_timings else self.micros}"
        if self.witness:
            out += f" {self.witness}"
        return out


class RunReport:
    """Ordered step log; non-asserted steps are informational only."""

    def __init__(self) -> None:
        self.steps: list[Step] = []

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.steps if s.asserted)

    def add(self, name: str, ok: bool, micros: int = 0, witness: str = "",
            asserted: bool = True) -> bool:
        self.steps.append(Step(name, bool(ok), int(micros), str(witness), asserted))
        return bool(ok)

    def build(self, name: str, fn, witness=""):
        """Time a construction; reaching the end of fn counts as PASS."""
        t0 = time.perf_counter_ns()
        value = fn()
        micros = (time.perf_counter_ns() - t0) // 1000
        text = witness(value) if callable(witness) else witness
        self.add(name, True, micros, text)
        return value

    def absorb(self, prefix: str, rep: Report, asserted: bool = True) -> bool:
        for c in rep.checks:
            if c.witness:
                text = _indices(c.witness)
            elif not c.ok and c.detail:
                text = _compact(c.detail)
            else:
                text = ""
            self.add(prefix + c.name, c.ok, 0, text, asserted)
        return rep.ok

    def render(self, zero_timings: bool) -> str:
        return "".join(s.line(zero_timings) + "\n" for s in self.steps)


def _indices(values) -> str:
    if not len(values):
        return ""
    return "(" + ",".join(str(int(v)) for v in values) + ")"


def _compact(text: str) -> str:
    return "-".join(str(text).split())[:80]


def _slug(inst: CatalogInstance) -> str:
    if inst.params:
        return inst.name + "-" + "-".join(str(p) for p in inst.params)
    return inst.name


def _micros_since(t0: int) -> int:
    return (time.perf_counter_ns() - t0) // 1000


# --- artifact plumbing ---

def _reprints(kind: str, text: str) -> bool:
    """parse then print must reproduce the exact bytes that were written."""
    if kind == "group":
        # Byte fidelity only; the table was validated before being written.
        table, name = files.read_group_table(text)
        return files.write_group(FiniteGroup(table, name=name, trusted=True)) == text
    if kind == "brace":
        return files.write_brace(*files.read_brace(text)) == text
    if kind == "bracoid":
        return files.write_bracoid(*files.read_bracoid(text)) == text
    if kind == "semibrace":
        return files.write_semibrace(*files.read_semibrace(text)) == text
    if kind == "solution":
        return files.write_solution(files.read_solution(text)) == text
    if kind == "action":
        return files.write_action(files.read_action(text)) == text
    raise ValueError(f"unknown artifact kind {kind!r}")


def _write_artifact(report: RunReport, out: Path, filename: str, kind: str,
                    text: str) -> bool:
    t0 = time.perf_counter_ns()
    (out / filename).write_text(text)
    ok = _reprints(kind, text)
    return report.add(f"write-{filename}", ok, _micros_since(t0))


def _instance_artifacts(inst: CatalogInstance) -> list[tuple[str, str, str]]:
    slug = _slug(inst)
    bc = inst.bracoid
    arts = [(f"{slug}-group.txt", "group", files.write_group(bc.G))]
    if inst.brace is not None:
        arts.append((f"{slug}-brace.txt", "brace",
                     files.write_brace(inst.brace.star, inst.brace.dot)))
    arts.append((f"{slug}-bracoid.txt", "bracoid",
                 files.write_bracoid(bc.G, bc.N, bc.act.table)))
    cb = inst.contained
    if cb is not None:
        arts.append((f"{slug}-contained-brace.txt", "brace",
                     files.write_brace(cb.Hstar, cb.Hdot)))
        sb = bracoid_to_semibrace(cb)
        arts.append((f"{slug}-semibrace.txt", "semibrace",
                     files.write_semibrace(sb.dot, sb.plus)))
        arts.append((f"{slug}-solution.txt", "solution",
                     files.write_solution(solution_from_bracoid(cb))))
        arts.append((f"{slug}-solution-tilde.txt", "solution",
                     files.write_solution(tilde_solution_from_bracoid(cb))))
    return arts


def _out_dir(args) -> Path | None:
    if args.out is None:
        return None
    path = Path(args.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _finish(report: RunReport, out: Path | None) -> int:
    sys.stdout.write(report.render(zero_timings=False))
    if out is not None:
        (out / "report.txt").write_text(report.render(zero_timings=True))
    return 0 if report.ok else 1


# --- subcommands ---

def cmd_example(args) -> int:
    report = RunReport()
    inst = report.build(
        f"build-{args.name}",
        lambda: build_example(args.name, tuple(args.params), seed=args.seed),
        witness=lambda v: f"G={v.bracoid.G.order},N={v.bracoid.N.order}")
    if inst.bracoid.G.order > args.max_order:
        raise PreconditionFailed(
            f"group order {inst.bracoid.G.order} exceeds --max-order {args.max_order}")
    if inst.brace is not None:
        rep = report.build("verify-brace",
                           lambda: verify_skew_brace(inst.brace.star, inst.brace.dot))
        report.absorb("brace.", rep)
    bc = inst.bracoid
    rep = report.build("verify-bracoid", lambda: verify_bracoid(bc.G, bc.N, bc.act.table))
    report.absorb("bracoid.", rep)
    cb = inst.contained
    witness = "NotFound" if cb is None else f"H={cb.H.order},S={cb.S.order}"
    report.add("contains-brace", True, 0, witness)
    if cb is not None:
        sb = bracoid_to_semibrace(cb)
        rep = report.build("verify-semibrace", lambda: verify_semibrace(sb.dot, sb.plus))
        report.absorb("semibrace.", rep)
    out = _out_dir(args)
    for filename, kind, text in _instance_artifacts(inst):
        _write_artifact(report, out, filename, kind, text)
    return _finish(report, out)


def _refuse_order(order: int, max_order: int) -> None:
    if order > max_order:
        raise PreconditionFailed(f"order {order} exceeds --max-order {max_order}")


def cmd_verify(args) -> int:
    text = Path(args.file).read_text()
    report = RunReport()
    out = _out_dir(args)
    if args.kind == "solution":
        try:
            r = report.build("parse", lambda: files.read_solution(text),
                             witness=lambda v: f"n={v.size}")
        except ParseError:
            # A ParseError is a ValueError too; it must reach main() as
            # unusable input (exit 2), not become a failed step.
            raise
        except ValueError as exc:
            report.add("parse", False, 0, _compact(str(exc)))
            return _finish(report, out)
        _refuse_order(r.size, args.max_order)
        sr = report.build("scan", lambda: check_braid(r))
        report.add("braid", sr.braid, 0, _indices(sr.braid_witness))
        report.add("info-bijective", sr.bijective, 0,
                   _indices(sr.bijective_witness), asserted=False)
        report.add("info-involutive", sr.involutive, 0,
                   _indices(sr.involutive_witness), asserted=False)
        report.add("info-left-nondegenerate", sr.left_nondegenerate, 0,
                   _indices(sr.left_witness), asserted=False)
        report.add("info-right-nondegenerate", sr.right_nondegenerate, 0,
                   _indices(sr.right_witness), asserted=False)
        return _finish(report, out)

    if args.kind == "group":
        tables = files.read_group_table(text)[:1]
        scan = lambda: Report(tuple(group_table_checks(*tables)))
    elif args.kind == "brace":
        tables = files.read_brace(text)
        scan = lambda: verify_skew_brace(*tables)
    elif args.kind == "bracoid":
        tables = files.read_bracoid(text)
        scan = lambda: verify_bracoid(*tables)
    else:
        tables = files.read_semibrace(text)
        scan = lambda: verify_semibrace(*tables)
    _refuse_order(max(t.shape[0] for t in tables), args.max_order)
    rep = report.build("scan", scan)
    report.absorb("", rep)
    return _finish(report, out)


def _load_contained(report: RunReport, text: str, max_order: int):
    gt, nt, at = files.read_bracoid(text)
    if gt.shape[0] > max_order:
        raise PreconditionFailed(
            f"group order {gt.shape[0]} exceeds --max-order {max_order}")
    try:
        bracoid = report.build(
            "build-bracoid",
            lambda: SkewBracoid(FiniteGroup(gt, name="G"), FiniteGroup(nt, name="N"), at),
            witness=lambda v: f"G={v.G.order},N={v.N.order}")
    except ValueError as exc:
        raise PreconditionFailed(f"input is not a bracoid: {exc}") from exc
    cb = report.build("contains-brace", lambda: contains_brace(bracoid),
                      witness=lambda v: "NotFound" if v is None else f"H={v.H.order}")
    if cb is None:
        raise PreconditionFailed("bracoid has no contained brace")
    return cb


def _solution_steps(report: RunReport, r, asserted: tuple[str, ...]) -> None:
    sr = report.build("scan", lambda: check_braid(r))
    for prop, ok, wit in (
            ("braid", sr.braid, sr.braid_witness),
            ("bijective", sr.bijective, sr.bijective_witness),
            ("involutive", sr.involutive, sr.involutive_witness),
            ("left-nondegenerate", sr.left_nondegenerate, sr.left_witness),
            ("right-nondegenerate", sr.right_nondegenerate, sr.right_witness)):
        if prop in asserted:
            report.add(prop, ok, 0, _indices(wit))
        else:
            report.add(f"info-{prop}", ok, 0, _indices(wit), asserted=False)


def cmd_derive(args) -> int:
    text = Path(args.file).read_text()
    report = RunReport()
    out = _out_dir(args)
    pipeline = args.pipeline
    if args.roundtrip and pipeline not in ("semibrace-from-bracoid",
                                           "bracoid-from-semibrace"):
        raise PreconditionFailed("--roundtrip applies to semibrace-from-bracoid "
                                 "and bracoid-from-semibrace")

    if pipeline == "semibrace-from-bracoid":
        cb = _load_contained(report, text, args.max_order)
        sb = report.build("derive", lambda: bracoid_to_semibrace(cb))
        dec = decompose(sb)
        report.add("decompose", True, 0, f"E={len(dec.Epart)},H={len(dec.Hpart)}")
        report.absorb("semibrace.", verify_semibrace(sb.dot, sb.plus))
        _write_artifact(report, out, "semibrace.txt", "semibrace",
                        files.write_semibrace(sb.dot, sb.plus))
        if args.roundtrip:
            t0 = time.perf_counter_ns()
            report.add("roundtrip", roundtrip_check(cb), _micros_since(t0))
        return _finish(report, out)

    if pipeline == "bracoid-from-semibrace":
        dt, pt = files.read_semibrace(text)
        if dt.shape[0] > args.max_order:
            raise PreconditionFailed(
                f"order {dt.shape[0]} exceeds --max-order {args.max_order}")
        try:
            sb = report.build("build-semibrace",
                              lambda: Semibrace(FiniteGroup(dt, name="G"), pt),
                              witness=lambda v: f"n={v.order}")
        except ValueError as exc:
            raise PreconditionFailed(f"input is not a semibrace: {exc}") from exc
        cb = report.build("derive", lambda: semibrace_to_bracoid(sb),
                          witness=lambda v: f"N={v.bracoid.N.order}")
        bc = cb.bracoid
        report.absorb("bracoid.", verify_bracoid(bc.G, bc.N, bc.act.table))
        _write_artifact(report, out, "bracoid.txt", "bracoid",
                        files.write_bracoid(bc.G, bc.N, bc.act.table))
        if args.roundtrip:
            t0 = time.perf_counter_ns()
            report.add("roundtrip", roundtrip_check(sb), _micros_since(t0))
        return _finish(report, out)

    if pipeline == "solution-from-bracoid":
        cb = _load_contained(report, text, args.max_order)
        if args.tilde:
            r = report.build("derive", lambda: tilde_solution_from_bracoid(cb))
            _solution_steps(report, r, asserted=("braid", "right-nondegenerate"))
            _write_artifact(report, out, "solution-tilde.txt", "solution",
                            files.write_solution(r))
        else:
            r = report.build("derive", lambda: solution_from_bracoid(cb))
            _solution_steps(report, r, asserted=("braid", "left-nondegenerate"))
            _write_artifact(report, out, "solution.txt", "solution",
                            files.write_solution(r))
        return _finish(report, out)

    if pipeline == "solution-from-brace":
        st, dtb = files.read_brace(text)
        if st.shape[0] > args.max_order:
            raise PreconditionFailed(
                f"order {st.shape[0]} exceeds --max-order {args.max_order}")
        try:
            B = report.build(
                "build-brace",
                lambda: SkewBrace(FiniteGroup(st, name="Gs"), FiniteGroup(dtb, name="Gd")),
                witness=lambda v: f"n={v.order}")
        except ValueError as exc:
            raise PreconditionFailed(f"input is not a brace: {exc}") from exc
        r = report.build("derive", lambda: brace_solution(B))
        _solution_steps(report, r, asserted=("braid", "bijective",
                                             "left-nondegenerate",
                                             "right-nondegenerate"))
        _write_artifact(report, out, "solution.txt", "solution",
                        files.write_solution(r))
        return _finish(report, out)

    # solution-from-semibrace
    dt, pt = files.read_semibrace(text)
    if dt.shape[0] > args.max_order:
        raise PreconditionFailed(
            f"order {dt.shape[0]} exceeds --max-order {args.max_order}")
    try:
        sb = report.build("build-semibrace",
                          lambda: Semibrace(FiniteGroup(dt, name="G"), pt),
                          witness=lambda v: f"n={v.order}")
    except ValueError as exc:
        raise PreconditionFailed(f"input is not a semibrace: {exc}") from exc
    r = report.build("derive", lambda: solution_from_semibrace(sb))
    _solution_steps(report, r, asserted=("braid", "left-nondegenerate"))
    _write_artifact(report, out, "solution.txt", "solution", files.write_solution(r))
    return _finish(report, out)


# --- suite batteries ---

def _battery_axioms(report: RunReport, instances) -> None:
    for inst in instances:
        slug = _slug(inst)
        t0 = time.perf_counter_ns()
        reps = []
        if inst.brace is not None:
            reps.append(verify_skew_brace(inst.brace.star, inst.brace.dot))
        bc = inst.bracoid
        reps.append(verify_bracoid(bc.G, bc.N, bc.act.table))
        if inst.contained is not None:
            sb = bracoid_to_semibrace(inst.contained)
            reps.append(verify_semibrace(sb.dot, sb.plus))
        ok = all(r.ok for r in reps)
        witness = ""
        if not ok:
            first = next(r.first_failure() for r in reps if not r.ok)
            witness = _compact(first.describe())
        report.add(f"axioms-{slug}", ok, _micros_since(t0), witness)


def _battery_roundtrip(report: RunReport, instances, rng, count: int) -> None:
    for inst in instances:
        cb = inst.contained
        if cb is None:
            continue
        t0 = time.perf_counter_ns()
        ok = roundtrip_check(cb) and roundtrip_check(bracoid_to_semibrace(cb))
        report.add(f"roundtrip-{_slug(inst)}", ok, _micros_since(t0))
    t0 = time.perf_counter_ns()
    bad = -1
    for i, B in enumerate(seeded_braces(rng, count, 16)):
        cb = promote_brace(B)
        if not (roundtrip_check(cb) and roundtrip_check(bracoid_to_semibrace(cb))):
            bad = i
            break
    report.add("roundtrip-random", bad < 0, _micros_since(t0),
               f"count={count}" if bad < 0 else f"index={bad}")


def _battery_lemmas(report: RunReport, instances, seed: int, samples: int) -> None:
    for inst in instances:
        cb = inst.contained
        if cb is None:
            continue
        exhaustive = inst.bracoid.G.order <= LEMMA_EXHAUSTIVE_ORDER
        t0 = time.perf_counter_ns()
        rep = lambda_rho_identity_checks(cb.lambda_rho, exhaustive=exhaustive,
                                         seed=seed, samples=samples)
        witness = "exhaustive" if exhaustive else f"sampled-{samples}"
        if not rep.ok:
            witness = _compact(rep.first_failure().describe())
        report.add(f"lemmas-{_slug(inst)}", rep.ok, _micros_since(t0), witness)


def _battery_solutions(report: RunReport, instances) -> None:
    for inst in instances:
        cb = inst.contained
        if cb is None:
            continue
        slug = _slug(inst)
        t0 = time.perf_counter_ns()
        r = solution_from_bracoid(cb)
        sr = check_braid(r)
        report.add(f"solution-{slug}", sr.braid and sr.left_nondegenerate,
                   _micros_since(t0), f"n={r.size}")
        t0 = time.perf_counter_ns()
        rt = tilde_solution_from_bracoid(cb)
        sr2 = check_braid(rt)
        report.add(f"solution-tilde-{slug}", sr2.braid and sr2.right_nondegenerate,
                   _micros_since(t0), f"n={rt.size}")
        t0 = time.perf_counter_ns()
        conj = conjugate_solution(conjugate_solution(r, "iota"), "tau")
        report.add(f"solution-conjugate-{slug}", solutions_equal(conj, rt),
                   _micros_since(t0))
        t0 = time.perf_counter_ns()
        viaplus = solution_from_semibrace(bracoid_to_semibrace(cb))
        report.add(f"solution-semibrace-{slug}", solutions_equal(r, viaplus),
                   _micros_since(t0))


def _battery_brace_solutions(report: RunReport, instances) -> None:
    for inst in instances:
        named = []
        if inst.brace is not None and inst.brace.order <= 24:
            named.append((_slug(inst), inst.brace))
        cb = inst.contained
        if inst.brace is None and cb is not None and cb.brace.order <= 24:
            named.append((_slug(inst) + "-contained", cb.brace))
        for tag, B in named:
            t0 = time.perf_counter_ns()
            sr = check_braid(brace_solution(B))
            ok = (sr.braid and sr.bijective and sr.left_nondegenerate
                  and sr.right_nondegenerate)
            report.add(f"brace-solution-{tag}", ok, _micros_since(t0))


def _battery_quantities(report: RunReport, instances) -> None:
    for inst in instances:
        if inst.name == "gl3f2":
            horder = inst.contained.H.order if inst.contained is not None else 0
            got = (inst.bracoid.G.order, inst.detail.get("stabilizer"), horder)
            report.add("quantities-gl3f2", got == (168, 21, 8), 0,
                       f"J={got[0]},S={got[1]},H={got[2]}")
        elif inst.name == "cyclic-pq" and inst.params == (5, 2):
            got = (inst.detail.get("J_order"), inst.detail.get("stabilizer"))
            ok = got == (20, 2) and inst.contained is None
            wit = f"J={got[0]},S={got[1]}," + (
                "NotFound" if inst.contained is None else "found")
            report.add("quantities-cyclic-pq", ok, 0, wit)


def _semibrace_structure(sb: Semibrace, cb) -> tuple[bool, str]:
    dec = decompose(sb)
    n = sb.order
    plus = sb.plus
    arange = np.arange(n)
    idem = plus[arange, arange] == arange
    fixes_e = plus[:, 0] == 0
    members = np.zeros(n, dtype=bool)
    members[np.asarray(dec.Epart)] = True
    if not (np.array_equal(idem, fixes_e) and np.array_equal(idem, members)):
        return False, "idempotent-tests-disagree"
    if not np.array_equal(np.asarray(dec.Epart), np.asarray(cb.S.elements)):
        return False, "E!=S"
    if not np.array_equal(np.asarray(dec.Hpart), np.asarray(cb.H.elements)):
        return False, "H-part!=H"
    anchors = plus[:, 0]
    epart = np.asarray(dec.Epart)
    matches = plus[anchors[:, None], epart[None, :]] == arange[:, None]
    if not bool((matches.sum(axis=1) == 1).all()):
        return False, "decomposition-not-unique"
    return True, f"E={len(dec.Epart)},H={len(dec.Hpart)}"


def _battery_semibrace_structure(report: RunReport, instances) -> None:
    for inst in instances:
        cb = inst.contained
        if cb is None:
            continue
        t0 = time.perf_counter_ns()
        ok, witness = _semibrace_structure(bracoid_to_semibrace(cb), cb)
        report.add(f"semibrace-structure-{_slug(inst)}", ok, _micros_since(t0), witness)


def _battery_artifacts(report: RunReport, instances, out: Path | None) -> None:
    if out is None:
        return
    for inst in instances:
        t0 = time.perf_counter_ns()
        ok = True
        for filename, kind, text in _instance_artifacts(inst):
            (out / filename).write_text(text)
            ok = ok and _reprints(kind, text)
        report.add(f"artifacts-{_slug(inst)}", ok, _micros_since(t0))


def _suite_instances(scope: str, seed: int) -> list[CatalogInstance]:
    if scope == "full":
        return acceptance_instances(seed)
    quick = [trivial_brace_instance((n,)) for n in range(2, 7)]
    quick.append(trivial_brace_instance((3, 2)))
    quick.append(semidirect_instance(3, 2))
    quick.append(abelianmap_instance(3, 5))
    quick.append(cyclic_pq_instance(5, 2))
    return quick


def cmd_suite(args) -> int:
    report = RunReport()
    out = _out_dir(args)
    full = args.scope == "full"
    rng = random.Random(args.seed)
    instances = report.build(f"build-instances-{args.scope}",
                             lambda: _suite_instances(args.scope, args.seed),
                             witness=lambda v: f"count={len(v)}")
    _battery_axioms(report, instances)
    _battery_roundtrip(report, instances, rng, count=100 if full else 20)
    _battery_lemmas(report, instances, args.seed, samples=10_000 if full else 2_000)
    _battery_solutions(report, instances)
    _battery_brace_solutions(report, instances)
    _battery_quantities(report, instances)
    _battery_semibrace_structure(report, instances)
    _battery_artifacts(report, instances, out)
    return _finish(report, out)


def cmd_holomorph(args) -> int:
    report = RunReport()
    out = _out_dir(args)
    G = files.read_group(Path(args.groupfile).read_text())
    if G.order > args.max_order:
        raise PreconditionFailed(
            f"group order {G.order} exceeds --max-order {args.max_order}")
    cap = max(1, args.max_order // G.order)
    hol, action = report.build(
        "build-holomorph", lambda: holomorph(G, cap=cap),
        witness=lambda v: f"order={v[0].order},aut={len(v[0].aut_maps)}")
    report.add("transitive", is_transitive(action), 0)
    _write_artifact(report, out, "holomorph.txt", "group", files.write_group(hol))
    _write_artifact(report, out, "holomorph-action.txt", "action",
                    files.write_action(action.table))
    return _finish(report, out)


def cmd_complements(args) -> int:
    report = RunReport()
    out = _out_dir(args)
    G = files.read_group(Path(args.groupfile).read_text())
    if G.order > args.max_order:
        raise PreconditionFailed(
            f"group order {G.order} exceeds --max-order {args.max_order}")
    bad = [g for g in args.gens if not 0 <= g < G.order]
    if bad:
        raise PreconditionFailed(f"generator {bad[0]} out of range 0..{G.order - 1}")
    S = report.build("subgroup", lambda: subgroup_generated(G, args.gens),
                     witness=lambda v: f"order={v.order}")
    comps = report.build("complements", lambda: find_complements(G, S),
                         witness=lambda v: f"count={len(v)}")
    for i, H in enumerate(comps):
        report.add(f"complement-{i}", True, 0, _indices(H.elements))
    return _finish(report, out)


# --- argument parsing ---

def _u64(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return value


def _common_flags(sp, out_default="."):
    sp.add_argument("--seed", type=_u64, default=0,
                    help="single source for all randomness (default 0)")
    sp.add_argument("--max-order", type=int, default=2048, dest="max_order",
                    help="refuse structures larger than this (default 2048)")
    sp.add_argument("--out", default=out_default,
                    help="directory for artifacts and the zero-timed report copy")
    sp.add_argument("--format", choices=("text",), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ybe-lab",
        description="Finite brace/bracoid/semibrace workbench with braid checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("example", help="build a catalog instance and export it")
    p.add_argument("name")
    p.add_argument("params", nargs="*", type=int)
    _common_flags(p)
    p.set_defaults(func=cmd_example)

    p = sub.add_parser("verify", help="check a structure file against its axioms")
    p.add_argument("kind", choices=VERIFY_KINDS)
    p.add_argument("file")
    _common_flags(p, out_default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("derive", help="run a derivation pipeline on a file")
    p.add_argument("pipeline", choices=PIPELINES)
    p.add_argument("file")
    p.add_argument("--tilde", action="store_true",
                   help="use the companion solution (solution-from-bracoid only)")
    p.add_argument("--roundtrip", action="store_true",
                   help="also derive back and require exact table equality")
    _common_flags(p)
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("suite", help="run the verification battery")
    p.add_argument("scope", choices=("quick", "full"))
    _common_flags(p)
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser("holomorph", help="build Hol(G) and its action from a group file")
    p.add_argument("groupfile")
    _common_flags(p)
    p.set_defaults(func=cmd_holomorph)

    p = sub.add_parser("complements", help="enumerate complements of a generated subgroup")
    p.add_argument("groupfile")
    p.add_argument("gens", nargs="+", type=int)
    _common_flags(p)
    p.set_defaults(func=cmd_complements)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (UnknownExample, SearchExhausted, PreconditionFailed) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
