"""Command line front end: examples, file verification, derivations, suites.

Reports are line oriented, `STEP <name> PASS|FAIL <micros> [witness]`.
Stdout carries real timings; report files written under --out zero the
micros column so identical runs produce identical bytes.  Exit status is
0 iff every asserted step passed, 1 on a failed step, 2 on unusable input
(parse errors, unknown names, precondition failures, tables too large for
memory), 3 when the library broke one of its own invariants (an
`AxiomViolated` raised by a derived construction).

The file-kind and pipeline tables are built per call, so their rows look up
library names at run time, as direct calls do (a tracer may rebind them).
"""

from __future__ import annotations

import argparse
import gc
import random
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

from . import files
from .braces import SkewBrace, brace_solution, verify_skew_brace
from .bracoids import SkewBracoid, contains_brace, verify_bracoid
from .catalog import (
    ACCEPTANCE,
    CatalogInstance,
    SearchExhausted,
    acceptance_instances,
    build_example,
    example_order,
    promote_brace,
    seeded_braces,
)
from .checks import AxiomViolated, Record, Report, group_table_checks
from .files import ParseError
from .groups import (
    MAX_ORDER,
    FiniteGroup,
    find_complements,
    holomorph,
    is_transitive,
    subgroup_generated,
)
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

# Every lemma step is proved on all triples.  Above this order its STEP
# line still reads `sampled-N`: that label is report text, frozen by the
# pinned `suite` digests until ROADMAP 2a moves it together with the pins.
LEMMA_EXHAUSTIVE_ORDER = 24


class PreconditionFailed(RuntimeError):
    """The input cannot feed the requested pipeline."""


class Step:
    """One STEP line; mutable, as `RunReport.timed` fills it in after its block."""

    __slots__ = ("name", "ok", "micros", "witness", "asserted")

    def __init__(self, name: str, ok: bool, witness: str = "", asserted: bool = True):
        self.name, self.ok, self.micros = name, ok, 0
        self.witness, self.asserted = witness, asserted

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

    def add(self, name: str, ok: bool, witness: str = "", asserted: bool = True) -> None:
        self.steps.append(Step(name, bool(ok), str(witness), asserted))

    @contextmanager
    def timed(self, name: str):
        """Log one step timed over the with-block; the block may set its ok and witness."""
        step = Step(name, True)
        t0 = time.perf_counter_ns()
        yield step
        step.micros = (time.perf_counter_ns() - t0) // 1000
        step.ok = bool(step.ok)
        self.steps.append(step)

    def build(self, name: str, fn, witness=lambda value: ""):
        """Time a construction; reaching the end of fn counts as PASS."""
        with self.timed(name) as step:
            value = fn()
        step.witness = witness(value)
        return value

    def absorb(self, prefix: str, rep: Report) -> None:
        for c in rep.checks:
            if c.witness:
                text = _indices(c.witness)
            elif not c.ok and c.detail:
                text = _compact(c.detail)
            else:
                text = ""
            self.add(prefix + c.name, c.ok, text)

    def render(self, zero_timings: bool) -> str:
        return "".join(s.line(zero_timings) + "\n" for s in self.steps)


def _indices(values) -> str:
    if not len(values):
        return ""
    return "(" + ",".join(str(int(v)) for v in values) + ")"


def _compact(text: str) -> str:
    return "-".join(str(text).split())[:80]


def _slug(inst: CatalogInstance) -> str:
    return "-".join((inst.name, *map(str, inst.params)))


def _refuse_order(order: int, max_order: int) -> None:
    if order > max_order:
        raise PreconditionFailed(f"order {order} exceeds --max-order {max_order}")


# --- structure files ---

class FileKind(Record):
    """How to report on the laws of a structure file's tables and build it."""

    __slots__ = ("verify", "build", "witness")

    def __init__(self,
                 verify: Callable,                      # *tables -> Report
                 build: Callable | None = None,         # *tables -> verified structure
                 witness: Callable = lambda value: ""):  # structure -> witness of its build step
        self._fill(verify, build, witness)


def _file_kinds() -> dict[str, FileKind]:
    return {
        "group": FileKind(lambda table: Report(tuple(group_table_checks(table)))),
        "brace": FileKind(
            verify_skew_brace,
            lambda star, dot: SkewBrace(FiniteGroup(star, name="Gs"),
                                        FiniteGroup(dot, name="Gd")),
            lambda B: f"n={B.order}"),
        "bracoid": FileKind(
            verify_bracoid,
            lambda g, n, act: SkewBracoid(FiniteGroup(g, name="G"),
                                          FiniteGroup(n, name="N"), act),
            lambda bc: f"G={bc.G.order},N={bc.N.order}"),
        "semibrace": FileKind(
            verify_semibrace,
            lambda dot, plus: Semibrace(FiniteGroup(dot, name="G"), plus),
            lambda sb: f"n={sb.order}"),
    }


def _refuse_header(kind: str, text: str, max_order: int) -> None:
    """Refuse a file above --max-order on its header counts, before its body is parsed.

    A header that does not parse is left to the reader, which names the error.
    """
    counts = files.header_counts(kind, text)
    if counts:
        _refuse_order(max(counts), max_order)


def _load(report: RunReport, kind: str, text: str, max_order: int):
    """Guard, read and build; input that breaks a law cannot feed a pipeline."""
    _refuse_header(kind, text, max_order)
    spec = _file_kinds()[kind]
    tables, _ = files.read_tables(text, kind)
    try:
        return report.build(f"build-{kind}", lambda: spec.build(*tables), spec.witness)
    except ValueError as exc:
        raise PreconditionFailed(f"input is not a {kind}: {exc}") from exc


def _put(out: Path, filename: str, kind: str, values: tuple) -> bool:
    """Write an artifact into out block by block (`files.save`); whether it
    reads back as the values it was written from.

    A group's table still builds a FiniteGroup, which the benchmark counts; the
    table was proved when its group was built, so the build is a memo hit.
    """
    ok = files.save(out / filename, kind, *values)
    if ok and kind == "group":
        FiniteGroup(values[0].table, name=values[0].name)
    return ok


def _write_artifact(report: RunReport, out: Path, filename: str, kind: str,
                    values: tuple) -> None:
    with report.timed(f"write-{filename}") as step:
        step.ok = _put(out, filename, kind, values)


def _instance_artifacts(inst: CatalogInstance) -> list[tuple[str, str, tuple]]:
    """(filename, kind, the values its writer takes) for each artifact of an instance."""
    slug = _slug(inst)
    bc = inst.bracoid
    arts = [(f"{slug}-group.txt", "group", (bc.G,))]
    if inst.brace is not None:
        arts.append((f"{slug}-brace.txt", "brace", (inst.brace.star, inst.brace.dot)))
    arts.append((f"{slug}-bracoid.txt", "bracoid", (bc.G, bc.N, bc.act.table)))
    cb = inst.contained
    if cb is not None:
        arts.append((f"{slug}-contained-brace.txt", "brace", (cb.brace.star, cb.brace.dot)))
        sb = bracoid_to_semibrace(cb)
        arts.append((f"{slug}-semibrace.txt", "semibrace", (sb.dot, sb.plus)))
        arts.append((f"{slug}-solution.txt", "solution", (solution_from_bracoid(cb),)))
        arts.append((f"{slug}-solution-tilde.txt", "solution",
                     (tilde_solution_from_bracoid(cb),)))
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
    _refuse_order(example_order(args.name, tuple(args.params)), args.max_order)
    report = RunReport()
    inst = report.build(
        f"build-{args.name}",
        lambda: build_example(args.name, tuple(args.params), seed=args.seed),
        witness=lambda v: f"G={v.bracoid.G.order},N={v.bracoid.N.order}")
    if inst.brace is not None:
        report.absorb("brace.", report.build(
            "verify-brace", lambda: verify_skew_brace(inst.brace.star, inst.brace.dot)))
    bc = inst.bracoid
    report.absorb("bracoid.", report.build(
        "verify-bracoid", lambda: verify_bracoid(bc.G, bc.N, bc.act.table)))
    cb = inst.contained
    witness = "NotFound" if cb is None else f"H={cb.H.order},S={cb.S.order}"
    report.add("contains-brace", True, witness)
    if cb is not None:
        sb = bracoid_to_semibrace(cb)
        report.absorb("semibrace.", report.build("verify-semibrace", lambda: sb.report))
    out = _out_dir(args)
    for filename, kind, values in _instance_artifacts(inst):
        _write_artifact(report, out, filename, kind, values)
    return _finish(report, out)


def cmd_verify(args) -> int:
    text = Path(args.file).read_text()
    report = RunReport()
    _refuse_header(args.kind, text, args.max_order)
    if args.kind != "solution":
        spec = _file_kinds()[args.kind]
        tables, _ = files.read_tables(text, args.kind)
        report.absorb("", report.build("scan", lambda: spec.verify(*tables)))
        return _finish(report, _out_dir(args))
    try:
        r = report.build("parse", lambda: files.read_solution(text),
                         witness=lambda v: f"n={v.size}")
    except ParseError:
        # A ParseError is a ValueError too; it must reach main() as
        # unusable input (exit 2), not become a failed step.
        raise
    except ValueError as exc:
        report.add("parse", False, _compact(str(exc)))
        return _finish(report, _out_dir(args))
    _solution_steps(report, r, asserted=("braid",))
    return _finish(report, _out_dir(args))


def _solution_steps(report: RunReport, r, asserted: tuple[str, ...] | None = None) -> None:
    """r's report: the asserted properties (by default r.asserted) as steps, the rest info-."""
    asserted = r.asserted if asserted is None else asserted
    for check in report.build("scan", lambda: r.report).checks:
        named = check.name in asserted
        report.add(check.name if named else f"info-{check.name}", check.ok,
                   _indices(check.witness), asserted=named)


def _decomposition(sb: Semibrace) -> str:
    dec = decompose(sb)
    return f"E={len(dec.Epart)},H={len(dec.Hpart)}"


def _semibrace_steps(report: RunReport, sb: Semibrace) -> None:
    report.add("decompose", True, _decomposition(sb))
    report.absorb("semibrace.", sb.report)


def _bracoid_steps(report: RunReport, cb) -> None:
    bc = cb.bracoid
    report.absorb("bracoid.", verify_bracoid(bc.G, bc.N, bc.act.table))


class Pipeline(Record):
    """One `derive` pipeline: input file to derived structure to checked artifact."""

    __slots__ = ("source", "derive", "steps", "artifact", "kind", "values", "witness",
                 "flags", "tilde")

    def __init__(self,
                 source: str,                           # input kind; a bracoid must contain a brace
                 derive: Callable,                      # input -> derived structure
                 steps: Callable,                       # (report, derived): the checks after derive
                 artifact: str,                         # file written under --out
                 kind: str,                             # artifact kind, naming its writer
                 values: Callable,                      # derived -> the values its writer takes
                 witness: Callable = lambda value: "",  # witness of the derive step
                 flags: tuple[str, ...] = (),           # accepted among roundtrip and tilde
                 tilde: Pipeline | None = None):        # what --tilde runs instead
        self._fill(source, derive, steps, artifact, kind, values, witness, flags, tilde)


def _pipelines() -> dict[str, Pipeline]:
    return {
        "semibrace-from-bracoid": Pipeline(
            "bracoid", bracoid_to_semibrace, _semibrace_steps, "semibrace.txt",
            "semibrace", lambda sb: (sb.dot, sb.plus), flags=("roundtrip",)),
        "bracoid-from-semibrace": Pipeline(
            "semibrace", semibrace_to_bracoid, _bracoid_steps, "bracoid.txt", "bracoid",
            lambda cb: (cb.bracoid.G, cb.bracoid.N, cb.bracoid.act.table),
            witness=lambda cb: f"N={cb.bracoid.N.order}", flags=("roundtrip",)),
        "solution-from-bracoid": Pipeline(
            "bracoid", solution_from_bracoid, _solution_steps, "solution.txt", "solution",
            lambda r: (r,), flags=("tilde",),
            tilde=Pipeline(
                "bracoid", tilde_solution_from_bracoid, _solution_steps,
                "solution-tilde.txt", "solution", lambda r: (r,))),
        "solution-from-brace": Pipeline(
            "brace", brace_solution, _solution_steps, "solution.txt", "solution",
            lambda r: (r,)),
        "solution-from-semibrace": Pipeline(
            "semibrace", solution_from_semibrace, _solution_steps, "solution.txt", "solution",
            lambda r: (r,)),
    }


def cmd_derive(args) -> int:
    text = Path(args.file).read_text()
    report = RunReport()
    row = _pipelines()[args.pipeline]
    for flag in ("roundtrip", "tilde"):
        if getattr(args, flag) and flag not in row.flags:
            raise PreconditionFailed(f"--{flag} does not apply to {args.pipeline}")
    if args.tilde:
        row = row.tilde
    source = _load(report, row.source, text, args.max_order)
    if row.source == "bracoid":
        source = report.build(
            "contains-brace", lambda: contains_brace(source),
            witness=lambda v: "NotFound" if v is None else f"H={v.H.order}")
        if source is None:
            raise PreconditionFailed("bracoid has no contained brace")
    derived = report.build("derive", lambda: row.derive(source), row.witness)
    row.steps(report, derived)
    out = _out_dir(args)
    _write_artifact(report, out, row.artifact, row.kind, row.values(derived))
    if args.roundtrip:
        with report.timed("roundtrip") as step:
            step.ok = roundtrip_check(source)
    return _finish(report, out)


# --- suite batteries ---

def _battery_axioms(report: RunReport, instances) -> None:
    for inst in instances:
        with report.timed(f"axioms-{_slug(inst)}") as step:
            reps = []
            if inst.brace is not None:
                reps.append(verify_skew_brace(inst.brace.star, inst.brace.dot))
            bc = inst.bracoid
            reps.append(verify_bracoid(bc.G, bc.N, bc.act.table))
            # A memo hit that nothing reads, kept while the benchmark pins the
            # FiniteGroup count (ROADMAP item 1a).
            FiniteGroup(bc.G.table)
            if inst.contained is not None:
                sb = bracoid_to_semibrace(inst.contained)
                reps.append(verify_semibrace(sb.dot, sb.plus))
            failed = [r for r in reps if not r.ok]
            if failed:
                step.ok = False
                step.witness = _compact(failed[0].first_failure().describe())


def _battery_roundtrip(report: RunReport, with_brace, rng, count: int) -> None:
    for inst in with_brace:
        cb = inst.contained
        with report.timed(f"roundtrip-{_slug(inst)}") as step:
            step.ok = roundtrip_check(cb) and roundtrip_check(bracoid_to_semibrace(cb))
    with report.timed("roundtrip-random") as step:
        step.witness = f"count={count}"
        for i, B in enumerate(seeded_braces(rng, count)):
            cb = promote_brace(B)
            if not (roundtrip_check(cb) and roundtrip_check(bracoid_to_semibrace(cb))):
                step.ok, step.witness = False, f"index={i}"
                break


def _battery_lemmas(report: RunReport, with_brace, samples: int) -> None:
    for inst in with_brace:
        with report.timed(f"lemmas-{_slug(inst)}") as step:
            # bracoids.lambda_rho proves the displacement laws and raises
            # AxiomViolated when one fails, so reading the tables is the step.
            lam, _ = inst.contained.lambda_rho
            # The label is frozen report text (see LEMMA_EXHAUSTIVE_ORDER).
            step.witness = ("exhaustive" if len(lam) <= LEMMA_EXHAUSTIVE_ORDER
                            else f"sampled-{samples}")


def _battery_solutions(report: RunReport, with_brace) -> None:
    for inst in with_brace:
        cb = inst.contained
        slug = _slug(inst)
        with report.timed(f"solution-{slug}") as step:
            # Each derived map's constructor refuses a failing asserted check,
            # so returning is the step.  The extra check_braid call keeps the
            # benchmark's pinned call count until ROADMAP item 1a moves it.
            r = solution_from_bracoid(cb)
            check_braid(r)
            step.witness = f"n={r.size}"
        with report.timed(f"solution-tilde-{slug}") as step:
            rt = tilde_solution_from_bracoid(cb)
            check_braid(rt)
            step.witness = f"n={rt.size}"
        with report.timed(f"solution-conjugate-{slug}") as step:
            step.ok = solutions_equal(
                conjugate_solution(conjugate_solution(r, "iota"), "tau"), rt)
        with report.timed(f"solution-semibrace-{slug}") as step:
            step.ok = solutions_equal(r, solution_from_semibrace(bracoid_to_semibrace(cb)))


def _battery_brace_solutions(report: RunReport, instances) -> None:
    for inst in instances:
        named = []
        if inst.brace is not None and inst.brace.order <= 24:
            named.append((_slug(inst), inst.brace))
        cb = inst.contained
        if inst.brace is None and cb is not None and cb.brace.order <= 24:
            named.append((_slug(inst) + "-contained", cb.brace))
        for tag, B in named:
            with report.timed(f"brace-solution-{tag}"):
                # As in _battery_solutions: returning is the step, and
                # check_braid runs for the pinned call count (item 1a).
                check_braid(brace_solution(B))


def _battery_quantities(report: RunReport, instances) -> None:
    for inst in instances:
        if inst.name == "gl3f2":
            horder = inst.contained.H.order if inst.contained is not None else 0
            got = (inst.bracoid.G.order, inst.bracoid.S.order, horder)
            report.add("quantities-gl3f2", got == (168, 21, 8),
                       f"J={got[0]},S={got[1]},H={got[2]}")
        elif inst.name == "cyclic-pq" and inst.params == (5, 2):
            got = (inst.bracoid.G.order, inst.bracoid.S.order)
            ok = got == (20, 2) and inst.contained is None
            wit = f"J={got[0]},S={got[1]}," + (
                "NotFound" if inst.contained is None else "found")
            report.add("quantities-cyclic-pq", ok, wit)


def _battery_semibrace_structure(report: RunReport, with_brace) -> None:
    # bracoid_to_semibrace asserts E is S and G+e is H, and decompose proves
    # G+e a group (the rest of the split is its docstring's theorem); the
    # step records the split.
    for inst in with_brace:
        with report.timed(f"semibrace-structure-{_slug(inst)}") as step:
            step.witness = _decomposition(bracoid_to_semibrace(inst.contained))


def _battery_artifacts(report: RunReport, instances, out: Path) -> None:
    for inst in instances:
        with report.timed(f"artifacts-{_slug(inst)}") as step:
            for filename, kind, values in _instance_artifacts(inst):
                step.ok = _put(out, filename, kind, values) and step.ok


def _suite_examples(scope: str) -> list[tuple[str, tuple[int, ...]]]:
    return [(name, params) for name, params in ACCEPTANCE
            if scope == "full" or name != "gl3f2"]


def _suite_instances(scope: str, seed: int) -> list[CatalogInstance]:
    if scope == "full":
        return acceptance_instances(seed)
    return [build_example(name, params) for name, params in _suite_examples(scope)]


def cmd_suite(args) -> int:
    _refuse_order(max(example_order(name, params)
                      for name, params in _suite_examples(args.scope)), args.max_order)
    report = RunReport()
    out = _out_dir(args)
    full = args.scope == "full"
    rng = random.Random(args.seed)
    instances = report.build(f"build-instances-{args.scope}",
                             lambda: _suite_instances(args.scope, args.seed),
                             witness=lambda v: f"count={len(v)}")
    with_brace = [inst for inst in instances if inst.contained is not None]
    _battery_axioms(report, instances)
    _battery_roundtrip(report, with_brace, rng, count=100 if full else 20)
    _battery_lemmas(report, with_brace, samples=10_000 if full else 2_000)
    _battery_solutions(report, with_brace)
    _battery_brace_solutions(report, instances)
    _battery_quantities(report, instances)
    _battery_semibrace_structure(report, with_brace)
    _battery_artifacts(report, instances, out)
    return _finish(report, out)


def cmd_holomorph(args) -> int:
    report = RunReport()
    text = Path(args.groupfile).read_text()
    _refuse_header("group", text, args.max_order)
    G = files.read_group(text)
    hol = report.build(
        "build-holomorph", lambda: holomorph(G, max_order=args.max_order),
        witness=lambda v: f"order={v.group.order},aut={len(v.maps)}")
    report.add("transitive", is_transitive(hol.action))
    out = _out_dir(args)
    _write_artifact(report, out, "holomorph.txt", "group", (hol.group,))
    _write_artifact(report, out, "holomorph-action.txt", "action", (hol.action.table,))
    return _finish(report, out)


def cmd_complements(args) -> int:
    report = RunReport()
    text = Path(args.groupfile).read_text()
    _refuse_header("group", text, args.max_order)
    G = files.read_group(text)
    S = report.build("subgroup", lambda: subgroup_generated(G, args.gens),
                     witness=lambda v: f"order={v.order}")
    comps = report.build("complements", lambda: find_complements(G, S),
                         witness=lambda v: f"count={len(v)}")
    for i, H in enumerate(comps):
        report.add(f"complement-{i}", True, _indices(H.elements))
    return _finish(report, _out_dir(args))


# --- argument parsing ---

def _u64(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return value


def _subcommand(sub, name: str, func, help: str, out_default=".", seeded=False):
    """A subparser that runs func, with the flags every subcommand takes.

    Only the subcommands that draw random numbers take --seed.
    """
    sp = sub.add_parser(name, help=help)
    sp.set_defaults(func=func)
    if seeded:
        sp.add_argument("--seed", type=_u64, default=0,
                        help="single source for all randomness (default 0)")
    sp.add_argument("--max-order", type=int, default=MAX_ORDER, dest="max_order",
                    help=f"refuse structures larger than this (default {MAX_ORDER})")
    sp.add_argument("--out", default=out_default,
                    help="directory for artifacts and the zero-timed report copy")
    return sp


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ybe-lab",
        description="Finite brace/bracoid/semibrace workbench with braid checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _subcommand(sub, "example", cmd_example, "build a catalog instance and export it",
                    seeded=True)
    p.add_argument("name")
    p.add_argument("params", nargs="*", type=int)

    p = _subcommand(sub, "verify", cmd_verify, "check a structure file against its axioms",
                    out_default=None)
    p.add_argument("kind", choices=(*_file_kinds(), "solution"))
    p.add_argument("file")

    p = _subcommand(sub, "derive", cmd_derive, "run a derivation pipeline on a file")
    p.add_argument("pipeline", choices=tuple(_pipelines()))
    p.add_argument("file")
    p.add_argument("--tilde", action="store_true",
                   help="use the companion solution (solution-from-bracoid only)")
    p.add_argument("--roundtrip", action="store_true",
                   help="also derive back and require exact table equality")

    p = _subcommand(sub, "suite", cmd_suite, "run the verification battery", seeded=True)
    p.add_argument("scope", choices=("quick", "full"))

    p = _subcommand(sub, "holomorph", cmd_holomorph,
                    "build Hol(G) and its action from a group file")
    p.add_argument("groupfile")

    p = _subcommand(sub, "complements", cmd_complements,
                    "enumerate complements of a generated subgroup")
    p.add_argument("groupfile")
    p.add_argument("gens", nargs="+", type=int)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AxiomViolated as exc:
        # _load turns a law-breaking input into PreconditionFailed, so an
        # AxiomViolated that gets here was raised by a derived construction.
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (SearchExhausted, PreconditionFailed, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # An input within --max-order whose tables outgrow this host's memory.
        print(f"error: MemoryError: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


def run() -> None:
    """The process entry of `ybe-lab` and `python -m ybelab`: main, then exit with its status.

    Every module is imported by now, so `gc.freeze()` moves the import heap
    out of the collector's sight before any command runs, and the collection
    at shutdown no longer walks it.  On a 2-core host, `python -c "import
    numpy"` takes a median 169 ms, 147 ms with `gc.freeze()` after the import
    and 154 ms ending in `os._exit`, which would also skip output flushes and
    `atexit` (21 alternating runs).  `main`, the in-process entry, never
    freezes: a library importer keeps a collector that sees everything.
    """
    gc.freeze()
    raise SystemExit(main())


if __name__ == "__main__":
    run()
