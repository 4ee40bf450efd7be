"""The ybelab benchmark.

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1

Run from the root of a ybelab checkout.  Every op is one
``python -m ybelab ...`` child process, timed from spawn to exit, with
its own ``--out`` directory under ``.bench_work/``.  Ops run one at a time
from this process: a closed loop with one client, which is what a
``ybe-lab`` user waits for, and no cache can live from one op to the next.

Workloads (README.md in this directory says why each exists):

- suite-full: ``suite full --seed S+k``, the seed advancing per op;
- files-large: ``verify`` and ``derive`` on seeded relabellings of the
  order-132 and order-260 abelianmap instances;
- reject-large: ``verify`` on the same files, each with one seeded
  corruption of a deep law.

A pass is one run through the workload's op list.  Ops start until
``--seconds`` have passed and at least one pass is complete.  Every op's
output is checked; an op with a wrong exit code, verdict, witness or
artifact, or one that crashes or times out, counts as failed.

With ``--trace 0`` the last line reports the end-to-end metrics:
setup_s (median of three or more set-ups: input files plus one warm-up op),
wall_s and cpu_s (one pass: the sum over the op list of each op's median
wall and child CPU time), op_p50_ms (median of the per-op medians) and
peak_rss_mb (largest child resident set).  The times are scaled to the
host's reference speed (see ``SpeedProbe``), so that a shared host that
runs slower for a minute does not read as a slower program; the raw
figures are printed too.  With ``--trace 1`` each op runs
untraced and then under tracer.py, whole passes only, and the last line
reports the per-layer metrics per pass, the tracing overhead and the
layer ladder.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import inputs
import ladder
import oracle
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

GOLDEN_SEED = 7
GOLDEN_ALL = "cfad0075151022da4086890c086cf077efd0a11c594e0b5ef2c1625025b00897"
GOLDEN_NO_REPORT = "c4850f8ff8901b7ec97624fe358a643fa86bc35112b5c3692c9f10b15eda95ed"
# report.txt and every artifact except the six gl3f2-* files are the same for
# every seed, so they are checked on every suite-full op.
GOLDEN_SEED_FREE = "65dc220ae22d1b3d638e98fcadba620e6338ff084098cfcae66c43050db94ba6"
GL3F2_HEADERS = {
    "gl3f2-bracoid.txt": "BRACOID v1 168 8",
    "gl3f2-contained-brace.txt": "BRACE v1 8",
    "gl3f2-group.txt": "GROUP v1 168 J168",
    "gl3f2-semibrace.txt": "SEMIBRACE v1 168",
    "gl3f2-solution-tilde.txt": "YBE v1 168 bracoid-tilde",
    "gl3f2-solution.txt": "YBE v1 168 bracoid",
}
SUITE_STEPS = 95
SUITE_FILES = 65

SETUP_REPEATS = 3
SETUP_MIN_S = 4.0
# Times are reported as they would read on a host where reference_s()
# takes REF_S seconds.  The probe runs it every PROBE_GAP_S.
REF_S = 0.0015
PROBE_GAP_S = 0.05
REF_TABLE = np.argsort(np.random.default_rng(0).random((48, 48)), axis=1)
# Each op is single-threaded; BLAS pools would only add spinning threads.
CHILD_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}
OP_TIMEOUT_S = 60.0
WORKLOADS = ("suite-full", "files-large", "reject-large")


def reference_s() -> float:
    """Time of a fixed loop: interpreter work and a small table gather,
    the two kinds of work a ybelab op does."""
    t0 = time.perf_counter()
    total = 0
    for i in range(15000):
        total += i * i
    REF_TABLE[REF_TABLE].sum()
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples the host's speed beside the ops, from a thread of this process.

    A shared host runs slower for spells of seconds to minutes.  The probe
    times reference_s() every PROBE_GAP_S while the run lasts, about 3% of
    one core, and the run's times are scaled by REF_S over the median
    sample.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(PROBE_GAP_S):
            self.samples.append(reference_s())


@dataclass
class Result:
    rc: int
    wall_s: float
    cpu_s: float
    rss_kb: int
    stdout: str
    out: Path


@dataclass
class Op:
    """One ybe-lab command and the check its result must pass."""

    args: list[str]
    check: Callable[[Result], str | None]


@dataclass
class Runner:
    """Spawns ops in a work directory inside the checkout."""

    work: Path
    env: dict
    count: int = 0

    def run(self, op: Op, spans: Path | None = None) -> Result:
        self.count += 1
        out = self.work / f"out-{self.count}"
        log = self.work / f"stdout-{self.count}.txt"
        argv = op.args + ["--out", str(out)]
        if spans is None:
            cmd = [sys.executable, "-m", "ybelab", *argv]
        else:
            cmd = [sys.executable, str(HERE / "tracer.py"), str(spans), "--", *argv]
        with open(log, "w") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.DEVNULL,
                                    cwd=self.work, env=self.env)
            timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = log.read_text()
        log.unlink()
        return Result(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss, stdout, out)


def steps(stdout: str) -> list[tuple[str, str, str]]:
    """(name, verdict, witness) of every STEP line."""
    out = []
    for line in stdout.splitlines():
        parts = line.split(" ")
        if parts[0] == "STEP" and len(parts) >= 4:
            out.append((parts[1], parts[2], parts[4] if len(parts) > 4 else ""))
    return out


def accepted(res: Result) -> str | None:
    """Exit 0 with every asserted (non-info) step passing."""
    if res.rc != 0:
        return f"exit {res.rc}"
    bad = [name for name, verdict, _ in steps(res.stdout)
           if verdict != "PASS" and not name.startswith("info-")]
    return f"failed steps {bad}" if bad else None


def digest(directory: Path, names: list[str]) -> str:
    h = hashlib.sha256()
    for name in names:
        h.update((directory / name).read_bytes())
    return h.hexdigest()


# --- suite-full ---

def suite_ops(seed: int) -> Callable[[int], list[Op]]:
    def ops(k: int) -> list[Op]:
        s = seed + k
        return [Op(["suite", "full", "--seed", str(s)], partial(check_suite, seed=s))]
    return ops


def check_suite(res: Result, seed: int) -> str | None:
    why = accepted(res)
    if why:
        return why
    if len(steps(res.stdout)) != SUITE_STEPS:
        return f"{len(steps(res.stdout))} STEP lines, expected {SUITE_STEPS}"
    names = sorted(os.listdir(res.out))
    if len(names) != SUITE_FILES:
        return f"{len(names)} files, expected {SUITE_FILES}"
    zeroed = "".join(" ".join(line.split(" ")[:3] + ["0"] + line.split(" ")[4:]) + "\n"
                     for line in res.stdout.splitlines())
    if (res.out / "report.txt").read_text() != zeroed:
        return "report.txt is not stdout with zeroed timings"
    if digest(res.out, [n for n in names if not n.startswith("gl3f2-")]) != GOLDEN_SEED_FREE:
        return "seed-independent artifacts differ from the golden digest"
    if seed == GOLDEN_SEED:
        if digest(res.out, names) != GOLDEN_ALL:
            return "artifacts differ from the golden digest"
        if digest(res.out, [n for n in names if n != "report.txt"]) != GOLDEN_NO_REPORT:
            return "artifacts without report.txt differ from the golden digest"
    for name, header in GL3F2_HEADERS.items():
        with open(res.out / name) as fh:
            if fh.readline().rstrip("\n") != header:
                return f"{name} does not start with {header!r}"
    return None


# --- files-large and reject-large ---

class FileChecks:
    """Judges files-large ops against the seeded input tables.

    Derived artifacts are checked with the brute-force oracle once per
    distinct content; later passes must reproduce the same bytes.
    """

    def __init__(self, instances: dict) -> None:
        self.instances = instances
        self.verdicts: dict[str, str | None] = {}
        self.first: dict[tuple, str] = {}
        self.semibrace_plus: dict[int, object] = {}

    def verify(self, res: Result, kind: str) -> str | None:
        why = accepted(res)
        if why:
            return why
        passed = {name for name, verdict, _ in steps(res.stdout) if verdict == "PASS"}
        missing = [c for c in map(inputs.step_name, inputs.DEEP_LAWS[kind]) if c not in passed]
        return f"no passing {missing}" if missing else None

    def derive(self, res: Result, pipeline: str, order: int) -> str | None:
        why = accepted(res)
        if why:
            return why
        name = "semibrace.txt" if pipeline == "semibrace-from-bracoid" else "solution.txt"
        text = (res.out / name).read_text()
        key = hashlib.sha256(text.encode()).hexdigest()
        if self.first.setdefault((pipeline, order), key) != key:
            return f"{name} differs from the first pass"
        if key not in self.verdicts:
            self.verdicts[key] = self._judge(text, pipeline, order)
        return self.verdicts[key]

    def _judge(self, text: str, pipeline: str, order: int) -> str | None:
        inst = self.instances[order]
        if pipeline == "semibrace-from-bracoid":
            _, _, (dot, plus) = oracle.parse_tables(text, "SEMIBRACE", 1)
            why = oracle.semibrace_for_bracoid(dot, plus, inst.g, inst.act)
            if why is None:
                self.semibrace_plus[order] = plus
            return why
        provenance, left, right = oracle.parse_solution(text)
        if pipeline == "solution-from-brace":
            want = ("brace", *oracle.brace_solution_tables(inst.star, inst.g))
        elif order not in self.semibrace_plus:
            return "no verified semibrace to compare the bracoid solution with"
        else:
            want = ("bracoid", *oracle.semibrace_solution_tables(
                inst.g, self.semibrace_plus[order]))
        if provenance != want[0]:
            return f"provenance {provenance!r}, expected {want[0]!r}"
        if not (np.array_equal(left, want[1]) and np.array_equal(right, want[2])):
            return f"{pipeline} tables differ from the formula"
        return None


def rejected(res: Result, check: str, witness: str) -> str | None:
    """Exit 1 with the intended check as the first failure, naming the oracle's witness."""
    if res.rc != 1:
        return f"exit {res.rc}, expected 1"
    fails = [(name, wit) for name, verdict, wit in steps(res.stdout) if verdict == "FAIL"]
    if not fails or fails[0] != (check, witness):
        return f"first failure {fails[:1]}, expected {(check, witness)}"
    return None


def files_setup(seed: int, directory: Path, corrupted: bool) -> list[Op]:
    """Write the workload's input files and return its op list."""
    instances = {}
    ops_list: list[Op] = []
    derive_ops: list[Op] = []
    checks = None if corrupted else FileChecks(instances)
    for base in inputs.base_instances():
        inst = inputs.relabel(base, seed)
        instances[inst.order] = inst
        for kind in inputs.KINDS:
            if corrupted:
                bad, rej = inputs.corrupt(inst, kind, seed)
                path = inputs.write_file(bad, kind, directory)
                check = partial(rejected, check=rej.check,
                                witness=oracle.format_witness(rej.witness))
            else:
                path = inputs.write_file(inst, kind, directory)
                check = partial(checks.verify, kind=kind)
            ops_list.append(Op(["verify", kind, str(path)], check))
        if not corrupted:
            bracoid = str(directory / f"bracoid-{inst.order}.txt")
            for pipeline, file, extra in (
                    ("solution-from-brace", str(directory / f"brace-{inst.order}.txt"), []),
                    ("semibrace-from-bracoid", bracoid, ["--roundtrip"]),
                    ("solution-from-bracoid", bracoid, [])):
                check = partial(checks.derive, pipeline=pipeline, order=inst.order)
                derive_ops.append(Op(["derive", pipeline, file, *extra], check))
    return ops_list + derive_ops


# --- measurement ---

def setup(workload: str, seed: int, runner: Runner):
    """One set-up: input files plus one warm-up op.  Returns (ops per pass k)."""
    if workload == "suite-full":
        runner.run(Op(["suite", "quick", "--seed", str(seed)], accepted))
        return suite_ops(seed)
    directory = runner.work / "inputs"
    directory.mkdir(exist_ok=True)
    ops_list = files_setup(seed, directory, corrupted=workload == "reject-large")
    runner.run(ops_list[0])
    return lambda k: ops_list


def per_op_medians(passes: list[list[Result]], attr: str) -> list[float]:
    width = max(len(p) for p in passes)
    return [statistics.median(getattr(p[i], attr) for p in passes if len(p) > i)
            for i in range(width)]


class Tally:
    """Counts attempted and failed ops and keeps the first failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def judge(self, op: Op, res: Result) -> None:
        self.attempted += 1
        try:
            why = op.check(res)
        except (OSError, ValueError) as exc:
            why = f"{type(exc).__name__}: {exc}"
        if why:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{' '.join(op.args)}: {why}")
        shutil.rmtree(res.out, ignore_errors=True)


def measure(ops: Callable[[int], list[Op]], seconds: float, runner: Runner,
            tally: Tally) -> list[list[Result]]:
    """Untraced passes until `seconds` have passed and one pass is complete."""
    end = time.monotonic() + seconds
    passes: list[list[Result]] = []
    k = 0
    while not passes or time.monotonic() < end:
        done: list[Result] = []
        for op in ops(k):
            if passes and time.monotonic() >= end:
                break
            res = runner.run(op)
            tally.judge(op, res)
            done.append(res)
        passes.append(done)
        k += 1
    return passes


def measure_traced(ops: Callable[[int], list[Op]], seconds: float, runner: Runner,
                   tally: Tally):
    """Whole passes, each op once untraced then once traced; spans aggregated."""
    end = time.monotonic() + seconds
    plain: list[list[Result]] = []
    traced: list[list[Result]] = []
    totals: dict[str, dict[str, float]] = {}
    import_s: list[float] = []
    k = 0
    while not traced or time.monotonic() < end:
        plain.append([])
        traced.append([])
        for op in ops(k):
            res = runner.run(op)
            tally.judge(op, res)
            plain[-1].append(res)
            spans_path = runner.work / "spans.json"
            res = runner.run(op, spans=spans_path)
            tally.judge(op, res)
            traced[-1].append(res)
            if not spans_path.exists():
                continue
            data = json.loads(spans_path.read_text())
            spans_path.unlink()
            import_s.append(data["import_s"])
            for name, row in tracer.aggregate(data["spans"]).items():
                into = totals.setdefault(name, {})
                for key, value in row.items():
                    into[key] = into.get(key, 0.0) + value
        k += 1
    return plain, traced, totals, import_s


def median_setup(workload: str, seed: int, runner: Runner):
    """Set up SETUP_REPEATS times, or up to three times as often while the
    set-ups add up to less than SETUP_MIN_S: a cheap one is noisier."""
    times: list[float] = []
    while len(times) < SETUP_REPEATS or (
            sum(times) < SETUP_MIN_S and len(times) < 3 * SETUP_REPEATS):
        t0 = time.perf_counter()
        ops = setup(workload, seed, runner)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), ops


def end_to_end(workload: str, seed: int, seconds: float, runner: Runner, tally: Tally):
    with SpeedProbe() as probe:
        setup_s, ops = median_setup(workload, seed, runner)
        passes = measure(ops, seconds, runner, tally)
    walls = per_op_medians(passes, "wall_s")
    rss = max(r.rss_kb for p in passes for r in p)
    raw = {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(walls), "s"),
        "cpu_s": (sum(per_op_medians(passes, "cpu_s")), "s"),
        "op_p50_ms": (statistics.median(walls) * 1000, "ms"),
    }
    ref = statistics.median(probe.samples)
    print(f"reference {ref * 1000:.6g} ms (median of {len(probe.samples)}; "
          f"times below are scaled by {REF_S * 1000:g} ms / reference)")
    for name, (value, unit) in raw.items():
        print(f"raw.{name} {value:.6g} {unit}")
    metrics = {name: (value * REF_S / ref, unit) for name, (value, unit) in raw.items()}
    metrics["peak_rss_mb"] = (rss / 1024, "MB")
    return metrics


# name in the trace -> (metric suffixes); values are per pass.
LAYER_METRICS = {
    "cli.main": ("self_s",),
    "catalog.acceptance_instances": ("busy_s",),
    "catalog.gl3f2_instance": ("busy_s",),
    "groups.FiniteGroup": ("calls", "self_s"),
    "groups.GroupAction": ("self_s",),
    "groups.automorphism_group": ("self_s",),
    "groups.holomorph": ("self_s",),
    "groups.find_complements": ("calls", "self_s"),
    "checks.group_table_checks": ("calls", "self_s", "n3", "unique_ratio"),
    "braces.SkewBrace": ("calls", "self_s"),
    "braces.verify_skew_brace": ("self_s",),
    "braces.brace_solution": ("self_s",),
    "bracoids.SkewBracoid": ("calls", "self_s"),
    "bracoids.verify_bracoid": ("self_s",),
    "bracoids.ContainedBrace": ("calls", "self_s"),
    "bracoids.lambda_rho_identity_checks": ("calls", "self_s"),
    "semibraces.Semibrace": ("calls", "self_s", "unique_ratio"),
    "semibraces.verify_semibrace": ("self_s",),
    "semibraces.decompose": ("calls",),
    "semibraces.roundtrip_check": ("busy_s",),
    "ybe.check_braid": ("calls", "self_s", "n3", "unique_ratio"),
    "ybe.solution_from_bracoid": ("busy_s",),
    "files.read": ("self_s", "bytes"),
    "files.write": ("self_s", "bytes"),
}
MODULES = ("cli", "catalog", "groups", "checks", "braces", "bracoids", "semibraces",
           "ybe", "files")
UNITS = {"calls": "count", "self_s": "s", "busy_s": "s", "n3": "count",
         "unique_ratio": "ratio", "bytes": "B"}


def per_layer(workload: str, seed: int, seconds: float, runner: Runner, tally: Tally):
    ops = setup(workload, seed, runner)
    plain, traced, totals, import_s = measure_traced(ops, seconds, runner, tally)
    passes = len(traced)
    metrics = {"cli.import_s": (statistics.median(import_s), "s")}
    for name, suffixes in LAYER_METRICS.items():
        row = totals.get(name, {})
        for suffix in suffixes:
            if suffix == "unique_ratio":
                calls = row.get("calls", 0.0)
                value = row.get("distinct", 0.0) / calls if calls else 0.0
            else:
                value = row.get(suffix, 0.0) / passes
            metrics[f"{name}.{suffix}"] = (value, UNITS[suffix])
    for module in MODULES:
        value = totals.get(f"{module}.raised", {}).get("calls", 0.0) / passes
        metrics[f"{module}.raised"] = (value, "count")
    overhead = (sum(per_op_medians(traced, "wall_s"))
                - sum(per_op_medians(plain, "wall_s")))
    metrics["trace.overhead_s"] = (overhead, "s")
    timeouts = 0
    for (layer, n), (ms, finished) in ladder.run_ladder(runner.env).items():
        metrics[f"ladder.{layer}.n{n}_ms"] = (ms, "ms")
        if not finished:
            timeouts += 1
            print(f"ladder.{layer}.n{n}_ms timeout (capped at {ladder.CAP_S:g} s)")
    metrics["ladder.timeouts"] = (timeouts, "count")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ybelab" / "__init__.py").is_file():
        print(f"error: no ybelab sources under {SRC}; run from a ybelab checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = dict(os.environ, PYTHONPATH=str(SRC), **CHILD_THREADS)
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    runner, tally = Runner(work, env), Tally()
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    try:
        if args.trace:
            metrics = per_layer(args.workload, args.seed, args.seconds, runner, tally)
        else:
            metrics = end_to_end(args.workload, args.seed, args.seconds, runner, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"error_rate {tally.failed / tally.attempted:.6g} ratio "
          f"({tally.failed} of {tally.attempted} ops)")
    for reason in tally.reasons:
        print(f"failed: {reason}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
