"""Tests of the benchmark's own parts: oracle, input generation, corruptions, tracer.

Run with ``PYTHONPATH=src python -m pytest -q perfbench`` from the repo root.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from ybelab.braces import verify_skew_brace  # noqa: E402
from ybelab.bracoids import verify_bracoid  # noqa: E402
from ybelab.catalog import abelianmap_instance, semidirect_instance  # noqa: E402
from ybelab.checks import group_table_checks  # noqa: E402
from ybelab.cli import main as cli_main  # noqa: E402
from ybelab.semibraces import bracoid_to_semibrace, verify_semibrace  # noqa: E402
from ybelab.ybe import SolutionMap, check_braid  # noqa: E402

LAWS = ("associativity", "compat", "action.law", "coupling", "plus.assoc", "relation",
        "braid")


def _instance(cat) -> inputs.Instance:
    sb = bracoid_to_semibrace(cat.contained)
    g = cat.bracoid.G.table
    left, right = oracle.semibrace_solution_tables(g, sb.plus)
    return inputs.Instance(g, cat.brace.star.table, cat.bracoid.N.table,
                           cat.bracoid.act.table, sb.plus, left, right)


@pytest.fixture(scope="module")
def small():
    """Order-6 and order-60 instances, relabelled."""
    cats = (semidirect_instance(3, 2), abelianmap_instance(3, 5))
    return [inputs.relabel(_instance(c), seed=11) for c in cats]


@pytest.fixture(scope="module")
def bases():
    return inputs.base_instances()


def _library_witness(inst: inputs.Instance, law: str) -> tuple:
    """The first counterexample ybelab reports for `law` (() when it holds)."""
    if law == "associativity":
        check = next(c for c in group_table_checks(inst.g) if c.name == "associativity")
        return check.witness
    if law == "compat":
        return verify_skew_brace(inst.star, inst.g)["compat"].witness
    if law in ("action.law", "coupling"):
        name = "action.law" if law == "action.law" else "compat"
        return verify_bracoid(inst.g, inst.n, inst.act)[name].witness
    if law in ("plus.assoc", "relation"):
        name = "plus.assoc" if law == "plus.assoc" else "compat"
        return verify_semibrace(inst.g, inst.plus)[name].witness
    return check_braid(SolutionMap(inst.left, inst.right)).braid_witness


@pytest.mark.parametrize("law", LAWS)
def test_oracle_agrees_with_library_on_valid_tables(small, law):
    for inst in small:
        assert inputs.law_witness(inst, law) is None
        assert _library_witness(inst, law) == ()


@pytest.mark.parametrize("law", LAWS)
def test_oracle_agrees_with_library_on_corrupted_tables(small, law):
    rng = np.random.default_rng(5)
    broken = 0
    for inst in small:
        for _ in range(6):
            bad = inputs.break_law(inst, law, rng)
            witness = inputs.law_witness(bad, law)
            assert _library_witness(bad, law) == (witness or ())
            broken += witness is not None
    assert broken > 0


def _write_all(bases, seed: int, directory: Path) -> dict[str, bytes]:
    (directory / "bad").mkdir(parents=True)
    for base in bases:
        inst = inputs.relabel(base, seed)
        for kind in inputs.KINDS:
            inputs.write_file(inst, kind, directory)
            bad, _ = inputs.corrupt(inst, kind, seed)
            inputs.write_file(bad, kind, directory / "bad")
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*.txt"))}


def test_inputs_are_a_function_of_the_seed(bases, tmp_path):
    first = _write_all(bases, 3, tmp_path / "a")
    again = _write_all(bases, 3, tmp_path / "b")
    other = _write_all(bases, 4, tmp_path / "c")
    assert len(first) == 20
    assert first == again
    assert all(first[name] != other[name] for name in first)


@pytest.mark.parametrize("seed", [1, 2])
def test_every_corruption_is_rejected_by_its_intended_check(bases, seed, tmp_path, capsys):
    for base in bases:
        inst = inputs.relabel(base, seed)
        for kind in inputs.KINDS:
            bad, rej = inputs.corrupt(inst, kind, seed)
            path = inputs.write_file(bad, kind, tmp_path)
            capsys.readouterr()
            rc = cli_main(["verify", kind, str(path), "--out", str(tmp_path / "out")])
            stdout = capsys.readouterr().out
            res = run.Result(rc, 0.0, 0.0, 0, stdout, tmp_path / "out")
            assert run.rejected(res, rej.check, oracle.format_witness(rej.witness)) is None, \
                (kind, inst.order, stdout)
            # The uncorrupted file is accepted with its deep law checked.
            path = inputs.write_file(inst, kind, tmp_path)
            capsys.readouterr()
            rc = cli_main(["verify", kind, str(path), "--out", str(tmp_path / "out")])
            res = run.Result(rc, 0.0, 0.0, 0, capsys.readouterr().out, tmp_path / "out")
            assert run.FileChecks({}).verify(res, kind) is None


def test_traced_suite_full_seed7_counts_and_golden_digest(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    spans = tmp_path / "spans.json"
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, str(HERE / "tracer.py"), str(spans), "--",
         "suite", "full", "--seed", "7", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    totals = tracer.aggregate(json.loads(spans.read_text())["spans"])
    assert totals["ybe.check_braid"]["calls"] == 97
    assert totals["semibraces.Semibrace"]["calls"] == 381
    assert totals["groups.FiniteGroup"]["calls"] == 2329
    # At seed 7 this includes both golden digests.
    assert run.check_suite(run.Result(0, 0.0, 0.0, 0, proc.stdout, out), 7) is None


def test_speed_probe_samples_until_stopped():
    with run.SpeedProbe() as probe:
        run.time.sleep(10 * run.PROBE_GAP_S)
    count = len(probe.samples)
    assert count >= 3 and all(x > 0 for x in probe.samples)
    assert not probe._thread.is_alive()
    run.time.sleep(2 * run.PROBE_GAP_S)
    assert len(probe.samples) == count
