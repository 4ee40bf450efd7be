"""Acceptance battery; each test prints one CRITERION line when it holds."""

import filecmp
import hashlib
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from ybelab.braces import brace_solution, verify_skew_brace
from ybelab.bracoids import lambda_rho_identity_checks, verify_bracoid
from ybelab.catalog import promote_brace, seeded_braces
from ybelab.semibraces import (
    bracoid_to_semibrace,
    decompose,
    roundtrip_check,
    verify_semibrace,
)
from ybelab.ybe import (
    check_braid,
    conjugate_solution,
    solution_from_bracoid,
    solution_from_semibrace,
    solutions_equal,
    tilde_solution_from_bracoid,
)


def test_criterion_1_axiom_suites(catalog):
    for inst in catalog:
        started = time.perf_counter()
        if inst.brace is not None:
            assert verify_skew_brace(inst.brace.star.table,
                                     inst.brace.dot.table).ok, inst.name
        b = inst.bracoid
        assert verify_bracoid(b.G.table, b.N.table, b.act.table).ok, inst.name
        if inst.contained is not None:
            sb = bracoid_to_semibrace(inst.contained)
            assert verify_semibrace(sb.dot.table, sb.plus).ok, inst.name
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"{inst.name}: {elapsed:.2f}s"
    print("CRITERION 1 PASS")


def test_criterion_2_roundtrips_are_exact(catalog):
    for inst in catalog:
        if inst.contained is None:
            continue
        assert roundtrip_check(inst.contained), inst.name
        assert roundtrip_check(bracoid_to_semibrace(inst.contained)), inst.name
    rng = random.Random(20260814)
    for k, B in enumerate(seeded_braces(rng, 100)):
        cb = promote_brace(B)
        assert roundtrip_check(cb), f"random brace {k}"
        assert roundtrip_check(bracoid_to_semibrace(cb)), f"random brace {k}"
    print("CRITERION 2 PASS")


def test_criterion_3_lemma_battery(catalog):
    for inst in catalog:
        if inst.contained is None:
            continue
        report = lambda_rho_identity_checks(inst.bracoid.G, *inst.contained.lambda_rho)
        assert report.ok, f"{inst.name}: {report.first_failure().describe()}"
    print("CRITERION 3 PASS")


def test_criterion_4_solution_properties(catalog):
    big_scan = None
    for inst in catalog:
        if inst.contained is None:
            continue
        cb = inst.contained
        r = solution_from_bracoid(cb)
        started = time.perf_counter()
        report = check_braid(r)
        elapsed = time.perf_counter() - started
        assert report["braid"].ok and report["left-nondegenerate"].ok, inst.name
        if r.size == 168:
            big_scan = elapsed
        tilde = tilde_solution_from_bracoid(cb)
        tilde_report = check_braid(tilde)
        assert tilde_report["braid"].ok and tilde_report["right-nondegenerate"].ok, inst.name
        twisted = conjugate_solution(conjugate_solution(r, "iota"), "tau")
        assert solutions_equal(twisted, tilde), inst.name
        via = solution_from_semibrace(bracoid_to_semibrace(cb))
        assert solutions_equal(r, via), inst.name
    assert big_scan is not None and big_scan < 60.0, f"{big_scan}s"
    print("CRITERION 4 PASS")


def test_criterion_5_brace_solutions(catalog):
    seen = 0
    for inst in catalog:
        if inst.brace is None or inst.brace.order > 24:
            continue
        seen += 1
        report = check_braid(brace_solution(inst.brace))
        assert report["braid"].ok and report["bijective"].ok, inst.name
        assert report["left-nondegenerate"].ok and report["right-nondegenerate"].ok, inst.name
    assert seen >= 7
    print("CRITERION 5 PASS")


def test_criterion_6_quantities(gl3f2, cyclicpq52):
    assert gl3f2.bracoid.G.order == 168
    assert gl3f2.bracoid.S.order == 21
    assert gl3f2.contained is not None
    assert gl3f2.contained.H.order == 8
    assert cyclicpq52.bracoid.G.order == 20
    assert cyclicpq52.bracoid.S.order == 2
    assert cyclicpq52.contained is None
    print("CRITERION 6 PASS")


def test_criterion_7_semibrace_structure(catalog):
    for inst in catalog:
        if inst.contained is None:
            continue
        sb = bracoid_to_semibrace(inst.contained)
        dec = decompose(sb)
        assert dec.Epart == inst.contained.S.elements, inst.name
        assert dec.Hpart == inst.contained.H.elements, inst.name
        plus = sb.plus
        n = sb.order
        for x in range(n):
            absorbs = plus[x, 0] == 0
            idempotent = plus[x, x] == x
            listed = x in dec.Epart
            assert absorbs == idempotent == listed, (inst.name, x)
        for g in range(n):
            anchor = plus[g, 0]
            hits = [eps for eps in dec.Epart if plus[anchor, eps] == g]
            assert len(hits) == 1, (inst.name, g)
    print("CRITERION 7 PASS")


def test_criterion_8_determinism(tmp_path):
    # The child finds ybelab under src/ without an installed package.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    outs = []
    for run in ("first", "second"):
        out = tmp_path / run
        proc = subprocess.run(
            [sys.executable, "-m", "ybelab", "suite", "full",
             "--seed", "7", "--out", str(out)],
            env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outs.append(out)
    first = sorted(p.name for p in outs[0].iterdir())
    second = sorted(p.name for p in outs[1].iterdir())
    assert first == second and first
    same, different, funny = filecmp.cmpfiles(outs[0], outs[1], first,
                                              shallow=False)
    assert not different and not funny, (different, funny)
    print("CRITERION 8 PASS")


# sha256 over the artifact bytes of `suite quick --seed 7`, in sorted file name order.
QUICK_SEED_7_DIGEST = "4903cb0c26f1cf14d0dd9a963db1ee4e8e2b3e13d63a42cf04b585b67da18f61"


def test_suite_quick_seed_7_digest(tmp_path):
    """The quick suite writes the same 59 files, byte for byte, as ROADMAP's golden digest."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "ybelab", "suite", "quick", "--seed", "7", "--out", str(tmp_path)],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    names = sorted(p.name for p in tmp_path.iterdir())
    digest = hashlib.sha256(b"".join((tmp_path / name).read_bytes() for name in names))
    assert len(names) == 59
    assert digest.hexdigest() == QUICK_SEED_7_DIGEST
