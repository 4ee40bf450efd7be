"""Standing mutants: each a change to the library that one named test must catch.

Each entry of MUTANTS is (module, old, new, test).  ``old`` occurs exactly
once in src/ybelab/<module>.py (test_mutants.py checks this, so a refactor
carries its mutants along), ``new`` replaces it, and ``test`` is the pytest
id that must fail on the changed copy.  pytest does not collect this file.

    python tests/mutants.py            # every mutant, one process each

Each mutant runs on a fresh copy of the repository's src/, tests/,
perfbench/ and pyproject.toml under a temporary directory, one at a time.
The named tests are first run once on an unchanged copy, where each must
pass.  One line is printed per mutant; the exit status is 1 if any
survives.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "pyproject.toml")

MUTANTS = (
    # The (P) law xy = s_x(y) t_y(x) gathered transposed: it only chooses
    # between the carrier proof and the rack, which give the same report.
    ("ybe", "np.array_equal(gt[r.left, r.right], gt)", "np.array_equal(gt[r.right, r.left], gt)",
     "tests/test_ybe.py::test_derived_solutions_are_proved_without_a_scan"),
    # The rack's law (a) read at the points 0..|base|-1, which every s_x may fix.
    ("ybe", "for b in base)", "for b in range(len(base)))",
     "tests/test_ybe.py::test_rack_reads_law_a_on_a_base_of_the_s_group"),
    # The rack's endomorphism laws asked of the kept generators of <s_X> only.
    ("ybe", "for g in (*kept, *rack[1])", "for g in kept",
     "tests/test_ybe.py::test_rack_on_left_nondegenerate_size_3_maps_with_permutation_columns"),
    # A right nondegenerate map proved through (right.T, left), not its mirror.
    ("ybe", "_braid_from_rack(r.right_t, left.T)", "_braid_from_rack(r.right_t, left)",
     "tests/test_ybe.py::test_rack_proof_on_every_map_up_to_size_2"),
    # A braid kernel that sees no failure above n = 10.
    ("ybe", "        return bad.reshape(n, n)\n", "        return bad.reshape(n, n) & (n <= 10)\n",
     "tests/test_fast_laws.py::test_fast_check_equals_full_scan[braid]"),
    # The rows law with the product on its right-hand side swapped.
    ("checks", "nt[F, F[:, g][:, None]]", "nt[F[:, g][:, None], F]",
     "tests/test_fast_laws.py::test_fast_check_equals_full_scan[compat]"),
    # A strong left ideal no longer needs to be gamma-stable.
    ("braces", "return bool(stable and member[", "return bool(member[",
     "tests/test_braces.py::test_strong_left_ideal_needs_gamma_stability"),
    # A solution map refuses on every failing check, not only the asserted ones.
    ("ybe", "(c for c in self.report.checks if c.name in asserted)",
     "(c for c in self.report.checks)",
     "tests/test_refusals.py::test_every_small_map_is_refused_as_its_report_says"),
    # Two property names of check_braid swapped.
    ("ybe", '("braid", triple), ("bijective", collision)',
     '("bijective", triple), ("braid", collision)',
     "tests/test_ybe.py::test_the_report_is_five_checks_in_order_each_with_its_witness"),
    # `verify solution` asserting every property, not only the named ones.
    ("cli", "named = check.name in asserted", "named = True",
     "tests/test_ybe.py::test_verify_solution_file_is_proved_with_the_scan_report"),
    # The facts that stand for deleted checks.  The twist on H without the
    # inverse of x (+) e: gammaH is no longer the brace's gamma.
    ("bracoids", "N.table[N.inv[act[:, 0]][:, None], act[:, bij]]",
     "N.table[act[:, 0][:, None], act[:, bij]]",
     "tests/test_bracoids.py::test_the_twist_on_h_is_the_brace_gamma"),
    # The action on H-positions left on points, not conjugated by bij.
    ("bracoids", "self.actH = frozen(bijinv[act[:, bij]])", "self.actH = frozen(act[:, bij])",
     "tests/test_bracoids.py::test_the_transported_action_is_an_action"),
    # A closure whose later elements meet only the last generator: a
    # complement built from it is not closed.
    ("checks", "            for h in joined:\n", "            for h in joined[-1:]:\n",
     "tests/test_complements.py::test_regular_subgroups_of_holomorphs_match_the_oracle[C4]"),
    # gamma-stability asked of gamma_x for x in S only.
    ("braces", "stable = member[B.gamma[:, sel]].all()",
     "stable = member[B.gamma[sel][:, sel]].all()",
     "tests/test_braces.py::test_a_gamma_stable_dot_subgroup_is_a_star_subgroup"),
    # A twist entry of -1 reaches the table proof as an index from the end.
    ("groups", "if not ((alpha >= 0) & (alpha < H.order)).all():",
     "if not (alpha < H.order).all():",
     "tests/test_groups.py::"
     "test_semidirect_product_is_a_group_exactly_when_the_old_checks_pass"),
    # The displacement pair returned in the wrong order.
    ("bracoids", "    return lam, rho\n", "    return rho, lam\n",
     "tests/test_bracoids.py::test_lambda_is_plain_position_for_a_trivial_brace"),
    # A catalog instance that never searched for its contained brace.
    ("catalog", "self._fill(name, params, brace, bracoid, contains_brace(bracoid))",
     "self._fill(name, params, brace, bracoid, None)",
     "tests/test_bracoids.py::test_contains_brace_catalog_answers"),
    # The cyclic-pq quantities step reading |N| for |S|.
    ("cli", "got = (inst.bracoid.G.order, inst.bracoid.S.order)",
     "got = (inst.bracoid.G.order, inst.bracoid.N.order)",
     "tests/test_cli.py::test_suite_quick_is_green"),
)


def _copy(dest: Path) -> None:
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(src, dest / name)


def _pytest(tree: Path, *tests: str) -> int:
    """The exit status of pytest on tests, run in tree on tree's own src/.

    The "kill" profile of tests/conftest.py skips hypothesis's shrinking: a
    mutant is killed by the first failure, whatever its size.
    """
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--hypothesis-profile=kill", *tests],
        cwd=tree, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        clean = Path(tmp) / "clean"
        _copy(clean)
        status = _pytest(clean, *sorted({m[3] for m in MUTANTS}))
        if status != 0:
            print(f"the named tests do not all pass on an unchanged copy (pytest exit {status})")
            return 2
        survivors = 0
        for k, (module, old, new, test) in enumerate(MUTANTS):
            tree = Path(tmp) / f"m{k}"
            _copy(tree)
            path = tree / "src" / "ybelab" / f"{module}.py"
            text = path.read_text()
            if text.count(old) != 1:
                print(f"MISSING {module}: {old!r} does not occur exactly once")
                survivors += 1
                continue
            path.write_text(text.replace(old, new))
            # pytest exits 1 when a test failed; any other status (no such
            # test, a collection error) is not a kill.
            killed = _pytest(tree, test) == 1
            survivors += not killed
            print(f"{'killed ' if killed else 'SURVIVED'} {module}: {old!r} -> {new!r} by {test}")
            shutil.rmtree(tree)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} killed "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
