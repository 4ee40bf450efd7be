"""Standing mutants: each a change to the library that one named test must catch.

Each entry of MUTANTS is (module, old, new, test).  ``old`` occurs exactly
once in src/ybelab/<module>.py (test_mutants.py checks this, so a refactor
carries its mutants along), ``new`` replaces it, and ``test`` is the pytest
id that must fail on the changed copy.  pytest does not collect this file.

    python tests/mutants.py            # every mutant, one forked child each

Each mutant runs on a fresh copy of the repository's src/, tests/,
perfbench/ and pyproject.toml under a temporary directory, one at a time,
in a child forked from this process.  numpy, pytest and hypothesis are
imported here once, before the first fork, so no child imports them
again; ybelab and the tests are imported in each child alone, from its
own copy.  The named tests are first run once on an unchanged copy, where
each must pass.  One line is printed per mutant; the exit status is 1 if
any survives.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

import hypothesis  # noqa: F401  (imported once here, so no forked child imports it)
import numpy  # noqa: F401
import pytest

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
    # A witness scan that sees no failure above n = 10.
    ("checks", "    for x in range(nx):\n", "    for x in range(nx if nx <= 10 else 0):\n",
     "tests/test_fast_laws.py::test_fast_check_equals_full_scan[braid]"),
    # A witness scan that names (x, z, y) for (x, y, z).
    ("checks", "return x, y0, z0", "return x, z0, y0",
     "tests/test_checks.py::test_nonassociative_loop_witness_matches_brute_force"),
    # The brace law stated without the star inverse x^{-*}.
    ("braces", "st[st[dt[x, y], sinv[x]], dt[x, z]]", "st[dt[x, y], dt[x, z]]",
     "tests/test_braces.py::test_coupling_oracle_agrees_with_constructor"),
    # The braid relation stated on its first two coordinates only.
    ("ybe", "return (a != p) | (b != s) | (c != q)", "return (a != p) | (b != s)",
     "tests/test_ybe.py::test_multiplication_map_fails_the_braid_relation"),
    # The coupling law stated with x (+) e for its star inverse.
    ("bracoids", "ninv[act[x, 0]]", "act[x, 0]",
     "tests/test_bracoids.py::test_law_violation_is_caught_with_witness"),
    # The semibrace relation stated with x for x^-1.
    ("semibraces", "plus[dinv[x], z]", "plus[x, z]",
     "tests/test_semibraces.py::test_relation_oracle_matches_verify_witness"),
    # The product rule stated with rho_x(y) for rho_y(x).
    ("bracoids", "gt[lam[x, y], lam[rho[y, x], z]]", "gt[lam[x, y], lam[rho[x, y], z]]",
     "tests/test_displacement.py::test_a_passing_proof_leaves_its_statement_nothing_to_find"),
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
    # The complement search without its coset-collision test: a subgroup
    # meeting S outside 0 is reported as a complement.
    ("groups", "len({point[k] for k in child}) == len(child)", "True",
     "tests/test_complements.py::test_regular_subgroups_of_holomorphs_match_the_oracle[C4xC2]"),
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
    # A block read back with its parse cut to the rows' size: an extra entry passes.
    ("files", "np.array_equal(values, rows.ravel())",
     "np.array_equal(values[:rows.size], rows.ravel())",
     "tests/test_files.py::test_a_block_that_does_not_read_as_its_rows"),
    # A block read back by its values alone: a row broken in two lines passes.
    ("files", 'block.encode().translate(None, b"-0123456789") == seps.tobytes()', "True",
     "tests/test_cli.py::test_a_broken_block_printer_fails_its_write_step"),
    # An artifact's header checked on its counts only, not its tail.
    ("files", 'rest == ([] if fmt.tail is None else tail.split(" "))', "True",
     "tests/test_files.py::test_save_checks_the_header_and_each_block_against_what_it_printed"),
    # The reader's walk without its end-of-text test: trailing text reads as canonical.
    ("files", "(tables, tail) if at == len(text) else None", "(tables, tail)",
     "tests/test_files.py::test_a_trailing_blank_line_is_not_canonical"),
    # The one table reader handing a file's tables back in reverse order.
    ("files", "[frozen(table) for table in tables]", "[frozen(table) for table in tables[::-1]]",
     "tests/test_files.py::test_bracoid_roundtrip"),
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
    """The exit status of pytest on tests, run in tree on tree's own src/ by
    a forked child, whose output is discarded.

    pytest puts tree's src/ first on the child's path, and this process
    imported no ybelab.  The "kill" profile of tests/conftest.py skips
    hypothesis's shrinking: a mutant is killed by the first failure,
    whatever its size.  --assert=plain: rewriting asserts would mark
    hypothesis's plugin for rewriting, which this process already imported,
    and pytest's warning of that is an error under pyproject.toml.
    """
    sys.stdout.flush()
    pid = os.fork()
    if pid == 0:
        status = 3
        try:
            os.chdir(tree)
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, 1)
            os.dup2(null, 2)
            status = int(pytest.main(["-q", "-x", "-p", "no:cacheprovider", "--assert=plain",
                                      "--hypothesis-profile=kill", *tests]))
        finally:
            os._exit(status)
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


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
