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
    # between the carrier proof and the scan, which give the same report.
    ("ybe", "np.array_equal(gt[r.left, r.right], gt)", "np.array_equal(gt[r.right, r.left], gt)",
     "tests/test_ybe.py::test_derived_solutions_are_proved_without_a_scan"),
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
)


def _copy(dest: Path) -> None:
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(src, dest / name)


def _pytest(tree: Path, *tests: str) -> int:
    """The exit status of pytest on tests, run in tree on tree's own src/."""
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
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
