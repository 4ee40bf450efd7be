"""Rules on the library source that no behavioural test would notice breaking."""

import ast
from pathlib import Path

import ybelab

SOURCES = sorted(Path(ybelab.__file__).parent.glob("*.py"))


def test_library_raises_no_assertion_errors():
    """`assert` vanishes under `python -O` and an AssertionError escapes the
    CLI as a traceback; a broken invariant raises InternalError (exit 3)."""
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert) or (
                    isinstance(node, ast.Name) and node.id == "AssertionError"):
                found.append(f"{path.name}:{node.lineno}")
    assert SOURCES and not found, found


def _trees():
    return [(path, ast.parse(path.read_text(), filename=str(path))) for path in SOURCES]


def _is_memo(decorator) -> bool:
    return (isinstance(decorator, ast.Name) and decorator.id == "by_content") or (
        isinstance(decorator, ast.Attribute) and decorator.attr == "by_content")


MEMOISED = {"checks.group_table_checks", "checks.generators", "checks._action_law_holds",
            "checks._rows_law_holds", "semibraces._split"}
IMPURE = {"random", "rng", "seed"}


def test_memoised_kernels_are_the_pure_law_kernels():
    """A memoised result must be a function of the argument contents alone:
    no randomness, no seed and no state reached through global or nonlocal.
    Constructors, brute scans and check_braid are not memoised."""
    memoised, impure = set(), []
    for path, tree in _trees():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not any(map(_is_memo, node.decorator_list)):
                continue
            name = f"{path.stem}.{node.name}"
            memoised.add(name)
            for inner in ast.walk(node):
                if (isinstance(inner, (ast.Global, ast.Nonlocal))
                        or (isinstance(inner, ast.Name) and inner.id in IMPURE)
                        or (isinstance(inner, ast.Attribute) and inner.attr in IMPURE)
                        or (isinstance(inner, ast.arg) and inner.arg in IMPURE)):
                    impure.append(f"{name}:{inner.lineno}")
    assert memoised == MEMOISED
    assert not impure, impure


def test_only_checks_decides_what_is_cached():
    """functools.cache and lru_cache stay out of the library: the one memo is
    checks.by_content, keyed by exact contents and bounded in table size."""
    found = []
    for path, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                found += [f"{path.name}:{node.lineno}" for alias in node.names
                          if alias.name in ("cache", "lru_cache")]
            elif isinstance(node, ast.Attribute) and node.attr in ("cache", "lru_cache"):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


# The functions that may call generators(...).  A law proved on generators
# is the action law or the rows law and goes through its kernel in checks;
# a new reduction of its own has to be listed here on purpose.
GENERATOR_LOOPS = {
    "checks._action_law_holds",         # the action law
    "checks._rows_law_holds",           # the endomorphism-rows law
    "groups.automorphism_group",        # a map is fixed by its images of generators
}


def test_only_listed_functions_loop_over_generators():
    callers = set()
    for path, tree in _trees():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for inner in ast.walk(node):
                func = getattr(inner, "func", None)
                if isinstance(inner, ast.Call) and (
                        getattr(func, "id", None) == "generators"
                        or getattr(func, "attr", None) == "generators"):
                    callers.add(f"{path.stem}.{node.name}")
    assert callers == GENERATOR_LOOPS


# The modules that may draw random numbers: the seeded catalog search and the
# CLI that seeds it.  A law module decides on every input, never on a sample.
RANDOM_IMPORTERS = {"catalog", "cli"}


def test_only_catalog_and_cli_import_random():
    importers = set()
    for path, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "random" for name in names):
                importers.add(path.stem)
    assert importers == RANDOM_IMPORTERS
