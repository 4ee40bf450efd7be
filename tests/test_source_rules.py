"""Rules on the library source that no behavioural test would notice breaking."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import ybelab

SOURCES = sorted(Path(ybelab.__file__).parent.glob("*.py"))


def test_library_raises_no_assertion_errors():
    """`assert` vanishes under `python -O` and an AssertionError escapes the
    CLI as a traceback; a derived construction that breaks a law raises
    AxiomViolated (exit 3)."""
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert) or (
                    isinstance(node, ast.Name) and node.id == "AssertionError"):
                found.append(f"{path.name}:{node.lineno}")
    assert SOURCES and not found, found


def test_no_library_call_passes_trusted():
    """Every table the library builds is proved a group, associativity
    included: `FiniteGroup(trusted=True)` is for the benchmark's corrupted
    input writer alone, so no call in the library passes `trusted`."""
    found = [f"{path.name}:{node.lineno}" for path, tree in _trees() for node in ast.walk(tree)
             if isinstance(node, ast.keyword) and node.arg == "trusted"]
    assert not found, found


def _trees():
    return [(path, ast.parse(path.read_text(), filename=str(path))) for path in SOURCES]


def _is_memo(decorator) -> bool:
    return (isinstance(decorator, ast.Name) and decorator.id == "by_content") or (
        isinstance(decorator, ast.Attribute) and decorator.attr == "by_content")


MEMOISED = {"checks._group_proof", "checks.generators", "checks._action_law_holds",
            "checks._rows_law_holds", "checks._first_repeat", "semibraces._split",
            "semibraces._relation_holds"}
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
    checks.by_content, whose hits are proved on exact contents and which is
    bounded in keys and held bytes."""
    found = []
    for path, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                found += [f"{path.name}:{node.lineno}" for alias in node.names
                          if alias.name in ("cache", "lru_cache")]
            elif isinstance(node, ast.Attribute) and node.attr in ("cache", "lru_cache"):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_only_checks_frozen_freezes_a_table():
    """A table is made immutable in one place, `checks.frozen`, whose views
    the constructors adopt and the memo keys by identity; no other code sets
    array flags, or reads an array's `.base` to reason about its owner."""
    found = []
    for path, tree in _trees():
        inside = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and f"{path.stem}.{node.name}" == "checks.frozen":
                inside = {id(inner) for inner in ast.walk(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and (
                    node.attr == "base" or (node.attr == "setflags" and id(node) not in inside)):
                found.append(f"{path.name}:{node.lineno} .{node.attr}")
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


def _imported_packages(tree) -> set[str]:
    """The top-level names of the modules a tree imports (relative imports give '')."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
    return {name.split(".")[0] for name in names}


def test_only_catalog_and_cli_import_random():
    importers = {path.stem for path, tree in _trees() if "random" in _imported_packages(tree)}
    assert importers == RANDOM_IMPORTERS


def test_no_module_imports_dataclasses():
    """A dataclass generates its methods at import, in every process; the
    records are plain classes on `checks.Record` instead."""
    importers = [path.stem for path, tree in _trees() if "dataclasses" in _imported_packages(tree)]
    assert not importers


def test_every_process_entry_is_cli_run():
    """`python -m ybelab`, the installed `ybe-lab` script and `python -m
    ybelab.cli` all start in `cli.run`, the one entry that freezes the
    import heap."""
    tomllib = pytest.importorskip("tomllib")
    project = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(project.read_text())["project"]["scripts"]
    assert scripts == {"ybe-lab": "ybelab.cli:run"}
    trees = {path.name: tree for path, tree in _trees()}
    main_calls = [ast.unparse(node) for node in trees["__main__.py"].body]
    assert main_calls == ["from .cli import run", "run()"]
    guard = trees["cli.py"].body[-1]
    assert ast.unparse(guard.test) == "__name__ == '__main__'"
    assert [ast.unparse(node) for node in guard.body] == ["run()"]


# Definitions that nothing in the library runs, each kept for a test that
# checks a statement of the paper or a planned item through it.
UNCALLED_BY_DESIGN = {
    "ybe.restrict_solution": "the restrictions of the bracoid solution to H and to S",
    "braces.regular_rep_in_holomorph": "the skew brace census of ROADMAP item 4 reads it backwards",
    "files.read_action": "the reader of the holomorph-action.txt artifact the CLI writes",
}


def _named(node) -> Counter:
    """How often each identifier is read in node, as a name or an attribute."""
    return Counter(inner.id if isinstance(inner, ast.Name) else inner.attr
                   for inner in ast.walk(node) if isinstance(inner, (ast.Name, ast.Attribute)))


def _definitions(tree):
    """(dotted name, node) for each module-level function and class, and each
    method or property of such a class that is not a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if (isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (member.name.startswith("__") and member.name.endswith("__"))):
                    yield f"{node.name}.{member.name}", member


def test_every_library_definition_has_a_caller():
    """Each definition is named somewhere in the library outside its own body,
    or in a benchmark module; the re-exports of __init__.py do not count, and
    they are exactly the names __init__.py imports."""
    trees = _trees()
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    names = Counter()
    for path, tree in trees:
        if path.name != "__init__.py":
            names += _named(tree)
    for path in sorted(bench.glob("*.py")):
        if not path.name.startswith("test_"):
            names += _named(ast.parse(path.read_text(), filename=str(path)))
    uncalled = []
    for path, tree in trees:
        for name, node in _definitions(tree):
            short = name.rsplit(".", 1)[-1]
            if names[short] == _named(node)[short]:
                uncalled.append(f"{path.stem}.{name}")
    assert sorted(uncalled) == sorted(UNCALLED_BY_DESIGN)
    init = next(tree for path, tree in trees if path.name == "__init__.py")
    imported = [alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert sorted(ybelab.__all__) == sorted(imported)


# The functions that may name check_braid.  A derived map is proved once, by
# its constructor, which reads SolutionMap.report; a second proof of it has
# to be listed here on purpose.  The two suite batteries re-check maps that
# their constructors proved: they are pin-bound, kept only because the exact
# `check_braid` count in perfbench/test_perfbench.py includes their calls, and
# ROADMAP item 17 removes them after item 1a turns the pins into data.
CHECK_BRAID_CALLERS = {
    "ybe.SolutionMap.report",           # the one proof of a map
    "cli._battery_solutions",           # pin-bound re-check
    "cli._battery_brace_solutions",     # pin-bound re-check
}


def test_only_listed_functions_call_check_braid():
    callers = {f"{path.stem}.{name}" for path, tree in _trees()
               for name, node in _definitions(tree)
               if not isinstance(node, ast.ClassDef) and _named(node)["check_braid"]}
    assert callers == CHECK_BRAID_CALLERS


def test_np_unique_is_always_asked_for_indices():
    """np.unique asked for no indices or counts imports numpy.ma to look for a
    mask, about 10 ms in each process; checks._distinct gives the same values."""
    bare = []
    for path, tree in _trees():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "unique"
                    and not {kw.arg for kw in node.keywords}
                    & {"return_index", "return_inverse", "return_counts"}):
                bare.append(f"{path.name}:{node.lineno}")
    assert not bare, bare
