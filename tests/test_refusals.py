"""Each constructor refuses exactly the input its verifier reports failing.

`SkewBrace`, `SkewBracoid`, `GroupAction` and `Semibrace` raise the first
failing check of the list that `verify_skew_brace`, `verify_bracoid`,
`groups._action_checks` and `verify_semibrace` report (`checks.refuse`),
and `SolutionMap(..., asserted=names)` the first failing named check of
`check_braid`.
So on every input the constructor builds exactly when the report passes,
and otherwise raises the class mapped from the report's first failing
check, with that check's describe() as the message.  A group table is
proved by `FiniteGroup` before the constructor runs, and it raises its own
check, which the report names with a prefix.  Inputs are the instances of
the differential tests, relabelled, the catalog, and seeded one-entry
changes of each table; for `SolutionMap`, every map of size at most 2 and
the catalog's derived maps with seeded one-entry changes.
"""

from itertools import product

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from test_fast_laws import FAST, bases, poke, pool, relabelled, rngs, swap_labels
from ybelab.braces import AxiomViolated, SkewBrace, brace_solution, verify_skew_brace
from ybelab.bracoids import NotTransitive, SkewBracoid, verify_bracoid
from ybelab.checks import Check, adopted
from ybelab.groups import (FiniteGroup, GroupAction, NoIdentity, NotAssociative, NotLatinSquare,
                           _action_checks)
from ybelab.semibraces import Semibrace, bracoid_to_semibrace, verify_semibrace
from ybelab.ybe import (SolutionMap, check_braid, solution_from_bracoid, solution_from_semibrace,
                        tilde_solution_from_bracoid)

GROUP_ERRORS = {"latin": NotLatinSquare, "identity": NoIdentity}


def outcome(build) -> tuple[type, str] | None:
    """(class, message) of the ValueError that build() raises, or None if it returns."""
    try:
        build()
    except ValueError as exc:
        return type(exc), str(exc)
    return None


def expected(report, prefixes, errors, default, lead="") -> tuple[type, str] | None:
    """(class, message) a constructor must raise for report, or None if it passes.

    A first failure under one of prefixes is a group check, which
    FiniteGroup raises under its own name, with no lead.
    """
    first = report.first_failure()
    if first is None:
        return None
    for prefix in prefixes:
        if first.name.startswith(prefix):
            own = Check(first.name[len(prefix):], False, first.witness, first.detail)
            return GROUP_ERRORS.get(own.name, NotAssociative), own.describe()
    return errors.get(first.name, default), lead + first.describe()


def check_brace(s, d):
    assert outcome(lambda: SkewBrace(FiniteGroup(s), FiniteGroup(d))) == expected(
        verify_skew_brace(s, d), ("star.", "dot."), {"same-order": ValueError}, AxiomViolated)


def check_bracoid(g, n, act):
    assert outcome(lambda: SkewBracoid(FiniteGroup(g), FiniteGroup(n), act)) == expected(
        verify_bracoid(g, n, act), ("G.", "N."),
        {"action.transitive": NotTransitive, "compat": AxiomViolated}, ValueError)


def check_action(g, act):
    """g is a group table; act is refused at the first failing check of its width."""
    G, arr = FiniteGroup(g), adopted(act)
    failing = [c for c in _action_checks(G.table, arr, arr.shape[1]) if not c.ok]
    assert outcome(lambda: GroupAction(G, act)) == (
        (ValueError, failing[0].describe()) if failing else None)


def check_semibrace(g, plus):
    assert outcome(lambda: Semibrace(FiniteGroup(g), plus)) == expected(
        verify_semibrace(g, plus), ("dot.",), {}, AxiomViolated, "semibrace law failed: ")


def out_of_range(table: np.ndarray, rng) -> np.ndarray:
    """The table with one entry set to its width, one past the largest point."""
    out = table.copy()
    out[tuple(int(rng.integers(s)) for s in table.shape)] = table.shape[1]
    return out


def moved_identity(act: np.ndarray) -> np.ndarray:
    """act with its identity row replaced by a rotation of the points."""
    out = act.copy()
    out[0] = np.roll(np.arange(act.shape[1]), 1)
    return out


def cases(i, o, rng) -> list[tuple]:
    """(checker, tables) for one instance i, another o, and seeded changes."""
    m = i.act.shape[1]
    acts = [i.act, poke(i.act, rng), out_of_range(i.act, rng), moved_identity(i.act),
            rng.integers(0, m, i.act.shape), np.tile(np.arange(m), (len(i.g), 1))]
    return [
        *((check_brace, t) for t in (
            (i.star, i.g), (poke(i.star, rng), i.g), (i.star, poke(i.g, rng)),
            (swap_labels(i.star, rng), i.g), (i.g, i.star), (o.star, i.g),
            (out_of_range(i.star, rng), i.g))),
        *((check_bracoid, (i.g, i.n, act)) for act in acts),
        *((check_bracoid, t) for t in (
            (poke(i.g, rng), i.n, i.act), (i.g, poke(i.n, rng), i.act),
            (i.g, swap_labels(i.n, rng), i.act), (i.g, i.n, i.act[:, :-1]),
            (i.g, i.n, i.act[:-1]), (o.g, i.n, i.act))),
        *((check_action, (i.g, act)) for act in (*acts, i.act[:, :-1], i.act[:-1])),
        *((check_semibrace, t) for t in (
            (i.g, i.plus), (i.g, poke(i.plus, rng)), (poke(i.g, rng), i.plus),
            (i.g, swap_labels(i.plus, rng)), (i.g, out_of_range(i.plus, rng)),
            (i.g, i.star), (o.g, i.plus))),
    ]


@FAST
@given(base=bases, small=st.integers(0, 5), rng=rngs)
def test_constructors_refuse_as_their_verifiers_report(base, small, rng):
    for checker, tables in cases(relabelled(base, rng), relabelled(pool()[small], rng), rng):
        checker(*tables)


def test_catalog_refusals_match_the_reports(catalog):
    """Every catalog structure passes both ways, and each of three seeded
    one-entry changes of one of its tables (for an action, of the action)
    passes or fails both ways alike."""
    rng = np.random.default_rng(33)
    for inst in catalog:
        bc = inst.bracoid
        sets = [(check_bracoid, (bc.G.table, bc.N.table, bc.act.table)),
                (check_action, (bc.G.table, bc.act.table))]
        if inst.brace is not None:
            sets.append((check_brace, (inst.brace.star.table, inst.brace.dot.table)))
        if inst.contained is not None:
            cb = inst.contained.brace
            sets.append((check_brace, (cb.star.table, cb.dot.table)))
            sb = bracoid_to_semibrace(inst.contained)
            sets.append((check_semibrace, (sb.dot.table, sb.plus)))
        for checker, tables in sets:
            checker(*tables)
            for _ in range(3):
                k = 1 if checker is check_action else int(rng.integers(len(tables)))
                checker(*(poke(t, rng) if j == k else t for j, t in enumerate(tables)))


PROPERTIES = ("braid", "bijective", "involutive", "left-nondegenerate", "right-nondegenerate")


def derived_maps(catalog) -> list:
    """The four maps derived from each catalog bracoid that contains a brace."""
    return [r for inst in catalog if inst.contained is not None
            for r in (brace_solution(inst.contained.brace),
                      solution_from_semibrace(bracoid_to_semibrace(inst.contained)),
                      solution_from_bracoid(inst.contained),
                      tilde_solution_from_bracoid(inst.contained))]


def check_solution(left, right, asserted, provenance="test", carrier=None):
    """For each tuple of names, the map builds exactly when each named check
    of its report passes, else raises the first failing one in report order."""
    report = check_braid(SolutionMap(left, right, carrier=carrier))
    for names in asserted:
        failing = [c for c in report.checks if c.name in names and not c.ok]
        assert outcome(lambda: SolutionMap(left, right, provenance, carrier, names)) == (
            (AxiomViolated, f"{provenance} map fails: {failing[0].describe()}")
            if failing else None), names


def asserted_tuples(catalog) -> list[tuple[str, ...]]:
    """Each single property, and each tuple the library's derived maps assert."""
    library = sorted({r.asserted for r in derived_maps(catalog)})
    assert len(library) == 3
    return [(p,) for p in PROPERTIES] + library


def test_every_small_map_is_refused_as_its_report_says(catalog):
    asserted = asserted_tuples(catalog)
    for n in (0, 1, 2):
        tables = [np.array(t, dtype=np.int32).reshape(n, n)
                  for t in product(range(n), repeat=n * n)]
        for left, right in product(tables, repeat=2):
            check_solution(left, right, asserted)


def test_derived_maps_and_their_changes_are_refused_as_their_reports_say(catalog):
    """Each derived map passes what it asserts; three seeded one-entry
    changes of one of its tables, carrier kept, are judged by their report."""
    asserted = asserted_tuples(catalog)
    rng = np.random.default_rng(34)
    for r in derived_maps(catalog):
        check_solution(r.left, r.right, asserted, r.provenance, r.carrier)
        for _ in range(3):
            tables = [r.left, r.right]
            k = int(rng.integers(2))
            tables[k] = poke(tables[k], rng)
            check_solution(*tables, asserted, r.provenance, r.carrier)


def test_an_asserted_name_that_is_no_check_is_refused_as_input():
    """A misspelt property asserts nothing, so the map is not built: the flip
    map passes all five checks, and still "left_nondegenerate" is refused."""
    flip = np.array([[0, 1], [0, 1]]), np.array([[0, 0], [1, 1]])
    assert check_braid(SolutionMap(*flip)).ok
    for names in (("left_nondegenerate",), ("braid", "nondegenerate")):
        kind, message = outcome(lambda: SolutionMap(*flip, "test", None, names))
        assert kind is ValueError and message.startswith(f"asserted {[names[-1]]} "), message
