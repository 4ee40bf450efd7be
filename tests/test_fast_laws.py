"""Differential tests: each generator-reduced law check against its law's statement.

Each triple law is stated once in the library, as a module-level
`*_fails(*tables, x, y, z)`, and that statement is the oracle here: read on
the whole grid at once (grid.py), it gives the first failing triple.  Every
fast check must agree with it on pass/fail and on the first counterexample,
and each statement at one triple must agree with its broadcast x-slice.
Inputs are catalog structures under random relabellings, the same with one
table entry changed, random loops, random action tables and random
Yang-Baxter maps.  The report-level tests run each verifier twice, once
with the fast checks and once with the grid scans of the statements patched
in, and require identical reports.  The braid relation proved from a
carrier's group laws is held to the scan of the same map with no carrier.
Each kernel memoised by content must answer as the kernel it wraps, on
fresh and on repeated contents.  The facts of the semibrace split that
`decompose` proves rather than checks hold on every semibrace built here.
"""

import random
from collections import Counter
from contextlib import ExitStack
from dataclasses import dataclass
from functools import cache
from itertools import permutations, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ybelab import braces, bracoids, checks, groups, semibraces, ybe
from ybelab.catalog import (abelianmap_instance, promote_brace, seeded_braces, semidirect_instance,
                            trivial_brace_instance)
from ybelab.checks import closure
from ybelab.groups import FiniteGroup, cyclic_group, elementary_abelian
from ybelab.semibraces import Semibrace, bracoid_to_semibrace, decompose

from grid import failing_mask, first_failing

FAST = settings(max_examples=60, deadline=None)


@dataclass(frozen=True)
class Base:
    g: np.ndarray        # acting group, also the brace's dot group
    star: np.ndarray
    n: np.ndarray        # point group
    act: np.ndarray
    plus: np.ndarray


@cache
def instances() -> tuple:
    return (trivial_brace_instance((4,)), trivial_brace_instance((3, 2)),
            semidirect_instance(3, 2), semidirect_instance(5, 2),
            semidirect_instance(7, 3), abelianmap_instance(3, 5))


@cache
def pool() -> tuple[Base, ...]:
    return tuple(Base(i.bracoid.G.table, i.brace.star.table, i.bracoid.N.table,
                      i.bracoid.act.table, bracoid_to_semibrace(i.contained).plus)
                 for i in instances())


bases = st.integers(0, 5).map(lambda k: pool()[k])
rngs = st.integers(0, 2**32 - 1).map(np.random.default_rng)


def fixing_zero(rng, size: int) -> np.ndarray:
    return np.concatenate(([0], 1 + rng.permutation(size - 1)))


def relabel(table: np.ndarray, rows: np.ndarray, cols: np.ndarray,
            values: np.ndarray) -> np.ndarray:
    """out[rows[a], cols[b]] = values[table[a, b]]."""
    return values[table[np.ix_(np.argsort(rows), np.argsort(cols))]]


def relabelled(base: Base, rng) -> Base:
    pg = fixing_zero(rng, base.g.shape[0])
    pn = fixing_zero(rng, base.n.shape[0])
    on_g = lambda t: relabel(t, pg, pg, pg)
    return Base(on_g(base.g), on_g(base.star), relabel(base.n, pn, pn, pn),
                relabel(base.act, pg, pn, pn), on_g(base.plus))


def poke(table: np.ndarray, rng) -> np.ndarray:
    """The table with one entry changed to another in-range value."""
    out = table.copy()
    i, j = (int(rng.integers(s)) for s in table.shape)
    out[i, j] = (out[i, j] + 1 + rng.integers(max(1, table.shape[1] - 1))) % table.shape[1]
    return out


def swap_labels(table: np.ndarray, rng) -> np.ndarray:
    """The table relabelled by a transposition fixing 0: a group stays a group."""
    m = table.shape[0]
    sigma = np.arange(m)
    if m > 2:
        i, j = 1 + rng.choice(m - 1, 2, replace=False)
        sigma[[i, j]] = sigma[[j, i]]
    return relabel(table, sigma, sigma, sigma)


def random_loop(rng, n: int) -> np.ndarray:
    """A random Latin square, made into a loop with identity 0 by isotopy."""
    sq = -np.ones((n, n), dtype=np.int64)

    def fill(k: int) -> bool:
        if k == n * n:
            return True
        i, j = divmod(k, n)
        used = set(sq[i, :j].tolist()) | set(sq[:i, j].tolist())
        for v in rng.permutation(n):
            if int(v) not in used:
                sq[i, j] = v
                if fill(k + 1):
                    return True
        sq[i, j] = -1
        return False

    fill(0)
    # x o y = sq[rho^-1(x), lam^-1(y)] with rho = column 0, lam = row 0;
    # its identity is e = sq[0, 0], which a swap with 0 moves to index 0.
    loop = sq[np.ix_(np.argsort(sq[:, 0]), np.argsort(sq[0]))]
    e = int(sq[0, 0])
    sigma = np.arange(n)
    sigma[[0, e]] = sigma[[e, 0]]
    return relabel(loop, sigma, sigma, sigma)


def group(table: np.ndarray) -> FiniteGroup:
    return FiniteGroup(table)


def greedy_by_closure(table: np.ndarray) -> tuple[int, ...]:
    """The generating list as first defined: recompute the closure per pick."""
    gens: list[int] = []
    closed = {0}
    while len(closed) < table.shape[0]:
        gens.append(next(i for i in range(table.shape[0]) if i not in closed))
        closed = set(closure(table, gens))
    return tuple(gens)


# --- each law's statement read on its whole grid ---

def action_scan(gt, act):
    """First (g, h, p) with (g*h).p != g.(h.p)."""
    return first_failing(checks._action_law_fails, (gt, act), (*gt.shape, act.shape[1]))


def assoc_scan(table):
    """First (a, b, c) with (a*b)*c != a*(b*c)."""
    return action_scan(table, table)


def compat_scan(star, dot, gamma=None):
    """First (x, y, z) breaking x.(y*z) = (x.y) * x^{-*} * (x.z); gamma is not read."""
    return first_failing(braces._brace_law_fails, (star.table, dot.table, star.inv),
                         (star.order,) * 3)


def coupling_scan(N, act):
    """First (x, eta, mu) breaking the coupling law."""
    return first_failing(bracoids._coupling_fails, (N.table, N.inv, act),
                         (len(act), N.order, N.order))


def relation_scan(dot, plus):
    """First (x, y, z) breaking x.(y+z) = x.y + x.(x^-1 + z)."""
    return first_failing(semibraces._relation_fails, (dot.table, dot.inv, plus),
                         (dot.order,) * 3)


def brute_gamma(star, dot):
    """gamma_x(y) = x^{-*} * (x.y), entry by entry, x^{-*} found in the star table."""
    st, gamma = star.table, np.empty_like(dot.table)
    for x in range(star.order):
        xinv = int(np.flatnonzero(st[x] == 0)[0])
        for y in range(star.order):
            gamma[x, y] = st[xinv, dot.table[x, y]]
    return gamma


def coupling_rows(N: FiniteGroup, act) -> np.ndarray:
    """f[x, eta] = (x (+) e)^{-*} * (x (+) eta), whose rows law is the coupling law."""
    return N.table[N.inv[act[:, 0]][:, None], act]


# (module, name, oracle): each generator-reduced check that a verify_* report
# reads, in the module whose global the report looks up, and its grid scan.
ORACLES = ((checks, "_assoc_failure", assoc_scan),
           (semibraces, "_assoc_failure", assoc_scan),
           (groups, "_action_law_failure", action_scan),
           (braces, "_compat_failure", compat_scan),
           (bracoids, "_eq2_failure", coupling_scan),
           (semibraces, "_relation_failure", relation_scan))


def brute_oracles(calls: Counter | None = None) -> ExitStack:
    """Patch the generator-reduced checks of the verify_* reports with grid
    scans, counting each oracle's runs in calls under "module.name"."""
    stack = ExitStack()
    calls = Counter() if calls is None else calls
    for module, name, oracle in ORACLES:
        def counted(*args, key=f"{module.__name__}.{name}", oracle=oracle):
            calls[key] += 1
            return oracle(*args)
        stack.enter_context(mock.patch.object(module, name, counted))
    # _group_proof calls _assoc_failure inside its memo, which would answer
    # with the fast check's report; run it afresh, and forget what it
    # learns under the patch.
    stack.enter_context(mock.patch.dict(checks._group_proof.memo, clear=True))
    return stack


# --- the generating list ---

@FAST
@given(rngs, st.integers(1, 12))
def test_generators_match_the_closure_definition(rng, n):
    table = rng.integers(0, n, (n, n))
    gens = checks.generators(table)
    assert gens == greedy_by_closure(table)
    assert sorted(closure(table, gens)) == list(range(n))


@FAST
@given(bases, rngs)
def test_generators_of_relabelled_groups(base, rng):
    for table in (relabelled(base, rng).g, relabelled(base, rng).plus):
        assert checks.generators(table) == greedy_by_closure(table)


# --- one law at a time ---

# Each check also holds the kernel's own verdict to the statement's: a failing
# kernel test is followed by the scan, which would hide a kernel that
# rejects a law that holds.

def check_assoc(table):
    expected = assoc_scan(table)
    assert checks._assoc_failure(table) == expected
    assert checks._action_law_holds(table, table) == (expected is None)
    return expected


def check_action(g, act):
    expected = action_scan(g, act)
    assert checks._action_law_failure(g, act) == expected
    assert checks._action_law_holds(g, act) == (expected is None)


def check_compat(star, dot):
    """The brace law is proved as the rows law of gamma; the witness is the law's own."""
    star, dot = group(star), group(dot)
    expected = compat_scan(star, dot)
    gamma = braces._gamma(star, dot)
    assert (gamma == brute_gamma(star, dot)).all()
    assert braces._compat_failure(star, dot, gamma) == expected
    assert checks._rows_law_holds(star.table, gamma) == (expected is None)


def check_coupling(g, n, act):
    """The coupling law is proved as the rows law of f; the witness is the
    law's own.  g, whose elements index the rows of act, is not read."""
    N = group(n)
    expected = coupling_scan(N, act)
    assert bracoids._eq2_failure(N, act) == expected
    assert checks._rows_law_holds(N.table, coupling_rows(N, act)) == (expected is None)


def check_relation(g, plus):
    dot = group(g)
    expected = relation_scan(dot, plus)
    assert semibraces._relation_failure(dot, plus) == expected
    assert semibraces._relation_holds(dot.table, dot.inv, plus) == (expected is None)


def check_L(g, plus):
    """Whenever the semibrace laws pass, every L_x is a +-endomorphism and L is
    multiplicative, as the Semibrace docstring promises; checked by full scan."""
    if not semibraces.verify_semibrace(g, plus).ok:
        return
    inv = np.argmax(g == 0, axis=1)
    L = np.array([g[x, plus[inv[x]]] for x in range(g.shape[0])])   # x.(x^-1 + y)
    for x in range(g.shape[0]):
        assert np.array_equal(L[x][plus], plus[np.ix_(L[x], L[x])])
        assert np.array_equal(L[g[x]], L[x][L])


def check_braid(left, right):
    """check_braid against the braid statement read on the whole cube.  It
    runs twice, the second time with the rack turned off, so the map is
    scanned: a rack PASS is a scan PASS, and the two reports are equal."""
    r = ybe.SolutionMap(left, right)
    fast = ybe.check_braid(r)
    with mock.patch.object(ybe, "_braid_from_rack", lambda left, right: False):
        assert ybe.check_braid(r) == fast
    expected = first_failing(ybe._braid_fails, (r.left, r.right), (r.size,) * 3)
    assert (fast["braid"].ok, fast["braid"].witness) == (expected is None, expected or ())


def solution(inst: Base) -> tuple[np.ndarray, np.ndarray]:
    """The semibrace solution r(x, y) = (l, l^-1 . x . y), l = x . (x^-1 + y)."""
    g = inst.g
    inv = np.argmax(g == 0, axis=1)
    idx = np.arange(g.shape[0])
    lmap = g[idx[:, None], inst.plus[inv]]
    return lmap, g[g[inv[lmap], idx[:, None]], idx[None, :]]


def pair(t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
    """Componentwise table on product carriers; (a1, a2) sits at a2 * size1 + a1.

    Every law here holds on a product exactly when it holds on both
    factors.  Greedy generators take the first factor's elements first, so
    a fault confined to the second factor hides from the first generators.
    """
    (r1, c1), (r2, c2) = t1.shape, t2.shape
    return (t2[:, None, :, None] * c1 + t1[None, :, None, :]).reshape(r2 * r1, c2 * c1)


# law -> (the checker, the valid argument tuple of an instance, the cases of an
# instance: valid, relabelled against each other, one entry changed, random).
LAWS = {
    "associativity": (check_assoc, lambda i: (i.g,), lambda i, o, rng: [
        (i.g,), (i.star,), (i.plus,), (poke(i.g, rng),), (poke(i.plus, rng),),
        (random_loop(rng, int(rng.integers(2, 6))),)]),
    "action": (check_action, lambda i: (i.g, i.act), lambda i, o, rng: [
        (i.g, i.act), (i.g, poke(i.act, rng)),
        (i.g, rng.integers(0, i.act.shape[1], i.act.shape)),
        (i.g, np.vstack([np.arange(i.act.shape[1]),
                         rng.integers(0, i.act.shape[1], (i.act.shape[0] - 1, i.act.shape[1]))]))]),
    "compat": (check_compat, lambda i: (i.star, i.g), lambda i, o, rng: [
        (i.star, i.g), (i.star, swap_labels(i.g, rng)), (swap_labels(i.star, rng), i.g),
        (i.g, i.star), (o.star, i.g)]),
    "coupling": (check_coupling, lambda i: (i.g, i.n, i.act), lambda i, o, rng: [
        (i.g, i.n, i.act), (i.g, i.n, poke(i.act, rng)), (i.g, swap_labels(i.n, rng), i.act),
        (i.g, i.n, rng.integers(0, i.act.shape[1], i.act.shape))]),
    "relation": (check_relation, lambda i: (i.g, i.plus), lambda i, o, rng: [
        (i.g, i.plus), (i.g, poke(i.plus, rng)), (i.g, swap_labels(i.plus, rng)),
        (i.g, rng.integers(0, i.g.shape[0], i.g.shape)), (i.g, i.g)]),
    # Valid semibraces, group tables as +, and mismatched pairs that verify rejects.
    "L": (check_L, lambda i: (i.g, i.plus), lambda i, o, rng: [
        (i.g, i.plus), (o.g, i.plus), (i.g, i.star), (i.g, o.plus)]),
    "braid": (check_braid, solution, lambda i, o, rng: [
        solution(i), (poke(solution(i)[0], rng), solution(i)[1]),
        (solution(i)[0], poke(solution(i)[1], rng)),
        tuple(rng.integers(0, 4, (2, 4, 4)))]),
}


@pytest.mark.parametrize("law", LAWS)
@FAST
@given(base=bases, small=st.integers(0, 3), rng=rngs)
def test_fast_check_equals_full_scan(law, base, small, rng):
    checker, valid, cases = LAWS[law]
    inst = relabelled(base, rng)
    other = relabelled(pool()[small], rng)       # same order as inst when small == base
    twin = relabelled(base, rng)
    todo = cases(inst, twin, rng)
    if base.g.shape[0] <= 10:
        todo += [tuple(map(pair, valid(other), case)) for case in todo]
    for case in todo:
        checker(*case)


def every_table(rows: int, cols: int, values: int):
    for flat in product(range(values), repeat=rows * cols):
        yield np.array(flat, dtype=np.int64).reshape(rows, cols)


def test_associativity_and_relation_on_every_table_up_to_order_3():
    for n in (1, 2, 3):
        cyclic = cyclic_group(n).table
        for table in every_table(n, n, n):
            check_relation(cyclic, table)
            if check_assoc(table) is None:
                check_L(cyclic, table)


def test_action_and_coupling_on_every_small_table():
    for order, m in ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 2)):
        g, n = cyclic_group(order).table, cyclic_group(m).table
        for act in every_table(order, m, m):
            check_action(g, act)
            check_coupling(g, n, act)


def idempotent_rows(rng, rows: int, m: int) -> np.ndarray:
    """rows copies of one random map f of 0..m-1 with f o f = f, not the
    identity when m > 1: an action of any associative table."""
    k = int(rng.integers(1, m)) if m > 1 else 1
    image = rng.choice(m, k, replace=False)
    f = image[rng.integers(k, size=m)]
    f[image] = image
    return np.tile(f, (rows, 1))


@FAST
@given(bases, rngs)
def test_action_law_off_the_identity_equals_full_scan(base, rng):
    """The kernel skips h = 0 only when gt[:, 0] and act[0] are identity
    maps.  Where either is not, on associative tables, valid and with one
    entry changed, it agrees with the scan: a group relabelled to move its
    identity off 0 acting on itself, a group acting by one idempotent map,
    the right-zero band x*y = y, and a semibrace's + acting on itself."""
    n = base.g.shape[0]
    perm = np.roll(fixing_zero(rng, n), int(rng.integers(1, n)))
    moved = relabel(base.g, perm, perm, perm)
    band = np.tile(np.arange(n), (n, 1))
    idem = idempotent_rows(rng, n, n)
    identity = lambda v: np.array_equal(v, np.arange(len(v)))
    assert not identity(moved[:, 0]) and not identity(band[:, 0]) and not identity(idem[0])
    for g, act in ((moved, moved), (base.g, idem), (band, idem), (base.plus, base.plus)):
        for case in (act, poke(act, rng)):
            if not (identity(g[:, 0]) and identity(case[0])):
                check_action(g, case)


def test_compat_on_every_pair_of_small_groups():
    tables = []
    for base in (cyclic_group(2), cyclic_group(3), cyclic_group(4), elementary_abelian(2, 2)):
        for tail in permutations(range(1, base.order)):
            perm = np.array((0, *tail))
            tables.append(relabel(base.table, perm, perm, perm))
    for star, dot in product(tables, repeat=2):
        if star.shape == dot.shape:
            check_compat(star, dot)


def test_braid_on_every_map_up_to_size_2():
    for n in (1, 2):
        for left, right in product(list(every_table(n, n, n)), repeat=2):
            check_braid(left, right)


# --- the statements themselves ---

# name: sizes n, m -> (statement, its tables as (shape, entry bound), its grid)
STATEMENTS = {
    "action": lambda n, m: (checks._action_law_fails, [((n, n), n), ((n, m), m)], (n, n, m)),
    "brace": lambda n, m: (braces._brace_law_fails, [((n, n), n)] * 2 + [((n,), n)], (n, n, n)),
    "coupling": lambda n, m: (bracoids._coupling_fails, [((m, m), m), ((m,), m), ((n, m), m)],
                              (n, m, m)),
    "relation": lambda n, m: (semibraces._relation_fails,
                              [((n, n), n), ((n,), n), ((n, n), n)], (n, n, n)),
    "rho-compose": lambda n, m: (bracoids._rho_compose_fails, [((n, n), n)] * 2, (n, n, n)),
    "product-rule": lambda n, m: (bracoids._product_rule_fails, [((n, n), n)] * 3, (n, n, n)),
    "braid": lambda n, m: (ybe._braid_fails, [((n, n), n)] * 2, (n, n, n)),
}


@pytest.mark.parametrize("name", STATEMENTS)
@FAST
@given(st.integers(1, 4), st.integers(1, 4), rngs)
def test_each_statement_at_one_triple_is_its_broadcast_slice(name, n, m, rng):
    """On random tables, each law's statement evaluated at every scalar
    triple equals the x-slice that `checks._first_triple` reads."""
    fails, layout, (nx, ny, nz) = STATEMENTS[name](n, m)
    tables = [rng.integers(0, bound, shape, dtype=np.int32) for shape, bound in layout]
    for x in range(nx):
        mask = fails(*tables, x, np.arange(ny)[:, None], np.arange(nz))
        assert mask.shape == (ny, nz)
        for y, z in product(range(ny), range(nz)):
            assert bool(fails(*tables, x, y, z)) == mask[y, z]


# --- the content memo ---

def memo_calls(base: Base, rng) -> list[tuple]:
    """(memoised kernel, args, kwargs) on a base's tables and one-entry pokes.

    Each law reaches its kernel as its checks module hands it over: the
    brace law as the rows of gamma, the coupling law as the rows of f, the
    semibrace relation as the action of L, associativity as the action of
    the table on itself.
    """
    G, N, star = group(base.g), group(base.n), group(base.star)
    other = group(swap_labels(base.g, rng))
    out = [(checks._rows_law_holds, (s.table, braces._gamma(s, d)), {})
           for s, d in ((star, G), (other, G), (star, other))]
    for table in (base.g, base.star, base.plus, poke(base.g, rng), poke(base.plus, rng)):
        out += [(checks._group_proof, (table, True), {}),
                (checks._group_proof, (table, False), {}),
                (checks._first_repeat, (table,), {}),
                (checks.generators, (table,), {}),
                (checks._action_law_holds, (table, table), {})]
    for act in (base.act, poke(base.act, rng)):
        out += [(checks._action_law_holds, (base.g, act), {}),
                (checks._rows_law_holds, (N.table, coupling_rows(N, act)), {})]
    for plus in (base.plus, poke(base.plus, rng), base.g):
        L = semibraces._L_table(G.table, G.inv, plus)
        out += [(checks._action_law_holds, (G.table, L), {}),
                (semibraces._relation_holds, (G.table, G.inv, plus), {})]
    return out


def plain(result):
    """A kernel result with each array as a list, so that results compare by ==."""
    if isinstance(result, np.ndarray):
        return result.tolist()
    if isinstance(result, tuple):
        return tuple(map(plain, result))
    return result


@FAST
@given(bases, rngs)
def test_memoised_kernels_equal_the_kernels_they_wrap(base, rng):
    for kernel, args, kwargs in memo_calls(relabelled(base, rng), rng):
        expected = plain(kernel.__wrapped__(*args, **kwargs))
        assert plain(kernel(*args, **kwargs)) == expected
        assert plain(kernel(*args, **kwargs)) == expected        # now from the memo


# --- the semibrace split ---

def split_facts(plus: np.ndarray) -> dict[str, bool]:
    """The five facts of the split G = (G+e) + E that `decompose` proves from
    the right-group theorem, each checked on the table as decompose once
    asserted it."""
    arange = np.arange(plus.shape[0])
    anchors = plus[:, 0]                                        # g + e
    idempotents = np.flatnonzero(plus[arange, arange] == arange)
    hpart = np.unique(anchors)
    factors = plus[anchors[:, None], idempotents] == arange[:, None]
    return {
        "e + e = e": plus[0, 0] == 0,
        "x + x = x iff x + e = e": np.array_equal(idempotents, np.flatnonzero(anchors == 0)),
        "idempotent rows are the identity": (plus[idempotents] == arange).all(),
        "G+e is closed under +": np.isin(plus[np.ix_(hpart, hpart)], hpart).all(),
        "g = (g+e) + eps for one idempotent eps": (factors.sum(axis=1) == 1).all(),
    }


def assert_split(sb: Semibrace) -> None:
    facts = split_facts(sb.plus)
    assert all(facts.values()), facts
    dec = decompose(sb)
    assert dec.Hpart == tuple(np.unique(sb.plus[:, 0]).tolist())
    assert dec.Epart == tuple(np.flatnonzero(np.diagonal(sb.plus) == np.arange(sb.order)).tolist())


@FAST
@given(bases, rngs)
def test_the_split_facts_hold_on_relabelled_semibraces(base, rng):
    b = relabelled(base, rng)
    assert_split(Semibrace(b.g, b.plus))


def test_the_split_facts_hold_on_the_catalog_semibraces(catalog):
    """Every contained brace of the catalog and every promoted brace of its
    stock pool gives a semibrace whose split has the five facts."""
    built = [bracoid_to_semibrace(i.contained) for i in catalog if i.contained is not None]
    built += [bracoid_to_semibrace(promote_brace(B)) for B in seeded_braces(random.Random(7), 40)]
    assert {len(decompose(sb).Epart) > 1 for sb in built} == {True, False}
    for sb in built:
        assert_split(sb)


# --- whole reports ---

def _reports(verify, *tables, calls: Counter | None = None):
    fast = verify(*tables)
    with brute_oracles(calls):
        brute = verify(*tables)
    return fast, brute


VERIFIERS = ((braces.verify_skew_brace, ("star", "g")),
             (bracoids.verify_bracoid, ("g", "n", "act")),
             (semibraces.verify_semibrace, ("g", "plus")))


def test_every_oracle_reaches_its_target():
    """On valid tables each verify_* report reads every check it has, so each
    patched oracle runs: a check moved to another module, where the patch
    no longer reaches it, fails here instead of comparing itself with itself."""
    calls = Counter()
    for base in pool():
        tables = {"g": base.g, "star": base.star, "n": base.n, "act": base.act,
                  "plus": base.plus}
        for verify, args in VERIFIERS:
            fast, brute = _reports(verify, *(tables[a] for a in args), calls=calls)
            assert fast == brute and fast.ok
    assert set(calls) == {f"{module.__name__}.{name}" for module, name, _ in ORACLES}, calls


@FAST
@given(bases, rngs, st.integers(0, 4))
def test_verify_reports_match_the_full_scans(base, rng, which):
    inst = relabelled(base, rng)
    tables = {"g": inst.g, "star": inst.star, "n": inst.n, "act": inst.act,
              "plus": inst.plus}
    name = ("g", "star", "n", "act", "plus")[which]
    tables[name] = poke(tables[name], rng)
    for verify, args in VERIFIERS:
        fast, brute = _reports(verify, *(tables[a] for a in args))
        assert fast == brute


@FAST
@given(rngs, st.integers(2, 7))
def test_group_constructor_names_the_brute_witness(rng, n):
    loop = random_loop(rng, n)
    witness = assoc_scan(loop)
    try:
        FiniteGroup(loop)
    except groups.NotAssociative as exc:
        assert witness is not None and ",".join(map(str, witness)) in str(exc)
    else:
        assert witness is None


# --- the braid relation proved from carrier laws ---

@cache
def derived(k: int) -> tuple[ybe.SolutionMap, ...]:
    """The four derived solutions of instances()[k], each with its carrier."""
    cb = instances()[k].contained
    return (braces.brace_solution(cb.brace),
            ybe.solution_from_semibrace(bracoid_to_semibrace(cb)),
            ybe.solution_from_bracoid(cb), ybe.tilde_solution_from_bracoid(cb))


def carrier_laws(left, right, gt) -> bool:
    return ybe._braid_from_carrier(ybe.SolutionMap(left, right, carrier=group(gt)))


def test_every_derived_solution_passes_the_carrier_laws():
    for k in range(len(instances())):
        for r in derived(k):
            assert carrier_laws(r.left, r.right, r.carrier.table), (k, r.provenance)


@FAST
@given(st.integers(0, 5), st.integers(0, 3), rngs)
def test_carrier_proof_keeps_the_scan_report(k, which, rng):
    """One entry changed, carrier kept: the report, witness included, is the
    report of the same tables with no carrier, which the rack proves or the
    scan decides."""
    r = derived(k)[which]
    for base in (r, ybe.conjugate_solution(r, "tau")):
        for left, right in ((base.left, base.right), (poke(base.left, rng), base.right),
                            (base.left, poke(base.right, rng))):
            carried = ybe.SolutionMap(left, right, carrier=base.carrier)
            assert ybe.check_braid(carried) == ybe.check_braid(ybe.SolutionMap(left, right))


@FAST
@given(st.integers(0, 5), st.integers(0, 3), st.integers(0, 2), rngs)
def test_carrier_laws_imply_the_brute_braid(k, which, small, rng):
    r = derived(k)[which]
    gt, n = r.carrier.table, r.size
    maps = [(r.left, r.right, gt), (poke(r.left, rng), r.right, gt),
            (r.left, poke(r.right, rng), gt),
            tuple(rng.integers(0, n, (2, n, n))) + (gt,)]
    for twin in (ybe.conjugate_solution(r, "tau"), ybe.conjugate_solution(r, "iota")):
        maps.append((twin.left, twin.right, gt))
    other = derived(small)[which]
    if n <= 10:
        maps.append((pair(r.left, other.left), pair(r.right, other.right),
                     pair(gt, other.carrier.table)))
    for left, right, table in maps:
        if carrier_laws(left, right, table):
            left, right = np.asarray(left), np.asarray(right)
            assert not failing_mask(ybe._braid_fails, (left, right), (len(left),) * 3).any()


def endomorphisms(G: FiniteGroup) -> list[np.ndarray]:
    """Every endomorphism of G, found from the images of its generators."""
    table, n = G.table, G.order
    gens = checks.generators(table)
    found = []
    for images in product(range(n), repeat=len(gens)):
        img = {0: 0}
        queue = [0]
        for a in queue:
            for g, ig in zip(gens, images):
                b = int(table[a, g])
                if b not in img:
                    img[b] = int(table[img[a], ig])
                    queue.append(b)
        f = np.array([img[a] for a in range(n)])
        if np.array_equal(f[table], table[np.ix_(f, f)]):
            found.append(f)
    return found


def structured_maps(G: FiniteGroup):
    """Maps on G built from its operations, many passing two of the three laws.

    Word maps such as (y, xy) are actions with no product law.  For each
    endomorphism psi, t_y(x) = x psi(y) is a right action and
    s_x(y) = psi(x) y a left action; the other coordinate is solved from
    the product law, so only the other action law is left to fail.
    """
    table, inv = G.table, G.inv
    x, y = np.indices(table.shape)
    letters = {"x": x, "X": inv[x], "y": y, "Y": inv[y]}
    words = [()] + [(a,) for a in letters] + list(product(letters, repeat=2))
    tables = []
    for word in words:
        t = np.zeros_like(x)
        for a in word:
            t = table[t, letters[a]]
        tables.append(t)
    yield from product(tables, repeat=2)
    for psi in endomorphisms(G):
        right = table[x, psi[y]]
        yield table[table[x, y], inv[right]], right
        left = table[psi[x], y]
        yield left, table[inv[left], table[x, y]]


def test_maps_passing_two_carrier_laws_keep_the_scan_report():
    """Each law is needed: some map passes the other two and fails braid.  A
    carrier never changes a report, whichever laws pass."""
    dihedral4 = groups.semidirect_product(cyclic_group(4), cyclic_group(2),
                                          np.array([[0, 1, 2, 3], [0, 3, 2, 1]]))
    needed = set()
    for G in (cyclic_group(3), cyclic_group(4), group(pool()[1].g), dihedral4):
        gt = G.table
        for left, right in structured_maps(G):
            report = ybe.check_braid(ybe.SolutionMap(left, right, carrier=G))
            assert report == ybe.check_braid(ybe.SolutionMap(left, right))
            laws = (np.array_equal(gt[left, right], gt),
                    action_scan(gt, left) is None,
                    action_scan(gt.T, right.T) is None)
            if all(laws):
                assert report["braid"].ok
            elif sum(laws) == 2 and not report["braid"].ok:
                needed.add("PLR"[laws.index(False)])
    assert needed == {"P", "L", "R"}


def test_tau_conjugates_fail_the_product_law_and_keep_the_scan_report():
    failed = 0
    for k in range(len(instances())):
        for r in derived(k):
            t = ybe.conjugate_solution(r, "tau")
            assert t.carrier is r.carrier
            gt = t.carrier.table
            failed += not np.array_equal(gt[t.left, t.right], gt)
            assert ybe.check_braid(t) == ybe.check_braid(ybe.SolutionMap(t.left, t.right))
    assert failed
