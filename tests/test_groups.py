import random
import tracemalloc
from collections import Counter
from itertools import permutations

import numpy as np
import pytest

from ybelab.catalog import seeded_braces
from ybelab.checks import closure, frozen
from ybelab.groups import (
    CapExceeded,
    FiniteGroup,
    GroupAction,
    NoIdentity,
    NotAssociative,
    NotHomomorphism,
    NotLatinSquare,
    NotPrime,
    Subgroup,
    automorphism_group,
    cyclic_group,
    direct_product,
    elementary_abelian,
    find_complements,
    holomorph,
    is_transitive,
    semidirect_product,
    stabilizer,
    subgroup_generated,
)

# Oracle: the order-6 nonabelian group built longhand, (i,j)*(k,l) with the
# sign twist applied by hand.  Index (i,j) -> 2i + j.
def _s3_by_hand():
    table = np.zeros((6, 6), dtype=np.int32)
    for i in range(3):
        for j in range(2):
            for k in range(3):
                for l in range(2):
                    ii = (i + (k if j == 0 else -k)) % 3
                    table[2 * i + j, 2 * k + l] = 2 * ii + (j + l) % 2
    return table


def s3():
    return semidirect_product(cyclic_group(3), cyclic_group(2),
                              np.array([[0, 1, 2], [0, 2, 1]], dtype=np.int32))


def test_two_element_table_is_a_group():
    G = FiniteGroup(np.array([[0, 1], [1, 0]]))
    assert G.order == 2
    assert G.inv[1] == 1


def test_mod3_table_is_cyclic():
    table = [[(i + j) % 3 for j in range(3)] for i in range(3)]
    G = FiniteGroup(np.array(table))
    assert G.order == 3
    assert list(G.table[1]) == [1, 2, 0]


def test_constant_row_rejected():
    with pytest.raises(NotLatinSquare):
        FiniteGroup(np.array([[0, 1], [1, 1]]))


def test_no_identity_rejected():
    # Latin, but only a one-sided identity: subtraction mod 3.
    table = [[(i - j) % 3 for j in range(3)] for i in range(3)]
    with pytest.raises(NoIdentity):
        FiniteGroup(np.array(table))


def test_nonassociative_loop_rejected():
    # Smallest nonassociative loop: (1*1)*2 = 2 but 1*(1*2) = 4.
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
    with pytest.raises(NotAssociative):
        FiniteGroup(np.array(table))


def test_group_adopts_a_frozen_owned_int32_table():
    """A table that `checks.frozen` took over is adopted with no copy."""
    table = frozen(np.array(cyclic_group(6).table))
    G = FiniteGroup(table)
    assert G.table is table


@pytest.mark.parametrize("kind", ["writable", "frozen-by-caller", "int64", "fortran-order",
                                  "view"])
def test_group_copies_any_other_table(kind):
    """A writable table, one the caller set read-only itself, another dtype,
    a non-C-contiguous array or a read-only view is copied: a later write to
    the memory it came from never reaches G.table."""
    owner = np.array(s3().table)
    if kind == "int64":
        owner = owner.astype(np.int64)
    elif kind == "fortran-order":
        owner = np.asfortranarray(owner)
    given = owner[:] if kind == "view" else owner
    if kind != "writable":
        given.setflags(write=False)
    G = FiniteGroup(given)
    before = G.table.copy()
    assert not np.shares_memory(G.table, owner)
    owner.setflags(write=True)
    owner[...] = 0
    assert np.array_equal(G.table, before) and not G.table.flags.writeable


def test_semidirect_product_table_is_built_once():
    """The product writes its table into one frozen int32 array that the
    group adopts, so Hol(C2^3), of order 1344, holds its table once while
    it is built and proved: under 1.25 tables at peak, where broadcasting a
    table, copying it and sorting it took over four."""
    N = elementary_abelian(2, 3)
    hol = holomorph(N)
    alpha = np.array(hol.maps, dtype=np.int32)
    tracemalloc.start()
    try:
        G = semidirect_product(N, hol.aut, alpha)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert G.order == 1344 and peak < 1.25 * G.table.nbytes
    assert G.table.dtype == np.int32 and G.table.base.flags.owndata
    assert not G.table.flags.writeable and G.table.flags.c_contiguous


def test_cyclic_group_small():
    assert cyclic_group(1).order == 1
    assert list(cyclic_group(3).table[1]) == [1, 2, 0]
    G = cyclic_group(10)
    assert G.order == 10 and (G.table == G.table.T).all()


def test_cyclic_element_orders_against_naive_powers():
    G = cyclic_group(12)
    for x in range(12):
        acc, k = x, 1
        while acc != 0:
            acc = int(G.table[acc, x])
            k += 1
        assert G.element_orders[x] == k


def test_elementary_abelian():
    assert elementary_abelian(2, 1).order == 2
    G = elementary_abelian(2, 3)
    assert G.order == 8
    assert all(G.element_orders[x] == 2 for x in range(1, 8))
    with pytest.raises(NotPrime):
        elementary_abelian(4, 1)


def test_semidirect_trivial_alpha_is_direct_product():
    H, S = cyclic_group(3), cyclic_group(4)
    alpha = np.tile(np.arange(3, dtype=np.int32), (4, 1))
    assert np.array_equal(semidirect_product(H, S, alpha).table,
                          direct_product(H, S).table)


def test_semidirect_matches_hand_table():
    assert np.array_equal(s3().table, _s3_by_hand())
    # (1,0).(1,1) = (2,1): indices 2 . 3 = 5
    assert s3().table[2, 3] == 5


def test_order60_presentation():
    # x of order 15; y, z of order 2, both inverting x.
    m = 15
    flip = (-np.arange(m, dtype=np.int32)) % m
    alpha = np.stack([np.arange(m, dtype=np.int32), flip, flip,
                      np.arange(m, dtype=np.int32)])
    G = semidirect_product(cyclic_group(m), elementary_abelian(2, 2), alpha)
    assert G.order == 60
    x, y, z = 4, 1, 2
    assert G.element_orders[x] == 15
    assert G.element_orders[y] == 2 and G.element_orders[z] == 2
    assert G.table[G.table[y, x], G.inv[y]] == G.inv[x]
    assert G.table[G.table[z, x], G.inv[z]] == G.inv[x]
    assert G.table[y, z] == G.table[z, y]


def test_automorphism_counts():
    for G, expected in [(cyclic_group(4), 2), (cyclic_group(10), 4),
                        (s3(), 6), (elementary_abelian(2, 3), 168),
                        (direct_product(cyclic_group(4), cyclic_group(4)), 96),
                        (elementary_abelian(3, 2), 48),      # |GL(2, 3)|
                        (cyclic_group(64), 32), (cyclic_group(50), 20),
                        # here a tree-defined bijection can break the rows law
                        (direct_product(s3(), cyclic_group(2)), 12),
                        # D4 x C2: three generators, so stages 1 and 2 both prune
                        (direct_product(semidirect_product(
                            cyclic_group(4), cyclic_group(2),
                            np.array([[0, 1, 2, 3], [0, 3, 2, 1]], dtype=np.int32)),
                            cyclic_group(2)), 64)]:
        hol = holomorph(G)
        assert hol.aut.order == expected == len(hol.maps) == len(automorphism_group(G))


def test_automorphism_order_and_identity_slot():
    images = automorphism_group(cyclic_group(10))
    assert images[0] == tuple(range(10))
    assert images == sorted(images)


def test_automorphism_cap():
    """max_order bounds |Hol(G)| = |G| * |Aut(G)|: Hol(C2^3) has order
    8 * 168 = 1344, so 1344 lists every map, 1343 refuses at map 168 and a
    bound below |G| refuses before the search."""
    E = elementary_abelian(2, 3)
    with pytest.raises(CapExceeded,
                       match=r"^\|Hol\(E2\^3\)\| exceeds max_order 4: \|E2\^3\| = 8$"):
        automorphism_group(E, max_order=4)
    with pytest.raises(CapExceeded,
                       match=r"^\|Hol\(E2\^3\)\| exceeds max_order 1343: \|Aut\(E2\^3\)\| > 167$"):
        automorphism_group(E, max_order=1343)
    assert len(automorphism_group(E, max_order=1344)) == 168


def test_automorphism_search_lists_gl42_without_an_aut_table():
    """Aut(C2^4) = GL(4, 2) has 20,160 maps.  The search returns their image
    tuples alone, about 3.7 MB, where composing them by generator-image codes
    asked for an int32 array of 20160 x 4 x 20160 entries (6 GiB)."""
    E = elementary_abelian(2, 4)
    tracemalloc.start()
    try:
        maps = automorphism_group(E, max_order=16 * 20160)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert len(maps) == 20160 and maps == sorted(set(maps))
    assert all(type(m) is tuple and type(m[0]) is int for m in maps)
    perms = np.array(maps, dtype=np.int32)
    assert (np.sort(perms, axis=1) == np.arange(16)).all()
    assert (perms[:, E.table] == E.table[perms[:, :, None], perms[:, None, :]]).all()


def _q8():
    """The quaternion group as a^k x^e (index k + 4e) with a^4 = 1, x^2 = a^2,
    x a x^-1 = a^-1."""
    table = np.zeros((8, 8), dtype=np.int32)
    for k, e, m, f in np.ndindex(4, 2, 4, 2):
        kk = (k + (-m if e else m) + (2 if e and f else 0)) % 4
        table[k + 4 * e, m + 4 * f] = kk + 4 * (e ^ f)
    return FiniteGroup(table, name="Q8")


def _aut_table_by_loop(perms) -> np.ndarray:
    """The Aut Cayley table as first built: look up every composite by its images."""
    index = {p: i for i, p in enumerate(perms)}
    parr = np.array(perms, dtype=np.int32)
    table = np.empty((len(perms), len(perms)), dtype=np.int32)
    for i in range(len(perms)):
        for j in range(len(perms)):
            table[i, j] = index[tuple(int(v) for v in parr[i][parr[j]])]
    return table


# aut_bound bounds |Aut(G)| through max_order = |G| * aut_bound.
@pytest.mark.parametrize("G, aut_bound, order", [
    *((cyclic_group(n), 64, None) for n in range(2, 9)),
    (elementary_abelian(2, 2), 64, 6),
    (elementary_abelian(2, 3), 168, 168),
    (s3(), 64, 6),
    (semidirect_product(cyclic_group(4), cyclic_group(2),
                        np.array([[0, 1, 2, 3], [0, 3, 2, 1]], dtype=np.int32)), 64, 8),
    (_q8(), 64, 24),
], ids=lambda v: getattr(v, "name", None))
def test_automorphism_table_equals_the_composition_loop(G, aut_bound, order):
    hol = holomorph(G, max_order=G.order * aut_bound)
    assert order is None or hol.aut.order == order
    assert hol.aut.table.dtype == np.int32
    assert np.array_equal(hol.aut.table, _aut_table_by_loop(hol.maps))


def _automorphisms_by_brute_force(G: FiniteGroup) -> list[tuple[int, ...]]:
    """Every permutation p with p[0] = 0 and p[a*b] = p[a]*p[b], sorted."""
    n = G.order
    perms = np.array([(0, *p) for p in permutations(range(1, n))], dtype=np.int32)
    hom = (perms[:, G.table] == G.table[perms[:, :, None], perms[:, None, :]]).all(axis=(1, 2))
    return sorted(tuple(int(v) for v in p) for p in perms[hom])


@pytest.mark.parametrize("G", [
    *(cyclic_group(n) for n in range(1, 9)),
    elementary_abelian(2, 2),
    elementary_abelian(2, 3),
    s3(),
    semidirect_product(cyclic_group(4), cyclic_group(2),
                       np.array([[0, 1, 2, 3], [0, 3, 2, 1]], dtype=np.int32)),
    _q8(),
    direct_product(cyclic_group(4), cyclic_group(2)),
], ids=lambda G: G.name)
def test_automorphism_search_equals_the_brute_force_over_permutations(G):
    assert automorphism_group(G) == _automorphisms_by_brute_force(G)


def test_holomorph_orders():
    assert holomorph(cyclic_group(2)).group.order == 2
    hol3 = holomorph(cyclic_group(3))
    assert hol3.group.order == 6 and is_transitive(hol3.action)
    hol8 = holomorph(elementary_abelian(2, 3))
    assert hol8.group.order == 1344
    assert is_transitive(hol8.action)
    assert len(hol8.maps) == 168


@pytest.mark.parametrize("N", [cyclic_group(3), cyclic_group(4), elementary_abelian(2, 3)],
                         ids=["C3", "C4", "C2^3"])
def test_holomorph_element_acts_as_translation_after_twist(N):
    hol = holomorph(N)
    seen = []
    for m in hol.maps:
        for h in range(N.order):
            x = hol.element(h, m)
            assert np.array_equal(hol.action.table[x], N.table[h, list(m)])
            seen.append(x)
    assert sorted(seen) == list(range(hol.group.order))


def test_holomorph_element_refuses_a_non_automorphism():
    hol = holomorph(cyclic_group(4))
    assert hol.element(1, (0, 1, 2, 3)) is not None
    assert hol.element(1, (0, 2, 1, 3)) is None     # a bijection, not a homomorphism
    assert hol.element(0, (1, 0, 3, 2)) is None     # moves the identity
    assert hol.element(0, (0, 0, 0, 0)) is None


def test_subgroup_membership_matches_its_element_set(semidirect32, abelianmap35, gl3f2):
    subs = [stabilizer(inst.bracoid.act, 0) for inst in (semidirect32, abelianmap35, gl3f2)]
    subs.append(gl3f2.contained.H)
    for H in subs:
        members = set(H.elements)
        assert [x in H for x in range(H.parent.order)] == \
            [x in members for x in range(H.parent.order)]


def test_subgroup_names_the_first_escaping_product():
    """Seeded subsets holding 0 of Q8 and of C3 x| C4: a subgroup exactly when
    closed, and otherwise refused at the first escaping product in row order."""
    rng = random.Random(5)
    for G in (_q8(), semidirect_product(cyclic_group(3), cyclic_group(4),
                                        np.array([[0, 1, 2], [0, 2, 1]] * 2, dtype=np.int32))):
        for _ in range(300):
            elems = tuple(sorted({0, *rng.sample(range(1, G.order), rng.randrange(G.order))}))
            escaping = [(a, b) for a in elems for b in elems if G.table[a, b] not in elems]
            if not escaping:
                assert Subgroup(G, elems).order == len(elems)
                continue
            a, b = escaping[0]
            with pytest.raises(ValueError) as info:
                Subgroup(G, elems)
            assert str(info.value) == f"not closed: {a}*{b} = {G.table[a, b]} escapes the subset"


def test_subgroup_generated():
    G = cyclic_group(10)
    assert subgroup_generated(G, []).elements == (0,)
    assert subgroup_generated(G, [2]).elements == (0, 2, 4, 6, 8)


def test_subgroup_validation():
    G = s3()
    with pytest.raises(ValueError, match=r"^not closed: 1\*2 = 5 escapes the subset$"):
        Subgroup(G, (0, 1, 2))
    sub = Subgroup(G, (0, 2, 4))
    assert sub.as_group().order == 3


def test_subgroup_refuses_an_element_out_of_range():
    G = cyclic_group(4)
    with pytest.raises(ValueError, match=r"^element 4 out of range 0\.\.3$"):
        G.subgroup([0, 4])
    with pytest.raises(ValueError, match=r"^generator 7 out of range 0\.\.3$"):
        subgroup_generated(G, [7])
    with pytest.raises(ValueError, match=r"^generator -1 out of range 0\.\.3$"):
        subgroup_generated(G, [1, -1])


def _catalog_groups(catalog):
    """Each distinct group of the catalog and of 20 seeded relabellings of the pool."""
    groups = []
    for inst in catalog:
        for owner in (inst.brace, inst.contained and inst.contained.brace):
            if owner is not None:
                groups += [owner.star, owner.dot]
        if inst.bracoid is not None:
            groups += [inst.bracoid.G, inst.bracoid.N]
    for B in seeded_braces(random.Random(23), 20):
        groups += [B.star, B.dot]
    return list({G.table.tobytes(): G for G in groups}.values())


def test_every_closure_is_closed_under_inversion(catalog):
    """Subgroup checks closure alone: g of order k has g^-1 = g^(k-1), so a
    closed set holds the inverse of each member.  Here on the set
    checks.closure returns for every pair of generators (300 seeded pairs
    above order 64) of each catalog group and seeded relabelling."""
    rng, sets = random.Random(29), 0
    for G in _catalog_groups(catalog):
        n = G.order
        pairs = ([(a, b) for a in range(n) for b in range(a, n)] if n <= 64
                 else [(rng.randrange(n), rng.randrange(n)) for _ in range(300)])
        for pair in pairs:
            elements = closure(G.table, pair)
            assert set(G.inv[elements].tolist()) == set(elements), (G, pair)
            Subgroup(G, tuple(sorted(elements)))
            sets += 1
    assert sets == 6212


def test_stabilizer_refuses_a_point_outside_the_space():
    act = GroupAction(s3(), s3().table)
    for point in (6, 7, -1):
        with pytest.raises(ValueError, match=rf"^point {point} out of range 0\.\.5$"):
            stabilizer(act, point)


def test_is_transitive_takes_an_action_or_its_table():
    G = s3()
    assert is_transitive(G.table) and is_transitive(GroupAction(G, G.table))
    fixed = np.zeros((6, 2), dtype=np.int32)
    fixed[:, 1] = 1
    assert not is_transitive(fixed) and not is_transitive(GroupAction(G, fixed))


def test_stabilizer_of_regular_action_is_trivial():
    G = s3()
    act = GroupAction(G, G.table)
    assert stabilizer(act, 0).elements == (0,)
    assert is_transitive(act)


def test_trivial_action_not_transitive():
    G = cyclic_group(2)
    act = GroupAction(G, np.array([[0, 1], [0, 1]], dtype=np.int32))
    assert not is_transitive(act)


def test_find_complements_of_trivial_subgroup():
    G = s3()
    comps = find_complements(G, Subgroup(G, (0,)))
    assert [c.elements for c in comps] == [tuple(range(6))]


def test_find_complements_in_s3():
    G = s3()
    refl = Subgroup(G, (0, 1))
    comps = find_complements(G, refl)
    assert [c.elements for c in comps] == [(0, 2, 4)]


def test_find_complements_refuses_a_subgroup_of_another_group():
    G = s3()
    other = FiniteGroup(G.table.copy())
    with pytest.raises(ValueError):
        find_complements(G, Subgroup(other, (0, 1)))


def test_random_relabelled_tables_stay_groups():
    rng = random.Random(7)
    for _ in range(20):
        base = [cyclic_group(6), s3(), elementary_abelian(2, 3)][rng.randrange(3)]
        n = base.order
        tail = list(range(1, n))
        rng.shuffle(tail)
        perm = np.array([0] + tail, dtype=np.int32)
        inv = np.empty_like(perm)
        inv[perm] = np.arange(n, dtype=np.int32)
        table = perm[base.table[np.ix_(inv, inv)]]
        G = FiniteGroup(table)
        assert sorted(G.element_orders) == sorted(base.element_orders)


def _old_semidirect_refusal(H, S, alpha):
    """Why the twist-list checks that semidirect_product ran before its table
    proof refused alpha, or None: each map a permutation of H fixing 0 and a
    homomorphism, judged map by map, then alpha_{s*t} = alpha_s o alpha_t."""
    idx = np.arange(alpha.shape[1])
    for s in range(alpha.shape[0]):
        perm = alpha[s]
        if not (np.sort(perm) == idx).all():
            return f"map {s} is not a permutation"
        if perm[0] != 0:
            return f"map {s} moves the identity"
        if (perm[H.table] != H.table[np.ix_(perm, perm)]).any():
            return f"map {s} is not a homomorphism"
    if (alpha[:, alpha] != alpha[S.table]).any():
        return "alpha is not multiplicative"
    return None


def _twist_list(rng, H, S, auts):
    """alpha with rows drawn from Aut(H), the identity, permutations with and
    without a fixed 0, and arbitrary rows; or a homomorphism S -> Aut(H)."""
    n = H.order
    if rng.random() < 0.2:
        return np.tile(np.arange(n, dtype=np.int32), (S.order, 1))
    rows = []
    for _ in range(S.order):
        kind = rng.integers(8)
        if kind < 4:
            rows.append(auts[rng.integers(len(auts))])
        elif kind == 4:
            rows.append(np.arange(n))
        elif kind == 5:
            rows.append(np.concatenate(([0], 1 + rng.permutation(n - 1))))
        elif kind == 6:
            rows.append(rng.permutation(n))
        else:
            rows.append(rng.integers(-1, n + 1, n))
    return np.array(rows, dtype=np.int32)


def test_semidirect_product_is_a_group_exactly_when_the_old_checks_pass():
    """The table proof decides the twist-list checks it replaced: over random
    twist lists, semidirect_product succeeds exactly when they pass.  It
    refuses an in-range list by the first group law its table breaks, and a
    list with an entry outside H by its range check."""
    rng = np.random.default_rng(11)
    d4 = semidirect_product(cyclic_group(4), cyclic_group(2),
                            np.array([[0, 1, 2, 3], [0, 3, 2, 1]], dtype=np.int32))
    Hs = (cyclic_group(3), cyclic_group(5), elementary_abelian(2, 2), s3(), d4, _q8())
    Ss = (cyclic_group(2), cyclic_group(3), cyclic_group(4), elementary_abelian(2, 2))
    auts = {H.name: [np.array(m) for m in automorphism_group(H)] for H in Hs}
    seen, reasons = Counter(), set()
    for _ in range(600):
        H, S = Hs[rng.integers(len(Hs))], Ss[rng.integers(len(Ss))]
        alpha = _twist_list(rng, H, S, auts[H.name])
        old = _old_semidirect_refusal(H, S, alpha)
        reasons.add(old and old.split(" ", 2)[-1])
        in_range = bool(((alpha >= 0) & (alpha < H.order)).all())
        try:
            G = semidirect_product(H, S, alpha)
        except (NotLatinSquare, NoIdentity, NotAssociative) as exc:
            assert old is not None and in_range, (old, exc)
            seen[type(exc).__name__] += 1
        except NotHomomorphism:
            assert old is not None and not in_range
            seen["out of range"] += 1
        else:
            assert old is None and G.order == H.order * S.order
            seen["accepted"] += 1
    assert set(seen) == {"accepted", "out of range", "NotLatinSquare", "NoIdentity",
                         "NotAssociative"}, seen
    assert reasons == {None, "is not a permutation", "moves the identity",
                       "is not a homomorphism", "not multiplicative"}, reasons
