import random
import re

import numpy as np
import pytest

from ybelab import catalog
from ybelab.braces import (
    AxiomViolated,
    ConstructionFailed,
    SkewBrace,
    abelian_map_brace,
    brace_solution,
    is_strong_left_ideal,
    regular_rep_in_holomorph,
    trivial_brace,
    verify_skew_brace,
)
from ybelab.catalog import abelianmap_instance
from ybelab.groups import (
    Subgroup,
    closure,
    cyclic_group,
    elementary_abelian,
    holomorph,
    semidirect_product,
)


# Oracle: the coupling law checked one triple at a time, nothing vectorized.
def _first_coupling_failure(star, dot):
    n = star.order
    for x in range(n):
        xi = star.inv[x]
        for y in range(n):
            for z in range(n):
                lhs = dot.table[x, star.table[y, z]]
                rhs = star.table[star.table[dot.table[x, y], xi],
                                 dot.table[x, z]]
                if lhs != rhs:
                    return (x, y, z)
    return None


def _sd32():
    return semidirect_product(cyclic_group(3), cyclic_group(2),
                              np.array([[0, 1, 2], [0, 2, 1]], dtype=np.int32))


def _sd32_brace():
    from ybelab.groups import direct_product
    return SkewBrace(direct_product(cyclic_group(3), cyclic_group(2)), _sd32())


def _phi(G, psi):
    """phi(x) = x . psi(x)^-1, one element at a time."""
    return np.array([G.table[x, G.inv[psi[x]]] for x in range(G.order)])


def _abelian_map_star(G, psi):
    """x * y = phi(x) . y . psi(x), one entry at a time."""
    phi, n = _phi(G, psi), G.order
    return np.array([[G.table[G.table[phi[x], y], psi[x]] for y in range(n)]
                     for x in range(n)])


def _relabelled_c4():
    from ybelab.groups import FiniteGroup
    base = cyclic_group(4)
    perm = np.array([0, 1, 3, 2], dtype=np.int32)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(4)
    return FiniteGroup(perm[base.table[np.ix_(inv, inv)]])


def test_coupling_oracle_agrees_with_constructor():
    dot = _sd32()
    # Same-indexed pair (h*2+s): abelian star, twisted dot.
    star = semidirect_product(cyclic_group(3), cyclic_group(2),
                              np.tile(np.arange(3, dtype=np.int32), (2, 1)))
    assert _first_coupling_failure(star, dot) is None
    SkewBrace(star, dot)
    # Two copies of C4 with clashing labels violate the law straight away.
    witness = _first_coupling_failure(cyclic_group(4), _relabelled_c4())
    assert witness == (1, 1, 1)
    with pytest.raises(AxiomViolated):
        SkewBrace(cyclic_group(4), _relabelled_c4())


def test_mixed_structures_of_order_four_still_couple():
    # Additive C4 with multiplicative Klein group: a genuine brace.
    star, dot = cyclic_group(4), elementary_abelian(2, 2)
    assert _first_coupling_failure(star, dot) is None
    B = SkewBrace(star, dot)
    assert not np.array_equal(B.gamma, np.tile(np.arange(4), (4, 1)))


def test_verify_report_carries_the_brute_witness():
    star, dot = cyclic_group(4), _relabelled_c4()
    witness = _first_coupling_failure(star, dot)
    assert witness is not None
    report = verify_skew_brace(star.table, dot.table)
    assert not report.ok
    failure = report.first_failure()
    assert failure.name == "compat"
    assert tuple(failure.witness) == witness


def test_verify_rejects_broken_table_before_compat():
    dot = cyclic_group(4)
    bad = dot.table.copy()
    bad[1, 1] = 1
    report = verify_skew_brace(bad, dot.table)
    assert not report.ok
    assert report.first_failure().name.startswith("star.")


def test_trivial_brace_gamma_is_identity():
    B = trivial_brace(cyclic_group(4))
    assert np.array_equal(B.gamma, np.tile(np.arange(4), (4, 1)))


def test_semidirect_brace_gamma_twists_only_the_normal_part():
    B = _sd32_brace()
    # gamma_(h,s)(h',s') = (alpha_s(h'), s'), independent of h.
    alpha = np.array([[0, 1, 2], [0, 2, 1]])
    for x in range(6):
        s = x % 2
        for y in range(6):
            assert B.gamma[x, y] == 2 * alpha[s, y // 2] + y % 2


def test_gamma_is_multiplicative_for_the_dot_product():
    for B in (_sd32_brace(), trivial_brace(_sd32())):
        dot, gamma = B.dot, B.gamma
        composed = gamma[:, gamma]           # (x, y, z) -> gamma_x(gamma_y(z))
        assert np.array_equal(gamma[dot.table], composed)


def test_gamma_rows_are_star_automorphisms():
    B = _sd32_brace()
    st = B.star.table
    for x in range(6):
        g = B.gamma[x]
        assert np.array_equal(g[st], st[np.ix_(g, g)])


def test_abelian_map_constant_psi_gives_trivial_brace():
    G = _sd32()
    psi = (0,) * 6
    B = abelian_map_brace(G, psi)
    assert np.array_equal(B.star.table, G.table)


def test_abelian_map_inversion_on_cyclic_group():
    G = cyclic_group(5)
    psi = tuple((-i) % 5 for i in range(5))
    B = abelian_map_brace(G, psi)
    # phi(x) = x . psi(x)^-1 = 2x, star(x, y) = 2x + y - x = x + y here.
    assert np.array_equal(_phi(G, psi), (2 * np.arange(5)) % 5)
    assert np.array_equal(B.star.table, _abelian_map_star(G, psi))
    assert _first_coupling_failure(B.star, G) is None


def test_abelian_map_projection_on_order60_group():
    m = 15
    flip = (-np.arange(m, dtype=np.int32)) % m
    alpha = np.stack([np.arange(m, dtype=np.int32), flip, flip,
                      np.arange(m, dtype=np.int32)])
    G = semidirect_product(cyclic_group(m), elementary_abelian(2, 2), alpha)
    psi = tuple(i % 4 for i in range(60))
    B = abelian_map_brace(G, psi)
    assert np.array_equal(_phi(G, psi), 4 * (np.arange(60) // 4))
    assert np.array_equal(B.star.table, _abelian_map_star(G, psi))
    assert (B.star.table == B.star.table.T).all()
    assert _first_coupling_failure(B.star, G) is None
    # gamma stays multiplicative out here too.
    assert np.array_equal(B.gamma[G.table], B.gamma[:, B.gamma])


def test_abelian_map_rejects_nonabelian_image():
    """An automorphism of S3, whose image is all of S3, gives a star table
    that is not associative; the refusal names that law."""
    G = _sd32()
    psi = (0, 3, 2, 5, 4, 1)
    assert all(psi[G.table[a, b]] == G.table[psi[a], psi[b]] for a in range(6) for b in range(6))
    with pytest.raises(ConstructionFailed,
                       match=r"^star table is not a group: associativity FAIL at 1,1,1$"):
        abelian_map_brace(G, psi)


def test_abelian_map_judges_psi_by_its_result():
    """The brace proof is the one guard: the identity map of S3, whose image
    is not abelian, gives the opposite brace; a psi whose star table is not a
    group, or whose pair breaks the brace law, is refused naming the law."""
    G = _sd32()
    B = abelian_map_brace(G, tuple(range(6)))
    assert np.array_equal(B.star.table, G.table.T)
    assert _first_coupling_failure(B.star, G) is None
    refusals = {
        (0, 1, 4, 5, 2, 3):
            "star table is not a group: latin FAIL at 1 column 1 is not a permutation",
        (1, 0, 1, 4, 1, 2): "star table is not a group: identity FAIL no two-sided identity",
        (0, 2, 2, 0, 4, 4): "coupling law failed: compat FAIL at 1,1,1",
    }
    for psi, message in refusals.items():
        with pytest.raises(ConstructionFailed, match="^" + re.escape(message) + "$"):
            abelian_map_brace(G, psi)
    for psi in ((0,) * 5, (0,) * 5 + (6,), (0,) * 5 + (-1,)):
        with pytest.raises(ValueError):
            abelian_map_brace(G, psi)


def test_abelian_map_braces_of_the_catalog_are_the_formula():
    """Each abelian-map brace of the catalog, the dihedral ones of the stock
    pool with psi(i) = i mod 2 and the abelianmap ones with psi(i) = i mod 4,
    has the star table of x * y = x . psi(x)^-1 . y . psi(x), byte for byte."""
    dihedral = [B for B in catalog._brace_pool() if B.dot.name.startswith("D")]
    cases = [(B, tuple(i % 2 for i in range(B.order))) for B in dihedral]
    cases += [(abelianmap_instance(p, q).brace, tuple(i % 4 for i in range(4 * p * q)))
              for p, q in ((3, 5), (3, 7))]
    assert len(cases) == 8
    for B, psi in cases:
        expected = _abelian_map_star(B.dot, psi).astype(np.int32)
        assert B.star.table.tobytes() == expected.tobytes()


def test_strong_left_ideal_whole_group_and_twist_kernel():
    B = _sd32_brace()
    assert is_strong_left_ideal(B, B.dot.subgroup(range(6)))
    assert is_strong_left_ideal(B, B.dot.subgroup(range(2)))
    # The rotation part is gamma-stable and normal, hence also strong.
    assert is_strong_left_ideal(B, B.dot.subgroup((0, 2, 4)))


def test_strong_left_ideal_rejects_non_normal_subgroup():
    B = trivial_brace(_sd32())
    refl = B.dot.subgroup((0, 1))
    assert not is_strong_left_ideal(B, refl)


def test_strong_left_ideal_on_abelian_map_brace():
    G = _sd32()
    B = abelian_map_brace(G, (0,) * 6)
    assert is_strong_left_ideal(B, G.subgroup((0, 2, 4)))
    assert not is_strong_left_ideal(B, G.subgroup((0, 1)))


def test_strong_left_ideal_needs_gamma_stability(gl3f2):
    B = gl3f2.contained.brace
    # (G, *) is abelian and 2 has star order 2, so S is a star-normal subgroup.
    assert (B.star.table == B.star.table.T).all() and B.star.table[2, 2] == 0
    S = B.dot.subgroup((0, 2))
    assert set(B.gamma[:, 2].tolist()) - {0, 2}    # some gamma_x moves 2 out of S
    assert not is_strong_left_ideal(B, S)


def _abelian_map_braces():
    """(brace, psi) for the six dihedral braces of the catalog pool and the
    order-60 and order-84 abelianmap braces."""
    out = []
    for m in range(3, 9):
        arange = np.arange(m, dtype=np.int32)
        G = semidirect_product(cyclic_group(m), cyclic_group(2),
                               np.stack([arange, (-arange) % m]).astype(np.int32))
        psi = tuple(i % 2 for i in range(2 * m))
        out.append((abelian_map_brace(G, psi), psi))
    for p, q in ((3, 5), (3, 7)):
        B = abelianmap_instance(p, q).brace
        out.append((B, tuple(i % 4 for i in range(B.order))))
    return out


def _commutator_criterion(G, phi, S):
    """[G, phi(S)] <= S: every g . f . g^-1 . f^-1 with f in phi(S) lies in S."""
    members, image = set(S.elements), {int(phi[s]) for s in S.elements}
    t, inv = G.table, G.inv
    return all(int(t[t[t[g, f], inv[g]], inv[f]]) in members
               for g in range(G.order) for f in image)


def _two_generated(G):
    """Every subgroup of G generated by at most two elements, once each."""
    return sorted({tuple(sorted(closure(G.table, [a, b])))
                   for a in range(G.order) for b in range(a, G.order)})


def test_strong_left_ideal_matches_the_commutator_criterion():
    compared = ideals = 0
    for B, psi in _abelian_map_braces():
        G = B.dot
        phi = _phi(G, psi)
        for elements in _two_generated(G):
            S = Subgroup(G, elements)
            answer = is_strong_left_ideal(B, S)
            assert answer == _commutator_criterion(G, phi, S), (B, elements)
            compared += 1
            ideals += answer
    assert (compared, ideals) == (253, 81)


def _fact_braces(catalog_instances):
    """The stock pool, 40 seeded relabellings of it, and the catalog's
    braces and contained braces."""
    out = list(catalog._brace_pool()) + catalog.seeded_braces(random.Random(7), 40)
    out += [inst.brace for inst in catalog_instances if inst.brace is not None]
    out += [inst.contained.brace for inst in catalog_instances if inst.contained is not None]
    return out


def test_a_gamma_stable_dot_subgroup_is_a_star_subgroup(catalog):
    """is_strong_left_ideal tests gamma-stability and star normality only:
    gamma_a maps S onto S, so a * b = a . gamma_a^-1(b) lies in S.  Here the
    fact on every two-generated dot-subgroup of 87 braces, and the answer
    against the test that also asked for star closure and star inverses."""
    stable = unstable = 0
    for B in _fact_braces(catalog):
        st, sinv = B.star.table, B.star.inv
        for elements in _two_generated(B.dot):
            sel = np.asarray(elements)
            member = np.zeros(B.order, dtype=bool)
            member[sel] = True
            gamma_stable = bool(member[B.gamma[:, sel]].all())
            closed = bool(member[st[np.ix_(sel, sel)]].all() and member[sinv[sel]].all())
            normal = closed and bool(member[st[st[:, sel], sinv[:, None]]].all())
            assert closed or not gamma_stable, (B, elements)
            assert is_strong_left_ideal(B, Subgroup(B.dot, elements)) == (
                closed and normal and gamma_stable), (B, elements)
            stable += gamma_stable
            unstable += not gamma_stable
    assert (stable, unstable) == (533, 150)


def test_trivial_brace_solution_is_conjugation():
    G = _sd32()
    r = brace_solution(trivial_brace(G))
    assert np.array_equal(r.left, np.tile(np.arange(6), (6, 1)))
    for x in range(6):
        for y in range(6):
            assert r.right[x, y] == G.table[G.table[G.inv[y], x], y]


def test_semidirect_brace_solution_satisfies_braid_pointwise():
    r = brace_solution(_sd32_brace())

    def apply12(t):
        x, y, z = t
        return (int(r.left[x, y]), int(r.right[x, y]), z)

    def apply23(t):
        x, y, z = t
        return (x, int(r.left[y, z]), int(r.right[y, z]))

    for x in range(6):
        for y in range(6):
            for z in range(6):
                t = (x, y, z)
                lhs = apply12(apply23(apply12(t)))
                rhs = apply23(apply12(apply23(t)))
                assert lhs == rhs


def _assert_regular(B, sub, **kw):
    """The image moves the point 0 to every point exactly once."""
    orbit = holomorph(B.star, **kw).action.table[list(sub.elements), 0]
    assert sorted(orbit.tolist()) == list(range(B.order))


def test_regular_rep_lands_in_the_holomorph():
    B = trivial_brace(cyclic_group(4))
    sub = regular_rep_in_holomorph(B)
    # Aut(C4) has order 2; pure translations sit at even indices.
    assert sub.elements == (0, 2, 4, 6)
    _assert_regular(B, sub)

    B = _sd32_brace()
    sub = regular_rep_in_holomorph(B)
    assert len(sub.elements) == 6
    assert sub.as_group().order == 6
    _assert_regular(B, sub)


def test_regular_rep_of_order60_abelian_map_brace():
    m = 15
    flip = (-np.arange(m, dtype=np.int32)) % m
    alpha = np.stack([np.arange(m, dtype=np.int32), flip, flip,
                      np.arange(m, dtype=np.int32)])
    G = semidirect_product(cyclic_group(m), elementary_abelian(2, 2), alpha)
    B = abelian_map_brace(G, tuple(i % 4 for i in range(60)))
    sub = regular_rep_in_holomorph(B, max_order=2880)    # |Hol| = 60 * 48
    assert len(sub.elements) == 60
    _assert_regular(B, sub, max_order=2880)
