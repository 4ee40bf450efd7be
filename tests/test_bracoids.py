import random

import numpy as np
import pytest

from ybelab.braces import AxiomViolated, SkewBrace, is_strong_left_ideal, trivial_brace
from ybelab.bracoids import (
    ContainedBrace,
    NotRegular,
    NotStrongLeftIdeal,
    NotTransitive,
    SkewBracoid,
    contains_brace,
    from_holomorph_subgroup,
    from_strong_left_ideal,
    verify_bracoid,
)
from ybelab.catalog import promote_brace, seeded_braces
from ybelab.groups import (
    FiniteGroup,
    GroupAction,
    Subgroup,
    cyclic_group,
    holomorph,
    semidirect_product,
    stabilizer,
    subgroup_generated,
)
from ybelab.semibraces import bracoid_to_semibrace, decompose, semibrace_to_bracoid


# Oracle: the transitive coupling law on raw triples, one at a time.
def _first_law_failure(G, N, act):
    for x in range(G.order):
        base = act[x, 0]
        for eta in range(N.order):
            for mu in range(N.order):
                lhs = act[x, N.table[eta, mu]]
                rhs = N.table[N.table[act[x, eta], N.inv[base]], act[x, mu]]
                if lhs != rhs:
                    return (x, eta, mu)
    return None


def _sd32():
    return semidirect_product(cyclic_group(3), cyclic_group(2),
                              np.array([[0, 1, 2], [0, 2, 1]], dtype=np.int32))


def _relabelled_c4():
    base = cyclic_group(4)
    perm = np.array([0, 1, 3, 2], dtype=np.int32)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(4)
    return FiniteGroup(perm[base.table[np.ix_(inv, inv)]])


def test_law_oracle_matches_constructor_on_quotient():
    inst_bracoid = from_strong_left_ideal(
        SkewBrace(semidirect_product(cyclic_group(3), cyclic_group(2),
                                     np.tile(np.arange(3, dtype=np.int32),
                                             (2, 1))),
                  _sd32()),
        _sd32().subgroup(range(2)))
    assert _first_law_failure(inst_bracoid.G, inst_bracoid.N,
                              inst_bracoid.act.table) is None


def test_law_violation_is_caught_with_witness():
    G, N = _relabelled_c4(), cyclic_group(4)
    act = G.table
    assert _first_law_failure(G, N, act) == (1, 1, 1)
    with pytest.raises(AxiomViolated):
        SkewBracoid(G, N, act)
    report = verify_bracoid(G.table, N.table, act)
    assert not report.ok
    failure = report.first_failure()
    assert failure.name == "compat" and tuple(failure.witness) == (1, 1, 1)


def test_non_transitive_action_rejected():
    G = cyclic_group(2)
    with pytest.raises(NotTransitive):
        SkewBracoid(G, cyclic_group(2),
                    np.array([[0, 1], [0, 1]], dtype=np.int32))


def test_verify_reports_action_law_break():
    G = _sd32()
    act = G.table.copy()
    act[3, 4] = (act[3, 4] + 1) % 6
    report = verify_bracoid(G.table, G.table, act)
    assert not report.ok
    names = [c.name for c in report.checks if not c.ok]
    assert "action.law" in names


def test_verify_passes_on_regular_brace_action():
    G = _sd32()
    report = verify_bracoid(G.table, G.table, G.table)
    assert report.ok


def test_quotient_by_trivial_ideal_reproduces_the_brace():
    B = trivial_brace(_sd32())
    bracoid = from_strong_left_ideal(B, B.dot.subgroup([0]))
    assert np.array_equal(bracoid.N.table, B.star.table)
    assert np.array_equal(bracoid.act.table, B.dot.table)


def test_quotient_sizes_for_catalog_braces(semidirect32, abelianmap35):
    assert semidirect32.bracoid.N.order == 3
    assert stabilizer(semidirect32.bracoid.act, 0).order == 2
    assert abelianmap35.bracoid.N.order == 10
    assert stabilizer(abelianmap35.bracoid.act, 0).order == 6


def test_non_ideal_subgroup_rejected():
    B = trivial_brace(_sd32())
    with pytest.raises(NotStrongLeftIdeal):
        from_strong_left_ideal(B, B.dot.subgroup((0, 1)))


def test_holomorph_translations_give_the_regular_bracoid():
    N = cyclic_group(3)
    hol = holomorph(N)
    translations = hol.group.subgroup([hol.element(x, range(3)) for x in range(3)])
    bracoid = from_holomorph_subgroup(hol, translations)
    assert bracoid.G.order == 3
    assert stabilizer(bracoid.act, 0).order == 1
    assert np.array_equal(bracoid.act.table, N.table[bracoid.act.table[:, 0]])


def test_holomorph_subgroup_instances(gl3f2, cyclicpq52):
    assert gl3f2.bracoid.G.order == 168
    assert gl3f2.bracoid.N.order == 8
    assert stabilizer(gl3f2.bracoid.act, 0).order == 21
    assert cyclicpq52.bracoid.G.order == 20
    assert cyclicpq52.bracoid.N.order == 10
    assert stabilizer(cyclicpq52.bracoid.act, 0).order == 2


def test_non_transitive_holomorph_subgroup_rejected():
    N = cyclic_group(3)
    hol = holomorph(N)
    twists = hol.group.subgroup([hol.element(0, m) for m in hol.maps])
    with pytest.raises(NotTransitive):
        from_holomorph_subgroup(hol, twists)


def test_contains_brace_on_regular_bracoid_returns_everything():
    B = trivial_brace(cyclic_group(4))
    bracoid = from_strong_left_ideal(B, B.dot.subgroup([0]))
    cb = contains_brace(bracoid)
    assert cb is not None
    assert cb.H.elements == (0, 1, 2, 3)
    assert cb.S.elements == (0,)


def test_contains_brace_catalog_answers(semidirect32, gl3f2, cyclicpq52):
    assert semidirect32.contained is not None
    assert semidirect32.contained.H.elements == (0, 2, 4)
    assert gl3f2.contained is not None
    assert gl3f2.contained.H.order == 8
    # None is a certificate: every complement candidate was enumerated.
    assert cyclicpq52.contained is None
    assert contains_brace(cyclicpq52.bracoid) is None


def test_a_bracoid_builds_its_point_stabilizer_once(semidirect32, gl3f2, cyclicpq52):
    """The stabilizer of point 0 is one cached Subgroup per bracoid, which
    the complement search, the contained brace and the catalog detail share."""
    for inst in (semidirect32, gl3f2, cyclicpq52):
        S = inst.bracoid.S
        assert S is inst.bracoid.S and S == stabilizer(inst.bracoid.act, 0)
        assert inst.contained is None or inst.contained.S is S
    assert gl3f2.detail["stabilizer"] == 21 and cyclicpq52.detail["stabilizer"] == 2


def test_transport_structures(semidirect32, gl3f2):
    cb = semidirect32.contained
    assert sorted(cb.brace.star.element_orders) == [1, 3, 3]
    assert cb.brace.dot.order == 3
    orders = set(gl3f2.contained.brace.star.element_orders)
    assert orders == {1, 2}


def test_transport_rejects_wrong_size_complement(semidirect32):
    bracoid = semidirect32.bracoid
    with pytest.raises(NotRegular):
        ContainedBrace(bracoid, bracoid.G.subgroup((0, 1)))


def test_bracoid_gamma_is_a_star_automorphism(semidirect32):
    cb = semidirect32.contained
    st = cb.brace.star.table
    for x in range(cb.bracoid.G.order):
        twist = cb.gammaH[x]
        assert np.array_equal(twist[st], st[np.ix_(twist, twist)])
        assert sorted(twist.tolist()) == list(range(cb.brace.star.order))


def test_lambda_is_plain_position_for_a_trivial_brace():
    G = _sd32()
    B = trivial_brace(G)
    bracoid = from_strong_left_ideal(B, B.dot.subgroup([0]))
    cb = ContainedBrace(bracoid, bracoid.G.subgroup(range(6)))
    lr = cb.lambda_rho
    assert np.array_equal(lr.lam, np.tile(np.arange(6), (6, 1)))
    for y in range(6):
        for x in range(6):
            assert lr.rho[y, x] == G.table[G.table[G.inv[y], x], y]


def test_lambda_rho_subscript_laws(semidirect32):
    lr = semidirect32.contained.lambda_rho
    G = semidirect32.bracoid.G
    for x in range(6):
        for y in range(6):
            # lam is multiplicative, rho anti-multiplicative, in subscripts.
            for z in range(6):
                assert lr.lam[G.table[x, y], z] == lr.lam[x, lr.lam[y, z]]
                assert lr.rho[G.table[x, y], z] == lr.rho[y, lr.rho[x, z]]
            assert lr.rho[G.inv[x], lr.rho[x, y]] == y


def test_transport_onto_a_subgroup_of_an_equal_table(semidirect32):
    """H may live in a group whose table equals the acting group's without
    being the same object; the contained brace is then the one on G itself."""
    cb = semidirect32.contained
    G = cb.bracoid.G
    copied = FiniteGroup(G.table.copy(), name=G.name)
    again = ContainedBrace(cb.bracoid, Subgroup(copied, cb.H.elements))
    assert again.H.parent is copied and again.S == cb.S
    for a, b in [(again.brace.star.table, cb.brace.star.table), (again.actH, cb.actH),
                 (again.gammaH, cb.gammaH), (again.lambda_rho.lam, cb.lambda_rho.lam),
                 (again.lambda_rho.rho, cb.lambda_rho.rho)]:
        assert np.array_equal(a, b)


# --- the facts the constructions prove, checked on the acceptance battery
# and on promoted seeded braces ---

def _seeded():
    return seeded_braces(random.Random(20261019), 30)


def _contained(catalog):
    """The acceptance contained braces, the promoted seeded braces, and the
    contained braces semibrace_to_bracoid gives back for all of them."""
    first = [inst.contained for inst in catalog if inst.contained is not None]
    first += [promote_brace(B) for B in _seeded()]
    return first + [semibrace_to_bracoid(bracoid_to_semibrace(cb)) for cb in first]


def test_the_quotient_by_an_ideal_is_stabilized_by_the_ideal(catalog):
    """Each catalog ideal, and every cyclic ideal and the whole group of
    each catalog and seeded brace, is the stabilizer of its quotient."""
    cases = [(inst.brace, inst.detail.get("ideal", (0,))) for inst in catalog
             if inst.brace is not None] + [(B, (0,)) for B in _seeded()]
    seen = 0
    for B, ideal in cases:
        cyclic = [subgroup_generated(B.dot, [g]) for g in range(B.order)]
        for S in [B.dot.subgroup(ideal), B.dot.subgroup(range(B.order)), *cyclic]:
            if is_strong_left_ideal(B, S):
                stab = stabilizer(from_strong_left_ideal(B, S).act, 0)
                assert stab.parent is B.dot and stab.elements == S.elements
                seen += 1
    assert seen > 3 * len(cases)


def test_the_stabilizer_of_e_is_the_idempotent_set(catalog):
    for cb in _contained(catalog):
        sb = bracoid_to_semibrace(cb)
        assert semibrace_to_bracoid(sb).S.elements == decompose(sb).Epart


def test_the_contained_brace_keeps_the_tables_built_on_g_plus_e(catalog):
    for cb in _contained(catalog):
        sb = bracoid_to_semibrace(cb)
        plus, dot, n = sb.plus, sb.dot.table, sb.order
        hel = sorted({int(plus[x, 0]) for x in range(n)})
        pos = {h: i for i, h in enumerate(hel)}
        star = [[pos[int(plus[k, h])] for k in hel] for h in hel]      # h * k = k + h
        act = [[pos[int(plus[dot[x, h], 0])] for h in hel] for x in range(n)]
        back = semibrace_to_bracoid(sb)
        assert back.brace.star.table.tolist() == star
        assert back.actH.tolist() == act


def test_the_transported_action_is_an_action(catalog):
    """actH is the verified action conjugated by bij, so the identity and
    action laws that GroupAction re-proved on it hold: here on all pairs."""
    for cb in _contained(catalog):
        G, actH, m = cb.bracoid.G, cb.actH, cb.H.order
        assert actH.shape == (G.order, m) and not actH.flags.writeable
        assert np.array_equal(actH[0], np.arange(m))
        for g in range(G.order):                    # row h: actH[g*h] against actH[g] o actH[h]
            assert np.array_equal(actH[G.table[g]], actH[g][actH])


def test_the_twist_on_h_is_the_brace_gamma(catalog):
    for cb in _contained(catalog):
        assert np.array_equal(cb.gammaH[np.asarray(cb.H.elements)], cb.brace.gamma)


def test_orbit_times_stabilizer_is_the_group_order(catalog):
    actions = [inst.bracoid.act for inst in catalog]
    actions += [cb.bracoid.act for cb in _contained(catalog)]
    actions += [holomorph(N).action for N in (cyclic_group(6), _sd32())]
    for action in actions:
        for point in range(action.space_size):
            orbit = set(action.table[:, point].tolist())
            assert len(orbit) * stabilizer(action, point).order == action.actor.order
