import random

import numpy as np
import pytest

import sweep_catalog
from ybelab import catalog
from ybelab.braces import verify_skew_brace
from ybelab.catalog import (
    CATALOG_NAMES,
    GL3F2_ORDER,
    SearchExhausted,
    UnknownExample,
    abelianmap_instance,
    acceptance_instances,
    build_example,
    cyclic_pq_instance,
    example_order,
    gl3f2_instance,
    promote_brace,
    seeded_braces,
    semidirect_instance,
    trivial_brace_instance,
)
from ybelab.groups import CapExceeded, NotPrime, is_transitive, stabilizer


def test_trivial_brace_arities():
    inst = trivial_brace_instance((4,))
    assert inst.brace.order == 4
    inst = trivial_brace_instance((3, 2))
    assert inst.brace.order == 6
    assert not (inst.brace.dot.table == inst.brace.dot.table.T).all()
    with pytest.raises(ValueError):
        trivial_brace_instance((1,))
    with pytest.raises(ValueError):
        trivial_brace_instance((2, 3, 4))


def test_semidirect_frozen_entry(semidirect32):
    # (1,0).(1,1) = (2,1) under the inverting action: index 2 . 3 = 5.
    assert semidirect32.brace.dot.table[2, 3] == 5
    assert (semidirect32.brace.star.table == semidirect32.brace.star.table.T).all()
    assert semidirect32.bracoid.S.elements == (0, 1)


def test_semidirect_rejects_bad_parameters():
    with pytest.raises(NotPrime):
        semidirect_instance(4, 2)
    with pytest.raises(ValueError):
        semidirect_instance(5, 3)  # 3 does not divide 4


def test_abelianmap_structure(abelianmap35):
    B = abelianmap35.brace
    assert B.order == 60
    # x * y = phi(x) . y . psi(x) with psi(x) = x mod 4 and phi(x) = x . psi(x)^-1.
    G, psi = B.dot, np.arange(60) % 4
    phi = G.table[np.arange(60), G.inv[psi]]
    assert np.array_equal(phi, 4 * (np.arange(60) // 4))
    assert all(B.star.table[x, y] == G.table[G.table[phi[x], y], psi[x]]
               for x in range(60) for y in range(60))
    assert abelianmap35.bracoid.N.order == 10
    assert abelianmap35.bracoid.S.order == 6
    assert abelianmap35.contained.H.order == 10


def test_abelianmap_rejects_bad_parameters():
    with pytest.raises(ValueError):
        abelianmap_instance(3, 3)
    with pytest.raises(ValueError):
        abelianmap_instance(2, 5)


def _tables(inst) -> tuple:
    """The G, N and action tables of an instance's bracoid, as lists."""
    bc = inst.bracoid
    return bc.G.table.tolist(), bc.N.table.tolist(), bc.act.table.tolist()


def test_gl3f2_instance_is_deterministic_per_seed(gl3f2):
    assert gl3f2.bracoid.G.order == GL3F2_ORDER
    assert gl3f2.bracoid.S.order == 21
    assert is_transitive(gl3f2.bracoid.act)
    assert _tables(gl3f2_instance(seed=0)) == _tables(gl3f2)


def test_gl3f2_search_can_exhaust(monkeypatch):
    monkeypatch.setattr(catalog, "GL3F2_ATTEMPT_CAP", 2)
    with pytest.raises(SearchExhausted):
        gl3f2_instance(seed=0)


def test_cyclic_pq_quantities(cyclicpq52):
    assert cyclicpq52.bracoid.G.order == 20
    assert cyclicpq52.bracoid.S.order == 2
    assert stabilizer(cyclicpq52.bracoid.act, 0).order == 2
    assert cyclicpq52.contained is None


def test_cyclic_pq_builds_hol_up_to_pq_64():
    """Hol(C57) has order 57 * 36 = 2052, above groups.MAX_ORDER, and is built;
    pq = 74 is refused before any holomorph is."""
    inst = cyclic_pq_instance(19, 3)
    assert inst.bracoid.G.order == 171 and inst.contained is None
    with pytest.raises(CapExceeded, match=r"^\|C74\| = 74 exceeds 64: Hol\(C74\) is not built$"):
        cyclic_pq_instance(37, 2)


def test_cyclic_pq_rejects_bad_parameters():
    with pytest.raises(ValueError):
        cyclic_pq_instance(7, 2)  # 4 does not divide 6
    with pytest.raises(NotPrime):
        cyclic_pq_instance(9, 2)


def test_promote_brace_keeps_the_tables(semidirect32):
    B = semidirect32.brace
    cb = promote_brace(B)
    assert cb.S.elements == (0,)
    assert np.array_equal(cb.brace.star.table, B.star.table)
    assert np.array_equal(cb.brace.dot.table, B.dot.table)


def test_seeded_braces_are_valid_and_reproducible():
    braces = seeded_braces(random.Random(11), 25)
    assert len(braces) == 25
    assert {b.order for b in braces} <= set(range(2, 17))
    for b in braces:
        assert verify_skew_brace(b.star.table, b.dot.table).ok
    again = seeded_braces(random.Random(11), 25)
    for a, b in zip(braces, again):
        assert np.array_equal(a.star.table, b.star.table)
        assert np.array_equal(a.dot.table, b.dot.table)
    # Relabelling really happens: some draw differs from every stock table.
    mixed = seeded_braces(random.Random(3), 10)
    assert any(not np.array_equal(b.gamma, np.tile(np.arange(b.order),
                                                   (b.order, 1)))
               for b in mixed)


def test_build_example_dispatch(gl3f2):
    inst = build_example("semidirect", (3, 2))
    assert inst.name == "semidirect"
    inst = build_example("trivial-brace")
    assert inst.params == (3, 2)
    assert _tables(build_example("gl3f2")) == _tables(gl3f2)
    with pytest.raises(UnknownExample):
        build_example("nope")


def test_example_order_is_the_built_order(catalog):
    for inst in catalog:
        assert example_order(inst.name, inst.params) == inst.bracoid.G.order
    assert example_order("abelianmap", (5, 13)) == 260
    assert example_order("trivial-brace") == 6
    with pytest.raises(UnknownExample):
        example_order("nope")
    with pytest.raises(ValueError):
        example_order("cyclic-pq", (5,))


@pytest.mark.parametrize("name, params", [
    ("gl3f2", (5, 7)), ("semidirect", (3,)), ("abelianmap", (3,)), ("cyclic-pq", (5, 2, 1)),
    ("trivial-brace", (2, 3, 5)), ("nope", ()),
])
def test_build_example_refuses_what_example_order_refuses(name, params):
    with pytest.raises(ValueError) as order_refusal:
        example_order(name, params)
    with pytest.raises(ValueError) as build_refusal:
        build_example(name, params)
    assert type(build_refusal.value) is type(order_refusal.value)
    assert str(build_refusal.value) == str(order_refusal.value)


def test_acceptance_battery_composition():
    instances = acceptance_instances(seed=0)
    assert [i.name for i in instances] == \
        ["trivial-brace"] * 6 + ["semidirect", "abelianmap", "gl3f2",
                                 "cyclic-pq"]
    assert sorted(CATALOG_NAMES) == sorted({i.name for i in instances})


def test_every_family_at_every_legal_parameter_up_to_order_64():
    """The sweep of tests/sweep_catalog.py at |G| <= 64: each of the 95
    instances of the four parameterised families matches its closed forms,
    its round trips and its derived solutions."""
    todo = sweep_catalog.cases(64)
    assert len(todo) == 95
    assert {family for family, _ in todo} == set(CATALOG_NAMES) - {"gl3f2"}
    assert [line for family, params in todo
            for line in sweep_catalog.mismatches(family, params)] == []
