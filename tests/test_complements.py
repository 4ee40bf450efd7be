"""The coset-branching complement search against the element-branching one.

`_oracle_complements` is the search `find_complements` used before it
branched on cosets: a BFS over subgroups grown one generator at a time,
each candidate closure rebuilt from scratch.  It is slow and obviously
exhaustive, so the fast search must return the same element tuples in the
same order on every input below.
"""

import random
from collections import deque
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ybelab.catalog import abelianmap_instance, promote_brace, seeded_braces
from ybelab.checks import closure
from ybelab.groups import (
    Subgroup,
    cyclic_group,
    direct_product,
    elementary_abelian,
    find_complements,
    holomorph,
    stabilizer,
    subgroup_generated,
)


def _oracle_complements(G, S):
    n = G.order
    m = n // S.order
    table = G.table
    orders = G.element_orders
    s_nontrivial = set(S.elements) - {0}
    visited: dict[tuple[int, ...], tuple[int, ...]] = {(0,): ()}
    queue = deque([((0,), ())])
    results: list[tuple[int, ...]] = []
    while queue:
        elems, gens = queue.popleft()
        if len(elems) == m:
            results.append(elems)
            continue
        members = set(elems)
        for g in range(1, n):
            if g in members or g in s_nontrivial or m % int(orders[g]) != 0:
                continue
            new = closure(table, gens + (g,), cap=m)
            if new is None or m % len(new) != 0:
                continue
            if s_nontrivial.intersection(new):
                continue
            key = tuple(sorted(new))
            if key not in visited:
                visited[key] = gens + (g,)
                queue.append((key, gens + (g,)))
    out = [Subgroup(G, k) for k in sorted(results)]
    for H in out:                   # an exact factorization G = HS
        assert set(H.elements) & set(S.elements) == {0} and H.order * S.order == n
    return out


def _same_as_oracle(G, S) -> list[Subgroup]:
    fast = find_complements(G, S)
    assert [H.elements for H in fast] == [H.elements for H in _oracle_complements(G, S)]
    return fast


def test_catalog_stabilizers_match_the_oracle(catalog):
    for inst in catalog:
        bc = inst.bracoid
        comps = _same_as_oracle(bc.G, stabilizer(bc.act, 0))
        assert (inst.contained is None) == (not comps)
        if inst.name == "cyclic-pq":
            assert comps == []


def test_promoted_brace_stabilizers_match_the_oracle():
    for B in seeded_braces(random.Random(20261019), 30):
        bc = promote_brace(B).bracoid
        assert [H.elements for H in _same_as_oracle(bc.G, stabilizer(bc.act, 0))] == [
            tuple(range(B.order))]


@pytest.mark.parametrize("p, q", [(3, 11), (5, 13)])
def test_large_abelianmap_stabilizers_match_the_oracle(p, q):
    bc = abelianmap_instance(p, q).bracoid
    assert _same_as_oracle(bc.G, stabilizer(bc.act, 0))


@cache
def _hol(name: str):
    if name == "C2xC2":
        N = direct_product(cyclic_group(2), cyclic_group(2))
    elif name == "C4xC2":
        N = direct_product(cyclic_group(4), cyclic_group(2))
    elif name == "C2^3":
        N = elementary_abelian(2, 3)
    else:
        N = cyclic_group(int(name[1:]))
    return holomorph(N)


@pytest.mark.parametrize("name", [*(f"C{k}" for k in range(2, 9)), "C2xC2", "C4xC2", "C2^3"])
def test_regular_subgroups_of_holomorphs_match_the_oracle(name):
    hol = _hol(name)
    # The regular subgroups of Hol(N): the complements of the point stabilizer.
    assert _same_as_oracle(hol.group, stabilizer(hol.action, 0))


def test_regular_subgroups_of_hol_c2_cubed_act_regularly():
    hol = _hol("C2^3")
    comps = find_complements(hol.group, stabilizer(hol.action, 0))
    assert len(comps) == 232
    for H in comps:
        rows = hol.action.table[np.asarray(H.elements)]
        assert sorted(rows[:, 0].tolist()) == list(range(8))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_generated_subgroups_match_the_oracle(catalog, data):
    """The `complements` command's path: S generated by 0-2 chosen elements."""
    G = data.draw(st.sampled_from([inst.bracoid.G for inst in catalog]))
    gens = data.draw(st.lists(st.integers(0, G.order - 1), max_size=2))
    _same_as_oracle(G, subgroup_generated(G, gens))
