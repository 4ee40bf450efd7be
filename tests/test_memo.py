"""The content-keyed memo of the law kernels (`checks.by_content`).

An array changed in place after a call must get a fresh verdict; a list
handed out must not be the one the memo holds; a table above
`MEMO_MAX_ENTRIES` entries, an argument with no exact contents or a call
that raises must leave the memo as it was.  That each memoised kernel
answers as the kernel it wraps is in test_fast_laws.py.
"""

from unittest import mock

import numpy as np
import pytest

from ybelab import braces, checks
from ybelab.groups import FiniteGroup, cyclic_group

KERNELS = (checks.group_table_checks, checks.generators, checks._action_law_holds,
           checks._rows_law_holds)


def test_kernels_keep_their_names():
    for kernel in KERNELS:
        assert kernel.__name__ == kernel.__wrapped__.__name__
        assert kernel.__module__ == kernel.__wrapped__.__module__


def test_an_array_changed_in_place_gets_a_fresh_verdict():
    table = cyclic_group(5).table.copy()
    assert all(c.ok for c in checks.group_table_checks(table))
    table[1, 1] = 3
    assert checks.group_table_checks(table) == checks.group_table_checks.__wrapped__(table)
    assert not checks.group_table_checks(table)[0].ok
    gt = cyclic_group(4).table
    act = gt.copy()
    assert checks._action_law_holds(gt, act)
    act[1] = act[3]
    assert not checks._action_law_holds(gt, act)


def test_a_returned_list_is_not_the_memo():
    """Neither the call that stores a list nor one that finds it hands it out."""
    table = cyclic_group(6).table
    with mock.patch.dict(checks.generators.memo, clear=True), \
            mock.patch.dict(checks.group_table_checks.memo, clear=True):
        for _ in range(2):
            checks.generators(table).append(99)
            checks.group_table_checks(table).clear()
        assert checks.generators(table) == [1]
        assert len(checks.group_table_checks(table)) == 4


def test_the_key_is_the_exact_contents():
    """Equal contents share an entry, whatever object holds them; another dtype
    does not."""
    table = cyclic_group(3).table
    with mock.patch.dict(checks.generators.memo, clear=True):
        checks.generators(table)
        checks.generators(table.copy())
        assert len(checks.generators.memo) == 1
        checks.generators(table.astype(np.int64))
        assert len(checks.generators.memo) == 2
    G = cyclic_group(4)
    with mock.patch.dict(checks._rows_law_holds.memo, clear=True):
        braces._compat_failure(G, G)
        braces._compat_failure(FiniteGroup(G.table), cyclic_group(4))
        assert len(checks._rows_law_holds.memo) == 1


@pytest.mark.parametrize("n, stored", [(64, 1), (65, 0)])
def test_only_tables_within_the_bound_are_stored(n, stored):
    assert (n * n <= checks.MEMO_MAX_ENTRIES) == bool(stored)
    G = cyclic_group(n)
    with mock.patch.dict(checks.group_table_checks.memo, clear=True), \
            mock.patch.dict(checks._action_law_holds.memo, clear=True):
        assert all(c.ok for c in checks.group_table_checks(G.table))
        assert checks._action_law_holds(G.table, G.table)
        assert len(checks.group_table_checks.memo) == stored
        assert len(checks._action_law_holds.memo) == stored


def test_arguments_without_contents_are_not_stored():
    table = cyclic_group(3).table
    with mock.patch.dict(checks.generators.memo, clear=True):
        assert checks.generators(table.tolist()) == [1]
        assert checks.generators(table.astype(object)) == [1]
        assert not checks.generators.memo


def test_a_kernel_that_raises_stores_nothing():
    gt = cyclic_group(2).table
    with mock.patch.dict(checks._action_law_holds.memo, clear=True):
        with pytest.raises(IndexError):
            checks._action_law_holds(gt, np.array([[0, 1], [5, 0]]))
        assert not checks._action_law_holds.memo


def test_each_memo_keeps_only_its_latest_keys(monkeypatch):
    monkeypatch.setattr(checks, "MEMO_MAX_KEYS", 2)
    tables = [cyclic_group(n).table for n in (2, 3, 4)]
    with mock.patch.dict(checks.generators.memo, clear=True):
        for table in tables:
            assert checks.generators(table) == [1]
        assert [key[0][1] for key in checks.generators.memo] == [(3, 3), (4, 4)]
        assert checks.generators(tables[0]) == [1]
        assert [key[0][1] for key in checks.generators.memo] == [(4, 4), (2, 2)]
