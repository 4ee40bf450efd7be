"""The content-keyed memo of the law kernels (`checks.by_content`).

An array changed in place after a call must get a fresh verdict; a list
handed out must not be the one the memo holds; an argument with no exact
contents or a call that raises must leave the memo as it was.  A table
above `MEMO_MAX_ENTRIES` entries is keyed by its identity when
`checks.frozen` made it, which nothing can make writable again, and runs
its kernel unmemoised otherwise.  That each memoised kernel answers as the
kernel it wraps is in test_fast_laws.py.
"""

import weakref
from collections import Counter
from unittest import mock

import numpy as np
import pytest

from ybelab import braces, catalog, checks, cli, files
from ybelab.groups import FiniteGroup, cyclic_group
from ybelab.ybe import SolutionMap

KERNELS = (checks._group_proof, checks.generators, checks._action_law_holds,
           checks._rows_law_holds, checks._first_repeat)


def test_kernels_keep_their_names():
    for kernel in KERNELS:
        assert kernel.__name__ == kernel.__wrapped__.__name__
        assert kernel.__module__ == kernel.__wrapped__.__module__


def test_an_array_changed_in_place_gets_a_fresh_verdict():
    table = cyclic_group(5).table.copy()
    assert all(c.ok for c in checks.group_table_checks(table))
    table[1, 1] = 3
    assert checks.group_table_checks(table) == list(checks._group_proof.__wrapped__(table, True)[0])
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
            mock.patch.dict(checks._group_proof.memo, clear=True):
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
    """A table within the bound stores its verdict under its bytes; a larger
    one that `checks.frozen` did not make stores nothing."""
    assert (n * n <= checks.MEMO_MAX_ENTRIES) == bool(stored)
    table = cyclic_group(n).table.copy()
    with mock.patch.dict(checks._group_proof.memo, clear=True), \
            mock.patch.dict(checks._action_law_holds.memo, clear=True):
        assert all(c.ok for c in checks.group_table_checks(table))
        assert checks._action_law_holds(table, table)
        for memo in (checks._group_proof.memo, checks._action_law_holds.memo):
            assert len(memo) == stored


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


# --- tables above the bound ---

def _counted(kernel):
    """Patch a memoised kernel's wrapped function to count its runs."""
    runs = []
    inner = kernel.__wrapped__

    def counting(*args, **kwargs):
        runs.append(args)
        return inner(*args, **kwargs)

    return mock.patch.object(kernel, "__wrapped__", counting), runs


def test_a_frozen_table_is_found_by_identity():
    """A frozen 65 x 65 table is proved once however often it is named; an
    equal copy that is not frozen runs the kernel at every call."""
    table = cyclic_group(65).table
    patch, runs = _counted(checks._group_proof)
    with patch, mock.patch.dict(checks._group_proof.memo, clear=True):
        for _ in range(3):
            checks._group_proof(table, True)
        assert len(runs) == 1
        (key,) = checks._group_proof.memo
        assert key[0] == ("id", id(table))
        copy = table.copy()
        for _ in range(2):
            checks._group_proof(copy, True)
        assert len(runs) == 3 and len(checks._group_proof.memo) == 1


def test_an_entry_lives_as_long_as_its_table():
    """The entry of a frozen table leaves when the table dies, and an entry
    whose table died, found under its reused id, is a miss."""
    memo = checks._group_proof.memo
    with mock.patch.dict(memo, clear=True):
        table = checks.frozen(np.array(cyclic_group(65).table))
        checks.group_table_checks(table)
        assert len(memo) == 1
        del table
        assert not memo
        good, dead = cyclic_group(65).table, weakref.ref(checks.frozen(np.zeros(1)))
        assert dead() is None
        wrong = ((checks.Check("latin", False),), None)
        memo[(("id", id(good)), ("bool", True))] = (wrong, (dead,))
        assert all(c.ok for c in checks.group_table_checks(good))


def test_a_frozen_table_cannot_be_made_writable():
    """frozen hands out a view of a read-only owner, and numpy refuses to
    make such a view writable; an input that does not own its memory is
    copied first, as its owner could be."""
    owner = np.array(cyclic_group(65).table)
    for given in (owner, owner[:]):
        table = checks.frozen(given)
        with pytest.raises(ValueError):
            table.setflags(write=True)
        assert checks.is_frozen(table) and not checks.is_frozen(given)
    assert not owner.flags.writeable


def test_a_frozen_transpose_is_a_frozen_view():
    """The transpose of a frozen table shares its read-only memory, so it is
    found by identity like the table, at no copy; a group and a solution map
    each make theirs once.  Only a table that frozen made has one."""
    G = cyclic_group(65)
    view = G.opposite
    assert view is G.opposite and checks.is_frozen(view)
    assert np.shares_memory(view, G.table) and np.array_equal(view, G.table.T)
    with pytest.raises(ValueError):
        view.setflags(write=True)
    r = SolutionMap(G.table, G.table)
    assert r.right_t is r.right_t and np.shares_memory(r.right_t, r.right)
    patch, runs = _counted(checks._first_repeat)
    with patch, mock.patch.dict(checks._first_repeat.memo, clear=True):
        for _ in range(3):
            assert checks._first_repeat(view) is None
        assert len(runs) == 1
    with pytest.raises(ValueError, match="only a table that frozen made"):
        checks.frozen_transpose(np.array(G.table))


def test_a_table_written_after_its_call_gets_a_fresh_verdict():
    """A caller that makes its read-only table writable again and changes it
    gets a verdict on the new contents, also once it freezes the table again:
    its own array is not frozen, so it is never memoised."""
    table = cyclic_group(65).table.copy()
    table.setflags(write=False)
    with mock.patch.dict(checks._group_proof.memo, clear=True):
        for _ in range(3):
            assert all(c.ok for c in checks.group_table_checks(table))
        table.setflags(write=True)
        table[1, 1] = 3
        fresh = list(checks._group_proof.__wrapped__(table, True)[0])
        assert not fresh[0].ok
        assert checks.group_table_checks(table) == fresh
        table.setflags(write=False)
        for _ in range(3):
            assert checks.group_table_checks(table) == fresh
        assert not checks._group_proof.memo


def test_a_group_takes_its_inverses_from_the_proof(monkeypatch):
    """FiniteGroup.inv is _right_inverses of the table on every group that
    building the catalog makes."""
    made = []
    init = FiniteGroup.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(FiniteGroup, "__init__", recording)
    catalog.acceptance_instances(0)
    catalog._brace_pool()
    assert len(made) > 100
    for G in made:
        assert np.array_equal(G.inv, checks._right_inverses(G.table))
        assert not G.inv.flags.writeable


def _large(arg) -> bool:
    return getattr(arg, "size", 0) > checks.MEMO_MAX_ENTRIES


def test_a_roundtrip_proves_each_frozen_table_once(tmp_path, capsys):
    """derive semibrace-from-bracoid --roundtrip on an order-132 bracoid runs
    each memoised kernel at most once on any one frozen table object."""
    bc = catalog.abelianmap_instance(3, 11).bracoid
    assert bc.G.order == 132
    path = tmp_path / "bracoid.txt"
    path.write_text(files.write_bracoid(bc.G, bc.N, bc.act.table))
    patches, counted = [], {}
    for kernel in KERNELS:
        patch, runs = _counted(kernel)
        patches.append(patch)
        counted[kernel.__name__] = runs
    with mock.patch.dict(checks._group_proof.memo, clear=True):
        for kernel in KERNELS:
            patches.append(mock.patch.dict(kernel.memo, clear=True))
        for patch in patches:
            patch.start()
        try:
            code = cli.main(["derive", "semibrace-from-bracoid", str(path), "--roundtrip",
                             "--out", str(tmp_path / "out")])
        finally:
            for patch in reversed(patches):
                patch.stop()
    assert code == 0, capsys.readouterr().out
    # A run with a large table that is not frozen is not memoised.  The runs
    # hold their arguments, so no id below is reused by another table.
    for name, runs in counted.items():
        memoised = Counter(
            tuple(id(a) if large else a.tobytes() if isinstance(a, np.ndarray) else a
                  for a, large in zip(args, map(_large, args)))
            for args in runs
            if any(map(_large, args)) and all(map(checks.is_frozen, filter(_large, args))))
        assert max(memoised.values(), default=0) <= 1, (name, sorted(memoised.values()))
    assert counted["_group_proof"] and counted["_action_law_holds"]
