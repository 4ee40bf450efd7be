"""The content-keyed memo of the law kernels (`checks.by_content`).

An array changed in place after a call must get a fresh verdict; a list
handed out must not be the one the memo holds; an argument with no exact
contents or a call that raises must leave the memo as it was.  A table
above `MEMO_MAX_ENTRIES` entries is keyed by a digest, and a hit on it is
proved against the memo's own copy, so a digest collision is a miss.  That
each memoised kernel answers as the kernel it wraps is in test_fast_laws.py.
"""

from collections import Counter
from unittest import mock

import numpy as np
import pytest

from ybelab import braces, catalog, checks, cli, files
from ybelab.groups import FiniteGroup, cyclic_group

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
    """At its first call a table within the bound stores its verdict; a larger
    one stores its key alone."""
    assert (n * n <= checks.MEMO_MAX_ENTRIES) == bool(stored)
    G = cyclic_group(n)
    with mock.patch.dict(checks._group_proof.memo, clear=True), \
            mock.patch.dict(checks._action_law_holds.memo, clear=True):
        assert all(c.ok for c in checks.group_table_checks(G.table, check_assoc=False))
        assert checks._action_law_holds(G.table, G.table)
        for memo in (checks._group_proof.memo, checks._action_law_holds.memo):
            assert len(memo) == 1
            assert sum(isinstance(entry, tuple) for entry in memo.values()) == stored


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


def test_a_large_table_is_keyed_then_copied_then_found():
    """First sight stores the key alone, the second the memo's own read-only
    copy, and the third is answered by comparing against that copy."""
    table = cyclic_group(65).table
    patch, runs = _counted(checks._group_proof)
    with patch, mock.patch.dict(checks._group_proof.memo, clear=True):
        memo = checks._group_proof.memo
        checks._group_proof(table, True)
        (entry,) = memo.values()
        assert not isinstance(entry, tuple) and len(runs) == 1
        checks._group_proof(table, True)
        (entry,) = memo.values()
        (copy,) = entry[1]
        assert len(runs) == 2
        assert copy is not table and np.array_equal(copy, table) and not copy.flags.writeable
        checks._group_proof(table.copy(), True)
        assert len(runs) == 2


def test_a_forged_digest_collision_is_a_miss(monkeypatch):
    """With every digest equal, two different 65 x 65 tables share one key, and
    each still gets its own verdict."""
    monkeypatch.setattr(checks, "_digest", lambda table: 0)
    good = cyclic_group(65).table
    bad = good.copy()
    bad[[1, 2]] = bad[[2, 1]]
    bad[:, [1, 2]] = bad[:, [2, 1]]
    bad[3, 4], bad[3, 5] = bad[3, 5], bad[3, 4]
    truth = {name: list(checks._group_proof.__wrapped__(t, True)[0])
             for name, t in (("good", good), ("bad", bad))}
    assert all(c.ok for c in truth["good"]) and not all(c.ok for c in truth["bad"])
    with mock.patch.dict(checks._group_proof.memo, clear=True):
        for name in ("good", "bad") * 3:
            table = good if name == "good" else bad
            assert checks.group_table_checks(table) == truth[name]
        assert len(checks._group_proof.memo) == 1


def test_a_table_written_after_its_call_gets_a_fresh_verdict():
    """A caller that makes its read-only table writable again and changes it
    is not answered from the copy of the old contents, also once it freezes
    the table again under the digest kept for the old contents."""
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


def test_the_bytes_bound_drops_the_oldest_copy(monkeypatch):
    tables = [cyclic_group(n).table for n in (65, 66, 67)]
    monkeypatch.setattr(checks, "MEMO_MAX_BYTES", tables[1].nbytes + tables[2].nbytes)
    with mock.patch.dict(checks.generators.memo, clear=True):
        memo = checks.generators.memo
        for table in tables:
            checks.generators(table)
            checks.generators(table)
        held = [entry[1][0].shape for entry in memo.values()]
        assert held == [(66, 66), (67, 67)]
        patch, runs = _counted(checks.generators)
        with patch:
            checks.generators(tables[2])
            checks.generators(tables[0])
        assert runs == [(tables[0],)]


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


def test_a_roundtrip_proves_each_large_table_at_most_twice(tmp_path, capsys):
    """derive semibrace-from-bracoid --roundtrip on an order-132 bracoid runs
    each memoised kernel at most twice on any one content."""
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
    for name, runs in counted.items():
        contents = Counter(tuple(a.tobytes() if isinstance(a, np.ndarray) else a for a in args)
                           for args in runs
                           if any(getattr(a, "size", 0) > checks.MEMO_MAX_ENTRIES for a in args))
        assert max(contents.values(), default=0) <= 2, (name, sorted(contents.values()))
    assert counted["_group_proof"] and counted["_action_law_holds"]
