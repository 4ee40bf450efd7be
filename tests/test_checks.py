import tracemalloc
from unittest import mock

import numpy as np
import pytest

from ybelab import checks
from ybelab.braces import brace_solution
from ybelab.checks import (BLOCK_ENTRIES, Check, Report, _first_bad_row, _first_repeat,
                           _group_proof, find_identity, group_table_checks, map_closure)
from ybelab.groups import (FiniteGroup, NotAssociative, NotLatinSquare, cyclic_group,
                           elementary_abelian, holomorph, semidirect_product)
from ybelab.ybe import solution_from_bracoid, tilde_solution_from_bracoid

from grid import first_failing


def _names(checks):
    return [c.name for c in checks]


def test_clean_table_passes_all_four():
    checks = group_table_checks(cyclic_group(5).table)
    assert _names(checks) == ["latin", "identity", "associativity", "inverses"]
    assert all(c.ok for c in checks)


def test_prefix_is_prepended():
    checks = group_table_checks(cyclic_group(2).table, prefix="dot.")
    assert _names(checks) == ["dot.latin", "dot.identity",
                              "dot.associativity", "dot.inverses"]


def test_out_of_range_entry_blocks_the_rest():
    table = np.array([[0, 1], [1, 9]])
    checks = group_table_checks(table)
    assert not checks[0].ok and "out of range" in checks[0].detail
    assert all(not c.ok and "not evaluated" in c.detail for c in checks[1:])


def test_repeated_row_value_is_located():
    checks = group_table_checks(np.array([[0, 1], [1, 1]]))
    latin = checks[0]
    assert not latin.ok and latin.witness == (1,) and "row" in latin.detail


def test_malformed_shape():
    checks = group_table_checks(np.zeros((2, 3), dtype=np.int32))
    assert not checks[0].ok and "not square" in checks[0].detail


def test_identity_misplacement_reports_the_index():
    # Subtraction mod 3 has only a right identity.
    table = np.array([[(i - j) % 3 for j in range(3)] for i in range(3)])
    checks = group_table_checks(table)
    named = {c.name: c for c in checks}
    assert not named["identity"].ok
    shifted = np.array([[(i + j + 1) % 3 for j in range(3)] for i in range(3)])
    named = {c.name: c for c in group_table_checks(shifted)}
    assert not named["identity"].ok and named["identity"].witness == (2,)


def test_nonassociative_loop_witness_matches_brute_force():
    table = np.array([
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ])
    first = first_failing(checks._action_law_fails, (table, table), (5, 5, 5))
    named = {c.name: c for c in group_table_checks(table)}
    assert not named["associativity"].ok
    assert named["associativity"].witness == first


def test_associativity_can_be_skipped():
    """A loop with identity 0 and two-sided inverses that is not a group: only
    `trusted=True`, which no library call passes, builds a FiniteGroup on it."""
    loop = np.array([[int(c) for c in row] for row in "01234 10342 24013 32401 43120".split()])
    named = {c.name: c for c in group_table_checks(loop)}
    assert [c.name for c in named.values() if not c.ok] == ["associativity"]
    with pytest.raises(NotAssociative, match="associativity FAIL at 1,1,2"):
        FiniteGroup(loop)
    assert FiniteGroup(loop, trusted=True).order == 5


def test_find_identity():
    assert find_identity(cyclic_group(3).table) == 0
    shifted = [[(i + j + 1) % 3 for j in range(3)] for i in range(3)]
    assert find_identity(np.array(shifted)) == 2
    assert find_identity(np.array([[(i - j) % 3 for j in range(3)]
                                   for i in range(3)])) is None


def test_report_accessors():
    good = Check("a", True)
    bad = Check("b", False, (1, 2), "broken")
    report = Report((good, bad))
    assert not report.ok
    assert report.failures() == [bad]
    assert report.first_failure() is bad
    assert report["a"] is good
    with pytest.raises(KeyError):
        report["missing"]
    assert Report((good,)).first_failure() is None


def test_describe_lines():
    assert Check("law", True).describe() == "law PASS"
    text = Check("law", False, (3, 1), "left side").describe()
    assert text == "law FAIL at 3,1 left side"


# --- the blocked table scans against plain per-row and per-column oracles ---

def _oracle_table_checks(table, check_assoc):
    """The checks of _group_proof written out row by row and column by column."""
    t = table.tolist()
    n = len(t)
    idx = list(range(n))
    cols = [[t[r][c] for r in idx] for c in idx]
    out = [(r, c) for r in idx for c in idx if not 0 <= t[r][c] < n]
    if out:
        r, c = out[0]
        return [Check("latin", False, (r, c), f"entry {t[r][c]} out of range")] + [
            Check(nm, False, (), "not evaluated: entries out of range")
            for nm in ("identity", "associativity", "inverses")]
    bad_rows = [r for r in idx if sorted(t[r]) != idx]
    bad_cols = [c for c in idx if sorted(cols[c]) != idx]
    if bad_rows:
        latin = Check("latin", False, (bad_rows[0],), f"row {bad_rows[0]} is not a permutation")
    elif bad_cols:
        latin = Check("latin", False, (bad_cols[0],),
                      f"column {bad_cols[0]} is not a permutation")
    else:
        latin = Check("latin", True)
    units = [e for e in idx if t[e] == idx and cols[e] == idx]
    if not units:
        identity = Check("identity", False, (), "no two-sided identity")
    elif units[0] != 0:
        identity = Check("identity", False, (units[0],), f"identity at index {units[0]}, not 0")
    else:
        identity = Check("identity", True)
    if check_assoc:
        witness = first_failing(checks._action_law_fails, (table, table), (n, n, n))
        assoc = Check("associativity", witness is None, witness or ())
    else:
        assoc = Check("associativity", True, (), "skipped")
    no_right = [a for a in idx if 0 not in t[a]]
    one_sided = [a for a in idx if not no_right and t[t[a].index(0)][a] != 0]
    if no_right:
        inverses = Check("inverses", False, (no_right[0],), "no right inverse")
    elif one_sided:
        inverses = Check("inverses", False, (one_sided[0],), "right inverse is not left inverse")
    else:
        inverses = Check("inverses", True)
    return [latin, identity, assoc, inverses]


def _oracle_first_repeat(table):
    for x, row in enumerate(table.tolist()):
        first, second = {}, {}
        for i, v in enumerate(row):
            if v in first:
                second.setdefault(v, i)
            else:
                first[v] = i
        if second:
            v = min(second)
            return x, first[v], second[v]
    return None


def _relabel(table, perm):
    """The table of the same operation with each element x renamed perm[x]."""
    inv = np.argsort(perm)
    t = table[np.ix_(inv, inv)]
    inside = (t >= 0) & (t < len(perm))
    return np.where(inside, perm[np.where(inside, t, 0)], t)


def _damaged(rng, base, late):
    """base with one to three random damages; `late` is the least row or
    column index a damage may touch, to reach a later scan block."""
    t = base.copy()
    n = len(t)
    for _ in range(rng.integers(1, 4)):
        r, c, c2 = (int(v) for v in rng.integers(late, n, 3))
        kind = rng.integers(7)
        if kind == 0:                        # an out-of-range entry
            t[r, c] = (-1, n, n + 5)[rng.integers(3)]
        elif kind == 1:                      # a repeat in row r (and a column clash)
            t[r, c] = t[r, c2]
        elif kind == 2:                      # two rows swapped
            t[[r, c]] = t[[c, r]]
        elif kind == 3:                      # two entries of row r swapped: two bad columns
            t[r, [c, c2]] = t[r, [c2, c]]
        elif kind == 4:                      # relabelled: the identity may leave 0
            t = _relabel(t, rng.permutation(n))
        elif kind == 5:                      # relabelled, the identity kept at 0
            t = _relabel(t, np.concatenate(([0], 1 + rng.permutation(n - 1))))
        else:                                # two columns swapped
            t[:, [r, c]] = t[:, [c, r]]
    return t


def _bases():
    d4 = semidirect_product(cyclic_group(4), cyclic_group(2),
                            np.array([[0, 1, 2, 3], [0, 3, 2, 1]], dtype=np.int32))
    return [cyclic_group(1).table, cyclic_group(2).table, cyclic_group(5).table,
            elementary_abelian(2, 3).table, d4.table, cyclic_group(12).table]


def test_table_checks_equal_the_row_and_column_oracle():
    rng = np.random.default_rng(17)
    kinds = set()
    bases = _bases()
    for _ in range(300):
        base = bases[rng.integers(len(bases))]
        table = _damaged(rng, base, 0) if len(base) > 1 else base.copy()
        for check_assoc in (True, False):
            got = list(_group_proof.__wrapped__(table, check_assoc)[0])
            assert got == _oracle_table_checks(table, check_assoc)
            kinds.update((c.name, c.detail.split(" ")[0]) for c in got if not c.ok)
        if table.min() >= 0 and table.max() < len(table):
            assert _first_repeat(table) == _oracle_first_repeat(table)
            assert _first_repeat(table.T) == _oracle_first_repeat(table.T)
    assert {("latin", "entry"), ("latin", "row"), ("latin", "column"),
            ("identity", "identity"), ("identity", "no"), ("associativity", ""),
            ("inverses", "no"), ("inverses", "right")} <= kinds


def test_table_checks_find_witnesses_in_a_later_block():
    """Relabelled C260: a block holds 65536 // 260 = 252 rows, so damage at
    index 252 or above is found in the second block of the row or column scan."""
    n = 260
    assert BLOCK_ENTRIES // n == 252
    rng = np.random.default_rng(5)
    base = _relabel(cyclic_group(n).table, np.concatenate(([0], 1 + rng.permutation(n - 1))))
    row_damage = base.copy()
    row_damage[255, 258] = row_damage[255, 253]
    column_damage = base.copy()
    column_damage[256, [254, 259]] = column_damage[256, [259, 254]]
    assert group_table_checks(row_damage)[0].witness == (255,)
    assert group_table_checks(column_damage)[0].witness == (254,)
    for table in [row_damage, column_damage] + [_damaged(rng, base, 252) for _ in range(12)]:
        for check_assoc in (True, False):
            got = list(_group_proof.__wrapped__(table, check_assoc)[0])
            assert got == _oracle_table_checks(table, check_assoc)
        if table.min() >= 0 and table.max() < n:
            assert _first_repeat(table) == _oracle_first_repeat(table)
            assert _first_repeat(table.T) == _oracle_first_repeat(table.T)


def _catalog_groups(inst):
    yield inst.bracoid.G
    yield inst.bracoid.N
    for brace in (inst.brace, inst.contained and inst.contained.brace):
        if brace is not None:
            yield brace.star
            yield brace.dot


def test_a_group_is_proved_latin_without_a_scan(catalog):
    """Identity, associativity and inverses make a table a group, and a group
    is a Latin square: on a cleared memo, no catalog group and not Hol(C2^3)
    sorts a row or a column, while a table that fails them is still scanned."""
    tables = [G.table for inst in catalog for G in _catalog_groups(inst)]
    tables.append(holomorph(elementary_abelian(2, 3)).group.table)
    with mock.patch.dict(_group_proof.memo, clear=True), \
            mock.patch.object(checks, "_first_bad_row", wraps=_first_bad_row) as scan:
        for table in tables:
            FiniteGroup(table)
        assert len(_group_proof.memo) > 10 and scan.call_count == 0
        with pytest.raises(NotLatinSquare, match="row 1 is not a permutation"):
            FiniteGroup(np.array([[0, 1], [1, 1]]))
        assert scan.call_count == 1


def test_first_bad_row_on_rows_longer_than_a_block():
    m = BLOCK_ENTRIES + 3
    arr = np.tile(np.arange(m), (3, 1))
    assert _first_bad_row(arr) is None
    arr[2, 7] = m
    assert _first_bad_row(arr) == 2
    arr[1, [0, 1]] = 5
    assert _first_bad_row(arr) == 1


def test_table_proof_scratch_is_below_half_a_table():
    """Proving the 1344^2 table of Hol(C2^3) allocates under half a table
    more, with or without associativity (the range is read as min and max,
    rows, columns and inverses in blocks, Light's test in row blocks)."""
    table = holomorph(elementary_abelian(2, 3)).group.table
    for check_assoc in (False, True):
        # The kernels it calls meet the table for the first time, and the memo
        # holds only weak references to a large table.
        with mock.patch.dict(checks.generators.memo, clear=True), \
                mock.patch.dict(checks._action_law_holds.memo, clear=True):
            tracemalloc.start()
            try:
                report, _ = _group_proof.__wrapped__(table, check_assoc)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert all(c.ok for c in report)
        assert peak < table.nbytes / 2, (check_assoc, peak, table.nbytes)


def _closure_oracle(maps, cap):
    """(member set, kept) of map_closure by its definition, or None above cap
    members: a row is kept when it is not yet a member at its turn, and the
    members are the identity and every composition of kept rows."""
    members, kept = {tuple(range(len(maps[0])))}, []
    for g in map(tuple, np.asarray(maps).tolist()):
        if g in members:
            continue
        kept.append(g)
        frontier = list(members)
        while frontier:
            fresh = {tuple(a[i] for i in h) for a in frontier for h in kept} - members
            members |= fresh
            if len(members) > cap:
                return None
            frontier = list(fresh)
    return members, kept


def _closure_seen(maps, cap):
    out = map_closure(np.asarray(maps, dtype=np.int32), cap)
    if out is None:
        return None
    members, kept = out
    rows = [tuple(row) for row in members.tolist()]
    assert len(set(rows)) == len(rows) and rows[0] == tuple(range(members.shape[1]))
    return set(rows), [tuple(g) for g in np.asarray(kept).tolist()]


def _library_maps(inst):
    """The maps the derived-rack braid proof closes: s_X and the rack's y * x
    for the brace, bracoid and tilde solutions of a catalog instance."""
    cb = inst.contained
    for r in (brace_solution(inst.brace) if inst.brace is not None else None,
              cb and solution_from_bracoid(cb), cb and tilde_solution_from_bracoid(cb)):
        if r is not None:
            left, right = np.asarray(r.left), np.asarray(r.right)
            col = np.arange(r.size)[:, None]
            yield left
            yield left[col, right[col, np.argsort(left, axis=1)].T]


def test_map_closure_equals_its_definition(catalog):
    """Random permutation sets and maps, a single long cycle and every
    library-derived map: the member set and the kept rows are the
    definition's, and None exactly when it has more than cap members."""
    rng = np.random.default_rng(419)
    cases = [(np.roll(np.arange(300), 1)[None, :], 300), (np.roll(np.arange(300), 1)[None, :], 299)]
    for m in range(1, 8):
        for count in (1, 2, 4):
            cases.append((np.array([rng.permutation(m) for _ in range(count)]), 5040))
            cases.append((rng.integers(0, m, (count, m)), 30))
    cases += [(maps, len(maps)) for inst in catalog for maps in _library_maps(inst)]
    for maps, cap in cases:
        assert _closure_seen(maps, cap) == _closure_oracle(maps, cap), (maps.shape, cap)
