from collections import Counter
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from ybelab import checks, semibraces

from ybelab.braces import AxiomViolated, SkewBrace, trivial_brace
from ybelab.bracoids import contains_brace, from_strong_left_ideal
from ybelab.catalog import promote_brace
from ybelab.groups import FiniteGroup, cyclic_group, semidirect_product
from ybelab.semibraces import (
    Decomposition,
    Semibrace,
    bracoid_to_semibrace,
    decompose,
    roundtrip_check,
    semibrace_to_bracoid,
    verify_semibrace,
)


# Oracle: the coupling relation checked one triple at a time.
def _first_relation_failure(dot, plus):
    n = dot.order
    for x in range(n):
        xi = dot.inv[x]
        for y in range(n):
            for z in range(n):
                lhs = dot.table[x, plus[y, z]]
                rhs = plus[dot.table[x, y], dot.table[x, plus[xi, z]]]
                if lhs != rhs:
                    return (x, y, z)
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


def test_plus_equal_dot_is_a_semibrace():
    G = _sd32()
    assert _first_relation_failure(G, G.table) is None
    sb = Semibrace(G, G.table)
    # x(x^-1 + y) collapses to y when + and . coincide.
    assert np.array_equal(sb.L, np.tile(np.arange(6), (6, 1)))


def test_semibrace_copies_the_callers_plus_table():
    """The caller's plus table stays writable, and a write to it does not
    reach the semibrace."""
    G = _sd32()
    plus = np.array(G.table)
    sb = Semibrace(G, plus)
    assert plus.flags.writeable and not np.shares_memory(sb.plus, plus)
    plus[...] = 0
    assert np.array_equal(sb.plus, G.table) and not sb.plus.flags.writeable


def test_opposite_plus_is_a_semibrace_with_conjugation_L():
    G = _sd32()
    plus = np.ascontiguousarray(G.table.T)
    assert _first_relation_failure(G, plus) is None
    sb = Semibrace(G, plus)
    for x in range(6):
        for y in range(6):
            assert sb.L[x][y] == G.table[G.table[x, y], G.inv[x]]


def test_relation_oracle_matches_verify_witness():
    dot, plus = _relabelled_c4(), cyclic_group(4).table
    witness = _first_relation_failure(dot, plus)
    assert witness == (1, 0, 2)
    report = verify_semibrace(dot.table, plus)
    assert not report.ok
    failure = report.first_failure()
    assert failure.name == "compat" and tuple(failure.witness) == witness
    with pytest.raises(AxiomViolated):
        Semibrace(dot, plus)


def test_constant_rows_fail_cancellativity():
    G = cyclic_group(3)
    plus = np.zeros((3, 3), dtype=np.int32)
    report = verify_semibrace(G.table, plus)
    failed = [c.name for c in report.checks if not c.ok]
    assert "plus.cancellative" in failed
    # The relation is skipped rather than run on junk.
    compat = [c for c in report.checks if c.name == "compat"][0]
    assert not compat.ok
    assert "not evaluated" in (compat.detail or "")


def test_identity_row_is_forced():
    G = _sd32()
    sb = Semibrace(G, np.ascontiguousarray(G.table.T))
    assert list(sb.plus[0]) == list(range(6))
    assert list(sb.L[0]) == list(range(6))


def test_promoted_brace_plus_is_the_opposite_star(semidirect32):
    for B in (trivial_brace(_sd32()), semidirect32.brace):
        sb = bracoid_to_semibrace(promote_brace(B))
        assert np.array_equal(sb.plus, B.star.table.T)
        opposite = SkewBrace(FiniteGroup(B.star.table.T.copy()), B.dot)
        assert np.array_equal(sb.L, opposite.gamma)


def test_decompose_trivial_and_brace_extremes():
    B = trivial_brace(cyclic_group(4))
    # Quotient by everything: one point, all of G stabilizes.
    cb = contains_brace(from_strong_left_ideal(B, B.dot.subgroup(range(4))))
    sb = bracoid_to_semibrace(cb)
    dec = decompose(sb)
    assert dec.Hpart == (0,) and dec.Epart == (0, 1, 2, 3)
    assert np.array_equal(sb.plus, np.tile(np.arange(4), (4, 1)))
    # Promoted brace: everything is G+e, only e is idempotent.
    dec = decompose(bracoid_to_semibrace(promote_brace(B)))
    assert dec.Hpart == (0, 1, 2, 3) and dec.Epart == (0,)


def test_decompose_catalog_sizes(semidirect32, gl3f2):
    sb = bracoid_to_semibrace(semidirect32.contained)
    dec = decompose(sb)
    assert len(dec.Epart) == 2 and len(dec.Hpart) == 3
    dec = decompose(bracoid_to_semibrace(gl3f2.contained))
    assert len(dec.Hpart) == 8 and len(dec.Epart) == 21


def test_trivial_brace_semibrace_is_the_opposite_group():
    G = _sd32()
    sb = bracoid_to_semibrace(promote_brace(trivial_brace(G)))
    for x in range(6):
        for y in range(6):
            assert sb.plus[x, y] == G.table[y, x]


def test_semibrace_to_bracoid_collapses_projection():
    G = _sd32()
    sb = Semibrace(G, np.tile(np.arange(6, dtype=np.int32), (6, 1)))
    cb = semibrace_to_bracoid(sb)
    assert cb.bracoid.N.order == 1
    assert cb.S.elements == tuple(range(6))


def test_semibrace_to_bracoid_of_a_brace_has_trivial_stabilizer():
    sb = Semibrace(_sd32(), np.ascontiguousarray(_sd32().table.T))
    cb = semibrace_to_bracoid(sb)
    assert cb.S.elements == (0,)
    assert cb.H.elements == tuple(range(6))


def test_roundtrips_are_table_identities(semidirect32, abelianmap35):
    for cb in (semidirect32.contained, abelianmap35.contained):
        assert roundtrip_check(cb)
        assert roundtrip_check(bracoid_to_semibrace(cb))


def test_roundtrip_check_rejects_other_types():
    with pytest.raises(TypeError):
        roundtrip_check(cyclic_group(4))


def test_verify_catches_a_corrupted_entry():
    G = _sd32()
    plus = np.ascontiguousarray(G.table.T)
    plus[5, 4], plus[5, 3] = plus[5, 3], plus[5, 4]
    report = verify_semibrace(G.table, plus)
    assert not report.ok


# --- the split proved once per plus table ---

def decompose_as_first_written(sb) -> Decomposition:
    """decompose before its table work was memoised: the oracle for the split."""
    plus = sb.plus
    n = plus.shape[0]
    arange = np.arange(n, dtype=np.int32)
    hpart = np.unique(plus[:, 0])
    epart = np.nonzero(plus[arange, arange] == arange)[0].astype(np.int32)
    if 0 not in epart:
        raise AxiomViolated("identity is not idempotent")
    absorbed = np.nonzero(plus[:, 0] == 0)[0]
    if not np.array_equal(absorbed, epart):
        raise AxiomViolated("x+x = x and x+e = e pick out different sets")
    if not np.array_equal(plus[epart], np.broadcast_to(arange, (epart.size, n))):
        raise AxiomViolated("an idempotent row is not the identity map")
    pos = np.full(n, -1, dtype=np.int32)
    pos[hpart] = np.arange(hpart.size, dtype=np.int32)
    block = plus[np.ix_(hpart, hpart)]
    if (pos[block] < 0).any():
        raise AxiomViolated("G+e is not closed under +")
    FiniteGroup(pos[block], name="G+e")
    anchors = plus[:, 0]
    matches = plus[anchors[:, None], epart[None, :]] == arange[:, None]
    if not (matches.sum(axis=1) == 1).all():
        g = int(np.argmin(matches.sum(axis=1) == 1))
        raise AxiomViolated(f"{g} does not split uniquely as (g+e) + eps")
    return Decomposition(tuple(int(v) for v in hpart), tuple(int(v) for v in epart))


def split_outcome(split, plus):
    """The decomposition, or the type and message of what the split raised."""
    try:
        return split(SimpleNamespace(plus=plus))
    except Exception as exc:
        return type(exc), str(exc)


def splits_uniquely(plus) -> bool:
    n = plus.shape[0]
    arange = np.arange(n)
    eps = np.nonzero(plus[arange, arange] == arange)[0]
    return bool(((plus[plus[:, 0][:, None], eps] == arange[:, None]).sum(axis=1) == 1).all())


SPLIT_CLAIMS = ("not idempotent", "different sets", "not the identity map", "not closed",
                "split uniquely")


def test_decompose_on_poked_tables_raises_as_before_cold_and_warm(semidirect32, trivial_c4):
    """Every poked table gets the first-written outcome from a cold memo and a
    warm one.  Tables whose G+e is not a group but that also fail to split
    raise FiniteGroup's error, as the unmemoised split did."""
    bases = [bracoid_to_semibrace(inst.contained).plus for inst in (semidirect32, trivial_c4)]
    bases.append(bracoid_to_semibrace(promote_brace(trivial_brace(cyclic_group(10)))).plus)
    rng = np.random.default_rng(20261018)
    seen, group_first = Counter(), 0
    for _ in range(400):
        for base in bases:
            plus = base.copy()
            n = plus.shape[0]
            for _ in range(int(rng.integers(1, 4))):
                i, j = (int(v) for v in rng.integers(n, size=2))
                plus[i, j] = rng.integers(n)
            expected = split_outcome(decompose_as_first_written, plus)
            with mock.patch.dict(semibraces._split.memo, clear=True):
                assert split_outcome(decompose, plus) == expected          # cold
                stored = len(semibraces._split.memo)
                assert split_outcome(decompose, plus) == expected          # warm
            if isinstance(expected, Decomposition):
                seen["split"] += 1
            else:
                kind, message = expected
                seen[kind.__name__ if kind is not AxiomViolated
                     else next(claim for claim in SPLIT_CLAIMS if claim in message)] += 1
                # The kernel keeps what it returns and nothing it raised.
                assert stored == (kind is not AxiomViolated or "uniquely" in message)
                group_first += kind is not AxiomViolated and not splits_uniquely(plus)
    assert set(seen) >= {"split", "NotLatinSquare", *SPLIT_CLAIMS}
    assert group_first > 0


def test_decompose_shares_no_writable_table(semidirect32):
    sb = bracoid_to_semibrace(semidirect32.contained)
    block = semibraces._split(sb.plus)[2]
    assert not block.flags.writeable
    assert decompose(sb) == decompose_as_first_written(sb)


def test_a_contained_brace_hands_every_semibrace_one_plus_table(gl3f2):
    """ContainedBrace.plus is built once: every semibrace built from the
    contained brace holds that frozen table, so the associativity of + (the
    action law of + on itself) runs once however often it is derived."""
    cb = gl3f2.contained
    runs = []
    inner = checks._action_law_holds.__wrapped__

    def counting(gt, act):
        runs.append((gt, act))
        return inner(gt, act)

    with mock.patch.object(checks._action_law_holds, "__wrapped__", counting), \
            mock.patch.dict(checks._action_law_holds.memo, clear=True):
        built = [bracoid_to_semibrace(cb) for _ in range(3)]
    assert cb.plus.size > checks.MEMO_MAX_ENTRIES and checks.is_frozen(cb.plus)
    assert all(sb.plus is cb.plus for sb in built)
    assert sum(gt is cb.plus and act is cb.plus for gt, act in runs) == 1
