"""Differential tests: the checks that name a point or an entry, against brute oracles.

`action.range`, `action.identity`, `action.transitive`, `plus.range`,
`rho-identity-row` and `lambda-fixes-identity` each name their first
counterexample.  Each is held to a loop over the table in the check's own
words, on random tables drawn so that they fail it often, and on the
catalog's tables, which pass it with an empty witness.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ybelab.bracoids import LambdaRho, lambda_rho_identity_checks, verify_bracoid
from ybelab.checks import Check, _first_true
from ybelab.groups import _unreached, cyclic_group, is_transitive, semidirect_product
from ybelab.semibraces import bracoid_to_semibrace, verify_semibrace

FAST = settings(max_examples=80, deadline=None)
rngs = st.integers(0, 2**32 - 1).map(np.random.default_rng)


def _sd32():
    return semidirect_product(cyclic_group(3), cyclic_group(2),
                              np.array([[0, 1, 2], [0, 2, 1]], dtype=np.int32))


GROUPS = (cyclic_group(1), cyclic_group(2), cyclic_group(4), _sd32())


# --- the oracles, one entry at a time ---

def brute_outside(table, n: int) -> tuple[int, ...]:
    """(row, column) of the first entry outside 0..n-1, reading row by row."""
    for r, row in enumerate(table.tolist()):
        for c, value in enumerate(row):
            if not 0 <= value < n:
                return (r, c)
    return ()


def brute_moved(act) -> tuple[int, ...]:
    """(x,) for the least point x that the identity does not fix."""
    return next(((x,) for x, value in enumerate(act[0].tolist()) if value != x), ())


def brute_unreached(act) -> tuple[int, ...]:
    """(p,) for the least point p that no g moves 0 to."""
    orbit = {row[0] for row in act.tolist()}
    return next(((p,) for p in range(act.shape[1]) if p not in orbit), ())


def brute_rho_row(rho) -> tuple[int, ...]:
    """(i,) for the least i with rho_e(i) != i."""
    return next(((i,) for i, value in enumerate(rho[0].tolist()) if value != i), ())


def brute_lambda_fix(lam) -> tuple[int, ...]:
    """(x,) for the least x with lambda_x(e) != e."""
    return next(((x,) for x, row in enumerate(lam.tolist()) if row[0] != 0), ())


def expected(name: str, witness: tuple[int, ...]) -> Check:
    return Check(name, not witness, witness=witness)


# --- random tables that often fail the check under test ---

def near_identity(rng, m: int) -> np.ndarray:
    """Row 0 of an action table: the identity map, often with some points moved."""
    row = np.arange(m)
    if m > 1 and rng.random() < 0.7:
        moved = rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False)
        row[moved] = rng.integers(m, size=moved.size)
    return row


def action_table(rng, g: int, m: int) -> np.ndarray:
    """A |G| x m table whose column 0 often misses a point."""
    act = rng.integers(m, size=(g, m))
    act[:, 0] = rng.choice(rng.integers(m, size=int(rng.integers(1, m + 1))), size=g)
    act[0] = near_identity(rng, m)
    return act


def out_of_range(rng, table: np.ndarray, m: int) -> np.ndarray:
    """The table with a few entries set to -1 or to a value of m or more."""
    out = table.copy()
    for _ in range(int(rng.integers(0, 4))):
        i, j = (int(rng.integers(s)) for s in table.shape)
        out[i, j] = rng.choice([-1, m, m + int(rng.integers(1, 5))])
    return out


# --- the helper every witness goes through ---

@FAST
@given(rng=rngs, shape=st.sampled_from([(1,), (7,), (3, 4), (5, 5)]))
def test_first_true_is_the_first_index_in_row_major_order(rng, shape):
    mask = rng.random(shape) < rng.choice([0.0, 0.05, 0.5])
    first = next((tuple(map(int, index)) for index in np.ndindex(shape) if mask[index]), ())
    assert _first_true(mask) == first


# --- the bracoid's action checks ---

def action_checks(G, m: int, act) -> dict[str, Check]:
    report = verify_bracoid(G.table, cyclic_group(m).table, act)
    return {c.name: c for c in report.checks if c.name.startswith("action.")}


@FAST
@given(rng=rngs, g=st.integers(0, len(GROUPS) - 1), m=st.integers(1, 6))
def test_action_identity_and_transitive_name_the_oracle_point(rng, g, m):
    G = GROUPS[g]
    act = action_table(rng, G.order, m)
    got = action_checks(G, m, act)
    assert got["action.identity"] == expected("action.identity", brute_moved(act))
    assert got["action.transitive"] == expected("action.transitive", brute_unreached(act))
    assert _unreached(act) == brute_unreached(act)
    assert is_transitive(act) == (not brute_unreached(act))


@FAST
@given(rng=rngs, g=st.integers(0, len(GROUPS) - 1), m=st.integers(1, 6))
def test_action_range_names_the_oracle_entry(rng, g, m):
    G = GROUPS[g]
    act = out_of_range(rng, action_table(rng, G.order, m), m)
    got = action_checks(G, m, act)
    witness = brute_outside(act, m)
    if witness:
        assert got["action.range"] == Check("action.range", False, witness=witness)
        assert "action.identity" not in got and "action.transitive" not in got
    else:
        assert "action.range" not in got and "action.identity" in got


def test_trivial_action_names_the_unreached_point():
    """C2 acting trivially on C2 moves 0 nowhere: point 1 is outside its orbit."""
    act = np.array([[0, 1], [0, 1]])
    got = action_checks(cyclic_group(2), 2, act)
    assert got["action.transitive"] == Check("action.transitive", False, witness=(1,))
    assert got["action.identity"] == Check("action.identity", True)


# --- the semibrace's range check ---

@FAST
@given(rng=rngs, g=st.integers(0, len(GROUPS) - 1))
def test_plus_range_names_the_oracle_entry(rng, g):
    G = GROUPS[g]
    n = G.order
    plus = out_of_range(rng, rng.integers(n, size=(n, n)), n)
    got = verify_semibrace(G.table, plus)["plus.range"]
    assert got == expected("plus.range", brute_outside(plus, n))


# --- the displacement identity checks ---

@FAST
@given(rng=rngs, g=st.integers(0, len(GROUPS) - 1))
def test_lambda_rho_identity_checks_name_the_oracle_index(rng, g):
    G = GROUPS[g]
    n = G.order
    lam = rng.integers(n, size=(n, n)).astype(np.int32)
    rho = rng.integers(n, size=(n, n)).astype(np.int32)
    if rng.random() < 0.5:
        lam[:, 0] = np.where(rng.random(n) < 0.8, 0, lam[:, 0])
        rho[0] = np.where(rng.random(n) < 0.8, np.arange(n), rho[0])
    report = lambda_rho_identity_checks(LambdaRho(G, lam, rho))
    assert report["rho-identity-row"] == expected("rho-identity-row", brute_rho_row(rho))
    assert report["lambda-fixes-identity"] == expected("lambda-fixes-identity",
                                                       brute_lambda_fix(lam))


@pytest.mark.parametrize("cut", ["lam", "rho"])
def test_lambda_rho_tables_of_the_wrong_shape_say_so(cut):
    G = cyclic_group(4)
    tables = {"lam": np.zeros((4, 4), dtype=np.int32), "rho": np.tile(np.arange(4), (4, 1))}
    tables[cut] = tables[cut][:3]
    report = lambda_rho_identity_checks(LambdaRho(G, **tables))
    assert [c.ok for c in report.checks] == [False] * 6
    assert {c.detail for c in report.checks} == {"not evaluated: tables are not 4 x 4"}
    assert all(c.witness == () for c in report.checks)


# --- passing lines keep an empty witness ---

def test_catalog_structures_pass_the_six_checks_with_no_witness(catalog):
    for inst in catalog:
        bc = inst.bracoid
        got = action_checks(bc.G, bc.N.order, bc.act.table)
        assert "action.range" not in got
        assert got["action.identity"] == Check("action.identity", True)
        assert got["action.transitive"] == Check("action.transitive", True)
        cb = inst.contained
        if cb is None:
            continue
        sb = bracoid_to_semibrace(cb)
        assert verify_semibrace(sb.dot, sb.plus)["plus.range"] == Check("plus.range", True)
        report = lambda_rho_identity_checks(cb.lambda_rho)
        assert report["rho-identity-row"] == Check("rho-identity-row", True)
        assert report["lambda-fixes-identity"] == Check("lambda-fixes-identity", True)
