"""Differential tests: the λ/ρ battery proved on generators against its full scan.

The oracle is the exhaustive scan the battery ran before the generator
proofs: every (x, y, z) of each law, first counterexample in x-major order.
The report must equal the oracle's report, verdict and witness per
law, on every catalog instance, gl3f2 at order 168, seeded braces, the same
tables with one entry of lam or rho changed, and structured tables that
pass some laws on the first generators only.  Tables that cannot index G
fail the four laws unevaluated.
"""

import random
from functools import cache
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ybelab import bracoids
from ybelab.bracoids import LambdaRho, lambda_rho_identity_checks
from ybelab.braces import trivial_brace
from ybelab.catalog import promote_brace, seeded_braces
from ybelab.checks import Check, Report, generators
from ybelab.groups import cyclic_group, semidirect_product

FAST = settings(max_examples=80, deadline=None)


def oracle_report(lr: LambdaRho) -> Report:
    """The exhaustive branch of the battery as first written."""
    G = lr.G
    lam, rho, gt, n = lr.lam, lr.rho, G.table, G.order
    lam_w = rho_w = inv_w = prod_w = ()
    for x in range(n):
        if not lam_w:
            bad = lam[gt[x]] != lam[x][lam]
            if bad.any():
                lam_w = (x, *map(int, np.argwhere(bad)[0]))
        if not rho_w:
            bad = rho[gt[x]] != rho[:, rho[x]]
            if bad.any():
                rho_w = (x, *map(int, np.argwhere(bad)[0]))
        if not prod_w:
            bad = lam[x][gt] != gt[lam[x][:, None], lam[rho[:, x]]]
            if bad.any():
                prod_w = (x, *map(int, np.argwhere(bad)[0]))
    bad = rho[G.inv[:, None], rho] != np.arange(n)[None, :]
    if bad.any():
        inv_w = tuple(map(int, np.argwhere(bad)[0]))
    row_w = next(((i,) for i in range(n) if rho[0, i] != i), ())
    fix_w = next(((x,) for x in range(n) if lam[x, 0] != 0), ())
    return Report((
        Check("rho-identity-row", not row_w, witness=row_w),
        Check("lambda-fixes-identity", not fix_w, witness=fix_w),
        Check("lambda-compose", not lam_w, witness=lam_w, detail="exhaustive"),
        Check("rho-compose", not rho_w, witness=rho_w, detail="exhaustive"),
        Check("rho-inverse", not inv_w, witness=inv_w, detail="exhaustive"),
        Check("lambda-product-rule", not prod_w, witness=prod_w, detail="exhaustive"),
    ))


def with_tables(lr: LambdaRho, lam=None, rho=None) -> LambdaRho:
    return LambdaRho(lr.G, lam=lr.lam if lam is None else lam,
                     rho=lr.rho if rho is None else rho)


def assert_same_report(lr: LambdaRho) -> None:
    assert lambda_rho_identity_checks(lr) == oracle_report(lr)


@cache
def seeded() -> tuple[LambdaRho, ...]:
    braces = seeded_braces(random.Random(20261018), 12)
    return tuple(promote_brace(B).lambda_rho for B in braces)


def test_catalog_and_gl3f2_reports_equal_the_full_scan(catalog):
    for inst in catalog:
        if inst.contained is not None:
            assert_same_report(inst.contained.lambda_rho)


def test_seeded_brace_reports_equal_the_full_scan():
    for lr in seeded():
        assert lr.lam.shape[0] > 1
        assert_same_report(lr)


def test_product_rule_is_proved_without_a_scan(catalog, monkeypatch):
    """Valid tables satisfy (P) lam_x(y) . rho_y(x) = x . y and rho-compose,
    which prove the product rule: no law is scanned triple by triple."""
    def scan(*args):
        raise AssertionError("a displacement law was scanned")

    lrs = [inst.contained.lambda_rho for inst in catalog if inst.contained is not None]
    lrs += seeded()
    monkeypatch.setattr(bracoids, "_first_triple", scan)
    for lr in lrs:
        assert lambda_rho_identity_checks(lr).ok


def test_exhaustive_at_order_168_by_default(gl3f2):
    lr = gl3f2.contained.lambda_rho
    report = lambda_rho_identity_checks(lr)
    assert lr.lam.shape == (168, 168)
    assert report.ok
    assert [c.detail for c in report.checks[2:]] == ["exhaustive"] * 4
    # A broken law at 168 names the scan's first triple.
    lam = lr.lam.copy()
    lam[100, 7] = (lam[100, 7] + 1) % 168
    broken = with_tables(lr, lam=lam)
    report = lambda_rho_identity_checks(broken)
    assert not report.ok
    assert report == oracle_report(broken)


def test_constructor_assertion_covers_every_order(gl3f2, monkeypatch):
    """lambda_rho raises on a broken law at order 168, where it once sampled."""
    cb = gl3f2.contained
    monkeypatch.setattr(bracoids, "_action_law_failure", lambda gt, act: (1, 2, 3))
    with pytest.raises(bracoids.AxiomViolated, match="lambda-compose FAIL at 1,2,3"):
        bracoids.lambda_rho(cb)


def poked_tables(lr: LambdaRho, which: int, rng) -> LambdaRho:
    """lr with one entry of lam (which = 0) or rho (which = 1) changed in range."""
    table = (lr.lam, lr.rho)[which].copy()
    n = table.shape[0]
    i, j = (int(v) for v in rng.integers(n, size=2))
    table[i, j] = (table[i, j] + 1 + int(rng.integers(n - 1))) % n
    return with_tables(lr, **{("lam", "rho")[which]: table})


@FAST
@given(st.integers(0, 10**6), st.integers(0, 1), st.integers(0, 2**32 - 1),
       st.integers(1, 2))
def test_poked_tables_keep_the_scan_report(catalog, pick, which, seed, pokes):
    lrs = [inst.contained.lambda_rho for inst in catalog
           if inst.contained is not None] + list(seeded())
    lr = lrs[pick % len(lrs)]
    rng = np.random.default_rng(seed)
    for _ in range(pokes):
        lr = poked_tables(lr, which, rng)
    assert_same_report(lr)


def sym3():
    return semidirect_product(cyclic_group(3), cyclic_group(2),
                              np.array([[0, 1, 2], [0, 2, 1]], dtype=np.int32))


def tables_on(G) -> LambdaRho:
    """The λ/ρ pair of the trivial brace on G, whose tables the tests replace."""
    return promote_brace(trivial_brace(G)).lambda_rho


def test_product_rule_holding_on_the_first_generator_only():
    """lam_x = f for every x and rho trivial: the rule says f is an endomorphism.

    On Sym(3), generated by two elements, maps f that respect right
    multiplication by one generator but not the other pass a test on that
    generator alone; each map that passes on either gets the scan's report.
    """
    G = sym3()
    lr = tables_on(G)
    gt = G.table
    g1, g2 = generators(gt)
    trivial = np.tile(np.arange(6, dtype=np.int32), (6, 1))
    one_only = 0
    for images in product(range(6), repeat=5):
        f = np.array((0, *images), dtype=np.int32)
        on_g1 = np.array_equal(f[gt[:, g1]], gt[f, f[g1]])
        on_g2 = np.array_equal(f[gt[:, g2]], gt[f, f[g2]])
        if on_g1 or on_g2:
            one_only += on_g1 != on_g2
            assert_same_report(with_tables(lr, lam=np.tile(f, (6, 1)), rho=trivial))
    assert one_only > 0


def test_rho_compose_is_the_right_action_law():
    """On Sym(3), y.x is a left action and x.y a right one.  Each as lam or
    rho gets the scan's report, so rho is proved over G^op, lam over G."""
    lr = tables_on(sym3())
    gt = lr.G.table
    assert not (gt == gt.T).all()
    for lam, rho in [(lr.lam, gt), (lr.lam, gt.T), (gt, lr.rho), (gt.T, lr.rho), (gt, gt.T)]:
        assert_same_report(with_tables(lr, lam=lam, rho=rho))


def test_product_rule_needs_rho_compose():
    """On C4, generated by 1, take rho with rho_0 = id and values b_x, and set
    lam_x(k) = b_{rho_0(x)} + ... + b_{rho_{k-1}(x)}.  When every such sum
    over k = 4 is 0, the product rule holds for z in {0, 1}; at z = 2 or 3 it
    needs rho-compose.  Each pair gets the scan's report, and some break the
    rule only off the generators."""
    lr = tables_on(cyclic_group(4))
    assert generators(lr.G.table) == (1,)
    rng = np.random.default_rng(7)
    hidden = 0
    for _ in range(60):
        rho = rng.integers(4, size=(4, 4)).astype(np.int32)    # rho[y, x] = rho_y(x)
        rho[0] = np.arange(4)
        for b in product(range(4), repeat=4):
            sums = np.cumsum(np.array(b)[rho], axis=0) % 4      # sums[k, x]: j <= k
            if sums[3].any():
                continue
            lam = np.zeros((4, 4), dtype=np.int32)
            lam[:, 1:] = sums[:3].T
            lr_b = with_tables(lr, lam=lam, rho=rho)
            expected = oracle_report(lr_b)
            hidden += not expected["lambda-product-rule"].ok
            assert lambda_rho_identity_checks(lr_b) == expected
    assert hidden > 0


# --- hand-made tables on C4 ---

LAWS = ("lambda-compose", "rho-compose", "rho-inverse", "lambda-product-rule")


def c4_tables(lam_row, rho_rows) -> LambdaRho:
    """Tables on C4 (k = 1 + ... + 1): lam_x = lam_row for every x, rho as given."""
    lr = tables_on(cyclic_group(4))
    assert np.array_equal(lr.G.table, np.add.outer(range(4), range(4)) % 4)
    return with_tables(lr, lam=np.tile(np.array(lam_row, dtype=np.int32), (4, 1)),
                       rho=np.array(rho_rows, dtype=np.int32))


IDENTITY = [0, 1, 2, 3]
NEGATE = [0, 3, 2, 1]          # an automorphism of C4 and an involution, not idempotent
COLLAPSE = [0, 1, 1, 3]        # idempotent, fixes 0, not an endomorphism


@pytest.mark.parametrize("law, tables", [
    ("lambda-compose", lambda: c4_tables(NEGATE, [IDENTITY] * 4)),
    ("rho-compose", lambda: c4_tables(IDENTITY, [IDENTITY] + [NEGATE] * 3)),
    ("rho-inverse", lambda: c4_tables(IDENTITY, [[0, 0, 0, 0]] * 4)),
    ("lambda-product-rule", lambda: c4_tables(COLLAPSE, [IDENTITY] * 4)),
])
def test_one_law_broken(law, tables):
    lr = tables()
    report = lambda_rho_identity_checks(lr)
    assert [name for name in LAWS if not report[name].ok] == [law]
    assert report == oracle_report(lr)


@pytest.mark.parametrize("which", ["lam", "rho"])
@pytest.mark.parametrize("value", [-1, 4, 9])
def test_an_entry_out_of_range_fails_unevaluated(which, value):
    """An entry that cannot index C4 fails the four laws; nothing is raised."""
    lr = c4_tables(IDENTITY, [IDENTITY] * 4)
    table = getattr(lr, which).copy()
    table[2, 1] = value
    report = lambda_rho_identity_checks(with_tables(lr, **{which: table}))
    assert not report.ok
    for name in LAWS:
        assert report[name] == Check(name, False,
                                     detail="not evaluated: entries outside 0..n-1")


def test_tables_of_the_wrong_shape_fail_unevaluated():
    lr = c4_tables(IDENTITY, [IDENTITY] * 4)
    for tables in ({"lam": lr.lam[:, :3]}, {"rho": lr.rho[:3]}):
        report = lambda_rho_identity_checks(with_tables(lr, **tables))
        assert [c.ok for c in report.checks] == [False] * 6
