from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ybelab import cli, files, ybe
from ybelab.braces import AxiomViolated, SkewBrace, brace_solution, trivial_brace
from ybelab.catalog import abelianmap_instance, promote_brace
from ybelab.checks import Report
from ybelab.groups import FiniteGroup, cyclic_group, semidirect_product
from ybelab.semibraces import Semibrace, bracoid_to_semibrace
from ybelab.ybe import (
    MissingCarrier,
    NotClosed,
    SizeMismatch,
    SolutionMap,
    check_braid,
    conjugate_solution,
    restrict_solution,
    solution_from_bracoid,
    solution_from_semibrace,
    solutions_equal,
    tilde_solution_from_bracoid,
)


# Oracle: both braid composites walked one triple at a time.
def _brute_braid_failures(r):
    def apply(a, b):
        return int(r.left[a, b]), int(r.right[a, b])

    fails = []
    for x in range(r.size):
        for y in range(r.size):
            for z in range(r.size):
                a, b = apply(x, y)
                a2, c = apply(b, z)
                b2, c2 = apply(a, a2)
                p, q = apply(y, z)
                x2, p2 = apply(x, p)
                q2, z2 = apply(p2, q)
                if (b2, c2, c) != (x2, q2, z2):
                    fails.append((x, y, z))
    return fails


def _sd32():
    return semidirect_product(cyclic_group(3), cyclic_group(2),
                              np.array([[0, 1, 2], [0, 2, 1]], dtype=np.int32))


def _flip(n):
    idx = np.indices((n, n)).astype(np.int32)
    return SolutionMap(idx[1], idx[0])


def test_flip_has_every_property():
    r = _flip(4)
    assert not _brute_braid_failures(r)
    report = check_braid(r)
    assert report["braid"].ok and report["bijective"].ok and report["involutive"].ok
    assert report["left-nondegenerate"].ok and report["right-nondegenerate"].ok


def test_the_report_is_five_checks_in_order_each_with_its_witness():
    z = np.zeros((3, 3))
    report = check_braid(SolutionMap(z, z))
    assert isinstance(report, Report)
    assert [c.describe() for c in report.checks] == [
        "braid PASS", "bijective FAIL at 0,0,0,1", "involutive FAIL at 0,1",
        "left-nondegenerate FAIL at 0,0,1", "right-nondegenerate FAIL at 0,0,1"]


def test_conjugation_map_is_a_noninvolutive_solution():
    r = brace_solution(trivial_brace(_sd32()))
    assert not _brute_braid_failures(r)
    report = check_braid(r)
    assert report["braid"].ok and report["bijective"].ok
    assert report["left-nondegenerate"].ok and report["right-nondegenerate"].ok
    assert not report["involutive"].ok
    x, y = report["involutive"].witness
    a, b = r.left[x, y], r.right[x, y]
    assert (int(r.left[a, b]), int(r.right[a, b])) != (x, y)


def test_multiplication_map_fails_the_braid_relation():
    G = cyclic_group(3)
    r = SolutionMap(np.tile(np.arange(3, dtype=np.int32), (3, 1)), G.table)
    fails = _brute_braid_failures(r)
    assert fails[0] == (0, 0, 1)
    assert len(fails) == 18
    report = check_braid(r)
    assert not report["braid"].ok
    assert report["braid"].witness == (0, 0, 1)
    bad_at = ybe._braid_masks(r.left, r.right)
    assert fails == [(x, y, z) for x in range(r.size)
                     for y, z in np.argwhere(bad_at(x)).tolist()]


def test_short_scan_stops_at_first_failing_slice():
    G = cyclic_group(3)
    r = SolutionMap(np.tile(np.arange(3, dtype=np.int32), (3, 1)), G.table)
    report = check_braid(r)
    assert report["braid"].witness == (0, 0, 1)


def test_assert_properties_names_the_first_failing_asserted_property():
    # The constant map braids but has none of the other four properties.
    z = np.zeros((3, 3))
    r = SolutionMap(z, z, "constant", asserted=("braid",))
    assert r.asserted == ("braid",) and r.report["braid"].ok and not r.report["bijective"].ok
    with pytest.raises(AxiomViolated,
                       match=r"^constant map fails: left-nondegenerate FAIL at 0,0,1$"):
        SolutionMap(z, z, "constant",
                    asserted=("right-nondegenerate", "left-nondegenerate", "braid"))


@pytest.fixture
def no_braid_scan(monkeypatch):
    """Make the n^3 braid scan raise, to show that a check never reached it."""
    def scan(*args, **kwargs):
        raise AssertionError("the n^3 braid scan ran")
    monkeypatch.setattr(ybe, "_braid_masks", scan)


def _derived(cb):
    """The four solutions derived from a bracoid containing a brace, each with its carrier."""
    return (brace_solution(cb.brace), solution_from_semibrace(bracoid_to_semibrace(cb)),
            solution_from_bracoid(cb), tilde_solution_from_bracoid(cb))


def test_derived_solutions_are_proved_without_a_scan(catalog, no_braid_scan):
    with_brace = [inst for inst in catalog if inst.contained is not None]
    assert len(with_brace) == 9
    for inst in with_brace:
        for r in _derived(inst.contained):
            assert check_braid(r)["braid"].ok


def test_order_1024_brace_solution_is_proved_without_a_scan(no_braid_scan):
    r = brace_solution(trivial_brace(cyclic_group(1024)))
    report = check_braid(r)
    assert report["braid"].ok and report["bijective"].ok and report["involutive"].ok


def test_maps_without_a_carrier_are_scanned(no_braid_scan):
    # The flip map of order 3 has one class of each kind, but
    # a^2 + b^2 + |pi| |rho| = 3 exceeds n^2 / PROFILE_SHARE, so the class
    # proof is not tried.
    with pytest.raises(AssertionError, match="scan ran"):
        check_braid(_flip(3))


# --- the braid relation decided on one triple per class ---

def _unguarded(left, right) -> bool:
    """_braid_from_profiles with no guard, so it decides every map."""
    with mock.patch.object(ybe, "PROFILE_SHARE", 0):
        return ybe._braid_from_profiles(np.asarray(left), np.asarray(right))


def test_class_proof_on_every_map_up_to_size_2():
    decided = 0
    for n in (0, 1, 2):
        tables = [np.array(t, dtype=np.int32).reshape(n, n)
                  for t in product(range(n), repeat=n * n)]
        for left, right in product(tables, repeat=2):
            r = SolutionMap(left, right)
            assert _unguarded(left, right) == (not _brute_braid_failures(r))
            decided += 1
    assert decided == 1 + 1 + 256


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(1, 3), st.integers(1, 3), st.booleans(),
       st.integers(0, 2), st.integers(0, 2**32 - 1))
def test_class_proof_equals_the_triple_oracle(n, a, b, bijective_rows, poked, seed):
    """Maps built from at most a distinct rows s_x and b distinct columns t_y
    (random maps almost never braid), then one entry of left (poked = 1) or
    right (poked = 2) changed: the unguarded proof is the oracle's verdict,
    and check_braid gives the same report with the guard or without it."""
    rng = np.random.default_rng(seed)
    if bijective_rows:
        rows = np.array([rng.permutation(n) for _ in range(a)])
        cols = np.array([rng.permutation(n) for _ in range(b)])
    else:
        rows, cols = rng.integers(0, n, (a, n)), rng.integers(0, n, (b, n))
    tables = [rows[rng.integers(0, a, n)], cols[rng.integers(0, b, n)].T.copy()]
    if poked:
        x, y = (int(v) for v in rng.integers(0, n, 2))
        tables[poked - 1][x, y] = (tables[poked - 1][x, y] + rng.integers(1, max(2, n))) % n
    r = SolutionMap(*tables)
    fails = _brute_braid_failures(r)
    assert _unguarded(r.left, r.right) == (not fails)
    report = check_braid(r)
    assert report["braid"].witness == (fails[0] if fails else ())
    with mock.patch.object(ybe, "PROFILE_SHARE", 0):
        assert check_braid(r) == report


def test_catalog_solutions_without_their_carrier_keep_their_report(catalog):
    """Every derived solution braids, so the unguarded proof passes it, and
    dropping the carrier changes no report."""
    for inst in catalog:
        if inst.contained is None:
            continue
        for r in _derived(inst.contained):
            bare = SolutionMap(r.left, r.right)
            assert _unguarded(r.left, r.right), (inst.name, r.provenance)
            assert check_braid(bare) == check_braid(r)


@pytest.fixture(scope="module")
def abelianmap311():
    return solution_from_bracoid(abelianmap_instance(3, 11).contained)


def test_carrierless_maps_with_few_classes_are_proved_without_a_scan(
        abelianmap311, no_braid_scan):
    trivial256 = brace_solution(trivial_brace(cyclic_group(256)))
    for r in (trivial256, abelianmap311):
        assert check_braid(SolutionMap(r.left, r.right))["braid"].ok


def test_carrierless_gl3f2_map_reaches_the_scan(gl3f2, no_braid_scan):
    r = solution_from_bracoid(gl3f2.contained)
    assert ybe._braid_from_profiles(r.left, r.right) is False     # the guard
    with pytest.raises(AssertionError, match="scan ran"):
        check_braid(SolutionMap(r.left, r.right))


def test_verify_solution_file_is_proved_with_the_scan_report(
        abelianmap311, no_braid_scan, tmp_path, capsys):
    """The STEP lines, timings left out, are those the n^3 scan printed."""
    path = tmp_path / "solution.txt"
    path.write_text(files.write_solution(abelianmap311))
    assert cli.main(["verify", "solution", str(path), "--out", str(tmp_path / "out")]) == 0
    steps = [line.split(" ") for line in capsys.readouterr().out.splitlines()
             if line.startswith("STEP ")]
    assert [s[:3] + s[4:] for s in steps] == [
        ["STEP", "parse", "PASS", "n=132"],
        ["STEP", "scan", "PASS"],
        ["STEP", "braid", "PASS"],
        ["STEP", "info-bijective", "FAIL", "(0,0,2,2)"],
        ["STEP", "info-involutive", "FAIL", "(0,2)"],
        ["STEP", "info-left-nondegenerate", "PASS"],
        ["STEP", "info-right-nondegenerate", "FAIL", "(0,0,2)"]]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_bijectivity_witness_is_the_first_collision_of_the_least_repeated_image(
        n, values, seed):
    rng = np.random.default_rng(seed)
    r = SolutionMap(*rng.integers(0, min(n, values), (2, n, n)))
    seen = {}
    for x, y in product(range(r.size), repeat=2):
        seen.setdefault((int(r.left[x, y]), int(r.right[x, y])), []).append((x, y))
    repeated = sorted(image for image, pairs in seen.items() if len(pairs) > 1)
    report = check_braid(r)
    assert report["bijective"].ok == (not repeated)
    if repeated:
        (x1, y1), (x2, y2) = seen[repeated[0]][:2]
        assert report["bijective"].witness == (x1, y1, x2, y2)


def _masks_by_triples(r):
    """The x-slices of the oracle's failing triples, as boolean (y, z) masks."""
    masks = np.zeros((r.size, r.size, r.size), dtype=bool)
    for x, y, z in _brute_braid_failures(r):
        masks[x, y, z] = True
    return masks


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10), st.booleans(), st.integers(0, 2**32 - 1))
def test_every_braid_mask_equals_the_triple_oracle(n, poked, seed):
    """Random maps, and solutions with one entry changed: every slice of
    _braid_masks is the oracle's, one triple at a time."""
    rng = np.random.default_rng(seed)
    if poked:
        base = brace_solution(trivial_brace(_sd32() if n == 6 else cyclic_group(n)))
        tables = [base.left.copy(), base.right.copy()]
        which, x, y = (int(v) for v in rng.integers(0, (2, n, n)))
        tables[which][x, y] = (tables[which][x, y] + rng.integers(1, max(2, n))) % n
    else:
        tables = list(rng.integers(0, n, (2, n, n)))
    r = SolutionMap(*tables)
    bad_at = ybe._braid_masks(r.left, r.right)
    expected = _masks_by_triples(r)
    for x in range(n):
        assert np.array_equal(bad_at(x), expected[x])


def test_solution_map_validation():
    with pytest.raises(ValueError):
        SolutionMap(np.zeros((2, 3), dtype=np.int32),
                    np.zeros((2, 3), dtype=np.int32))
    with pytest.raises(ValueError):
        SolutionMap(np.zeros((2, 2), dtype=np.int32),
                    np.full((2, 2), 5, dtype=np.int32))
    with pytest.raises(SizeMismatch):
        SolutionMap(np.zeros((2, 2), dtype=np.int32),
                    np.zeros((2, 2), dtype=np.int32), carrier=cyclic_group(3))


def test_solution_map_copies_the_callers_tables():
    """The caller's tables stay writable, and a write to them does not reach
    the map."""
    left, right = np.array(cyclic_group(4).table), np.zeros((4, 4), dtype=np.int32)
    r = SolutionMap(left, right)
    for given, held in ((left, r.left), (right, r.right)):
        assert given.flags.writeable and not np.shares_memory(given, held)
    before = r.left.copy()
    left[...] = right[...] = 3
    assert np.array_equal(r.left, before) and not r.right.any()


def test_projection_semibrace_solution_is_multiplication_then_identity():
    G = _sd32()
    sb = Semibrace(G, np.tile(np.arange(6, dtype=np.int32), (6, 1)))
    r = solution_from_semibrace(sb)
    assert np.array_equal(r.left, G.table)
    assert not r.right.any()
    assert not _brute_braid_failures(r)
    report = check_braid(r)
    assert report["braid"].ok and report["left-nondegenerate"].ok
    assert not report["right-nondegenerate"].ok and not report["bijective"].ok


def test_brace_semibrace_solution_uses_the_opposite_star(semidirect32):
    for B in (trivial_brace(_sd32()), semidirect32.brace):
        sb = bracoid_to_semibrace(promote_brace(B))
        r = solution_from_semibrace(sb)
        opposite = brace_solution(SkewBrace(FiniteGroup(B.star.table.T.copy()), B.dot))
        assert solutions_equal(r, opposite)


def test_bracoid_solution_on_abelian_trivial_brace_is_flip():
    cb = promote_brace(trivial_brace(cyclic_group(5)))
    r = solution_from_bracoid(cb)
    assert solutions_equal(r, _flip(5))


def test_bracoid_solution_properties(semidirect32):
    cb = semidirect32.contained
    r = solution_from_bracoid(cb)
    assert not _brute_braid_failures(r)
    report = check_braid(r)
    assert report["braid"].ok and report["left-nondegenerate"].ok
    # It also coincides with the route through the semibrace.
    assert solutions_equal(r, solution_from_semibrace(bracoid_to_semibrace(cb)))


def test_tilde_solution_of_trivial_brace_is_conjugation():
    G = _sd32()
    cb = promote_brace(trivial_brace(G))
    r = tilde_solution_from_bracoid(cb)
    for x in range(6):
        for y in range(6):
            assert (r.left[x, y], r.right[x, y]) == (y, G.table[G.table[G.inv[y], x], y])


def test_tilde_solution_properties(semidirect32):
    r = tilde_solution_from_bracoid(semidirect32.contained)
    assert not _brute_braid_failures(r)
    report = check_braid(r)
    assert report["braid"].ok and report["right-nondegenerate"].ok
    # lambda only reaches H, so left rows repeat on a proper quotient.
    assert not report["left-nondegenerate"].ok


def test_tau_conjugation_is_an_involution_and_swaps_degeneracy(semidirect32):
    r = solution_from_bracoid(semidirect32.contained)
    t = conjugate_solution(r, "tau")
    assert solutions_equal(conjugate_solution(t, "tau"), r)
    rep_r, rep_t = check_braid(r), check_braid(t)
    assert rep_t["braid"].ok
    assert rep_t["left-nondegenerate"].ok == rep_r["right-nondegenerate"].ok
    assert rep_t["right-nondegenerate"].ok == rep_r["left-nondegenerate"].ok


def test_iota_needs_a_carrier():
    r = _flip(3)
    with pytest.raises(MissingCarrier):
        conjugate_solution(r, "iota")
    with pytest.raises(ValueError):
        conjugate_solution(r, "sigma")


def test_tilde_is_the_double_conjugate(semidirect32, gl3f2):
    for cb in (semidirect32.contained, gl3f2.contained):
        r = solution_from_bracoid(cb)
        undone = conjugate_solution(conjugate_solution(r, "iota"), "iota")
        assert solutions_equal(undone, r)
        tilde = tilde_solution_from_bracoid(cb)
        twisted = conjugate_solution(conjugate_solution(r, "iota"), "tau")
        assert solutions_equal(twisted, tilde)


def test_restriction_to_the_complement_is_the_opposite_star_brace(
        semidirect32, abelianmap35):
    for cb in (semidirect32.contained, abelianmap35.contained):
        r = solution_from_bracoid(cb)
        sub = restrict_solution(r, cb.H.elements)
        assert isinstance(sub, SolutionMap)
        opposite = FiniteGroup(cb.brace.star.table.T.copy())
        expected = brace_solution(SkewBrace(opposite, cb.brace.dot))
        assert solutions_equal(sub, expected)


def test_restriction_to_the_stabilizer_multiplies_and_forgets(semidirect32):
    cb = semidirect32.contained
    r = solution_from_bracoid(cb)
    sub = restrict_solution(r, cb.S.elements)
    assert isinstance(sub, SolutionMap)
    assert np.array_equal(sub.left, cb.S.as_group().table)
    assert not sub.right.any()


def test_restriction_of_flip_is_flip():
    sub = restrict_solution(_flip(6), (1, 3, 4))
    assert isinstance(sub, SolutionMap)
    assert solutions_equal(sub, _flip(3))


def test_restriction_reports_the_first_escape():
    G = _sd32()
    r = brace_solution(trivial_brace(G))
    out = restrict_solution(r, (0, 1, 2))
    assert isinstance(out, NotClosed)
    assert (out.x, out.y, out.coordinate) == (1, 2, "right")
    assert out.value == G.table[G.table[G.inv[2], 1], 2]


def test_restriction_argument_validation():
    r = _flip(4)
    with pytest.raises(ValueError):
        restrict_solution(r, ())
    with pytest.raises(ValueError):
        restrict_solution(r, (2, 1))
    with pytest.raises(ValueError):
        restrict_solution(r, (0, 7))


def test_solutions_equal_demands_matching_sizes():
    with pytest.raises(SizeMismatch):
        solutions_equal(_flip(3), _flip(4))
    assert solutions_equal(_flip(3), _flip(3))
