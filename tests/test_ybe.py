from itertools import permutations, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ybelab import cli, files, ybe
from ybelab.braces import AxiomViolated, SkewBrace, brace_solution, trivial_brace
from ybelab.catalog import abelianmap_instance, promote_brace, trivial_brace_instance
from ybelab.checks import Report, map_closure
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

from grid import failing_mask


def _braid_failures(r):
    """Every triple, x-major, at which r breaks the braid relation, read off its statement."""
    bad = failing_mask(ybe._braid_fails, (r.left, r.right), (r.size,) * 3)
    return [tuple(t) for t in np.argwhere(bad).tolist()]


def _sd32():
    return semidirect_product(cyclic_group(3), cyclic_group(2),
                              np.array([[0, 1, 2], [0, 2, 1]], dtype=np.int32))


def _flip(n):
    idx = np.indices((n, n)).astype(np.int32)
    return SolutionMap(idx[1], idx[0])


def test_flip_has_every_property():
    r = _flip(4)
    assert not _braid_failures(r)
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
    assert not _braid_failures(r)
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
    fails = _braid_failures(r)
    assert fails[0] == (0, 0, 1)
    assert len(fails) == 18
    report = check_braid(r)
    assert not report["braid"].ok
    assert report["braid"].witness == (0, 0, 1)


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


def _raises(what):
    def ran(*args, **kwargs):
        raise AssertionError(f"{what} ran")
    return ran


@pytest.fixture
def no_braid_scan(monkeypatch):
    """Make the n^3 braid scan raise, to show that a check never reached it."""
    monkeypatch.setattr(ybe, "_braid_fails", _raises("the n^3 braid scan"))


def _derived(cb):
    """The four solutions derived from a bracoid containing a brace, each with its carrier."""
    return (brace_solution(cb.brace), solution_from_semibrace(bracoid_to_semibrace(cb)),
            solution_from_bracoid(cb), tilde_solution_from_bracoid(cb))


def test_derived_solutions_are_proved_without_a_scan(catalog, no_braid_scan):
    """Each derived map is proved by the laws of its carrier: the rack would
    prove these maps too, so the carrier proof is asked for by name."""
    with_brace = [inst for inst in catalog if inst.contained is not None]
    assert len(with_brace) == 9
    for inst in with_brace:
        for r in _derived(inst.contained):
            assert ybe._braid_from_carrier(r), (inst.name, r.provenance)
            assert check_braid(r)["braid"].ok


def test_order_1024_brace_solution_is_proved_without_a_scan(no_braid_scan):
    r = brace_solution(trivial_brace(cyclic_group(1024)))
    report = check_braid(r)
    assert report["braid"].ok and report["bijective"].ok and report["involutive"].ok


def test_the_flip_map_without_a_carrier_is_proved_by_the_rack(no_braid_scan):
    assert check_braid(_flip(3))["braid"].ok


def test_a_map_degenerate_on_both_sides_reaches_the_scan(monkeypatch):
    """The constant map of size 40 braids, but none of its s_x or t_y is a
    permutation, so the rack takes neither it nor its mirror: the scan
    decides, and the report is the scan's."""
    z = np.zeros((40, 40), dtype=np.int32)
    assert [c.describe() for c in check_braid(SolutionMap(z, z)).checks] == [
        "braid PASS", "bijective FAIL at 0,0,0,1", "involutive FAIL at 0,1",
        "left-nondegenerate FAIL at 0,0,1", "right-nondegenerate FAIL at 0,0,1"]
    monkeypatch.setattr(ybe, "_braid_from_rack", _raises("the rack"))
    monkeypatch.setattr(ybe, "_braid_fails", _raises("the n^3 braid scan"))
    with pytest.raises(AssertionError, match="braid scan ran"):
        check_braid(SolutionMap(z, z))


# --- the braid relation proved through the derived rack ---

def _racked(r) -> tuple[Report, bool]:
    """(check_braid(r), whether a rack proof passed inside it)."""
    passed = []
    rack = ybe._braid_from_rack

    def spy(left, right):
        passed.append(rack(left, right))
        return passed[-1]

    with mock.patch.object(ybe, "_braid_from_rack", spy):
        return check_braid(r), True in passed


def _scanned(r) -> Report:
    """check_braid(r) with the rack turned off, so a map with no carrier is scanned."""
    with mock.patch.object(ybe, "_braid_from_rack", lambda left, right: False):
        return check_braid(r)


def _racked_as_scanned(r, fails) -> bool:
    """Whether the rack proved r, after checking that a rack PASS is an
    oracle PASS and that check_braid's report is the scan's."""
    report, proved = _racked(r)
    assert not (proved and fails)
    assert report == _scanned(r)
    assert report["braid"].witness == (fails[0] if fails else ())
    return proved


def test_rack_proof_on_every_map_up_to_size_2():
    maps = proved = 0
    for n in (0, 1, 2):
        tables = [np.array(t, dtype=np.int32).reshape(n, n)
                  for t in product(range(n), repeat=n * n)]
        for left, right in product(tables, repeat=2):
            r = SolutionMap(left, right)
            proved += _racked_as_scanned(r, _braid_failures(r))
            maps += 1
    assert (maps, proved) == (1 + 1 + 256, 1 + 1 + 16)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(1, 3), st.integers(1, 3), st.booleans(),
       st.integers(0, 2), st.integers(0, 2**32 - 1))
def test_rack_proof_equals_the_triple_oracle(n, a, b, bijective_rows, poked, seed):
    """Maps built from at most a distinct rows s_x and b distinct columns t_y
    (random maps almost never braid), then one entry of left (poked = 1) or
    right (poked = 2) changed: a rack PASS is the oracle's, and check_braid
    gives the scan's report."""
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
    _racked_as_scanned(r, _braid_failures(r))


def _braid_holds(left, right) -> np.ndarray:
    """For a stack of maps (m, n, n), whether each braids: the oracle's walk
    through both composites, on every triple of every map at once."""
    k = np.arange(len(left))[:, None, None, None]
    x, y, z = np.indices((left.shape[1],) * 3)

    def apply(a, b):
        return left[k, a, b], right[k, a, b]

    a, b = apply(x, y)
    a2, c = apply(b, z)
    b2, c2 = apply(a, a2)
    p, q = apply(y, z)
    x2, p2 = apply(x, p)
    q2, z2 = apply(p2, q)
    return ((b2 == x2) & (c2 == q2) & (c == z2)).reshape(len(left), -1).all(axis=1)


def test_rack_on_left_nondegenerate_size_3_maps_with_permutation_columns():
    """Every s_x and every t_y a permutation of 3 points: 216 x 216 maps.  A
    rack PASS is the oracle's, and the rack fails a solution only when one
    of its closures outgrows the cap of 3 members."""
    perms = np.array(list(permutations(range(3))), dtype=np.int32)
    stacks = perms[np.array(list(product(range(6), repeat=3)))]          # 216 x 3 x 3
    left = np.repeat(stacks, 216, axis=0)
    right = np.tile(stacks.transpose(0, 2, 1), (216, 1, 1))
    holds = _braid_holds(left, right)
    col = np.arange(3)[:, None]
    proved = 0
    for l, r, ok in zip(left, right, holds):
        if ybe._braid_from_rack(l, r):
            assert ok
            proved += 1
        elif ok:
            star = l[col, r[col, np.argsort(l, axis=1)].T]
            assert map_closure(l, 3) is None or map_closure(star, 3) is None
    assert (len(holds), int(holds.sum()), proved) == (216 * 216, 66, 54)


def test_rack_reads_law_a_on_a_base_of_the_s_group():
    """Every s_x is the identity or the transposition (1 2), so <s_X> fixes
    the point 0 and its base is the point 1; each t_y is a constant map or
    a permutation.  Law (a) read at 0 would pass 22 of these maps that do
    not braid; read on the base, a rack PASS is the oracle's."""
    rows = np.array([[0, 1, 2], [0, 2, 1]], dtype=np.int32)
    cols = np.array([[v] * 3 for v in range(3)] + list(permutations(range(3))), dtype=np.int32)
    left = rows[np.array(list(product(range(2), repeat=3)))]                # 8 x 3 x 3
    right = cols[np.array(list(product(range(9), repeat=3)))].transpose(0, 2, 1)   # 729
    left, right = np.repeat(left, len(right), axis=0), np.tile(right, (len(left), 1, 1))
    holds = _braid_holds(left, right)
    proved = [ybe._braid_from_rack(l, r) for l, r in zip(left, right)]
    assert not (np.array(proved) & ~holds).any()
    assert (len(holds), int(holds.sum()), sum(proved)) == (8 * 729, 86, 76)


def test_catalog_solutions_without_their_carrier_keep_their_report(catalog):
    """Every derived solution braids, so the rack proves it with no carrier
    (the tilde maps through their mirror), and the report is unchanged."""
    for inst in catalog:
        if inst.contained is None:
            continue
        for r in _derived(inst.contained):
            report, proved = _racked(SolutionMap(r.left, r.right))
            assert proved, (inst.name, r.provenance)
            assert report == check_braid(r)


@pytest.fixture(scope="module")
def abelianmap311():
    return solution_from_bracoid(abelianmap_instance(3, 11).contained)


def test_carrierless_derived_maps_are_proved_without_a_scan(abelianmap311, no_braid_scan):
    trivial256 = brace_solution(trivial_brace(cyclic_group(256)))
    for r in (trivial256, abelianmap311):
        assert check_braid(SolutionMap(r.left, r.right))["braid"].ok


def test_carrierless_order_1018_brace_solution_is_proved_without_a_scan(no_braid_scan):
    """The brace solution of the trivial brace on C509 x| C2: s_x = id and
    t_y conjugation, so its derived rack is the conjugation quandle, with
    1018 members in <L_X>, just inside the cap."""
    r = brace_solution(trivial_brace_instance((509, 2)).brace)
    report = check_braid(SolutionMap(r.left, r.right))
    assert report == check_braid(r)
    assert report["braid"].ok and report["bijective"].ok and not report["involutive"].ok


def test_carrierless_gl3f2_maps_are_proved_by_the_rack(gl3f2, no_braid_scan):
    """The bracoid solution is left nondegenerate, and the tilde map right
    nondegenerate, so it is proved through its mirror."""
    for r in (solution_from_bracoid(gl3f2.contained), tilde_solution_from_bracoid(gl3f2.contained)):
        bare = SolutionMap(r.left, r.right)
        assert check_braid(bare) == check_braid(r)


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
    assert not _braid_failures(r)
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
    assert not _braid_failures(r)
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
    assert not _braid_failures(r)
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
