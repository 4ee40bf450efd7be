import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ybelab import ybe
from ybelab.braces import AxiomViolated, SkewBrace, brace_solution, trivial_brace
from ybelab.catalog import promote_brace
from ybelab.groups import cyclic_group, semidirect_product
from ybelab.semibraces import Semibrace, bracoid_to_semibrace
from ybelab.ybe import (
    ISOMORPHISM_CAP,
    CapExceeded,
    MissingCarrier,
    NotClosed,
    SizeMismatch,
    SolutionMap,
    assert_properties,
    check_braid,
    conjugate_solution,
    restrict_solution,
    solution_from_bracoid,
    solution_from_semibrace,
    solution_isomorphism,
    solutions_equal,
    tilde_solution_from_bracoid,
)


# Oracle: both braid composites walked one triple at a time.
def _brute_braid_failures(r):
    fails = []
    for x in range(r.size):
        for y in range(r.size):
            for z in range(r.size):
                a, b = r.apply(x, y)
                a2, c = r.apply(b, z)
                b2, c2 = r.apply(a, a2)
                p, q = r.apply(y, z)
                x2, p2 = r.apply(x, p)
                q2, z2 = r.apply(p2, q)
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
    assert report.braid and report.bijective and report.involutive
    assert report.left_nondegenerate and report.right_nondegenerate


def test_conjugation_map_is_a_noninvolutive_solution():
    r = brace_solution(trivial_brace(_sd32()))
    assert not _brute_braid_failures(r)
    report = check_braid(r)
    assert report.braid and report.bijective
    assert report.left_nondegenerate and report.right_nondegenerate
    assert not report.involutive
    x, y = report.involutive_witness
    assert r.apply(*r.apply(x, y)) != (x, y)


def test_multiplication_map_fails_the_braid_relation():
    G = cyclic_group(3)
    r = SolutionMap(np.tile(np.arange(3, dtype=np.int32), (3, 1)), G.table)
    fails = _brute_braid_failures(r)
    assert fails[0] == (0, 0, 1)
    assert len(fails) == 18
    report = check_braid(r, collect_all=True)
    assert not report.braid
    assert report.braid_witness == (0, 0, 1)
    assert report.braid_counterexamples == tuple(fails)


def test_short_scan_stops_at_first_failing_slice():
    G = cyclic_group(3)
    r = SolutionMap(np.tile(np.arange(3, dtype=np.int32), (3, 1)), G.table)
    report = check_braid(r)
    assert report.braid_counterexamples is None
    assert report.braid_witness == (0, 0, 1)


def test_assert_properties_names_the_first_failing_asserted_property():
    # The constant map braids but has none of the other four properties.
    r = SolutionMap(np.zeros((3, 3)), np.zeros((3, 3)))
    assert assert_properties(r, "constant", "braid") is r
    with pytest.raises(AxiomViolated,
                       match=r"^constant map fails left-nondegenerate at \(0, 0, 1\)$"):
        assert_properties(r, "constant", "right-nondegenerate", "left-nondegenerate", "braid")


@pytest.fixture
def no_braid_scan(monkeypatch):
    """Make the n^3 braid scan raise, to show that a check never reached it."""
    def scan(*args, **kwargs):
        raise AssertionError("the n^3 braid scan ran")
    monkeypatch.setattr(ybe, "_braid_masks", scan)


def test_derived_solutions_are_proved_without_a_scan(catalog, no_braid_scan):
    with_brace = [inst for inst in catalog if inst.contained is not None]
    assert len(with_brace) == 9
    for inst in with_brace:
        cb = inst.contained
        for r in (brace_solution(cb.brace),
                  solution_from_semibrace(bracoid_to_semibrace(cb)),
                  solution_from_bracoid(cb), tilde_solution_from_bracoid(cb)):
            assert check_braid(r).braid


def test_order_1024_brace_solution_is_proved_without_a_scan(no_braid_scan):
    r = brace_solution(trivial_brace(cyclic_group(1024)))
    report = check_braid(r)
    assert report.braid and report.bijective and report.involutive


def test_maps_without_a_carrier_are_scanned(no_braid_scan):
    with pytest.raises(AssertionError, match="scan ran"):
        check_braid(_flip(3))


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


def test_projection_semibrace_solution_is_multiplication_then_identity():
    G = _sd32()
    sb = Semibrace(G, np.tile(np.arange(6, dtype=np.int32), (6, 1)))
    r = solution_from_semibrace(sb)
    assert np.array_equal(r.left, G.table)
    assert not r.right.any()
    assert not _brute_braid_failures(r)
    report = check_braid(r)
    assert report.braid and report.left_nondegenerate
    assert not report.right_nondegenerate and not report.bijective


def test_brace_semibrace_solution_uses_the_opposite_star(semidirect32):
    for B in (trivial_brace(_sd32()), semidirect32.brace):
        sb = bracoid_to_semibrace(promote_brace(B))
        r = solution_from_semibrace(sb)
        opposite = brace_solution(SkewBrace(B.star.opposite(), B.dot))
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
    assert report.braid and report.left_nondegenerate
    # It also coincides with the route through the semibrace.
    assert solutions_equal(r, solution_from_semibrace(bracoid_to_semibrace(cb)))


def test_tilde_solution_of_trivial_brace_is_conjugation():
    G = _sd32()
    cb = promote_brace(trivial_brace(G))
    r = tilde_solution_from_bracoid(cb)
    for x in range(6):
        for y in range(6):
            assert r.apply(x, y) == (y, G.mul(G.mul(G.inv[y], x), y))


def test_tilde_solution_properties(semidirect32):
    r = tilde_solution_from_bracoid(semidirect32.contained)
    assert not _brute_braid_failures(r)
    report = check_braid(r)
    assert report.braid and report.right_nondegenerate
    # lambda only reaches H, so left rows repeat on a proper quotient.
    assert not report.left_nondegenerate


def test_tau_conjugation_is_an_involution_and_swaps_degeneracy(semidirect32):
    r = solution_from_bracoid(semidirect32.contained)
    t = conjugate_solution(r, "tau")
    assert solutions_equal(conjugate_solution(t, "tau"), r)
    rep_r, rep_t = check_braid(r), check_braid(t)
    assert rep_t.braid
    assert rep_t.left_nondegenerate == rep_r.right_nondegenerate
    assert rep_t.right_nondegenerate == rep_r.left_nondegenerate


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
        expected = brace_solution(SkewBrace(cb.Hstar.opposite(), cb.Hdot))
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
    assert out.value == G.mul(G.mul(G.inv[2], 1), 2)


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


def test_isomorphism_finds_a_relabelling():
    r = brace_solution(trivial_brace(_sd32()))
    perm = np.array([0, 2, 1, 4, 3, 5], dtype=np.int32)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(6)
    other = SolutionMap(perm[r.left[np.ix_(inv, inv)]],
                        perm[r.right[np.ix_(inv, inv)]])
    f = solution_isomorphism(r, other)
    assert f is not None
    arr = np.asarray(f)
    assert np.array_equal(arr[r.left], other.left[np.ix_(arr, arr)])
    assert np.array_equal(arr[r.right], other.right[np.ix_(arr, arr)])


def test_isomorphism_distinguishes_flip_from_conjugation():
    r = brace_solution(trivial_brace(_sd32()))
    assert solution_isomorphism(r, _flip(6)) is None


def test_isomorphism_cap():
    n = ISOMORPHISM_CAP + 1
    with pytest.raises(CapExceeded):
        solution_isomorphism(_flip(n), _flip(n))
