"""Set-theoretic Yang-Baxter maps on finite index sets.

A candidate solution is a pair of n x n tables: ``left[x, y]`` and
``right[x, y]`` are the two output coordinates of r(x, y).  Nothing is
assumed at construction time; braid, bijectivity, involutivity and the
two nondegeneracy properties are decided on every triple or pair by
:func:`check_braid`, one `checks.Check` each, with its first witness.  The
braid relation is proved from the laws of the map's ``carrier`` group when
it has one (_braid_from_carrier, O(n^2 |gens|)), else from its derived rack
when it is left or right nondegenerate (_braid_from_rack, about n^2 log n);
any other map, or one that no proof passes, gets the n^3 scan.  The braid
composites are evaluated in one place, _braid_masks, whose x-slices the
first-witness scan reads.

A derived map (from a brace, a semibrace or a bracoid that contains a
brace) is proved by its constructor, which refuses through `checks.refuse`
with the first check it asserts that fails, so a returned map satisfies
the braid relation.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .checks import (AxiomViolated, Check, Record, Report, _action_law_holds, _first_repeat,
                     _first_triple, _first_true, adopted, frozen, frozen_transpose, map_closure,
                     refuse)
from .groups import FiniteGroup


class SizeMismatch(ValueError):
    """Two solutions on index sets of different sizes were compared."""


class MissingCarrier(ValueError):
    """iota-conjugation was requested on a map with no group attached."""


class NotClosed(Record):
    """Witness that a subset is not invariant under a solution map.

    r(x, y) left the subset in the named output coordinate, taking the
    offending value there.
    """

    __slots__ = ("x", "y", "coordinate", "value")

    def __init__(self, x: int, y: int, coordinate: str, value: int):
        self._fill(x, y, coordinate, value)


class SolutionMap:
    """A candidate map r on pairs over {0, .., n-1}, stored as two tables.

    ``carrier`` optionally records the group whose inversion realises the
    involution iota(x, y) = (x^-1, y^-1); it is required only by
    :func:`conjugate_solution` with ``by="iota"``.  The tables are held as
    `checks.adopted` gives them: a frozen view is kept, anything else copied.
    ``right_t`` is the transpose of ``right`` as a frozen view
    (`checks.frozen_transpose`), made once per map, so the laws read on it
    are memoised at no copy.  ``report`` is the map's one check_braid, run
    when first read, or at once when ``asserted`` names some of its checks:
    the first of them, in report order, that fails is refused through
    `checks.refuse` as AxiomViolated("<provenance> map fails: <describe()>").
    A name in ``asserted`` that is no check of the report is a ValueError.
    """

    def __init__(self, left, right, provenance: str = "unspecified",
                 carrier: FiniteGroup | None = None, asserted: tuple[str, ...] = ()):
        left, right = adopted(left), adopted(right)
        if left.ndim != 2 or left.shape[0] != left.shape[1]:
            raise ValueError(f"left table is not square: shape {left.shape}")
        if right.shape != left.shape:
            raise ValueError(
                f"table shapes differ: {left.shape} vs {right.shape}")
        n = left.shape[0]
        for label, table in (("left", left), ("right", right)):
            if n and (table.min() < 0 or table.max() >= n):
                raise ValueError(f"{label} table has entries outside 0..{n - 1}")
        if carrier is not None and carrier.order != n:
            raise SizeMismatch(
                f"carrier of order {carrier.order} attached to a size-{n} map")
        self.left = left
        self.right = right
        self.size = n
        self.provenance = provenance
        self.carrier = carrier
        self.asserted = asserted
        if asserted:
            names = [c.name for c in self.report.checks]
            unknown = [name for name in asserted if name not in names]
            if unknown:
                raise ValueError(f"asserted {unknown} are not checks of check_braid: {names}")
            refuse((c for c in self.report.checks if c.name in asserted),
                   f"{provenance} map fails: ")

    @cached_property
    def report(self) -> SolutionReport:
        return check_braid(self)

    @cached_property
    def right_t(self) -> np.ndarray:
        """right_t[y, x] = t_y(x), a frozen view of ``right``."""
        return frozen_transpose(self.right)

    def __repr__(self) -> str:
        return f"SolutionMap(size={self.size}, provenance={self.provenance!r})"


class SolutionReport(Report):
    """The report of :func:`check_braid`: a `checks.Report` of its five checks.

    Its one addition, ``braid_witness``, is read by the benchmark's witness
    check; it goes with ROADMAP item 1a, which makes that check data.
    """

    __slots__ = ()

    @property
    def braid_witness(self) -> tuple[int, ...]:
        return self["braid"].witness


def _braid_masks(left: np.ndarray, right: np.ndarray):
    """x -> the (y, z) mask of the triples (x, y, z) where the composites differ.

    r12 r23 r12 and r23 r12 r23 are evaluated on one x-slice per call, by
    np.take on raveled tables (flat index row * n + column) into buffers
    allocated once; values are uint16 when n < 65536.  SolutionMap keeps
    every entry in 0..n-1, so every flat index is in range and mode="clip"
    only skips the bounds check.  Each call returns a fresh mask.
    """
    n = left.shape[0]
    small = np.uint16 if n < 1 << 16 else np.int32
    lflat, rflat = left.astype(small).ravel(), right.astype(small).ravel()
    lrows, rrows = lflat.reshape(n, n), rflat.reshape(n, n)
    lidx, ridx = left.astype(np.intp), right.astype(np.intp).ravel()
    flat = lidx.ravel()
    offset = np.arange(n, dtype=np.intp) * n            # row start in a raveled table
    index = np.empty(n * n, dtype=np.intp)
    grid = index.reshape(n, n)
    one, two = np.empty(n * n, dtype=small), np.empty(n * n, dtype=small)
    rows = two.reshape(n, n)
    differ = np.empty(n * n, dtype=bool)

    def bad_at(x: int) -> np.ndarray:
        lx, rx = lrows[x], rrows[x]
        # hand = r_x(left[y, z]); r23 r12 r23 gives r(hand, right[y, z]).
        np.take(offset[rx], flat, out=index, mode="clip")
        np.add(index, ridx, out=index)
        np.take(rflat, index, out=one, mode="clip")     # alt3
        np.take(rrows, rx, axis=0, out=rows)            # out3 = right[rx[y], z]
        bad = one != two
        np.take(lflat, index, out=one, mode="clip")     # alt2
        # mid = left[rx[y], z]; r12 r23 r12 gives r(lx[y], mid).
        np.take(lidx, rx, axis=0, out=grid)
        np.add(grid, offset[lx][:, None], out=grid)
        np.take(rflat, index, out=two, mode="clip")     # out2
        bad |= np.not_equal(one, two, out=differ)
        np.take(lflat, index, out=one, mode="clip")     # out1
        np.take(lx, flat, out=two, mode="clip")         # alt1
        bad |= np.not_equal(one, two, out=differ)
        return bad.reshape(n, n)

    return bad_at


def _complement(carrier: FiniteGroup, left: np.ndarray) -> np.ndarray:
    """t[x, y] = (s[x, y]^-1 . x) . y, the one right table that makes (P) of
    _braid_from_carrier hold for left table s: xy = s_x(y) t_y(x)."""
    gt = carrier.table
    arange = np.arange(carrier.order, dtype=np.int32)
    return gt[gt[carrier.inv[left], arange[:, None]], arange[None, :]]


def _braid_from_carrier(r: SolutionMap) -> bool:
    """True when three laws on the carrier group of r prove the braid relation.

    Write r(x, y) = (s_x(y), t_y(x)), so s_x = left[x] and t_y = right[:, y].
    Suppose
      (P) xy = s_x(y) t_y(x),
      (L) s_x o s_y = s_{xy},
      (R) t_z o t_y = t_{yz}.
    Then r12 r23 r12 and r23 r12 r23 agree on every (x, y, z):
      - first coordinate: s_{s_x(y)} s_{t_y(x)}(z) = s_{s_x(y) t_y(x)}(z)
        = s_{xy}(z) by (L) and (P), against s_x s_y(z) = s_{xy}(z) by (L);
      - third coordinate: t_z t_y(x) = t_{yz}(x) by (R), against
        t_{t_z(y)} t_{s_y(z)}(x) = t_{s_y(z) t_z(y)}(x) = t_{yz}(x) by (R)
        and (P);
      - middle coordinate: by (P) each application of r keeps the product
        of the three coordinates, so both sides multiply to xyz; the outer
        coordinates agree, and a group is cancellative.
    (P) is one n^2 gather.  (L) says left is a left action of G, and (R)
    that right_t is a left action of G^op, whose table is G.opposite; each
    is proved on generators by _action_law_holds in O(n^2 |gens|).  Neither
    s_e = id nor t_e = id is used.  Soundness rests on FiniteGroup's
    contract: its table is proved associative, by Light's test, with
    identity and inverses.  The laws are sufficient, not necessary, so
    False proves nothing and the scan decides.
    """
    gt = r.carrier.table
    return (np.array_equal(gt[r.left, r.right], gt)
            and _action_law_holds(gt, r.left)
            and _action_law_holds(r.carrier.opposite, r.right_t))


def _braid_from_rack(left: np.ndarray, right: np.ndarray) -> bool:
    """True when the derived rack of r proves its braid relation; every s_x is a permutation.

    Write r(x, y) = (s_x(y), t_y(x)), y * x = s_y t_{s_x^-1(y)}(x) and L_y(x)
    = y * x.  Then r braids iff (Soloviev, Math. Res. Lett. 7, 2000;
    Lebed-Vendramin, Adv. Math. 304, 2017):
      (a) s_x s_y = s_{s_x(y)} s_{t_y(x)} for all x, y;
      (b) every L_z is an endomorphism of (X, *);
      (c) every s_x is an endomorphism of (X, *).
    Proof: s_{s_x(y)} s_{t_y(x)}(z) and s_x s_y(z) are the first coordinates
    of r12 r23 r12 and r23 r12 r23 at (x, y, z), so a solution satisfies (a).
    J(x, y, z) = (x, s_x(y), s_x s_y(z)) is a bijection.  With r'(x, y) =
    (y, y * x), J r12 = r'12 J iff (a), as s_x(y) * x = s_{s_x(y)} t_y(x);
    and J r23 J^-1 = R, R(x, u, v) = (x, v, f_x(v, u)) with f_x(v, u) =
    s_x(s_x^-1(v) * s_x^-1(u)).  So under (a) r braids iff r'12 R r'12 =
    R r'12 R, which at (x, u, v) read (v, v * u, f_u(v, u * x)) and
    (v, f_x(v, u), f_v(f_x(v, u), v * x)).  The middle coordinates agree iff
    (c); then f_x(v, u) = v * u, and the last agree iff (b).

    Endomorphisms compose, so (b) and (c) hold iff the kept generators of
    <s_X> and of <L_X> (`map_closure`) are endomorphisms: n^2 gathers each.
    Both sides of (a) lie in the group <s_X>, whose members agree on a base
    (points with trivial pointwise stabiliser) only when equal, so (a) is
    checked on a base of at most log2 n points.  Each closure stops above n
    members, so the proof never costs more than the n^3 scan.  False (a
    closure too large, or a law failing) proves nothing: the scan decides.
    """
    n = left.shape[0]
    col = np.arange(n)[:, None]
    sinv = np.argsort(left, axis=1)                     # sinv[x] = s_x^-1
    star = left[col, right[col, sinv].T.copy()]         # star[y, x] = y * x
    if (sigma := map_closure(left, n)) is None:
        return False
    stabiliser, kept = sigma
    base = []
    while len(stabiliser) > 1:
        base.append(point := int(np.argmax((stabiliser != col.T).any(axis=0))))
        stabiliser = stabiliser[stabiliser[:, point] == point]
    if not all(np.array_equal(left[:, left[:, b]], left[left, left[right, b]]) for b in base):
        return False
    rack = map_closure(star, n)
    return rack is not None and all(np.array_equal(g[star], star[g][:, g])
                                    for g in (*kept, *rack[1]))


def check_braid(r: SolutionMap) -> SolutionReport:
    """The five properties of r, each decided on all n^3 triples or n^2 pairs.

    The report's checks are, in order: ``braid``, ``bijective``,
    ``involutive``, ``left-nondegenerate`` and ``right-nondegenerate``.  A
    failing check names its first witness: the lexicographically first
    failing triple (x, y, z) for braid; (x1, y1, x2, y2) for a pair
    collision; the first (x, y) with r(r(x, y)) != (x, y); (x, y1, y2) for a
    repeated row value of ``left`` and (y, x1, x2) for a repeated column
    value of ``right``.

    The proof is chosen by what r is: _braid_from_carrier when it has a
    carrier, then _braid_from_rack when it is left nondegenerate, or on its
    mirror (right.T, left.T) when it is right nondegenerate: the swap
    conjugate, which braids iff r does, as (x, y, z) -> (z, y, x) turns r12
    into its r23.  When no proof passes, the x-slices of _braid_masks are
    scanned until the first failing one names the first failing (y, z), so
    verdict and witness are always the full scan's.  The four pairwise
    properties are always measured in full.
    """
    left, right = r.left, r.right
    n = r.size
    left_repeat, right_repeat = _first_repeat(left), _first_repeat(r.right_t)
    if ((r.carrier is not None and _braid_from_carrier(r))
            or (_braid_from_rack(left, right) if left_repeat is None
                else right_repeat is None and _braid_from_rack(r.right_t, left.T))):
        triple = ()
    else:
        triple = _first_triple(n, _braid_masks(left, right)) or ()

    collision = ()
    codes = left.astype(np.int64) * n + right           # r(x, y) as a flat index
    repeated = np.flatnonzero(np.bincount(codes.ravel(), minlength=n * n) > 1)
    if repeated.size:                   # first two pairs with the least repeated image
        i, j = np.flatnonzero(codes == repeated[0])[:2].tolist()
        collision = (i // n, i % n, j // n, j % n)

    grid_x, grid_y = np.indices((n, n))
    unfixed = _first_true((left.take(codes) != grid_x) | (right.take(codes) != grid_y))

    witnesses = (("braid", triple), ("bijective", collision), ("involutive", unfixed),
                 ("left-nondegenerate", left_repeat or ()),
                 ("right-nondegenerate", right_repeat or ()))
    return SolutionReport(tuple(Check(name, not w, w) for name, w in witnesses))


def solution_from_semibrace(sb) -> SolutionMap:
    """The map (x, y) -> (x(x^-1 + y), [x(x^-1 + y)]^-1 xy) of a semibrace.

    Its constructor proves the braid relation and left nondegeneracy.
    """
    dot = sb.dot
    return SolutionMap(sb.L, frozen(_complement(dot, sb.L)), provenance="semibrace",
                       carrier=dot, asserted=("braid", "left-nondegenerate"))


def solution_from_bracoid(cb) -> SolutionMap:
    """Left nondegenerate solution attached to a bracoid containing a brace.

    r(x, y) = (rho_{x^-1}(y^-1)^-1, lambda_{y^-1}(x^-1)^-1), built from the
    translation tables of ``cb``.  The tables are checked entry for entry
    against the route through the associated semibrace, and the map's
    constructor proves the braid relation and left nondegeneracy.  H is
    closed under r, and on H it is r_{B^op} = r_B^-1, the inverse of the
    brace solution of the contained brace B (Koch-Truman, J. Algebra 546,
    2020); it equals r_B exactly when (B, *) is abelian.
    """
    from . import semibraces

    lam, rho = cb.lambda_rho
    G = cb.bracoid.G
    inv = G.inv
    pair = np.ix_(inv, inv)
    left = inv[rho[pair]]
    right = inv[lam[pair].T]
    via = solution_from_semibrace(semibraces.bracoid_to_semibrace(cb))
    if not (np.array_equal(left, via.left) and np.array_equal(right, via.right)):
        raise AxiomViolated(
            "bracoid solution disagrees with its semibrace counterpart")
    return SolutionMap(frozen(left), frozen(right), provenance="bracoid", carrier=G,
                       asserted=("braid", "left-nondegenerate"))


def tilde_solution_from_bracoid(cb) -> SolutionMap:
    """Right nondegenerate companion map (x, y) -> (lambda_x(y), rho_y(x))."""
    lam, rho = cb.lambda_rho
    return SolutionMap(lam, rho.T, provenance="bracoid-tilde", carrier=cb.bracoid.G,
                       asserted=("braid", "right-nondegenerate"))


def conjugate_solution(r: SolutionMap, by: str) -> SolutionMap:
    """Conjugate r by one of the involutions tau (swap) or iota (invert).

    tau needs no extra data; iota takes inverses from ``r.carrier`` and
    refuses to run without one.  Conjugating twice by the same involution
    restores the original tables.
    """
    if by == "tau":
        return SolutionMap(r.right.T, r.left.T,
                           provenance=f"tau({r.provenance})", carrier=r.carrier)
    if by == "iota":
        if r.carrier is None:
            raise MissingCarrier("iota-conjugation needs a carrier group")
        inv = r.carrier.inv
        pair = np.ix_(inv, inv)
        return SolutionMap(frozen(inv[r.left[pair]]), frozen(inv[r.right[pair]]),
                           provenance=f"iota({r.provenance})", carrier=r.carrier)
    raise ValueError(f"unknown involution {by!r} (expected 'tau' or 'iota')")


def restrict_solution(r: SolutionMap, subset) -> SolutionMap | NotClosed:
    """Restrict r to a subset of the index set, or report non-closure.

    The subset must be sorted and duplicate-free.  The first pair (in
    lexicographic order, left coordinate before right) whose image leaves
    the subset is returned as a :class:`NotClosed` witness.
    """
    sub = adopted(subset)
    if sub.ndim != 1 or sub.size == 0:
        raise ValueError("subset must be a nonempty 1-d index list")
    if (np.diff(sub) <= 0).any():
        raise ValueError("subset must be strictly increasing")
    if sub[0] < 0 or sub[-1] >= r.size:
        raise ValueError("subset indices out of range")
    pos = np.full(r.size, -1, dtype=np.int32)
    pos[sub] = np.arange(sub.size, dtype=np.int32)
    grid = np.ix_(sub, sub)
    sub_left = r.left[grid]
    sub_right = r.right[grid]
    for table, label in ((sub_left, "left"), (sub_right, "right")):
        escaped = _first_true(pos[table] < 0)
        if escaped:
            i, j = escaped
            return NotClosed(int(sub[i]), int(sub[j]), label, int(table[i, j]))
    return SolutionMap(frozen(pos[sub_left]), frozen(pos[sub_right]),
                       provenance=f"restrict({r.provenance})")


def solutions_equal(r1: SolutionMap, r2: SolutionMap) -> bool:
    """Entry-wise equality of both tables."""
    if r1.size != r2.size:
        raise SizeMismatch(f"sizes differ: {r1.size} vs {r2.size}")
    return bool(np.array_equal(r1.left, r2.left)
                and np.array_equal(r1.right, r2.right))
