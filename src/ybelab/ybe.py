"""Set-theoretic Yang-Baxter maps on finite index sets.

A candidate solution is a pair of n x n tables: ``left[x, y]`` and
``right[x, y]`` are the two output coordinates of r(x, y).  Nothing is
assumed at construction time; braid, bijectivity, involutivity and the
two nondegeneracy properties are decided on every triple or pair by
:func:`check_braid` and recorded in a :class:`SolutionReport`.  When a
map has a ``carrier`` group and r(x, y) = (s_x(y), t_y(x)) satisfies
xy = s_x(y) t_y(x) with s a left and t a right action, its braid relation
is proved from those laws in O(n^2 |gens|).  A map with few distinct
maps s_x and t_y, with or without a carrier, is decided on one triple per
class of them (_braid_from_profiles); every other map gets the n^3 scan.
The braid composites are evaluated in one place, _braid_masks, whose
x-slices the first-witness scan reads.

A derived map (from a brace, a semibrace or a bracoid that contains a
brace) is proved by its constructor, which raises on the first property
it asserts that fails, so a returned map satisfies the braid relation.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .checks import (AxiomViolated, Record, _action_law_holds, _first_repeat, _first_triple,
                     _first_true, adopted, frozen, frozen_transpose)
from .groups import FiniteGroup

# _braid_from_profiles runs its checks only when their work, about
# (a^2 + b^2 + |pi| |rho|) n, is at most 1/PROFILE_SHARE of the scan's n^3.
# The solutions of gl3f2 have a = b = 168 = n and exit at once; the
# abelianmap solutions of order 260 cost 444 n against 67,600 n.
PROFILE_SHARE = 8


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
    when first read, or at once when ``asserted`` names properties (from
    SolutionReport.properties): the first of them that fails raises.
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
            for name, ok, witness in self.report.properties():
                if name in asserted and not ok:
                    raise AxiomViolated(f"{provenance} map fails {name} at {witness}")

    @cached_property
    def report(self) -> SolutionReport:
        return check_braid(self)

    @cached_property
    def right_t(self) -> np.ndarray:
        """right_t[y, x] = t_y(x), a frozen view of ``right``."""
        return frozen_transpose(self.right)

    def __repr__(self) -> str:
        return f"SolutionMap(size={self.size}, provenance={self.provenance!r})"


class SolutionReport(Record):
    """Properties of a :class:`SolutionMap`, each decided on all pairs or triples.

    ``braid`` is True exactly when the relation holds on all n^3 triples,
    whether :func:`check_braid` proved it from carrier laws, checked it on
    one triple per class of the maps s_x and t_y, or scanned.
    Witness tuples are empty when the property holds.  The braid witness
    is the lexicographically first failing triple (x, y, z); the
    bijectivity witness is (x1, y1, x2, y2) for a pair collision; the
    nondegeneracy witnesses are (x, y1, y2) for a repeated row value of
    ``left`` and (y, x1, x2) for a repeated column value of ``right``.
    """

    __slots__ = ("size", "braid", "braid_witness", "bijective", "bijective_witness",
                 "involutive", "involutive_witness", "left_nondegenerate", "left_witness",
                 "right_nondegenerate", "right_witness")

    def __init__(self, size: int, braid: bool, braid_witness: tuple[int, ...] = (),
                 bijective: bool = True, bijective_witness: tuple[int, ...] = (),
                 involutive: bool = True, involutive_witness: tuple[int, ...] = (),
                 left_nondegenerate: bool = True, left_witness: tuple[int, ...] = (),
                 right_nondegenerate: bool = True, right_witness: tuple[int, ...] = ()):
        self._fill(size, braid, braid_witness, bijective, bijective_witness, involutive,
                   involutive_witness, left_nondegenerate, left_witness,
                   right_nondegenerate, right_witness)

    def properties(self) -> tuple[tuple[str, bool, tuple[int, ...]], ...]:
        """(name, holds, witness) for the five measured properties, braid first."""
        return (("braid", self.braid, self.braid_witness),
                ("bijective", self.bijective, self.bijective_witness),
                ("involutive", self.involutive, self.involutive_witness),
                ("left-nondegenerate", self.left_nondegenerate, self.left_witness),
                ("right-nondegenerate", self.right_nondegenerate, self.right_witness))


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


def _classes(rows: np.ndarray, seen: dict | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(label of each row, index of the first row of each label) of a 2-d array.

    Equal rows share a label.  Labels count up from len(seen) in order of
    first appearance, found in one pass over the row bytes; passing one
    ``seen`` dict to several calls numbers their rows together.
    """
    data = np.ascontiguousarray(rows)
    width = data.shape[1] * data.itemsize
    raw = data.tobytes()
    seen = {} if seen is None else seen
    labels = np.array([seen.setdefault(raw[i * width:(i + 1) * width], len(seen))
                       for i in range(len(data))], dtype=np.int32)
    return labels, np.unique(labels, return_index=True)[1]


def _composite_ids(maps: np.ndarray) -> np.ndarray:
    """ids[k, l]: a label of the map maps[k] o maps[l], equal labels for equal maps."""
    seen: dict = {}
    ids = np.empty((len(maps),) * 2, dtype=np.int32)
    for k, outer in enumerate(maps):
        ids[k] = _classes(outer[maps], seen)[0]
    return ids


def _braid_from_profiles(left: np.ndarray, right: np.ndarray) -> bool:
    """True when the braid relation holds, decided on one triple per class.

    Write s_x = left[x] and t_y = right[:, y].  Let S_0..S_{a-1} be the
    distinct maps s_x and T_0..T_{b-1} the distinct t_y, with s_x = S_cs(x)
    and t_y = T_ct(y).  Put (a', b') = r(x, y) and (p, q) = r(y, z).  Then
    r12 r23 r12 and r23 r12 r23 send (x, y, z) to
        (s_a' s_b'(z), t_{s_b'(z)}(a'), t_z t_y(x))  and
        (s_x s_y(z), s_{t_p(x)}(q), t_q t_p(x)),
    since t_z(b') = t_z t_y(x) and s_x(p) = s_x s_y(z).  So the relation
    holds exactly when, for every x, y, z (Etingof-Schedler-Soloviev, Duke
    Math. J. 100, 1999):
      (1) s_a' o s_b' = s_x o s_y;
      (2) t_z o t_y = t_q o t_p;
      (3) t_{s_b'(z)}(a') = s_{t_p(x)}(q).
    (1) is one comparison of composite labels per pair (x, y), once each
    S_k o S_l has a label: a^2 n work and n^2 lookups.  (2) is the same
    with T, per pair (y, z).  In (3), x enters only through s_x (giving
    a'), through b' = T_ct(y)(x) (read only through s_b', so through
    cs(b')) and through t_p(x) = T_ct(p)(x) (read only through
    s_{t_p(x)}).  So x enters only through its profile
    pi(x) = (cs(x), cs(T_0 x), .., cs(T_{b-1} x)).  Likewise z enters only
    through s_b'(z) = S_cs(b')(z) and p = S_cs(y)(z) (each read only
    through t, so through ct) and q = t_z(y), so only through
    rho(z) = (ct(z), ct(S_0 z), .., ct(S_{a-1} z)).  Hence (3) holds on all
    triples iff it holds on one x per pi class, every y and one z per rho
    class: |pi| |rho| n work.  The checks run cheapest first, and only
    when a^2 + b^2 + |pi| |rho| is at most n^2 / PROFILE_SHARE; otherwise
    this returns False at once, so False proves nothing and the scan
    decides.
    """
    n = left.shape[0]
    cs, firsts = _classes(left)
    ct, firsts_t = _classes(right.T)
    S, T = left[firsts], right[:, firsts_t].T
    work = len(S) ** 2 + len(T) ** 2
    if PROFILE_SHARE * work > n * n:
        return False
    xs = _classes(np.vstack([cs, cs[T]]).T)[1]           # one x per pi class
    zs = _classes(np.vstack([ct, ct[S]]).T)[1]           # one z per rho class
    if PROFILE_SHARE * (work + len(xs) * len(zs)) > n * n:
        return False
    C, D = _composite_ids(S), _composite_ids(T)
    if not np.array_equal(C[cs[left], cs[right]], C[cs[:, None], cs]):
        return False
    if not np.array_equal(D[ct[right], ct[left]], D[ct, ct[:, None]]):
        return False
    P, Q = left[:, zs], right[:, zs]                     # p, q at (y, z)
    return all(np.array_equal(right[left[x, :, None], left[right[x, :, None], zs]],
                              left[right[x][P], Q]) for x in xs)


def check_braid(r: SolutionMap) -> SolutionReport:
    """Decide the braid relation on all n^3 triples, plus the pairwise properties.

    A map with a carrier is first tried by _braid_from_carrier, and then
    any map by _braid_from_profiles; either proves the relation on every
    triple with no scan.  When neither does, the x-slices of _braid_masks
    are scanned in order until the first failing one names the first
    failing (y, z), so the verdict and witness are always those of the
    full scan.  The four pairwise properties are always measured in full.
    """
    left, right = r.left, r.right
    n = r.size
    if ((r.carrier is not None and _braid_from_carrier(r))
            or _braid_from_profiles(left, right)):
        braid_witness = ()
    else:
        braid_witness = _first_triple(n, _braid_masks(left, right)) or ()

    bij_witness = ()
    codes = left.astype(np.int64).ravel() * n + right.ravel()
    repeated = np.flatnonzero(np.bincount(codes, minlength=n * n) > 1)
    if repeated.size:                   # first two pairs with the least repeated image
        i, j = np.flatnonzero(codes == repeated[0])[:2].tolist()
        bij_witness = (i // n, i % n, j // n, j % n)

    grid_x, grid_y = np.indices((n, n))
    inv_witness = _first_true((left[left, right] != grid_x) | (right[left, right] != grid_y))

    lnd_witness = _first_repeat(left) or ()
    rnd_witness = _first_repeat(r.right_t) or ()

    return SolutionReport(n, not braid_witness, braid_witness, not bij_witness, bij_witness,
                          not inv_witness, inv_witness, not lnd_witness, lnd_witness,
                          not rnd_witness, rnd_witness)


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

    lr = cb.lambda_rho
    G = cb.bracoid.G
    inv = G.inv
    pair = np.ix_(inv, inv)
    left = inv[lr.rho[pair]]
    right = inv[lr.lam[pair].T]
    via = solution_from_semibrace(semibraces.bracoid_to_semibrace(cb))
    if not (np.array_equal(left, via.left) and np.array_equal(right, via.right)):
        raise AxiomViolated(
            "bracoid solution disagrees with its semibrace counterpart")
    return SolutionMap(frozen(left), frozen(right), provenance="bracoid", carrier=G,
                       asserted=("braid", "left-nondegenerate"))


def tilde_solution_from_bracoid(cb) -> SolutionMap:
    """Right nondegenerate companion map (x, y) -> (lambda_x(y), rho_y(x))."""
    lr = cb.lambda_rho
    return SolutionMap(lr.lam, lr.rho.T, provenance="bracoid-tilde", carrier=cb.bracoid.G,
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
