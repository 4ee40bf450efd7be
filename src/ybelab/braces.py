"""Skew braces: two group tables on one index set, coupled by one law.

A pair (star, dot) qualifies when x.(y*z) = (x.y) * x^{-*} * (x.z) for
every triple.  The displaced action gamma[x, y] = x^{-*} * (x.y) is
precomputed per brace; it drives the strong-left-ideal test, the
holomorph embedding, and the derived Yang-Baxter map.
"""

from __future__ import annotations

import numpy as np

from .checks import (AxiomViolated, Check, Record, Report, _distinct, _rows_law_failure,
                     frozen, group_table_checks)
from .groups import MAX_ORDER, FiniteGroup, GroupMap, Subgroup, holomorph
from .ybe import SolutionMap, assert_properties


class NotAbelianImage(ValueError):
    """The endomorphism handed to the abelian-map construction is unusable."""


class ConstructionFailed(ValueError):
    """A constructed table failed its unconditional re-verification."""


def _as_table(obj) -> np.ndarray:
    return np.asarray(getattr(obj, "table", obj), dtype=np.int32)


def _gamma(star: FiniteGroup, dot: FiniteGroup) -> np.ndarray:
    """gamma[x, y] = x^{-*} * (x.y)."""
    return star.table[star.inv[:, None], dot.table]


def _compat_failure(star: FiniteGroup, dot: FiniteGroup) -> tuple[int, int, int] | None:
    """First triple breaking x.(y*z) = (x.y) * x^{-*} * (x.z), or None.

    The brace law is the rows law of gamma over (G, *): multiplying on the
    left by x^{-*}, a bijection, turns it at (x, y, z) into
    gamma_x(y*z) = gamma_x(y) * gamma_x(z), so the law holds exactly when
    every gamma_x is an endomorphism of (G, *) (Guarnieri-Vendramin), and
    the two laws fail at the same triples, so the first is the same.
    """
    return _rows_law_failure(star.table, _gamma(star, dot))


class SkewBrace:
    """Verified brace structure; construction rejects any law violation."""

    def __init__(self, star: FiniteGroup, dot: FiniteGroup,
                 abelian_data: AbelianMapData | None = None):
        if star.order != dot.order:
            raise ValueError(
                f"orders differ: {star.order} (star) vs {dot.order} (dot)")
        gamma = _gamma(star, dot)
        witness = _rows_law_failure(star.table, gamma)      # the brace law: _compat_failure
        if witness is not None:
            raise AxiomViolated(f"brace law fails at (x, y, z) = {witness}")
        self.star = star
        self.dot = dot
        self.order = star.order
        self.gamma = frozen(gamma)
        self.abelian_data = abelian_data

    def __repr__(self) -> str:
        return f"SkewBrace(order={self.order}, dot={self.dot.name!r})"


class AbelianMapData(Record):
    """An endomorphism with abelian image plus the map phi(x) = x.psi(x)^-1."""

    __slots__ = ("G", "psi", "phi")

    def __init__(self, G: FiniteGroup, psi: GroupMap, phi: np.ndarray):
        self._fill(G, psi, phi)
        img = np.asarray(self.psi.images, dtype=np.int32)
        arange = np.arange(self.G.order, dtype=np.int32)
        expected = self.G.table[arange, self.G.inv[img]]
        if not np.array_equal(np.asarray(self.phi), expected):
            raise ValueError("phi does not agree with x . psi(x)^-1")


def verify_skew_brace(star, dot) -> Report:
    """Axiom report for a candidate pair: group laws, sizes, coupling law."""
    st, dt = _as_table(star), _as_table(dot)
    results = list(group_table_checks(st, prefix="star."))
    results.extend(group_table_checks(dt, prefix="dot."))
    same = st.shape == dt.shape
    results.append(Check("same-order", same, detail=f"{st.shape} vs {dt.shape}"))
    if same and all(c.ok for c in results):
        witness = _compat_failure(FiniteGroup(st), FiniteGroup(dt))
        results.append(Check("compat", witness is None, witness=witness or ()))
    else:
        results.append(Check("compat", False,
                             detail="not evaluated: table checks failed"))
    return Report(tuple(results))


def trivial_brace(G: FiniteGroup) -> SkewBrace:
    """star = dot; the coupling law collapses and every gamma_x is trivial."""
    return SkewBrace(G, G)


def abelian_map_brace(G: FiniteGroup, psi: GroupMap) -> SkewBrace:
    """Brace (G, *, .) with x * y = x . psi(x)^-1 . y . psi(x).

    psi must be an endomorphism of G with abelian image.  The star table
    is re-verified unconditionally, so a wrong formula surfaces as
    ConstructionFailed rather than a silently bad brace.
    """
    same_base = psi.source is G or np.array_equal(psi.source.table, G.table)
    same_base = same_base and (
        psi.target is G or np.array_equal(psi.target.table, G.table))
    if not same_base:
        raise ValueError("psi must be an endomorphism of G")
    img = np.asarray(psi.images, dtype=np.int32)
    values = _distinct(img, G.order)
    block = G.table[np.ix_(values, values)]
    if not np.array_equal(block, block.T):
        a, b = map(int, np.argwhere(block != block.T)[0])
        raise NotAbelianImage(
            f"image not abelian: {int(values[a])} and {int(values[b])}"
            " do not commute")
    n = G.order
    arange = np.arange(n, dtype=np.int32)
    phi = G.table[arange, G.inv[img]]
    star = G.table[G.table[phi[:, None], arange[None, :]], img[:, None]]
    try:
        star_group = FiniteGroup(frozen(star), name=f"{G.name}-star")
    except ValueError as exc:
        raise ConstructionFailed(f"star table is not a group: {exc}") from exc
    report = verify_skew_brace(star_group.table, G.table)
    if not report.ok:
        raise ConstructionFailed(
            f"coupling law failed: {report.first_failure().describe()}")
    return SkewBrace(star_group, G,
                     abelian_data=AbelianMapData(G=G, psi=psi, phi=frozen(phi)))


def is_strong_left_ideal(B: SkewBrace, S: Subgroup) -> bool:
    """S is star-normal and swallowed by every gamma_x.

    S must be a subgroup of the dot group.  On abelian-map braces the
    commutator test [G, phi(S)] <= S is run as well; the two answers
    disagreeing would mean a broken invariant, not a negative result.
    """
    if S.parent is not B.dot and not np.array_equal(S.parent.table, B.dot.table):
        raise ValueError("S must be a subgroup of the dot group")
    sel = np.asarray(S.elements, dtype=np.int32)
    member = np.zeros(B.order, dtype=bool)
    member[sel] = True
    st, sinv = B.star.table, B.star.inv
    closed = bool(member[st[np.ix_(sel, sel)]].all() and member[sinv[sel]].all())
    normal = closed and bool(member[st[st[:, sel], sinv[:, None]]].all())
    stable = bool(member[B.gamma[:, sel]].all())
    answer = closed and normal and stable

    if B.abelian_data is not None:
        dt, dinv = B.dot.table, B.dot.inv
        f = B.abelian_data.phi[sel]
        lead = dt[:, f]
        tail = dt[np.ix_(dinv, dinv[f])]
        criterion = bool(member[dt[lead, tail]].all())
        if criterion != answer:
            raise AxiomViolated(
                "commutator criterion disagrees with the definition"
                f" on S = {S.elements}")
    return answer


def brace_solution(B: SkewBrace) -> SolutionMap:
    """r(x, y) = (gamma_x(y), gamma_x(y)^-1 . x . y), verified in full.

    Bijectivity and both nondegeneracy properties are asserted; braces
    always deliver all three.
    """
    n = B.order
    arange = np.arange(n, dtype=np.int32)
    left = B.gamma
    right = B.dot.table[
        B.dot.table[B.dot.inv[left], arange[:, None]], arange[None, :]]
    r = SolutionMap(left, frozen(right), provenance="brace", carrier=B.dot)
    return assert_properties(r, "brace", "braid", "bijective",
                             "left-nondegenerate", "right-nondegenerate")


def regular_rep_in_holomorph(B: SkewBrace, max_order: int = MAX_ORDER) -> Subgroup:
    """Image of x -> (x, gamma_x) in Hol(G, *), regular on the points.

    The dot product factors as x . y = x * gamma_x(y), which is exactly
    the holomorph element with translation x and twist gamma_x.
    """
    hol = holomorph(B.star, max_order=max_order)
    members = []
    for x in range(B.order):
        idx = hol.element(x, B.gamma[x])
        if idx is None:
            raise AxiomViolated(f"gamma_{x} is not a star automorphism")
        members.append(idx)
    orbit = hol.action.table[members, 0]
    if len(set(orbit.tolist())) != B.order:
        raise AxiomViolated("representation is not regular on the points")
    return Subgroup(hol.group, tuple(sorted(members)))
