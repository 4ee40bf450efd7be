"""Skew braces: two group tables on one index set, coupled by one law.

A pair (star, dot) qualifies when x.(y*z) = (x.y) * x^{-*} * (x.z) for
every triple.  The displaced action gamma[x, y] = x^{-*} * (x.y) is
precomputed per brace; it drives the strong-left-ideal test, the
holomorph embedding, and the derived Yang-Baxter map.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .checks import (AxiomViolated, Check, Report, _first_triple, _rows_law_holds, adopted,
                     frozen, group_table_checks, refuse)
from .groups import MAX_ORDER, FiniteGroup, Subgroup, holomorph
from .ybe import SolutionMap, _complement


class ConstructionFailed(ValueError):
    """The tables a construction built are not a skew brace."""


def _gamma(star: FiniteGroup, dot: FiniteGroup) -> np.ndarray:
    """gamma[x, y] = x^{-*} * (x.y)."""
    return star.table[star.inv[:, None], dot.table]


def _brace_law_fails(st, dt, sinv, x, y, z):
    """x.(y*z) != (x.y) * x^{-*} * (x.z): the brace law, sinv the star inverses."""
    return dt[x, st[y, z]] != st[st[dt[x, y], sinv[x]], dt[x, z]]


def _compat_failure(star: FiniteGroup, dot: FiniteGroup,
                    gamma: np.ndarray) -> tuple[int, int, int] | None:
    """First triple breaking the brace law, or None; gamma is _gamma(star, dot).

    The law is proved as the rows law of gamma over (G, *): multiplying on
    the left by x^{-*}, a bijection, turns it at (x, y, z) into
    gamma_x(y*z) = gamma_x(y) * gamma_x(z), so it holds exactly when every
    gamma_x is an endomorphism of (G, *) (Guarnieri-Vendramin).
    """
    if _rows_law_holds(star.table, gamma):
        return None
    return _first_triple(_brace_law_fails, (star.table, dot.table, star.inv), (star.order,) * 3)


def _brace_checks(st, dt, groups) -> tuple[tuple[Check, Check], np.ndarray | None]:
    """(checks, gamma): same-order of the tables st and dt, then compat, the brace law, run
    (and gamma not None) only when groups, their groups (star, dot), is given and orders agree."""
    same = Check("same-order", st.shape == dt.shape, detail=f"{st.shape} vs {dt.shape}")
    if not (same.ok and groups):
        return (same, Check("compat", False, detail="not evaluated: table checks failed")), None
    gamma = _gamma(*groups)
    witness = _compat_failure(*groups, gamma)
    return (same, Check("compat", witness is None, witness=witness or ())), gamma


class SkewBrace:
    """Verified brace, refused at the first failing check that `verify_skew_brace`
    reports: same-order as a ValueError (`same-order FAIL (3, 3) vs (4, 4)`), compat
    as AxiomViolated (`compat FAIL at 1,2,3`).  `gamma` is the one its proof computed."""

    def __init__(self, star: FiniteGroup, dot: FiniteGroup):
        checks, gamma = _brace_checks(star.table, dot.table, (star, dot))
        refuse(checks, errors={"same-order": ValueError})
        self.star = star
        self.dot = dot
        self.order = star.order
        self.gamma = frozen(gamma)

    def __repr__(self) -> str:
        return f"SkewBrace(order={self.order}, dot={self.dot.name!r})"


def verify_skew_brace(star, dot) -> Report:
    """Axiom report for a candidate pair: group laws, then `_brace_checks`."""
    st, dt = adopted(star), adopted(dot)
    results = (*group_table_checks(st, prefix="star."), *group_table_checks(dt, prefix="dot."))
    groups = ((FiniteGroup(st), FiniteGroup(dt))
              if st.shape == dt.shape and all(c.ok for c in results) else None)
    return Report((*results, *_brace_checks(st, dt, groups)[0]))


def trivial_brace(G: FiniteGroup) -> SkewBrace:
    """star = dot; the coupling law collapses and every gamma_x is trivial."""
    return SkewBrace(G, G)


def abelian_map_brace(G: FiniteGroup, psi: Sequence[int]) -> SkewBrace:
    """Brace (G, *, .) with x * y = x . psi(x)^-1 . y . psi(x), psi as its image list.

    The recipe takes psi an endomorphism of G with abelian image.  Nothing
    here checks the recipe: the star table is proved a group and the pair a
    brace, so any psi whose result passes is returned as a verified brace
    (the identity map of a nonabelian G gives the opposite brace), and any
    other is refused with ConstructionFailed naming the first failing law.
    A list of the wrong length or with an entry outside 0..|G|-1 is a
    ValueError.
    """
    img = adopted(psi)
    if img.shape != (G.order,):
        raise ValueError(f"psi has shape {img.shape}, expected ({G.order},)")
    if not ((img >= 0) & (img < G.order)).all():
        raise ValueError(f"psi images must lie in 0..{G.order - 1}")
    n = G.order
    arange = np.arange(n, dtype=np.int32)
    phi = G.table[arange, G.inv[img]]
    star = G.table[G.table[phi[:, None], arange[None, :]], img[:, None]]
    try:
        star_group = FiniteGroup(frozen(star), name=f"{G.name}-star")
    except ValueError as exc:
        raise ConstructionFailed(f"star table is not a group: {exc}") from exc
    refuse(verify_skew_brace(star_group.table, G.table).checks, "coupling law failed: ",
           ConstructionFailed)
    return SkewBrace(star_group, G)


def is_strong_left_ideal(B: SkewBrace, S: Subgroup) -> bool:
    """S is a star-normal subgroup of (G, *) swallowed by every gamma_x.

    S must be a subgroup of the dot group.  A gamma-stable S is a star-subgroup,
    so only stability and normality are tested: each gamma_a maps S onto S, so
    a * b = a . gamma_a^-1(b) lies in S for a, b in S.  On a brace from an
    abelian-image endomorphism psi this is the literature's commutator criterion
    [G, phi(S)] <= S with phi(x) = x . psi(x)^-1; the tests compare the two
    on every subgroup their braces generate from at most two elements.
    """
    if S.parent is not B.dot and not np.array_equal(S.parent.table, B.dot.table):
        raise ValueError("S must be a subgroup of the dot group")
    sel = np.asarray(S.elements, dtype=np.int32)
    member = np.zeros(B.order, dtype=bool)
    member[sel] = True
    st = B.star.table
    stable = member[B.gamma[:, sel]].all()
    return bool(stable and member[st[st[:, sel], B.star.inv[:, None]]].all())


def brace_solution(B: SkewBrace) -> SolutionMap:
    """r(x, y) = (gamma_x(y), gamma_x(y)^-1 . x . y), verified in full.

    Its constructor asserts the braid relation, bijectivity and both
    nondegeneracy properties; braces always deliver all four.  r is
    involutive exactly when (B, *) is abelian (Smoktunowicz-Vendramin,
    J. Comb. Algebra 2, 2018).
    """
    return SolutionMap(B.gamma, frozen(_complement(B.dot, B.gamma)), provenance="brace",
                       carrier=B.dot, asserted=("braid", "bijective", "left-nondegenerate",
                                                "right-nondegenerate"))


def regular_rep_in_holomorph(B: SkewBrace, max_order: int = MAX_ORDER) -> Subgroup:
    """Image of x -> (x, gamma_x) in Hol(G, *), regular on the points.

    The dot product factors as x . y = x * gamma_x(y), which is exactly
    the holomorph element with translation x and twist gamma_x.  Each
    gamma_x is a star automorphism (the brace law), so `hol.element` finds
    it, and (x, gamma_x) sends 0 to x * gamma_x(0) = x, so the image is
    regular.
    """
    hol = holomorph(B.star, max_order=max_order)
    members = sorted(hol.element(x, B.gamma[x]) for x in range(B.order))
    return Subgroup(hol.group, tuple(members))
