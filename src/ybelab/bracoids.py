"""Skew bracoids: a group acting transitively on another group.

The acting group (G, .) and the acted-on group (N, *) are coupled by
x (+) (eta * mu) = (x (+) eta) * (x (+) e)^{-*} * (x (+) mu).  When the
stabilizer of e has a complement H, the whole structure can be pulled
back along h -> h (+) e onto H, producing a brace (H, *_H, .) together
with a transported action of G; that package is a ContainedBrace.

Bracoids also come from transitive subgroups J of a `Holomorph` value:
`from_holomorph_subgroup(hol, J)` reads J's rows off `hol.action`.

Index conventions: the displacement tables lambda and rho both hold
G-indices.  A ContainedBrace holds its brace, the action actH and the
twist gammaH on H-positions; Hel maps an H-position to its G-index.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .braces import SkewBrace, is_strong_left_ideal
from .checks import (AxiomViolated, Check, Record, Report, _action_law_failure, _action_law_holds,
                     _first_triple, _first_true, _rows_law_failure, adopted, frozen,
                     group_table_checks)
from .groups import (
    FiniteGroup,
    GroupAction,
    Holomorph,
    Subgroup,
    _left_cosets,
    _unreached,
    find_complements,
    is_transitive,
    stabilizer,
)
from .ybe import _complement

class NotStrongLeftIdeal(ValueError):
    """The subgroup handed to the quotient construction is not usable."""


class NotTransitive(ValueError):
    """The candidate action does not reach every point."""


class NotRegular(ValueError):
    """The proposed complement does not act freely and transitively."""


def _eq2_failure(G: FiniteGroup, N: FiniteGroup, act: np.ndarray) -> tuple[int, int, int] | None:
    """First (x, eta, mu) breaking the coupling law, or None.

    The coupling law is the rows law of f_x(eta) = (x (+) e)^{-*} * (x (+) eta)
    over (N, *): multiplying on the left by (x (+) e)^{-*}, a bijection,
    turns it at (x, eta, mu) into f_x(eta * mu) = f_x(eta) * f_x(mu), so the
    law holds exactly when every f_x is an endomorphism of (N, *), and the
    two laws fail at the same triples, so the first is the same.  G, whose
    elements index the rows of act, is not read.
    """
    nt, ninv = N.table, N.inv
    return _rows_law_failure(nt, nt[ninv[act[:, 0]][:, None], act])


class SkewBracoid:
    """Verified bracoid; rejects non-transitive or law-breaking input.  `act`, a table
    or an action of any group, is proved an action of G: no actor is compared."""

    def __init__(self, G: FiniteGroup, N: FiniteGroup, act):
        act = GroupAction(G, act)
        if act.space_size != N.order:
            raise ValueError("action does not connect G to the points of N")
        if not is_transitive(act):
            raise NotTransitive("the action misses part of N")
        witness = _eq2_failure(G, N, act.table)
        if witness is not None:
            raise AxiomViolated(f"coupling law fails at (x, eta, mu) = {witness}")
        self.G = G
        self.N = N
        self.act = act

    @cached_property
    def S(self) -> Subgroup:
        """The stabilizer of the point 0 (the identity of N) in G."""
        return stabilizer(self.act, 0)

    def __repr__(self) -> str:
        return f"SkewBracoid(|G|={self.G.order}, |N|={self.N.order})"


def verify_bracoid(G, N, act) -> Report:
    """Axiom report for candidate tables: groups, action, transitivity, law."""
    gt, nt, arr = adopted(G), adopted(N), adopted(act)
    results = list(group_table_checks(gt, prefix="G."))
    results.extend(group_table_checks(nt, prefix="N."))
    m = nt.shape[0]
    shaped = arr.ndim == 2 and arr.shape == (gt.shape[0], m)
    results.append(Check("action.shape", shaped, detail=f"{arr.shape}"))
    usable = shaped and all(c.ok for c in results)
    outside = _first_true((arr < 0) | (arr >= m)) if usable else ()
    if outside:
        results.append(Check("action.range", False, witness=outside))
        usable = False
    if usable:
        moved = _first_true(arr[0] != np.arange(m))
        results.append(Check("action.identity", not moved, witness=moved))
        law_witness = _action_law_failure(gt, arr) or ()
        results.append(Check("action.law", not law_witness, witness=law_witness))
        unreached = _unreached(arr)
        results.append(Check("action.transitive", not unreached, witness=unreached))
        if not moved and not law_witness:
            witness = _eq2_failure(FiniteGroup(gt), FiniteGroup(nt), arr)
            results.append(Check("compat", witness is None, witness=witness or ()))
        else:
            results.append(Check("compat", False,
                                 detail="not evaluated: action checks failed"))
    else:
        results.append(Check("compat", False,
                             detail="not evaluated: table checks failed"))
    return Report(tuple(results))


def from_strong_left_ideal(B: SkewBrace, S: Subgroup) -> SkewBracoid:
    """Quotient bracoid: G acts on the star-cosets G/S by dot-translation.

    Cosets are labelled by their least member in ascending order, so the
    identity coset is element 0.  Its stabilizer is S: act[x, 0] is the
    label of the star-coset x * S, which is 0 exactly when x is in S, a
    star-subgroup as it is gamma-stable (is_strong_left_ideal).
    """
    if not is_strong_left_ideal(B, S):
        raise NotStrongLeftIdeal(f"S = {S.elements} fails the ideal conditions")
    labels, cos = _left_cosets(B.star, S)
    nt = cos[B.star.table[np.ix_(labels, labels)]]
    N = FiniteGroup(frozen(nt), name=f"{B.dot.name}/S{S.order}")
    act = cos[B.dot.table[:, labels]]
    return SkewBracoid(B.dot, N, frozen(act))


def from_holomorph_subgroup(hol: Holomorph, J: Subgroup) -> SkewBracoid:
    """Bracoid from a transitive subgroup J of hol.group, acting on hol.N."""
    if J.parent is not hol.group:
        raise ValueError("J must be a subgroup of hol.group")
    group = J.as_group(name=f"J{J.order}")
    return SkewBracoid(group, hol.N, frozen(hol.action.table[np.asarray(J.elements)]))


class ContainedBrace:
    """A bracoid pulled back onto a regular complement H of the stabilizer.

    h -> h (+) e is a bijection bij from H onto the points; along it, N's
    star table gives the brace (H, *_H, .), and gammaH[x, i] is the position
    of (x (+) e)^{-*} * (x (+) h_i).  On H, gammaH is the brace's gamma: bij
    is a star isomorphism and h_i . h_j moves e to h_i (+) bij[j] by the
    action law, so bij[gamma[i, j]] = bij[i]^{-*} * (h_i (+) bij[j]) =
    bij[gammaH[h_i, j]], and bij is injective.

    actH[x, i] = bijinv[x (+) bij[i]] is the frozen table of G's action on
    H-positions, not re-proved as a GroupAction: it is the verified action
    conjugated by the permutation bij, so actH[0] = bijinv o act[0] o bij = id
    and actH[g] o actH[h] = bijinv o act[g] o act[h] o bij = actH[g*h].
    """

    def __init__(self, bracoid: SkewBracoid, H: Subgroup):
        G, N = bracoid.G, bracoid.N
        if H.parent is not G and not np.array_equal(H.parent.table, G.table):
            raise ValueError("H must be a subgroup of the acting group")
        act = bracoid.act.table
        hel = np.asarray(H.elements, dtype=np.int32)
        m = N.order
        bij = act[hel, 0]
        if H.order != m or len(set(bij.tolist())) != m:
            raise NotRegular(
                f"H (order {H.order}) is not regular on the {m} points")
        bijinv = np.empty(m, dtype=np.int32)
        bijinv[bij] = np.arange(m, dtype=np.int32)
        # bij is a permutation with inverse bijinv, so bij[star] is N's star
        # table on bij: h -> h (+) e is a star isomorphism onto the verified
        # N.  hel[0] = 0 fixes every point, so bij[0] = 0 and h_i moves
        # position 0 to i: H sits at itself.
        star = FiniteGroup(frozen(bijinv[N.table[bij[:, None], bij]]), name=f"{G.name}|H-star")
        self.actH = frozen(bijinv[act[:, bij]])
        self.brace = SkewBrace(star, H.as_group(name=f"{G.name}|H"))
        self.gammaH = frozen(bijinv[N.table[N.inv[act[:, 0]][:, None], act[:, bij]]])
        self.bracoid = bracoid
        self.H = H
        self.S = bracoid.S
        self.Hel = frozen(hel)
        self.bijinv = frozen(bijinv)

    @cached_property
    def lambda_rho(self) -> LambdaRho:
        return lambda_rho(self)

    @cached_property
    def plus(self) -> np.ndarray:
        """The frozen + table of the semibrace on G, x + y = y . lambda_{y^-1}(x),
        which semibraces.bracoid_to_semibrace proves."""
        G = self.bracoid.G
        arange = np.arange(G.order, dtype=np.int32)
        swapped = G.table[arange[:, None], self.lambda_rho.lam[G.inv]]
        return frozen(np.ascontiguousarray(swapped.T))

    def __repr__(self) -> str:
        return (f"ContainedBrace(|G|={self.bracoid.G.order},"
                f" |H|={self.H.order}, |S|={self.S.order})")


def contains_brace(bracoid: SkewBracoid) -> ContainedBrace | None:
    """Locate a brace inside the bracoid, or certify there is none.

    Complements of the point stabilizer are enumerated exhaustively; the
    brace is pulled back onto the lexicographically first one.  A None
    return is a certificate of nonexistence, not a search giving up.
    """
    complements = find_complements(bracoid.G, bracoid.S)
    if not complements:
        return None
    return ContainedBrace(bracoid, complements[0])


class LambdaRho(Record):
    """Displacement tables of a contained brace.

    lam[x, y] is the G-index of lambda_x(y) = gamma_x(y (+) e), an
    element of H; rho[y, x] is the G-index of
    rho_y(x) = lambda_x(y)^-1 . x . y (subscript first).  G is the acting
    group; holding it, not the contained brace, keeps the brace's cached
    lambda_rho free of a reference cycle.
    """

    __slots__ = ("G", "lam", "rho")

    def __init__(self, G: FiniteGroup, lam: np.ndarray, rho: np.ndarray):
        self._fill(G, lam, rho)


def lambda_rho(cb: ContainedBrace) -> LambdaRho:
    """Build the displacement tables and verify their composition laws."""
    G = cb.bracoid.G
    hpos = cb.bijinv[cb.bracoid.act.table[:, 0]]
    lam = cb.Hel[cb.gammaH[:, hpos]]
    rho = np.ascontiguousarray(_complement(G, lam).T)
    lr = LambdaRho(G, lam=frozen(lam), rho=frozen(rho))
    report = lambda_rho_identity_checks(lr)
    if not report.ok:
        raise AxiomViolated(
            f"displacement law failed: {report.first_failure().describe()}")
    return lr


def lambda_rho_identity_checks(lr: LambdaRho) -> Report:
    """Battery for the composition laws of the displacement tables.

    Checks: rho_e = id; lambda_x(e) = e; lambda is multiplicative in the
    subscript; rho is anti-multiplicative; rho_x inverts via x^-1; and
    the product rule lambda_x(yz) = lambda_x(y) . lambda_{rho_y(x)}(z).
    The two identity laws name the first index where they fail, and every
    other law is proved on all triples (_displacement_witnesses), detail
    `exhaustive`.  Tables that are not n x n fail all six unevaluated;
    tables with an entry outside 0..n-1 cannot index G, so the last four
    laws fail unevaluated.
    """
    G, lam, rho = lr.G, lr.lam, lr.rho
    n = G.order
    names = ("lambda-compose", "rho-compose", "rho-inverse", "lambda-product-rule")
    if not lam.shape == rho.shape == (n, n):
        return Report(tuple(Check(name, False, detail=f"not evaluated: tables are not {n} x {n}")
                            for name in ("rho-identity-row", "lambda-fixes-identity", *names)))
    row_w, fix_w = _first_true(rho[0] != np.arange(n)), _first_true(lam[:, 0] != 0)
    results = [Check("rho-identity-row", not row_w, witness=row_w),
               Check("lambda-fixes-identity", not fix_w, witness=fix_w)]
    if all(((t >= 0) & (t < n)).all() for t in (lam, rho)):
        witnesses = _displacement_witnesses(G, lam, rho)
        results.extend(Check(name, not w, witness=w, detail="exhaustive")
                       for name, w in zip(names, witnesses))
    else:
        results.extend(Check(name, False, detail="not evaluated: entries outside 0..n-1")
                       for name in names)
    return Report(tuple(results))


def _displacement_witnesses(G: FiniteGroup, lam: np.ndarray,
                            rho: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """First witnesses of lambda-compose, rho-compose, rho-inverse and the product rule.

    Every triple is covered in O(n^2 |gens|); () means the law holds.  gt is
    G's table, a group table as a verified group's is.

    - lambda-compose, lam[x*y, z] = lam[x, lam[y, z]], says lam is a left
      action of G on its own carrier: _action_law_failure proves it on y in
      0 and the generators, and names the first (x, y, z) when it fails.
    - rho-compose, rho[x*y, z] = rho[y, rho[x, z]], is the same law for rho
      over G^op, whose table G.opposite has (y, x) -> x*y.
    - lambda-product-rule, lam[x, y*z] = lam[x, y] . lam[rho[y, x], z],
      follows from rho-compose and the product law
      (P) lam[x, y] . rho[y, x] = x . y, one n^2 gather.  By (P),
      lambda_w(v) = w . v . rho_v(w)^-1, so with x' = rho_y(x)
          lam_x(y) . lam_{x'}(z) = x . y . x'^-1 . x' . z . rho_z(x')^-1
                                 = x . (yz) . rho_z(rho_y(x))^-1,
      against lam_x(yz) = x . (yz) . rho_{yz}(x)^-1: the rule at (x, y, z)
      is rho-compose at (y, z, x).
    - rho-inverse, rho[x^-1, rho[x, z]] = z, is one direct n^2 gather.

    When a proof does not go through, that law's full scan names its first
    triple, so every witness is that of a complete scan.
    """
    gt, ginv, n = G.table, G.inv, G.order
    lam_w = _action_law_failure(gt, lam) or ()
    rho_ok = _action_law_holds(G.opposite, rho)
    rho_w = () if rho_ok else _first_triple(n, lambda x: rho[gt[x]] != rho[:, rho[x]])
    inv_w = _first_true(rho[ginv[:, None], rho] != np.arange(n))
    if rho_ok and np.array_equal(gt[lam, rho.T], gt):
        prod_w = ()
    else:
        prod_w = _first_triple(
            n, lambda x: lam[x][gt] != gt[lam[x][:, None], lam[rho[:, x]]]) or ()
    return lam_w, rho_w, inv_w, prod_w
