"""Skew bracoids: a group acting transitively on another group.

The acting group (G, .) and the acted-on group (N, *) are coupled by
x (+) (eta * mu) = (x (+) eta) * (x (+) e)^{-*} * (x (+) mu).  When the
stabilizer of e has a complement H, the whole structure can be pulled
back along h -> h (+) e onto H, producing a brace (H, *_H, .) together
with a transported action of G; that package is a ContainedBrace.

Bracoids also come from transitive subgroups J of a `Holomorph` value:
`from_holomorph_subgroup(hol, J)` reads J's rows off `hol.action`.

Index conventions: the displacement tables lambda and rho both hold
G-indices.  ContainedBrace keeps the H-position views (starH, actH,
gammaH) for the brace on H; Hel maps an H-position to its G-index.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .braces import SkewBrace, is_strong_left_ideal
from .checks import (AxiomViolated, Check, Record, Report, _action_law_failure, _action_law_holds,
                     _first_triple, _rows_law_failure, frozen, group_table_checks)
from .groups import (
    FiniteGroup,
    GroupAction,
    Holomorph,
    Subgroup,
    _left_cosets,
    find_complements,
    is_transitive,
    stabilizer,
)

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
    """Verified bracoid; rejects non-transitive or law-breaking input."""

    def __init__(self, G: FiniteGroup, N: FiniteGroup, act):
        if not isinstance(act, GroupAction):
            act = GroupAction(G, act)
        if act.actor is not G or act.space_size != N.order:
            raise ValueError("action does not connect G to the points of N")
        if not is_transitive(act):
            raise NotTransitive("the action misses part of N")
        witness = _eq2_failure(G, N, act.table)
        if witness is not None:
            raise AxiomViolated(f"coupling law fails at (x, eta, mu) = {witness}")
        self.G = G
        self.N = N
        self.act = act

    def __repr__(self) -> str:
        return f"SkewBracoid(|G|={self.G.order}, |N|={self.N.order})"


def verify_bracoid(G, N, act) -> Report:
    """Axiom report for candidate tables: groups, action, transitivity, law."""
    gt = np.asarray(getattr(G, "table", G), dtype=np.int32)
    nt = np.asarray(getattr(N, "table", N), dtype=np.int32)
    arr = np.asarray(getattr(act, "table", act), dtype=np.int32)
    results = list(group_table_checks(gt, prefix="G."))
    results.extend(group_table_checks(nt, prefix="N."))
    m = nt.shape[0]
    shaped = arr.ndim == 2 and arr.shape == (gt.shape[0], m)
    results.append(Check("action.shape", shaped, detail=f"{arr.shape}"))
    usable = shaped and all(c.ok for c in results)
    if usable and not ((arr >= 0) & (arr < m)).all():
        results.append(Check("action.range", False))
        usable = False
    if usable:
        ident = bool((arr[0] == np.arange(m)).all())
        results.append(Check("action.identity", ident))
        law_witness = _action_law_failure(gt, arr) or ()
        results.append(Check("action.law", not law_witness, witness=law_witness))
        results.append(Check("action.transitive",
                             len(set(arr[:, 0].tolist())) == m))
        if ident and not law_witness:
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
    identity coset is element 0.  The stabilizer of the identity coset is
    verified to be S itself.
    """
    if not is_strong_left_ideal(B, S):
        raise NotStrongLeftIdeal(f"S = {S.elements} fails the ideal conditions")
    labels, cos = _left_cosets(B.star, S)
    nt = cos[B.star.table[np.ix_(labels, labels)]]
    N = FiniteGroup(frozen(nt), name=f"{B.dot.name}/S{S.order}")
    act = cos[B.dot.table[:, labels]]
    bracoid = SkewBracoid(B.dot, N, frozen(act))
    stab = stabilizer(bracoid.act, 0)
    if stab.elements != S.elements:
        raise AxiomViolated(
            f"stabilizer {stab.elements} differs from the ideal {S.elements}")
    return bracoid


def from_holomorph_subgroup(hol: Holomorph, J: Subgroup) -> SkewBracoid:
    """Bracoid from a transitive subgroup J of hol.group, acting on hol.N."""
    if J.parent is not hol.group:
        raise ValueError("J must be a subgroup of hol.group")
    group = J.as_group(name=f"J{J.order}")
    action = GroupAction(group, frozen(hol.action.table[np.asarray(J.elements)]))
    return SkewBracoid(group, hol.N, action)


class ContainedBrace:
    """A bracoid pulled back onto a regular complement H of the stabilizer.

    Carries the transported star table on H-positions, the transported
    action of G on H-positions, the brace (H, *_H, .), and the twist
    table gammaH[x, i] = position of (x (+) e)^{-*} * (x (+) h_i).
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
        # bij is a permutation with inverse bijinv, so bij[starH] is N's star
        # table on bij and bij[actH] the verified action on bij: h -> h (+) e
        # is a star isomorphism and equivariant, and (Hstar, actH) is the
        # image of the verified bracoid.  hel[0] = 0 fixes every point, so
        # bij[0] = 0 and h_i moves position 0 to i: H sits at itself.
        hstar = FiniteGroup(frozen(bijinv[N.table[bij[:, None], bij]]), name=f"{G.name}|Hstar")
        action_h = GroupAction(G, frozen(bijinv[act[:, bij]]))
        hdot = H.as_group(name=f"{G.name}|H")
        brace = SkewBrace(hstar, hdot)
        gamma_h = frozen(bijinv[N.table[N.inv[act[:, 0]][:, None], act[:, bij]]])
        if not np.array_equal(gamma_h[hel], brace.gamma):
            raise AxiomViolated("bracoid twist on H disagrees with the brace")

        self.bracoid = bracoid
        self.H = H
        self.S = stabilizer(bracoid.act, 0)
        self.Hel = frozen(hel)
        self.bijinv = frozen(bijinv)
        self.starH = hstar.table
        self.Hstar = hstar
        self.Hdot = hdot
        self.actH = action_h
        self.brace = brace
        self.gammaH = gamma_h

    @cached_property
    def lambda_rho(self) -> LambdaRho:
        return lambda_rho(self)

    def __repr__(self) -> str:
        return (f"ContainedBrace(|G|={self.bracoid.G.order},"
                f" |H|={self.H.order}, |S|={self.S.order})")


def transport(bracoid: SkewBracoid, H: Subgroup) -> ContainedBrace:
    """Pull the bracoid back onto a regular complement H."""
    return ContainedBrace(bracoid, H)


def contains_brace(bracoid: SkewBracoid) -> ContainedBrace | None:
    """Locate a brace inside the bracoid, or certify there is none.

    Complements of the point stabilizer are enumerated exhaustively; the
    lexicographically first one is transported.  A None return is a
    certificate of nonexistence, not a search giving up.
    """
    S = stabilizer(bracoid.act, 0)
    complements = find_complements(bracoid.G, S)
    if not complements:
        return None
    return transport(bracoid, complements[0])


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
    n = G.order
    arange = np.arange(n, dtype=np.int32)
    hpos = cb.bijinv[cb.bracoid.act.table[:, 0]]
    lam = cb.Hel[cb.gammaH[:, hpos]]
    rho_xy = G.table[G.table[G.inv[lam], arange[:, None]], arange[None, :]]
    rho = np.ascontiguousarray(rho_xy.T)
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
    Every law is proved on all triples (_displacement_witnesses), detail
    `exhaustive`.  Tables that are not n x n or hold an entry outside
    0..n-1 cannot index G, so those four laws fail unevaluated.
    """
    G, lam, rho = lr.G, lr.lam, lr.rho
    n = G.order
    shaped = lam.shape == rho.shape == (n, n)
    results = [
        Check("rho-identity-row", shaped and bool(np.array_equal(rho[0], np.arange(n)))),
        Check("lambda-fixes-identity", shaped and bool((lam[:, 0] == 0).all())),
    ]
    names = ("lambda-compose", "rho-compose", "rho-inverse", "lambda-product-rule")
    if shaped and all(((t >= 0) & (t < n)).all() for t in (lam, rho)):
        witnesses = _displacement_witnesses(G.table, G.inv, lam, rho)
        results.extend(Check(name, not w, witness=w, detail="exhaustive")
                       for name, w in zip(names, witnesses))
    else:
        results.extend(Check(name, False, detail="not evaluated: entries outside 0..n-1")
                       for name in names)
    return Report(tuple(results))


def _displacement_witnesses(gt: np.ndarray, ginv: np.ndarray, lam: np.ndarray,
                            rho: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """First witnesses of lambda-compose, rho-compose, rho-inverse and the product rule.

    Every triple is covered in O(n^2 |gens|); () means the law holds.  gt is
    a group table, as a verified group's is.

    - lambda-compose, lam[x*y, z] = lam[x, lam[y, z]], says lam is a left
      action of G on its own carrier: _action_law_failure proves it on y in
      0 and the generators, and names the first (x, y, z) when it fails.
    - rho-compose, rho[x*y, z] = rho[y, rho[x, z]], is the same law for rho
      over G^op, whose table gt.T has (y, x) -> x*y.
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
    n = gt.shape[0]
    lam_w = _action_law_failure(gt, lam) or ()
    rho_ok = _action_law_holds(gt.T, rho)
    rho_w = () if rho_ok else _first_triple(n, lambda x: rho[gt[x]] != rho[:, rho[x]])
    bad = rho[ginv[:, None], rho] != np.arange(n)
    inv_w = tuple(map(int, np.argwhere(bad)[0])) if bad.any() else ()
    if rho_ok and np.array_equal(gt[lam, rho.T], gt):
        prod_w = ()
    else:
        prod_w = _first_triple(
            n, lambda x: lam[x][gt] != gt[lam[x][:, None], lam[rho[:, x]]]) or ()
    return lam_w, rho_w, inv_w, prod_w
