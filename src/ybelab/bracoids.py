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
from typing import Iterator

import numpy as np

from .braces import SkewBrace, is_strong_left_ideal
from .checks import (AxiomViolated, Check, Report, _action_law_failure, _action_law_holds,
                     _first_triple, _first_true, _rows_law_holds, adopted, frozen,
                     group_table_checks, refuse)
from .groups import (
    FiniteGroup,
    GroupAction,
    Holomorph,
    Subgroup,
    _action_checks,
    _left_cosets,
    _unreached,
    find_complements,
    stabilizer,
)
from .ybe import _complement

class NotStrongLeftIdeal(ValueError):
    """The subgroup handed to the quotient construction is not usable."""


class NotTransitive(ValueError):
    """The candidate action does not reach every point."""


class NotRegular(ValueError):
    """The proposed complement does not act freely and transitively."""


def _coupling_fails(nt, ninv, act, x, eta, mu):
    """x (+) (eta * mu) != (x (+) eta) * (x (+) e)^{-*} * (x (+) mu): the coupling law."""
    return act[x, nt[eta, mu]] != nt[nt[act[x, eta], ninv[act[x, 0]]], act[x, mu]]


def _eq2_failure(N: FiniteGroup, act: np.ndarray) -> tuple[int, int, int] | None:
    """First (x, eta, mu) breaking the coupling law, or None.

    The law is proved as the rows law of f_x(eta) = (x (+) e)^{-*} * (x (+) eta)
    over (N, *): multiplying on the left by (x (+) e)^{-*}, a bijection,
    turns it at (x, eta, mu) into f_x(eta * mu) = f_x(eta) * f_x(mu), so it
    holds exactly when every f_x is an endomorphism of (N, *).
    """
    nt, ninv = N.table, N.inv
    if _rows_law_holds(nt, nt[ninv[act[:, 0]][:, None], act]):
        return None
    return _first_triple(_coupling_fails, (nt, ninv, act), (act.shape[0], N.order, N.order))


def _bracoid_checks(arr: np.ndarray, N: FiniteGroup | None) -> Iterator[Check]:
    """action.transitive, then compat, the coupling law, not evaluated when N is
    None, for an action table arr on the points of N; each run when read."""
    unreached = _unreached(arr)
    yield Check("action.transitive", not unreached, witness=unreached)
    if N is None:
        yield Check("compat", False, detail="not evaluated: action checks failed")
        return
    witness = _eq2_failure(N, arr)
    yield Check("compat", witness is None, witness=witness or ())


class SkewBracoid:
    """Verified bracoid: `act`, a table or an action of any group, is refused by the first
    failing check of `verify_bracoid`: action.shape and `GroupAction`'s as ValueError,
    action.transitive as NotTransitive (`action.transitive FAIL at 1`), compat as AxiomViolated."""

    def __init__(self, G: FiniteGroup, N: FiniteGroup, act):
        table = adopted(act)
        refuse((next(_action_checks(G.table, table, N.order)),), default=ValueError)
        act = GroupAction(G, table)
        refuse(_bracoid_checks(table, N), errors={"action.transitive": NotTransitive})
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
    """Axiom report: the group checks of G and N, then `groups._action_checks`
    on the points of N and `_bracoid_checks` as far as the checks before hold."""
    gt, nt, arr = adopted(G), adopted(N), adopted(act)
    results = [*group_table_checks(gt, prefix="G."), *group_table_checks(nt, prefix="N.")]
    action = _action_checks(gt, arr, nt.shape[0])
    results.append(next(action))                # action.shape; the rest needs both groups
    acted = {c.name: c for c in action} if all(c.ok for c in results) else {}
    results.extend(acted.values())
    if "action.law" not in acted:
        return Report((*results, Check("compat", False,
                                       detail="not evaluated: table checks failed")))
    acting = acted["action.identity"].ok and acted["action.law"].ok
    results.extend(_bracoid_checks(arr, FiniteGroup(nt) if acting else None))
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
    def lambda_rho(self) -> tuple[np.ndarray, np.ndarray]:
        """The proved pair (lam, rho) of `lambda_rho`."""
        return lambda_rho(self)

    @cached_property
    def plus(self) -> np.ndarray:
        """The frozen + table of the semibrace on G, x + y = y . lambda_{y^-1}(x),
        which semibraces.bracoid_to_semibrace proves."""
        G = self.bracoid.G
        lam, _ = self.lambda_rho
        arange = np.arange(G.order, dtype=np.int32)
        swapped = G.table[arange[:, None], lam[G.inv]]
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


def lambda_rho(cb: ContainedBrace) -> tuple[np.ndarray, np.ndarray]:
    """The frozen displacement tables (lam, rho) of a contained brace, once
    their composition laws are proved.

    lam[x, y] is the G-index of lambda_x(y) = gamma_x(y (+) e), an element
    of H; rho[y, x] is the G-index of rho_y(x) = lambda_x(y)^-1 . x . y
    (subscript first).
    """
    G = cb.bracoid.G
    hpos = cb.bijinv[cb.bracoid.act.table[:, 0]]
    lam = frozen(cb.Hel[cb.gammaH[:, hpos]])
    rho = frozen(np.ascontiguousarray(_complement(G, lam).T))
    refuse(lambda_rho_identity_checks(G, lam, rho).checks, "displacement law failed: ")
    return lam, rho


def lambda_rho_identity_checks(G: FiniteGroup, lam: np.ndarray, rho: np.ndarray) -> Report:
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


def _rho_compose_fails(gt, rho, x, y, z):
    """rho_{x*y}(z) != rho_y(rho_x(z)): rho-compose, rho[y, x] = rho_y(x)."""
    return rho[gt[x, y], z] != rho[y, rho[x, z]]


def _product_rule_fails(gt, lam, rho, x, y, z):
    """lambda_x(y*z) != lambda_x(y) . lambda_{rho_y(x)}(z): the product rule."""
    return lam[x, gt[y, z]] != gt[lam[x, y], lam[rho[y, x], z]]


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

    When a proof does not go through, _first_triple scans that law's
    statement for its first triple.
    """
    gt, ginv, n = G.table, G.inv, G.order
    lam_w = _action_law_failure(gt, lam) or ()
    rho_ok = _action_law_holds(G.opposite, rho)
    rho_w = () if rho_ok else _first_triple(_rho_compose_fails, (gt, rho), (n, n, n))
    inv_w = _first_true(rho[ginv[:, None], rho] != np.arange(n))
    if rho_ok and np.array_equal(gt[lam, rho.T], gt):
        prod_w = ()
    else:
        prod_w = _first_triple(_product_rule_fails, (gt, lam, rho), (n, n, n)) or ()
    return lam_w, rho_w, inv_w, prod_w
