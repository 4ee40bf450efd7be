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

import random
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .braces import SkewBrace, is_strong_left_ideal
from .checks import AxiomViolated, Check, Report, generators, group_table_checks
from .groups import (
    AUTOMORPHISM_CAP,
    FiniteGroup,
    GroupAction,
    GroupMap,
    Holomorph,
    MatchedPair,
    Subgroup,
    bicrossed_product,
    exact_factorization,
    find_complements,
    holomorph,
    is_transitive,
    matched_pair_from_factorization,
    stabilizer,
    _action_law_failure,
    _action_law_holds,
)

# Seeded triples of the identity battery when it is asked to sample.
LEMMA_SAMPLES = 10_000


class NotStrongLeftIdeal(ValueError):
    """The subgroup handed to the quotient construction is not usable."""


class NotTransitive(ValueError):
    """The candidate action does not reach every point."""


class NotRegular(ValueError):
    """The proposed complement does not act freely and transitively."""


def _eq2_failure(G: FiniteGroup, N: FiniteGroup, act: np.ndarray) -> tuple[int, int, int] | None:
    """First (x, eta, mu) breaking the coupling law, or None.

    The law is proved with mu running over generators(N) only.  Put
    f_x(eta) = (x (+) e)^{-*} * (x (+) eta).  Multiplying on the left by
    (x (+) e)^{-*}, a bijection, turns the law at (x, eta, mu) into
    f_x(eta * mu) = f_x(eta) * f_x(mu): the law holds exactly when every
    f_x is an endomorphism of (N, *).  Fix x and let T be the set of mu
    with the law at (x, eta, mu) for all eta.  If mu, nu are in T then so
    is mu * nu, by associativity of *:
        f_x(eta*(mu*nu)) = f_x((eta*mu)*nu) = f_x(eta*mu) * f_x(nu)
        = f_x(eta) * f_x(mu) * f_x(nu) = f_x(eta) * f_x(mu*nu).
    T holds e, as f_x(e) = e, so T holds the closure of the generators,
    which is N.  When the test fails, the full scan names the first triple.
    """
    nt, ninv = N.table, N.inv
    twist = nt[act, ninv[act[:, 0]][:, None]]     # (x, eta) -> (x (+) eta) * (x (+) e)^{-*}
    for g in generators(nt):
        lhs = act[:, nt[:, g]]                     # (x, eta) -> x (+) (eta * g)
        rhs = nt[twist, act[:, g][:, None]]
        if not np.array_equal(lhs, rhs):
            return _brute_eq2(G, N, act)
    return None


def _brute_eq2(G: FiniteGroup, N: FiniteGroup, act: np.ndarray) -> tuple[int, int, int] | None:
    nt, ninv = N.table, N.inv
    for x in range(G.order):
        ax = act[x]
        twist = nt[ax, ninv[ax[0]]]
        lhs = ax[nt]
        rhs = nt[twist[:, None], ax[None, :]]
        bad = lhs != rhs
        if bad.any():
            eta, mu = map(int, np.argwhere(bad)[0])
            return x, eta, mu
    return None


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
            witness = _eq2_failure(FiniteGroup(gt, trusted=True),
                                   FiniteGroup(nt, trusted=True), arr)
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
    sel = np.asarray(S.elements, dtype=np.int32)
    rep = B.star.table[:, sel].min(axis=1)
    labels = np.unique(rep)
    cos = np.searchsorted(labels, rep).astype(np.int32)
    nt = cos[B.star.table[np.ix_(labels, labels)]]
    N = FiniteGroup(nt, name=f"{B.dot.name}/S{S.order}")
    act = cos[B.dot.table[:, labels]]
    bracoid = SkewBracoid(B.dot, N, act)
    stab = stabilizer(bracoid.act, 0)
    if stab.elements != S.elements:
        raise AxiomViolated(
            f"stabilizer {stab.elements} differs from the ideal {S.elements}")
    return bracoid


def from_holomorph_subgroup(hol: Holomorph, J: Subgroup) -> SkewBracoid:
    """Bracoid from a transitive subgroup J of hol.group, acting on hol.base."""
    if J.parent is not hol.group:
        raise ValueError("J must be a subgroup of hol.group")
    group = J.as_group(name=f"J{J.order}")
    action = GroupAction(group, hol.action.table[np.asarray(J.elements)])
    return SkewBracoid(group, hol.base, action)


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
        S = stabilizer(bracoid.act, 0)
        if not exact_factorization(G, H, S):
            raise AxiomViolated("regular complement without exact factorization")

        hstar = FiniteGroup(bijinv[N.table[np.ix_(bij, bij)]],
                            name=f"{G.name}|Hstar", trusted=True)
        star_h = hstar.table
        if not np.array_equal(N.table[np.ix_(bij, bij)], bij[star_h]):
            raise AxiomViolated("h -> h (+) e is not a star isomorphism")
        act_h = bijinv[act[:, bij]]
        action_h = GroupAction(G, act_h)
        if not np.array_equal(act_h[hel, 0], np.arange(m)):
            raise AxiomViolated("transported action moves H off itself")
        if not np.array_equal(act[:, bij], bij[act_h]):
            raise AxiomViolated("transported action is not equivariant")

        hdot = H.as_group(name=f"{G.name}|H")
        brace = SkewBrace(hstar, hdot)
        gamma_h = bijinv[N.table[N.inv[act[:, 0]][:, None], act[:, bij]]]
        gamma_h.setflags(write=False)
        if not np.array_equal(gamma_h[hel], brace.gamma):
            raise AxiomViolated("bracoid twist on H disagrees with the brace")

        # The transported tables form a bracoid in their own right.
        transported = SkewBracoid(G, hstar, action_h)

        for arr in (hel, bij, bijinv):
            arr.setflags(write=False)
        self.bracoid = bracoid
        self.transported = transported
        self.H = H
        self.S = S
        self.Hel = hel
        self.bij = bij
        self.bijinv = bijinv
        self.starH = star_h
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


def bracoid_gamma(cb: ContainedBrace, x: int) -> GroupMap:
    """The twist of x as a verified automorphism of (H, *_H)."""
    fmap = GroupMap(cb.Hstar, cb.Hstar, tuple(int(v) for v in cb.gammaH[x]))
    if not fmap.is_bijective:
        raise AxiomViolated(f"twist of element {x} is not bijective")
    return fmap


@dataclass(frozen=True)
class LambdaRho:
    """Displacement tables of a contained brace.

    lam[x, y] is the G-index of lambda_x(y) = gamma_x(y (+) e), an
    element of H; rho[y, x] is the G-index of
    rho_y(x) = lambda_x(y)^-1 . x . y (subscript first).  G is the acting
    group; holding it, not the contained brace, keeps the brace's cached
    lambda_rho free of a reference cycle.
    """

    G: FiniteGroup
    lam: np.ndarray
    rho: np.ndarray


def lambda_rho(cb: ContainedBrace) -> LambdaRho:
    """Build the displacement tables and verify their composition laws."""
    G = cb.bracoid.G
    n = G.order
    arange = np.arange(n, dtype=np.int32)
    hpos = cb.bijinv[cb.bracoid.act.table[:, 0]]
    lam = cb.Hel[cb.gammaH[:, hpos]]
    rho_xy = G.table[G.table[G.inv[lam], arange[:, None]], arange[None, :]]
    rho = np.ascontiguousarray(rho_xy.T)
    lam.setflags(write=False)
    rho.setflags(write=False)
    lr = LambdaRho(G, lam=lam, rho=rho)
    report = lambda_rho_identity_checks(lr)
    if not report.ok:
        raise AxiomViolated(
            f"displacement law failed: {report.first_failure().describe()}")
    return lr


def lambda_rho_identity_checks(lr: LambdaRho, exhaustive: bool = True,
                               seed: int = 0,
                               samples: int = LEMMA_SAMPLES) -> Report:
    """Battery for the composition laws of the displacement tables.

    Checks: rho_e = id; lambda_x(e) = e; lambda is multiplicative in the
    subscript; rho is anti-multiplicative; rho_x inverts via x^-1; and
    the product rule lambda_x(yz) = lambda_x(y) . lambda_{rho_y(x)}(z).
    Exhaustive by default, proved on generators (_displacement_witnesses);
    exhaustive=False spot-checks `samples` seeded triples instead.
    """
    G, lam, rho = lr.G, lr.lam, lr.rho
    n = G.order
    gt = G.table

    results = [
        Check("rho-identity-row", bool(np.array_equal(rho[0], np.arange(n)))),
        Check("lambda-fixes-identity", bool((lam[:, 0] == 0).all())),
    ]
    if exhaustive:
        lam_w, rho_w, inv_w, prod_w = _displacement_witnesses(gt, G.inv, lam, rho)
    else:
        lam_w = rho_w = inv_w = prod_w = ()
        rng = random.Random(seed)
        for _ in range(samples):
            x, y, z = (rng.randrange(n) for _ in range(3))
            if not lam_w and lam[gt[x, y], z] != lam[x, lam[y, z]]:
                lam_w = (x, y, z)
            if not rho_w and rho[gt[x, y], z] != rho[y, rho[x, z]]:
                rho_w = (x, y, z)
            if not inv_w and rho[G.inv[x], rho[x, z]] != z:
                inv_w = (x, z)
            if not prod_w and lam[x, gt[y, z]] != gt[lam[x, y], lam[rho[y, x], z]]:
                prod_w = (x, y, z)
    mode = "exhaustive" if exhaustive else f"sampled({samples}, seed={seed})"
    results.extend([
        Check("lambda-compose", not lam_w, witness=lam_w, detail=mode),
        Check("rho-compose", not rho_w, witness=rho_w, detail=mode),
        Check("rho-inverse", not inv_w, witness=inv_w, detail=mode),
        Check("lambda-product-rule", not prod_w, witness=prod_w, detail=mode),
    ])
    return Report(tuple(results))


def _displacement_witnesses(gt: np.ndarray, ginv: np.ndarray, lam: np.ndarray,
                            rho: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """First witnesses of lambda-compose, rho-compose, rho-inverse and the product rule.

    Every triple is covered in O(n^2 |gens|); () means the law holds.  gt is
    an associative table, as a verified group's is.

    - lambda-compose, lam[x*y, z] = lam[x, lam[y, z]], says lam is a left
      action of G on its own carrier: _action_law_failure proves it on y in
      0 and the generators, and names the first (x, y, z) when it fails.
    - rho-compose, rho[x*y, z] = rho[y, rho[x, z]], is the same law for rho
      over G^op, whose table gt.T has (y, x) -> x*y.
    - lambda-product-rule, lam[x, y*z] = lam[x, y] . lam[rho[y, x], z], holds
      for all z once it holds for z in 0 and the generators and rho-compose
      holds.  Let T be the set of z with the rule at every (x, y), and take
      z, g in T.  For all x, y, with x' = rho_y(x) and so, by rho-compose,
      rho_{yz}(x) = rho_z(x'):
          lam_x(y(zg)) = lam_x((yz)g) = lam_x(yz) . lam_{rho_{yz}(x)}(g)   [g in T at (x, yz)]
                       = lam_x(y) . lam_{x'}(z) . lam_{rho_z(x')}(g)       [z in T at (x, y)]
                       = lam_x(y) . lam_{x'}(zg)                          [g in T at (x', z)]
      so zg is in T, and T holds the closure of 0 and the generators: G.
    - rho-inverse, rho[x^-1, rho[x, z]] = z, is one direct n^2 gather.

    When a proof does not go through, that law's full scan names its first
    triple, so every witness is the scan's.
    """
    n = gt.shape[0]

    def first(bad_rows) -> tuple[int, ...]:
        for x in range(n):
            bad = bad_rows(x)
            if bad.any():
                y, z = map(int, np.argwhere(bad)[0])
                return x, y, z
        return ()

    lam_w = _action_law_failure(gt, lam) or ()
    rho_ok = _action_law_holds(gt.T, rho)
    rho_w = () if rho_ok else first(lambda x: rho[gt[x]] != rho[:, rho[x]])
    bad = rho[ginv[:, None], rho] != np.arange(n)
    inv_w = tuple(map(int, np.argwhere(bad)[0])) if bad.any() else ()
    rho_t = rho.T                                   # (x, y) -> rho_y(x)
    if rho_ok and all(np.array_equal(lam[:, gt[:, z]], gt[lam, lam[rho_t, z]])
                      for z in [0, *generators(gt)]):
        prod_w = ()
    else:
        prod_w = first(lambda x: lam[x][gt] != gt[lam[x][:, None], lam[rho[:, x]]])
    return lam_w, rho_w, inv_w, prod_w


def to_matched_pair(cb: ContainedBrace,
                    cap: int = AUTOMORPHISM_CAP) -> tuple[MatchedPair, GroupMap, Subgroup]:
    """Matched pair on (H, S) plus the holomorph image of theta.

    Returns (pair, theta, image): the matched pair of the factorization
    G = HS, the homomorphism theta(h, s)(k) = h . (s-twist of k) from the
    bicrossed product into Hol(H, *_H), and its image subgroup.  The image
    of H x {e} is verified to be regular.
    """
    pair = matched_pair_from_factorization(cb.bracoid.G, cb.H, cb.S)
    sel = np.asarray(cb.S.elements, dtype=np.int32)
    if not np.array_equal(pair.left, cb.actH.table[sel]):
        raise AxiomViolated("matched action differs from the bracoid twist on S")
    for s in range(cb.S.order):
        row = GroupMap(cb.Hstar, cb.Hstar,
                       tuple(int(v) for v in pair.left[s]))
        if not row.is_bijective:
            raise AxiomViolated(f"S-element {s} does not act bijectively")

    hol = holomorph(cb.Hstar, cap=cap)
    m, k = cb.H.order, cb.S.order
    dot_h, star_h, sinv_h = cb.Hdot.table, cb.starH, cb.Hstar.inv
    images = []
    for h in range(m):
        for s in range(k):
            perm = dot_h[h, pair.left[s]]
            idx = hol.element(h, star_h[sinv_h[h], perm])
            if idx is None:
                raise AxiomViolated(
                    f"theta({h},{s}) does not normalize the star structure")
            images.append(idx)
    theta = GroupMap(bicrossed_product(pair), hol.group, tuple(images))
    image = Subgroup(hol.group, tuple(sorted(set(images))))
    regular = Subgroup(hol.group, tuple(sorted(images[h * k] for h in range(m))))
    orbit = hol.action.table[np.asarray(regular.elements), 0]
    if regular.order != m or len(set(orbit.tolist())) != m:
        raise AxiomViolated("image of H is not regular")
    return pair, theta, image
