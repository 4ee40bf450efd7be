"""Finite groups as multiplication tables, with subgroups, actions, automorphisms and the holomorph.

Conventions used throughout the package:
  - a group of order n lives on the indices 0..n-1 and its identity is 0;
  - table[a, b] is the product a*b;
  - all tables are numpy int32 arrays frozen after construction.

`holomorph(N)` returns a `Holomorph` value: Hol(N) = N x| Aut(N) as a
table group, its natural action on the points of N, and Aut(N) as image
tuples and as a table group.  How a (translation, twist) pair is laid out
as an index is known only here; other modules ask `Holomorph.element`.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .checks import (Check, Record, _action_law_failure, _first_true, _group_proof, adopted,
                     closure, frozen, frozen_transpose, generators, refuse)

# The default `--max-order`, and the one bound of the holomorph search: |Hol(N)| = |N| * |Aut(N)|.
MAX_ORDER = 2048


class NotLatinSquare(ValueError):
    pass


class NoIdentity(ValueError):
    pass


class NotAssociative(ValueError):
    pass


class NotPrime(ValueError):
    pass


class NotHomomorphism(ValueError):
    pass


class CapExceeded(ValueError):
    pass


_GROUP_ERRORS = {"latin": NotLatinSquare, "identity": NoIdentity}


class FiniteGroup:
    """A finite group given by its full multiplication table; identity is 0.

    Every table is proved a group: Latin square, identity at 0,
    associativity by Light's test and two-sided inverses; the first check
    that fails is raised (`_GROUP_ERRORS`, else NotAssociative).  No library call
    passes `trusted`.  `trusted=True` skips associativity alone, and is
    kept only for the benchmark input writer in `perfbench/inputs.py`,
    which writes a deliberately non-associative table to a file; the
    change that lets that writer print the text directly deletes it.

    The group adopts `table` itself, without a copy, when it is an int32,
    C-contiguous view that `checks.frozen` made: a builder that wrote the
    table hands it over frozen, so a large table exists once while it is
    proved.  Any other input is copied and frozen (`checks.adopted`), so no
    later write to it reaches `table`.  `inv` is the inverse table that the
    proof returns.  `opposite`, the table of G^op, is `table`'s transpose as
    a frozen view (`checks.frozen_transpose`), made once per group, so a law
    stated over G^op is memoised on it at no copy.
    """

    def __init__(self, table, name: str = "G", trusted: bool = False):
        arr = adopted(table)
        checks, inv = _group_proof(arr, not trusted)
        refuse(checks, default=NotAssociative, errors=_GROUP_ERRORS)
        self.order: int = arr.shape[0]
        self.name = name
        self.table = arr
        self.inv = inv

    @cached_property
    def opposite(self) -> np.ndarray:
        """The frozen table of the opposite group G^op, opposite[a, b] = b*a."""
        return frozen_transpose(self.table)

    @cached_property
    def element_orders(self) -> np.ndarray:
        n = self.order
        orders = np.zeros(n, dtype=np.int32)
        orders[0] = 1
        cur = np.arange(n, dtype=np.int32)
        k = 1
        while (orders == 0).any():
            hit = (cur == 0) & (orders == 0)
            orders[hit] = k
            cur = self.table[cur, np.arange(n)]
            k += 1
        return frozen(orders)

    def subgroup(self, elements: Sequence[int]) -> Subgroup:
        return Subgroup(self, tuple(sorted(int(e) for e in set(elements))))

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name!r}, order={self.order})"


class Subgroup(Record):
    """A subgroup of `parent` as a sorted tuple of parent indices.  Closure is the
    one check: a closed set holding g, of order k, holds g^-1 = g^(k-1)."""

    __slots__ = ("parent", "elements")

    def __init__(self, parent: FiniteGroup, elements: tuple[int, ...]):
        self._fill(parent, elements)
        elems = self.elements
        if not elems or elems[0] != 0 or list(elems) != sorted(set(elems)):
            raise ValueError(f"subgroup elements must be sorted, unique, and contain 0: {elems}")
        if elems[-1] >= self.parent.order:
            raise ValueError(f"element {elems[-1]} out of range 0..{self.parent.order - 1}")
        sub = adopted(elems)
        member = np.zeros(self.parent.order, dtype=bool)
        member[sub] = True
        tab = self.parent.table[sub[:, None], sub]
        inside = member[tab]
        if not inside.all():
            a, b = map(int, np.argwhere(~inside)[0])
            raise ValueError(
                f"not closed: {elems[a]}*{elems[b]} = {int(tab[a, b])} escapes the subset"
            )

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, x: int) -> bool:
        i = bisect_left(self.elements, x)
        return i < len(self.elements) and self.elements[i] == x

    def as_group(self, name: str | None = None) -> FiniteGroup:
        sub = np.asarray(self.elements, dtype=np.int32)
        pos = np.full(self.parent.order, -1, dtype=np.int32)
        pos[sub] = np.arange(len(sub), dtype=np.int32)
        table = pos[self.parent.table[sub[:, None], sub]]
        return FiniteGroup(frozen(table), name=name or f"{self.parent.name}-sub{len(sub)}")


def _action_checks(gt: np.ndarray, arr: np.ndarray, m: int) -> Iterator[Check]:
    """action.shape (|G| x m), then action.range if an entry is outside 0..m-1,
    else action.identity and action.law, each run when read: the checks that
    `GroupAction` refuses by and `bracoids.verify_bracoid` reports."""
    yield (shape := Check("action.shape", arr.shape == (gt.shape[0], m), detail=f"{arr.shape}"))
    if not shape.ok:
        return
    outside = _first_true((arr < 0) | (arr >= m))
    if outside:
        yield Check("action.range", False, witness=outside)
        return
    moved = _first_true(arr[0] != np.arange(m))
    yield Check("action.identity", not moved, witness=moved)
    law = _action_law_failure(gt, arr) or ()
    yield Check("action.law", not law, witness=law)


class GroupAction:
    """A left action of `actor` on points 0..m-1, as a |G| x m table, refused
    by the first failing `_action_checks` as a ValueError (`action.law FAIL at 1,6,1`)."""

    def __init__(self, actor: FiniteGroup, table):
        arr = adopted(table)
        m = arr.shape[1] if arr.ndim == 2 else 0
        refuse(_action_checks(actor.table, arr, m), default=ValueError)
        self.actor = actor
        self.space_size = m
        self.table = arr

    def __repr__(self) -> str:
        return f"GroupAction({self.actor.name!r} on {self.space_size} points)"


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("order must be positive")
    idx = np.arange(n, dtype=np.int32)
    return FiniteGroup(frozen((idx[:, None] + idx[None, :]) % n), name=f"C{n}")


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def elementary_abelian(p: int, k: int) -> FiniteGroup:
    """(C_p)^k on base-p digit vectors; index = sum(digit_i * p^i)."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if k < 1:
        raise ValueError("rank must be positive")
    n = p**k
    idx = np.arange(n)
    digits = np.stack([(idx // p**i) % p for i in range(k)], axis=1)
    summed = (digits[:, None, :] + digits[None, :, :]) % p
    weights = np.array([p**i for i in range(k)])
    table = (summed * weights).sum(axis=2).astype(np.int32)
    return FiniteGroup(frozen(table), name=f"E{p}^{k}")


def semidirect_product(
    H: FiniteGroup, S: FiniteGroup, alpha, name: str | None = None
) -> FiniteGroup:
    """H x| S with pair (h, s) at index h*|S| + s and (h,s)(h',s') = (h*s.h', s*s').

    `alpha` is one image row in H per element of S, alpha_s(h') = s.h'.  Its
    shape and range are checked here; FiniteGroup's proof of the table then
    decides exactly whether s -> alpha_s is a homomorphism from S into
    Aut(H).  If it is, the table is the semidirect product, a group.
    Conversely, if the table is a group with identity (0, 0):
      - (0,0)(h',s') = (h',s') gives alpha_0 = id, and (h,s)(0,0) = (h,s)
        gives alpha_s(0) = 0;
      - associativity at (h,s), (h',s'), (h'',s'') reads
        alpha_s(h') * alpha_{ss'}(h'') = alpha_s(h' * alpha_{s'}(h''));
        at h' = 0 it gives alpha_s o alpha_{s'} = alpha_{ss'}, and at s' = 0
        alpha_s(h' * h'') = alpha_s(h') * alpha_s(h''), so each alpha_s is
        an endomorphism of H;
      - alpha_s o alpha_{s^-1} = alpha_0 = id makes each alpha_s a bijection.
    So a twist list that is not such a homomorphism is refused by the first
    group law its table breaks (NotLatinSquare, NoIdentity, NotAssociative).
    """
    alpha = adopted(alpha)
    if alpha.shape != (S.order, H.order):
        raise NotHomomorphism(f"alpha must have shape ({S.order}, {H.order})")
    if not ((alpha >= 0) & (alpha < H.order)).all():
        raise NotHomomorphism(f"alpha entries must lie in 0..{H.order - 1}")
    nh, ns = H.order, S.order
    hpart = H.table[:, alpha] * np.int32(ns)           # (h, s, h') -> (h * alpha_s(h')) * |S|
    table = np.empty((nh * ns, nh * ns), dtype=np.int32)
    np.add(hpart[:, :, :, None], S.table[None, :, None, :], out=table.reshape(nh, ns, nh, ns))
    return FiniteGroup(frozen(table), name=name or f"{H.name}:{S.name}")


def direct_product(H: FiniteGroup, S: FiniteGroup, name: str | None = None) -> FiniteGroup:
    alpha = np.tile(np.arange(H.order, dtype=np.int32), (S.order, 1))
    return semidirect_product(H, S, alpha, name=name or f"{H.name}x{S.name}")


def subgroup_generated(G: FiniteGroup, gens: Sequence[int]) -> Subgroup:
    """<gens>; a generator outside 0..|G|-1 is the ValueError naming it, the one range check."""
    gens = tuple(int(g) for g in gens)
    bad = [g for g in gens if not 0 <= g < G.order]
    if bad:
        raise ValueError(f"generator {bad[0]} out of range 0..{G.order - 1}")
    return Subgroup(G, tuple(sorted(closure(G.table, gens))))


def automorphism_group(G: FiniteGroup, max_order: int = MAX_ORDER) -> list[tuple[int, ...]]:
    """All automorphisms of G by backtracking over the images of its generators.

    Returns the maps as sorted image tuples, the identity first.  `max_order`
    bounds |Hol(G)| = |G| * |Aut(G)|: CapExceeded is raised at once if
    |G| > max_order, else on finding map max_order // |G| + 1.

    With gens = generators(G.table), stage i takes, breadth first from 0,
    each step x -> x * g with x in <gens[:i + 1]> and g in gens[:i + 1] that
    no earlier stage took.  Steps to new elements form a spanning tree, so
    phi(x * g) = phi(x) * phi(g) along it fixes phi by its images of gens.
    Stage i runs for each image of gens[i], ascending among elements of its
    order: a tree step defines phi at its end, and phi is dropped once two
    elements share an image or another step breaks that law.  Automorphisms
    are injective and keep it, so none is dropped.  A complete phi took every
    step, so it meets the rows law on generators, which the closure proof of
    checks._rows_law_holds extends to all of G: phi is an injective
    homomorphism of finite G, an automorphism.
    """
    n = G.order
    if n > max_order:
        raise CapExceeded(f"|Hol({G.name})| exceeds max_order {max_order}: |{G.name}| = {n}")
    cap = max_order // n
    mul = G.table.item
    gens = generators(G.table)
    # steps[i] holds (z, x, s, new) for z = x * gens[s]: each x of <gens[:i]> with
    # s = i, then each x new at stage i with s <= i.  `reached` grows while it is read.
    steps, reached, seen = [], [0], {0}
    for i in range(len(gens)):
        step, old = [], len(reached)
        for k, x in enumerate(reached):
            for s in (i,) if k < old else range(i + 1):
                z = mul(x, gens[s])
                new = z not in seen
                step.append((z, x, s, new))
                if new:
                    seen.add(z)
                    reached.append(z)
        steps.append(step)
    orders = G.element_orders
    img, gimg, used, found = [0] * n, [0] * len(gens), {0}, []

    def search(i: int) -> None:
        if i == len(gens):
            if len(found) == cap:
                raise CapExceeded(f"|Hol({G.name})| exceeds max_order {max_order}: "
                                  f"|Aut({G.name})| > {cap}")
            found.append(tuple(img))
            return
        for y in np.flatnonzero(orders == orders[gens[i]]).tolist():
            gimg[i], hit = y, []
            for z, x, s, new in steps[i]:
                v = mul(img[x], gimg[s])
                if new and v not in used:
                    used.add(v)
                    img[z] = v
                    hit.append(v)
                elif new or img[z] != v:
                    break
            else:
                search(i + 1)
            used.difference_update(hit)

    search(0)
    return sorted(found)


class Holomorph(Record):
    """Hol(N) = N x| Aut(N) with its natural transitive action (h, a).k = h * a(k).

    `maps` lists Aut(N) as image tuples in lexicographic order, and `aut`
    is Aut(N) as a table group, map i at index i.  `group` is the
    semidirect product table and `action` its action on the points of `N`.
    The pair (h, a) sits at index h * len(maps) + (position of a in maps);
    `element` is the only place that turns a pair into an index.
    """

    __slots__ = ("N", "maps", "aut", "group", "action")

    def __init__(self, N: FiniteGroup, maps: tuple[tuple[int, ...], ...], aut: FiniteGroup,
                 group: FiniteGroup, action: GroupAction):
        self._fill(N, maps, aut, group, action)

    def element(self, h: int, twist: Sequence[int]) -> int | None:
        """Index of (h, twist), twist given by its images; None if it is not in Aut(N)."""
        images = tuple(int(v) for v in twist)
        slot = bisect_left(self.maps, images)
        if slot == len(self.maps) or self.maps[slot] != images:
            return None
        return int(h) * len(self.maps) + slot


def _composition_table(alpha: np.ndarray) -> np.ndarray:
    """[a, b] -> the row of a o b (images a[b]), rows sorted and closed under o.  A row
    is keyed by its bytes as big-endian int32, which compare as the image tuples do."""
    big = alpha.astype(">i4")
    key = np.dtype((np.void, big.strides[0]))
    composites = np.take(big, alpha, axis=1).view(key)[..., 0]
    return frozen(np.searchsorted(big.view(key).ravel(), composites).astype(np.int32))


def holomorph(N: FiniteGroup, max_order: int = MAX_ORDER) -> Holomorph:
    """Hol(N), refused by `automorphism_group` once its order exceeds max_order.

    Aut's table is composed from the maps, which are all of Aut(N).  The
    action is transitive: every automorphism fixes 0, so (h, a) sends the
    point 0 to h * a(0) = h.
    """
    maps = automorphism_group(N, max_order=max_order)
    alpha = np.array(maps, dtype=np.int32)
    aut = FiniteGroup(_composition_table(alpha), name=f"Aut({N.name})")
    group = semidirect_product(N, aut, alpha, name=f"Hol({N.name})")
    action = GroupAction(group, N.table[:, alpha].reshape(group.order, N.order))
    return Holomorph(N, tuple(maps), aut, group, action)


def is_transitive(action) -> bool:
    """Whether a GroupAction, or its table, moves point 0 to every point: one orbit."""
    return not _unreached(action)


def _unreached(action) -> tuple[int, ...]:
    """(p,) for the least point p outside {g.0}, the orbit of 0, or () if there is none."""
    table = adopted(action)
    return _first_true(np.bincount(table[:, 0], minlength=table.shape[1]) == 0)


def stabilizer(action: GroupAction, point: int) -> Subgroup:
    """The stabilizer of point; |orbit| * |stabilizer| = |G| holds for every action."""
    if not 0 <= point < action.space_size:
        raise ValueError(f"point {point} out of range 0..{action.space_size - 1}")
    elems = tuple(int(g) for g in np.nonzero(action.table[:, point] == point)[0])
    return Subgroup(action.actor, elems)


def _left_cosets(G: FiniteGroup, S: Subgroup) -> tuple[np.ndarray, np.ndarray]:
    """(reps, label): the least member of each left coset gS, ascending, and
    for each g of G the position of its coset in reps."""
    return np.unique(G.table[:, np.asarray(S.elements)].min(axis=1), return_inverse=True)


def find_complements(G: FiniteGroup, S: Subgroup) -> list[Subgroup]:
    """All complements of S in G, in lexicographic order of their elements.

    A complement H (H ∩ S = {0}, |H|*|S| = |G|) is a subgroup acting
    regularly on the m = |G|/|S| left cosets gS, labelled by their least
    members: it meets every coset exactly once.  The search grows subgroups
    K that meet each coset at most once, which is K ∩ S = {0}, since
    k1 S = k2 S iff k1^-1 k2 is in S.  A node K branches at the least coset
    p it does not meet, over the |S| members g of p, to the child <K, g>.

    Completeness: a complement H containing K has exactly one element h in
    p, and <K, h> lies in H, so it meets each coset at most once and is a
    child of K.  From K = {0}, every H is reached, and a node meeting all m
    cosets is a complement.  So an empty list certifies that S has none.

    Pruning: a member g whose order does not divide m is skipped, and a
    child is dropped when two of its elements lie in one coset, or when its
    order does not divide m (no subgroup of a complement has such an order).
    The child is joined by `closure` before its cosets are read, so a
    collision is found only after the join, which the cap stops once it
    passes m elements.  No subgroup is reached twice: on a path
    to K, the element added at each node is the one member of K in that
    node's least unmet coset, so K fixes its own path and the search keeps
    no visited set.

    Every subgroup found meets each of the m cosets once, so it meets S,
    the coset of 0, in 0 alone and has m * |S| = |G| elements: it is a
    complement, and Subgroup proves it closed.
    """
    if S.parent is not G:
        raise ValueError("S must be a subgroup of G")
    reps, label = _left_cosets(G, S)
    m = len(reps)
    point = label.tolist()
    cosets = G.table[np.ix_(reps, S.elements)].tolist()
    orders = G.element_orders.tolist()
    stack: list[tuple[list[int], list[int]]] = [([0], [])]
    found: list[tuple[int, ...]] = []
    while stack:
        elems, gens = stack.pop()
        if len(elems) == m:
            found.append(tuple(sorted(elems)))
            continue
        met = {point[k] for k in elems}
        p = next(c for c in range(m) if c not in met)
        for g in cosets[p]:
            if m % orders[g]:
                continue
            child = closure(G.table, gens + [g], cap=m, prior=elems)
            if (child is not None and m % len(child) == 0
                    and len({point[k] for k in child}) == len(child)):
                stack.append((child, gens + [g]))
    return [Subgroup(G, k) for k in sorted(found)]
