"""Left cancellative semibraces and the bracoid correspondence.

A semibrace couples a group (G, .) with a left cancellative semigroup
(G, +) through x.(y+z) = x.y + x.(x^-1 + z).  The carrier splits as
(G+e) + E with E the idempotents; G+e matches the complement H and E
the stabilizer S of the corresponding bracoid, and the two conversion
maps invert each other on the nose (same element indexing, so round
trips are literal table equality).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .bracoids import ContainedBrace, SkewBracoid, transport
from .checks import (AxiomViolated, Check, Record, Report, _action_law_holds, _assoc_failure,
                     _distinct, _first_repeat, _first_triple, adopted, by_content, frozen,
                     group_table_checks)
from .groups import FiniteGroup, Subgroup, stabilizer


def _L_table(dot: FiniteGroup, plus: np.ndarray) -> np.ndarray:
    """L[x, y] = x.(x^-1 + y)."""
    arange = np.arange(dot.order, dtype=np.int32)
    return dot.table[arange[:, None], plus[dot.inv]]


def _relation_failure(dot: FiniteGroup, plus: np.ndarray) -> tuple[int, int, int] | None:
    """First triple breaking x.(y+z) = x.y + x.(x^-1 + z), or None.

    The relation is the action law of L over (G, .).  With
    L_x(w) = x.(x^-1 + w), any table + has a + w = a.L_{a^-1}(w).  So the
    relation at (x, y, z) reads x.y.L_{y^-1}(z) = x.y.L_{y^-1 x^-1}(L_x(z)),
    that is L_{c.x}(z) = L_c(L_x(z)) with c = y^-1 x^-1, and it holds for
    all x, y, z exactly when L_{c.x} = L_c o L_x for every c and x.  The
    triples are matched up differently, so when the law fails, the full
    scan of the relation names its own first triple.
    """
    if _action_law_holds(dot.table, _L_table(dot, plus)):
        return None
    return _brute_relation(dot, plus)


def _brute_relation(dot: FiniteGroup, plus: np.ndarray) -> tuple[int, int, int] | None:
    def bad_at(x):                       # (y, z) -> x.(y+z) against x.y + x.(x^-1 + z)
        dx = dot.table[x]
        return dx[plus] != plus[dx[:, None], dx[plus[dot.inv[x]]]]

    return _first_triple(dot.order, bad_at)


def verify_semibrace(dot, plus) -> Report:
    """Axiom report: dot group laws, plus associativity and cancellativity,
    and the coupling relation, each with a first counterexample."""
    dt = np.asarray(getattr(dot, "table", dot), dtype=np.int32)
    pt = np.asarray(plus, dtype=np.int32)
    results = list(group_table_checks(dt, prefix="dot."))
    shaped = pt.ndim == 2 and pt.shape == dt.shape
    results.append(Check("same-order", shaped, detail=f"{dt.shape} vs {pt.shape}"))
    n = dt.shape[0]
    ranged = shaped and bool(((pt >= 0) & (pt < n)).all())
    if shaped:
        results.append(Check("plus.range", ranged))
    usable = ranged and all(c.ok for c in results)
    if usable:
        witness = _assoc_failure(pt)
        results.append(Check("plus.assoc", witness is None, witness=witness or ()))
        cancel_w = _first_repeat(pt) or ()
        results.append(Check("plus.cancellative", not cancel_w, witness=cancel_w))
        if witness is None and not cancel_w:
            rel = _relation_failure(FiniteGroup(dt), pt)
            results.append(Check("compat", rel is None, witness=rel or ()))
        else:
            results.append(Check("compat", False,
                                 detail="not evaluated: plus checks failed"))
    else:
        results.append(Check("compat", False,
                             detail="not evaluated: table checks failed"))
    return Report(tuple(results))


class Semibrace:
    """Verified semibrace; L[x, y] = x(x^-1 + y) is built when first read.

    x -> L_x is multiplicative and each L_x is an endomorphism of (G, +):
    the relation check of verify_semibrace proves the first (see
    _relation_failure), and with + associative it gives the second,
        L_x(y+z) = x.((x^-1 + y) + z) = x.(x^-1 + y) + L_x(z) = L_x(y) + L_x(z).
    Rows are in fact bijections (a plus row is injective and left
    translation is), but that is left to callers to observe rather than
    assumed anywhere.  `plus` is held as `checks.adopted` gives it: a frozen
    view is kept, anything else copied.
    """

    def __init__(self, dot, plus):
        if not isinstance(dot, FiniteGroup):
            dot = FiniteGroup(dot)
        plus = adopted(plus)
        report = verify_semibrace(dot.table, plus)
        if not report.ok:
            raise AxiomViolated(
                f"semibrace law failed: {report.first_failure().describe()}")
        self.dot = dot
        self.plus = plus
        self.order = dot.order

    @cached_property
    def L(self) -> np.ndarray:
        return frozen(_L_table(self.dot, self.plus))

    def __repr__(self) -> str:
        return f"Semibrace(order={self.order}, dot={self.dot.name!r})"


class Decomposition(Record):
    """Split of the carrier into G+e and the idempotents E."""

    __slots__ = ("Hpart", "Epart")

    def __init__(self, Hpart: tuple[int, ...], Epart: tuple[int, ...]):
        self._fill(Hpart, Epart)


def decompose(sb: Semibrace) -> Decomposition:
    """Split the carrier and assert every structural claim about the split.

    Asserted: x+x = x exactly when x+e = e; idempotent rows act as the
    identity; (G+e, +) is a group; and each g factors as (g+e) + eps for
    exactly one idempotent eps.
    """
    hpart, epart, block, unsplit = _split(sb.plus)
    FiniteGroup(block, name="G+e")
    if unsplit is not None:
        raise AxiomViolated(f"{unsplit} does not split uniquely as (g+e) + eps")
    return Decomposition(hpart, epart)


@by_content
def _split(plus: np.ndarray) -> tuple[tuple[int, ...], tuple[int, ...], np.ndarray, int | None]:
    """decompose's work on the table alone: (G+e, E, block, unsplit).

    block is the read-only + table of G+e on its positions, left for
    decompose to check as a group; unsplit is the first g with no unique
    factorization (g+e) + eps, or None, raised by decompose after that
    check so the exceptions keep their order.  The other claims raise here.
    """
    n = plus.shape[0]
    arange = np.arange(n, dtype=np.int32)
    hpart = _distinct(plus[:, 0], n)
    epart = np.nonzero(plus[arange, arange] == arange)[0].astype(np.int32)
    if 0 not in epart:
        raise AxiomViolated("identity is not idempotent")
    absorbed = np.nonzero(plus[:, 0] == 0)[0]
    if not np.array_equal(absorbed, epart):
        raise AxiomViolated("x+x = x and x+e = e pick out different sets")
    if not np.array_equal(plus[epart], np.broadcast_to(arange, (epart.size, n))):
        raise AxiomViolated("an idempotent row is not the identity map")
    pos = np.full(n, -1, dtype=np.int32)
    pos[hpart] = np.arange(hpart.size, dtype=np.int32)
    block = pos[plus[hpart[:, None], hpart]]
    if (block < 0).any():
        raise AxiomViolated("G+e is not closed under +")
    block = frozen(block)
    anchors = plus[:, 0]
    unique = (plus[anchors[:, None], epart[None, :]] == arange[:, None]).sum(axis=1) == 1
    unsplit = None if unique.all() else int(np.argmin(unique))
    return (tuple(int(v) for v in hpart), tuple(int(v) for v in epart), block, unsplit)


def bracoid_to_semibrace(cb: ContainedBrace) -> Semibrace:
    """Semibrace on the acting group: x + y = y . lambda_{y^-1}(x).

    The carrier keeps G's element indexing.  G+e is checked to be H and
    the idempotents to be S.
    """
    G = cb.bracoid.G
    lr = cb.lambda_rho
    n = G.order
    arange = np.arange(n, dtype=np.int32)
    swapped = G.table[arange[:, None], lr.lam[G.inv]]
    sb = Semibrace(G, frozen(np.ascontiguousarray(swapped.T)))
    dec = decompose(sb)
    if dec.Hpart != cb.H.elements:
        raise AxiomViolated("G+e is not the complement H")
    if dec.Epart != cb.S.elements:
        raise AxiomViolated("idempotents do not match the stabilizer S")
    return sb


def semibrace_to_bracoid(sb: Semibrace) -> ContainedBrace:
    """Bracoid on H = G+e with h*k = k+h and x (+) h = x.h + e.

    The output is rebuilt through the transport machinery, so every
    bracoid invariant is re-verified; the stabilizer of e is checked to
    be exactly the idempotents.
    """
    dec = decompose(sb)
    harr = np.asarray(dec.Hpart, dtype=np.int32)
    pos = np.full(sb.order, -1, dtype=np.int32)
    pos[harr] = np.arange(harr.size, dtype=np.int32)
    star = frozen(np.ascontiguousarray(pos[sb.plus[harr[:, None], harr]].T))
    N = FiniteGroup(star, name=f"{sb.dot.name}+e")
    act = frozen(pos[sb.plus[sb.dot.table[:, harr], 0]])     # y + e is in G+e, where pos is set
    bracoid = SkewBracoid(sb.dot, N, act)
    stab = stabilizer(bracoid.act, 0)
    if stab.elements != dec.Epart:
        raise AxiomViolated("stabilizer of e is not the idempotent set")
    cb = transport(bracoid, Subgroup(sb.dot, dec.Hpart))
    if not (np.array_equal(cb.starH, star)
            and np.array_equal(cb.actH.table, act)):
        raise AxiomViolated("transport relabelled a structure built on H")
    return cb


def roundtrip_check(value: ContainedBrace | Semibrace) -> bool:
    """Both conversion composites must reproduce the input tables exactly."""
    if isinstance(value, ContainedBrace):
        back = semibrace_to_bracoid(bracoid_to_semibrace(value))
        return bool(
            np.array_equal(back.bracoid.G.table, value.bracoid.G.table)
            and back.H.elements == value.H.elements
            and back.S.elements == value.S.elements
            and np.array_equal(back.starH, value.starH)
            and np.array_equal(back.actH.table, value.actH.table))
    if isinstance(value, Semibrace):
        again = bracoid_to_semibrace(semibrace_to_bracoid(value))
        return bool(np.array_equal(again.dot.table, value.dot.table)
                    and np.array_equal(again.plus, value.plus))
    raise TypeError(f"expected ContainedBrace or Semibrace, got {type(value)!r}")
