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

from .bracoids import ContainedBrace, SkewBracoid
from .checks import (AxiomViolated, Check, Record, Report, _action_law_holds, _assoc_failure,
                     _distinct, _first_repeat, _first_triple, _first_true, adopted, by_content,
                     frozen, group_table_checks)
from .groups import FiniteGroup, Subgroup


def _L_table(table: np.ndarray, inv: np.ndarray, plus: np.ndarray) -> np.ndarray:
    """L[x, y] = x.(x^-1 + y), for the dot table and its inverse table."""
    arange = np.arange(table.shape[0], dtype=np.int32)
    return table[arange[:, None], plus[inv]]


@by_content
def _relation_holds(table: np.ndarray, inv: np.ndarray, plus: np.ndarray) -> bool:
    """True iff x.(y+z) = x.y + x.(x^-1 + z) for all x, y, z: the action law
    of L over (G, .), as _relation_failure proves.  Memoised on the three
    tables, so L is built only when they are new."""
    return _action_law_holds(table, _L_table(table, inv, plus))


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
    if _relation_holds(dot.table, dot.inv, plus):
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
    dt, pt = adopted(dot), adopted(plus)
    results = list(group_table_checks(dt, prefix="dot."))
    shaped = pt.ndim == 2 and pt.shape == dt.shape
    results.append(Check("same-order", shaped, detail=f"{dt.shape} vs {pt.shape}"))
    n = dt.shape[0]
    if shaped:
        outside = _first_true((pt < 0) | (pt >= n))
        results.append(Check("plus.range", not outside, witness=outside))
    usable = shaped and all(c.ok for c in results)
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
    view is kept, anything else copied.  `report` is the verify_semibrace
    report it was proved by.
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
        self.report = report

    @cached_property
    def L(self) -> np.ndarray:
        return frozen(_L_table(self.dot.table, self.dot.inv, self.plus))

    def __repr__(self) -> str:
        return f"Semibrace(order={self.order}, dot={self.dot.name!r})"


class Decomposition(Record):
    """Split of the carrier into G+e and the idempotents E."""

    __slots__ = ("Hpart", "Epart")

    def __init__(self, Hpart: tuple[int, ...], Epart: tuple[int, ...]):
        self._fill(Hpart, Epart)


def decompose(sb: Semibrace) -> Decomposition:
    """The split of a verified semibrace's carrier into G+e and the idempotents E.

    (G+e, +) is proved a group here; the rest of the split is a theorem.
    The relation at x = e reads y + z = y + (e + z), so e + z = z by left
    cancellation: e is a left identity of +.  A finite left cancellative
    semigroup has bijective left translations, so (G, +) is right simple
    and left cancellative, a right group: (G, +) = K x E with E the
    idempotents, a right zero semigroup (Clifford-Preston I, Thm 1.27).
    With e = (1, f), that gives each fact of the split:
      - e + e = e, and x + x = x exactly when x + e = e (both say x is in E);
      - each idempotent row is the identity map, (1, f') + y = y;
      - G+e = K x {f} is closed under +, a group with identity e;
      - each g = (k, f') factors as (g + e) + eps for the one eps = (1, f').
    """
    hpart, epart, block = _split(sb.plus)
    FiniteGroup(block, name="G+e")
    return Decomposition(hpart, epart)


@by_content
def _split(plus: np.ndarray) -> tuple[tuple[int, ...], tuple[int, ...], np.ndarray]:
    """decompose's work on the + table alone: (G+e, E, block).

    block is the frozen + table of G+e on its positions, left for decompose
    to prove a group.
    """
    n = plus.shape[0]
    arange = np.arange(n, dtype=np.int32)
    hpart = _distinct(plus[:, 0], n)
    epart = np.nonzero(plus[arange, arange] == arange)[0]
    pos = np.full(n, -1, dtype=np.int32)
    pos[hpart] = np.arange(hpart.size, dtype=np.int32)
    block = frozen(pos[plus[hpart[:, None], hpart]])
    return tuple(int(v) for v in hpart), tuple(int(v) for v in epart), block


def bracoid_to_semibrace(cb: ContainedBrace) -> Semibrace:
    """Semibrace on the acting group: x + y = y . lambda_{y^-1}(x).

    The carrier keeps G's element indexing.  The + table is the contained
    brace's own (ContainedBrace.plus), built once, so every semibrace built
    from cb shares it and its proofs.  G+e is checked to be H and the
    idempotents to be S.
    """
    sb = Semibrace(cb.bracoid.G, cb.plus)
    dec = decompose(sb)
    if dec.Hpart != cb.H.elements:
        raise AxiomViolated("G+e is not the complement H")
    if dec.Epart != cb.S.elements:
        raise AxiomViolated("idempotents do not match the stabilizer S")
    return sb


def semibrace_to_bracoid(sb: Semibrace) -> ContainedBrace:
    """Bracoid on H = G+e with h*k = k+h and x (+) h = x.h + e.

    SkewBracoid and ContainedBrace verify the output.  The stabilizer of e
    is the idempotent set E: act[x, 0] is the position of x + e, which is
    0 exactly when x + e = e, that is when x is in E (see decompose).
    The contained brace keeps the tables built here: h + e = h on G+e, so
    h -> h (+) e is the identity on positions.
    """
    dec = decompose(sb)
    harr = np.asarray(dec.Hpart, dtype=np.int32)
    pos = np.full(sb.order, -1, dtype=np.int32)
    pos[harr] = np.arange(harr.size, dtype=np.int32)
    star = frozen(np.ascontiguousarray(pos[sb.plus[harr[:, None], harr]].T))
    N = FiniteGroup(star, name=f"{sb.dot.name}+e")
    act = frozen(pos[sb.plus[sb.dot.table[:, harr], 0]])     # y + e is in G+e, where pos is set
    return ContainedBrace(SkewBracoid(sb.dot, N, act), Subgroup(sb.dot, dec.Hpart))


def roundtrip_check(value: ContainedBrace | Semibrace) -> bool:
    """Both conversion composites must reproduce the input tables exactly."""
    if isinstance(value, ContainedBrace):
        back = semibrace_to_bracoid(bracoid_to_semibrace(value))
        return bool(
            np.array_equal(back.bracoid.G.table, value.bracoid.G.table)
            and back.H.elements == value.H.elements
            and back.S.elements == value.S.elements
            and np.array_equal(back.brace.star.table, value.brace.star.table)
            and np.array_equal(back.actH, value.actH))
    if isinstance(value, Semibrace):
        again = bracoid_to_semibrace(semibrace_to_bracoid(value))
        return bool(np.array_equal(again.dot.table, value.dot.table)
                    and np.array_equal(again.plus, value.plus))
    raise TypeError(f"expected ContainedBrace or Semibrace, got {type(value)!r}")
