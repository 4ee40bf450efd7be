"""Brute-force law scans and artifact checks, written from the definitions.

Every scan walks its tuples in lexicographic order and returns the first
failing tuple, or None when the law holds.  They do not import ybelab, so
the benchmark can judge the program's verdicts and witnesses against an
implementation that later fast paths in the library do not touch.  A scan
works one first-coordinate slice at a time and stops at the first slice
that holds a failure.

Tables are 0-based numpy integer arrays, identity at index 0, as in the
ybelab text formats.
"""

from __future__ import annotations

import numpy as np


def _first(bad: np.ndarray) -> tuple[int, ...] | None:
    hits = np.flatnonzero(bad)
    if hits.size == 0:
        return None
    return tuple(int(v) for v in np.unravel_index(int(hits[0]), bad.shape))


def inverses(table: np.ndarray) -> np.ndarray:
    """inv[a] with a * inv[a] = e, for a table already known to be a group."""
    return np.argmax(table == 0, axis=1)


def associativity(t: np.ndarray) -> tuple[int, int, int] | None:
    """First (a, b, c) with (a*b)*c != a*(b*c)."""
    for a in range(t.shape[0]):
        left = t[t[a, :], :]                     # [b, c] -> (a*b)*c
        right = t[a, t]                          # [b, c] -> a*(b*c)
        hit = _first(left != right)
        if hit is not None:
            return (a, *hit)
    return None


def brace_compat(star: np.ndarray, dot: np.ndarray) -> tuple[int, int, int] | None:
    """First (x, y, z) with x.(y*z) != (x.y) * x^{-*} * (x.z)."""
    sinv = inverses(star)
    for x in range(star.shape[0]):
        dx = dot[x]
        left = dx[star]                          # [y, z] -> x.(y*z)
        twist = star[dx, sinv[x]]                # [y] -> (x.y) * x^{-*}
        right = star[twist[:, None], dx[None, :]]
        hit = _first(left != right)
        if hit is not None:
            return (x, *hit)
    return None


def action_law(g: np.ndarray, act: np.ndarray) -> tuple[int, int, int] | None:
    """First (g, h, p) with (g.h)(+)p != g(+)(h(+)p)."""
    for a in range(g.shape[0]):
        left = act[g[a], :]                      # [h, p] -> (a.h)(+)p
        right = act[a, act]                      # [h, p] -> a(+)(h(+)p)
        hit = _first(left != right)
        if hit is not None:
            return (a, *hit)
    return None


def coupling(n: np.ndarray, act: np.ndarray) -> tuple[int, int, int] | None:
    """First (x, eta, mu) with x(+)(eta*mu) != (x(+)eta) * (x(+)e)^{-*} * (x(+)mu)."""
    ninv = inverses(n)
    for x in range(act.shape[0]):
        ax = act[x]
        left = ax[n]
        twist = n[ax, ninv[ax[0]]]
        right = n[twist[:, None], ax[None, :]]
        hit = _first(left != right)
        if hit is not None:
            return (x, *hit)
    return None


def plus_assoc(plus: np.ndarray) -> tuple[int, int, int] | None:
    """First (x, y, z) with (x+y)+z != x+(y+z)."""
    return associativity(plus)


def semibrace_relation(dot: np.ndarray, plus: np.ndarray) -> tuple[int, int, int] | None:
    """First (x, y, z) with x.(y+z) != x.y + x.(x^-1 + z)."""
    dinv = inverses(dot)
    for x in range(dot.shape[0]):
        dx = dot[x]
        left = dx[plus]                          # [y, z] -> x.(y+z)
        shifted = dx[plus[dinv[x]]]              # [z] -> x.(x^-1 + z)
        right = plus[dx[:, None], shifted[None, :]]
        hit = _first(left != right)
        if hit is not None:
            return (x, *hit)
    return None


def braid(left: np.ndarray, right: np.ndarray) -> tuple[int, int, int] | None:
    """First (x, y, z) on which r12 r23 r12 and r23 r12 r23 disagree.

    r(x, y) = (left[x, y], right[x, y]); each composite is applied to the
    triple (x, y, z) starting from its rightmost factor.
    """
    for x in range(left.shape[0]):
        # r12, then r23, then r12.
        a, b = left[x], right[x]                 # [y]
        c, d = left[b], right[b]                 # [y, z]
        one = (left[a[:, None], c], right[a[:, None], c], d)
        # r23, then r12, then r23.
        u, v = left, right                       # [y, z]
        p, q = left[x, u], right[x, u]
        two = (p, left[q, v], right[q, v])
        bad = (one[0] != two[0]) | (one[1] != two[1]) | (one[2] != two[2])
        hit = _first(bad)
        if hit is not None:
            return (x, *hit)
    return None


def brace_solution_tables(star: np.ndarray, dot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """r(x, y) = (g, g^-1 . x . y) with g = x^{-*} * (x . y)."""
    sinv, dinv = inverses(star), inverses(dot)
    n = star.shape[0]
    idx = np.arange(n)
    gamma = star[sinv[:, None], dot]
    right = dot[dot[dinv[gamma], idx[:, None]], idx[None, :]]
    return gamma, right


def semibrace_solution_tables(dot: np.ndarray, plus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """r(x, y) = (l, l^-1 . x . y) with l = x . (x^-1 + y)."""
    dinv = inverses(dot)
    n = dot.shape[0]
    idx = np.arange(n)
    lmap = dot[idx[:, None], plus[dinv]]
    right = dot[dot[dinv[lmap], idx[:, None]], idx[None, :]]
    return lmap, right


def semibrace_for_bracoid(dot: np.ndarray, plus: np.ndarray, g: np.ndarray,
                          act: np.ndarray) -> str | None:
    """Why (dot, plus) is not a semibrace derived from the bracoid (g, act), or None.

    Checked: the carrier is the acting group unchanged; + is associative,
    left cancellative and coupled to the dot product; the idempotents are
    the stabilizer of point 0; and G + e meets them only in e with the
    complementary order.
    """
    if dot.shape != g.shape or not np.array_equal(dot, g):
        return "dot table is not the acting group"
    n = dot.shape[0]
    if plus.shape != (n, n) or plus.min() < 0 or plus.max() >= n:
        return "plus table has the wrong shape or range"
    hit = plus_assoc(plus)
    if hit is not None:
        return f"plus.assoc fails at {hit}"
    if (np.sort(plus, axis=1) != np.arange(n)).any():
        return "plus is not left cancellative"
    hit = semibrace_relation(dot, plus)
    if hit is not None:
        return f"relation fails at {hit}"
    idempotents = np.flatnonzero(plus[np.arange(n), np.arange(n)] == np.arange(n))
    stabilizer = np.flatnonzero(act[:, 0] == 0)
    if not np.array_equal(idempotents, stabilizer):
        return "idempotents differ from the point stabilizer"
    hpart = np.unique(plus[:, 0])
    if hpart.size * stabilizer.size != n or np.intersect1d(hpart, stabilizer).size != 1:
        return "G + e is not a complement of the stabilizer"
    return None


def parse_tables(text: str, magic: str, counts: int) -> tuple[list[int], str, list[np.ndarray]]:
    """Header numbers, header tail and the blank-separated tables of an artifact."""
    head, _, body = text.partition("\n")
    tokens = head.split(" ")
    if tokens[:2] != [magic, "v1"]:
        raise ValueError(f"expected a {magic} v1 header, got {head[:40]!r}")
    numbers = [int(t) for t in tokens[2:2 + counts]]
    tables = [np.array(b.split(), dtype=np.int64).reshape(b.strip("\n").count("\n") + 1, -1)
              for b in body.split("\n\n")]
    return numbers, " ".join(tokens[2 + counts:]), tables


def parse_solution(text: str) -> tuple[str, np.ndarray, np.ndarray]:
    """Provenance and the left/right tables of a YBE v1 file."""
    (n,), provenance, (rows,) = parse_tables(text, "YBE", 1)
    if rows.shape != (n * n, 4):
        raise ValueError("solution body has the wrong shape")
    return provenance, rows[:, 2].reshape(n, n), rows[:, 3].reshape(n, n)


def format_witness(tup: tuple[int, ...]) -> str:
    """A witness as the CLI prints it: (a,b,c)."""
    return "(" + ",".join(str(v) for v in tup) + ")"
