"""Worked example families: builders for the instances exercised everywhere.

Five families, each returning a CatalogInstance bundle:

- trivial-brace: star = dot on a cyclic or metacyclic group.
- semidirect: dot = Cp x| Cq, star = Cp x Cq, quotient by {e} x Cq.
- abelianmap: order-4pq group with an abelian-image endomorphism, quotient
  by the dihedral ideal generated by x^q and z.
- gl3f2: seeded random two-generator search inside Hol(C2^3) for a simple
  transitive subgroup of order 168.
- cyclic-pq: transitive subgroup of Hol(C_pq) of order pq^2 whose point
  stabilizer has no complement (so no contained brace exists).
"""

from __future__ import annotations

import math
import random

import numpy as np

from .braces import SkewBrace, abelian_map_brace, trivial_brace
from .bracoids import (
    ContainedBrace,
    SkewBracoid,
    contains_brace,
    from_holomorph_subgroup,
    from_strong_left_ideal,
)
from .checks import Record, _distinct, closure, frozen
from .groups import (
    CapExceeded,
    FiniteGroup,
    NotPrime,
    Subgroup,
    cyclic_group,
    direct_product,
    elementary_abelian,
    holomorph,
    is_prime,
    is_transitive,
    semidirect_product,
    subgroup_generated,
)

CATALOG_NAMES = ("trivial-brace", "semidirect", "abelianmap", "gl3f2", "cyclic-pq")

DEFAULT_PARAMS: dict[str, tuple[int, ...]] = {
    "trivial-brace": (3, 2),
    "semidirect": (3, 2),
    "abelianmap": (3, 5),
    "gl3f2": (),
    "cyclic-pq": (5, 2),
}

# The acceptance battery as (name, params): trivial braces C2..C6 and S3,
# plus the four parameterized families at their stock parameters.
ACCEPTANCE: tuple[tuple[str, tuple[int, ...]], ...] = (
    *(("trivial-brace", (n,)) for n in range(2, 7)),
    ("trivial-brace", (3, 2)),
    ("semidirect", (3, 2)),
    ("abelianmap", (3, 5)),
    ("gl3f2", ()),
    ("cyclic-pq", (5, 2)),
)

GL3F2_ORDER = 168
GL3F2_ATTEMPT_CAP = 10**6
# cyclic-pq builds Hol(C_pq), of order pq(p - 1)(q - 1), only for pq up to this.
CYCLIC_PQ_MAX_N = 64
# The largest order in the stock pool that seeded_braces draws from.
POOL_ORDER = 16


class UnknownExample(ValueError):
    """Requested name is not in the catalog."""


class SearchExhausted(RuntimeError):
    """The seeded generator search hit its attempt cap; rerun with a new seed."""


class CatalogInstance(Record):
    """One family member: its name and parameters, the brace it is built
    from (None for the holomorph families) and its bracoid.

    ``contained`` is what `contains_brace` returns for the bracoid, run by
    this constructor, so a None is always a certificate that the
    stabilizer has no complement, never "not tried".
    """

    __slots__ = ("name", "params", "brace", "bracoid", "contained")

    def __init__(self, name: str, params: tuple[int, ...], brace: SkewBrace | None,
                 bracoid: SkewBracoid):
        self._fill(name, params, brace, bracoid, contains_brace(bracoid))


def _require_prime(value: int, label: str) -> None:
    if not is_prime(value):
        raise NotPrime(f"{label} = {value} is not prime")


def _prime_factors(m: int) -> list[int]:
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


def _primitive_root(p: int) -> int:
    parts = _prime_factors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // f, p) != 1 for f in parts):
            return g
    raise NotPrime(f"{p} has no primitive root; not prime?")


def _power_maps(p: int, q: int, u: int) -> np.ndarray:
    # Rows alpha[s] = multiplication by u^s on Z/p.
    arange = np.arange(p, dtype=np.int32)
    return np.stack([(pow(u, s, p) * arange) % p for s in range(q)]).astype(np.int32)


def _metacyclic(p: int, q: int) -> FiniteGroup:
    """Cp x| Cq with Cq acting through an order-q power map."""
    _require_prime(p, "p")
    _require_prime(q, "q")
    if (p - 1) % q != 0:
        raise ValueError(f"q = {q} must divide p - 1 = {p - 1}")
    u = pow(_primitive_root(p), (p - 1) // q, p)
    alpha = _power_maps(p, q, u)
    return semidirect_product(cyclic_group(p), cyclic_group(q), alpha,
                              name=f"C{p}:C{q}")


def trivial_brace_instance(params: tuple[int, ...]) -> CatalogInstance:
    """star = dot; one parameter n gives C_n, a pair (p, q) the metacyclic group."""
    if len(params) == 1:
        n = params[0]
        if n < 2:
            raise ValueError("order must be at least 2")
        G = cyclic_group(n)
    elif len(params) == 2:
        G = _metacyclic(*params)
    else:
        raise ValueError("trivial-brace takes n or (p, q)")
    B = trivial_brace(G)
    bracoid = from_strong_left_ideal(B, G.subgroup([0]))
    return CatalogInstance("trivial-brace", tuple(params), B, bracoid)


def semidirect_instance(p: int, q: int) -> CatalogInstance:
    """Brace with dot = Cp x| Cq and star = Cp x Cq, quotient by {e} x Cq."""
    dot = _metacyclic(p, q)
    star = direct_product(cyclic_group(p), cyclic_group(q), name=f"C{p}xC{q}")
    B = SkewBrace(star, dot)
    bracoid = from_strong_left_ideal(B, dot.subgroup(range(q)))
    return CatalogInstance("semidirect", (p, q), B, bracoid)


def abelianmap_instance(p: int, q: int) -> CatalogInstance:
    """Order-4pq group x^pq = y^2 = z^2 = e with y and z both inverting x.

    The endomorphism keeps the (y, z) part and kills x; the ideal is
    generated by x^q and z.  Element (x^h, y^j z^k) has index 4h + j + 2k.
    """
    _require_prime(p, "p")
    _require_prime(q, "q")
    if p == q or p == 2 or q == 2:
        raise ValueError("p and q must be distinct odd primes")
    m = p * q
    carrier = cyclic_group(m)
    klein = elementary_abelian(2, 2)
    arange = np.arange(m, dtype=np.int32)
    flip = (-arange) % m
    alpha = np.stack([arange, flip, flip, arange]).astype(np.int32)
    G = semidirect_product(carrier, klein, alpha, name=f"C{m}:V4")
    B = abelian_map_brace(G, tuple(i % 4 for i in range(4 * m)))
    bracoid = from_strong_left_ideal(B, subgroup_generated(G, [4 * q, 2]))
    return CatalogInstance("abelianmap", (p, q), B, bracoid)


def _conjugacy_class(G: FiniteGroup, g: int) -> np.ndarray:
    return _distinct(G.table[G.table[:, g], G.inv], G.order)


def _is_simple(G: FiniteGroup) -> bool:
    """No conjugacy class generates a proper nontrivial normal subgroup."""
    seen = np.zeros(G.order, dtype=bool)
    seen[0] = True
    for g in range(1, G.order):
        if seen[g]:
            continue
        cls = _conjugacy_class(G, g)
        seen[cls] = True
        generated = closure(G.table, cls.tolist())
        if len(generated) != G.order:
            return False
    return True


def gl3f2_instance(seed: int = 0) -> CatalogInstance:
    """Seeded search for a simple transitive order-168 subgroup of Hol(C2^3).

    Generator pairs are drawn in seeded order; each candidate closure is
    capped at 168 elements, must act transitively on the eight points,
    and must be simple (this rejects the affine order-168 subgroups).
    """
    N = elementary_abelian(2, 3)
    hol = holomorph(N)
    rng = random.Random(seed)
    for _ in range(GL3F2_ATTEMPT_CAP):
        a = rng.randrange(hol.group.order)
        b = rng.randrange(hol.group.order)
        elems = closure(hol.group.table, [a, b], cap=GL3F2_ORDER)
        if elems is None or len(elems) != GL3F2_ORDER:
            continue
        chosen = np.asarray(sorted(elems), dtype=np.int32)
        if not is_transitive(hol.action.table[chosen]):
            continue
        J = Subgroup(hol.group, tuple(int(v) for v in chosen))
        if not _is_simple(J.as_group(name="J168")):
            continue
        return CatalogInstance("gl3f2", (), None, from_holomorph_subgroup(hol, J))
    raise SearchExhausted(
        f"no simple transitive order-{GL3F2_ORDER} subgroup in {GL3F2_ATTEMPT_CAP} attempts")


def cyclic_pq_instance(p: int, q: int) -> CatalogInstance:
    """Order-pq^2 transitive subgroup of Hol(C_pq) with complement-free stabilizer.

    Needs q^2 | p - 1.  The twist alpha multiplies by u with
    u = g^((p-1)/q^2) mod p (g the least primitive root) and u = 1 mod q,
    so alpha has order q^2 and fixes the order-q part.  Hol(C_pq) is built
    under its exact order, and refused with CapExceeded if pq > CYCLIC_PQ_MAX_N.
    """
    _require_prime(p, "p")
    _require_prime(q, "q")
    if (p - 1) % (q * q) != 0:
        raise ValueError(f"q^2 = {q * q} must divide p - 1 = {p - 1}")
    m = p * q
    if m > CYCLIC_PQ_MAX_N:
        raise CapExceeded(f"|C{m}| = {m} exceeds {CYCLIC_PQ_MAX_N}: Hol(C{m}) is not built")
    N = cyclic_group(m)
    root = pow(_primitive_root(p), (p - 1) // (q * q), p)
    # CRT: u = root mod p, u = 1 mod q.
    u = next(v for v in range(1, m) if v % p == root % p and v % q == 1)
    hol = holomorph(N, max_order=m * (p - 1) * (q - 1))
    arange = np.arange(m, dtype=np.int64)
    sigma, tau = q, p
    J = subgroup_generated(hol.group, [hol.element(sigma, arange),
                                       hol.element(tau, (u * arange) % m)])
    return CatalogInstance("cyclic-pq", (p, q), None, from_holomorph_subgroup(hol, J))


def promote_brace(B: SkewBrace) -> ContainedBrace:
    """View a brace as a bracoid: quotient by the trivial ideal, H = all of G."""
    bracoid = from_strong_left_ideal(B, B.dot.subgroup([0]))
    return ContainedBrace(bracoid, bracoid.G.subgroup(range(B.order)))


def _relabeled(G: FiniteGroup, perm: np.ndarray) -> FiniteGroup:
    inv = np.empty_like(perm)
    inv[perm] = np.arange(len(perm), dtype=perm.dtype)
    return FiniteGroup(frozen(perm[G.table[inv[:, None], inv]]), name=G.name + "~")


def _brace_pool() -> list[SkewBrace]:
    pool = [trivial_brace(cyclic_group(n)) for n in range(2, POOL_ORDER + 1)]
    for k in (2, 3, 4):
        if 2**k <= POOL_ORDER:
            pool.append(trivial_brace(elementary_abelian(2, k)))
    for p in (3, 5, 7, 11, 13):
        for q in (2, 3, 4):
            if p * q <= POOL_ORDER and (p - 1) % q == 0 and is_prime(q):
                dot = _metacyclic(p, q)
                pool.append(SkewBrace(direct_product(cyclic_group(p), cyclic_group(q)), dot))
                pool.append(trivial_brace(dot))
    for m in range(3, POOL_ORDER // 2 + 1):
        # Dihedral group with the order-2 part split off by an abelian map.
        carrier = cyclic_group(m)
        arange = np.arange(m, dtype=np.int32)
        alpha = np.stack([arange, (-arange) % m]).astype(np.int32)
        G = semidirect_product(carrier, cyclic_group(2), alpha, name=f"D{m}")
        pool.append(abelian_map_brace(G, tuple(i % 2 for i in range(2 * m))))
    return pool


def seeded_braces(rng: random.Random, count: int) -> list[SkewBrace]:
    """Draw braces from the stock pool, each relabelled by a random identity-fixing
    permutation; both tables get the same relabelling so the coupling law survives."""
    pool = _brace_pool()
    out = []
    for _ in range(count):
        base = pool[rng.randrange(len(pool))]
        tail = list(range(1, base.order))
        rng.shuffle(tail)
        perm = np.asarray([0] + tail, dtype=np.int32)
        out.append(SkewBrace(_relabeled(base.star, perm), _relabeled(base.dot, perm)))
    return out


def _example_params(name: str, params: tuple[int, ...]) -> tuple[int, ...]:
    """params, or the stock ones when empty; refuses a name or count the example does not take."""
    if name not in CATALOG_NAMES:
        raise UnknownExample(f"unknown example {name!r} (choose from {CATALOG_NAMES})")
    params = tuple(params) or DEFAULT_PARAMS[name]
    counts, takes = {"gl3f2": ((0,), "no parameters"),
                     "trivial-brace": ((1, 2), "n or (p, q)")}.get(name, ((2,), "(p, q)"))
    if len(params) not in counts:
        raise ValueError(f"{name} takes {takes}")
    return params


def example_order(name: str, params: tuple[int, ...] = ()) -> int:
    """|G| of the bracoid `build_example(name, params)` returns, without building it."""
    params = _example_params(name, params)
    if name == "gl3f2":
        return GL3F2_ORDER
    if name == "trivial-brace":
        return math.prod(params)
    p, q = params
    return {"semidirect": p * q, "abelianmap": 4 * p * q, "cyclic-pq": p * q * q}[name]


def build_example(name: str, params: tuple[int, ...] = (), seed: int = 0) -> CatalogInstance:
    """Dispatch by catalog name; empty params fall back to the stock instance."""
    params = _example_params(name, params)
    if name == "trivial-brace":
        return trivial_brace_instance(params)
    if name == "semidirect":
        return semidirect_instance(*params)
    if name == "abelianmap":
        return abelianmap_instance(*params)
    if name == "cyclic-pq":
        return cyclic_pq_instance(*params)
    return gl3f2_instance(seed=seed)


def acceptance_instances(seed: int = 0) -> list[CatalogInstance]:
    """The fixed battery, built in the order ACCEPTANCE lists it."""
    return [build_example(name, params, seed=seed) for name, params in ACCEPTANCE]
