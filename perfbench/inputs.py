"""Seeded input files for the files-large and reject-large workloads.

The base structures are ybelab's abelianmap_instance(3, 11) (order 132)
and abelianmap_instance(5, 13) (order 260): the brace, its quotient
bracoid, the semibrace of the contained brace and the solution of that
semibrace.  A seed relabels each order by random permutations fixing the
identity, one for the acting group G and one for the point group N, so
each seed gives different bytes for the same structures.

The reject inputs take the same relabelled tables and break one deep law
per file while keeping it parseable and passing the cheap checks (Latin
square, identity, inverses, ranges, action identity row, cancellativity).
The expected failing check and its first counterexample come from the
brute-force scans in `oracle`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import oracle

BASE_PARAMS = ((3, 11), (5, 13))
BASE_ORDERS = tuple(4 * p * q for p, q in BASE_PARAMS)
KINDS = ("group", "brace", "bracoid", "semibrace", "solution")


@dataclass(frozen=True)
class Instance:
    """One relabelled abelianmap instance, every table on 0..n-1."""

    g: np.ndarray        # acting group (G, .), also the brace's dot group
    star: np.ndarray     # brace star group on G's carrier
    n: np.ndarray        # point group (N, *)
    act: np.ndarray      # |G| x |N| action table
    plus: np.ndarray     # semibrace + on G's carrier
    left: np.ndarray     # solution tables on G's carrier
    right: np.ndarray

    @property
    def order(self) -> int:
        return self.g.shape[0]


@dataclass(frozen=True)
class Rejection:
    """The check a corrupted file must fail and the witness it must print."""

    check: str
    witness: tuple[int, ...]


def base_instances() -> list[Instance]:
    """The unrelabelled instances, built and verified by ybelab itself."""
    from ybelab.catalog import abelianmap_instance
    from ybelab.semibraces import bracoid_to_semibrace

    out = []
    for p, q in BASE_PARAMS:
        inst = abelianmap_instance(p, q)
        sb = bracoid_to_semibrace(inst.contained)
        g = inst.bracoid.G.table
        left, right = oracle.semibrace_solution_tables(g, sb.plus)
        out.append(Instance(g, inst.brace.star.table, inst.bracoid.N.table,
                            inst.bracoid.act.table, sb.plus, left, right))
    return out


def _fixing_identity(rng: np.random.Generator, size: int) -> np.ndarray:
    return np.concatenate(([0], 1 + rng.permutation(size - 1)))


def _relabel(table: np.ndarray, rows: np.ndarray, cols: np.ndarray,
             values: np.ndarray) -> np.ndarray:
    # out[rows[a], cols[b]] = values[table[a, b]]
    return values[table[np.ix_(np.argsort(rows), np.argsort(cols))]]


def relabel(base: Instance, seed: int) -> Instance:
    """Apply the seed's identity-fixing relabellings of G and N to every table."""
    rng = np.random.default_rng([seed, base.order])
    pg = _fixing_identity(rng, base.order)
    pn = _fixing_identity(rng, base.n.shape[0])
    on_g = lambda t: _relabel(t, pg, pg, pg)
    return Instance(on_g(base.g), on_g(base.star), _relabel(base.n, pn, pn, pn),
                    _relabel(base.act, pg, pn, pn), on_g(base.plus),
                    on_g(base.left), on_g(base.right))


def write_file(inst: Instance, kind: str, directory: Path) -> Path:
    """Write one structure file of `inst` in ybelab's text format."""
    from ybelab import files
    from ybelab.groups import FiniteGroup
    from ybelab.ybe import SolutionMap

    if kind == "group":
        # trusted: a corrupted table must reach the file unchecked.
        text = files.write_group(FiniteGroup(inst.g, name="G", trusted=True))
    elif kind == "brace":
        text = files.write_brace(inst.star, inst.g)
    elif kind == "bracoid":
        text = files.write_bracoid(inst.g, inst.n, inst.act)
    elif kind == "semibrace":
        text = files.write_semibrace(inst.g, inst.plus)
    else:
        text = files.write_solution(SolutionMap(inst.left, inst.right, provenance="bracoid"))
    path = directory / f"{kind}-{inst.order}.txt"
    path.write_text(text)
    return path


def _transposition(rng: np.random.Generator, size: int) -> np.ndarray:
    i, j = 1 + rng.choice(size - 1, 2, replace=False)
    sigma = np.arange(size)
    sigma[[i, j]] = sigma[[j, i]]
    return sigma


def _swap_in_row(rng: np.random.Generator, table: np.ndarray,
                 avoid_first_column: bool) -> np.ndarray:
    """Swap two entries of one non-identity row; the row stays a permutation."""
    out = table.copy()
    row = 1 + int(rng.integers(table.shape[0] - 1))
    low = 1 if avoid_first_column else 0
    i, j = low + rng.choice(table.shape[1] - low, 2, replace=False)
    out[row, [i, j]] = out[row, [j, i]]
    return out


def _intercalate_swap(rng: np.random.Generator, t: np.ndarray) -> np.ndarray:
    """Swap u and v in cells (a,c),(a,d),(b,c),(b,d) with a*c = b*d = u, a*d = b*c = v.

    The result is still a Latin square with identity 0 and unchanged
    inverses; only associativity can fail.  The cells are found by a
    bounded random search.
    """
    n = t.shape[0]
    inv = oracle.inverses(t)
    for _ in range(100_000):
        a, c, d = (int(v) for v in 1 + rng.choice(n - 1, 3, replace=False))
        u, v = int(t[a, c]), int(t[a, d])
        b = int(t[u, inv[d]])                    # b * d = a * c
        if b not in (0, a) and u and v and int(t[b, c]) == v:
            out = t.copy()
            out[a, c] = out[b, d] = v
            out[a, d] = out[b, c] = u
            return out
    raise ValueError("no intercalate found off the identity row and column")


# The deep law each kind's corruption breaks, for the order-132 and the
# order-260 file.  Both variants of a kind are covered once per pass.
DEEP_LAWS = {
    "group": ("associativity", "associativity"),
    "brace": ("compat", "compat"),
    "bracoid": ("action.law", "coupling"),
    "semibrace": ("plus.assoc", "relation"),
    "solution": ("braid", "braid"),
}


def step_name(law: str) -> str:
    """The CLI's STEP name for a law: coupling and relation both report as compat."""
    return "compat" if law in ("coupling", "relation") else law


def law_witness(inst: Instance, law: str) -> tuple[int, ...] | None:
    """The oracle's first counterexample to `law` in `inst`, or None."""
    return {
        "associativity": lambda: oracle.associativity(inst.g),
        "compat": lambda: oracle.brace_compat(inst.star, inst.g),
        "action.law": lambda: oracle.action_law(inst.g, inst.act),
        "coupling": lambda: oracle.coupling(inst.n, inst.act),
        "plus.assoc": lambda: oracle.plus_assoc(inst.plus),
        "relation": lambda: oracle.semibrace_relation(inst.g, inst.plus),
        "braid": lambda: oracle.braid(inst.left, inst.right),
    }[law]()


def break_law(inst: Instance, law: str, rng: np.random.Generator) -> Instance:
    """One seeded corruption aimed at `law`; it may, rarely, leave the law intact.

    associativity: an intercalate swap in G.  compat: relabel the dot group
    by a transposition.  action.law: a swap in an action row, off column 0
    so the action stays transitive.  coupling: relabel N by a
    transposition.  plus.assoc: a swap in a + row.  relation: relabel + by
    a transposition.  braid: a swap in a row of the left table.
    """
    if law == "associativity":
        return replace(inst, g=_intercalate_swap(rng, inst.g))
    if law in ("compat", "coupling", "relation"):
        field = {"compat": "g", "coupling": "n", "relation": "plus"}[law]
        table = getattr(inst, field)
        s = _transposition(rng, table.shape[0])
        return replace(inst, **{field: _relabel(table, s, s, s)})
    field = {"action.law": "act", "plus.assoc": "plus", "braid": "left"}[law]
    return replace(inst, **{field: _swap_in_row(rng, getattr(inst, field),
                                                avoid_first_column=law == "action.law")})


def corrupt(inst: Instance, kind: str, seed: int) -> tuple[Instance, Rejection]:
    """Break the deep law of `kind` (see DEEP_LAWS) at a seeded place.

    Draws again until the oracle finds the law broken.
    """
    law = DEEP_LAWS[kind][BASE_ORDERS.index(inst.order)]
    rng = np.random.default_rng([seed, inst.order, KINDS.index(kind), 1])
    while True:
        bad = break_law(inst, law, rng)
        witness = law_witness(bad, law)
        if witness is not None:
            return bad, Rejection(step_name(law), witness)
