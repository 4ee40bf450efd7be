"""The derived solutions against theorems of the literature.

- r_B is involutive exactly when (B, *) is abelian (Smoktunowicz-Vendramin,
  J. Comb. Algebra 2, 2018).
- r_{B^op} o r_B is the identity, where B^op = (B, *^op, .) has
  x *^op y = y * x (Koch-Truman, J. Algebra 546, 2020).
- The bracoid solution of a contained brace B is closed on H, and there it
  is r_{B^op} = r_B^-1.

The braces are the catalog's stock pool, seeded relabellings of it and the
opposite of each; each test needs at least six with a non-abelian (B, *),
so the theorems are not checked on abelian stars alone, where r_B = r_B^-1.
"""

import random
from functools import cache

import numpy as np

from ybelab.braces import SkewBrace, brace_solution
from ybelab.catalog import _brace_pool, promote_brace, seeded_braces
from ybelab.groups import FiniteGroup
from ybelab.ybe import SolutionMap, restrict_solution, solution_from_bracoid, solutions_equal


def opposite(B: SkewBrace) -> SkewBrace:
    return SkewBrace(FiniteGroup(B.star.table.T), B.dot)


def abelian_star(B: SkewBrace) -> bool:
    return bool(np.array_equal(B.star.table, B.star.table.T))


@cache
def stock_pool() -> tuple[SkewBrace, ...]:
    """The braces that catalog.seeded_braces relabels."""
    return tuple(_brace_pool())


@cache
def braces() -> tuple[SkewBrace, ...]:
    """The stock pool, 40 seeded relabellings, and the opposite of each."""
    base = [*stock_pool(), *seeded_braces(random.Random(20261020), 40)]
    return (*base, *map(opposite, base))


def composed(s: SolutionMap, r: SolutionMap) -> tuple[np.ndarray, np.ndarray]:
    """The tables of s o r."""
    return s.left[r.left, r.right], s.right[r.left, r.right]


def is_identity(tables) -> bool:
    grid_x, grid_y = np.indices(tables[0].shape)
    return bool(np.array_equal(tables[0], grid_x) and np.array_equal(tables[1], grid_y))


def test_brace_solution_is_involutive_exactly_when_the_star_group_is_abelian():
    assert len(braces()) == 140
    assert sum(not abelian_star(B) for B in braces()) >= 6
    for B in braces():
        r = brace_solution(B)
        assert r.report["involutive"].ok == abelian_star(B)
        assert r.report["involutive"].ok == is_identity(composed(r, r))


def test_opposite_brace_solution_inverts_the_brace_solution():
    assert sum(not abelian_star(B) for B in braces()) >= 6
    for B in braces():
        r, r_op = brace_solution(B), brace_solution(opposite(B))
        assert is_identity(composed(r_op, r)) and is_identity(composed(r, r_op))


def test_bracoid_solution_on_h_is_the_inverse_brace_solution(catalog):
    """On the acceptance contained braces and on the stock pool promoted, with
    the opposite of each: r restricted to H is r_{B^op}, and equals r_B
    exactly when (B, *) is abelian."""
    contained = [inst.contained for inst in catalog if inst.contained is not None]
    assert len(contained) == 9
    stock = stock_pool()
    contained += [promote_brace(B) for B in (*stock, *map(opposite, stock))]
    assert sum(not abelian_star(cb.brace) for cb in contained) >= 6
    for cb in contained:
        on_h = restrict_solution(solution_from_bracoid(cb), cb.H.elements)
        assert isinstance(on_h, SolutionMap)
        r = brace_solution(cb.brace)
        assert solutions_equal(on_h, brace_solution(opposite(cb.brace)))
        assert is_identity(composed(on_h, r))
        assert solutions_equal(on_h, r) == abelian_star(cb.brace)
