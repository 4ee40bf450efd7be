"""Sweep every catalog family over every legal parameter up to an order bound.

    PYTHONPATH=src python tests/sweep_catalog.py --max-order 256

The families are trivial-brace on C_n and on the metacyclic C_p x| C_q,
semidirect, abelianmap and cyclic-pq, each at every legal parameter whose
acting group G has order at most --max-order (cyclic-pq also needs
pq <= CYCLIC_PQ_MAX_N).  gl3f2 has no parameter and is left out.  Each
instance is held to the closed forms of (|G|, |N|, |S|, |H|), where S is
the point stabilizer and H its complement, or None when there is none;
when there is one, to both round trips between the contained brace and
its semibrace, and to both solutions derived from the bracoid, which
their constructors prove.  The script prints one line per mismatch and a
summary, and exits 1 if there was a mismatch.  pytest does not collect
it; `test_catalog.py` runs the sweep up to order 64.
"""

from __future__ import annotations

import argparse
import sys
import time

from ybelab.catalog import CYCLIC_PQ_MAX_N, build_example
from ybelab.groups import is_prime
from ybelab.semibraces import bracoid_to_semibrace, roundtrip_check
from ybelab.ybe import solution_from_bracoid, tilde_solution_from_bracoid


def cases(max_order: int) -> list[tuple[str, tuple[int, ...]]]:
    """(family, params) for every legal parameter with |G| <= max_order."""
    primes = [p for p in range(2, max_order + 1) if is_prime(p)]
    # q | p - 1 for primes p, q: C_p x| C_q with an order-q twist.
    split = [(p, q) for p in primes for q in primes if (p - 1) % q == 0 and p * q <= max_order]
    odd = [p for p in primes if p > 2]
    return [*(("trivial-brace", (n,)) for n in range(2, max_order + 1)),
            *(("trivial-brace", pq) for pq in split),
            *(("semidirect", pq) for pq in split),
            *(("abelianmap", (p, q)) for p in odd for q in odd
              if p != q and 4 * p * q <= max_order),
            *(("cyclic-pq", (p, q)) for p in primes for q in primes
              if (p - 1) % (q * q) == 0 and p * q <= CYCLIC_PQ_MAX_N
              and p * q * q <= max_order)]


def closed_form(family: str, params: tuple[int, ...]) -> tuple[int, int, int, int | None]:
    """(|G|, |N|, |S|, |H|) of the instance, |H| None when S has no complement."""
    if family == "trivial-brace":
        n = params[0] if len(params) == 1 else params[0] * params[1]
        return n, n, 1, n
    p, q = params
    return {"semidirect": (p * q, p, q, p),
            "abelianmap": (4 * p * q, 2 * q, 2 * p, 2 * q),
            "cyclic-pq": (p * q * q, p * q, q, None)}[family]


def mismatches(family: str, params: tuple[int, ...]) -> list[str]:
    """What the instance gets wrong, each as one line; empty when it is right."""
    inst = build_example(family, params)
    bc, cb = inst.bracoid, inst.contained
    label = f"{family} {' '.join(map(str, params))}"
    orders = (bc.G.order, bc.N.order, bc.S.order, None if cb is None else cb.H.order)
    wrong = []
    if orders != closed_form(family, params):
        wrong.append(f"{label}: (|G|, |N|, |S|, |H|) = {orders}, "
                     f"expected {closed_form(family, params)}")
    if cb is None:
        return wrong
    if not roundtrip_check(cb):
        wrong.append(f"{label}: contained brace -> semibrace -> contained brace differs")
    if not roundtrip_check(bracoid_to_semibrace(cb)):
        wrong.append(f"{label}: semibrace -> contained brace -> semibrace differs")
    for derive in (solution_from_bracoid, tilde_solution_from_bracoid):
        if derive(cb).size != bc.G.order:
            wrong.append(f"{label}: {derive.__name__} is not on G")
    return wrong


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-order", type=int, default=64,
                        help="largest |G| to sweep (default 64)")
    args = parser.parse_args(argv)
    todo = cases(args.max_order)
    t0 = time.perf_counter()
    wrong = [line for family, params in todo for line in mismatches(family, params)]
    for line in wrong:
        print(line)
    print(f"{len(todo)} instances with |G| <= {args.max_order}, {len(wrong)} mismatches, "
          f"{time.perf_counter() - t0:.2f} s")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
