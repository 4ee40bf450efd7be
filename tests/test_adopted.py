"""Every array a caller hands the library enters through `checks.adopted`.

An array whose int32 copy would change an entry is refused with ValueError
by every constructor, report and writer that takes it; an array whose copy
is exact (bool, integral floats) gives the same result as that int32 copy.
"""

import numpy as np
import pytest

from ybelab.braces import SkewBrace, abelian_map_brace, verify_skew_brace
from ybelab.bracoids import verify_bracoid
from ybelab.checks import Report, adopted, group_table_checks, is_frozen
from ybelab.files import write_action
from ybelab.groups import FiniteGroup, cyclic_group, semidirect_product
from ybelab.semibraces import verify_semibrace
from ybelab.ybe import SolutionMap, restrict_solution

C3, C2 = cyclic_group(3), cyclic_group(2)
ALPHA = np.array([[0, 1, 2], [0, 2, 1]], dtype=np.int32)
S3 = semidirect_product(C3, C2, ALPHA)
G = S3.table
RIGHT_ZERO = np.tile(np.arange(6, dtype=np.int32), (6, 1))      # x + y = y
FLIP = SolutionMap(RIGHT_ZERO, RIGHT_ZERO.T)                     # r(x, y) = (y, x)

# name -> (call, its int32 arguments); every call accepts its arguments.
CALLS = {
    "FiniteGroup": (FiniteGroup, (G,)),
    "group_table_checks": (group_table_checks, (G,)),
    "verify_skew_brace": (verify_skew_brace, (G, G)),
    "verify_bracoid": (verify_bracoid, (G, G, G)),
    "verify_semibrace": (verify_semibrace, (G, RIGHT_ZERO)),
    "SolutionMap": (SolutionMap, (RIGHT_ZERO, RIGHT_ZERO.T.copy())),
    "semidirect_product": (lambda alpha: semidirect_product(C3, C2, alpha), (ALPHA,)),
    "abelian_map_brace": (lambda psi: abelian_map_brace(S3, psi),
                          (np.arange(6, dtype=np.int32) % 2,)),
    "restrict_solution": (lambda subset: restrict_solution(FLIP, subset),
                          (np.array([0, 2, 5], dtype=np.int32),)),
    "write_action": (write_action, (G,)),
}
ARGUMENTS = [(name, k) for name, (_, args) in CALLS.items() for k in range(len(args))]


def lossy(arr: np.ndarray, kind: str) -> np.ndarray:
    """arr with its last entry changed so that the int32 copy wraps or
    truncates it back to arr: the old conversion accepted each silently."""
    if kind == "float":
        out = arr.astype(np.float64)
        out.flat[-1] += 0.5
    elif kind == "int64":
        out = arr.astype(np.int64)
        out.flat[-1] += 2**32
    else:                                   # a Python int beyond int64 in an object array
        out = arr.astype(object)
        out.flat[-1] += 2**64
    return out


def seen(value):
    """What a call returned, in a form two results compare by."""
    if isinstance(value, FiniteGroup):
        return value.table.tolist()
    if isinstance(value, SkewBrace):
        return seen(value.star), seen(value.dot)
    if isinstance(value, SolutionMap):
        return value.left.tolist(), value.right.tolist(), value.provenance
    if isinstance(value, Report):
        return value.checks
    return value if isinstance(value, str) else tuple(value)


def outcome(call, args):
    try:
        return seen(call(*args))
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def with_arg(args, k, arr):
    return tuple(arr if i == k else a for i, a in enumerate(args))


@pytest.mark.parametrize("name, k", ARGUMENTS)
@pytest.mark.parametrize("kind", ["float", "int64", "object"])
def test_a_lossy_array_is_refused_by_every_door(name, k, kind):
    call, args = CALLS[name]
    accepted = call(*args)
    assert not isinstance(accepted, Report) or accepted.ok
    bad = lossy(args[k], kind)
    with pytest.raises(ValueError, match="is not an int32|are not numbers"):
        call(*with_arg(args, k, bad))


@pytest.mark.parametrize("name, k", ARGUMENTS)
@pytest.mark.parametrize("dtype", [bool, np.float64, np.float32, np.int64, np.uint8])
def test_a_lossless_array_gives_the_result_of_its_int32_copy(name, k, dtype):
    call, args = CALLS[name]
    arr = args[k].astype(dtype)
    assert outcome(call, with_arg(args, k, arr)) == \
        outcome(call, with_arg(args, k, arr.astype(np.int32)))


def test_adopted_names_the_first_lost_entry_and_keeps_frozen_tables():
    with pytest.raises(ValueError, match=r"table entry 4294967297 at \(0, 0\) is not an int32"):
        adopted(np.array([[2**32 + 1, 0]]))
    with pytest.raises(ValueError, match=r"table entry 1.4 at \(0, 1\) is not an int32"):
        adopted([[0, 1.4], [1, 0.2]])
    with pytest.raises(ValueError, match=r"table entry nan at \(1,\) is not an int32"):
        adopted([0.0, float("nan")])
    with pytest.raises(ValueError, match="dtype object are not numbers"):
        adopted([[0, 2**70]])
    assert adopted(S3) is G and adopted(G) is G
    copy = adopted([[True, False]])
    assert is_frozen(copy) and copy.dtype == np.int32 and copy.tolist() == [[1, 0]]
