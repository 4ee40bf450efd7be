"""The immutable record base, the pass/fail report records shared by the
structure verifiers, `frozen`, the one way a table is made immutable, the
memo that proves each distinct table once per process (a large one once
per frozen table object), the two proof shapes, the action law and the
rows law, proved on generators once for every law stated in them, and
`_first_triple`, the one scan that names a law's first failing triple."""

from __future__ import annotations

import functools
import weakref

import numpy as np


class AxiomViolated(ValueError):
    """Raised when tables offered as a verified structure break a defining law."""


_set = object.__setattr__          # past Record.__setattr__, which refuses every assignment


class Record:
    """An immutable record whose fields are the `__slots__` of the nearest
    class that declares some, in order, kept as `_field_names`.

    Each record class sets its fields once, in its own `__init__`, through
    `_fill`; a subclass with `__slots__ = ()` only adds methods.  Records of
    one class are equal when their fields are, and hash by them, so every
    field is hashable: no record holds an array or a dict.  These are
    plain classes, not dataclasses, because a dataclass generates and
    compiles its methods at import, about 1 ms a class in every process.
    """

    __slots__ = ()
    _field_names: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._field_names = cls.__dict__.get("__slots__") or cls._field_names

    def _fill(self, *values) -> None:
        for name, value in zip(self._field_names, values, strict=True):
            _set(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self._field_names)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._field_names, self._fields()))
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    __delattr__ = __setattr__


class Check(Record):
    """One verified axiom: name, outcome, and the first counterexample if any."""

    __slots__ = ("name", "ok", "witness", "detail")

    def __init__(self, name: str, ok: bool, witness: tuple[int, ...] = (), detail: str = ""):
        self._fill(name, ok, witness, detail)

    def describe(self) -> str:
        if self.ok:
            return f"{self.name} PASS"
        parts = [f"{self.name} FAIL"]
        if self.witness:
            parts.append("at " + ",".join(str(w) for w in self.witness))
        if self.detail:
            parts.append(self.detail)
        return " ".join(parts)


class Report(Record):
    __slots__ = ("checks",)

    def __init__(self, checks: tuple[Check, ...] = ()):
        self._fill(checks)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.ok]

    def first_failure(self) -> Check | None:
        bad = self.failures()
        return bad[0] if bad else None

    def __getitem__(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def refuse(checks, lead="", default=AxiomViolated, errors=None) -> None:
    """Raise errors.get(name, default)(lead + describe()) for the first failing
    check, read in order and no further: every constructor's one refusal."""
    for check in checks:
        if not check.ok:
            raise (errors or {}).get(check.name, default)(lead + check.describe())


# A memoised call is keyed by the exact bytes of a table of at most this
# many entries.  A larger table is keyed by its identity, and only when it
# is a view that `frozen` made, whose contents cannot change while it
# lives; any other large table runs its kernel unmemoised.  So a large
# table is never hashed, copied or compared, and one proved once, as the
# 1344^2 table of Hol(C2^3) in `suite full`, leaves nothing behind.
MEMO_MAX_ENTRIES = 64 * 64
# Each kernel keeps its latest this many keys, so a long-lived process does
# not grow without end.  `suite full --seed 7` stores at most 320 per kernel;
# a small key holds at most two int32 tables of 64^2 entries, 32 KB.
MEMO_MAX_KEYS = 1024

# The views that `frozen` made, by id, while they live.
_FROZEN: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def frozen(arr: np.ndarray) -> np.ndarray:
    """A read-only view of arr that numpy refuses to make writable again.

    arr, copied first when it does not own its memory, is set read-only,
    and a fresh view of it is returned and recorded.  The caller hands arr
    over and keeps no writable view of it.  This is the one place a table
    is frozen.
    """
    if not arr.flags.owndata:
        arr = arr.copy()
    arr.setflags(write=False)
    view = arr.view()
    _FROZEN[id(view)] = view
    return view


def frozen_transpose(table: np.ndarray) -> np.ndarray:
    """The transpose of a table that `frozen` made, as a view recorded as frozen.

    The view shares the table's memory, which numpy refuses to make
    writable through any view of it, so its contents cannot change while it
    lives either: it is memoised by identity like the table, at no copy.
    """
    if not is_frozen(table):
        raise ValueError("only a table that frozen made has a frozen transpose")
    view = table.T
    _FROZEN[id(view)] = view
    return view


def is_frozen(value) -> bool:
    """True iff value is a view that `frozen` made."""
    return _FROZEN.get(id(value)) is value


def adopted(table) -> np.ndarray:
    """The one conversion of a caller's array, or of a group's or action's `.table`:
    table itself when it is a C-contiguous int32 view that `frozen` made, else
    a frozen C-contiguous int32 copy, which no later write to table reaches.

    A copy that would change an entry (1.5, NaN, 2**32) is refused with a
    ValueError naming the first one, as is a dtype other than bool, integer
    or float (an int beyond int64 makes an object array).
    """
    table = getattr(table, "table", table)
    if is_frozen(table) and table.dtype == np.int32 and table.flags.c_contiguous:
        return table
    arr = np.asarray(table)
    if arr.dtype.kind not in "biuf":
        raise ValueError(f"table entries of dtype {arr.dtype} are not numbers")
    with np.errstate(invalid="ignore"):         # a NaN or out-of-range float is refused below
        out = np.array(arr, dtype=np.int32, order="C")
    if arr.dtype != np.int32 and (lost := out != arr).any():
        k = int(np.argmax(lost))
        at = tuple(map(int, np.unravel_index(k, arr.shape)))
        raise ValueError(f"table entry {arr.flat[k].item()!r} at {at} is not an int32")
    return frozen(out)


def _content(value):
    """The key part of one argument, or None if it is not memoised.

    A numeric array is its dtype, shape and bytes, or for a table above
    MEMO_MAX_ENTRIES that `frozen` made, ("id", its id).  Scalars are their
    type and value.
    """
    if isinstance(value, np.ndarray):
        if value.dtype.kind not in "biu":
            return None
        if value.size <= MEMO_MAX_ENTRIES:
            return value.dtype.str, value.shape, value.tobytes()
        return ("id", id(value)) if is_frozen(value) else None
    if value is None or isinstance(value, (bool, int, str)):
        return type(value).__name__, value
    return None


def by_content(kernel):
    """Memoise a pure law kernel on the exact contents of its positional arguments.

    The kernel must read nothing but its arguments, so its result is a
    function of their contents.  Every caller shares that result, so a
    kernel returns tuples and read-only tables; a kernel that raises stores
    nothing.  `memo` maps each key to (result, weak references to its large
    tables), oldest first, and drops the oldest beyond MEMO_MAX_KEYS.
    A hit needs each reference to be alive: a live table is the one object
    with its id, so an id reused by another table is a miss.  The entry
    leaves when one of its large tables dies, as no later call can name it.
    """
    memo: dict = {}

    @functools.wraps(kernel)
    def memoised(*args):
        run = memoised.__wrapped__          # looked up per call, so a test can count runs
        key = tuple(map(_content, args))
        if None in key:
            return run(*args)
        entry = memo.get(key)
        if entry is not None and (not entry[1] or all(ref() is not None for ref in entry[1])):
            result = entry[0]
        else:
            result = run(*args)
            memo[key] = (result, tuple(weakref.ref(value, lambda _, key=key: memo.pop(key, None))
                                       for value, part in zip(args, key) if part[0] == "id"))
            if len(memo) > MEMO_MAX_KEYS:
                del memo[next(iter(memo))]
        return result

    memoised.memo = memo
    return memoised


# The Latin, inverse and action-law scans read a table in blocks of whole rows
# holding at most this many entries (one row when a row is longer), so their
# scratch is O(n + BLOCK_ENTRIES) for an n x n table instead of a table's worth.
BLOCK_ENTRIES = 1 << 16


def _row_blocks(arr: np.ndarray):
    """(start, rows) for consecutive blocks of whole rows of arr, first to last."""
    step = max(1, BLOCK_ENTRIES // max(1, arr.shape[1]))
    for r in range(0, arr.shape[0], step):
        yield r, arr[r:r + step]


def _first_bad_row(arr: np.ndarray) -> int | None:
    """Index of the first row of arr that is not a permutation of 0..m-1, or None.

    m is the row length; entries may be any integers.  Rows are sorted one
    block at a time, so the scan stops in the first block that fails.
    """
    idx = np.arange(arr.shape[1])
    for r, rows in _row_blocks(arr):
        ok = (np.sort(rows, axis=1) == idx).all(axis=1)
        if not ok.all():
            return r + int(np.argmin(ok))
    return None


def _right_inverses(arr: np.ndarray) -> np.ndarray:
    """For each row a, the first b with arr[a, b] == 0 (0 if there is none), as int32."""
    out = np.empty(arr.shape[0], dtype=np.int32)
    for r, rows in _row_blocks(arr):
        out[r:r + len(rows)] = np.argmax(rows == 0, axis=1)
    return out


def group_table_checks(table, prefix: str = "") -> list[Check]:
    """Axiom checks for a raw multiplication table with identity expected at 0.

    The checks of _group_proof on `adopted(table)`, associativity included,
    each name led by prefix.
    """
    checks, _ = _group_proof(adopted(table), True)
    if not prefix:
        return list(checks)
    return [Check(prefix + c.name, c.ok, c.witness, c.detail) for c in checks]


@by_content
def _group_proof(arr, check_assoc: bool) -> tuple[tuple[Check, ...], np.ndarray | None]:
    """(checks, inv) for a raw multiplication table with identity expected at 0.

    The checks are latin / identity / associativity / inverses in that
    order, and inv is the read-only int32 table of each row's first right
    inverse (_right_inverses), or None for a table that is not square, is
    empty or has an entry out of range.  If the entries are not all in
    0..n-1 the dependent checks are reported as failed without being
    evaluated.  check_assoc False, which only `FiniteGroup(trusted=True)`
    asks for, reports associativity as passed with detail `skipped`.  A
    0 x 0 table is square, and vacuously Latin, associative and closed
    under inverses; what it lacks is an identity.

    Identity, associativity and inverses are decided first.  When all three
    pass and associativity was proved, the table is a group, so it is a
    Latin square and latin passes with no scan: left multiplication by a has
    the inverse x -> a^-1 * x, since a^-1 * (a * x) = (a^-1 * a) * x = x and
    a * (a^-1 * x) = x, so row a is a permutation, and column b likewise
    (Clifford-Preston, The Algebraic Theory of Semigroups I, 1961, 1.1).
    Otherwise the rows, then the columns, are scanned for the witness.

    Witnesses are found in this order: the first out-of-range entry in
    row-major order; else the first row, then the first column, that is not
    a permutation; the identity (0 if row 0 and column 0 are the identity
    map, else find_identity's index, or none); the first failing
    associativity triple; the first a without a right inverse, then the
    first whose first right inverse is not a left inverse.  Apart from
    associativity, which is Light's test (_assoc_failure), the scratch
    memory is O(n + BLOCK_ENTRIES) beside the table: the range is its min
    and max, and rows, columns and inverses are scanned in row blocks of at
    most BLOCK_ENTRIES entries.  Only a failing range or identity check
    builds an n x n mask, to name its witness.
    """
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        bad = Check("latin", False, (), f"table shape {arr.shape} is not square")
        return (bad, *(Check(nm, False, (), "not evaluated: malformed table")
                       for nm in ("identity", "associativity", "inverses"))), None
    n = arr.shape[0]
    assoc = Check("associativity", True, (), "" if check_assoc else "skipped")
    if n == 0:
        return (Check("latin", True), Check("identity", False, (), "no two-sided identity"),
                assoc, Check("inverses", True)), None
    if not (arr.min() >= 0 and arr.max() < n):
        r, c = map(int, np.argwhere((arr < 0) | (arr >= n))[0])
        return (Check("latin", False, (r, c), f"entry {int(arr[r, c])} out of range"),
                *(Check(nm, False, (), "not evaluated: entries out of range")
                  for nm in ("identity", "associativity", "inverses"))), None
    idx = np.arange(n)

    # find_identity returns the least two-sided identity, so it is 0 exactly
    # when row 0 and column 0 are the identity map, which takes O(n) to see.
    zero_is_unit = np.array_equal(arr[0], idx) and np.array_equal(arr[:, 0], idx)
    e = 0 if zero_is_unit else find_identity(arr)
    if e is None:
        identity = Check("identity", False, (), "no two-sided identity")
    elif e != 0:
        identity = Check("identity", False, (e,), f"identity at index {e}, not 0")
    else:
        identity = Check("identity", True)

    if check_assoc:
        witness = _assoc_failure(arr)
        assoc = Check("associativity", witness is None, witness or ())

    rinv = frozen(_right_inverses(arr))
    has_right = arr[idx, rinv] == 0
    if not has_right.all():
        a = int(np.argmin(has_right))
        inverses = Check("inverses", False, (a,), "no right inverse")
    else:
        two_sided = arr[rinv, idx] == 0
        if two_sided.all():
            inverses = Check("inverses", True)
        else:
            a = int(np.argmin(two_sided))
            inverses = Check("inverses", False, (a,), "right inverse is not left inverse")

    if check_assoc and identity.ok and assoc.ok and inverses.ok:
        latin = Check("latin", True)
    elif (r := _first_bad_row(arr)) is not None:
        latin = Check("latin", False, (r,), f"row {r} is not a permutation")
    elif (c := _first_bad_row(arr.T)) is not None:
        latin = Check("latin", False, (c,), f"column {c} is not a permutation")
    else:
        latin = Check("latin", True)
    return (latin, identity, assoc, inverses), rinv


def closure(table: np.ndarray, gens, cap: int | None = None,
            prior: list[int] | None = None) -> list[int] | None:
    """The least set holding 0 and gens that right multiplication by gens
    keeps, as a list; None once it has more than cap elements.

    table is square with entries in 0..n-1; for a group the set is <gens>.
    The generators join in order.  Each joins by a pass over the elements
    reached so far, and an element reached later is multiplied by every
    generator joined, so each element meets each generator once.  The list
    for gens therefore extends the list for gens[:-1], which is `prior`
    when given: the walk starts from it and joins only gens[-1].
    """
    gens = [int(g) for g in gens]
    mul = table.item
    out = [0] if prior is None else list(prior)
    seen = bytearray(table.shape[0])
    for a in out:
        seen[a] = 1
    for j in range(0 if prior is None else len(gens) - 1, len(gens)):
        g, joined, fresh = gens[j], gens[:j + 1], len(out)
        for b in [g] + [mul(a, g) for a in out]:
            if not seen[b]:
                seen[b] = 1
                out.append(b)
        while fresh < len(out):
            if cap is not None and len(out) > cap:
                return None
            a = out[fresh]
            fresh += 1
            for h in joined:
                b = mul(a, h)
                if not seen[b]:
                    seen[b] = 1
                    out.append(b)
    return out if cap is None or len(out) <= cap else None


def map_closure(maps: np.ndarray, cap: int) -> tuple[np.ndarray, list[np.ndarray]] | None:
    """(members, kept) of the monoid of maps of 0..m-1 that the rows of maps
    generate under composition, or None once it has more than cap members.

    members holds each member once as a row, the identity first; kept holds
    the rows of maps not yet members when their turn came, which generate the
    same monoid.  As in `closure`, each member meets each kept row once.  For
    permutations the monoid is a group, and each kept row at least doubles
    it, so at most log2(cap) + 1 rows are kept.
    """
    maps = np.ascontiguousarray(maps)
    m, width = maps.shape[1], maps.itemsize * maps.shape[1]
    members = [np.arange(m, dtype=maps.dtype).tobytes()]      # each as its row bytes
    seen, kept = set(members), []
    for g in maps:
        if g.tobytes() in seen:
            continue
        kept.append(g)
        batch, joined = members, [g]                            # the old members meet g only
        while batch:
            block, fresh = np.frombuffer(b"".join(batch), maps.dtype).reshape(-1, m), []
            for gen in joined:
                raw = block[:, gen].tobytes()                   # the rows a o gen
                for key in (raw[i:i + width] for i in range(0, len(raw), width)):
                    if key not in seen:
                        seen.add(key)
                        fresh.append(key)
            members += fresh
            if len(members) > cap:
                return None
            batch, joined = fresh, kept
    return np.frombuffer(b"".join(members), maps.dtype).reshape(len(members), m), kept


@by_content
def generators(table) -> tuple[int, ...]:
    """Greedy generating list of a square table with entries in 0..n-1.

    Each pick is the least index outside the closure of the earlier picks,
    so the closure of the list is all of 0..n-1.  For a group the list
    generates it as a monoid.
    """
    arr = np.asarray(table)
    gens: list[int] = []
    reached, g = [0], 0
    while len(reached) < arr.shape[0]:
        seen = set(reached)
        while g in seen:                    # every index below the last pick is reached
            g += 1
        gens.append(g)
        reached = closure(arr, gens, prior=reached)
    return tuple(gens)


# --- the two proof shapes, and the one witness scan ---
#
# A law proved on generators is stated in one of two shapes over tables
# whose entries are in 0..n-1:
#   the action law  act[g*h] = act[g] o act[h]        (x -> act[x] is an action),
#   the rows law    F[x, a*b] = F[x, a] * F[x, b]     (each row F_x is an endomorphism).
# Each shape's reduction to generators is proved once, below.  A law module
# proves its law as one of the two, or derives it from laws that are (the
# displacement product rule follows from rho-compose and the product law).
# Each triple law is also stated once, in its own form, as a module-level
# `*_fails(*tables, x, y, z)` in plain numpy indexing: a bool at one triple,
# and the mask of an x-slice when y and z are broadcast.  When a proof does
# not pass, _first_triple reads that statement slice by slice, so every
# witness is the first triple at which the law itself breaks.


def _first_triple(fails, tables, shape) -> tuple[int, int, int] | None:
    """First (x, y, z) in x-major order with fails(*tables, x, y, z) true, or None.

    x, y and z run over range(shape[0]), range(shape[1]) and range(shape[2]).
    The statement is evaluated on one x-slice at a time, y and z broadcast
    to its (y, z) grid, so the scan stops at the first slice that fails.
    """
    nx, ny, nz = shape
    y, z = np.arange(ny)[:, None], np.arange(nz)
    for x in range(nx):
        bad = fails(*tables, x, y, z)
        if bad.any():
            y0, z0 = map(int, np.argwhere(bad)[0])
            return x, y0, z0
    return None


def _action_law_fails(gt, act, g, h, p):
    """(g*h).p != g.(h.p): the action law, and with act = gt associativity."""
    return act[gt[g, h], p] != act[g, act[h, p]]


@by_content
def _action_law_holds(gt: np.ndarray, act: np.ndarray) -> bool:
    """True iff (g*h).p = g.(h.p) for all g, h, p, tested on h in 0 and generators(gt).

    gt must be an associative table; act[0] need not be the identity map.
    Let T be the set of h with act[g*h] = act[g] o act[h] for every g.  If
    h, k are in T then so is h*k:  act[g*(h*k)] = act[(g*h)*k]
    = act[g*h] o act[k] = act[g] o act[h] o act[k] = act[g] o act[h*k], the
    last step being k in T at g = h.  So T holds the closure of 0 and the
    generators, which is all of G.  When gt[:, 0] and act[0] are both
    identity maps, 0 is in T with no test: act[g*0] = act[g] = act[g] o act[0].
    """
    zero_is_unit = (np.array_equal(gt[:, 0], np.arange(gt.shape[0]))
                    and np.array_equal(act[0], np.arange(act.shape[1])))
    hs = generators(gt) if zero_is_unit else [0, *generators(gt)]
    return all(np.array_equal(act[gt[r:r + len(rows), h]], rows[:, act[h]])
               for h in hs for r, rows in _row_blocks(act))


def _action_law_failure(gt: np.ndarray, act: np.ndarray) -> tuple[int, int, int] | None:
    """First (g, h, p) with (g*h).p != g.(h.p), or None."""
    if _action_law_holds(gt, act):
        return None
    return _first_triple(_action_law_fails, (gt, act), (*gt.shape, act.shape[1]))


def _assoc_failure(table: np.ndarray) -> tuple[int, int, int] | None:
    """First (a, b, c) with (a*b)*c != a*(b*c), or None; table entries in 0..n-1.

    Associativity is the action law of the table on itself, act = table, so
    this is _action_law_failure(table, table), whose test is Light's: the
    middle element needs to range only over 0 and generators(table).  Here
    the closure step needs no associativity.  Let T be the set of t with
    (x*t)*y = x*(t*y) for all x, y.  If s, t are in T then so is s*t:
        (x*(s*t))*y = ((x*s)*t)*y = (x*s)*(t*y) = x*(s*(t*y)) = x*((s*t)*y),
    using s in T, then t, then s, then t (at x = s).  So T is closed under
    the product; holding 0 and the generators, it holds their closure,
    which is every element.  No identity or inverse is assumed.
    """
    return _action_law_failure(table, table)


@by_content
def _rows_law_holds(nt: np.ndarray, F: np.ndarray) -> bool:
    """True iff F[x, a*b] = F[x, a] * F[x, b] for all x, a, b, tested on b in generators(nt).

    nt must be a group table.  Fix x and let T be the set of b with
    F_x(a*b) = F_x(a) * F_x(b) for every a.  If b, c are in T then so is
    b*c, by associativity of *:
        F_x(a*(b*c)) = F_x((a*b)*c) = F_x(a*b) * F_x(c)
                     = F_x(a) * F_x(b) * F_x(c) = F_x(a) * F_x(b*c),
    the last step being c in T at a = b.  So T holds every product of
    generators.  In a finite group those products are the subgroup the
    generators make (g^-1 is a power of g), which is all of it; when the
    group is trivial the one triple is F_x(0) = 0 = 0 * 0.
    """
    return all(np.array_equal(F[:, nt[:, g]], nt[F, F[:, g][:, None]])
               for g in generators(nt))


@by_content
def _first_repeat(table: np.ndarray) -> tuple[int, int, int] | None:
    """(x, a, b) for the first row x that is not a permutation of 0..n-1, or None.

    Entries are in 0..n-1, so such a row repeats a value; a < b are the
    first two positions of the least value it repeats.
    """
    x = _first_bad_row(table)
    if x is None:
        return None
    order = np.argsort(table[x], kind="stable")
    k = int(np.nonzero(table[x][order][1:] == table[x][order][:-1])[0][0])
    return x, int(order[k]), int(order[k + 1])


def _first_true(mask: np.ndarray) -> tuple[int, ...]:
    """The index of the first True entry of mask in row-major order, or ()."""
    hits = np.argwhere(mask)
    return tuple(map(int, hits[0])) if len(hits) else ()


def _distinct(indices: np.ndarray, n: int) -> np.ndarray:
    """The distinct entries of an array of indices in 0..n-1, ascending.

    This is np.unique(indices), which, asked for no indices or counts, imports
    numpy.ma to look for a mask: about 10 ms in each process that calls it.
    """
    return np.flatnonzero(np.bincount(indices.ravel(), minlength=n))


def find_identity(table) -> int | None:
    """Index of the two-sided identity of a raw table, or None."""
    arr = np.asarray(table)
    n = arr.shape[0]
    idx = np.arange(n)
    rows = (arr == idx).all(axis=1)
    cols = (arr == idx[:, None]).all(axis=0)
    both = np.nonzero(rows & cols)[0]
    return int(both[0]) if both.size else None
