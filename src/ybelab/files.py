"""Plain-text serialization for every structure in the package.

All formats are line-oriented, 0-based decimal, single spaces, every
line newline-terminated.  Writers emit canonical text; readers accept
exactly that text, so parse(print(v)) reproduces v bit for bit.

Canonical text is read in bulk, by one np.fromstring pass over the body
that is kept only when the writer gives the text back exactly; anything
else is read line by line, and that loop is the only source of ParseError.

Readers return raw tables (not verified structures) except for groups
and solutions, whose types carry no unverified laws beyond shape; the
caller decides whether to run verifiers or constructors on the rest.
Every table read is frozen (`checks.frozen`), so a constructor adopts it
without a copy and the memo proves it once.
"""

from __future__ import annotations

import math
import warnings
from itertools import accumulate
from typing import Callable

import numpy as np

from .checks import Record, _row_blocks, frozen
from .groups import FiniteGroup
from .ybe import SolutionMap


class ParseError(ValueError):
    """Malformed artifact text; carries the 1-based offending line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _table_text(arr: np.ndarray) -> str:
    """The rows of a 2-d table as single-spaced decimals, each ending in a newline."""
    if arr.size == 0:
        return "\n" * arr.shape[0]
    hi = int(arr.max())
    if arr.min() < 0 or hi > arr.size:         # no lookup list longer than the table
        return "".join(" ".join(map(str, row)) + "\n" for row in arr.tolist())
    # Each word is padded with NUL bytes to the width of the longest, and
    # the padding is dropped from the gathered bytes.  Rows are gathered in
    # blocks of at most checks.BLOCK_ENTRIES entries, so at most two copies
    # of the text are alive at once (the blocks and their join, then the join
    # and its decoding), plus one block's scratch.
    words = np.array([f"{v} " for v in range(hi + 1)] + [f"{v}\n" for v in range(hi + 1)],
                     dtype=f"S{len(str(hi)) + 1}")
    shift = np.zeros(arr.shape[1], dtype=np.intp)
    shift[-1] = hi + 1                         # the last entry of a row ends its line
    return b"".join([words[rows + shift].tobytes().replace(b"\0", b"")
                     for _, rows in _row_blocks(arr)]).decode()


class _Format(Record):
    """A file layout: 'MAGIC v1', integer counts, an optional tail, then tables.

    Tables follow the header line in order, one blank line between two.
    `counts` is the number of integers after 'MAGIC v1', `shapes` maps them
    to the table shapes, `tail` is the default header tail (None: the
    layout keeps none), and `fields` maps the values a writer takes to the
    (counts, tail, tables) it prints.
    """

    __slots__ = ("magic", "counts", "shapes", "tail", "fields")

    def __init__(self, magic: str, counts: int,
                 shapes: Callable[..., list[tuple[int, int]]], fields: Callable,
                 tail: str | None = None):
        self._fill(magic, counts, shapes, tail, fields)

    def text(self, numbers, tail: str | None, tables) -> str:
        words = [self.magic, "v1", *map(str, numbers)]
        if self.tail is not None:
            words.append(tail)
        return " ".join(words) + "\n" + "\n".join(map(_table_text, tables))


def _tables(*values) -> list[np.ndarray]:
    return [np.asarray(getattr(v, "table", v), dtype=np.int32) for v in values]


# The fields of each layout: the values its writer takes -> (counts, tail, tables).

def _group_fields(G: FiniteGroup):
    return [G.order], G.name, _tables(G)


def _action_fields(table):
    tables = _tables(table)
    return list(tables[0].shape), None, tables


def _square_fields(*values):
    tables = _tables(*values)
    return [len(tables[0])], None, tables


def _bracoid_fields(G, N, act):
    tables = _tables(G, N, act)
    return [len(tables[0]), len(tables[1])], None, tables


def _solution_fields(r: SolutionMap):
    n = r.size
    pairs = np.arange(n * n)
    rows = np.stack([pairs // n, pairs % n, r.left.ravel(), r.right.ravel()], axis=1)
    return [n], r.provenance, [rows]


_FORMATS = {
    "group": _Format("GROUP", 1, lambda n: [(n, n)], _group_fields, tail="G"),
    "action": _Format("ACTION", 2, lambda g, m: [(g, m)], _action_fields),
    "brace": _Format("BRACE", 1, lambda n: [(n, n)] * 2, _square_fields),
    "bracoid": _Format("BRACOID", 2, lambda n, m: [(n, n), (m, m), (n, m)], _bracoid_fields),
    "semibrace": _Format("SEMIBRACE", 1, lambda n: [(n, n)] * 2, _square_fields),
    # one 'x y lx ry' row per pair (x, y), in order
    "solution": _Format("YBE", 1, lambda n: [(n * n, 4)], _solution_fields,
                        tail="unspecified"),
}


def _write(kind: str, *values) -> str:
    """The canonical text of a kind file for the values its writer takes."""
    return _FORMATS[kind].text(*_FORMATS[kind].fields(*values))


def _split(text: str) -> list[str]:
    if not text.endswith("\n"):
        raise ParseError(max(1, text.count("\n") + 1), "missing final newline")
    return text.split("\n")[:-1]


def _parse_header(lines: list[str], magic: str, counts: int) -> tuple[list[int], list[str]]:
    if not lines:
        raise ParseError(1, "empty file")
    tokens = lines[0].split(" ")
    if len(tokens) < 2 + counts or tokens[0] != magic or tokens[1] != "v1":
        raise ParseError(1, f"expected '{magic} v1' header")
    try:
        numbers = [int(t) for t in tokens[2:2 + counts]]
    except ValueError as exc:
        raise ParseError(1, f"bad header count: {exc}") from exc
    return numbers, tokens[2 + counts:]


def _parse_table(lines: list[str], start: int, rows: int, cols: int) -> np.ndarray:
    if start + rows > len(lines):
        raise ParseError(len(lines), f"expected {rows} table rows")
    out = []                    # rows as read: the header counts alone allocate nothing
    for i in range(rows):
        parts = lines[start + i].split(" ")
        if len(parts) != cols:
            raise ParseError(start + i + 1,
                             f"expected {cols} entries, found {len(parts)}")
        try:
            out.append(np.array([int(p) for p in parts], dtype=np.int32))
        except (ValueError, OverflowError) as exc:
            raise ParseError(start + i + 1, f"bad integer: {exc}") from exc
    return np.array(out, dtype=np.int32).reshape(rows, cols)


def _expect_blank(lines: list[str], at: int) -> None:
    if at >= len(lines) or lines[at] != "":
        raise ParseError(at + 1, "expected blank separator line")


def _expect_end(lines: list[str], at: int) -> None:
    if at != len(lines):
        raise ParseError(at + 1, "trailing content")


def _parse(fmt: _Format, text: str) -> tuple[list[int], list[str], np.ndarray] | None:
    """The header counts, the header words after them and the body values of
    text, or None when the header or the body does not parse.

    The body is parsed in C by np.fromstring, with no Python object per
    token, and any run of whitespace separates two values.  Unmatched data
    raises ValueError in numpy 2; numpy 1.x warns with a DeprecationWarning
    and returns the values before it, so that warning is raised here and
    counts as the same refusal.
    """
    head, _, body = text.partition("\n")
    try:
        numbers, rest = _parse_header([head], fmt.magic, fmt.counts)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            values = np.fromstring(body, dtype=np.int64, sep=" ")
        return numbers, rest, values
    except (ValueError, DeprecationWarning):
        return None


def _cut(fmt: _Format, numbers: list[int], values: np.ndarray) -> list[np.ndarray] | None:
    """values cut into the tables the counts call for, or None when every
    count is not at least 1 or the sizes do not add up."""
    shapes = fmt.shapes(*numbers)
    sizes = [rows * cols for rows, cols in shapes]
    if min(numbers) < 1 or values.size != sum(sizes):
        return None
    parts = np.split(values, list(accumulate(sizes))[:-1])
    return [part.reshape(shape) for part, shape in zip(parts, shapes)]


def _bulk(fmt: _Format, text: str) -> tuple[list[np.ndarray], str | None] | None:
    """The tables and header tail of text when it is exactly fmt's canonical text, else None.

    The result is kept only when text parses, its values fill the tables
    the header calls for, and printing the int32 tables gives back text
    itself, which a value beyond int32 cannot do.  The line loop parses
    such text without error to the same tables, so this is a shortcut with
    no verdict of its own.
    """
    parsed = _parse(fmt, text)
    if parsed is None:
        return None
    numbers, rest, values = parsed
    tables = _cut(fmt, numbers, values.astype(np.int32))
    if tables is None:
        return None
    tail = " ".join(rest) if rest else fmt.tail
    return (tables, tail) if fmt.text(numbers, tail, tables) == text else None


def _line_tables(fmt: _Format, text: str) -> tuple[list[np.ndarray], str | None]:
    """The line loop: the tables and header tail of text, or the ParseError of its first bad line."""
    lines = _split(text)
    numbers, rest = _parse_header(lines, fmt.magic, fmt.counts)
    tables, at = [], 1
    for k, (rows, cols) in enumerate(fmt.shapes(*numbers)):
        if k:
            _expect_blank(lines, at)
            at += 1
        tables.append(_parse_table(lines, at, rows, cols))
        at += rows
    _expect_end(lines, at)
    return tables, " ".join(rest) if rest else fmt.tail


def _read_tables(kind: str, text: str) -> tuple[list[np.ndarray], str | None]:
    fmt = _FORMATS[kind]
    tables, tail = _bulk(fmt, text) or _line_tables(fmt, text)
    return [frozen(table) for table in tables], tail


def header_counts(kind: str, text: str) -> list[int] | None:
    """The counts on the header line of a kind file, or None when that line does not parse.

    The body is not looked at, so a caller can refuse a file on its size
    first; a None leaves the error to the reader.
    """
    fmt = _FORMATS[kind]
    try:
        return _parse_header([text.partition("\n")[0]], fmt.magic, fmt.counts)[0]
    except ParseError:
        return None


def encodes(kind: str, text: str, *values) -> bool:
    """True iff text parses to the counts, tail and tables that the kind's writer prints for values.

    Text is parsed once and never formatted again.  On text that the kind's
    writer printed for values, this is the statement text == write(read(text)),
    as the writer is an injective function of its fields.
    A file from outside is left to the reader's own write-back test.
    """
    fmt = _FORMATS[kind]
    parsed = _parse(fmt, text)
    if parsed is None:
        return False
    numbers, rest, body = parsed
    counts, tail, tables = fmt.fields(*values)
    parts = _cut(fmt, numbers, body)
    return (numbers == list(counts) and rest == ([] if fmt.tail is None else tail.split(" "))
            and parts is not None
            and all(map(np.array_equal, parts, tables)))


def write_group(G: FiniteGroup) -> str:
    return _write("group", G)


def read_group_table(text: str) -> tuple[np.ndarray, str]:
    """Raw table and name with no axiom validation; verifiers want broken input."""
    (table,), name = _read_tables("group", text)
    return table, name


def read_group(text: str) -> FiniteGroup:
    table, name = read_group_table(text)
    return FiniteGroup(table, name=name)


def write_action(table) -> str:
    return _write("action", table)


def read_action(text: str) -> np.ndarray:
    (table,), _ = _read_tables("action", text)
    return table


def write_brace(star, dot) -> str:
    return _write("brace", star, dot)


def read_brace(text: str) -> tuple[np.ndarray, np.ndarray]:
    (star, dot), _ = _read_tables("brace", text)
    return star, dot


def write_bracoid(G, N, act) -> str:
    return _write("bracoid", G, N, act)


def read_bracoid(text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    (gt, nt, at), _ = _read_tables("bracoid", text)
    return gt, nt, at


def write_semibrace(dot, plus) -> str:
    return _write("semibrace", dot, plus)


def read_semibrace(text: str) -> tuple[np.ndarray, np.ndarray]:
    (dot, plus), _ = _read_tables("semibrace", text)
    return dot, plus


def write_solution(r: SolutionMap) -> str:
    return _write("solution", r)


def _bulk_solution(text: str) -> SolutionMap | None:
    """The map that text encodes when text is exactly write_solution's output, else None.

    _bulk gives the n^2 'x y lx ry' rows; they must list the pairs in order
    with every value in 0..n-1.
    """
    fast = _bulk(_FORMATS["solution"], text)
    if fast is None:
        return None
    (rows,), provenance = fast
    n = math.isqrt(len(rows))
    x, y, lx, ry = rows.T
    pairs = np.arange(n * n)
    if not (np.array_equal(x, pairs // n) and np.array_equal(y, pairs % n)
            and min(lx.min(), ry.min()) >= 0 and max(lx.max(), ry.max()) < n):
        return None
    return SolutionMap(lx.reshape(n, n), ry.reshape(n, n), provenance=provenance)


def read_solution(text: str) -> SolutionMap:
    """Parse a YBE file; canonical text in bulk, anything else line by line.

    The line loop is the only source of ParseError, so every message and
    line number comes from it.
    """
    fast = _bulk_solution(text)
    return fast if fast is not None else _line_solution(text)


def _line_solution(text: str) -> SolutionMap:
    lines = _split(text)
    (n,), rest = _parse_header(lines, "YBE", 1)
    provenance = " ".join(rest) if rest else "unspecified"
    if len(lines) != 1 + n * n:
        raise ParseError(len(lines), f"expected {n * n} entry lines")
    left = np.empty((n, n), dtype=np.int32)
    right = np.empty((n, n), dtype=np.int32)
    for k in range(n * n):
        parts = lines[1 + k].split(" ")
        if len(parts) != 4:
            raise ParseError(2 + k, "expected 'x y lx ry'")
        try:
            x, y, lx, ry = (int(p) for p in parts)
        except ValueError as exc:
            raise ParseError(2 + k, f"bad integer: {exc}") from exc
        if x != k // n or y != k % n:
            raise ParseError(2 + k, f"pairs out of order at ({x}, {y})")
        try:
            left[x, y] = lx
            right[x, y] = ry
        except OverflowError as exc:
            raise ParseError(2 + k, f"bad integer: {exc}") from exc
    return SolutionMap(frozen(left), frozen(right), provenance=provenance)
