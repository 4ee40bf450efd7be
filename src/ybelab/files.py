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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable

import numpy as np

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
    words = np.array([f"{v} " for v in range(hi + 1)] + [f"{v}\n" for v in range(hi + 1)],
                     dtype=object)
    index = arr.astype(np.intp)
    index[:, -1] += hi + 1                     # the last entry of a row ends its line
    return "".join(words[index].ravel().tolist())


@dataclass(frozen=True)
class _Format:
    """A file layout: 'MAGIC v1', integer counts, an optional tail, then tables.

    Tables follow the header line in order, one blank line between two.
    """

    magic: str
    counts: int                                   # integers after 'MAGIC v1'
    shapes: Callable[..., list[tuple[int, int]]]  # the counts -> table shapes
    tail: str | None = None                       # default header tail; None: not kept

    def text(self, numbers, tail: str | None, tables) -> str:
        words = [self.magic, "v1", *map(str, numbers)]
        if self.tail is not None:
            words.append(tail)
        return " ".join(words) + "\n" + "\n".join(map(_table_text, tables))


_FORMATS = {
    "group": _Format("GROUP", 1, lambda n: [(n, n)], tail="G"),
    "action": _Format("ACTION", 2, lambda g, m: [(g, m)]),
    "brace": _Format("BRACE", 1, lambda n: [(n, n)] * 2),
    "bracoid": _Format("BRACOID", 2, lambda n, m: [(n, n), (m, m), (n, m)]),
    "semibrace": _Format("SEMIBRACE", 1, lambda n: [(n, n)] * 2),
    # one 'x y lx ry' row per pair (x, y), in order
    "solution": _Format("YBE", 1, lambda n: [(n * n, 4)], tail="unspecified"),
}


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
    out = np.empty((rows, cols), dtype=np.int32)
    for i in range(rows):
        parts = lines[start + i].split(" ")
        if len(parts) != cols:
            raise ParseError(start + i + 1,
                             f"expected {cols} entries, found {len(parts)}")
        try:
            out[i] = [int(p) for p in parts]
        except (ValueError, OverflowError) as exc:
            raise ParseError(start + i + 1, f"bad integer: {exc}") from exc
    return out


def _expect_blank(lines: list[str], at: int) -> None:
    if at >= len(lines) or lines[at] != "":
        raise ParseError(at + 1, "expected blank separator line")


def _expect_end(lines: list[str], at: int) -> None:
    if at != len(lines):
        raise ParseError(at + 1, "trailing content")


def _bulk(fmt: _Format, text: str) -> tuple[list[np.ndarray], str | None] | None:
    """The tables and header tail of text when it is exactly fmt's canonical text, else None.

    The body is parsed in C by np.fromstring, with no Python object per
    token.  The result is kept only when every header count is at least 1,
    the body holds exactly the values the table shapes call for, and
    printing the int32 tables gives back text itself, which a value beyond
    int32 cannot do.  The line loop parses such text without error to the
    same tables, so this is a shortcut with no verdict of its own.
    """
    head, _, body = text.partition("\n")
    try:
        numbers, rest = _parse_header([head], fmt.magic, fmt.counts)
        values = np.fromstring(body, dtype=np.int64, sep=" ")
    except ValueError:
        return None
    shapes = fmt.shapes(*numbers)
    sizes = [rows * cols for rows, cols in shapes]
    if min(numbers) < 1 or values.size != sum(sizes):
        return None
    parts = np.split(values.astype(np.int32), list(accumulate(sizes))[:-1])
    tables = [part.reshape(shape) for part, shape in zip(parts, shapes)]
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
    fast = _bulk(fmt, text)
    return fast if fast is not None else _line_tables(fmt, text)


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


def is_canonical(kind: str, text: str) -> bool:
    """True iff text is exactly what the kind's writer prints for the value it encodes.

    This is the reader's own bulk test, so it formats the value once; it
    covers values of order at least 1.
    """
    if kind == "solution":
        return _bulk_solution(text) is not None
    return _bulk(_FORMATS[kind], text) is not None


def _tables(*values) -> list[np.ndarray]:
    return [np.asarray(getattr(v, "table", v), dtype=np.int32) for v in values]


def write_group(G: FiniteGroup) -> str:
    return _FORMATS["group"].text([G.order], G.name, _tables(G))


def read_group_table(text: str) -> tuple[np.ndarray, str]:
    """Raw table and name with no axiom validation; verifiers want broken input."""
    (table,), name = _read_tables("group", text)
    return table, name


def read_group(text: str) -> FiniteGroup:
    table, name = read_group_table(text)
    return FiniteGroup(table, name=name)


def write_action(table) -> str:
    (arr,) = _tables(table)
    return _FORMATS["action"].text(arr.shape, None, [arr])


def read_action(text: str) -> np.ndarray:
    (table,), _ = _read_tables("action", text)
    return table


def write_brace(star, dot) -> str:
    tables = _tables(star, dot)
    return _FORMATS["brace"].text([tables[0].shape[0]], None, tables)


def read_brace(text: str) -> tuple[np.ndarray, np.ndarray]:
    (star, dot), _ = _read_tables("brace", text)
    return star, dot


def write_bracoid(G, N, act) -> str:
    tables = _tables(G, N, act)
    return _FORMATS["bracoid"].text([tables[0].shape[0], tables[1].shape[0]], None, tables)


def read_bracoid(text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    (gt, nt, at), _ = _read_tables("bracoid", text)
    return gt, nt, at


def write_semibrace(dot, plus) -> str:
    tables = _tables(dot, plus)
    return _FORMATS["semibrace"].text([tables[0].shape[0]], None, tables)


def read_semibrace(text: str) -> tuple[np.ndarray, np.ndarray]:
    (dot, plus), _ = _read_tables("semibrace", text)
    return dot, plus


def write_solution(r: SolutionMap) -> str:
    n = r.size
    pairs = np.arange(n * n)
    rows = np.stack([pairs // n, pairs % n, r.left.ravel(), r.right.ravel()], axis=1)
    return _FORMATS["solution"].text([n], r.provenance, [rows])


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
    return SolutionMap(left, right, provenance=provenance)
