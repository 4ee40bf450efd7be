"""Plain-text serialization for every structure in the package.

All formats are line-oriented, 0-based decimal, single spaces, every
line newline-terminated, and parse(print(v)) reproduces v bit for bit.
One walk, `_Format.pieces`, yields a file's canonical text in blocks of
rows: the writers join it, and `save` writes and checks it block by block.

Every kind is read by `_read_tables`.  Canonical text is read in bulk, by
one np.fromstring pass over the body that is kept only when the walk gives
the text back exactly; anything else is read line by line, and that
loop is the only source of ParseError.  It splits lines on single spaces
and takes any token int() takes, so it reads more than canonical text:
'+1', '01', '1_0' and non-ASCII digits such as '\u0663' read as their
value, and a tab or carriage return beside a number is dropped.

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

from .checks import Record, _row_blocks, adopted, frozen
from .groups import FiniteGroup
from .ybe import SolutionMap


class ParseError(ValueError):
    """Malformed artifact text; carries the 1-based offending line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _words(table: np.ndarray) -> np.ndarray | None:
    """f'{v} ' at v and f'{v}\\n' at hi + 1 + v for v up to the largest entry hi,
    NUL-padded to one width; None (join rows one by one) for an empty table or
    one with an entry below 0 or above its size: no lookup list is longer."""
    if table.size == 0 or table.min() < 0 or (hi := int(table.max())) > table.size:
        return None
    return np.array([f"{v} " for v in range(hi + 1)] + [f"{v}\n" for v in range(hi + 1)],
                    dtype=f"S{len(str(hi)) + 1}")


def _block_text(rows: np.ndarray, words: np.ndarray | None) -> str:
    """Rows of a table as single-spaced decimals, each ending in a newline,
    gathered from the table's `_words` with the NUL padding dropped."""
    if words is None:
        return "".join(" ".join(map(str, row)) + "\n" for row in rows.tolist())
    shift = np.zeros(rows.shape[1], dtype=np.intp)
    shift[-1] = len(words) // 2                # the last entry of a row ends its line
    return words[rows + shift].tobytes().replace(b"\0", b"").decode()


def _values(body: str, dtype) -> np.ndarray | None:
    """The integers of body, parsed in C by np.fromstring, or None when it does not parse.

    Any run of whitespace separates two values, whitespace alone holds none
    (np.fromstring reads it as [0]), and a value beyond dtype wraps or clips.
    Where numpy 2 raises on unmatched data, numpy 1.x warns and returns the
    values before it; the warning is raised here.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            return np.fromstring("" if body.isspace() else body, dtype=dtype, sep=" ")
    except (ValueError, DeprecationWarning):
        return None


def _reads_as(block: str, rows: np.ndarray) -> bool:
    """Whether the line loop reads block as exactly rows: with its digits and
    minus signs taken out, block is a space after each entry but a row's last
    and a newline after each row, and its values are the entries."""
    seps = np.full((len(rows), max(1, rows.shape[1])), ord(" "), dtype=np.uint8)
    seps[:, -1] = ord("\n")
    return (block.encode().translate(None, b"-0123456789") == seps.tobytes()
            and (values := _values(block, np.int64)) is not None
            and np.array_equal(values, rows.ravel()))


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

    def pieces(self, counts, tail, tables):
        """The text of a file as (piece, rows) pairs: the header line with rows
        None, then each block of whole rows of each table (`_row_blocks`), the
        blank line between two tables being the text of one row with no entries."""
        head = [self.magic, "v1", *map(str, counts)]
        if self.tail is not None:
            head.append(tail)
        yield " ".join(head) + "\n", None
        for k, table in enumerate(tables):
            if k:
                yield "\n", np.zeros((1, 0), dtype=np.int32)
            words = _words(table)
            for _, rows in _row_blocks(table):
                yield _block_text(rows, words), rows


# The fields of each layout: the values its writer takes -> (counts, tail, tables).

def _group_fields(G: FiniteGroup):
    return [G.order], G.name, [adopted(G)]


def _action_fields(table):
    table = adopted(table)
    return list(table.shape), None, [table]


def _square_fields(*values):
    tables = list(map(adopted, values))
    return [len(tables[0])], None, tables


def _bracoid_fields(G, N, act):
    tables = list(map(adopted, (G, N, act)))
    return [len(tables[0]), len(tables[1])], None, tables


def _solution_fields(r: SolutionMap):
    n = r.size
    pairs = np.arange(n * n, dtype=np.int32)
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
    fmt = _FORMATS[kind]
    return "".join(piece for piece, _ in fmt.pieces(*fmt.fields(*values)))


def save(path, kind: str, *values) -> bool:
    """Write the kind file for values to path piece by piece; whether its header
    parses to the counts and tail and each block `_reads_as` its rows.  One
    block's text and values are alive at a time, never the whole file's."""
    fmt = _FORMATS[kind]
    counts, tail, tables = fmt.fields(*values)
    pieces = fmt.pieces(counts, tail, tables)
    with open(path, "w") as out:
        head, _ = next(pieces)
        out.write(head)
        numbers, rest = _header(fmt, head[:-1]) or (None, None)
        ok = (head.find("\n") == len(head) - 1 and numbers == list(counts)
              and rest == ([] if fmt.tail is None else tail.split(" ")))
        for piece, rows in pieces:
            out.write(piece)
            ok = ok and _reads_as(piece, rows)
    return ok


def _split(text: str) -> list[str]:
    if not text.endswith("\n"):
        raise ParseError(max(1, text.count("\n") + 1), "missing final newline")
    return text.split("\n")[:-1]


def _parse_header(line: str, magic: str, counts: int) -> tuple[list[int], list[str]]:
    tokens = line.split(" ")
    if len(tokens) < 2 + counts or tokens[0] != magic or tokens[1] != "v1":
        raise ParseError(1, f"expected '{magic} v1' header")
    try:
        numbers = [int(t) for t in tokens[2:2 + counts]]
    except ValueError as exc:
        raise ParseError(1, f"bad header count: {exc}") from exc
    if min(numbers) < 0:
        raise ParseError(1, f"negative header count {min(numbers)}")
    return numbers, tokens[2 + counts:]


def _header(fmt: _Format, line: str) -> tuple[list[int], list[str]] | None:
    try:
        return _parse_header(line, fmt.magic, fmt.counts)
    except ParseError:
        return None


def _parse_table(lines: list[str], start: int, rows: int, cols: int) -> np.ndarray:
    if start + rows > len(lines):
        raise ParseError(len(lines), f"expected {rows} table rows")
    out = []                    # rows as read: the header counts alone allocate nothing
    for i in range(rows):
        parts = lines[start + i].split(" ") if lines[start + i] else []
        if len(parts) != cols:
            raise ParseError(start + i + 1,
                             f"expected {cols} entries, found {len(parts)}")
        try:
            out.append(np.array([int(p) for p in parts], dtype=np.int32))
        except (ValueError, OverflowError) as exc:
            raise ParseError(start + i + 1, f"bad integer: {exc}") from exc
    return np.array(out, dtype=np.int32).reshape(rows, cols)


def _bulk(fmt: _Format, text: str) -> tuple[list[np.ndarray], str | None] | None:
    """The tables and header tail of text when it is exactly fmt's canonical text, else None.

    The result is kept only when text parses, its values fill the tables the
    header calls for, and the pieces of the int32 tables match text slice by
    slice up to its end, which a value beyond int32 cannot do.  The line loop
    parses such text without error to the same tables, so this is a shortcut
    with no verdict of its own.
    """
    head, _, body = text.partition("\n")
    parsed, values = _header(fmt, head), _values(body, np.int32)
    if parsed is None or values is None:
        return None
    numbers, rest = parsed
    shapes = fmt.shapes(*numbers)
    sizes = [rows * cols for rows, cols in shapes]
    if values.size != sum(sizes):
        return None
    tables = [part.reshape(shape) for part, shape in
              zip(np.split(values, list(accumulate(sizes))[:-1]), shapes)]
    tail, at = " ".join(rest) if rest else fmt.tail, 0
    for piece, _ in fmt.pieces(numbers, tail, tables):
        if not text.startswith(piece, at):
            return None
        at += len(piece)
    return (tables, tail) if at == len(text) else None


def _line_tables(fmt: _Format, text: str) -> tuple[list[np.ndarray], str | None]:
    """The line loop: the tables and header tail of text, or the ParseError of its first bad line."""
    lines = _split(text)
    numbers, rest = _parse_header(lines[0], fmt.magic, fmt.counts)
    tables, at = [], 1
    for k, (rows, cols) in enumerate(fmt.shapes(*numbers)):
        if k:
            if at >= len(lines) or lines[at] != "":
                raise ParseError(at + 1, "expected blank separator line")
            at += 1
        tables.append(_parse_table(lines, at, rows, cols))
        at += rows
    if at != len(lines):
        raise ParseError(at + 1, "trailing content")
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
    parsed = _header(_FORMATS[kind], text.partition("\n")[0])
    return parsed and parsed[0]


def write_group(G: FiniteGroup) -> str:
    return _write("group", G)


def read_group_table(text: str) -> tuple[np.ndarray, str]:
    """Raw table and name with no axiom validation; verifiers want broken input."""
    (table,), name = _read_tables("group", text)
    return table, name


def read_group(text: str) -> FiniteGroup:
    table, name = read_group_table(text)
    return FiniteGroup(table, name=name)


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


def read_solution(text: str) -> SolutionMap:
    """Parse a YBE file: n^2 'x y lx ry' rows as `_read_tables` reads them.

    A row whose (x, y) is out of order is a ParseError at its line; an lx or
    ry outside 0..n-1 is the ValueError of SolutionMap.
    """
    (rows,), provenance = _read_tables("solution", text)
    n = math.isqrt(len(rows))
    x, y, lx, ry = rows.T
    pairs = np.arange(n * n)
    bad = (x != pairs // n) | (y != pairs % n)
    if bad.any():
        k = int(np.argmax(bad))
        raise ParseError(2 + k, f"pairs out of order at ({x[k]}, {y[k]})")
    return SolutionMap(lx.reshape(n, n), ry.reshape(n, n), provenance=provenance)
