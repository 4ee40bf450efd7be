"""Plain-text serialization for every structure in the package.

All formats are line-oriented, 0-based decimal, single spaces, every
line newline-terminated.  Writers emit canonical text; readers accept
exactly that text, so parse(print(v)) reproduces v bit for bit.

Readers return raw tables (not verified structures) except for groups
and solutions, whose types carry no unverified laws beyond shape; the
caller decides whether to run verifiers or constructors on the rest.
"""

from __future__ import annotations

import numpy as np

from .groups import FiniteGroup
from .ybe import SolutionMap


class ParseError(ValueError):
    """Malformed artifact text; carries the 1-based offending line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _table_lines(arr: np.ndarray) -> list[str]:
    return [" ".join(str(int(v)) for v in row) for row in arr]


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


def write_group(G: FiniteGroup) -> str:
    head = f"GROUP v1 {G.order} {G.name}"
    return "\n".join([head] + _table_lines(G.table)) + "\n"


def read_group_table(text: str) -> tuple[np.ndarray, str]:
    """Raw table and name with no axiom validation; verifiers want broken input."""
    lines = _split(text)
    (n,), rest = _parse_header(lines, "GROUP", 1)
    name = " ".join(rest) if rest else "G"
    table = _parse_table(lines, 1, n, n)
    _expect_end(lines, 1 + n)
    return table, name


def read_group(text: str) -> FiniteGroup:
    table, name = read_group_table(text)
    return FiniteGroup(table, name=name)


def write_action(table) -> str:
    arr = np.asarray(getattr(table, "table", table), dtype=np.int32)
    head = f"ACTION v1 {arr.shape[0]} {arr.shape[1]}"
    return "\n".join([head] + _table_lines(arr)) + "\n"


def read_action(text: str) -> np.ndarray:
    lines = _split(text)
    (g, m), _ = _parse_header(lines, "ACTION", 2)
    table = _parse_table(lines, 1, g, m)
    _expect_end(lines, 1 + g)
    return table


def write_brace(star, dot) -> str:
    st = np.asarray(getattr(star, "table", star), dtype=np.int32)
    dt = np.asarray(getattr(dot, "table", dot), dtype=np.int32)
    head = f"BRACE v1 {st.shape[0]}"
    return "\n".join([head] + _table_lines(st) + [""] + _table_lines(dt)) + "\n"


def read_brace(text: str) -> tuple[np.ndarray, np.ndarray]:
    lines = _split(text)
    (n,), _ = _parse_header(lines, "BRACE", 1)
    star = _parse_table(lines, 1, n, n)
    _expect_blank(lines, 1 + n)
    dot = _parse_table(lines, 2 + n, n, n)
    _expect_end(lines, 2 + 2 * n)
    return star, dot


def write_bracoid(G, N, act) -> str:
    gt = np.asarray(getattr(G, "table", G), dtype=np.int32)
    nt = np.asarray(getattr(N, "table", N), dtype=np.int32)
    at = np.asarray(getattr(act, "table", act), dtype=np.int32)
    head = f"BRACOID v1 {gt.shape[0]} {nt.shape[0]}"
    return "\n".join([head] + _table_lines(gt) + [""] + _table_lines(nt)
                     + [""] + _table_lines(at)) + "\n"


def read_bracoid(text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    lines = _split(text)
    (n, m), _ = _parse_header(lines, "BRACOID", 2)
    gt = _parse_table(lines, 1, n, n)
    _expect_blank(lines, 1 + n)
    nt = _parse_table(lines, 2 + n, m, m)
    _expect_blank(lines, 2 + n + m)
    at = _parse_table(lines, 3 + n + m, n, m)
    _expect_end(lines, 3 + 2 * n + m)
    return gt, nt, at


def write_semibrace(dot, plus) -> str:
    dt = np.asarray(getattr(dot, "table", dot), dtype=np.int32)
    pt = np.asarray(plus, dtype=np.int32)
    head = f"SEMIBRACE v1 {dt.shape[0]}"
    return "\n".join([head] + _table_lines(dt) + [""] + _table_lines(pt)) + "\n"


def read_semibrace(text: str) -> tuple[np.ndarray, np.ndarray]:
    lines = _split(text)
    (n,), _ = _parse_header(lines, "SEMIBRACE", 1)
    dot = _parse_table(lines, 1, n, n)
    _expect_blank(lines, 1 + n)
    plus = _parse_table(lines, 2 + n, n, n)
    _expect_end(lines, 2 + 2 * n)
    return dot, plus


def write_solution(r: SolutionMap) -> str:
    return _solution_text(r)


def _solution_text(r: SolutionMap) -> str:
    # read_solution checks its bulk parse with this, not with write_solution,
    # so wrappers of the public writer never count a read as a write.
    n = r.size
    digits = [str(v) for v in range(n)]           # every entry lies in 0..n-1
    lines = [f"YBE v1 {n} {r.provenance}"]
    for x, lrow, rrow in zip(digits, r.left.tolist(), r.right.tolist()):
        lines.extend([f"{x} {y} {digits[a]} {digits[b]}"
                      for y, a, b in zip(digits, lrow, rrow)])
    return "\n".join(lines) + "\n"


def _read_canonical_solution(text: str) -> SolutionMap | None:
    """The map that text encodes when text is exactly write_solution's output, else None.

    The body is parsed in C by np.fromstring, with no Python object per
    token.  The result is accepted only when there are 4n^2 values, the x y
    columns list the pairs in order, every value lies in 0..n-1 and
    write_solution would give back text itself.  The line loop of
    read_solution parses such text without error to the same map, so this
    is a shortcut with no verdict of its own.
    """
    head, _, body = text.partition("\n")
    try:
        (n,), rest = _parse_header([head], "YBE", 1)
        values = np.fromstring(body, dtype=np.int64, sep=" ")
    except ValueError:
        return None
    if n < 1 or values.size != 4 * n * n:
        return None
    x, y, lx, ry = values.reshape(n * n, 4).T
    pairs = np.arange(n * n)
    if not (np.array_equal(x, pairs // n) and np.array_equal(y, pairs % n)
            and min(lx.min(), ry.min()) >= 0 and max(lx.max(), ry.max()) < n):
        return None
    r = SolutionMap(lx.reshape(n, n), ry.reshape(n, n),
                    provenance=" ".join(rest) if rest else "unspecified")
    return r if _solution_text(r) == text else None


def read_solution(text: str) -> SolutionMap:
    """Parse a YBE file; canonical text in bulk, anything else line by line.

    The line loop is the only source of ParseError, so every message and
    line number comes from it.
    """
    fast = _read_canonical_solution(text)
    if fast is not None:
        return fast
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
