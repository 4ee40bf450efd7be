import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ybelab.files import (
    ParseError,
    _split,
    _table_text,
    header_counts,
    encodes,
    read_action,
    read_bracoid,
    read_brace,
    read_group,
    read_group_table,
    read_semibrace,
    read_solution,
    write_action,
    write_bracoid,
    write_brace,
    write_group,
    write_semibrace,
    write_solution,
)
from ybelab import files
from ybelab.catalog import abelianmap_instance
from ybelab.cli import main
from ybelab.groups import FiniteGroup, cyclic_group, semidirect_product
from ybelab.semibraces import bracoid_to_semibrace
from ybelab.ybe import SolutionMap, solution_from_bracoid


def _sd32():
    return semidirect_product(cyclic_group(3), cyclic_group(2),
                              np.array([[0, 1, 2], [0, 2, 1]], dtype=np.int32))


def test_group_roundtrip_including_spaced_name():
    G = FiniteGroup(cyclic_group(4).table, name="C4 relabelled copy")
    text = write_group(G)
    back = read_group(text)
    assert back.name == "C4 relabelled copy"
    assert np.array_equal(back.table, G.table)
    assert write_group(back) == text


def test_group_reader_defaults_the_name():
    text = "GROUP v1 2\n0 1\n1 0\n"
    assert read_group(text).name == "G"


def test_raw_group_table_skips_validation():
    text = "GROUP v1 2 broken\n0 1\n1 1\n"
    table, name = read_group_table(text)
    assert name == "broken" and table[1, 1] == 1
    with pytest.raises(ValueError):
        read_group(text)


def test_action_roundtrip():
    act = _sd32().table[:, :3]
    text = write_action(act)
    assert text.startswith("ACTION v1 6 3\n")
    assert np.array_equal(read_action(text), act)
    assert write_action(read_action(text)) == text


def test_brace_roundtrip():
    G = _sd32()
    text = write_brace(cyclic_group(6), G)
    star, dot = read_brace(text)
    assert np.array_equal(star, cyclic_group(6).table)
    assert np.array_equal(dot, G.table)
    assert write_brace(star, dot) == text


def test_bracoid_roundtrip():
    G = _sd32()
    act = G.table[:, :3] % 3
    text = write_bracoid(G, cyclic_group(3), act)
    gt, nt, at = read_bracoid(text)
    assert np.array_equal(gt, G.table)
    assert np.array_equal(nt, cyclic_group(3).table)
    assert np.array_equal(at, act)
    assert write_bracoid(gt, nt, at) == text


def test_semibrace_roundtrip():
    G = _sd32()
    text = write_semibrace(G, G.table.T)
    dot, plus = read_semibrace(text)
    assert np.array_equal(dot, G.table)
    assert np.array_equal(plus, G.table.T)
    assert write_semibrace(dot, plus) == text


def test_solution_roundtrip_keeps_provenance():
    G = cyclic_group(3)
    r = SolutionMap(np.tile(np.arange(3, dtype=np.int32), (3, 1)),
                    G.table, provenance="restrict(bracoid)")
    text = write_solution(r)
    back = read_solution(text)
    assert back.provenance == "restrict(bracoid)"
    assert np.array_equal(back.left, r.left)
    assert np.array_equal(back.right, r.right)
    assert write_solution(back) == text


def test_bad_magic_is_line_one():
    with pytest.raises(ParseError) as exc:
        read_group("GRUOP v1 2\n0 1\n1 0\n")
    assert exc.value.line == 1
    with pytest.raises(ParseError) as exc:
        read_solution("YBE v2 1\n0 0 0 0\n")
    assert exc.value.line == 1


@pytest.mark.parametrize("kind, text", [
    ("group", "GROUP v1 -1 G\n"),
    ("action", "ACTION v1 2 -1\n"),
    ("brace", "BRACE v1 -1\n"),
    ("bracoid", "BRACOID v1 -3 2\n"),
    ("semibrace", "SEMIBRACE v1 -1\n"),
    ("solution", "YBE v1 -1\n0 0 0 0\n"),
])
def test_negative_header_count_is_line_one(kind, text):
    """Every reader and its oracle refuse a negative count on line 1."""
    if kind == "solution":
        read, oracle_read, seen = read_solution, oracle_read_solution, outcome
    else:
        _, read, _, oracle_read = TABLE_FORMATS[kind]
        seen = table_outcome
    with pytest.raises(ParseError) as exc:
        read(text)
    assert exc.value.line == 1
    assert str(exc.value).startswith("line 1: negative header count")
    assert seen(read, text) == seen(oracle_read, text)


def _empty(rows, cols=None):
    return np.zeros((rows, rows if cols is None else cols), dtype=np.int32)


# kind -> values for its writer with a header count of 0, the tables read back
ZERO_COUNTS = [
    ("group", (SimpleNamespace(order=0, name="G", table=_empty(0)),), (_empty(0),)),
    ("action", (_empty(2, 0),), (_empty(2, 0),)),
    ("action", (_empty(0, 3),), (_empty(0, 3),)),
    ("brace", (_empty(0), _empty(0)), (_empty(0), _empty(0))),
    ("bracoid", (_empty(0), _empty(0), _empty(0)), (_empty(0),) * 3),
    ("bracoid", (cyclic_group(2), _empty(0), _empty(2, 0)),
     (cyclic_group(2).table, _empty(0), _empty(2, 0))),
    ("semibrace", (_empty(0), _empty(0)), (_empty(0), _empty(0))),
    ("solution", (SolutionMap(_empty(0), _empty(0)),), (_empty(0), _empty(0))),
]


@pytest.mark.parametrize("kind, values, tables", ZERO_COUNTS,
                         ids=[f"{case[0]}-{i}" for i, case in enumerate(ZERO_COUNTS)])
def test_a_header_count_of_zero_is_legal(kind, values, tables, monkeypatch):
    """The writer's text for a count of 0 passes encodes and reads back to
    the same tables, by the bulk path and by the line loop alike."""
    write, read = getattr(files, f"write_{kind}"), READERS[files._FORMATS[kind].magic]
    text = write(*values)
    assert encodes(kind, text, *values)
    fmt = files._FORMATS[kind]
    bulk, line = files._bulk(fmt, text), files._line_tables(fmt, text)
    assert [(t.shape, t.tolist()) for t in bulk[0]] == [(t.shape, t.tolist()) for t in line[0]]
    assert bulk[1] == line[1]
    refuse_line_loop(monkeypatch)
    value = read(text)
    if isinstance(value, SolutionMap):
        value = (value.left, value.right)
    elif isinstance(value, np.ndarray):
        value = (value,)
    value = value[:len(tables)]                 # a group's name follows its table
    assert [t.shape for t in value] == [t.shape for t in tables]
    assert all(np.array_equal(a, b) for a, b in zip(value, tables))
    if kind == "solution":
        assert text == "YBE v1 0 unspecified\n"


def test_missing_final_newline():
    with pytest.raises(ParseError) as exc:
        read_group("GROUP v1 2\n0 1\n1 0")
    assert "newline" in str(exc.value)


def test_truncated_table():
    with pytest.raises(ParseError):
        read_group("GROUP v1 3\n0 1 2\n1 2 0\n")


def test_wrong_arity_row_names_its_line():
    with pytest.raises(ParseError) as exc:
        read_group("GROUP v1 2\n0 1\n1 0 0\n")
    assert exc.value.line == 3


def test_non_integer_entry():
    with pytest.raises(ParseError) as exc:
        read_group("GROUP v1 2\n0 1\nx 0\n")
    assert exc.value.line == 3


def test_trailing_garbage():
    with pytest.raises(ParseError) as exc:
        read_group("GROUP v1 2\n0 1\n1 0\nextra\n")
    assert exc.value.line == 4


def test_missing_blank_separator():
    text = "BRACE v1 2\n0 1\n1 0\n0 1\n1 0\n"
    with pytest.raises(ParseError) as exc:
        read_brace(text)
    assert exc.value.line == 4


def test_solution_entries_must_be_in_pair_order():
    text = "YBE v1 2 x\n0 0 0 0\n0 1 1 0\n1 1 1 1\n1 0 0 1\n"
    with pytest.raises(ParseError) as exc:
        read_solution(text)
    assert exc.value.line == 4


def test_solution_wrong_field_count():
    text = "YBE v1 1 x\n0 0 0\n"
    with pytest.raises(ParseError) as exc:
        read_solution(text)
    assert exc.value.line == 2


def test_out_of_range_values_rejected_by_solution_reader():
    text = "YBE v1 1 x\n0 0 3 0\n"
    with pytest.raises(ValueError):
        read_solution(text)


# --- solution text against the writer and reader as first written ---

def oracle_write_solution(r: SolutionMap) -> str:
    n = r.size
    head = f"YBE v1 {n} {r.provenance}"
    body = [f"{x} {y} {int(r.left[x, y])} {int(r.right[x, y])}"
            for x in range(n) for y in range(n)]
    return "\n".join([head] + body) + "\n"


def oracle_header(lines, magic, counts):
    """The header line as first written, apart from refusing a negative count."""
    if not lines:
        raise ParseError(1, "empty file")
    tokens = lines[0].split(" ")
    if len(tokens) < 2 + counts or tokens[0] != magic or tokens[1] != "v1":
        raise ParseError(1, f"expected '{magic} v1' header")
    try:
        numbers = [int(t) for t in tokens[2:2 + counts]]
    except ValueError as exc:
        raise ParseError(1, f"bad header count: {exc}") from exc
    if min(numbers) < 0:
        raise ParseError(1, f"negative header count {min(numbers)}")
    return numbers, tokens[2 + counts:]


def oracle_read_solution(text: str) -> SolutionMap:
    """The table files' line loop (oracle_parse_table, oracle_expect) on the
    n^2 rows of 4 entries, then the pairs checked in order row by row."""
    lines = _split(text)
    (n,), rest = oracle_header(lines, "YBE", 1)
    provenance = " ".join(rest) if rest else "unspecified"
    rows = oracle_parse_table(lines, 1, n * n, 4)
    oracle_expect(lines, 1 + n * n, blank=False)
    left = np.empty((n, n), dtype=np.int32)
    right = np.empty((n, n), dtype=np.int32)
    for k, (x, y, lx, ry) in enumerate(rows.tolist()):
        if x != k // n or y != k % n:
            raise ParseError(2 + k, f"pairs out of order at ({x}, {y})")
        left[x, y], right[x, y] = lx, ry
    return SolutionMap(left, right, provenance=provenance)


def outcome(read, text):
    """What a reader makes of text: the map, or the error with its line."""
    try:
        r = read(text)
    except ValueError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line", None)
    return r.size, r.provenance, r.left.tobytes(), r.right.tobytes()


provenances = st.text(alphabet="ab (+)~ \t", max_size=8)


@st.composite
def solution_maps(draw):
    n = draw(st.integers(1, 7))
    seed = draw(st.integers(0, 2**32 - 1))
    tables = np.random.default_rng(seed).integers(0, n, (2, n, n))
    return SolutionMap(tables[0], tables[1], provenance=draw(provenances))


@settings(max_examples=100, deadline=None)
@given(solution_maps())
def test_solution_writer_matches_the_oracle_and_reads_back(r):
    text = write_solution(r)
    assert text == oracle_write_solution(r)
    assert outcome(read_solution, text) == outcome(oracle_read_solution, text)
    assert outcome(read_solution, text)[:2] == (r.size, r.provenance)


TOKENS = ["x", "", "+1", "01", "-1", "1.0", "1_0", "\u0663", "99999999999",
          "-99999999999", "7", "100"]


def mutate(text: str, n: int, kind: int, rng) -> str:
    """Truncated, reordered, garbage or non-canonical variants of text."""
    lines = text.split("\n")
    pick = int(rng.integers(len(lines)))
    if kind == 0:                                   # truncated anywhere
        return text[:int(rng.integers(len(text) + 1))]
    if kind == 1:                                   # two lines swapped
        other = int(rng.integers(len(lines)))
        lines[pick], lines[other] = lines[other], lines[pick]
    elif kind == 2:                                 # one token replaced
        parts = lines[pick].split(" ")
        parts[int(rng.integers(len(parts)))] = TOKENS[int(rng.integers(len(TOKENS)))]
        lines[pick] = " ".join(parts)
    elif kind == 3:                                 # a separator made non-canonical
        sep = ["  ", "\t", " \t", "\r"][int(rng.integers(4))]
        lines[pick] = lines[pick].replace(" ", sep, 1)
    elif kind == 4:                                 # CRLF line ends
        return text.replace("\n", "\r\n")
    elif kind == 5:                                 # an entry out of range
        parts = lines[pick].split(" ")
        if pick and len(parts) == 4:
            parts[2 + int(rng.integers(2))] = str(n + int(rng.integers(3)))
            lines[pick] = " ".join(parts)
    elif kind == 6:                                 # a line dropped or repeated
        if rng.integers(2):
            del lines[pick]
        else:
            lines.insert(pick, lines[pick])
    else:                                           # leading or trailing text
        return ["\n", " ", "0 0 0 0\n"][int(rng.integers(3))] + text if rng.integers(2) \
            else text + ["0", "\n", "0 0 0 0\n", " "][int(rng.integers(4))]
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(solution_maps(), st.lists(st.integers(0, 7), min_size=1, max_size=3),
       st.integers(0, 2**32 - 1))
def test_solution_reader_matches_the_oracle_on_damaged_text(r, kinds, seed):
    rng = np.random.default_rng(seed)
    text = write_solution(r)
    for kind in kinds:
        text = mutate(text, r.size, kind, rng)
    assert outcome(read_solution, text) == outcome(oracle_read_solution, text)


# --- table files against the writers and line-loop readers as first written ---

def oracle_table_lines(arr) -> list[str]:
    return [" ".join(str(int(v)) for v in row) for row in np.asarray(arr, dtype=np.int32)]


def oracle_parse_table(lines, start, rows, cols):
    if start + rows > len(lines):
        raise ParseError(len(lines), f"expected {rows} table rows")
    out = []
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


def oracle_expect(lines, at, blank):
    if blank and (at >= len(lines) or lines[at] != ""):
        raise ParseError(at + 1, "expected blank separator line")
    if not blank and at != len(lines):
        raise ParseError(at + 1, "trailing content")


def oracle_read_group(text):
    lines = _split(text)
    (n,), rest = oracle_header(lines, "GROUP", 1)
    table = oracle_parse_table(lines, 1, n, n)
    oracle_expect(lines, 1 + n, blank=False)
    return table, " ".join(rest) if rest else "G"


def oracle_read_action(text):
    lines = _split(text)
    (g, m), _ = oracle_header(lines, "ACTION", 2)
    table = oracle_parse_table(lines, 1, g, m)
    oracle_expect(lines, 1 + g, blank=False)
    return table


def oracle_read_pair(text, magic):
    lines = _split(text)
    (n,), _ = oracle_header(lines, magic, 1)
    first = oracle_parse_table(lines, 1, n, n)
    oracle_expect(lines, 1 + n, blank=True)
    second = oracle_parse_table(lines, 2 + n, n, n)
    oracle_expect(lines, 2 + 2 * n, blank=False)
    return first, second


def oracle_read_bracoid(text):
    lines = _split(text)
    (n, m), _ = oracle_header(lines, "BRACOID", 2)
    gt = oracle_parse_table(lines, 1, n, n)
    oracle_expect(lines, 1 + n, blank=True)
    nt = oracle_parse_table(lines, 2 + n, m, m)
    oracle_expect(lines, 2 + n + m, blank=True)
    at = oracle_parse_table(lines, 3 + n + m, n, m)
    oracle_expect(lines, 3 + 2 * n + m, blank=False)
    return gt, nt, at


# kind -> (writer, reader, oracle writer, oracle reader)
TABLE_FORMATS = {
    "group": (lambda t, name: write_group(SimpleNamespace(order=len(t[0]), name=name,
                                                          table=t[0])),
              read_group_table,
              lambda t, name: "\n".join([f"GROUP v1 {len(t[0])} {name}"]
                                        + oracle_table_lines(t[0])) + "\n",
              oracle_read_group),
    "action": (lambda t, _: write_action(t[0]), read_action,
               lambda t, _: "\n".join([f"ACTION v1 {t[0].shape[0]} {t[0].shape[1]}"]
                                      + oracle_table_lines(t[0])) + "\n",
               oracle_read_action),
    "brace": (lambda t, _: write_brace(*t), read_brace,
              lambda t, _: "\n".join([f"BRACE v1 {len(t[0])}"] + oracle_table_lines(t[0])
                                     + [""] + oracle_table_lines(t[1])) + "\n",
              lambda text: oracle_read_pair(text, "BRACE")),
    "bracoid": (lambda t, _: write_bracoid(*t), read_bracoid,
                lambda t, _: "\n".join([f"BRACOID v1 {len(t[0])} {len(t[1])}"]
                                       + oracle_table_lines(t[0]) + [""]
                                       + oracle_table_lines(t[1]) + [""]
                                       + oracle_table_lines(t[2])) + "\n",
                oracle_read_bracoid),
    "semibrace": (lambda t, _: write_semibrace(*t), read_semibrace,
                  lambda t, _: "\n".join([f"SEMIBRACE v1 {len(t[0])}"]
                                         + oracle_table_lines(t[0]) + [""]
                                         + oracle_table_lines(t[1])) + "\n",
                  lambda text: oracle_read_pair(text, "SEMIBRACE")),
}


def table_outcome(read, text):
    """What a table reader makes of text: its tables and name, or the error with its line."""
    try:
        value = read(text)
    except ValueError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line", None)
    if isinstance(value, np.ndarray):
        value = (value,)
    return tuple((v.dtype.str, v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v
                 for v in value)


@st.composite
def table_files(draw):
    """A kind and tables of the shapes its header names, entries mostly in 0..n-1."""
    kind = draw(st.sampled_from(sorted(TABLE_FORMATS)))
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    shapes = {"group": [(n, n)], "action": [(n, m)], "brace": [(n, n)] * 2,
              "bracoid": [(n, n), (m, m), (n, m)], "semibrace": [(n, n)] * 2}[kind]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo, hi = draw(st.sampled_from([(0, n), (0, n), (-3, n), (0, 2**31 - 1),
                                   (-2**31, 2**31 - 1)]))
    tables = [rng.integers(lo, hi, shape, endpoint=True).astype(np.int32)
              for shape in shapes]
    return kind, tables, draw(provenances)


@settings(max_examples=150, deadline=None)
@given(table_files())
def test_table_writers_match_the_oracle_and_read_back(case):
    kind, tables, name = case
    write, read, oracle_write, oracle_read = TABLE_FORMATS[kind]
    text = write(tables, name)
    assert text == oracle_write(tables, name)
    assert table_outcome(read, text) == table_outcome(oracle_read, text)
    back = read(text)
    back = (back,) if isinstance(back, np.ndarray) else back
    assert all(np.array_equal(a, b) for a, b in zip(back, tables))


def mutate_table(text: str, kind: int, rng) -> str:
    """Damage of mutate, plus a header count off by one or a value beyond int32."""
    lines = text.split("\n")
    if kind == 8:                                   # header disagrees with the body
        head = lines[0].split(" ")
        at = 2 + int(rng.integers(2 if head[0] in ("ACTION", "BRACOID") else 1))
        try:
            head[at] = str(max(0, int(head[at]) + int(rng.choice([-1, 1]))))
        except (IndexError, ValueError):            # an earlier damage hit the header
            pass
        lines[0] = " ".join(head)
    elif kind == 9:                                 # one entry negative, huge or past n
        pick = int(rng.integers(len(lines)))
        parts = lines[pick].split(" ")
        parts[int(rng.integers(len(parts)))] = str(rng.choice(
            [-1, -7, 2**31, -2**31 - 1, 2**31 - 1, -2**31, 10**20, 9]))
        lines[pick] = " ".join(parts)
    else:
        return mutate(text, 4, kind, rng)
    return "\n".join(lines)


@settings(max_examples=400, deadline=None)
@given(table_files(), st.lists(st.integers(0, 9), min_size=1, max_size=3),
       st.integers(0, 2**32 - 1))
# The header of 'ACTION v1 01 2147483647' once made the reader ask for 8 GiB.
@example(case=("action", [np.array([[1]])], ""), kinds=[2, 9], seed=1464)
def test_table_readers_match_the_oracle_on_damaged_text(case, kinds, seed):
    kind, tables, name = case
    write, read, _, oracle_read = TABLE_FORMATS[kind]
    rng = np.random.default_rng(seed)
    text = write(tables, name)
    for k in kinds:
        text = mutate_table(text, k, rng)
    assert table_outcome(read, text) == table_outcome(oracle_read, text)


@pytest.mark.parametrize("shape, lo, hi", [
    ((1, 1), 0, 0), ((1, 1), 0, 9), ((1, 1), -5, -5), ((3, 7), 0, 6), ((7, 3), 0, 2),
    ((4, 4), -2**31, 2**31 - 1), ((5, 5), 0, 100), ((2, 9), 0, 18), ((0, 3), 0, 0),
    ((3, 0), 0, 0),
    # Written in blocks of checks.BLOCK_ENTRIES = 2^16 entries: three blocks of
    # 163 rows, three rows longer than a block, and the same shapes through the
    # row-by-row writer, which takes a negative entry or one above the size.
    ((400, 400), 0, 399), ((3, 70000), 0, 70000), ((400, 400), -1, 399),
    ((400, 400), 0, 2**31 - 1),
])
def test_table_text_matches_the_row_writer(shape, lo, hi):
    rng = np.random.default_rng([*shape, lo % 2**32, hi % 2**32])
    arr = rng.integers(lo, hi, shape, endpoint=True).astype(np.int32)
    expected = "".join(line + "\n" for line in oracle_table_lines(arr))
    assert _table_text(arr) == expected
    if shape[0] and shape[1]:
        text = write_action(arr)
        assert text == "\n".join([f"ACTION v1 {shape[0]} {shape[1]}"]
                                 + oracle_table_lines(arr)) + "\n"


def test_header_counts_read_only_the_first_line():
    assert header_counts("bracoid", "BRACOID v1 12 4\ngarbage") == [12, 4]
    assert header_counts("solution", "YBE v1 9 x y\n") == [9]
    assert header_counts("group", "GROUP v1 x\n0\n") is None
    assert header_counts("brace", "GROUP v1 2\n") is None


def test_encodes_is_the_text_parsing_to_the_written_fields():
    """encodes parses once and compares counts, tail and tables with the
    fields the writer prints for the values; it never formats again."""
    G = _sd32()
    assert encodes("group", write_group(G), G)
    assert not encodes("group", "GROUP v1 2\n0 1\n1 0\n", cyclic_group(2))   # no name
    assert not encodes("group", write_group(cyclic_group(6)), G)
    text = write_brace(G, G)
    assert encodes("brace", text, G, G)
    assert not encodes("brace", text, G, cyclic_group(6))
    assert not encodes("brace", text.replace("BRACE v1 6", "BRACE v1 6 x"), G, G)
    assert not encodes("brace", text.replace("BRACE v1 6", "BRACE v1 5"), G, G)
    assert not encodes("semibrace", text, G, G)
    # Text that reads as the same fields passes; only a reader, which may
    # meet files from outside, also asks for the writer's exact text.
    padded = text.replace("\n1 ", "\n01 ", 1)
    assert encodes("brace", padded, G, G) and files._bulk(files._FORMATS["brace"], padded) is None
    r = SolutionMap(np.zeros((2, 2)), np.ones((2, 2)), provenance="p")
    text = write_solution(r)
    assert encodes("solution", text, r)
    assert not encodes("solution", text, SolutionMap(r.left, r.right, provenance="q"))
    swapped = text.replace("0 1 0 1\n1 0 0 1\n", "1 0 0 1\n0 1 0 1\n")
    assert swapped != text and not encodes("solution", swapped, r)


# --- canonical text must take the bulk path ---

READERS = {"GROUP": read_group_table, "ACTION": read_action, "BRACE": read_brace,
           "BRACOID": read_bracoid, "SEMIBRACE": read_semibrace, "YBE": read_solution}


def refuse_line_loop(monkeypatch) -> None:
    def refuse(*args):
        raise AssertionError("canonical text fell through to the line loop")

    monkeypatch.setattr(files, "_line_tables", refuse)


def test_suite_artifacts_take_the_bulk_path(tmp_path, monkeypatch, capsys):
    assert main(["suite", "quick", "--seed", "7", "--out", str(tmp_path)]) == 0
    texts = [p.read_text() for p in sorted(tmp_path.iterdir()) if p.name != "report.txt"]
    assert len(texts) == 58
    refuse_line_loop(monkeypatch)
    for text in texts:
        READERS[text.split(" ", 1)[0]](text)


def relabel(table: np.ndarray, rows: np.ndarray, cols: np.ndarray,
            values: np.ndarray) -> np.ndarray:
    """out[rows[a], cols[b]] = values[table[a, b]]."""
    return values[table[np.ix_(np.argsort(rows), np.argsort(cols))]]


def test_relabelled_order_132_files_take_the_bulk_path(monkeypatch):
    inst = abelianmap_instance(3, 11)
    bc, cb = inst.bracoid, inst.contained
    r = solution_from_bracoid(cb)
    rng = np.random.default_rng(132)
    pg = np.concatenate(([0], 1 + rng.permutation(bc.G.order - 1)))
    pn = np.concatenate(([0], 1 + rng.permutation(bc.N.order - 1)))
    on_g = lambda t: relabel(t, pg, pg, pg)
    g, act = on_g(bc.G.table), relabel(bc.act.table, pg, pn, pn)
    files_and_tables = [
        (write_group(SimpleNamespace(order=132, name="G", table=g)), (g,)),
        (write_brace(on_g(inst.brace.star.table), g), (on_g(inst.brace.star.table), g)),
        (write_bracoid(g, relabel(bc.N.table, pn, pn, pn), act),
         (g, relabel(bc.N.table, pn, pn, pn), act)),
        (write_semibrace(g, on_g(bracoid_to_semibrace(cb).plus)),
         (g, on_g(bracoid_to_semibrace(cb).plus))),
        (write_solution(SolutionMap(on_g(r.left), on_g(r.right), provenance="bracoid")),
         (on_g(r.left), on_g(r.right))),
        (write_action(act), (act,)),
    ]
    refuse_line_loop(monkeypatch)
    for text, tables in files_and_tables:
        value = READERS[text.split(" ", 1)[0]](text)
        if isinstance(value, SolutionMap):
            value = (value.left, value.right)
        elif isinstance(value, np.ndarray):
            value = (value,)
        assert all(np.array_equal(a, b) for a, b in zip(value, tables))


def test_numpy_1_unmatched_data_goes_to_the_line_loop(monkeypatch):
    """numpy 1.x answers unmatched data in np.fromstring with a
    DeprecationWarning and the values before it, not a ValueError; under the
    suite's warnings-as-errors policy that must still end in the line loop's
    ParseError and line number."""
    numpy_2_fromstring = np.fromstring

    def numpy_1_fromstring(string, dtype=float, sep=""):
        try:
            return numpy_2_fromstring(string, dtype=dtype, sep=sep)
        except ValueError:
            warnings.warn("string or file could not be read to its end due to unmatched "
                          "data; this will raise a ValueError in the future.",
                          DeprecationWarning, stacklevel=2)
            head = []
            for token in string.split():
                if not token.lstrip("-").isdigit():
                    break
                head.append(int(token))
            return np.array(head, dtype=dtype)

    monkeypatch.setattr(np, "fromstring", numpy_1_fromstring)
    with pytest.raises(ParseError) as exc:
        read_group("GROUP v1 2\n0 1\nx 0\n")
    assert exc.value.line == 3
    assert read_group(write_group(cyclic_group(3))).order == 3
