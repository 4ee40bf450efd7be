import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ybelab.files import (
    ParseError,
    _parse_header,
    _split,
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
from ybelab.groups import FiniteGroup, cyclic_group, semidirect_product
from ybelab.ybe import SolutionMap


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


def oracle_read_solution(text: str) -> SolutionMap:
    """The line loop, as first written apart from turning an int32 overflow
    into a ParseError like any other bad integer."""
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
