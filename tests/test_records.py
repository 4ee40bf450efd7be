"""The record classes: plain classes with `__slots__` that keep what their
dataclass versions gave, namely fields, defaults, equality and hashing by
field, immutability for the frozen ones and the validation messages."""

import re

import pytest

from ybelab import checks, cli, files
from ybelab.checks import Check, Record, Report
from ybelab.groups import GroupMap, NotHomomorphism, Subgroup, cyclic_group, holomorph
from ybelab.semibraces import Decomposition, bracoid_to_semibrace, decompose
from ybelab.ybe import NotClosed, SolutionReport


def _records(trivial_c4):
    """One instance of every frozen record class of the library."""
    G = cyclic_group(4)
    return [
        Check("a", True),
        Report((Check("a", True),)),
        Subgroup(G, (0, 2)),
        GroupMap(G, G, (0, 2, 0, 2)),
        holomorph(G),
        trivial_c4.contained.lambda_rho,
        decompose(bracoid_to_semibrace(trivial_c4.contained)),
        NotClosed(1, 2, "left", 3),
        SolutionReport(4, True),
        trivial_c4,
        files._FORMATS["group"],
        cli._file_kinds()["group"],
        cli._pipelines()["solution-from-brace"],
    ]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_record_class_is_frozen_and_slotted(trivial_c4):
    records = _records(trivial_c4)
    assert {type(r) for r in records} == set(_subclasses(Record))
    for record in records:
        name = type(record).__slots__[0]
        before = getattr(record, name)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert getattr(record, name) is before
        assert not hasattr(record, "__dict__")


def test_records_are_equal_and_hash_by_their_fields():
    assert Check("a", True) == Check("a", True)
    assert hash(Check("a", True)) == hash(Check("a", True, (), ""))
    assert Check("a", True) != Check("a", False)
    assert Check("a", False, (1, 2)) != Check("a", False, (2, 1))
    assert Check("a", False, (), "x") != Check("a", False, (), "y")
    assert Check("a", True) != ("a", True, (), "")
    assert Report() == Report(()) and Report().checks == ()
    assert Report((Check("a", True),)) == Report((Check("a", True),))
    assert hash(Report((Check("a", True),))) == hash(Report((Check("a", True),)))
    assert Decomposition((0, 1), (2,)) == Decomposition((0, 1), (2,))
    assert Decomposition((0, 1), (2,)) != Decomposition((0,), (1, 2))
    assert NotClosed(1, 2, "left", 3) != NotClosed(1, 2, "right", 3)
    assert SolutionReport(4, True) == SolutionReport(
        size=4, braid=True, braid_witness=(), bijective=True, bijective_witness=(),
        involutive=True, involutive_witness=(), left_nondegenerate=True, left_witness=(),
        right_nondegenerate=True, right_witness=())
    assert SolutionReport(4, False, (1, 2, 3)) != SolutionReport(4, False, (1, 2, 0))
    assert len({Check("a", True), Check("a", True), Check("b", True)}) == 2


def test_records_print_their_fields_in_order():
    assert repr(Check("a", True)) == "Check(name='a', ok=True, witness=(), detail='')"
    assert repr(NotClosed(1, 2, "left", 3)) == "NotClosed(x=1, y=2, coordinate='left', value=3)"


def test_a_memoised_check_cannot_be_changed():
    table = cyclic_group(4).table
    first = checks.group_table_checks(table)
    with pytest.raises(AttributeError):
        first[0].ok = False
    again = checks.group_table_checks(table)
    assert again[0] is first[0] and again[0].ok


def test_a_step_stays_mutable():
    step = cli.Step("law", True)
    assert (step.micros, step.witness, step.asserted) == (0, "", True)
    step.ok, step.micros, step.witness = False, 12, "(1,2)"
    assert step.line() == "STEP law FAIL 12 (1,2)"
    assert step.line(zero_timings=True) == "STEP law FAIL 0 (1,2)"


def _refused(error, message):
    return pytest.raises(error, match="^" + re.escape(message) + "$")


def test_subgroup_refuses_bad_elements_with_its_messages():
    G = cyclic_group(4)
    with _refused(ValueError, "subgroup elements must be sorted, unique, and contain 0: (2, 0)"):
        Subgroup(G, (2, 0))
    with _refused(ValueError, "subgroup elements must be sorted, unique, and contain 0: ()"):
        Subgroup(G, ())
    with _refused(ValueError, "element 4 out of range 0..3"):
        Subgroup(G, (0, 4))
    with _refused(ValueError, "not closed: 1*1 = 2 escapes the subset"):
        Subgroup(G, (0, 1))
    assert Subgroup(G, (0, 2)).order == 2


def test_group_map_refuses_a_non_homomorphism_with_its_messages():
    G = cyclic_group(4)
    with _refused(NotHomomorphism, "image list has length (2,), expected 4"):
        GroupMap(G, G, (0, 1))
    with _refused(NotHomomorphism, "image out of range"):
        GroupMap(G, G, (0, 1, 2, 7))
    with _refused(NotHomomorphism, "identity must map to identity"):
        GroupMap(G, G, (1, 2, 3, 0))
    with _refused(NotHomomorphism, "f(1*1) != f(1)*f(1)"):
        GroupMap(G, G, (0, 2, 1, 3))
    assert GroupMap(G, G, (0, 3, 2, 1))(1) == 3

