"""The record classes: plain classes with `__slots__` that keep what their
dataclass versions gave, namely fields, defaults, equality and hashing by
field, immutability for the frozen ones and the validation messages."""

import re

import numpy as np
import pytest

from ybelab import checks, cli, files
from ybelab.checks import Check, Record, Report
from ybelab.groups import Subgroup, cyclic_group, holomorph
from ybelab.semibraces import Decomposition, bracoid_to_semibrace, decompose
from ybelab.ybe import NotClosed, SolutionReport


def _records(trivial_c4):
    """One instance of every frozen record class of the library."""
    G = cyclic_group(4)
    return [
        Check("a", True),
        Report((Check("a", True),)),
        Subgroup(G, (0, 2)),
        holomorph(G),
        decompose(bracoid_to_semibrace(trivial_c4.contained)),
        NotClosed(1, 2, "left", 3),
        SolutionReport((Check("braid", True),)),
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
        name = type(record)._field_names[0]
        before = getattr(record, name)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert getattr(record, name) is before
        assert not hasattr(record, "__dict__")


def test_every_record_is_a_value(trivial_c4):
    """Each record hashes, and so does each of its fields: no record holds
    an array or a dict, whose contents could change under an equal record."""
    for record in _records(trivial_c4):
        fields = record._fields()
        assert hash(record) == hash(fields), type(record)
        for name, value in zip(record._field_names, fields):
            assert not isinstance(value, (np.ndarray, dict)), (type(record), name)
            hash(value)


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
    braid = Check("braid", False, (1, 2, 3))
    assert SolutionReport((braid,)) == SolutionReport(checks=(braid,))
    assert hash(SolutionReport((braid,))) == hash(SolutionReport((braid,)))
    assert SolutionReport((braid,)) != SolutionReport((Check("braid", False, (1, 2, 0)),))
    assert SolutionReport((braid,)) != Report((braid,))
    assert len({Check("a", True), Check("a", True), Check("b", True)}) == 2


def test_records_print_their_fields_in_order():
    assert repr(Check("a", True)) == "Check(name='a', ok=True, witness=(), detail='')"
    assert repr(NotClosed(1, 2, "left", 3)) == "NotClosed(x=1, y=2, coordinate='left', value=3)"
    assert repr(SolutionReport()) == "SolutionReport(checks=())"


def test_a_record_subclass_that_only_adds_methods_keeps_its_fields():
    """`__slots__ = ()` adds no field: the fields are those of the nearest
    class that declares some, here Report's."""
    assert SolutionReport.__slots__ == () and SolutionReport._field_names == ("checks",)
    braid = Check("braid", False, (0, 1, 2))
    report = SolutionReport((braid, Check("bijective", True)))
    assert report.checks[0] is braid and report.braid_witness == (0, 1, 2)
    assert report["bijective"].ok and not report.ok and report.first_failure() is braid


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

