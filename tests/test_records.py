"""The package's value records: plain ``__slots__`` classes on ``cvform.Record``.

They compare, hash and print as frozen dataclasses of the same fields
would, and importing the command line loads neither ``dataclasses`` nor
``inspect``.
"""

import copy
import dataclasses
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cvforms.basis import Basis, BasisForm, CoefficientMatrix
from cvforms.cvform import CvForm, Record
from cvforms.laplace import RowBlock
from cvforms.ribbon import Ribbon, SkewPartition, SkewTableau

SRC = Path(__file__).parents[1] / "src"
COLUMN, ROW = Ribbon(((1, 1), (0, 1))), Ribbon(((0, 0), (0, 1)))

# each record class with two builders whose fields differ
RECORDS = {
    Ribbon: (lambda: Ribbon(((1, 1), (0, 1))), lambda: Ribbon(((0, 0), (0, 1)))),
    SkewPartition: (lambda: SkewPartition((2, 1), (1,)), lambda: SkewPartition((2, 1), ())),
    SkewTableau: (lambda: SkewTableau(COLUMN, (2, 1)), lambda: SkewTableau(ROW, (1, 2))),
    RowBlock: (lambda: RowBlock(((1, 0),), ((1, 2),), -1), lambda: RowBlock(((1, 0),), ((1, 2),), 1)),
    BasisForm: (
        lambda: BasisForm(CvForm((1, 1)), SkewTableau(COLUMN, (2, 1))),
        lambda: BasisForm(CvForm((1, 0)), SkewTableau(ROW, (1, 2))),
    ),
    Basis: (
        lambda: Basis(1, None, (1,), (BasisForm(CvForm((0,)), SkewTableau(Ribbon(((0, 0),)), (1,))),)),
        lambda: Basis(1, 0, (1,), (BasisForm(CvForm((0,)), SkewTableau(Ribbon(((0, 0),)), (1,))),)),
    ),
    CoefficientMatrix: (
        lambda: CoefficientMatrix(((1, 0), (0, 1)), ((Fraction(1), Fraction(-1, 2)),)),
        lambda: CoefficientMatrix(((1, 0), (0, 1)), ((Fraction(1), Fraction(1, 2)),)),
    ),
}


def _fields(record) -> tuple:
    return tuple(getattr(record, name) for name in type(record)._fields)


def _dataclass_twin(record):
    # a frozen dataclass of the record's class name and fields, holding the same values
    cls = type(record)
    twin = dataclasses.make_dataclass(cls.__name__, cls._fields, frozen=True)
    return twin(*_fields(record))


def test_import_of_the_cli_loads_no_dataclasses_or_inspect():
    probe = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); before = set(sys.modules); "
        "import cvforms.cli; print(*sorted(set(sys.modules) - before))"
    )
    proc = subprocess.run([sys.executable, "-I", "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    added = proc.stdout.split()
    assert "cvforms.cli" in added
    assert not {"dataclasses", "inspect"} & set(added)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
class TestRecords:
    def test_plain_slots_class(self, cls):
        record = RECORDS[cls][0]()
        assert issubclass(cls, Record) and not dataclasses.is_dataclass(record)
        assert not hasattr(record, "__dict__")
        assert set(cls._fields) <= set(cls.__slots__)

    def test_equal_fields_give_equal_records_and_hashes(self, cls):
        make, make_other = RECORDS[cls]
        a, b = make(), make()
        assert a is not b and a == b and not a != b
        assert hash(a) == hash(b) == hash(_fields(a))
        assert a != make_other() and make_other() != a

    def test_another_class_with_the_same_fields_is_unequal(self, cls):
        record = RECORDS[cls][0]()
        twin = object.__new__(type(cls.__name__, (Record,), {"__slots__": cls._fields, "_fields": cls._fields}))
        for name, value in zip(cls._fields, _fields(record)):
            setattr(twin, name, value)
        assert record.__eq__(twin) is NotImplemented
        assert record != twin and twin != record
        assert record != _fields(record) and record != _dataclass_twin(record)

    def test_repr_and_hash_are_those_of_the_dataclass(self, cls):
        record = RECORDS[cls][0]()
        twin = _dataclass_twin(record)
        assert repr(record) == repr(twin)
        assert hash(record) == hash(twin)


def test_ribbon_equality_ignores_its_falls():
    ribbon = Ribbon(((1, 1), (0, 1), (0, 2)))
    assert ribbon.falls() == (True, False)
    other = copy.copy(ribbon)
    other._falls = (False, True)
    assert other == ribbon and hash(other) == hash(ribbon)
    assert repr(other) == repr(ribbon) == "Ribbon(boxes=((1, 1), (0, 1), (0, 2)))"
    assert Ribbon._fields == ("boxes",)
