"""The Record base of the result records, what importing the CLI loads, and
the Python grammar the package sources need."""

import ast
import functools
import os
import pathlib
import subprocess
import sys

import pytest

import detsieve
from detsieve.applications import QuadricExponents, SubvarietyReport
from detsieve.determinant import AuxiliaryPolynomial, FalsificationRecord
from detsieve.enumeration import ResidueData, SideCondition
from detsieve.errors import ContractViolation, Record
from detsieve.exponents import BoxBounds, ExactLog, build_exponent_set
from detsieve.polynomials import IntegerPolynomial


class Index:
    """An integer type that is not int."""

    def __init__(self, v):
        self.v = v

    def __index__(self):
        return self.v


class TestConstruction:
    def test_positional_and_keyword_build_the_same_record(self):
        a = BoxBounds(2, 3, 4)
        assert a == BoxBounds(b1=2, b2=3, b3=4) == BoxBounds(2, b3=4, b2=3)
        assert (a.b1, a.b2, a.b3) == (2, 3, 4)

    def test_every_field_by_keyword_in_any_order(self):
        x = IntegerPolynomial.variable(3, 1)
        want = AuxiliaryPolynomial(x, ((0, 1, 0),), False, "leftover")
        got = AuxiliaryPolynomial(role="leftover", coprime_to_f=False,
                                  vanishes_on=((0, 1, 0),), poly=x)
        assert got == want and got._values() == (x, ((0, 1, 0),), False, "leftover")
        assert BoxBounds(b3=4, b1=2, b2=3).bounds == (2, 3, 4)
        with pytest.raises(TypeError, match="no field 'b4'"):
            BoxBounds(b3=4, b1=2, b4=3)
        with pytest.raises(ContractViolation):
            BoxBounds(b3=4, b1=2, b2=True)

    def test_defaults(self):
        assert ResidueData().primes == ()
        x = IntegerPolynomial.variable(3, 1)
        assert AuxiliaryPolynomial(x, (), True).role == "class-cover"
        assert AuxiliaryPolynomial(x, (), True, role="leftover").role == "leftover"
        rec = FalsificationRecord((0,), 1, 1.0, ())
        assert rec.residue_valuations == ()

    def test_missing_extra_and_repeated_arguments(self):
        with pytest.raises(TypeError, match="missing field 'b3'"):
            BoxBounds(2, 3)
        with pytest.raises(TypeError, match="missing field 'vanishes_on'"):
            AuxiliaryPolynomial(IntegerPolynomial.variable(3, 1))
        with pytest.raises(TypeError, match="3 fields, not 4"):
            BoxBounds(2, 3, 4, 5)
        with pytest.raises(TypeError, match="no field 'b4'"):
            BoxBounds(2, 3, 4, b4=5)
        with pytest.raises(TypeError, match="field 'b1' twice"):
            BoxBounds(2, 3, 4, b1=2)

    def test_post_init_still_normalises(self):
        for bad in (True, 2.0, "3", 1):
            with pytest.raises(ContractViolation):
                BoxBounds(bad, 3, 3)
        box = BoxBounds(Index(5), 3, 3)
        assert type(box.b1) is int and box == BoxBounds(5, 3, 3)
        assert ResidueData((7, 5)).primes == (5, 7)
        side = SideCondition(IntegerPolynomial.variable(3, 1), Index(7))
        assert type(side.q) is int and side.q == 7


class TestFrozen:
    def test_assigning_or_deleting_raises(self):
        box = BoxBounds(2, 3, 4)
        with pytest.raises(AttributeError, match="frozen"):
            box.b1 = 9
        with pytest.raises(AttributeError, match="frozen"):
            box.extra = 1
        with pytest.raises(AttributeError, match="frozen"):
            del box.b2
        assert box.bounds == (2, 3, 4)

    def test_restricted_set_is_cached(self):
        E = build_exponent_set(ExactLog.power(3, 4), (2, 0, 0), BoxBounds(3, 3, 3))
        first = E.restricted_set
        assert first == frozenset(E.restricted_members)
        assert E.restricted_set is first and vars(E)["restricted_set"] is first


class TestValueSemantics:
    def test_equality_only_within_one_class(self):
        assert BoxBounds(2, 3, 4) != (2, 3, 4)
        assert BoxBounds(2, 3, 4) != BoxBounds(2, 3, 5)
        assert QuadricExponents((), ()) != SubvarietyReport((), ())
        assert QuadricExponents((1,), ()) == QuadricExponents((1,), ())

    def test_equal_records_hash_equal(self):
        a, b = BoxBounds(2, 3, 4), BoxBounds(b3=4, b2=3, b1=2)
        assert a is not b and hash(a) == hash(b)
        assert len({a, b, BoxBounds(4, 3, 2)}) == 2

        calls = []

        @functools.cache
        def volume(box):
            calls.append(box)
            return box.b1 * box.b2 * box.b3

        assert volume(a) == volume(b) == 24
        assert calls == [a]

    def test_repr(self):
        assert repr(BoxBounds(2, 3, 4)) == "BoxBounds(b1=2, b2=3, b3=4)"
        assert repr(ResidueData((7, 5))) == "ResidueData(primes=(5, 7))"
        x2 = IntegerPolynomial.variable(3, 1)
        assert repr(SideCondition(x2, 3)) == "SideCondition(g=x2, q=3)"


class TestSubclasses:
    def test_fields_follow_annotations_and_subclasses_extend_them(self):
        class Pair(Record):
            left: int
            right: int = 0

        class Triple(Pair):
            label: str = "t"

        assert list(Pair._fields) == ["left", "right"]
        assert list(Triple._fields) == ["left", "right", "label"]
        assert Triple(1) == Triple(1, 0, "t") != Pair(1)
        assert repr(Triple(1, label="u")).endswith("Triple(left=1, right=0, label='u')")


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # a fresh interpreter: this test process has loaded both through pytest
    src = pathlib.Path(detsieve.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import sys, detsieve, detsieve.cli; print(' '.join(sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout.split()
    assert "detsieve.cli" in out
    assert "dataclasses" not in out and "inspect" not in out
    # the scalars are Python ints and Fractions: no mpmath either
    assert "mpmath" not in out


def test_sources_parse_as_python_3_10():
    # the package supports Python 3.10; this checks grammar only (syntax
    # such as except* or PEP 695 generics), not stdlib APIs added later
    paths = sorted(pathlib.Path(detsieve.__file__).resolve().parent.glob("*.py"))
    assert len(paths) >= 10
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
