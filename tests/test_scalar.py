import re
import time
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kakeya.errors import DivisionByZero, FieldMismatch, MalformedFile, UnsupportedField
from kakeya.projgeom import ProjPoint, span
from kakeya.scalar import (
    DEFAULT_REAL_TOLERANCE,
    PrimeField,
    RationalField,
    RealField,
    Scalar,
    field_from_json,
)

F5 = PrimeField(5)
F7 = PrimeField(7)
QQ = RationalField()
RR = RealField()


def test_prime_field_requires_prime():
    with pytest.raises(UnsupportedField):
        PrimeField(6)
    with pytest.raises(UnsupportedField):
        PrimeField(1)
    PrimeField(2)
    PrimeField(101)


def test_prime_field_decides_large_moduli_quickly():
    start = time.monotonic()
    assert PrimeField(2**61 - 1).p == 2**61 - 1
    with pytest.raises(UnsupportedField, match="too large"):
        PrimeField((2**31 - 1) * (2**61 - 1))
    # a strong pseudoprime to the twelve bases 2..37; base 41 exposes it
    with pytest.raises(UnsupportedField, match="not prime"):
        PrimeField(318665857834031151167461)
    assert time.monotonic() - start < 1


def test_prime_field_canonical_residues():
    a = F5(7)
    assert a == 2
    assert F5.neg(a) == 3
    assert F5(-1) == F5(4) == 4
    assert F5.from_str("5") == 0 and F5.from_str("-1") == 4


def test_prime_field_inverse():
    for raw in range(1, 7):
        x = F7(raw)
        assert F7.mul(x, F7.inv(x)) == 1
    with pytest.raises(DivisionByZero):
        F7.inv(F7(0))


@given(st.integers(), st.integers())
def test_prime_field_addition_is_mod_p(a, b):
    assert F7.add(F7(a), F7(b)) == (a + b) % 7


@given(st.fractions(), st.fractions())
def test_rational_field_is_exact(x, y):
    assert QQ.add(QQ(x), QQ(y)) == x + y
    assert QQ.mul(QQ(x), QQ(y)) == x * y


@settings(max_examples=200)
@given(st.fractions())
def test_rational_string_round_trip(x):
    s = QQ.to_str(QQ(x))
    assert QQ.from_str(s) == QQ(x)


def test_real_equality_uses_tolerance():
    a = RR(1.0)
    b = RR(1.0 + DEFAULT_REAL_TOLERANCE / 10)
    c = RR(1.0 + 1e-3)
    assert RR.eq(a, b)
    assert not RR.eq(a, c)
    assert RR.is_zero(RR.sub(a, b))


def test_real_tolerance_lies_between_zero_and_one():
    for tol in (0.0, -1e-9, 1.0, 2.5, float("inf"), float("nan")):
        with pytest.raises(UnsupportedField):
            RealField(tol)
    assert RealField(0.5).tol == 0.5


def test_real_inverse_rejects_near_zero():
    with pytest.raises(DivisionByZero):
        RR.inv(RR(1e-12))
    assert RR.eq(RR.mul(RR.inv(RR(2.0)), RR(2.0)), RR(1.0))


def test_real_scalars_are_unhashable():
    with pytest.raises(TypeError):
        hash(Scalar(RR(1.5), RR))


def test_real_points_and_flats_are_unhashable():
    # equal up to tolerance, so a raw-float hash would split them
    a = ProjPoint(RR, [1.0, 0.5, 1.0])
    b = ProjPoint(RR, [1.0, 0.5 + 1e-12, 1.0])
    assert a == b
    for x in (a, b, span(a, ProjPoint(RR, [0.0, 1.0, 0.0]))):
        with pytest.raises(TypeError):
            hash(x)
    exact = ProjPoint(F5, [2, 1, 2])
    assert len({exact, ProjPoint(F5, [1, 3, 1])}) == 1


def test_exact_scalars_hash_consistently():
    assert hash(Scalar(F5(2), F5)) == hash(Scalar(F5(7), F5))
    assert hash(Scalar(QQ(Fraction(1, 2)), QQ)) == hash(Scalar(QQ(Fraction(2, 4)), QQ))


def test_cross_field_arithmetic_is_refused():
    with pytest.raises(FieldMismatch):
        Scalar(F5(1), F5) + Scalar(F7(1), F7)
    with pytest.raises(FieldMismatch):
        Scalar(F5(1), F5) == Scalar(QQ(1), QQ)


def test_power_matches_repeated_multiplication():
    # F_7 and Q exactly, value type included; the reals up to the tolerance; a negative exponent is refused
    for fld, x in ((F7, F7(3)), (QQ, QQ(Fraction(-3, 2))), (RR, RR(1.1))):
        acc = fld.one
        for k in range(12):
            power = fld.pow(x, k)
            if fld.exact:
                assert (type(power), power) == (type(acc), acc)
            else:
                assert fld.eq(power, acc)
            assert Scalar(x, fld) ** k == Scalar(acc, fld)
            acc = fld.mul(acc, x)
        with pytest.raises(ValueError):
            fld.pow(x, -1)


@pytest.mark.parametrize(
    "make,zero,one,kind",
    [(lambda: PrimeField(7), 0, 1, int), (RationalField, Fraction(0), Fraction(1), Fraction), (RealField, 0.0, 1.0, float)],
    ids=["prime", "rational", "real"],
)
def test_field_zero_and_one_are_stored_not_recomputed(make, zero, one, kind, monkeypatch):
    fld, twin = make(), make()
    state = dict(vars(fld))
    monkeypatch.setattr(type(fld), "__call__", lambda self, value: pytest.fail("zero or one recomputed"))
    assert (fld.zero, fld.one) == (zero, one)
    assert type(fld.zero) is kind and type(fld.one) is kind
    assert fld.zero is fld.zero and fld.one is fld.one
    # nothing is written into the instance (that would slow its attribute reads),
    # and equality and hashing are as before
    assert vars(fld) == state
    assert fld == twin and hash(fld) == hash(twin) and len({fld, twin}) == 1


def test_field_json_round_trip():
    for fld in (F5, QQ, RealField(1e-6)):
        doc = fld.to_json()
        assert field_from_json(doc) == fld


def test_rational_to_str_always_carries_denominator():
    assert QQ.to_str(QQ(3)) == "3/1"
    assert QQ.to_str(QQ(Fraction(-2, 6))) == "-1/3"


def test_scalar_from_str_inverts_to_str():
    for fld, raws in ((F7, [0, 1, 6]), (QQ, [Fraction(5, 3), -2])):
        for raw in raws:
            s = fld(raw)
            assert fld.from_str(fld.to_str(s)) == s
    r = RealField()(0.125)
    assert RealField().from_str(RealField().to_str(r)) == r


SPELLINGS = ["007", " 3", "3 ", "1_0", "-1", "+3", "2/4", "-6/-4", "1e2", "-0.0", "0.0", "1.5", "x", "", "1/0", "5e-324", "1e-400"]


@pytest.mark.parametrize("make", [partial(PrimeField, 7), RationalField, RealField], ids=["prime", "rational", "real"])
def test_values_from_json_returns_what_from_str_returns(make):
    ref, fld = make(), make()
    for s in SPELLINGS:
        try:
            expected = ref.from_str(s)
        except (ValueError, MalformedFile) as exc:
            for _ in range(2):  # a failed parse is not remembered: it fails again
                with pytest.raises(type(exc)):
                    fld.values_from_json(["0", s], "point")
            continue
        for _ in range(2):  # parsed, then read back from the memo
            got = fld.values_from_json([s, "1", s], "point")
            assert list(map(repr, got)) == [repr(expected), repr(ref.from_str("1")), repr(expected)]


def test_values_from_json_parses_each_distinct_string_once(monkeypatch):
    fld, seen = PrimeField(7), []
    parse = fld.from_str
    monkeypatch.setattr(fld, "from_str", lambda s: seen.append(s) or parse(s))
    assert fld.values_from_json(["1", "08", "1", "8"], "point") == [1, 1, 1, 1]
    assert fld.values_from_json(["8", "1"], "row") == [1, 1]
    assert seen == ["1", "08", "8"]


@pytest.mark.parametrize(
    "doc,message",
    [
        ("1234", "point has the wrong type (str)"),
        ({"1": "2"}, "point has the wrong type (dict)"),
        (None, "point has the wrong type (NoneType)"),
        ([["1"], "0"], "point entry has the wrong type (list)"),
        (["1", {"a": 1}], "point entry has the wrong type (dict)"),
        (["1", 1], "point entry has the wrong type (int)"),
        ([True, "1"], "point entry has the wrong type (bool)"),
        (["1", None], "point entry has the wrong type (NoneType)"),
    ],
)
def test_values_from_json_names_what_is_not_a_list_of_strings(doc, message):
    for fld in (F7, QQ, RR):
        with pytest.raises(MalformedFile) as info:
            fld.values_from_json(doc, "point")
        assert str(info.value) == message


@pytest.mark.parametrize("s", ["nan", "inf", "-inf", "1e999", "-1e999", "Infinity", "-NaN", " nan "])
def test_real_from_str_refuses_non_finite_values(s):
    with pytest.raises(MalformedFile):
        RR.from_str(s)
    with pytest.raises(MalformedFile, match=f"^point entry {re.escape(repr(s))} is not finite$"):
        RR.values_from_json(["1.0", s], "point")


def test_rational_from_str_refuses_a_zero_denominator():
    with pytest.raises(MalformedFile, match=r"^grid axis entry '1/0' has denominator 0$"):
        QQ.values_from_json(["1/1", "1/0"], "grid axis")
