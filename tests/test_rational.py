import dataclasses
import operator
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extsq.rational import (
    RationalComplex,
    format_rational,
    parse_rational,
    parse_rational_complex,
)


@pytest.mark.parametrize(
    "text,value",
    [
        ("3/4", Fraction(3, 4)),
        ("-3/4", Fraction(-3, 4)),
        ("0.25", Fraction(1, 4)),
        ("-1.5", Fraction(-3, 2)),
        ("7", Fraction(7)),
        ("0", Fraction(0)),
    ],
)
def test_parse_rational(text, value):
    assert parse_rational(text) == value


def test_parse_rational_rejects_junk():
    for bad in ("", "x", "1/0", "1//2", "1.2.3"):
        with pytest.raises(ValueError):
            parse_rational(bad)


@pytest.mark.parametrize("text", ["1e4298", "-1e-4298", ".1e-4298", "12.5e4296"])
def test_literals_below_the_digit_bound_print(text):
    # mantissa digits plus exponent size stay below 4300, so every expansion
    # prints within Python's int-string limit
    assert parse_rational(format_rational(parse_rational(text))) == parse_rational(text)


@pytest.mark.parametrize("text", ["1e4300", "1e4299", "1e-4299", "12.5e4297", "0.1e-4298"])
def test_literals_at_the_digit_bound_are_refused(text):
    with pytest.raises(ValueError, match=f"not a rational literal: '{text}' .*4300 digits"):
        parse_rational(text)


def test_format_round_trip():
    for q in (Fraction(3, 7), Fraction(-11, 2), Fraction(5), Fraction(0)):
        assert parse_rational(format_rational(q)) == q


@pytest.mark.parametrize(
    "text,re,im",
    [
        ("1+0i", 1, 0),
        ("0+0.2i", 0, Fraction(1, 5)),
        ("-1/3-2i", Fraction(-1, 3), -2),
        ("i", 0, 1),
        ("-i", 0, -1),
        ("0.5", Fraction(1, 2), 0),
        ("2i", 0, 2),
        ("-3/4+1/2i", Fraction(-3, 4), Fraction(1, 2)),
    ],
)
def test_parse_rational_complex(text, re, im):
    z = parse_rational_complex(text)
    assert z == RationalComplex(re, im)


def test_complex_str_round_trip():
    for z in (
        RationalComplex(Fraction(1, 3), Fraction(-2, 7)),
        RationalComplex(0, 1),
        RationalComplex(-2, 0),
        RationalComplex(0, 0),
    ):
        assert parse_rational_complex(str(z)) == z


def test_from_value_is_exact_on_floats():
    z = RationalComplex.from_value(0.5 - 0.25j)
    assert z == RationalComplex(Fraction(1, 2), Fraction(-1, 4))
    assert RationalComplex.from_value(z) is z
    assert RationalComplex.from_value(3) == RationalComplex(3, 0)
    assert RationalComplex.from_value("1/2+i") == RationalComplex(Fraction(1, 2), 1)


def test_parts_are_fractions_and_fractions_are_kept():
    half = Fraction(1, 2)
    z = RationalComplex(half, 3)
    assert z.real is half
    assert type(z.imag) is Fraction and z.imag == 3
    w = RationalComplex(0.25, True)
    assert (type(w.real), type(w.imag)) == (Fraction, Fraction)
    assert w == RationalComplex(Fraction(1, 4), 1)


def test_algebra():
    a = RationalComplex(Fraction(1, 2), Fraction(1, 3))
    b = RationalComplex(Fraction(-1, 4), 2)
    assert a + b == RationalComplex(Fraction(1, 4), Fraction(7, 3))
    assert a - b == RationalComplex(Fraction(3, 4), Fraction(-5, 3))
    assert -a == RationalComplex(Fraction(-1, 2), Fraction(-1, 3))
    prod = a * b
    assert complex(prod) == pytest.approx(complex(a) * complex(b))
    assert a.conjugate() == RationalComplex(Fraction(1, 2), Fraction(-1, 3))


def test_predicates_and_hash():
    seen = {RationalComplex(1, 2): "a"}
    assert seen[RationalComplex(1, 2)] == "a"


def test_parse_rational_complex_with_exponents():
    assert parse_rational_complex("2+1e-3i") == RationalComplex(2, Fraction(1, 1000))
    assert parse_rational_complex("1e-3i") == RationalComplex(0, Fraction(1, 1000))
    assert parse_rational_complex("-1.5E+2-2e-1i") == RationalComplex(-150, Fraction(-1, 5))
    assert parse_rational_complex("1e2") == RationalComplex(100, 0)


rationals = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**4))


@given(rationals, rationals)
@settings(max_examples=200, deadline=None)
def test_str_round_trip(re, im):
    z = RationalComplex(re, im)
    assert parse_rational_complex(str(z)) == z


complex_rationals = st.builds(RationalComplex, rationals, rationals)
finite_floats = st.floats(-1e6, 1e6, allow_nan=False)
operands = st.one_of(
    complex_rationals,
    st.integers(-10**6, 10**6),
    rationals,
    st.booleans(),
    finite_floats,
    st.builds(complex, finite_floats, finite_floats),
    complex_rationals.map(str),
)
OPERATORS = {
    operator.add: lambda a, b: (a.real + b.real, a.imag + b.imag),
    operator.sub: lambda a, b: (a.real - b.real, a.imag - b.imag),
    operator.mul: lambda a, b: (
        a.real * b.real - a.imag * b.imag,
        a.real * b.imag + a.imag * b.real,
    ),
}


@given(complex_rationals, operands)
@settings(max_examples=300, deadline=None)
def test_operators_match_the_componentwise_reference(z, x):
    # int and Fraction operands take the real fast paths; the reference
    # converts every operand with from_value first
    w = RationalComplex.from_value(x)
    for op, reference in OPERATORS.items():
        for got, pair in ((op(z, x), (z, w)), (op(x, z), (w, z))):
            assert type(got) is RationalComplex
            assert (got.real, got.imag) == reference(*pair)
            assert type(got.real) is Fraction and type(got.imag) is Fraction
            assert hash(got) == hash((got.real, got.imag))


def decimal_literals():
    digits = st.integers(0, 10**6).map(str)
    point = st.one_of(st.just(""), digits.map(lambda d: "." + d))
    exponent = st.one_of(
        st.just(""),
        st.tuples(st.sampled_from("eE"), st.sampled_from(["", "+", "-"]), st.integers(0, 12))
        .map(lambda t: f"{t[0]}{t[1]}{t[2]}"),
    )
    sign = st.sampled_from(["", "-"])
    return st.tuples(sign, digits, point, exponent).map("".join)


@given(decimal_literals(), decimal_literals())
@settings(max_examples=200, deadline=None)
def test_decimal_and_exponent_round_trip(re_lit, im_lit):
    joiner = "" if im_lit.startswith("-") else "+"
    z = parse_rational_complex(f"{re_lit}{joiner}{im_lit}i")
    assert z == RationalComplex(Fraction(re_lit), Fraction(im_lit))
    assert parse_rational_complex(f"{im_lit}i") == RationalComplex(0, Fraction(im_lit))
    assert parse_rational_complex(re_lit) == RationalComplex(Fraction(re_lit), 0)


def test_hash_is_the_dataclass_value_and_cached():
    a, b = Fraction(-3, 7), Fraction(5, 2)
    z = RationalComplex(a, b)
    assert z._hash is None
    assert hash(z) == hash((a, b))
    assert z._hash == hash((a, b))
    assert [f.name for f in dataclasses.fields(RationalComplex)] == ["real", "imag"]
    assert repr(z) == "RationalComplex(real=Fraction(-3, 7), imag=Fraction(5, 2))"


def test_equal_values_from_different_arithmetic_hash_equal():
    x = RationalComplex(Fraction(1, 3), Fraction(-1, 2))
    hash(x)
    y = RationalComplex(Fraction(2, 3), Fraction(1, 4)) * RationalComplex(0, -2)
    y = y + RationalComplex(Fraction(-1, 6), Fraction(5, 6))
    assert x == y and hash(x) == hash(y)
    assert len({x, y, parse_rational_complex("1/3-1/2i")}) == 1
    assert hash(RationalComplex(2, 0)) == hash(RationalComplex.from_value(2)) == hash((2, 0))


def test_hash_survives_a_pickle_round_trip():
    z = RationalComplex(Fraction(9, 4), Fraction(-1, 3))
    for warm in (False, True):
        if warm:
            hash(z)
        back = pickle.loads(pickle.dumps(z))
        assert back == z and hash(back) == hash(z) == hash((z.real, z.imag))
