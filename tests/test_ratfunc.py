from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extsq import ratfunc
from extsq.polynomials import PolyRing
from extsq.ratfunc import FactorBasis, FactoredFraction, RatFunc, quotient

R = PolyRing(("x", "y"))
X, Y = R.var("x"), R.var("y")


def test_canonical_form_cancels():
    f = RatFunc((X + Y) * (X - Y), (X + Y) * R.one())
    assert f == RatFunc.from_poly(X - Y)
    assert f.is_polynomial()
    assert f.as_polynomial() == X - Y


def test_sign_normalization():
    a = RatFunc(X, -(Y + 1))
    b = RatFunc(-X, Y + 1)
    assert a == b
    assert hash(a) == hash(b)


def test_zero_and_division():
    z = RatFunc.from_poly(R.zero())
    assert z.is_zero()
    with pytest.raises(ZeroDivisionError):
        RatFunc(X, R.zero())
    with pytest.raises(ZeroDivisionError):
        RatFunc.from_poly(X) / z
    with pytest.raises(ZeroDivisionError, match="negative power"):
        z**-2


def test_product_of_canonical_operands_forms_two_gcds(monkeypatch):
    """Only the two cross gcds: the reduced product is coprime already."""
    gcd = ratfunc.poly_gcd
    calls = []

    def counting(f, g):
        calls.append(None)
        return gcd(f, g)

    a = RatFunc((X + Y) * (X - 1), (Y + 2) * (X + 3))
    b = RatFunc((Y + 2) * (Y - X), (X + Y) * (Y + 5))
    monkeypatch.setattr(ratfunc, "poly_gcd", counting)
    product = a * b
    assert len(calls) == 2
    assert product == RatFunc((X - 1) * (Y - X), (X + 3) * (Y + 5))


def test_a_unit_denominator_forms_no_gcd(monkeypatch):
    """A polynomial operand's denominator is one, so its cross gcd is skipped."""
    a = RatFunc((X + Y) * (X - 1), (Y + 2) * (X + 3))
    want = RatFunc((X + Y) * (X - 1), Y + 2)
    calls = []
    gcd = ratfunc.poly_gcd
    monkeypatch.setattr(ratfunc, "poly_gcd", lambda f, g: calls.append(None) or gcd(f, g))
    assert a * RatFunc.from_poly(X + 3) == want
    assert len(calls) == 1
    assert RatFunc.from_poly(X) * RatFunc.from_poly(Y) == RatFunc.from_poly(X * Y)
    assert RatFunc(X - Y, R.one()) == RatFunc.from_poly(X - Y)
    assert len(calls) == 1


def test_quotient_refuses_inexact_operands():
    """A float or complex operand is a TypeError in either position, also
    against a RatFunc, whose reflected division hands it back."""
    for exact in (2, Fraction(1, 3), X + 1, RatFunc(X, Y + 1)):
        for inexact in (1.5, 2j):
            with pytest.raises(TypeError):
                quotient(exact, inexact)
            with pytest.raises(TypeError):
                quotient(inexact, exact)


def nonzero_polys():
    term = st.tuples(
        st.tuples(st.integers(0, 2), st.integers(0, 2)),
        st.integers(-4, 4),
    )
    return (
        st.lists(term, max_size=3)
        .map(lambda ts: sum((R.monomial(e, c) for e, c in ts), R.zero()))
        .filter(lambda p: not p.is_zero())
    )


def ratfuncs():
    return st.builds(RatFunc, nonzero_polys(), nonzero_polys())


@given(ratfuncs(), ratfuncs(), ratfuncs())
@settings(max_examples=40, deadline=None)
def test_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a - b) + b == a
    if not b.is_zero():
        assert (a / b) * b == a


@given(ratfuncs())
@settings(max_examples=30, deadline=None)
def test_inverse(a):
    if a.is_zero():
        return
    one = RatFunc.from_poly(R.one())
    assert a * (one / a) == one
    assert a**2 == a * a
    assert a**-1 == one / a


def test_const_and_coercion():
    half = RatFunc.const(R, Fraction(1, 2))
    assert half * 2 == RatFunc.const(R, 1)
    f = RatFunc.from_poly(X)
    assert f + 1 == RatFunc.from_poly(X + 1)
    assert 1 - f == RatFunc.from_poly(1 - X)
    assert 2 / f == RatFunc(R.const(2), X)


def test_evaluate():
    f = RatFunc(X**2 - Y, X + 1)
    vals = {"x": Fraction(2), "y": Fraction(1)}
    assert f.evaluate(vals) == Fraction(3, 3)
    with pytest.raises(ZeroDivisionError):
        f.evaluate({"x": Fraction(-1), "y": Fraction(0)})


def test_factored_fraction_matches_ratfunc():
    basis = FactorBasis(R)
    f = RatFunc(X + Y, X - Y)
    g = RatFunc(X, (X - Y) * (Y + 1))
    ff = FactoredFraction.from_ratfunc(basis, f)
    gg = FactoredFraction.from_ratfunc(basis, g)
    for op in ("__add__", "__sub__", "__mul__", "__truediv__"):
        got = getattr(ff, op)(gg).to_ratfunc()
        want = getattr(f, op)(g)
        assert got == want
