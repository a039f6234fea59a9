from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extsq import polynomials
from extsq.matrices import generic_matrix
from extsq.polynomials import (
    MAX_TOTAL_DEGREE,
    DegreeOverflowError,
    PolyRing,
    Polynomial,
    _gcd_points,
    _images,
    poly_gcd,
)

R = PolyRing(("x", "y"))
X, Y = R.var("x"), R.var("y")


def polys(max_terms=4, max_exp=3, max_coeff=5):
    term = st.tuples(
        st.tuples(st.integers(0, max_exp), st.integers(0, max_exp)),
        st.integers(-max_coeff, max_coeff),
    )
    return st.lists(term, max_size=max_terms).map(
        lambda ts: sum((R.monomial(e, c) for e, c in ts), R.zero())
    )


def test_construction_drops_zero_terms():
    p = Polynomial(R, {(1, 0): 0, (0, 1): 2})
    assert p == 2 * Y
    assert (X - X).is_zero()


def test_constant_helpers():
    assert R.const(0).is_zero()
    assert R.one().is_one()
    assert R.const(Fraction(2, 3)).constant_value() == Fraction(2, 3)
    with pytest.raises(ValueError):
        (X + 1).constant_value()


def test_degrees():
    p = X**2 * Y + X * Y**3 + 1
    assert p.total_degree() == 4
    assert p.degree_in("x") == 2
    assert p.degree_in("y") == 3
    assert set(p.support_vars()) == {"x", "y"}


@given(polys(), polys(), polys())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + R.zero() == a
    assert a * R.one() == a
    assert (a - a).is_zero()


@given(polys())
@settings(max_examples=40, deadline=None)
def test_evaluate_is_hom(p):
    vals = {"x": Fraction(2, 3), "y": Fraction(-1, 2)}
    q = p * (X + Y) + 1
    assert q.evaluate(vals) == p.evaluate(vals) * (vals["x"] + vals["y"]) + 1


def test_exact_div_and_remainder():
    p = (X + Y) * (X - Y)
    assert p.exact_div(X + Y) == X - Y
    assert (X + 1).exact_div(Y) is None
    with pytest.raises(ZeroDivisionError):
        (X + 1).exact_div(R.zero())


def test_exact_div_by_a_monomial():
    assert (6 * X**2 * Y + 4 * X * Y).exact_div(2 * X * Y) == 3 * X + 2
    assert (X * Y).exact_div(3 * X) == Fraction(1, 3) * Y
    assert (X**2 * Y + 1).exact_div(X) is None
    assert (X**2 * Y + X).exact_div(X * Y) is None


@pytest.mark.parametrize("d", [1, -1, 3, Fraction(1, 2), Fraction(-3, 7)])
def test_exact_div_by_a_constant(d):
    for p in (6 * X**2 - 4 * Y + 3, Fraction(3, 2) * X * Y - Fraction(5, 7)):
        got = p.exact_div(R.const(d))
        assert got.terms.keys() == p.terms.keys()
        for e, c in got.terms.items():
            want = Fraction(p.terms[e]) / d
            assert c == want
            assert type(c) is (int if want.denominator == 1 else Fraction)


@given(polys(), st.integers(0, 3), st.integers(0, 3), st.integers(-4, 4).filter(bool))
@settings(max_examples=40, deadline=None)
def test_exact_div_by_a_monomial_undoes_mul(p, i, j, c):
    m = R.monomial((i, j), c)
    assert (p * m).exact_div(m) == p


@given(polys(max_terms=3, max_exp=2), polys(max_terms=3, max_exp=2))
@settings(max_examples=30, deadline=None)
def test_gcd_divides_both(a, b):
    g = poly_gcd(a, b)
    if a.is_zero() and b.is_zero():
        assert g.is_zero()
        return
    assert a.exact_div(g) * g == a
    assert b.exact_div(g) * g == b


def test_gcd_of_shared_factor():
    common = X + 2 * Y
    g = poly_gcd(common * (X - 1), common * (Y + 3))
    c, prim = g.content_and_primitive()
    _, want = common.content_and_primitive()
    assert prim == want or prim == -want


def test_content_and_primitive():
    p = 6 * X + 4 * Y
    c, prim = p.content_and_primitive()
    assert prim.scale(c) == p
    assert prim == 3 * X + 2 * Y or prim == -(3 * X + 2 * Y)


def test_pow():
    assert (X + 1) ** 3 == X**3 + 3 * X**2 + 3 * X + 1
    assert (X + 1) ** 0 == R.one()
    with pytest.raises(ValueError):
        (X + 1) ** -1


def test_str_round_trip_spot():
    assert str(R.zero()) == "0"
    s = str(X**2 - Y + 1)
    assert "x^2" in s and "y" in s


def test_divisibility_test_catches_a_borrow_between_fields():
    # x^2 and x*y have the same total degree, and x^2 - x*y leaves a
    # nonnegative x exponent; only the y field borrows.
    assert (X**2).exact_div(X * Y) is None
    assert (Y**3).exact_div(X) is None
    assert (X**2 * Y + X * Y**2).exact_div(X * Y) == X + Y
    with pytest.raises(ValueError):
        (X**2).shift_down((1, 1))
    assert (X**2 * Y).shift_down((2, 0)) == Y


def test_zero_variable_ring():
    R0 = PolyRing(())
    six, half = R0.const(6), R0.const(Fraction(1, 2))
    assert six * half == R0.const(3)
    assert six.exact_div(R0.const(4)) == R0.const(Fraction(3, 2))
    assert six.leading() == ((), 6)
    assert six.monomial_content() == ()
    assert six.total_degree() == 0
    assert R0.monomial((), 5) == R0.const(5)
    assert poly_gcd(six, R0.const(4)).is_one()
    assert str(six) == "6"


def test_leading_and_content_are_exponent_tuples():
    p = 3 * X**2 * Y + X * Y**3 - Y
    assert p.leading() == ((1, 3), 1)
    assert (X**2 * Y + X * Y**3).monomial_content() == (1, 1)
    assert R.zero().monomial_content() == (0, 0)
    assert Polynomial(R, {(2, 1): Fraction(1, 2)}).leading() == ((2, 1), Fraction(1, 2))


def test_total_degree_beyond_the_packed_bound_raises():
    top = R.monomial((MAX_TOTAL_DEGREE, 0))
    assert top.total_degree() == MAX_TOTAL_DEGREE
    assert top.degree_in("x") == MAX_TOTAL_DEGREE
    with pytest.raises(DegreeOverflowError):
        top * Y
    with pytest.raises(DegreeOverflowError):
        R.monomial((MAX_TOTAL_DEGREE, 1))
    with pytest.raises(DegreeOverflowError):
        Polynomial(R, {(1, MAX_TOTAL_DEGREE): 1})
    with pytest.raises(DegreeOverflowError):
        X ** (MAX_TOTAL_DEGREE + 1)
    with pytest.raises(DegreeOverflowError):
        (top + 1) * (Y + 1)
    assert issubclass(DegreeOverflowError, OverflowError)


# -- the coprimality certificate in the gcd ---------------------------------


def _refuse(*args):
    raise AssertionError("the certificate should have settled this gcd")


def test_coprime_generic_minors_settle_by_the_certificate(monkeypatch):
    g = generic_matrix(4)
    minors = [
        g.submatrix(rows, cols).det().num
        for rows, cols in [((0, 1), (2, 3)), ((1, 2, 3), (1, 2, 3)), ((0, 2, 3), (1, 2, 3)),
                           ((0, 1, 2, 3), (0, 1, 2, 3)), ((1, 3), (0, 1))]
    ]
    monkeypatch.setattr(polynomials, "_content_in", _refuse)
    monkeypatch.setattr(polynomials, "_prs_gcd", _refuse)
    for a, b in combinations(minors, 2):
        assert poly_gcd(a, b).is_one()


def _refuse_general(*args):
    raise AssertionError("a monomial or constant operand needs no general gcd")


def test_monomial_and_constant_operands_are_answered_from_exponents(monkeypatch):
    ring = PolyRing(("x", "y", "z"))
    x, y, z = (ring.var(n) for n in ring.names)
    cases = [
        # (operand, other, gcd)
        (ring.const(7), x * y + 1, ring.one()),
        (ring.const(Fraction(-2, 3)), x**2 * z, ring.one()),
        (ring.const(5), ring.const(Fraction(1, 4)), ring.one()),
        (-3 * x**2 * y, x**3 * z + x * y**2, x),
        (Fraction(1, 2) * x * y**2 * z, 6 * x**2 * y * z**3 - 4 * x * y**3 * z, x * y * z),
        (x**2 * y, y**3 * z + x, ring.one()),
        (4 * y, -y * z + Fraction(2, 5) * y**2, y),
        (-x**3, Fraction(5, 7) * x**2, x**2),
    ]
    monkeypatch.setattr(polynomials, "_gcd_core", _refuse_general)
    monkeypatch.setattr(Polynomial, "_shift_key", _refuse_general)
    monkeypatch.setattr(Polynomial, "content_and_primitive", _refuse_general)
    for m, f, want in cases:
        assert poly_gcd(f, m) == want
        assert poly_gcd(m, f) == want


def test_a_point_that_zeroes_a_leading_coefficient_proves_nothing():
    ring = PolyRing(("x", "y", "z"))
    x, y, z = (ring.var(n) for n in ring.names)
    point = next(_gcd_points(ring.nvars))
    # lc_x(common) = y - y0 vanishes at the first point, where the images in
    # x of f and g are coprime although x occurs in their gcd.
    common = x * (y - point[1]) + z
    f, g = common * (x + z + 1), common * (x - 2 * z + 3)
    (fx,), (gx,) = _images(f, ["x"], point), _images(g, ["x"], point)
    assert fx[-1] == gx[-1] == 0
    assert poly_gcd(f, g) == common
