"""The exact polynomial kernel and determinants against sympy as an oracle.

sympy is not a dependency of extsq, so the module is skipped without it.
Polynomials cross into sympy only through ``Polynomial.evaluate`` at sympy
symbols, and back only through the tuple-keyed constructor, so these tests
hold whatever monomial encoding the kernel uses internally.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")

from sympy.combinatorics import Permutation  # noqa: E402

from extsq import polynomials  # noqa: E402
from extsq.matrices import Matrix  # noqa: E402
from extsq.polynomials import PolyRing, Polynomial, poly_gcd  # noqa: E402
from extsq.ratfunc import RatFunc, quotient  # noqa: E402
from extsq.unfold import _Minors  # noqa: E402

NAMES = ("x", "y", "z")
R = PolyRing(NAMES)
R2 = PolyRing(NAMES[:2])
SYMS = sympy.symbols(NAMES)


def to_sympy(p: Polynomial):
    env = {name: sympy.Symbol(name) for name in p.ring.names}
    return sympy.expand(sympy.sympify(p.evaluate(env)))


def from_sympy(expr, ring=R) -> Polynomial:
    poly = sympy.Poly(expr, *sympy.symbols(ring.names), domain="QQ")
    return Polynomial(
        ring, {m: Fraction(int(c.p), int(c.q)) for m, c in poly.terms()}
    )


def coeffs(max_coeff):
    ints = st.integers(-max_coeff, max_coeff)
    fracs = st.builds(Fraction, ints, st.integers(1, 4))
    return st.one_of(ints, fracs)


def polys(max_terms=5, max_exp=3, max_coeff=6, ring=R):
    exps = st.tuples(*(st.integers(0, max_exp) for _ in ring.names))
    return st.dictionaries(exps, coeffs(max_coeff), max_size=max_terms).map(
        lambda terms: Polynomial(ring, terms)
    )


def nonzero_polys(**kw):
    return polys(**kw).filter(lambda p: not p.is_zero())


def is_nonzero_number(expr) -> bool:
    expr = sympy.cancel(expr)
    return expr.is_number and expr != 0


@given(polys(), polys())
@settings(max_examples=80, deadline=None)
def test_mul_matches_sympy(a, b):
    assert to_sympy(a * b) == sympy.expand(to_sympy(a) * to_sympy(b))
    assert a * b == from_sympy(to_sympy(a) * to_sympy(b))


@given(polys(), nonzero_polys())
@settings(max_examples=80, deadline=None)
def test_exact_div_of_products_matches_sympy(q, d):
    product = from_sympy(to_sympy(q) * to_sympy(d))
    got = product.exact_div(d)
    assert got is not None
    assert to_sympy(got) == to_sympy(q)
    sym_q, sym_r = sympy.div(to_sympy(product), to_sympy(d), *SYMS, domain="QQ")
    assert sym_r == 0
    assert to_sympy(got) == sympy.expand(sym_q)


@given(polys(max_terms=4), nonzero_polys(max_terms=3), nonzero_polys(max_terms=3))
@settings(max_examples=80, deadline=None)
def test_exact_div_of_non_multiples_matches_sympy(q, d, r):
    a = q * d + r
    sym_q, sym_r = sympy.div(to_sympy(a), to_sympy(d), *SYMS, domain="QQ")
    got = a.exact_div(d)
    if sym_r == 0:
        assert got is not None and to_sympy(got) == sympy.expand(sym_q)
    else:
        assert got is None


def test_exact_div_non_multiple_spot():
    x, y, z = (R.var(n) for n in NAMES)
    assert (x**2 * y + z).exact_div(x * y) is None
    assert (x**2).exact_div(x * y) is None
    assert ((x + y) * (z - 1) + 1).exact_div(x + y) is None


def point_values():
    """An int, a Fraction or a sympy symbol, for one variable."""
    return st.one_of(
        st.integers(-5, 5),
        st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)),
        st.sampled_from(sympy.symbols("u v")),
    )


@given(
    st.dictionaries(st.tuples(*(st.integers(0, 3) for _ in NAMES)), coeffs(6), max_size=5),
    st.tuples(*(point_values() for _ in NAMES)),
)
@settings(max_examples=120, deadline=None)
def test_evaluate_matches_sympy_substitution(terms, point):
    # the sympy side is built from the exponent tuples, not through evaluate
    want = sympy.Integer(0)
    for exps, c in terms.items():
        c = Fraction(c)
        want += sympy.Rational(c.numerator, c.denominator) * sympy.Mul(
            *(sym**k for sym, k in zip(SYMS, exps))
        )
    want = want.subs(dict(zip(SYMS, point)), simultaneous=True)
    got = Polynomial(R, terms).evaluate(dict(zip(NAMES, point)))
    assert sympy.expand(sympy.sympify(got) - want) == 0


def test_evaluate_needs_a_value_for_every_ring_variable():
    p = Polynomial(R, {(1, 0, 0): 2, (0, 0, 0): 1})  # 2x + 1: no y, no z
    assert p.evaluate({"x": Fraction(1, 2), "y": 7, "z": sympy.Symbol("u")}) == 2
    with pytest.raises(KeyError):
        p.evaluate({"x": 1, "y": 2})
    with pytest.raises(KeyError):
        R.zero().evaluate({"x": 1, "y": 2})


@given(polys(max_terms=3, max_exp=2), polys(max_terms=3, max_exp=2), polys(max_terms=3, max_exp=2))
@settings(max_examples=60, deadline=None)
def test_poly_gcd_matches_sympy(common, a, b):
    f, g = common * a, common * b
    got = poly_gcd(f, g)
    want = sympy.gcd(to_sympy(f), to_sympy(g))
    if f.is_zero() and g.is_zero():
        assert got.is_zero()
        return
    # equal up to a nonzero rational constant: sign and content
    assert is_nonzero_number(to_sympy(got) / want)


R6 = PolyRing(("a", "b", "c", "d", "e", "f"))


def multilinear(rng, nterms):
    """A nonzero integer polynomial of R6 with every exponent 0 or 1."""
    while True:
        p = Polynomial(R6, {
            tuple(rng.randint(0, 1) for _ in R6.names): rng.randint(-4, 4)
            for _ in range(nterms)
        })
        if not p.is_zero():
            return p


@pytest.mark.parametrize("planted", [False, True])
def test_poly_gcd_matches_sympy_on_multilinear_polynomials(planted):
    # exact equality: both sides are primitive with a positive leading
    # coefficient, so the gcd is unique
    rng = random.Random(61 + planted)
    trivial = 0
    for _ in range(30):
        f, g = multilinear(rng, rng.randint(2, 6)), multilinear(rng, rng.randint(2, 6))
        common = R6.one()
        if planted:
            common = multilinear(rng, rng.randint(2, 4))
            f, g = common * f, common * g
        got = poly_gcd(f, g)
        want = sympy.gcd(to_sympy(f), to_sympy(g))
        assert got == from_sympy(want, R6).content_and_primitive()[1]
        assert got.exact_div(common) is not None
        trivial += got.is_one()
    # both kinds of pair really occur
    assert trivial >= 20 if not planted else trivial == 0


def with_constant_term(rng, names, nterms):
    """A non-constant integer polynomial of R in the named variables with a
    nonzero constant term, so it has no monomial factor."""
    while True:
        terms = {
            tuple(rng.randint(0, 2) if n in names else 0 for n in NAMES): rng.randint(-5, 5)
            for _ in range(nterms)
        }
        terms[(0, 0, 0)] = rng.choice((-3, -2, -1, 1, 2, 3))
        p = Polynomial(R, terms)
        if not p.is_constant():
            return p


@pytest.mark.parametrize(
    "common_vars,cofactor_vars",
    [
        # univariate pairs with a planted common factor
        (("x",), ("x",)),
        # the common factor is free of x, so the images can prove x absent
        # from the gcd, but never y or z
        (("y", "z"), ("x", "y", "z")),
    ],
)
def test_poly_gcd_past_the_certificate_matches_sympy(monkeypatch, common_vars, cofactor_vars):
    # A non-constant common factor keeps the certificate from proving the gcd
    # is 1, and neither input divides the other, so every pair reaches the PRS.
    prs_calls = []
    real = polynomials._prs_gcd
    monkeypatch.setattr(
        polynomials, "_prs_gcd", lambda *args: prs_calls.append(args) or real(*args)
    )
    rng = random.Random(97 + len(common_vars))
    pairs = 0
    while pairs < 25:
        common = with_constant_term(rng, common_vars, rng.randint(1, 3))
        f = common * with_constant_term(rng, cofactor_vars, rng.randint(1, 4))
        g = common * with_constant_term(rng, cofactor_vars, rng.randint(1, 4))
        if f.exact_div(g) is not None or g.exact_div(f) is not None:
            continue
        pairs += 1
        before = len(prs_calls)
        got = poly_gcd(f, g)
        want = sympy.gcd(to_sympy(f), to_sympy(g))
        assert got == from_sympy(want).content_and_primitive()[1]
        assert got.exact_div(common) is not None
        assert len(prs_calls) > before


EXPONENTS = st.tuples(*(st.integers(0, 3) for _ in NAMES))


def monomial_operands():
    """A monomial or a constant with a nonzero int or Fraction coefficient."""
    return st.builds(
        R.monomial, st.one_of(EXPONENTS, st.just((0, 0, 0))), coeffs(6).filter(bool)
    )


def without_monomial_content():
    """A polynomial with a nonzero constant term, so no monomial divides it."""
    terms = st.dictionaries(EXPONENTS, coeffs(6), max_size=4)
    return st.builds(
        lambda t, c: Polynomial(R, {**t, (0, 0, 0): c}), terms, coeffs(6).filter(bool)
    )


def with_monomial_content():
    """A nonzero polynomial times a non-constant monomial."""
    return st.builds(
        lambda p, e: p * R.monomial(e), nonzero_polys(max_terms=4), EXPONENTS.filter(any)
    )


@given(monomial_operands(), st.one_of(without_monomial_content(), with_monomial_content()))
@settings(max_examples=120, deadline=None)
def test_poly_gcd_with_a_monomial_operand_matches_sympy(m, f):
    # exact equality: the primitive gcd is unique
    want = from_sympy(sympy.gcd(to_sympy(f), to_sympy(m))).content_and_primitive()[1]
    assert poly_gcd(f, m) == want
    assert poly_gcd(m, f) == want


@given(nonzero_polys(max_terms=3, max_exp=2), polys(max_terms=3, max_exp=2),
       nonzero_polys(max_terms=3, max_exp=2))
@settings(max_examples=60, deadline=None)
def test_ratfunc_canonical_form_matches_cancel(common, n, d):
    num, den = common * n, common * d
    r = RatFunc(num, den)
    want_num, want_den = sympy.fraction(sympy.cancel(to_sympy(num) / to_sympy(den)))
    got_num, got_den = to_sympy(r.num), to_sympy(r.den)
    # Same value, and the same fully cancelled num/den up to one constant.
    assert sympy.cancel(got_num / got_den - want_num / want_den) == 0
    assert is_nonzero_number(got_den / want_den)
    if r.num.is_zero():
        assert want_num == 0 and r.den.is_one()
        return
    assert is_nonzero_number(got_num / want_num)
    # The denominator is integer-primitive with a positive leading coefficient.
    sym_den = sympy.Poly(got_den, *SYMS, domain="QQ")
    assert all(c.q == 1 for c in sym_den.coeffs())
    assert sympy.igcd(*(int(c) for c in sym_den.coeffs()), 0) == 1
    assert sym_den.LC(order="grlex") > 0


def _random_poly(rng, max_terms=2, max_exp=2):
    while True:
        terms = {
            tuple(rng.randint(0, max_exp) for _ in NAMES): rng.choice((-3, -2, -1, 1, 2, 3))
            for _ in range(rng.randint(1, max_terms))
        }
        p = Polynomial(R, terms)
        if not p.is_zero():
            return p


def _planted_pair(rng, kind):
    """Two canonical RatFuncs with planted common factors: a numerator factor
    of one in the other's denominator, a shared denominator factor, or a
    second operand that cancels part of the first (so a sum's numerator
    shares a factor with the denominators' gcd)."""
    p, q = _random_poly(rng), _random_poly(rng)
    a, b, c, d = (_random_poly(rng) for _ in range(4))
    if kind == "cross":
        return RatFunc(a * p, b), RatFunc(c, d * p)
    if kind == "shared":
        return RatFunc(a, b * q), RatFunc(c, d * q)
    first = RatFunc(a, b * q)
    return first, RatFunc(c, b * d) - first


OPS = {
    "+": lambda a, b, c, d: (a * d + c * b, b * d),
    "-": lambda a, b, c, d: (a * d - c * b, b * d),
    "*": lambda a, b, c, d: (a * c, b * d),
    "/": lambda a, b, c, d: (a * d, b * c),
}


def test_reduced_ratfunc_arithmetic_matches_sympy_cancel():
    """Reduced +, -, * and / against sympy's cancel, and structurally against
    the full cancelling constructor on the unreduced num/den."""
    rng = random.Random(2056)
    shared = cancelled = 0
    for k in range(210):
        x, y = _planted_pair(rng, ("cross", "shared", "cancelling")[k % 3])
        g = poly_gcd(x.den, y.den)
        if x.den != y.den and not g.is_one():
            # the sum's g != 1 branch; a smaller denominator than lcm(b, d)
            # means it cancelled a nontrivial gcd(t, g)
            shared += 1
            lcm = x.den * y.den.exact_div(g)
            cancelled += (x + y).den.total_degree() < lcm.total_degree()
        operands = [
            sympy.Poly(to_sympy(p), *SYMS, domain="QQ") for p in (x.num, x.den, y.num, y.den)
        ]
        for op, got in (("+", x + y), ("-", x - y), ("*", x * y), ("/", x / y)):
            want = RatFunc(*OPS[op](x.num, x.den, y.num, y.den))
            assert (got.num, got.den) == (want.num, want.den), op
            num, den = map(from_sympy, sympy.Poly.cancel(*OPS[op](*operands), include=True))
            # the same value, and fully cancelled: sympy's denominator has our degree
            assert got.num * den == num * got.den, op
            assert got.den.total_degree() == den.total_degree(), op
    assert shared >= 60 and cancelled >= 40, (shared, cancelled)


SCALARS = (int, Fraction, Polynomial, RatFunc)


def _scalar(rng, kind, common):
    """A nonzero operand of the given kind; Polynomial and RatFunc numerators
    carry the factor common, so a quotient of two of them cancels it."""
    if kind is int:
        return rng.choice((-6, -3, -1, 1, 2, 5))
    if kind is Fraction:
        return Fraction(rng.choice((-5, -2, -1, 1, 3, 7)), rng.randint(2, 5))
    if kind is Polynomial:
        return _random_poly(rng) * common
    return RatFunc(_random_poly(rng) * common, _random_poly(rng))


def _zero(kind):
    return {int: 0, Fraction: Fraction(0), Polynomial: R.zero(), RatFunc: RatFunc.const(R, 0)}[kind]


def to_sympy_scalar(e):
    if isinstance(e, RatFunc):
        return to_sympy(e.num) / to_sympy(e.den)
    if isinstance(e, Polynomial):
        return to_sympy(e)
    return sympy.Rational(e.numerator, e.denominator)


def test_quotient_matches_sympy_cancel():
    """quotient over all 16 ordered pairs of operand kinds, zero numerators
    included: sympy's cancel(a / b) as a value, a Fraction exactly when both
    operands are rational, otherwise a canonical RatFunc, and a zero divisor
    refused."""
    rng = random.Random(2871)
    for ka, kb in itertools.product(SCALARS, repeat=2):
        rational = ka in (int, Fraction) and kb in (int, Fraction)
        for k in range(8):
            common = _random_poly(rng) if k % 2 else R.one()
            a = _zero(ka) if k == 0 else _scalar(rng, ka, common)
            b = _scalar(rng, kb, common)
            got = quotient(a, b)
            assert type(got) is (Fraction if rational else RatFunc), (ka, kb)
            want = sympy.cancel(to_sympy_scalar(a) / to_sympy_scalar(b))
            assert sympy.cancel(to_sympy_scalar(got) - want) == 0, (ka, kb)
            if rational:
                continue
            if got.is_zero():
                assert got.den.is_one()
                continue
            # canonical: an integer-primitive denominator with a positive
            # leading coefficient, of the same degree as sympy's cancelled one
            sym_den = sympy.Poly(to_sympy(got.den), *SYMS, domain="QQ")
            assert all(c.q == 1 for c in sym_den.coeffs())
            assert sympy.igcd(*(int(c) for c in sym_den.coeffs()), 0) == 1
            assert sym_den.LC(order="grlex") > 0
            want_den = sympy.Poly(sympy.fraction(want)[1], *SYMS, domain="QQ")
            assert got.den.total_degree() == want_den.total_degree(), (ka, kb)
        with pytest.raises(ZeroDivisionError):
            quotient(a, _zero(kb))


# -- determinants ----------------------------------------------------------


def to_sympy_entry(e):
    if isinstance(e, RatFunc):
        return to_sympy(e.num) / to_sympy(e.den)
    return sympy.Rational(e.numerator, e.denominator)


def sympy_det(m: Matrix):
    return sympy.Matrix(
        [[to_sympy_entry(e) for e in row] for row in m.data]
    ).det(method="berkowitz")


@st.composite
def rational_matrices(draw):
    """Square int/Fraction matrices up to 6x6, often singular by design."""
    n = draw(st.integers(1, 6))
    rows = [draw(st.lists(coeffs(9), min_size=n, max_size=n)) for _ in range(n)]
    if n >= 2 and draw(st.booleans()):
        # replace row i by a rational combination of other rows
        i = draw(st.integers(0, n - 1))
        others = st.sampled_from([r for r in range(n) if r != i])
        j, k = draw(others), draw(others)
        a, b = draw(coeffs(5)), draw(coeffs(5))
        rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[k])]
    return Matrix(rows)


@given(rational_matrices())
@settings(max_examples=120, deadline=None)
def test_fraction_det_matches_sympy(m):
    got = m.det()
    assert sympy.Rational(got.numerator, got.denominator) == sympy_det(m)


def test_fraction_det_singular_spot():
    m = Matrix([[Fraction(1, 2), Fraction(1, 3), 1],
                [Fraction(1, 4), Fraction(1, 6), Fraction(1, 2)],
                [2, Fraction(5, 7), Fraction(-3, 4)]])
    assert m.det() == 0 and sympy_det(m) == 0


@st.composite
def ratfunc_matrices(draw):
    """Square RatFunc matrices up to 3x3 in two or three variables."""
    ring = draw(st.sampled_from((R2, R)))
    n = draw(st.integers(1, 3))
    num = polys(max_terms=3, max_exp=2, max_coeff=4, ring=ring)
    den = polys(max_terms=2, max_exp=1, max_coeff=3, ring=ring).filter(
        lambda p: not p.is_zero()
    )
    return Matrix(
        [[RatFunc(draw(num), draw(den)) for _ in range(n)] for _ in range(n)]
    )


def to_sympy_poly(p):
    return sympy.Poly(to_sympy(p) if isinstance(p, Polynomial) else p, *SYMS, domain="QQ")


def sympy_det_fraction(m: Matrix):
    """det(m) of a RatFunc matrix as sympy Polys (num, den), with no gcd.

    The Leibniz sum over permutations is put on one denominator, the product
    of every entry's denominator: each term takes the numerators on its
    permutation and the denominators off it.  sympy's own ``det`` and
    ``cancel`` take gcds at every step and run for seconds to minutes on
    some 3x3 draws.
    """
    n = m.nrows
    nums = [[to_sympy_poly(e.num) for e in row] for row in m.data]
    dens = [[to_sympy_poly(e.den) for e in row] for row in m.data]
    den = to_sympy_poly(1)
    for d in itertools.chain(*dens):
        den *= d
    num = to_sympy_poly(0)
    for p in itertools.permutations(range(n)):
        term = to_sympy_poly(Permutation(list(p)).signature())
        for i, j in itertools.product(range(n), repeat=2):
            term *= nums[i][j] if j == p[i] else dens[i][j]
        num += term
    return num, den


@given(ratfunc_matrices())
@settings(max_examples=60, deadline=None)
def test_ratfunc_det_matches_sympy(m):
    got = m.det()
    assert isinstance(got, RatFunc)
    num, den = sympy_det_fraction(m)
    assert to_sympy_poly(got.num) * den == to_sympy_poly(got.den) * num


def test_ratfunc_det_spot_with_a_long_remainder_sequence():
    # Its determinant's gcd ran for minutes when every pseudo-remainder took
    # a content gcd.
    x, y, z = (R.var(name) for name in NAMES)
    zero = RatFunc.from_poly(R.zero())
    m = Matrix([
        [zero,
         RatFunc(Fraction(-2, 3) * x**2 * y - 4 * y**2 - 6 * z, 4 * x * y + y * z),
         RatFunc(-2 * x**2 * y**2 - 3 * x**2 * z, 3 * x * y * z + 2)],
        [RatFunc.from_poly(Fraction(4, 3) * x),
         RatFunc(Fraction(-8, 3) * x * y**2 + Fraction(8, 3) * x * y, x * y * z + 4 * z),
         RatFunc(4 * y**2, z)],
        [zero,
         RatFunc(x**2 * y, 2 * x * y * z + z),
         RatFunc(8 * x**2 * z**2 + 2 * x * y**2 * z + 8, x * z + 6)],
    ])
    got = m.det()
    num, den = sympy_det_fraction(m)
    assert to_sympy_poly(got.num) * den == to_sympy_poly(got.den) * num


@st.composite
def minor_table_matrices(draw):
    """Square matrices up to 3x3 whose rows differ in kind and denominator:
    RatFunc rows with their own polynomial denominators, Polynomial rows and
    int/Fraction rows."""
    ring = draw(st.sampled_from((R2, R)))
    n = draw(st.integers(1, 3))
    num = polys(max_terms=3, max_exp=2, max_coeff=4, ring=ring)
    den = polys(max_terms=2, max_exp=1, max_coeff=3, ring=ring).filter(
        lambda p: not p.is_zero()
    )
    rows = []
    for _ in range(n):
        kind = draw(st.sampled_from(("ratfunc", "polynomial", "rational")))
        if kind == "ratfunc":
            row_den = draw(den)
            rows.append([RatFunc(draw(num), row_den * draw(den)) for _ in range(n)])
        elif kind == "polynomial":
            rows.append([draw(num) for _ in range(n)])
        else:
            rows.append(draw(st.lists(coeffs(9), min_size=n, max_size=n)))
    return Matrix(rows)


def to_sympy_value(e):
    return to_sympy(e) if isinstance(e, Polynomial) else to_sympy_entry(e)


@given(minor_table_matrices())
@settings(max_examples=60, deadline=None)
def test_unfold_minor_table_matches_sympy(m):
    """Every minor of the unfolding's Laplace table, on any column set: the
    integral minor I(r, cols) is the minor times the scales of rows r.."""
    minors = _Minors(m)
    n = m.nrows
    for r in range(n):
        scale = sympy.Mul(*(to_sympy_value(minors.cleared(k)[1]) for k in range(r, n)))
        for cols in itertools.combinations(range(n), n - r):
            got = to_sympy_value(minors.integral(r, cols))
            want = sympy.Matrix(
                [[to_sympy_value(m[i, j]) for j in cols] for i in range(r, n)]
            ).det(method="berkowitz")
            assert sympy.cancel(got - want * scale) == 0


# -- decompositions ----------------------------------------------------------


def to_sympy_any(e):
    """Any matrix entry in sympy, whatever ring a RatFunc lives in."""
    if isinstance(e, RatFunc):
        env = {name: sympy.Symbol(name) for name in e.ring.names}
        return sympy.sympify(e.num.evaluate(env)) / sympy.sympify(e.den.evaluate(env))
    return sympy.Rational(e.numerator, e.denominator)


def sympy_matrix(m: Matrix):
    return sympy.Matrix([[to_sympy_any(e) for e in row] for row in m.data])


def sympy_equal(a, b) -> bool:
    return sympy.cancel(a - b) == 0


def sympy_trailing_minors(sg):
    """d_1, ..., d_n: d_i is the det of rows and columns i..n (1-based)."""
    n = sg.rows
    return [sg[i:, i:].det(method="berkowitz") for i in range(n)]


def assert_udl_matches_sympy(g: Matrix):
    from extsq.decomp import DegenerateMinorError, udl_explicit

    sg = sympy_matrix(g)
    n = sg.rows
    d = sympy_trailing_minors(sg)
    zeros = [i + 1 for i in range(n) if sympy.cancel(d[i]) == 0]
    if zeros:
        with pytest.raises(DegenerateMinorError) as exc:
            udl_explicit(g)
        assert exc.value.minor_index == zeros[0]
        return
    udl = udl_explicit(g)
    # UDLFactors.a is derived on each read, so read it once
    amat = udl.a
    for i in range(n):
        for j in range(n):
            bp, bm, a = udl.b_plus[i, j], udl.b_minus[i, j], amat[i, j]
            if i <= j:
                # rows {i} u {j+1..n}, columns j..n (0-based here)
                want = sg.extract([i] + list(range(j + 1, n)), list(range(j, n)))
                assert sympy_equal(to_sympy_any(bp), want.det(method="berkowitz"))
            else:
                assert bp == 0
            if i >= j:
                want = sg.extract(list(range(i, n)), [j] + list(range(i + 1, n)))
                assert sympy_equal(to_sympy_any(bm), want.det(method="berkowitz"))
            else:
                assert bm == 0
            if i == j:
                dd = d[i] * (d[i + 1] if i + 1 < n else 1)
                assert sympy_equal(to_sympy_any(a), dd)
            else:
                assert a == 0


def assert_nhn_matches_sympy(g: Matrix):
    """nhn_decompose against sympy's LU of the reversal conjugate J g J."""
    from extsq.decomp import DegenerateMinorError, nhn_decompose

    sg = sympy_matrix(g)
    n = sg.rows
    d = sympy_trailing_minors(sg)
    # elimination meets d_n, d_{n-1}, ..., d_2 as pivots, in that order
    zeros = [i for i in range(n, 1, -1) if sympy.cancel(d[i - 1]) == 0]
    if zeros:
        with pytest.raises(DegenerateMinorError) as exc:
            nhn_decompose(g)
        assert (exc.value.minor_index, exc.value.size) == (zeros[0], n - zeros[0] + 1)
        return
    nhn = nhn_decompose(g)
    rev = sympy.Matrix(n, n, lambda i, j: sg[n - 1 - i, n - 1 - j])
    low, up, perm = rev.LUdecomposition(rankcheck=False)
    assert perm == []
    for i in range(n):
        hi = up[n - 1 - i, n - 1 - i]
        for j in range(n):
            assert sympy_equal(to_sympy_any(nhn.n[i, j]), low[n - 1 - i, n - 1 - j])
            lower = up[n - 1 - i, n - 1 - j]
            assert sympy_equal(to_sympy_any(nhn.h[i, j]), hi if i == j else 0)
            if j < i:
                assert sympy_equal(to_sympy_any(nhn.n_minus[i, j]), lower / hi)
            else:
                assert nhn.n_minus[i, j] == (1 if i == j else 0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_udl_explicit_generic_matches_sympy(n):
    from extsq.matrices import generic_matrix

    assert_udl_matches_sympy(generic_matrix(n))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_nhn_decompose_generic_matches_sympy(n):
    from extsq.matrices import generic_matrix

    assert_nhn_matches_sympy(generic_matrix(n))


@given(rational_matrices())
@settings(max_examples=80, deadline=None)
def test_udl_explicit_rational_matches_sympy(m):
    assert_udl_matches_sympy(m)


@given(rational_matrices())
@settings(max_examples=80, deadline=None)
def test_nhn_decompose_rational_matches_sympy(m):
    assert_nhn_matches_sympy(m)
