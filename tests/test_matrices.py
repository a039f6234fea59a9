from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extsq.matrices import (
    Matrix,
    _clear_rational,
    _clear_symbolic,
    _div_int,
    _div_poly,
    generic_matrix,
    genmatrix_from_json,
    genmatrix_to_json,
)
from extsq.polynomials import PolyRing
from extsq.ratfunc import RatFunc


def test_shape_and_indexing():
    m = Matrix([[1, 2, 3], [4, 5, 6]])
    assert (m.nrows, m.ncols) == (2, 3)
    assert m[1, 2] == 6
    with pytest.raises(ValueError):
        Matrix([[1, 2], [3]])


def test_constructors():
    assert Matrix.identity(3)[1, 1] == 1
    assert Matrix.identity(3)[0, 1] == 0
    d = Matrix.diagonal([2, 5])
    assert d[0, 0] == 2 and d[1, 1] == 5 and d[0, 1] == 0
    j = Matrix.reversal(3)
    assert [j[i, 2 - i] for i in range(3)] == [1, 1, 1]
    b = Matrix.block_diagonal(Matrix([[1]]), Matrix([[2, 3], [4, 5]]))
    assert b.nrows == 3 and b[1, 1] == 2 and b[2, 2] == 5 and b[0, 2] == 0


def test_arithmetic():
    a = Matrix([[1, 2], [3, 4]])
    b = Matrix([[0, 1], [1, 0]])
    assert a * b == Matrix([[2, 1], [4, 3]])
    assert a + b == Matrix([[1, 3], [4, 4]])
    assert a - a == Matrix([[0, 0], [0, 0]])
    assert a.transpose() == Matrix([[1, 3], [2, 4]])
    assert a * Matrix.identity(2) == a


def _reference_product(a, b):
    """The plain triple loop: every index in order, int zero factors skipped."""
    out = []
    for row in a.data:
        new = []
        for col in zip(*b.data):
            acc = 0
            for x, y in zip(row, col):
                if isinstance(x, int) and x == 0:
                    continue
                if isinstance(y, int) and y == 0:
                    continue
                acc = acc + x * y
            new.append(acc)
        out.append(new)
    return out


def _entries(kind):
    ring = PolyRing(("x", "y"))
    x, y = ring.var("x"), ring.var("y")
    xr, yr = RatFunc.from_poly(x), RatFunc.from_poly(y)
    F = Fraction
    return {
        # each list carries one zero that is not an int, which is never skipped
        "int": [3, -2, 5, 7, 1, -4, 6],
        "fraction": [F(1, 2), F(-3, 4), F(5, 3), 2, F(0), F(7, 6), -1],
        "polynomial": [x + 1, y, x * y - 2, 3, ring.zero(), F(1, 2) * x, ring.one()],
        "ratfunc": [
            1 / (xr + 1), yr, xr / (yr - 1), 2, RatFunc.const(ring, 0), F(2, 3), xr * yr
        ],
    }[kind]


def _shaped(kind, shape, n=4):
    vals = _entries(kind)

    def at(i, j):
        return vals[(2 * i + 3 * j) % len(vals)]

    keep = {
        "diagonal": lambda i, j: i == j,
        "lower": lambda i, j: j <= i,
        "upper": lambda i, j: j >= i,
        # int zeros scattered through the rows, and one all-zero row
        "padded": lambda i, j: i != 1 and (i + j) % 3 != 0,
    }[shape]
    return Matrix([[at(i, j) if keep(i, j) else 0 for j in range(n)] for i in range(n)])


SHAPES = ("diagonal", "lower", "upper", "padded")
KINDS = ("int", "fraction", "polynomial", "ratfunc")


@pytest.mark.parametrize("left", KINDS)
@pytest.mark.parametrize("right", KINDS)
def test_product_matches_the_triple_loop(left, right):
    for sa in SHAPES:
        for sb in SHAPES:
            a, b = _shaped(left, sa), _shaped(right, sb)
            got, want = (a * b).data, _reference_product(a, b)
            assert got == want, (sa, sb)
            assert [[type(e) for e in row] for row in got] == [
                [type(e) for e in row] for row in want
            ], (sa, sb)
    # a rectangular pair, wider than it is tall on the right
    a = Matrix(_shaped(left, "padded").data[:3])
    b = Matrix([row + row[:2] for row in _shaped(right, "lower").data])
    assert (a * b).data == _reference_product(a, b)


def square_int_matrices(n):
    return st.lists(
        st.lists(st.integers(-9, 9), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    ).map(Matrix)


@given(square_int_matrices(3), square_int_matrices(3))
@settings(max_examples=30, deadline=None)
def test_det_multiplicative(a, b):
    assert (a * b).det() == a.det() * b.det()


@given(square_int_matrices(5))
@settings(max_examples=15, deadline=None)
def test_det_transpose_invariant(m):
    # size 5 takes four elimination steps, each dividing by the last pivot
    assert m.det() == m.transpose().det()


def test_det_known_values():
    assert Matrix([[1, 2], [3, 4]]).det() == -2
    assert Matrix.identity(6).det() == 1
    v = Matrix([[x**j for j in range(4)] for x in (1, 2, 3, 4)])
    assert v.det() == 12  # Vandermonde on 1,2,3,4


def test_det_of_empty_matrix_is_one():
    assert Matrix([]).det() == 1


def test_det_result_types():
    d = Matrix([[2, 1, 0], [1, 3, 1], [0, 1, 4]]).det()
    assert type(d) is int and d == 18
    q = Matrix([[Fraction(1, 2), 1], [1, 4]]).det()
    assert type(q) is Fraction and q == 1
    # Fraction entries that are all integers still give a Fraction
    q = Matrix([[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]).det()
    assert type(q) is Fraction and q == 5
    ring = PolyRing(("x",))
    x = ring.var("x")
    p = Matrix([[x, ring.one()], [ring.one(), x]]).det()
    assert type(p) is type(x) and p == x * x - 1
    # polynomials mixed with Fractions stay polynomials over Q
    p = Matrix([[x, Fraction(1, 2)], [2, x]]).det()
    assert type(p) is type(x) and p == x * x - 1
    c = Matrix([[1 + 2j, 1], [Fraction(1, 2), 2]]).det()
    assert type(c) is complex and c == (1 + 2j) * 2 - Fraction(1, 2)
    # a RatFunc matrix gives a RatFunc even with every denominator 1
    xr = RatFunc.from_poly(x)
    f = Matrix([[xr, RatFunc.const(ring, 1)], [RatFunc.const(ring, 1), xr]]).det()
    assert type(f) is RatFunc and f == xr * xr - 1


def test_row_scale_is_the_lcm_of_its_denominators():
    rows = [[Fraction(1, 4), Fraction(1, 6)], [1, Fraction(3)]]
    # lcm(4, 6) = 12, not the product 24; the second row is left alone
    assert _clear_rational(rows) == ([[3, 2], [1, 3]], [12, 1])
    assert Matrix(rows).det() == Fraction(3, 4) - Fraction(1, 6)
    ring = PolyRing(("x",))
    x = ring.var("x")
    xr = RatFunc.from_poly(x)
    rows = [[1 / (xr + 1), 1 / (xr * (xr + 1))], [xr, Fraction(1, 2)]]
    cleared, scales = _clear_symbolic(rows)
    assert scales == [x * (x + 1), ring.one()]
    assert cleared == [[x, ring.one()], [x, ring.const(Fraction(1, 2))]]


def test_det_swaps_rows_for_zero_pivots():
    assert Matrix([[0, 1], [1, 0]]).det() == -1
    assert Matrix([[0, 2, 0], [3, 0, 0], [0, 0, 5]]).det() == -30
    # the zero pivot turns up only at the second step
    assert Matrix([[1, 0, 0], [0, 0, 7], [0, 2, 0]]).det() == -14
    assert Matrix([[0, 0, 1], [0, 1, 0], [1, 0, 0]]).det() == -1


def test_det_of_singular_matrices():
    assert Matrix([[1, 0, 2], [3, 0, 4], [5, 0, 6]]).det() == 0
    assert Matrix([[Fraction(1, 2), 0], [Fraction(1, 3), 0]]).det() == 0
    # rank 2: the first two pivots are nonzero, the last step gives 0
    assert Matrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]]).det() == 0
    ring = PolyRing(("t",))
    t = RatFunc.from_poly(ring.var("t"))
    d = Matrix([[t, 1 / t], [t * t, 1]]).det()
    assert isinstance(d, RatFunc) and d.is_zero()


def test_det_with_int_fraction_and_ratfunc_entries():
    ring = PolyRing(("s", "t"))
    s, t = (RatFunc.from_poly(ring.var(v)) for v in ("s", "t"))
    m = Matrix([
        [t, Fraction(1, 2), 0],
        [3, 1 / (t + 1), s],
        [1, Fraction(-2, 3), 1 / (s - t)],
    ])
    want = (
        t * (1 / (t + 1) * (1 / (s - t)) - s * Fraction(-2, 3))
        - Fraction(1, 2) * (3 * (1 / (s - t)) - s)
    )
    assert m.det() == want


@pytest.mark.parametrize("inexact", [1j, 1.5, 2 + 0.5j], ids=["complex", "float", "mixed"])
def test_inexact_entries_beside_symbolic_ones_are_refused(inexact):
    """An entry that is not exact cannot be lifted into Q[x], so beside a
    Polynomial or RatFunc entry it is refused by name, in either position."""
    ring = PolyRing(("x",))
    x = ring.var("x")
    r = RatFunc.from_poly(x)
    name = type(inexact).__name__
    for rows in ([[r, inexact], [1, r]], [[inexact, r], [r, 1]], [[x, inexact], [1, x]]):
        with pytest.raises(TypeError, match=f"^need exact values, not {name}$"):
            Matrix(rows).det()
    # without a symbolic entry the same value still runs with true division
    assert Matrix([[2, inexact], [1, 3]]).det() == 6 - inexact


def test_ratfunc_det_whose_denominator_cancels():
    ring = PolyRing(("t",))
    t = RatFunc.from_poly(ring.var("t"))
    d = Matrix([[t / (t + 1), 1], [-1, t + 1]]).det()
    assert d.is_polynomial()
    assert d == t + 1


def test_polynomial_entries_give_a_polynomial():
    ring = PolyRing(("x", "y"))
    x, y = ring.var("x"), ring.var("y")
    assert Matrix([[x, y], [1, x]]).det() == x * x - y


def test_bareiss_divisions_are_checked():
    assert _div_int(-12, 4) == -3
    with pytest.raises(ArithmeticError):
        _div_int(7, 2)
    ring = PolyRing(("x",))
    x = ring.var("x")
    assert _div_poly(x * x - 1, x + 1) == x - 1
    with pytest.raises(ArithmeticError):
        _div_poly(x * x + 1, x + 1)


def test_submatrix():
    m = Matrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert m.submatrix([0, 2], [1, 2]) == Matrix([[2, 3], [8, 9]])


def test_generic_matrix_symbolic_det():
    g = generic_matrix(2, "a")
    d = g.det()
    assert isinstance(d, RatFunc)
    ring = d.ring
    a11, a12, a21, a22 = (ring.var(f"a{i}{j}") for i in (1, 2) for j in (1, 2))
    assert d == RatFunc.from_poly(a11 * a22 - a12 * a21)


def test_json_round_trip_rational_entries():
    obj = {
        "rows": 2,
        "cols": 2,
        "entries": [["1/2", "-3"], ["0", "2/7"]],
    }
    m = genmatrix_from_json(obj)
    assert m[0, 0] == Fraction(1, 2)
    back = genmatrix_to_json(m)
    assert genmatrix_from_json(back) == m


def test_json_round_trip_symbolic_entries():
    obj = {
        "rows": 2,
        "cols": 2,
        "entries": [["t", "1"], ["0", "t"]],
    }
    m = genmatrix_from_json(obj)
    assert isinstance(m[0, 0], RatFunc)
    assert m[0, 0] == RatFunc.from_poly(PolyRing(("t",)).var("t"))
    assert genmatrix_from_json(genmatrix_to_json(m)) == m


def test_json_rejects_bad_shapes():
    with pytest.raises(ValueError):
        genmatrix_from_json({"rows": 2, "cols": 2, "entries": [["1", "2"]]})
    # a string row has a length, but it is not a row of entries
    with pytest.raises(ValueError, match="row lists"):
        genmatrix_from_json({"rows": 2, "cols": 2, "entries": ["ab", "cd"]})
    with pytest.raises(ValueError, match="row lists"):
        genmatrix_from_json({"rows": 1, "cols": 2, "entries": "ab"})
    with pytest.raises(ValueError):
        genmatrix_from_json({"rows": 1, "cols": 1, "entries": [["1//2"]]})
