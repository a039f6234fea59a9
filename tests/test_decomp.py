import random
from fractions import Fraction

import pytest

from extsq.decomp import (
    DegenerateMinorError,
    NHNFactors,
    UDLFactors,
    nhn_decompose,
    nhn_matches_udl,
    trailing_minor,
    udl_explicit,
    verify_udl_reconstruction,
)
from extsq.matrices import Matrix, generic_matrix, _is_zero
from extsq.polynomials import PolyRing
from extsq.ratfunc import FactoredFraction, RatFunc


def test_udl_known_values():
    g = Matrix([[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]])
    udl = udl_explicit(g)
    assert udl.b_plus == Matrix([[Fraction(-2), Fraction(2)], [Fraction(0), Fraction(4)]])
    assert udl.a == Matrix.diagonal([Fraction(-8), Fraction(4)])
    assert udl.b_minus == Matrix([[Fraction(-2), Fraction(0)], [Fraction(3), Fraction(4)]])


def _product(nhn: NHNFactors) -> Matrix:
    return nhn.n * nhn.h * nhn.n_minus


def _nondegenerate(rng, n):
    while True:
        g = Matrix(
            [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
        )
        if all(not _is_zero(trailing_minor(g, i)) for i in range(1, n + 1)):
            return g


def test_reconstruction_identity_numeric():
    rng = random.Random(11)
    for n in (2, 3, 4, 5):
        g = _nondegenerate(rng, n)
        udl = udl_explicit(g)
        assert verify_udl_reconstruction(g, udl)
        a = udl.a
        # factor shapes: upper/lower triangular around a diagonal core
        for i in range(n):
            for j in range(n):
                if i > j:
                    assert _is_zero(udl.b_plus[i, j])
                if i < j:
                    assert _is_zero(udl.b_minus[i, j])
                if i != j:
                    assert _is_zero(a[i, j])


def test_reconstruction_identity_symbolic():
    for n in (2, 3):
        g = generic_matrix(n)
        udl = udl_explicit(g)
        assert verify_udl_reconstruction(g, udl)


def test_degenerate_minor_is_named():
    g = Matrix([[Fraction(1), Fraction(2)], [Fraction(0), Fraction(0)]])
    with pytest.raises(DegenerateMinorError) as exc:
        udl_explicit(g)
    assert "trailing principal minor d_1" in str(exc.value)
    assert exc.value.minor_index == 1
    with pytest.raises(DegenerateMinorError):
        nhn_decompose(g)


def test_nhn_unipotent_shape():
    rng = random.Random(23)
    for n in (2, 3, 4):
        g = _nondegenerate(rng, n)
        nhn = nhn_decompose(g)
        for i in range(n):
            assert nhn.n[i, i] == 1
            assert nhn.n_minus[i, i] == 1
            for j in range(n):
                if i > j:
                    assert _is_zero(nhn.n[i, j])
                    assert _is_zero(nhn.n_minus[j, i])
                if i != j:
                    assert _is_zero(nhn.h[i, j])
        assert _product(nhn) == g


def test_rational_factors_match_minors():
    rng = random.Random(31)
    for n in (2, 3, 4):
        g = _nondegenerate(rng, n)
        assert nhn_matches_udl(udl_explicit(g), nhn_decompose(g))


def test_nhn_matches_udl_symbolic():
    for n in (2, 3, 4, 5, 6):
        g = generic_matrix(n)
        udl = udl_explicit(g)
        nhn = nhn_decompose(g)
        assert nhn_matches_udl(udl, nhn)


def test_nhn_matches_udl_detects_mismatch():
    g = Matrix([[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]])
    udl = udl_explicit(g)
    other = nhn_decompose(
        Matrix([[Fraction(2), Fraction(2)], [Fraction(3), Fraction(4)]])
    )
    assert not nhn_matches_udl(udl, other)


# -- edge cases of the elimination route -------------------------------------


def _with_leading_pivots(rng, pivots):
    """g with J g J = L U for a random unit lower L and the given diagonal of U.

    The pivots of the elimination route are then exactly ``pivots``.
    """
    n = len(pivots)
    low = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    up = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        up[i][i] = Fraction(pivots[i])
        for j in range(n):
            if j < i:
                low[i][j] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            elif j > i:
                up[i][j] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    rev = Matrix(low) * Matrix(up)
    return Matrix([[rev[n - 1 - i, n - 1 - j] for j in range(n)] for i in range(n)])


def _structure_is_int(nhn, n):
    for i in range(n):
        for j in range(n):
            if i > j:
                assert type(nhn.n[i, j]) is int and nhn.n[i, j] == 0
            if j > i:
                assert type(nhn.n_minus[i, j]) is int and nhn.n_minus[i, j] == 0
            if i != j:
                assert type(nhn.h[i, j]) is int and nhn.h[i, j] == 0
        assert type(nhn.n[i, i]) is int and nhn.n[i, i] == 1
        assert type(nhn.n_minus[i, i]) is int and nhn.n_minus[i, i] == 1


def test_empty_matrix_decomposes():
    empty = Matrix([])
    nhn = nhn_decompose(empty)
    assert nhn.n == nhn.h == nhn.n_minus == empty
    udl = udl_explicit(empty)
    assert verify_udl_reconstruction(empty, udl)
    assert nhn_matches_udl(udl, nhn)


def test_zero_pivot_at_each_step_names_the_minor():
    rng = random.Random(41)
    n = 5
    for k in range(n - 1):
        pivots = [rng.choice((-3, -1, 2, 5)) for _ in range(n)]
        pivots[k] = 0
        g = _with_leading_pivots(rng, pivots)
        with pytest.raises(DegenerateMinorError) as exc:
            nhn_decompose(g)
        # step k (0-based) divides by d_{n-k}, the minor of size k + 1
        assert (exc.value.minor_index, exc.value.size) == (n - k, k + 1)
        assert str(exc.value) == (
            f"trailing principal minor d_{n - k} (size {k + 1}) vanishes"
        )


def test_zero_pivot_in_a_symbolic_matrix():
    g = generic_matrix(3)
    x, y = g[1, 1], g[1, 2]
    g = Matrix([g.data[0], [g[1, 0], x, y], [g[2, 0], 2 * x, 2 * y]])
    with pytest.raises(DegenerateMinorError) as exc:
        nhn_decompose(g)
    assert (exc.value.minor_index, exc.value.size) == (2, 2)


def test_zero_last_pivot_is_allowed():
    rng = random.Random(43)
    for n in (1, 2, 4):
        pivots = [rng.choice((-2, 1, 3)) for _ in range(n)]
        pivots[-1] = 0
        g = _with_leading_pivots(rng, pivots)
        nhn = nhn_decompose(g)
        # the last pivot is det g / d_2 and sits in the top corner of h
        assert nhn.h[0, 0] == 0
        assert all(nhn.h[i, i] != 0 for i in range(1, n))
        assert _product(nhn) == g
        _structure_is_int(nhn, n)


def test_int_input_gives_fraction_entries():
    g = Matrix([[2, 1, 0], [1, 3, 1], [4, 1, 5]])
    nhn = nhn_decompose(g)
    _structure_is_int(nhn, 3)
    for i in range(3):
        for j in range(3):
            if i < j:
                assert type(nhn.n[i, j]) is Fraction
            if i > j:
                assert type(nhn.n_minus[i, j]) is Fraction
        assert type(nhn.h[i, i]) is Fraction
    assert _product(nhn) == g
    assert nhn.h == Matrix.diagonal([Fraction(27, 14), Fraction(14, 5), Fraction(5)])


def _ratfunc_with_denominators():
    """A generic 3 x 3 matrix with a non-unit denominator in every row.

    The first row holds two different denominators, so its row scale is
    their product.
    """
    base = generic_matrix(3)

    def x(i, j):
        return base[i, j]

    return Matrix(
        [
            [x(0, 0) / (x(1, 1) + 1), x(0, 1), x(0, 2) / (x(2, 2) - 2)],
            [x(1, 0), x(1, 1) / (x(0, 0) + 3), x(1, 2)],
            [x(2, 0) / (x(0, 1) + 1), x(2, 1), x(2, 2)],
        ]
    )


def test_ratfunc_entries_with_denominators():
    g = _ratfunc_with_denominators()
    assert all(any(not e.is_polynomial() for e in row) for row in g.data)
    nhn = nhn_decompose(g)
    _structure_is_int(nhn, 3)
    for i in range(3):
        for j in range(3):
            if i < j:
                assert isinstance(nhn.n[i, j], RatFunc)
            if i > j:
                assert isinstance(nhn.n_minus[i, j], RatFunc)
        assert isinstance(nhn.h[i, i], RatFunc)
    assert nhn_matches_udl(udl_explicit(g), nhn)
    assert _product(nhn) == g


# -- the factor check --------------------------------------------------------


def _corrupt(m: Matrix, i, j, value) -> Matrix:
    rows = [list(r) for r in m.data]
    rows[i][j] = value
    return Matrix(rows)


def _generic_pair(n):
    g = generic_matrix(n)
    return udl_explicit(g), nhn_decompose(g)


def test_factor_check_rejects_a_corrupted_entry():
    udl, nhn = _generic_pair(3)
    assert nhn_matches_udl(udl, nhn)
    # the same denominator, another numerator: the division succeeds, the
    # numerators differ
    bad = NHNFactors(_corrupt(nhn.n, 0, 1, nhn.n[0, 1] + 1), nhn.h, nhn.n_minus)
    assert not nhn_matches_udl(udl, bad)
    bad = NHNFactors(nhn.n, nhn.h, _corrupt(nhn.n_minus, 2, 0, nhn.n_minus[2, 0] * 2))
    assert not nhn_matches_udl(udl, bad)


def test_factor_check_rejects_a_foreign_denominator():
    udl, nhn = _generic_pair(3)
    entry = nhn.n[0, 2]
    ring = entry.ring
    foreign = ring.var("x11") + 7
    # (b_plus)_33 = d_3 is not a multiple of the new denominator
    assert udl.b_plus[2, 2].num.exact_div(foreign) is None
    bad = NHNFactors(
        _corrupt(nhn.n, 0, 2, RatFunc(entry.num, entry.den * foreign)), nhn.h, nhn.n_minus
    )
    assert not nhn_matches_udl(udl, bad)
    bad = NHNFactors(
        nhn.n, nhn.h, _corrupt(nhn.n_minus, 1, 0, nhn.n_minus[1, 0] / foreign)
    )
    assert not nhn_matches_udl(udl, bad)


def test_factor_check_rejects_a_corrupted_diagonal():
    udl, nhn = _generic_pair(3)
    for i in range(3):
        for wrong in (nhn.h[i, i] * 3, nhn.h[i, i] + 1):
            bad = NHNFactors(nhn.n, _corrupt(nhn.h, i, i, wrong), nhn.n_minus)
            assert not nhn_matches_udl(udl, bad)


def test_factor_check_rejects_a_corrupted_minor_diagonal():
    udl, nhn = _generic_pair(3)
    for j in range(3):
        for wrong in (udl.b_plus[j, j] * 2, udl.b_plus[j, j] + 1):
            bad = UDLFactors(_corrupt(udl.b_plus, j, j, wrong), udl.b_minus)
            assert not nhn_matches_udl(bad, nhn)
            bad = UDLFactors(udl.b_plus, _corrupt(udl.b_minus, j, j, wrong))
            assert not nhn_matches_udl(bad, nhn)


def _rational_pair():
    g = _with_leading_pivots(random.Random(47), (-2, 3, -5, 7))
    return udl_explicit(g), nhn_decompose(g)


def test_factor_check_rejects_every_corrupted_rational_entry():
    udl, nhn = _rational_pair()
    assert nhn_matches_udl(udl, nhn)
    for i in range(4):
        for j in range(4):
            if i == j:
                continue
            entry = nhn.n[i, j] if i < j else nhn.n_minus[i, j]
            # a zero entry times 3 would be no corruption
            assert type(entry) is Fraction and entry != 0
            for wrong in (entry + 1, entry * 3):
                if i < j:
                    bad = NHNFactors(_corrupt(nhn.n, i, j, wrong), nhn.h, nhn.n_minus)
                else:
                    bad = NHNFactors(nhn.n, nhn.h, _corrupt(nhn.n_minus, i, j, wrong))
                assert not nhn_matches_udl(udl, bad)


def test_factor_check_rejects_every_corrupted_rational_diagonal():
    udl, nhn = _rational_pair()
    for j in range(4):
        entry = nhn.h[j, j]
        assert type(entry) is Fraction and entry != 0
        for wrong in (entry + 1, entry * 3):
            bad = NHNFactors(nhn.n, _corrupt(nhn.h, j, j, wrong), nhn.n_minus)
            assert not nhn_matches_udl(udl, bad)


def _many_denominators():
    """Entry (i, j) = x_{i+1,j+1} / (x_{(i+1)%3+1,(j+2)%3+1} + i + 1).

    Every entry carries its own denominator, so every minor is a rational
    function with a large denominator, and the factor check must settle each
    ratio without reducing a product of two of them.
    """
    x = generic_matrix(3)
    return Matrix(
        [[x[i, j] / (x[(i + 1) % 3, (j + 2) % 3] + i + 1) for j in range(3)] for i in range(3)]
    )


def test_factor_check_with_many_denominators():
    g = _many_denominators()
    udl, nhn = udl_explicit(g), nhn_decompose(g)
    assert nhn_matches_udl(udl, nhn)
    for j in range(3):
        bad = NHNFactors(nhn.n, _corrupt(nhn.h, j, j, nhn.h[j, j] * 2), nhn.n_minus)
        assert not nhn_matches_udl(udl, bad)


def test_factor_check_rejects_a_wrong_structure_entry():
    udl, nhn = _generic_pair(2)
    bad = NHNFactors(_corrupt(nhn.n, 1, 0, 1), nhn.h, nhn.n_minus)
    assert not nhn_matches_udl(udl, bad)
    bad = NHNFactors(nhn.n, nhn.h, _corrupt(nhn.n_minus, 0, 0, 2))
    assert not nhn_matches_udl(udl, bad)
    bad = NHNFactors(nhn.n, _corrupt(nhn.h, 0, 1, 1), nhn.n_minus)
    assert not nhn_matches_udl(udl, bad)


def test_factor_check_with_denominators_in_the_minors():
    g = _ratfunc_with_denominators()
    udl = udl_explicit(g)
    # the minors of g are RatFuncs with non-unit denominators
    assert not udl.b_plus[0, 1].is_polynomial()
    assert not udl.a[0, 0].is_polynomial()
    nhn = nhn_decompose(g)
    assert nhn_matches_udl(udl, nhn)
    bad = NHNFactors(_corrupt(nhn.n, 0, 1, nhn.n[0, 1] + 1), nhn.h, nhn.n_minus)
    assert not nhn_matches_udl(udl, bad)
    bad = NHNFactors(nhn.n, _corrupt(nhn.h, 2, 2, nhn.h[2, 2] * 2), nhn.n_minus)
    assert not nhn_matches_udl(udl, bad)


def test_float_and_complex_entries_are_refused():
    exact = Matrix([[Fraction(2), Fraction(1), Fraction(0)],
                    [Fraction(1), Fraction(3), Fraction(1)],
                    [Fraction(4), Fraction(1), Fraction(5)]])
    udl = udl_explicit(exact)
    for convert in (float, complex):
        inexact = exact.map(convert)
        with pytest.raises(TypeError, match=convert.__name__):
            nhn_decompose(inexact)
        with pytest.raises(TypeError, match=convert.__name__):
            udl_explicit(inexact)
        with pytest.raises(TypeError, match=convert.__name__):
            verify_udl_reconstruction(inexact, udl)
        # one inexact entry is enough
        rows = [list(row) for row in exact.data]
        rows[1][2] = convert(1)
        with pytest.raises(TypeError):
            nhn_decompose(Matrix(rows))


def test_reconstruction_of_mixed_int_and_polynomial_entries():
    """Entries that are not all Polynomial or RatFunc take the rational
    route, where a = diag(d_i d_{i+1}) holds Polynomials; each is inverted
    exactly into a RatFunc."""
    R = PolyRing(["x", "y"])
    x, y = R.var("x"), R.var("y")
    g = Matrix([[x, 1], [2, y]])
    udl = udl_explicit(g)
    assert verify_udl_reconstruction(g, udl)
    assert nhn_matches_udl(udl, nhn_decompose(g))


# -- the reconstruction check ------------------------------------------------


def _reconstruction_rejects_corruptions(g):
    """Every minor of either factor, changed alone, breaks the check; so does
    a diagonal entry changed in one factor; and a diagonal entry zero in both
    is refused by name."""
    udl = udl_explicit(g)
    assert verify_udl_reconstruction(g, udl)
    n = g.nrows
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            # the check reads each factor on its triangle only
            factor = udl.b_plus if i < j else udl.b_minus
            entry = factor[i, j]
            # a zero entry times 3 would be no corruption
            assert not _is_zero(entry)
            for wrong in (entry + 1, entry * 3):
                bad = _corrupt(factor, i, j, wrong)
                pair = UDLFactors(bad, udl.b_minus) if i < j else UDLFactors(udl.b_plus, bad)
                assert not verify_udl_reconstruction(g, pair)
    for k in range(n):
        d = udl.b_plus[k, k]
        assert not verify_udl_reconstruction(g, UDLFactors(_corrupt(udl.b_plus, k, k, d * 3), udl.b_minus))
        assert not verify_udl_reconstruction(g, UDLFactors(udl.b_plus, _corrupt(udl.b_minus, k, k, d + 1)))
        zero = d - d
        bad = UDLFactors(_corrupt(udl.b_plus, k, k, zero), _corrupt(udl.b_minus, k, k, zero))
        with pytest.raises(DegenerateMinorError) as exc:
            verify_udl_reconstruction(g, bad)
        assert (exc.value.minor_index, exc.value.size) == (k + 1, n - k)


def test_reconstruction_rejects_corrupted_rational_factors():
    g = _with_leading_pivots(random.Random(47), (-2, 3, -5, 7))
    assert all(type(e) is Fraction for row in g.data for e in row)
    _reconstruction_rejects_corruptions(g)


def test_reconstruction_rejects_corrupted_generic_factors():
    _reconstruction_rejects_corruptions(generic_matrix(3))


def test_reconstruction_refuses_a_singular_matrix():
    """g = [[x, x], [1, 1]] has d_1 = det g = 0.  With factors built by hand
    around that zero, the peeled k = m term would never divide by d_1, and
    the sum would match g; the zero diagonal entry is refused first, on both
    the factored and the matrix-product branch."""
    R = PolyRing(["x"])
    x, one = RatFunc.from_poly(R.var("x")), RatFunc.const(R, 1)
    for top, unit in ((x, one), (Fraction(2), Fraction(1))):
        g = Matrix([[top, top], [unit, unit]])
        with pytest.raises(DegenerateMinorError):
            udl_explicit(g)
        bad = UDLFactors(Matrix([[0, top], [0, unit]]), Matrix([[0, 0], [unit, unit]]))
        with pytest.raises(DegenerateMinorError) as exc:
            verify_udl_reconstruction(g, bad)
        assert (exc.value.minor_index, exc.value.size) == (1, 2)


@pytest.mark.parametrize("n, calls", [(2, 1), (3, 5), (4, 14)])
def test_reconstruction_peels_the_diagonal_term(monkeypatch, n, calls):
    """The k = m term of entry (i, j), m = max(i, j), is one factor over
    d_{m+1}, so only the n - 1 - m terms after it multiply two minors."""
    g = generic_matrix(n)
    udl = udl_explicit(g)
    count = 0
    real = FactoredFraction.__mul__

    def spy(self, other):
        nonlocal count
        count += 1
        return real(self, other)

    monkeypatch.setattr(FactoredFraction, "__mul__", spy)
    assert verify_udl_reconstruction(g, udl)
    assert count == sum(n - 1 - max(i, j) for i in range(n) for j in range(n)) == calls
