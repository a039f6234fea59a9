"""Triangular decompositions with explicit minor formulas.

A square matrix g with nonvanishing trailing principal minors d_i factors two
ways:

* minor form      g = b_plus * a^{-1} * b_minus, where b_plus is upper
  triangular with (b_plus)_{jj} = d_j, b_minus is lower triangular with
  (b_minus)_{ii} = d_i, and a = diag(d_i * d_{i+1}) with d_{n+1} = 1,
* normalized form g = n_upper * h * n_lower with unit triangular outer
  factors and h = diag(d_i / d_{i+1}).

Every entry of b_plus and b_minus is itself a single explicit minor of g, so
the first form needs no elimination at all; the second follows by scaling
rows and columns.  Only b_plus and b_minus are stored: a is derived from
their shared diagonal when a caller reads it.  An independent elimination
route computes the normalized form: conjugation by the reversal, then one
fraction-free (Bareiss) LU of the whole matrix, with the factors read off
its pivots and eliminated rows.  nhn_matches_udl is the single check that
the two routes agree; it compares each elimination entry with its ratio of
minors, h_jj with d_j / d_{j+1}, without building a second normalized form
or any product of two minors.  The two routes share only the determinant
kernel, which the sympy oracle tests guard.

Entries must be exact: int, Fraction, Polynomial or RatFunc.  Both routes
are compared with exact equality, so float or complex input is refused with
TypeError rather than checked with a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .matrices import Matrix, _bareiss, _clear, _is_zero, _require_exact
from .polynomials import Polynomial
from .ratfunc import FactorBasis, FactoredFraction, RatFunc, quotient


class DegenerateMinorError(ZeroDivisionError):
    """A trailing principal minor needed by the decomposition vanishes."""

    def __init__(self, minor_index: int, size: int):
        self.minor_index = minor_index
        self.size = size
        super().__init__(
            f"trailing principal minor d_{minor_index} (size {size}) vanishes"
        )


@dataclass
class UDLFactors:
    """The minor form g = b_plus * a^{-1} * b_minus.

    b_plus and b_minus share their diagonal d_1, ..., d_n, the trailing
    minors, so a = diag(d_i * d_{i+1}) is not stored: the property builds
    it from the diagonal of b_minus on each read.
    """

    b_plus: Matrix
    b_minus: Matrix

    @property
    def a(self) -> Matrix:
        n = self.b_minus.nrows
        d = [self.b_minus[i, i] for i in range(n)] + [1]
        return Matrix.diagonal([d[i] * d[i + 1] for i in range(n)])


@dataclass
class NHNFactors:
    n: Matrix
    h: Matrix
    n_minus: Matrix


def trailing_minor(g: Matrix, i: int):
    """det of the lower-right block on rows/columns i..n (1-based)."""
    n = g.nrows
    idx = range(i - 1, n)
    return g.submatrix(idx, idx).det()


def minor_upper(g: Matrix, i: int, j: int):
    """Entry (i, j), i <= j, of b_plus: det g[{i} u {j+1..n}, {j..n}]."""
    n = g.nrows
    rows = [i - 1] + list(range(j, n))
    cols = list(range(j - 1, n))
    return g.submatrix(rows, cols).det()


def minor_lower(g: Matrix, i: int, j: int):
    """Entry (i, j), i >= j, of b_minus: det g[{i..n}, {j} u {i+1..n}]."""
    n = g.nrows
    rows = list(range(i - 1, n))
    cols = [j - 1] + list(range(i, n))
    return g.submatrix(rows, cols).det()


def udl_explicit(g: Matrix) -> UDLFactors:
    """Minor-formula decomposition g = b_plus * a^{-1} * b_minus.

    The diagonal entries of b_plus and b_minus are the trailing minors d_i
    themselves: minor_upper(g, i, i) and minor_lower(g, i, i) are the
    determinant of the same submatrix.  No two minors are multiplied here;
    UDLFactors.a derives a from that diagonal.
    """
    _require_exact(g.data)
    n = g.nrows
    d = [trailing_minor(g, i) for i in range(1, n + 1)]
    for i in range(1, n + 1):
        if _is_zero(d[i - 1]):
            raise DegenerateMinorError(i, n - i + 1)
    bp = [[0] * n for _ in range(n)]
    bm = [[0] * n for _ in range(n)]
    for i in range(1, n + 1):
        bp[i - 1][i - 1] = bm[i - 1][i - 1] = d[i - 1]
        for j in range(i + 1, n + 1):
            bp[i - 1][j - 1] = minor_upper(g, i, j)
            bm[j - 1][i - 1] = minor_lower(g, j, i)
    return UDLFactors(Matrix(bp), Matrix(bm))


def _as_pair(e):
    if isinstance(e, RatFunc):
        return e.num, e.den
    if isinstance(e, Fraction):
        return e.numerator, e.denominator
    return e, 1


def _cross_equal(a, b, c):
    """a / b == c, decided exactly."""
    an, ad = _as_pair(a)
    bn, bd = _as_pair(b)
    cn, cd = _as_pair(c)
    den = ad * bn
    if isinstance(c, RatFunc) and isinstance(den, Polynomial):
        # c = cn/cd is canonical, so gcd(cn, cd) = 1 and a/b == c forces cd | ad bn
        q = den.exact_div(cd)
        return q is not None and an * bd == q * cn
    return an * bd * cd == cn * den


def nhn_matches_udl(udl: UDLFactors, nhn: NHNFactors) -> bool:
    """Check that the rescaled minor factors equal nhn, entry by entry.

    This is the one check that the elimination factors match the minor
    formulas: n_upper = b_plus * diag(b_plus)^{-1}, n_lower =
    diag(b_minus)^{-1} * b_minus and h_jj = d_j / d_{j+1} (d_{n+1} = 1),
    with every other entry of the three factors zero.  The diagonals of
    b_plus and b_minus must be equal, d_j = (b_plus)_{jj} = (b_minus)_{jj},
    since a = diag(d_j d_{j+1}) is derived from that shared diagonal.

    Each entry of nhn must be a ratio of minors, a / b == c.  With
    a = an/ad, b = bn/bd and a canonical c = cn/cd this holds exactly when
    cd divides ad bn and an bd == (ad bn / cd) cn, so the check is one
    exact division and products no larger than two minors, and a wrong c
    usually fails at the division.  It never reduces a ratio of minors to
    lowest terms.  Other operands are compared cross-multiplied.
    """
    n = udl.b_plus.nrows
    d = [udl.b_minus[i, i] for i in range(n)]
    if d != [udl.b_plus[i, i] for i in range(n)]:
        return False
    for i in range(n):
        if nhn.n[i, i] != 1 or nhn.n_minus[i, i] != 1:
            return False
        for j in range(i + 1, n):
            if not _cross_equal(udl.b_plus[i, j], d[j], nhn.n[i, j]):
                return False
            if not _cross_equal(udl.b_minus[j, i], d[j], nhn.n_minus[j, i]):
                return False
            zeros = nhn.n[j, i], nhn.n_minus[i, j], nhn.h[i, j], nhn.h[j, i]
            if not all(_is_zero(e) for e in zeros):
                return False
    d.append(1)
    for j in range(n):
        if not _cross_equal(d[j], d[j + 1], nhn.h[j, j]):
            return False
    return True


def nhn_decompose(g: Matrix) -> NHNFactors:
    """Decompose by elimination: fraction-free LU of the reversal conjugate.

    With J the reversal permutation, an LU factorization g' = J g J = L U
    (L unit lower, U upper) conjugates back to g = (J L J)(J U J) =
    n_upper * lower, and splitting the diagonal off the lower factor gives
    the normalized form.

    Row r of g' is first cleared of denominators by its scale s_r
    (``matrices._clear``), then Bareiss elimination without row swaps runs
    over the integers or Q[x], every division checked exact (Bareiss, Math.
    Comp. 22, 1968; Zhou & Jeffrey, Front. Comput. Sci. China 2, 2008).
    With pivots p_i (p_{-1} = 1) and m the eliminated rows, L[r][i] =
    m[r][i] s_i / (p_i s_r), U[i][i] = p_i / (p_{i-1} s_i) and U[i][j] /
    U[i][i] = m[i][j] / p_i, so every entry is built once as one fraction.
    A zero pivot at step i < n - 1 means the trailing minor d_{n-i} of g
    vanishes.

    Rational input gives Fraction entries, and polynomial or rational-function
    input gives RatFunc entries.  The structural 0 and 1 entries are ints.
    Entries of any other type raise TypeError.
    """
    n = g.nrows
    if n != g.ncols:
        raise ValueError("matrix must be square")
    _require_exact(g.data)
    m, scales, divide = _clear([row[::-1] for row in reversed(g.data)])
    if n:
        _bareiss(m, divide, swap=False)
    piv = [m[i][i] for i in range(n)]
    for i in range(n - 1):
        if _is_zero(piv[i]):
            raise DegenerateMinorError(n - i, i + 1)
    # entry (i, j) of each factor comes from entry (n-1-i, n-1-j) of L or U
    nu = [[int(i == j) for j in range(n)] for i in range(n)]
    nl = [[int(i == j) for j in range(n)] for i in range(n)]
    hdiag = []
    for i in range(n):
        a = n - 1 - i
        den = scales[a] if a == 0 else piv[a - 1] * scales[a]
        hdiag.append(quotient(piv[a], den))
        for j in range(i):
            nl[i][j] = quotient(m[a][n - 1 - j], piv[a])
        for j in range(i + 1, n):
            b = n - 1 - j
            nu[i][j] = quotient(m[a][b] * scales[b], piv[b] * scales[a])
    return NHNFactors(Matrix(nu), Matrix.diagonal(hdiag), Matrix(nl))


def verify_udl_reconstruction(g: Matrix, udl: UDLFactors) -> bool:
    """Check g == b_plus * a^{-1} * b_minus exactly.

    Here d_i = (b_minus)_{ii} and a = udl.a = diag(d_i d_{i+1}), with
    d_{n+1} = 1.  The check returns False unless (b_plus)_{ii} == d_i for
    every i, since a is derived from that shared diagonal, and it raises
    DegenerateMinorError when some d_i is zero.  For polynomial-valued
    matrices it clears denominators: with m = max(i, j), each entry must
    satisfy sum_{k >= m} (b_plus)_{ik} (b_minus)_{kj} / (d_k d_{k+1}) =
    g_{ij}, verified in factored-fraction form over the basis
    {d_1, ..., d_n}, so a itself is never formed.  The k = m term has d_m
    as one factor, (b_minus)_{mm} when i <= j and (b_plus)_{mm} otherwise,
    so it is peeled to the other factor over d_{m+1}; that cancellation is
    exact because d_m is not zero.  Other matrices are multiplied out with
    a^{-1} from ``ratfunc.quotient``.  Entries that are not exact raise
    TypeError.
    """
    _require_exact(g.data)
    n = g.nrows
    d = [udl.b_minus[k, k] for k in range(n)]
    if d != [udl.b_plus[k, k] for k in range(n)]:
        return False
    for k in range(n):
        if _is_zero(d[k]):
            raise DegenerateMinorError(k + 1, n - k)
    poly_like = all(
        isinstance(e, (Polynomial, RatFunc)) for row in g.data for e in row
    )
    if poly_like and n > 0:
        return _verify_reconstruction_poly(g, udl)
    a = udl.a
    ainv = Matrix.diagonal([quotient(1, a[i, i]) for i in range(n)])
    return udl.b_plus * ainv * udl.b_minus == g


def _as_ratfunc(e, ring):
    if isinstance(e, RatFunc):
        return e
    if isinstance(e, Polynomial):
        return RatFunc.from_poly(e)
    return RatFunc.const(ring, e)


def _verify_reconstruction_poly(g: Matrix, udl: UDLFactors) -> bool:
    n = g.nrows
    first = next(
        e for row in g.data for e in row if isinstance(e, (Polynomial, RatFunc))
    )
    ring = first.ring
    basis = FactorBasis(ring)

    def ff(e):
        return FactoredFraction.from_ratfunc(basis, _as_ratfunc(e, ring))

    d = [ff(udl.b_minus[i, i]) for i in range(n)]
    d.append(FactoredFraction(basis, ring.one()))
    for i in range(n):
        for j in range(n):
            m = max(i, j)
            # the k = m term with its factor d_m cancelled
            other = udl.b_plus[i, m] if i <= j else udl.b_minus[m, j]
            acc = ff(other) / d[m + 1]
            for k in range(m + 1, n):
                acc = acc + ff(udl.b_plus[i, k]) * ff(udl.b_minus[k, j]) / d[k] / d[k + 1]
            if acc.to_ratfunc() != _as_ratfunc(g[i, j], ring):
                return False
    return True
