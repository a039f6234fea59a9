"""Shuffle coordinates and the unfolding identities.

Everything here lives on GL(2n).  The card-shuffle permutation sigma
interleaves the first 2n-1 basis vectors; conjugating the relevant unipotent
by it produces a structured (2n-1) x (2n-1) block built from triangular
coordinate arrays c_{i,j} and z_{i,j}.  A sequence of affine determinant
conditions then shifts those entries ("tilde" values), yielding a matrix
whose triangular decomposition has monomial structure in the product
coordinates x_{i,j}.  This module constructs all of it and provides both
sides of every identity it relies on, so each formula can be checked against
an independent elimination path.  The Whittaker value is compared as a
``WhittakerForm``, symbolic in x, lambda and delta at once: read from the
factors of the shuffled matrix on indeterminates (``shuffled_factors``),
and from its closed form.  No point is evaluated and no float is formed.

Index conventions (all 1-based, n = n_half):
  c_{i,j}, z_{i,j}        1 <= j <= i <= n-1, plus the structural c_{n,n} = 1
  y_{i,j}, x_{i,j}        1 <= i <= n-1, 2i <= j <= 2n-1
  y_{i,2r} = c_{r,i},  y_{i,2r+1} = z_{r,i},  y_{i,j} = prod_{j' >= j} x_{i,j'}
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .decomp import DegenerateMinorError, _require_exact, nhn_decompose
from .lfactors import GammaExpr, IdentityMismatchError
from .matrices import Matrix, _clear, _is_zero
from .polynomials import PolyRing
from .ratfunc import RatFunc, quotient
from .specialfn import as_parity


# -- the card-shuffle permutation -------------------------------------------


@dataclass(frozen=True)
class ShuffleSigma:
    """sigma as 1-based images and as its permutation matrix; ``matrix.det()`` is its sign."""

    n_half: int
    permutation: tuple  # image of index k is permutation[k-1], 1-based values

    @property
    def matrix(self) -> Matrix:
        two_n = len(self.permutation)
        mat = [[0] * two_n for _ in range(two_n)]
        for j, p in enumerate(self.permutation):
            mat[p - 1][j] = 1
        return Matrix(mat)


def sigma(n_half: int) -> ShuffleSigma:
    """Interleaving permutation k -> 2k-1 (mod 2n-1) for k < 2n, fixing 2n.

    The determinant of its matrix is +1 exactly when n_half = 0 or 1 (mod 4).
    """
    if n_half < 1:
        raise ValueError("n_half must be >= 1")
    two_n = 2 * n_half
    perm = []
    for k in range(1, two_n):
        perm.append((2 * k - 2) % (two_n - 1) + 1)
    perm.append(two_n)
    return ShuffleSigma(n_half, tuple(perm))


# -- coordinate arrays -------------------------------------------------------


def _cz_index_set(n: int):
    return [(i, j) for i in range(1, n) for j in range(1, i + 1)]


def _x_index_set(n: int):
    return [(i, j) for i in range(1, n) for j in range(2 * i, 2 * n)]


def _x_name(i: int, j: int) -> str:
    """The name of the indeterminate x_{i,j} in symbolic_x."""
    return f"x{i}_{j}"


class UnfoldVars:
    """Triangular coordinate data in both the c/z and the x presentation.

    Values must be exact: int, Fraction, Polynomial or RatFunc, and any
    other value raises TypeError at construction.  Both presentations are
    populated at construction (they determine each other when everything
    needed is nonzero).
    """

    def __init__(self, n_half: int, c: dict, z: dict, x: dict):
        self.n_half = n_half
        self._c = dict(c)
        self._z = dict(z)
        self._x = dict(x)
        need = set(_cz_index_set(n_half))
        if set(self._c) != need or set(self._z) != need:
            raise ValueError("c/z arrays must cover exactly 1 <= j <= i <= n-1")
        if set(self._x) != set(_x_index_set(n_half)):
            raise ValueError("x array must cover exactly 2i <= j <= 2n-1")
        _require_exact((self._c.values(), self._z.values(), self._x.values()))

    def c(self, i: int, j: int):
        return self._c[(i, j)]

    def z(self, i: int, j: int):
        return self._z[(i, j)]

    def x(self, i: int, j: int):
        return self._x[(i, j)]

    # -- constructors --------------------------------------------------

    @classmethod
    def from_cz(cls, n_half: int, c: dict, z: dict) -> "UnfoldVars":
        _require_exact((c.values(), z.values()))
        x = {}
        for i in range(1, n_half):
            prev = None
            for j in range(2 * n_half - 1, 2 * i - 1, -1):
                r, rem = divmod(j, 2)
                val = c[(r, i)] if rem == 0 else z[(r, i)]
                if prev is None:
                    x[(i, j)] = val
                else:
                    x[(i, j)] = quotient(val, prev)
                prev = val
        return cls(n_half, c, z, x)

    @classmethod
    def from_x(cls, n_half: int, x: dict) -> "UnfoldVars":
        c = {}
        z = {}
        for i in range(1, n_half):
            acc = None
            for j in range(2 * n_half - 1, 2 * i - 1, -1):
                acc = x[(i, j)] if acc is None else x[(i, j)] * acc
                r, rem = divmod(j, 2)
                if rem == 0:
                    c[(r, i)] = acc
                else:
                    z[(r, i)] = acc
        return cls(n_half, c, z, x)

    @classmethod
    def symbolic(cls, n_half: int) -> "UnfoldVars":
        """Independent c/z indeterminates; x becomes their monomial ratios."""
        names = sorted(
            [f"c{i}{j}" for i, j in _cz_index_set(n_half)]
            + [f"z{i}{j}" for i, j in _cz_index_set(n_half)]
        )
        ring = PolyRing(names)
        c = {
            (i, j): RatFunc.from_poly(ring.var(f"c{i}{j}"))
            for i, j in _cz_index_set(n_half)
        }
        z = {
            (i, j): RatFunc.from_poly(ring.var(f"z{i}{j}"))
            for i, j in _cz_index_set(n_half)
        }
        return cls.from_cz(n_half, c, z)

    @classmethod
    def symbolic_x(cls, n_half: int) -> "UnfoldVars":
        """Independent x indeterminates; c/z become monomials."""
        ring = PolyRing(sorted(_x_name(*key) for key in _x_index_set(n_half)))
        x = {key: RatFunc.from_poly(ring.var(_x_name(*key))) for key in _x_index_set(n_half)}
        return cls.from_x(n_half, x)


# -- the interleaved block ---------------------------------------------------


def build_block_A(vars: UnfoldVars) -> Matrix:
    """The (2n-1) x (2n-1) block of the shuffled unipotent.

    Odd row 2i-1 carries c_{i,j} on the left (columns j <= i), the row sum
    sum_{l <= i} c_{i,l} in the middle column n, and z_{i-1,j} at column
    2n-j on the right; even row 2i carries c_{i,j} at column 2n-j.  The last
    row has 1 in the middle column and the z_{n-1,j} row on the right.
    """
    n = vars.n_half
    if n < 2:
        raise ValueError("need n_half >= 2")
    size = 2 * n - 1
    m = [[0] * size for _ in range(size)]
    for i in range(1, n):
        row_odd = 2 * i - 1
        acc = None
        for j in range(1, i + 1):
            v = vars.c(i, j)
            m[row_odd - 1][j - 1] = v
            acc = v if acc is None else acc + v
        m[row_odd - 1][n - 1] = acc
        for j in range(1, i):
            m[row_odd - 1][2 * n - j - 1] = vars.z(i - 1, j)
        for j in range(1, i + 1):
            m[2 * i - 1][2 * n - j - 1] = vars.c(i, j)
    m[size - 1][n - 1] = 1
    for j in range(1, n):
        m[size - 1][2 * n - j - 1] = vars.z(n - 1, j)
    return Matrix(m)


# positions of the shifted entries, 1-based (row, col)


def _z_position(n: int, i: int, j: int):
    return (2 * i + 1, 2 * n - j)


def _c_position(n: int, i: int, j: int):
    return (2 * i, 2 * n - j)


def _block(n: int, pos):
    """First row (0-based) and columns of the block whose top-right corner is
    pos; the block runs down to the last row, so it is (2n - r) x (2n - r)."""
    r, c = pos
    k = 2 * n - r
    return r - 1, tuple(range(c - k, c))


class _Minors:
    """Integral minors I(r, cols) = det cleared[r.., cols] of one matrix.

    cols is an increasing tuple with one column per row from r to the last.
    Row r is cleared of denominators by ``matrices._clear`` when a minor
    starting at it is first memoised, so it must be final by then; s_r is
    its own scale.  I(r, cols) is the Laplace expansion along row r over the
    minors of row r + 1, memoised on (r, cols): no division and no gcd runs,
    and zero entries are skipped.  So det rows[r.., cols] is I(r, cols) over
    the product of the scales of rows r..; callers compare minors of
    neighbouring rows through s_r alone and never form that product.
    superdiag_sum reads the one build_B's guard builds on the finished matrix.
    """

    def __init__(self, mat: Matrix):
        self.rows = mat.data
        # below the last row: the empty minor 1
        self._memo = {(len(self.rows), ()): 1}
        self._cleared = {}

    def integral(self, r: int, cols: tuple):
        if (r, cols) not in self._memo:
            self._memo[r, cols] = self.expand(self.cleared(r)[0], r, cols, cols)
        return self._memo[r, cols]

    def cleared(self, r: int):
        """Cleared row r and its scale s_r, cleared on first use."""
        if r not in self._cleared:
            (cleared,), (scale,), _ = _clear([self.rows[r]])
            self._cleared[r] = cleared, scale
        return self._cleared[r]

    def expand(self, row, r: int, cols: tuple, along: tuple):
        """Terms of det [row; rows r + 1..][cols] expanded along row at the
        columns along, a prefix of cols, over the integral minors of row
        r + 1, so the sum carries the scales of the rows below r.  Not
        memoised."""
        total = 0
        for idx, c in enumerate(along):
            if _is_zero(row[c]):
                continue
            term = row[c] * self.integral(r + 1, cols[:idx] + cols[idx + 1:])
            total = total - term if idx % 2 else total + term
        return total


def _conditions(vars: UnfoldVars):
    """(position, neighbour, original value, name) of every shifted entry,
    in build_B's sweep order: rows bottom-up, leftmost entry first."""
    n = vars.n_half
    for row in range(2 * n - 2, 2, -1):
        if row % 2 == 0:
            i = row // 2
            for j in range(i - 1, 0, -1):
                pos, neighbour = _c_position(n, i, j), _z_position(n, i, j + 1)
                yield pos, neighbour, vars.c(i, j), f"c({i},{j})"
        else:
            i = (row - 1) // 2
            for j in range(i, 0, -1):
                pos, neighbour = _z_position(n, i, j), _c_position(n, i + 1, j + 1)
                yield pos, neighbour, vars.z(i, j), f"z({i},{j})"


def _target(minors: _Minors, n: int, pos, neighbour, value):
    """Right side of the condition at pos, with k the block size there:
    (-1)^(k-1) * (original value at pos) * I(block at neighbour).  The
    neighbour's block starts one row below pos, so this is the determinant
    form times the product of the scales of the rows below pos."""
    k = 2 * n - pos[0]
    return _sign_pow(k - 1) * value * minors.integral(*_block(n, neighbour))


def _solve_affine(minors: _Minors, n: int, pos, target):
    """Set the entry at pos so the determinant of its block equals target.

    Along its uncleared top row r the block determinant is alpha * entry +
    beta over the scales of the rows below r: alpha is the corner cofactor,
    one integral minor of row r + 1, and beta the expansion of the rest of
    row r.  target carries the same scales, so the entry is one quotient and
    no scale is divided out.
    """
    r, cols = _block(n, pos)
    alpha = _sign_pow(len(cols) - 1) * minors.integral(r + 1, cols[:-1])
    if _is_zero(alpha):
        raise ZeroDivisionError(
            f"vanishing pivot determinant while shifting entry at {pos}"
        )
    beta = minors.expand(minors.rows[r], r, cols, cols[:-1])
    new = quotient(target - beta, alpha)
    minors.rows[r][cols[-1]] = new
    return new


def build_B(vars: UnfoldVars) -> Matrix:
    """Shift entries so the determinant conditions hold everywhere.

    Every shiftable coordinate (each z_{i,j} with i <= n-2 and each
    off-diagonal c_{i,j}) gets a new value at its right-block position p;
    with k the block size at p the condition is

        det(block at p) = (-1)^(k-1) * (original value at p)
                          * det(block at the next position down-right),

    the down-right neighbor being c_{i+1,j+1} for a z entry and z_{i,j+1}
    for a c entry.  A shifted c value also replaces the other occurrences of
    its variable: its left-block slot and its contribution to the middle
    column, which carries the row sums of shifted values.

    Each condition is affine in its own entry.  Its block has p as top-right
    corner and its neighbor's block lies one row down, so it reads only
    the rows below p and, in p's own row, p and the entries to its left.  A
    shifted c value rewrites only the odd row above it.  So one bottom-up
    sweep, leftmost entry first within a row, settles every entry once, and
    nothing a condition reads changes after it is solved.

    Every determinant is read from one _Minors table over cleared rows, and
    a row is cleared once it is final: the sweep writes only the row it
    solves, which it reads uncleared, and the row above.
    _assert_tilde_relations then checks every condition on the finished
    matrix from a fresh table, independently of how the sweep solved it,
    scaling by each row's own scale s_r instead of dividing minors out;
    superdiag_sum reads that table.
    """
    return _build_B(vars)[0]


def _build_B(vars: UnfoldVars):
    """build_B's matrix and the guard's table, built on the finished matrix."""
    n = vars.n_half
    mat = build_block_A(vars)
    minors = _Minors(mat)
    for pos, neighbour, value, _ in _conditions(vars):
        target = _target(minors, n, pos, neighbour, value)
        new = _solve_affine(minors, n, pos, target)
        if pos[0] % 2 == 0:  # a shifted c_{i,j}, which also sits in row 2i-1
            i, j = pos[0] // 2, 2 * n - pos[1]
            mat.data[2 * i - 2][j - 1] = new
            _refresh_middle_sum(mat, vars, i)
    return mat, _assert_tilde_relations(mat, vars)


def _refresh_middle_sum(mat: Matrix, vars: UnfoldVars, i: int):
    n = vars.n_half
    acc = vars.c(i, i)
    for l in range(1, i):
        acc = acc + mat.data[2 * i - 1][2 * n - l - 1]
    mat.data[2 * i - 2][n - 1] = acc


def _sign_pow(k: int) -> int:
    return -1 if k % 2 else 1


def _assert_tilde_relations(mat: Matrix, vars: UnfoldVars) -> _Minors:
    """Check every condition on a fresh table of mat, and return it.  With
    S_r = s_r S_{r+1} the product of the scales of rows r.., the condition
    I(r, cols) / S_r = t * I(r + 1, nb) / S_{r+1} is I(r, cols) = _target * s_r."""
    n = vars.n_half
    minors = _Minors(mat)
    for pos, neighbour, value, name in _conditions(vars):
        r, cols = _block(n, pos)
        target = _target(minors, n, pos, neighbour, value) * minors.cleared(r)[1]
        if minors.integral(r, cols) != target:
            raise ArithmeticError(f"determinant condition failed at shifted {name}")
    return minors


def tilde_c(mat: Matrix, n: int, i: int, j: int):
    r, c = _c_position(n, i, j)
    return mat[r - 1, c - 1]


def tilde_z(mat: Matrix, n: int, i: int, j: int):
    r, c = _z_position(n, i, j)
    return mat[r - 1, c - 1]


# -- superdiagonal sum -------------------------------------------------------


def superdiag_sum(vars: UnfoldVars):
    """Sum of the superdiagonal of the unit-upper factor of the shifted block.

    n[i][i+1] = det B[{i} u {i+2..}, cols] / det B[cols, cols], cols = (i+1,
    ..., N-1), is num * s_{i+1} / (s_i * d) on build_B's guard table: d =
    I(i+1, cols) memoises the minors of row i+2 that num, cleared row i, is
    expanded over.  superdiag_closed_form must agree exactly.  A zero d raises
    DegenerateMinorError as nhn_decompose would; that needs a zero c or z, as
    in x coordinates the trailing minors are signed monomials.
    """
    b, minors = _build_B(vars)
    size = b.nrows
    total = None
    for i in range(size - 2, -1, -1):
        cols = tuple(range(i + 1, size))
        d = minors.integral(i + 1, cols)
        if _is_zero(d):
            raise DegenerateMinorError(i + 2, size - i - 1)
        (row, s_i), s_next = minors.cleared(i), minors.cleared(i + 1)[1]
        e = quotient(minors.expand(row, i + 1, cols, cols) * s_next, s_i * d)
        total = e if total is None else total + e
    return total


def superdiag_closed_form(vars: UnfoldVars):
    """sum c_{i,j}/z_{i,j} + sum z_{i,j}/c_{i+1,j} - sum_j z_{n-1,j}.

    In x-coordinates this is sum_{2i <= j <= 2n-2} x_{i,j}
    - sum_{i < n} x_{i,2n-1}; both readings are computed from the same data.
    """
    n = vars.n_half
    total = None
    for i in range(1, n):
        for j in range(1, i + 1):
            t = quotient(vars.c(i, j), vars.z(i, j))
            total = t if total is None else total + t
    for i in range(1, n - 1):
        for j in range(1, i + 1):
            t = quotient(vars.z(i, j), vars.c(i + 1, j))
            total = total + t
    for j in range(1, n):
        total = total - vars.z(n - 1, j)
    return total


def superdiag_closed_form_x(vars: UnfoldVars):
    n = vars.n_half
    total = None
    for i in range(1, n):
        for j in range(2 * i, 2 * n - 1):
            t = vars.x(i, j)
            total = t if total is None else total + t
    for i in range(1, n):
        total = total - vars.x(i, 2 * n - 1)
    return total


# -- alternating sum ---------------------------------------------------------


def altsum_check(vars: UnfoldVars):
    """Both sides of the alternating-sum identity, computed independently.

    lhs = sum_j s_j where s_j is a signed ratio of a shifted-entry
    determinant e_j to a product of diagonal c's; rhs = sum_j z_{n-1,j}.
    """
    n = vars.n_half
    mat = build_B(vars)

    def tc(i, j):
        if i == j:
            return vars.c(i, i)
        return tilde_c(mat, n, i, j)

    def tz(i, j):
        if i == n - 1:
            return vars.z(n - 1, j)
        return tilde_z(mat, n, i, j)

    lhs = None
    for j in range(1, n):
        cols = list(range(n - 1, j - 1, -1))
        rows = []
        for r in range(j + 1, n):
            rows.append([tc(r, l) if l <= r else 0 for l in cols])
        rows.append([tz(n - 1, l) for l in cols])
        e_j = Matrix(rows).det()
        ctilde_row_sum = None
        for l in range(1, j + 1):
            v = tc(j, l)
            ctilde_row_sum = v if ctilde_row_sum is None else ctilde_row_sum + v
        den = None
        for r in range(j, n):
            den = vars.c(r, r) if den is None else den * vars.c(r, r)
        sgn = _sign_pow(1 + (n - j) * (n - j + 1) // 2)
        s_j = sgn * quotient(ctilde_row_sum * e_j, den)
        lhs = s_j if lhs is None else lhs + s_j
    rhs = None
    for j in range(1, n):
        v = vars.z(n - 1, j)
        rhs = v if rhs is None else rhs + v
    return lhs, rhs


# -- recursive lower factor --------------------------------------------------


def _is_int(e, value: int) -> bool:
    return isinstance(e, int) and e == value


def _suffix_sums(rows, start: int, stop: int, negate_last=False):
    """Right-multiply columns start..stop-1 by the all-ones lower-triangular
    block: each becomes the sum of itself and the columns to its right, the
    last subtracted if the block's bottom row is negated (negate_last)."""
    for row in rows:
        acc = 0
        for j in range(stop - 1, start - 1, -1):
            e = -row[j] if negate_last and j == stop - 1 else row[j]
            if _is_int(acc, 0):
                acc = e
            elif not _is_int(e, 0):
                acc = acc + e
            row[j] = acc


def _scale_columns(rows, scales):
    """Right-multiply by the diagonal matrix of scales."""
    for row in rows:
        for j, d in enumerate(scales):
            if not (_is_int(d, 1) or _is_int(row[j], 0)):
                row[j] = row[j] * d


def lower_factor_recursive(n_half: int, x: dict) -> Matrix:
    """Lower factor of the shifted block, built by the size recursion.

    Starting from the 1x1 identity, each step m borders the factor with a
    2x2 identity and multiplies in four sparse factors: two of all-ones
    lower-triangular blocks (the first factor's second block with a negated
    bottom row) and two diagonals carrying x_{., 2m} and x_{., 2m+1}.  They
    are applied as column operations: suffix sums over each block's columns
    and column scalings.  The result equals the lower part (diagonal times
    unit-lower) of the elimination decomposition of build_B in x-coordinates.
    """
    if n_half < 1:
        raise ValueError("n_half must be >= 1")
    for key, v in x.items():
        if _is_zero(v):
            raise ZeroDivisionError(f"x value at {key} is zero")
    rows = [[1]]
    for m in range(1, n_half):
        size = 2 * m + 1
        d2 = (
            [x[(i, 2 * m)] for i in range(1, m + 1)]
            + [x[(i, 2 * m)] for i in range(m, 0, -1)]
            + [1]
        )
        d4 = (
            [x[(i, 2 * m + 1)] for i in range(1, m + 1)]
            + [1]
            + [x[(i, 2 * m + 1)] for i in range(m, 0, -1)]
        )
        rows = [row + [0, 0] for row in rows]
        rows += [[0] * (size - 2) + [1, 0], [0] * (size - 1) + [1]]
        _suffix_sums(rows, 0, m)
        _suffix_sums(rows, m, 2 * m, negate_last=True)
        _scale_columns(rows, d2)
        _suffix_sums(rows, 0, m)
        _suffix_sums(rows, m, size)
        _scale_columns(rows, d4)
    return Matrix(rows)


def _shuffle_blocks(vars: UnfoldVars):
    """The n x n blocks C and Z of the shuffled matrix, as lists of rows."""
    n = vars.n_half
    b = build_B(vars)
    cmat = [[0] * n for _ in range(n)]
    zmat = [[0] * n for _ in range(n)]
    for i in range(1, n):
        for j in range(1, i):
            cmat[i - 1][j - 1] = tilde_c(b, n, i, j)
        cmat[i - 1][i - 1] = vars.c(i, i)
    cmat[n - 1][n - 1] = 1
    for i in range(2, n):
        for j in range(1, i):
            zmat[i - 1][j - 1] = tilde_z(b, n, i - 1, j)
    for j in range(1, n):
        zmat[n - 1][j - 1] = vars.z(n - 1, j)
    return cmat, zmat


def assemble_shuffled(vars: UnfoldVars) -> Matrix:
    """The 2n x 2n matrix whose Whittaker value the closed form evaluates:
    sigma * [[C, Z], [0, C]] * diag(f1, f2), with C and Z triangular blocks
    holding the shifted coordinate values, f1 the identity with an all-ones
    last column, and f2 the reversal on the first n-1 coordinates.

    The x coordinates parameterize the shifted matrix, so the blocks carry
    the tilde values; the product then equals the shifted block bordered by
    a trailing 1.

    The product is evaluated by placing entries, since every factor around
    the block matrix is a permutation or the identity plus one column of
    ones: f1 keeps the left block's first n-1 columns and puts the sum of
    its n columns last, f2 reverses the right block's first n-1 columns,
    and sigma moves row k to row sigma(k).  No closed form is read.
    ``tests/test_unfold.py::test_assembly_equals_the_dense_product`` holds
    the result to the dense product of the three matrices.
    """
    n = vars.n_half
    cmat, zmat = _shuffle_blocks(vars)
    # row k of [[C, Z], [0, C]] diag(f1, f2) lands in row perm[k] - 1
    perm = sigma(n).permutation
    rows = [None] * (2 * n)
    for k in range(n):
        crow, zrow = cmat[k], zmat[k]
        rows[perm[k] - 1] = crow[:-1] + [sum(crow)] + zrow[-2::-1] + zrow[-1:]
        rows[perm[n + k] - 1] = [0] * n + crow[-2::-1] + crow[-1:]
    return Matrix(rows)


@dataclass(frozen=True)
class ShuffledFactors:
    """h's diagonal and the unit-upper n's superdiagonal of the decomposition
    n h n_minus of an assembled shuffle matrix."""

    diag: tuple
    superdiag: tuple


def shuffled_factors(n_half: int) -> ShuffledFactors:
    """The factors of nhn_decompose(assemble_shuffled(symbolic_x(n_half))).

    h's diagonal is signed monomials in x and n's superdiagonal Laurent
    polynomials; the decomposition is unique, so at any nonzero rational x
    their values are the factors of the pointwise decomposition.
    """
    nhn = nhn_decompose(assemble_shuffled(UnfoldVars.symbolic_x(n_half)))
    m = 2 * n_half
    return ShuffledFactors(
        tuple(nhn.h[j, j] for j in range(m)),
        tuple(nhn.n[i, i + 1] for i in range(m - 1)),
    )


def kappa2_sign(delta) -> int:
    two_n = len(delta)
    return _sign_pow(sum(delta[k - 1] for k in range(2, two_n - 1, 2)))


# -- the Whittaker value, symbolic in x, lambda and delta --------------------


@dataclass(frozen=True)
class WhittakerForm:
    """A Whittaker value as exact data, for every x, lambda and delta:

        e(phase) * prod_{j in sign} (-1)^delta_j
          * prod_x |x|^(c_x + sum_j l_{x,j} lambda_j) sgn(x)^(sum_j p_{x,j} delta_j)

    exponents maps the name of each indeterminate x to (c_x, l_x), and
    parities maps it to p_x, reduced mod 2.
    """

    phase: "RatFunc"
    sign: frozenset
    exponents: dict
    parities: dict


def _signed_monomial(h, j: int):
    """(eps, a) with h = eps * x^a, eps = +-1 and a Laurent exponent vector."""
    if isinstance(h, RatFunc) and h.num.is_monomial() and h.den.is_monomial():
        (a, eps), (b, d) = h.num.leading(), h.den.leading()
        if eps in (1, -1) and d == 1:
            return eps, [p - q for p, q in zip(a, b)]
    raise IdentityMismatchError(f"h_{j}{j} is not a signed monomial")


def whittaker_eval(diag, superdiag) -> WhittakerForm:
    """The Whittaker value of g = n h n_minus read from its exact factors.

    With diag the diagonal of h and superdiag that of the unit-upper n, it
    is e(sum of superdiag) * prod_j |h_j|^((m+1)/2 - j - lambda_j)
    sgn(h_j)^delta_j.  Each h_j must be eps_j x^(a_j), a monomial with
    coefficient +-1, or IdentityMismatchError is raised.  Then the sign
    constant collects the j with eps_j = -1, and x carries the exponent
    sum_j a_{j,x} ((m+1)/2 - j - lambda_j) and the parity sum_j a_{j,x} delta_j.
    """
    m = len(diag)
    sign, rows = set(), []
    for j, h in enumerate(diag, 1):
        eps, a = _signed_monomial(h, j)
        if eps == -1:
            sign.add(j)
        rows.append(a)
    exponents, parities = {}, {}
    for v, name in enumerate(diag[0].ring.names):
        col = [a[v] for a in rows]
        const = sum(Fraction(e * (m + 1 - 2 * j), 2) for j, e in enumerate(col, 1))
        exponents[name] = (const, tuple(-e for e in col))
        parities[name] = tuple(e % 2 for e in col)
    return WhittakerForm(sum(superdiag), frozenset(sign), exponents, parities)


def shuffled_whittaker_eval(n_half: int) -> WhittakerForm:
    """Closed form for the Whittaker value of the assembled shuffle matrix:

        e(sum x_{i,k} - sum x_{i,2n-1}) * kappa2
          * prod |x_{i,k}|^(-lam_i - lam_{k+1-i} + 2n - k)
                 sgn(x_{i,k})^(delta_i + delta_{k+1-i})

    over 2i <= k <= 2n-1, on the indeterminates of symbolic_x.  kappa2's
    index set is read from kappa2_sign on unit vectors.  The oracle is
    shuffled_whittaker_oracle.
    """
    m = 2 * n_half
    units = [[int(j == k) for j in range(m)] for k in range(m)]
    sign = frozenset(k + 1 for k, e in enumerate(units) if kappa2_sign(e) == -1)
    exponents, parities = {}, {}
    for i, k in _x_index_set(n_half):
        pair = [int(j in (i, k + 1 - i)) for j in range(1, m + 1)]
        exponents[_x_name(i, k)] = (m - k, tuple(-p for p in pair))
        parities[_x_name(i, k)] = tuple(pair)
    phase = superdiag_closed_form_x(UnfoldVars.symbolic_x(n_half))
    return WhittakerForm(phase, sign, exponents, parities)


def shuffled_whittaker_oracle(n_half: int) -> WhittakerForm:
    """whittaker_eval on the factors of assemble_shuffled(symbolic_x(n_half))."""
    factors = shuffled_factors(n_half)
    return whittaker_eval(factors.diag, factors.superdiag)


# -- kappa bookkeeping -------------------------------------------------------


@dataclass(frozen=True)
class KappaSigns:
    kappa1: int
    kappa1_prime: int
    kappa2: int
    kappa3: int
    kappa: int


def kappa_signs(n_half: int, delta, eps, eta) -> KappaSigns:
    """All the unfolding signs, with the product identity enforced.

    Requires the parity constraint sum(delta) = eps + n_half * eta (mod 2).
    kappa is computed from its closed form and must equal
    kappa1_prime * kappa2 * kappa3 assembled from the piecewise formulas.
    """
    n = n_half
    delta = [as_parity(d) for d in delta]
    eps = as_parity(eps)
    eta = as_parity(eta)
    if len(delta) != 2 * n:
        raise ValueError("delta must have length 2 n_half")
    if sum(delta) % 2 != (eps + n * eta) % 2:
        raise ValueError("parity constraint sum(delta) = eps + n*eta (mod 2) fails")
    if n == 1:
        # no unfolding stage exists, so every sign degenerates to +1; the
        # piecewise formulas below assume at least two stages
        return KappaSigns(1, 1, 1, 1, 1)
    k1 = _sign_pow(
        sum(delta[k - 1] for k in range(2, n)) + delta[2 * n - 1] + eps
        + eta * (n * (n + 1) // 2)
    )
    k1p = k1 * _sign_pow(eta * (n * (n - 1) // 2))
    k2 = kappa2_sign(delta)
    k3 = _sign_pow(eta + delta[n - 1] + delta[2 * n - 1] + eps)
    closed = _sign_pow(
        (n + 1) * eta
        + sum(delta[k - 1] for k in range(2, n + 1))
        + sum(delta[2 * k - 1] for k in range(1, n))
    )
    if k1p * k2 * k3 != closed:
        raise ArithmeticError("kappa sign identity failed")
    return KappaSigns(k1, k1p, k2, k3, closed)


# -- the unfolded Gamma table ------------------------------------------------


def unfolded_gamma_table(eparams, eta) -> GammaExpr:
    """The product of G(delta_i + delta_j + eta mod 2, -lam_i - lam_j) over
    the index pairs i < j with i + j <= 2n, built factor by factor."""
    eta = as_parity(eta)
    lam = list(eparams.lam)
    delta = list(eparams.delta)
    two_n = len(lam)
    if two_n % 2:
        raise ValueError("parameter length must be even")
    table = GammaExpr.one()
    for i in range(1, two_n + 1):
        for j in range(i + 1, two_n + 1 - i):
            parity = (delta[i - 1] + delta[j - 1] + eta) % 2
            table *= GammaExpr.g_factor(parity, -lam[i - 1] - lam[j - 1])
    return table
