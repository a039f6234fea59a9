import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest

import extsq.matrices as matrices
import extsq.polynomials as polynomials
import extsq.ratfunc as ratfunc
import extsq.unfold as unfold
from extsq.decomp import DegenerateMinorError, nhn_decompose
from extsq.lfactors import EmbeddingParams
from extsq.matrices import Matrix
from extsq.polynomials import PolyRing
from extsq.ratfunc import RatFunc
from extsq.unfold import (
    UnfoldVars,
    altsum_check,
    build_block_A,
    build_B,
    kappa_signs,
    lower_factor_recursive,
    shuffled_factors,
    shuffled_whittaker_eval,
    shuffled_whittaker_oracle,
    sigma,
    superdiag_closed_form,
    superdiag_closed_form_x,
    superdiag_sum,
    tilde_c,
    tilde_z,
)


def test_sigma_is_a_signed_permutation():
    for n in range(1, 7):
        sg = sigma(n)
        m = sg.matrix
        assert m.nrows == 2 * n
        for i in range(2 * n):
            assert sum(1 for j in range(2 * n) if m[i, j] != 0) == 1
        assert sorted(sg.permutation) == list(range(1, 2 * n + 1))


def test_sigma_determinant_pattern():
    dets = [sigma(n).matrix.det() for n in range(1, 13)]
    assert dets == [1, -1, -1, 1, 1, -1, -1, 1, 1, -1, -1, 1]
    for n, d in enumerate(dets, 1):
        assert d == (1 if n % 4 in (0, 1) else -1)


def test_sigma_two_interleaves():
    assert sigma(2).permutation == (1, 3, 2, 4)


def test_block_matrix_small_case():
    v = UnfoldVars.symbolic(2)
    a = build_block_A(v)
    want = [
        ["c11", "c11", "0"],
        ["0", "0", "c11"],
        ["0", "1", "z11"],
    ]
    got = [[str(a[i, j]) for j in range(3)] for i in range(3)]
    assert got == want
    b = build_B(v)
    assert [[str(b[i, j]) for j in range(3)] for i in range(3)] == want


def test_tilde_entries_small_case():
    v = UnfoldVars.symbolic(3)
    b = build_B(v)
    tc21 = tilde_c(b, 3, 2, 1)
    assert tc21 == v.c(2, 1) + v.c(2, 2) * v.z(2, 1) / v.z(2, 2)
    tz11 = tilde_z(b, 3, 1, 1)
    assert tz11 == v.z(1, 1) - (tc21 + v.c(2, 2)) * v.c(2, 1) * v.z(2, 2) / v.c(2, 2)


def _random_x(rng, n_half):
    return {
        (i, j): Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
        for i in range(1, n_half)
        for j in range(2 * i, 2 * n_half)
    }


@pytest.mark.parametrize("n_half", [3, 4, 5])
def test_build_B_solves_each_entry_once(monkeypatch, n_half):
    solve = unfold._solve_affine
    positions = []

    def counting(minors, n, pos, target):
        positions.append(pos)
        return solve(minors, n, pos, target)

    monkeypatch.setattr(unfold, "_solve_affine", counting)
    build_B(UnfoldVars.from_x(n_half, _random_x(random.Random(n_half), n_half)))
    # (n-1)(n-2)/2 shifted z entries and as many off-diagonal c entries
    assert len(positions) == (n_half - 1) * (n_half - 2)
    assert len(set(positions)) == len(positions)


def test_build_B_rejects_a_wrong_shift(monkeypatch):
    solve = unfold._solve_affine

    def off_by_one(minors, n, pos, target):
        new = solve(minors, n, pos, target) + 1
        minors.rows[pos[0] - 1][pos[1] - 1] = new
        return new

    monkeypatch.setattr(unfold, "_solve_affine", off_by_one)
    v = UnfoldVars.from_x(3, _random_x(random.Random(5), 3))
    with pytest.raises(ArithmeticError, match="determinant condition failed"):
        build_B(v)


def test_build_B_refuses_a_vanishing_pivot():
    x = _random_x(random.Random(8), 3)
    x[(2, 4)] = Fraction(0)  # so c_{2,2} = 0, the corner cofactor of z_{1,1}
    with pytest.raises(ZeroDivisionError, match="vanishing pivot"):
        build_B(UnfoldVars.from_x(3, x))


@pytest.mark.parametrize("convert", [float, complex])
def test_inexact_coordinates_are_refused_at_construction(convert):
    """The identities are checked with exact equality, so a float or complex
    coordinate is a TypeError naming its type, in either presentation."""
    x = _random_x(random.Random(9), 3)
    with pytest.raises(TypeError, match=convert.__name__):
        UnfoldVars.from_x(3, {k: convert(v) for k, v in x.items()})
    # one inexact value is enough
    x[(1, 3)] = convert(2)
    with pytest.raises(TypeError, match=convert.__name__):
        UnfoldVars.from_x(3, x)
    v = UnfoldVars.from_x(3, _random_x(random.Random(9), 3))
    keys = unfold._cz_index_set(3)
    c = {k: v.c(*k) for k in keys}
    z = {k: v.z(*k) for k in keys}
    z[(2, 1)] = convert(3)
    with pytest.raises(TypeError, match=convert.__name__):
        UnfoldVars.from_cz(3, c, z)
    with pytest.raises(TypeError, match=convert.__name__):
        UnfoldVars.from_cz(3, {k: convert(e) for k, e in c.items()}, z)


def _seeded_vars():
    """Symbolic n_half <= 4 in both presentations, seeded rational n_half <= 8."""
    out = []
    for n_half in (2, 3, 4):
        out.append(pytest.param(UnfoldVars.symbolic(n_half), id=f"cz-{n_half}"))
        out.append(pytest.param(UnfoldVars.symbolic_x(n_half), id=f"x-{n_half}"))
    rng = random.Random(31)
    for n_half in range(3, 9):
        v = UnfoldVars.from_x(n_half, _random_x(rng, n_half))
        out.append(pytest.param(v, id=f"rational-{n_half}"))
    return out


def _table_det(minors, r, cols):
    """det rows[r.., cols] read from a _Minors table: the integral minor
    over the product of the scales of rows r.."""
    minor = minors.integral(r, cols)
    scale = math.prod(minors.cleared(k)[1] for k in range(r, len(minors.rows)))
    if scale == 1 or matrices._is_zero(minor):
        return minor
    if isinstance(scale, polynomials.Polynomial):
        return RatFunc(minor, scale)
    return minor / Fraction(scale)


@pytest.mark.parametrize("v", _seeded_vars())
def test_minor_table_matches_bareiss(v):
    b = build_B(v)
    size = b.nrows
    minors = unfold._Minors(b)
    rng = random.Random(size)
    for r in range(size):
        k = size - r
        # every contiguous block reaching the last row, and one scattered one
        blocks = [tuple(range(c, c + k)) for c in range(size - k + 1)]
        blocks.append(tuple(sorted(rng.sample(range(size), k))))
        for cols in blocks:
            assert _table_det(minors, r, cols) == b.submatrix(range(r, size), cols).det()


RING = PolyRing(("x", "y"))
X, Y = RING.var("x"), RING.var("y")
ONE = RING.one()


def _rf(num, den=ONE):
    return RatFunc(num, den)


F = Fraction
HAND_BUILT = {
    # denominators 6, 35, 44 and 24, different in every row
    "fraction-rows": [
        [F(1, 2), F(1, 3), 2, F(5, 6)],
        [F(3, 5), F(-1, 5), F(1, 7), 2],
        [1, F(2, 11), F(-3, 4), F(1, 4)],
        [F(5, 3), 1, F(1, 8), F(-7, 8)],
    ],
    # a distinct polynomial denominator per row, a mixed one in the last
    "ratfunc-rows": [
        [_rf(X, X + 1), _rf(ONE, X + 1), _rf(Y), _rf(X * Y, X + 1)],
        [_rf(Y, Y - 2), _rf(X + Y), _rf(ONE, Y - 2), _rf(3 * ONE)],
        [_rf(ONE), _rf(X * X, X * Y + 3), _rf(Y, X * Y + 3), _rf(2 * X)],
        [_rf(ONE, X + 1), _rf(X, Y - 2), _rf(ONE), _rf(Y, X - Y)],
    ],
    "polynomial-and-int-rows": [
        [X, Y, X * Y, ONE],
        [1, 2, 0, 3],
        [X + Y, 0, Y * Y, X],
        [0, 1, 1, 5],
    ],
    # an int row and a Fraction row under RatFunc and Polynomial rows
    "mixed-kinds": [
        [_rf(X, Y + 1), 0, _rf(ONE, X), _rf(Y)],
        [X - 1, Y, 0, ONE],
        [F(1, 3), 2, F(-5, 6), 1],
        [4, 0, -1, 2],
    ],
    # complex entries keep scale 1; the Fraction row below has scale 12
    "complex-row": [
        [1 + 2j, 0.5j, 3, -1j],
        [2, 0, 1, 1],
        [F(1, 4), F(-2, 3), 1, F(1, 2)],
        [0, 1, 3, 1],
    ],
}


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_cleared_minor_table_matches_bareiss(name):
    m = Matrix(HAND_BUILT[name])
    minors = unfold._Minors(m)
    size = m.nrows
    for r in range(size):
        for cols in itertools.combinations(range(size), size - r):
            want = m.submatrix(range(r, size), cols).det()
            got = _table_det(minors, r, cols)
            if name == "complex-row":
                assert complex(got) == pytest.approx(complex(want), abs=1e-12)
            else:
                assert got == want


def test_cleared_minor_table_scales_rows_by_their_own_denominators():
    minors = unfold._Minors(Matrix(HAND_BUILT["fraction-rows"]))
    assert [minors.cleared(r)[1] for r in range(4)] == [6, 35, 44, 24]
    # the integral minor of the last two rows is the cleared 2x2 determinant
    assert minors.integral(2, (0, 1)) == 44 * 24 * (1 * 1 - F(2, 11) * F(5, 3))


def _bareiss_block(b, n, r, c):
    """Matrix.det of the block with top-right corner (r, c), 1-based, down
    to the last row."""
    k = 2 * n - r
    return b.submatrix(range(r - 1, 2 * n - 1), range(c - k, c)).det()


@pytest.mark.parametrize("v", _seeded_vars())
def test_build_B_meets_every_condition_by_bareiss(v):
    n = v.n_half
    b = build_B(v)
    checked = 0
    for i in range(1, n - 1):
        for j in range(1, i + 1):
            # z_{i,j} at (2i+1, 2n-j), its neighbour c_{i+1,j+1} one down-left
            k = 2 * (n - i) - 1
            lhs = _bareiss_block(b, n, 2 * i + 1, 2 * n - j)
            neighbour = _bareiss_block(b, n, 2 * i + 2, 2 * n - j - 1)
            rhs = (-1) ** (k - 1) * v.z(i, j) * neighbour
            assert lhs == rhs
            checked += 1
    for i in range(2, n):
        for j in range(1, i):
            # c_{i,j} at (2i, 2n-j), its neighbour z_{i,j+1} one down-left
            k = 2 * (n - i)
            lhs = _bareiss_block(b, n, 2 * i, 2 * n - j)
            neighbour = _bareiss_block(b, n, 2 * i + 1, 2 * n - j - 1)
            rhs = (-1) ** (k - 1) * v.c(i, j) * neighbour
            assert lhs == rhs
            checked += 1
    assert checked == (n - 1) * (n - 2)


def _digest_vars():
    out = [UnfoldVars.symbolic(n) for n in range(2, 6)]
    out += [UnfoldVars.symbolic_x(n) for n in range(2, 6)]
    rng = random.Random(43)
    out += [UnfoldVars.from_x(n, _random_x(rng, n)) for n in range(2, 9) for _ in range(3)]
    return out


def test_build_B_digest_is_frozen():
    """Type name and value of every entry of build_B's output, symbolic and
    symbolic_x n_half 2..5 and three seeded rational draws at n_half 2..8."""
    h = hashlib.md5()
    for v in _digest_vars():
        for row in build_B(v).data:
            h.update(repr([(type(e).__name__, str(e)) for e in row]).encode())
    assert h.hexdigest() == "84015bddde62a51cdeed39278a3a10bb"


def test_build_B_gcd_budget(monkeypatch):
    """The table expands over cleared rows, so build_B forms few gcds."""
    v = UnfoldVars.symbolic_x(4)
    gcd = polynomials.poly_gcd
    calls = []

    def counting(f, g):
        calls.append(None)
        return gcd(f, g)

    monkeypatch.setattr(ratfunc, "poly_gcd", counting)
    monkeypatch.setattr(matrices, "poly_gcd", counting)
    build_B(v)
    assert 0 < len(calls) <= 168


def test_superdiag_gcd_budget(monkeypatch):
    """superdiag_sum reads the guard's table and builds each entry as one
    fraction, so it forms few more gcds than build_B itself."""
    v = UnfoldVars.symbolic_x(4)
    gcd = polynomials.poly_gcd
    calls = []

    def counting(f, g):
        calls.append(None)
        return gcd(f, g)

    monkeypatch.setattr(ratfunc, "poly_gcd", counting)
    monkeypatch.setattr(matrices, "poly_gcd", counting)
    superdiag_sum(v)
    assert 0 < len(calls) <= 125


def _superdiag_by_elimination(v):
    nhn = nhn_decompose(build_B(v))
    return sum((nhn.n[i, i + 1] for i in range(1, nhn.n.nrows - 1)), nhn.n[0, 1])


def _superdiag_oracle_vars():
    """Symbolic n_half=2..5 in both presentations, seeded rational n_half=2..6,
    and symbolic x with rational x_{1,j}, whose top rows of B are rational
    over polynomial minors."""
    out = []
    for n_half in (2, 3, 4, 5):
        out.append(pytest.param(UnfoldVars.symbolic(n_half), id=f"cz-{n_half}"))
        out.append(pytest.param(UnfoldVars.symbolic_x(n_half), id=f"x-{n_half}"))
    for n_half in (3, 4):
        vx = UnfoldVars.symbolic_x(n_half)
        x = {k: vx.x(*k) for k in unfold._x_index_set(n_half)}
        x.update({(1, j): Fraction(j, 3) for j in range(2, 2 * n_half)})
        out.append(pytest.param(UnfoldVars.from_x(n_half, x), id=f"mixed-{n_half}"))
    rng = random.Random(41)
    for n_half in range(2, 7):
        for k in range(3):
            v = UnfoldVars.from_x(n_half, _random_x(rng, n_half))
            out.append(pytest.param(v, id=f"rational-{n_half}-{k}"))
    return out


@pytest.mark.parametrize("v", _superdiag_oracle_vars())
def test_superdiag_sum_matches_elimination(v):
    """The old route, a full nhn_decompose of build_B, as an oracle for the
    superdiagonal read from the guard table."""
    assert superdiag_sum(v) == _superdiag_by_elimination(v)


@pytest.mark.parametrize("zero", ["c11", "c21", "c31", "z11", "z21", "z31"])
def test_superdiag_names_the_minor_elimination_names(zero):
    # each zero makes a different trailing minor of B vanish, d_2 to d_7
    keys = [(i, j) for i in range(1, 4) for j in range(1, i + 1)]
    c = {(i, j): Fraction(i + j) for i, j in keys}
    z = {(i, j): Fraction(i - j + 1) for i, j in keys}
    (c if zero[0] == "c" else z)[int(zero[1]), int(zero[2])] = Fraction(0)
    v = UnfoldVars(4, c, z, {k: 1 for k in unfold._x_index_set(4)})
    with pytest.raises(DegenerateMinorError) as want:
        _superdiag_by_elimination(v)
    with pytest.raises(DegenerateMinorError) as got:
        superdiag_sum(v)
    assert str(got.value) == str(want.value)


def test_superdiag_identity_symbolic():
    for n_half in (2, 3):
        v = UnfoldVars.symbolic(n_half)
        assert superdiag_sum(v) == superdiag_closed_form(v)
        vx = UnfoldVars.symbolic_x(n_half)
        assert superdiag_sum(vx) == superdiag_closed_form_x(vx)


def test_superdiag_identity_rational():
    rng = random.Random(13)
    for _ in range(10):
        v = UnfoldVars.from_x(4, _random_x(rng, 4))
        s = superdiag_sum(v)
        assert s == superdiag_closed_form(v)
        assert s == superdiag_closed_form_x(v)


def test_altsum_identity():
    for n_half in (2, 3):
        lhs, rhs = altsum_check(UnfoldVars.symbolic(n_half))
        assert lhs == rhs
    rng = random.Random(17)
    for _ in range(5):
        lhs, rhs = altsum_check(UnfoldVars.from_x(4, _random_x(rng, 4)))
        assert lhs == rhs


def test_lower_factor_recursive_small_case():
    x12, x13 = Fraction(2, 3), Fraction(-5, 7)
    m = lower_factor_recursive(2, {(1, 2): x12, (1, 3): x13})
    want = Matrix(
        [
            [x12 * x13, 0, 0],
            [0, -x12, 0],
            [0, 1, x13],
        ]
    )
    assert m == want


def test_lower_factor_recursive_matches_elimination():
    for n_half in (2, 3):
        vx = UnfoldVars.symbolic_x(n_half)
        x = {
            (i, j): vx.x(i, j)
            for i in range(1, n_half)
            for j in range(2 * i, 2 * n_half)
        }
        rec = lower_factor_recursive(n_half, x)
        nhn = nhn_decompose(build_B(vx))
        prod = nhn.h * nhn.n_minus
        size = rec.nrows
        for i in range(size):
            for j in range(size):
                assert prod[i, j] == rec[i, j]


def _ones_lower(k, negate_bottom=False):
    m = [[1 if j <= i else 0 for j in range(k)] for i in range(k)]
    if negate_bottom:
        m[k - 1] = [-1] * k
    return Matrix(m)


def _dense_lower_factor(n_half, x):
    """The size recursion as dense products of its four sparse factors."""
    b = Matrix([[1]])
    for m in range(1, n_half):
        m1 = Matrix.block_diagonal(
            _ones_lower(m), _ones_lower(m, negate_bottom=True), Matrix([[1]])
        )
        d2 = (
            [x[(i, 2 * m)] for i in range(1, m + 1)]
            + [x[(i, 2 * m)] for i in range(m, 0, -1)]
            + [1]
        )
        m3 = Matrix.block_diagonal(_ones_lower(m), _ones_lower(m + 1))
        d4 = (
            [x[(i, 2 * m + 1)] for i in range(1, m + 1)]
            + [1]
            + [x[(i, 2 * m + 1)] for i in range(m, 0, -1)]
        )
        b = (
            Matrix.block_diagonal(b, Matrix.identity(2))
            * m1 * Matrix.diagonal(d2) * m3 * Matrix.diagonal(d4)
        )
    return b


def _recursion_inputs():
    out = []
    rng = random.Random(23)
    for n_half in range(1, 8):
        for k in range(2):
            x = _random_x(rng, n_half)
            out.append(pytest.param(n_half, x, id=f"rational-{n_half}-{k}"))
    for n_half in (2, 3, 4):
        vx = UnfoldVars.symbolic_x(n_half)
        x = {key: vx.x(*key) for key in unfold._x_index_set(n_half)}
        out.append(pytest.param(n_half, x, id=f"x-{n_half}"))
    return out


@pytest.mark.parametrize("n_half, x", _recursion_inputs())
def test_lower_factor_recursive_matches_dense_product(n_half, x):
    rec = lower_factor_recursive(n_half, x)
    dense = _dense_lower_factor(n_half, x)
    assert rec == dense
    assert [[type(e) for e in row] for row in rec.data] == [
        [type(e) for e in row] for row in dense.data
    ]


def test_lower_factor_rejects_zero_inputs():
    with pytest.raises(ZeroDivisionError):
        lower_factor_recursive(2, {(1, 2): 0, (1, 3): 1})


def test_whittaker_dual_paths_agree():
    rng = random.Random(19)
    for n_half in (2, 3):
        factors = shuffled_factors(n_half)
        for _ in range(25):
            v = UnfoldVars.from_x(n_half, _random_x(rng, n_half))
            lam = tuple(Fraction(rng.randint(-4, 4), 2) for _ in range(2 * n_half))
            delta = tuple(rng.randint(0, 1) for _ in range(2 * n_half))
            e = EmbeddingParams(lam, delta)
            a = shuffled_whittaker_eval(v, e)
            b = shuffled_whittaker_oracle(factors, v, e)
            assert a == pytest.approx(b, rel=1e-10)


@pytest.mark.parametrize("n_half", [2, 3, 4, 5])
def test_shuffled_factors_at_a_point_are_the_pointwise_factors(n_half):
    # the symbolic factors, evaluated at rational x, against the
    # decomposition of the rational matrix itself
    factors = shuffled_factors(n_half)
    assert all(isinstance(e, RatFunc) for e in factors.diag + factors.superdiag)
    rng = random.Random(37 * n_half)
    for _ in range(10):
        v = UnfoldVars.from_x(n_half, _random_x(rng, n_half))
        nhn = nhn_decompose(unfold.assemble_shuffled(v))
        m = 2 * n_half
        pointwise = unfold.ShuffledFactors(
            tuple(nhn.h[j, j] for j in range(m)),
            tuple(nhn.n[i, i + 1] for i in range(m - 1)),
        )
        assert factors.at(v) == pointwise


def test_shuffled_factors_need_every_x():
    v = UnfoldVars.from_x(2, _random_x(random.Random(3), 2))
    with pytest.raises(KeyError):
        shuffled_factors(3).at(v)


def _dense_assembly(v):
    """sigma * [[C, Z], [0, C]] * diag(f1, f2) as two dense matrix products."""
    n = v.n_half
    cmat, zmat = unfold._shuffle_blocks(v)
    big = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            big[i][j] = cmat[i][j]
            big[i][n + j] = zmat[i][j]
            big[n + i][n + j] = cmat[i][j]
    f1 = [[1 if (i == j or j == n - 1) else 0 for j in range(n)] for i in range(n)]
    f2 = Matrix.block_diagonal(Matrix.reversal(n - 1), Matrix([[1]]))
    right = Matrix.block_diagonal(Matrix(f1), f2)
    return sigma(n).matrix * Matrix(big) * right


def _assembly_inputs():
    out = []
    rng = random.Random(29)
    for n_half in range(2, 7):
        for k in range(3):
            v = UnfoldVars.from_x(n_half, _random_x(rng, n_half))
            out.append(pytest.param(v, id=f"rational-{n_half}-{k}"))
    for n_half in (2, 3, 4):
        out.append(pytest.param(UnfoldVars.symbolic(n_half), id=f"cz-{n_half}"))
        out.append(pytest.param(UnfoldVars.symbolic_x(n_half), id=f"x-{n_half}"))
    return out


@pytest.mark.parametrize("v", _assembly_inputs())
def test_assembly_equals_the_dense_product(v):
    placed = unfold.assemble_shuffled(v)
    dense = _dense_assembly(v)
    assert placed == dense
    assert [[type(e) for e in row] for row in placed.data] == [
        [type(e) for e in row] for row in dense.data
    ]


def _mixed_x(rng, n_half, p_symbol=0.3):
    """Rational x values, each replaced by its own variable with probability
    p_symbol."""
    keys = unfold._x_index_set(n_half)
    ring = PolyRing(sorted(f"x{i}_{j}" for i, j in keys))
    x = _random_x(rng, n_half)
    for i, j in keys:
        if rng.random() < p_symbol:
            x[(i, j)] = ring.var(f"x{i}_{j}")
    return x


@pytest.mark.parametrize("n_half", [2, 3, 4, 5])
def test_identities_on_mixed_rational_and_symbolic_x(n_half):
    # a rational shifted value over polynomial minors hands unfold._div two
    # Polynomials, or a Polynomial and an int
    rng = random.Random(1000 * n_half)
    for _ in range(60):
        v = UnfoldVars.from_x(n_half, _mixed_x(rng, n_half))
        assert superdiag_sum(v) == superdiag_closed_form_x(v)
        lhs, rhs = altsum_check(v)
        assert lhs == rhs


def _mixed_cz(rng, n_half):
    """Rational c and z values, each replaced by its own variable with
    probability 0.3."""
    keys = unfold._cz_index_set(n_half)
    ring = PolyRing(sorted(f"{a}{i}{j}" for a in "cz" for i, j in keys))
    c, z = {}, {}
    for name, values in (("c", c), ("z", z)):
        for i, j in keys:
            q = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
            values[(i, j)] = ring.var(f"{name}{i}{j}") if rng.random() < 0.3 else q
    return c, z


@pytest.mark.parametrize("n_half", [2, 3, 4, 5])
def test_identities_on_mixed_rational_and_symbolic_cz(n_half):
    rng = random.Random(2000 * n_half)
    for _ in range(60):
        v = UnfoldVars.from_cz(n_half, *_mixed_cz(rng, n_half))
        assert superdiag_sum(v) == superdiag_closed_form(v)
        lhs, rhs = altsum_check(v)
        assert lhs == rhs


@pytest.mark.parametrize(
    "p_symbol, n_half",
    [pytest.param(0.3, n, id=str(n)) for n in (2, 3, 4)]
    + [pytest.param(0.0, n, id=f"all-rational-{n}") for n in (2, 3, 4)],
)
def test_recursion_on_mixed_rational_and_symbolic_x(p_symbol, n_half):
    rng = random.Random(3000 * n_half)
    for _ in range(30):
        x = _mixed_x(rng, n_half, p_symbol)
        nhn = nhn_decompose(build_B(UnfoldVars.from_x(n_half, x)))
        assert lower_factor_recursive(n_half, x) == nhn.h * nhn.n_minus


def test_kappa_product_identity_exhaustive():
    import itertools

    for n_half in (2, 3):
        for delta in itertools.product((0, 1), repeat=2 * n_half):
            for eta in (0, 1):
                eps = (sum(delta) + n_half * eta) % 2
                ks = kappa_signs(n_half, delta, eps, eta)
                assert ks.kappa == ks.kappa1_prime * ks.kappa2 * ks.kappa3
                assert all(v in (-1, 1) for v in (ks.kappa1, ks.kappa1_prime, ks.kappa2, ks.kappa3, ks.kappa))


def test_kappa_degenerate_size():
    for delta in ((0, 0), (1, 1)):
        for eta in (0, 1):
            eps = (sum(delta) + eta) % 2
            ks = kappa_signs(1, delta, eps, eta)
            assert (ks.kappa1, ks.kappa1_prime, ks.kappa2, ks.kappa3, ks.kappa) == (1, 1, 1, 1, 1)


def test_kappa_parity_constraint():
    with pytest.raises(ValueError):
        kappa_signs(2, (0, 0, 0, 0), 1, 0)
