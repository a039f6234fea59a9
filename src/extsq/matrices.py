"""Dense matrices over exact scalars, with a JSON wire format.

Entries can be int, Fraction, complex, Polynomial or RatFunc; int 0/1
interoperate with all of them, so identity and padding need no ring tag.
Determinants use one kernel at every size: each row is cleared of
denominators, fraction-free Bareiss elimination runs over the integers or
over polynomials with every division checked exact, and the product of the
row scales is divided out once at the end.  ``_clear`` is the one place that
decides, from the entry kinds, how rows are cleared and which exact division
their ring uses; ``Matrix.det``, the fraction-free LU in
``decomp.nhn_decompose`` (the Bareiss kernel can run without row swaps) and
the memoised Laplace table ``unfold._Minors`` of ``build_B``, which clears
one row at a time, all call it.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction

from .polynomials import Polynomial, PolyRing, poly_gcd
from .rational import parse_rational
from .ratfunc import RatFunc, quotient

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _is_zero(x) -> bool:
    # the common kinds skip the attribute probe; isinstance would be slower,
    # since Fraction's metaclass is ABCMeta
    t = type(x)
    if t is int or t is Fraction:
        return x == 0
    if hasattr(x, "is_zero"):
        return x.is_zero()
    return x == 0


class Matrix:
    __slots__ = ("data",)

    def __init__(self, rows):
        data = [list(r) for r in rows]
        if data and any(len(r) != len(data[0]) for r in data):
            raise ValueError("ragged rows")
        self.data = data

    @property
    def nrows(self) -> int:
        return len(self.data)

    @property
    def ncols(self) -> int:
        return len(self.data[0]) if self.data else 0

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.data == other.data

    def __repr__(self):
        body = "; ".join(" ".join(str(e) for e in row) for row in self.data)
        return f"<Matrix {self.nrows}x{self.ncols} [{body}]>"

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, entries) -> "Matrix":
        entries = list(entries)
        n = len(entries)
        return cls(
            [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]
        )

    @classmethod
    def block_diagonal(cls, *blocks) -> "Matrix":
        n = sum(b.nrows for b in blocks)
        out = [[0] * n for _ in range(n)]
        off = 0
        for b in blocks:
            for i in range(b.nrows):
                for j in range(b.ncols):
                    out[off + i][off + j] = b.data[i][j]
            off += b.nrows
        return cls(out)

    @classmethod
    def reversal(cls, n: int) -> "Matrix":
        """Antidiagonal permutation matrix (ones from top-right to bottom-left)."""
        return cls([[1 if i + j == n - 1 else 0 for j in range(n)] for i in range(n)])

    def transpose(self) -> "Matrix":
        return Matrix([list(col) for col in zip(*self.data)])

    def __mul__(self, other):
        """Matrix product over any entries that multiply and add.

        A product with an int zero factor is skipped, so int zero padding
        never meets a Polynomial or RatFunc.  Each left row's other entries
        are collected once, and only those are walked for every column;
        each entry is summed in index order, starting from int 0.
        """
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        bt = list(zip(*other.data))
        out = []
        for row in self.data:
            live = [(k, a) for k, a in enumerate(row) if not isinstance(a, int) or a != 0]
            new = []
            for col in bt:
                acc = 0
                for k, a in live:
                    b = col[k]
                    if isinstance(b, int) and b == 0:
                        continue
                    acc = acc + a * b
                new.append(acc)
            out.append(new)
        return Matrix(out)

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return Matrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)]
        )

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return Matrix(
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)]
        )

    def map(self, fn) -> "Matrix":
        return Matrix([[fn(e) for e in row] for row in self.data])

    def submatrix(self, row_idx, col_idx) -> "Matrix":
        return Matrix([[self.data[i][j] for j in col_idx] for i in row_idx])

    def det(self):
        """Determinant by one fraction-free elimination.

        The rows are cleared by ``_clear``, Bareiss elimination runs over
        the integers or Q[x] with every division checked exact, and the
        product of the row scales is divided out once, by
        ``ratfunc.quotient``.  An all-int matrix gives an int, int/Fraction
        entries a Fraction, polynomial entries (with any int or Fraction) a
        Polynomial, and any RatFunc entry a RatFunc.  When no entry is a
        Polynomial or RatFunc, other entry types, such as complex, run the
        same elimination with true division; beside one they raise
        TypeError.
        """
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        rows = self.data
        if not rows:
            return 1
        entries, scales, divide = _clear(rows)
        d = _bareiss(entries, divide)
        # d is the determinant unless a Fraction or RatFunc entry was cleared
        kinds = {type(e) for row in rows for e in row}
        if RatFunc in kinds:
            return quotient(d, math.prod(s for s in scales if not s.is_one()))
        if divide is _div_int and Fraction in kinds:
            return quotient(d, math.prod(scales))
        return d


def _require_exact(rows):
    # the symbolic kinds first: Fraction's ABCMeta check is the slow one
    for row in rows:
        for e in row:
            if not isinstance(e, (Polynomial, RatFunc, int, Fraction)):
                raise TypeError(f"need exact values, not {type(e).__name__}")


def _clear(rows):
    """Cleared rows, their scales, and the exact division of their ring.

    This is the one clearing decision: any Polynomial or RatFunc entry
    clears over Q[x] with ``_div_poly``, and then every entry must be int,
    Fraction, Polynomial or RatFunc, or TypeError is raised; int and
    Fraction entries alone clear over the integers with ``_div_int``; and
    any other rows (complex, say) are copied as they are, with scale 1 and
    true division.
    """
    kinds = {type(e) for row in rows for e in row}
    if Polynomial in kinds or RatFunc in kinds:
        _require_exact(rows)
        return (*_clear_symbolic(rows), _div_poly)
    if kinds <= {int, Fraction}:
        return (*_clear_rational(rows), _div_int)
    return [list(row) for row in rows], [1] * len(rows), operator.truediv


def _clear_rational(rows):
    """Integer rows, each scaled by the lcm of its denominators, and the
    list of those row scales."""
    out = []
    scales = []
    for row in rows:
        # a list, not a generator: star-unpacking a generator resizes the
        # argument tuple, and CPython parks each resized tuple on a free list
        lcm = math.lcm(*[e.denominator for e in row])
        if lcm == 1:
            out.append([e.numerator for e in row])
        else:
            out.append([e.numerator * (lcm // e.denominator) for e in row])
        scales.append(lcm)
    return out, scales


def _clear_symbolic(rows):
    """Polynomial rows, each scaled by the lcm of its denominators, and the
    list of those row scales (the ring's one for a row with none)."""
    ring = next(
        e.ring for row in rows for e in row if isinstance(e, (Polynomial, RatFunc))
    )
    one = ring.one()
    out = []
    scales = []
    for row in rows:
        fracs = [
            (e.num, e.den) if isinstance(e, RatFunc)
            else (e if isinstance(e, Polynomial) else ring.const(e), one)
            for e in row
        ]
        lcm = one
        for _, den in fracs:
            if den.is_one() or den == lcm:
                continue
            if lcm.is_one():
                lcm = den
                continue
            g = poly_gcd(lcm, den)
            lcm = lcm * (den if g.is_one() else den.exact_div(g))
        scales.append(lcm)
        if lcm.is_one():
            out.append([num for num, _ in fracs])
            continue
        out.append(
            [
                num if den == lcm
                else num * (lcm if den.is_one() else lcm.exact_div(den))
                for num, den in fracs
            ]
        )
    return out, scales


def _div_int(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError("Bareiss division was not exact")
    return q


def _div_poly(a: Polynomial, b: Polynomial) -> Polynomial:
    q = a.exact_div(b)
    if q is None:
        raise ArithmeticError("Bareiss division was not exact")
    return q


def _bareiss(m, divide, swap=True):
    """Determinant of the square rows m (at least 1x1), eliminated in place.

    After step k every entry below row k is a (k+1)-minor of the input, so
    dividing by the previous pivot is exact (Bareiss, Math. Comp. 22, 1968).
    The pivots stay on the diagonal and the column below each pivot keeps
    the entry it was eliminated with, which is the fraction-free LU form.
    A zero pivot swaps in a later row; with ``swap`` false it ends the
    elimination instead, leaving that zero as the first one on the diagonal.
    """
    n = len(m)
    sign = 1
    prev = None
    for k in range(n - 1):
        top = m[k]
        if _is_zero(top[k]):
            if not swap:
                return top[k]
            for i in range(k + 1, n):
                if not _is_zero(m[i][k]):
                    m[k], m[i] = m[i], top
                    top = m[k]
                    sign = -sign
                    break
            else:
                # no pivot in column k: the determinant is this zero entry
                return top[k]
        pivot = top[k]
        for row in m[k + 1:]:
            a = row[k]
            for j in range(k + 1, n):
                v = row[j] * pivot - a * top[j]
                row[j] = v if prev is None else divide(v, prev)
        prev = pivot
    d = m[n - 1][n - 1]
    return -d if sign < 0 else d


# -- JSON wire format ------------------------------------------------------


def genmatrix_from_json(obj) -> Matrix:
    """Parse {"rows": r, "cols": c, "entries": [[...strings...]]}.

    Entry strings are either rationals ("-3/4", "0.25") or indeterminate
    names.  With no names the matrix is over Fraction; otherwise every entry
    becomes a RatFunc over the ring of all names in sorted order.
    """
    try:
        r, c, entries = obj["rows"], obj["cols"], obj["entries"]
    except (KeyError, TypeError) as exc:
        raise ValueError("matrix object needs rows, cols, entries") from exc
    if not isinstance(entries, list) or not all(isinstance(row, list) for row in entries):
        raise ValueError("entries must be a list of row lists")
    if len(entries) != r or any(len(row) != c for row in entries):
        raise ValueError("entries shape does not match rows/cols")
    names = set()
    parsed = []
    for row in entries:
        prow = []
        for cell in row:
            if not isinstance(cell, str):
                raise ValueError(f"entry {cell!r} is not a string")
            try:
                prow.append(parse_rational(cell))
            except ValueError as exc:
                if not _NAME_RE.match(cell):
                    raise ValueError(f"entry {cell!r} is neither rational nor a name: {exc}")
                names.add(cell)
                prow.append(cell)
        parsed.append(prow)
    if not names:
        return Matrix(parsed)
    ring = PolyRing(sorted(names))
    out = []
    for row in parsed:
        out.append(
            [
                RatFunc.from_poly(ring.var(cell))
                if isinstance(cell, str)
                else RatFunc.const(ring, cell)
                for cell in row
            ]
        )
    return Matrix(out)


def genmatrix_to_json(m: Matrix) -> dict:
    return {
        "rows": m.nrows,
        "cols": m.ncols,
        "entries": [[str(e) for e in row] for row in m.data],
    }


def generic_matrix(n: int, prefix: str = "x") -> Matrix:
    """Fully generic n x n matrix with entries prefix{i}{j} as RatFuncs."""
    names = sorted(f"{prefix}{i + 1}{j + 1}" for i in range(n) for j in range(n))
    ring = PolyRing(names)
    return Matrix(
        [
            [RatFunc.from_poly(ring.var(f"{prefix}{i + 1}{j + 1}")) for j in range(n)]
            for i in range(n)
        ]
    )
