"""Rational functions in canonical form, plus a factored representation.

RatFunc keeps num/den fully cancelled with an integer-primitive denominator
whose graded-lex leading coefficient is positive, so structural equality is
mathematical equality.  The constructor cancels by one gcd, then normalises
the denominator.  Arithmetic on canonical a/b and c/d skips that gcd where
coprimality is known (Henrici, JACM 3, 1956; Knuth, TAOCP vol. 2, 4.5.1).
A product cancels g1 = (a, d) and g2 = (c, b), leaving a/g1 and c/g2 coprime
to b/g2 and d/g1.  An inverse and a negative power are coprime.  A sum with
(b, d) = 1 has (ad + cb, bd) = 1.  With g = (b, d), b = b1 g and d = d1 g,
t = a d1 + c b1 is coprime to b1 d1, so only (t, g) cancels.
``quotient`` is the one exact quotient of the package: every a / b of int,
Fraction, Polynomial or RatFunc operands elsewhere goes through it, so one
rule decides whether the result is a Fraction or a RatFunc.
FactoredFraction stores the denominator as exponents over a shared basis of
primitive polynomials, so most cancellations become integer exponent
arithmetic.  It now serves only the reconstruction check
``decomp.verify_udl_reconstruction``, whose sums have denominators that are
products of the trailing minors; the elimination route runs fraction-free.
"""

from __future__ import annotations

from fractions import Fraction

from .polynomials import Polynomial, PolyRing, poly_gcd


class RatFunc:
    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial, _canonical=False):
        # a unit denominator is already canonical
        if not _canonical and not den.is_one():
            if den.is_zero():
                raise ZeroDivisionError("rational function with zero denominator")
            if not num.is_zero():
                g = poly_gcd(num, den)
                if not g.is_one():
                    num, den = num.exact_div(g), den.exact_div(g)
            num, den = _normalised(num, den)
        self.num = num
        self.den = den

    @classmethod
    def from_poly(cls, p: Polynomial) -> "RatFunc":
        return cls(p, p.ring.one(), _canonical=True)

    @classmethod
    def const(cls, ring: PolyRing, q) -> "RatFunc":
        return cls(ring.const(q), ring.one(), _canonical=True)

    @property
    def ring(self) -> PolyRing:
        return self.num.ring

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.is_one()

    def as_polynomial(self) -> Polynomial:
        if not self.den.is_one():
            raise ValueError("denominator is not 1")
        return self.num

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            if other.ring != self.ring:
                raise ValueError("rings differ")
            return other
        if isinstance(other, Polynomial):
            return RatFunc.from_poly(other)
        if isinstance(other, (int, Fraction)):
            return RatFunc.const(self.ring, other)
        return None

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Polynomial)):
            other = self._coerce(other)
        return (
            isinstance(other, RatFunc)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b, c, d = self.num, self.den, other.num, other.den
        if b == d:
            return RatFunc(a + c, b)
        g = poly_gcd(b, d)
        if g.is_one():
            return RatFunc(*_normalised(a * d + c * b, b * d), _canonical=True)
        b1 = b.exact_div(g)
        d1 = d.exact_div(g)
        t = a * d1 + c * b1
        h = poly_gcd(t, g)
        if not h.is_one():
            t, g = t.exact_div(h), g.exact_div(h)
        return RatFunc(*_normalised(t, b1 * g * d1), _canonical=True)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den, _canonical=True)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return RatFunc.const(self.ring, 0)
        a, b, c, d = self.num, self.den, other.num, other.den
        # a unit denominator shares no factor, so its gcd is not computed
        g1 = d if d.is_one() else poly_gcd(a, d)
        g2 = b if b.is_one() else poly_gcd(c, b)
        if not g1.is_one():
            a, d = a.exact_div(g1), d.exact_div(g1)
        if not g2.is_one():
            c, b = c.exact_div(g2), b.exact_div(g2)
        return RatFunc(*_normalised(a * c, b * d), _canonical=True)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return self * RatFunc(*_normalised(other.den, other.num), _canonical=True)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, k: int):
        if k < 0:
            if self.is_zero():
                raise ZeroDivisionError("negative power of a zero rational function")
            return RatFunc(*_normalised(self.den**-k, self.num**-k), _canonical=True)
        return RatFunc(self.num**k, self.den**k, _canonical=True) if k else RatFunc.const(self.ring, 1)

    def evaluate(self, values: dict):
        d = self.den.evaluate(values)
        if not d:
            raise ZeroDivisionError("denominator vanishes at the given point")
        n = self.num.evaluate(values)
        if isinstance(n, int) and isinstance(d, int):
            return Fraction(n, d)
        return n / d

    def __str__(self):
        if self.den.is_one():
            return str(self.num)
        num = str(self.num)
        if len(self.num.terms) > 1:
            num = f"({num})"
        den = str(self.den)
        if len(self.den.terms) > 1:
            den = f"({den})"
        return f"{num}/{den}"

    def __repr__(self):
        return f"<RatFunc {self}>"


def quotient(a, b):
    """a / b exactly, for a and b each an int, Fraction, Polynomial or RatFunc.

    Two rationals give a Fraction, and a RatFunc operand gives a / b, so the
    reduced RatFunc arithmetic above does the work.  Otherwise the result
    is the canonical RatFunc over the Polynomial operand's ring.  A zero b
    raises ZeroDivisionError, and any other operand type TypeError.
    """
    ta, tb = type(a), type(b)
    # the common rational case first; isinstance would be slower, since
    # Fraction's metaclass is ABCMeta
    if (ta is int or ta is Fraction) and (tb is int or tb is Fraction):
        return Fraction(a, b)
    if ta is RatFunc or tb is RatFunc:
        return a / b
    p = a if ta is Polynomial else b
    if type(p) is Polynomial:
        num, den = p._coerce(a), p._coerce(b)
        if num is not None and den is not None:
            return RatFunc(num, den)
    raise TypeError(f"no exact quotient of {ta.__name__} by {tb.__name__}")


def _normalised(num: Polynomial, den: Polynomial):
    """num, den rescaled to an integer-primitive den with a positive leading
    coefficient, and den 1 for a zero num; num and den must be coprime."""
    if num.is_zero():
        return num, num.ring.one()
    c, prim = den.content_and_primitive()
    return (num if c == 1 else num * (1 / c)), prim


class FactorBasis:
    """A growable list of primitive polynomials shared by FactoredFractions."""

    __slots__ = ("ring", "factors")

    def __init__(self, ring: PolyRing):
        self.ring = ring
        self.factors: list[Polynomial] = []

    def locate(self, prim: Polynomial):
        for i, f in enumerate(self.factors):
            if f.terms == prim.terms:
                return i
        return None

    def add(self, prim: Polynomial) -> int:
        self.factors.append(prim)
        return len(self.factors) - 1


class FactoredFraction:
    """num / prod(basis[i] ** exp[i]) with nonnegative integer exponents."""

    __slots__ = ("basis", "num", "exps")

    def __init__(self, basis: FactorBasis, num: Polynomial, exps=()):
        self.basis = basis
        self.num = num
        exps = list(exps)
        exps.extend([0] * (len(basis.factors) - len(exps)))
        self.exps = exps

    @classmethod
    def from_ratfunc(cls, basis: FactorBasis, r: RatFunc) -> "FactoredFraction":
        out = cls(basis, r.num)
        den = r.den
        if den.is_one():
            return out
        m = den.monomial_content()
        if any(m):
            ring = basis.ring
            for i, k in enumerate(m):
                if k:
                    exps = [0] * ring.nvars
                    exps[i] = 1
                    out = out._push_factor(ring.monomial(exps), k)
            den = den.shift_down(m)
        if not den.is_one():
            c, prim = den.content_and_primitive()
            if c != 1:
                out = cls(basis, out.num * (1 / c), out.exps)
            out = out._push_factor(prim, 1)
        return out

    def _push_factor(self, prim: Polynomial, mult: int) -> "FactoredFraction":
        idx = self.basis.locate(prim)
        if idx is None:
            idx = self.basis.add(prim)
        exps = list(self.exps)
        exps.extend([0] * (len(self.basis.factors) - len(exps)))
        exps[idx] += mult
        return FactoredFraction(self.basis, self.num, exps)

    def _aligned(self, other: "FactoredFraction"):
        n = len(self.basis.factors)
        a = self.exps + [0] * (n - len(self.exps))
        b = other.exps + [0] * (n - len(other.exps))
        return a, b

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def _combine(self, other: "FactoredFraction", sign: int) -> "FactoredFraction":
        a, b = self._aligned(other)
        top = [max(x, y) for x, y in zip(a, b)]
        fa = self.num
        fb = other.num
        for i, (x, y, t) in enumerate(zip(a, b, top)):
            if t > x:
                fa = fa * self.basis.factors[i] ** (t - x)
            if t > y:
                fb = fb * self.basis.factors[i] ** (t - y)
        return FactoredFraction(self.basis, fa + fb if sign > 0 else fa - fb, top)

    def __add__(self, other: "FactoredFraction") -> "FactoredFraction":
        return self._combine(other, 1)

    def __sub__(self, other: "FactoredFraction") -> "FactoredFraction":
        return self._combine(other, -1)

    def __mul__(self, other: "FactoredFraction") -> "FactoredFraction":
        a, b = self._aligned(other)
        return FactoredFraction(
            self.basis, self.num * other.num, [x + y for x, y in zip(a, b)]
        )

    def __truediv__(self, other: "FactoredFraction") -> "FactoredFraction":
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero fraction")
        a, b = self._aligned(other)
        exps = [x - y for x, y in zip(a, b)]
        num = self.num
        # other's denominator factors multiply the numerator
        for i, e in enumerate(exps):
            if e < 0:
                num = num * self.basis.factors[i] ** (-e)
                exps[i] = 0
        d = other.num
        if d.is_constant():
            return FactoredFraction(self.basis, num * (1 / Fraction(d.constant_value())), exps)
        c, prim = d.content_and_primitive()
        q = num.exact_div(d)
        if q is not None:
            return FactoredFraction(self.basis, q, exps)
        if c != 1:
            num = num * (1 / c)
        idx = self.basis.locate(prim)
        if idx is None:
            idx = self.basis.add(prim)
        exps.extend([0] * (len(self.basis.factors) - len(exps)))
        exps[idx] += 1
        return FactoredFraction(self.basis, num, exps).reduce()

    def reduce(self) -> "FactoredFraction":
        """Cancel basis factors that divide the numerator exactly."""
        num = self.num
        exps = list(self.exps)
        if num.is_zero():
            return FactoredFraction(self.basis, num, [0] * len(exps))
        changed = True
        while changed:
            changed = False
            for i, e in enumerate(exps):
                while e > 0:
                    q = num.exact_div(self.basis.factors[i])
                    if q is None:
                        break
                    num = q
                    e -= 1
                    changed = True
                exps[i] = e
        return FactoredFraction(self.basis, num, exps)

    def to_ratfunc(self) -> RatFunc:
        r = self.reduce()
        den = self.basis.ring.one()
        for i, e in enumerate(r.exps):
            if e:
                den = den * self.basis.factors[i] ** e
        return RatFunc(r.num, den)

    def __repr__(self):
        pieces = [
            f"({self.basis.factors[i]})^{e}" for i, e in enumerate(self.exps) if e
        ]
        den = "*".join(pieces) if pieces else "1"
        return f"<FactoredFraction ({self.num}) / {den}>"
