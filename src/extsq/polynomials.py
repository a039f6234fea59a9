"""Sparse multivariate polynomials over the rationals.

Terms map monomials to nonzero int/Fraction coefficients over a fixed,
ordered variable ring.  Inside this module each monomial is one packed
``int`` (Monagan & Pearce, "Polynomial division using dynamic arrays, heaps,
and packed exponent vectors", CASC 2007): fields of ``_FIELD_BITS`` = 16
bits hold the total degree in the top field, then the exponent of variable
0, variable 1 and so on down to the last variable in the lowest field.
Integer order is then graded lexicographic order, a monomial product is one
integer add, and a divisibility test is one subtract-and-mask: the top bit
of every field is a guard that a borrow sets.  No total degree may exceed
``MAX_TOTAL_DEGREE`` = 32767; a polynomial that would is refused with
``DegreeOverflowError`` rather than wrapped.  Outside this module monomials
are exponent tuples: the constructor, ``PolyRing.monomial``, ``leading``,
``monomial_content`` and ``shift_down`` all speak tuples.

Exact division keeps the remainder's monomials in a max-heap, so each step
finds the leading term without rescanning the remainder (after Monagan &
Pearce, "Sparse polynomial division using a heap", J. Symbolic Comput.
46(7), 2011).

A gcd with a constant or monomial operand is answered from the packed
exponents: it is 1, or the fieldwise minimum of the two monomial contents.
The gcd of two other polynomials is layered: monomial content, trial
division, an exact coprimality certificate, and the subresultant
pseudo-remainder sequence (Knuth, TAOCP vol. 2, 4.6.1) as the one
fallback.  This is enough to keep rational functions canonical without a
computer-algebra dependency.  The certificate substitutes one seeded
integer point for all variables but one, v, for every shared v in one pass
over the terms.  When lc_v(f) or lc_v(g) survives and the two univariate
images have a constant gcd, v does not occur in gcd(f, g): the gcd's lc_v
divides both, so its image keeps its degree in v and divides both images.
Most coprime pairs, such as two distinct minors of a generic matrix, are
settled by that alone; every other pair goes to the PRS.
"""

from __future__ import annotations

import heapq
import random
from fractions import Fraction
from math import gcd as _igcd
from math import lcm as _ilcm

_FIELD_BITS = 16
_FIELD_MASK = (1 << _FIELD_BITS) - 1
MAX_TOTAL_DEGREE = (1 << (_FIELD_BITS - 1)) - 1


class DegreeOverflowError(OverflowError):
    """A monomial's total degree exceeds MAX_TOTAL_DEGREE."""


def _check_degree(deg):
    if deg > MAX_TOTAL_DEGREE:
        raise DegreeOverflowError(
            f"total degree {deg} exceeds the packed-monomial bound {MAX_TOTAL_DEGREE}"
        )


def _as_coeff(value):
    """Normalize a coefficient to int when integral, Fraction otherwise."""
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise TypeError(f"bad coefficient type {type(value).__name__}")


class PolyRing:
    """An ordered tuple of variable names shared by compatible polynomials.

    The ring also fixes the packed monomial layout: ``_shifts[i]`` is the
    bit offset of variable i, ``_deg_shift`` that of the total degree, and
    ``_guard`` has the top bit of every field set.
    """

    __slots__ = ("names", "index", "_shifts", "_deg_shift", "_guard")

    def __init__(self, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        self.names = names
        self.index = {name: i for i, name in enumerate(names)}
        n = len(names)
        self._shifts = tuple(_FIELD_BITS * (n - 1 - i) for i in range(n))
        self._deg_shift = _FIELD_BITS * n
        self._guard = sum(1 << (_FIELD_BITS * (f + 1) - 1) for f in range(n + 1))

    def __eq__(self, other):
        return isinstance(other, PolyRing) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"PolyRing{self.names!r}"

    @property
    def nvars(self) -> int:
        return len(self.names)

    def _pack(self, exps) -> int:
        exps = tuple(exps)
        if len(exps) != len(self.names) or any(e < 0 for e in exps):
            raise ValueError("bad exponent vector")
        deg = sum(exps)
        _check_degree(deg)
        key = deg << self._deg_shift
        for e, s in zip(exps, self._shifts):
            key |= e << s
        return key

    def _unpack(self, key) -> tuple:
        return tuple((key >> s) & _FIELD_MASK for s in self._shifts)

    def _unit(self, i) -> int:
        """The packed monomial of variable i."""
        return (1 << self._shifts[i]) | (1 << self._deg_shift)

    def zero(self) -> "Polynomial":
        return Polynomial._make(self, {})

    def one(self) -> "Polynomial":
        return self.const(1)

    def const(self, value) -> "Polynomial":
        c = _as_coeff(Fraction(value) if not isinstance(value, int) else value)
        if not c:
            return self.zero()
        return Polynomial._make(self, {0: c})

    def var(self, name) -> "Polynomial":
        return Polynomial._make(self, {self._unit(self.index[name]): 1})

    def monomial(self, exps, coeff=1) -> "Polynomial":
        key = self._pack(exps)
        coeff = _as_coeff(coeff)
        return Polynomial._make(self, {key: coeff} if coeff else {})


class Polynomial:
    """A polynomial built from ``{exponent tuple: coefficient}``.

    ``terms`` holds the same map with packed monomial keys.
    """

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = {ring._pack(e): _as_coeff(c) for e, c in terms.items() if c}
        self._hash = None

    @classmethod
    def _make(cls, ring, clean_terms):
        p = object.__new__(cls)
        p.ring = ring
        p.terms = clean_terms
        p._hash = None
        return p

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not e for e in self.terms)

    def is_one(self) -> bool:
        # packed key 0 is the constant monomial
        return len(self.terms) == 1 and self.terms.get(0) == 1

    def constant_value(self):
        if not self.terms:
            return 0
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return next(iter(self.terms.values()))

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    # -- structure -----------------------------------------------------

    def total_degree(self) -> int:
        return max(self.terms) >> self.ring._deg_shift if self.terms else -1

    def degree_in(self, name: str) -> int:
        s = self.ring._shifts[self.ring.index[name]]
        return max(((e >> s) & _FIELD_MASK for e in self.terms), default=-1)

    def support_vars(self):
        used = 0
        for e in self.terms:
            used |= e
        return tuple(
            n for n, s in zip(self.ring.names, self.ring._shifts) if (used >> s) & _FIELD_MASK
        )

    def leading(self):
        """(exponents, coefficient) of the graded-lex leading term."""
        e = max(self.terms)
        return self.ring._unpack(e), self.terms[e]

    def coefficients_in(self, name: str) -> dict:
        """Exponent of `name` -> Polynomial in the remaining variables."""
        i = self.ring.index[name]
        s, unit = self.ring._shifts[i], self.ring._unit(i)
        out: dict[int, dict] = {}
        for e, c in self.terms.items():
            k = (e >> s) & _FIELD_MASK
            out.setdefault(k, {})[e - k * unit] = c
        return {k: Polynomial._make(self.ring, t) for k, t in out.items()}

    def monomial_content(self):
        return self.ring._unpack(self._content_key())

    def _content_key(self) -> int:
        """Packed gcd of the monomials (fieldwise minimum); 0 for zero."""
        ring, terms = self.ring, self.terms
        if not terms:
            return 0
        # A field of e + ones has its guard bit set exactly when that field
        # of e is nonzero, so `live` keeps the variables in every term.
        ones = ring._guard - (ring._guard >> (_FIELD_BITS - 1))
        live = ring._guard & ((1 << ring._deg_shift) - 1)
        for e in terms:
            live &= e + ones
            if not live:
                return 0
        key = 0
        for i, s in enumerate(ring._shifts):
            if (live >> (s + _FIELD_BITS - 1)) & 1:
                key += min((e >> s) & _FIELD_MASK for e in terms) * ring._unit(i)
        return key

    def shift_down(self, exps) -> "Polynomial":
        """Divide by the monomial with the given exponent vector."""
        return self._shift_key(self.ring._pack(exps))

    def _shift_key(self, m: int) -> "Polynomial":
        if not m:
            return self
        guard = self.ring._guard
        out = {}
        for e, c in self.terms.items():
            d = e - m
            if d & guard:
                raise ValueError("monomial does not divide")
            out[d] = c
        return Polynomial._make(self.ring, out)

    def content_and_primitive(self):
        """self = c * p with c a signed Fraction and p primitive.

        Primitive means integer coefficients with gcd 1 and a positive
        graded-lex leading coefficient.  The zero polynomial returns (0, 0).
        """
        terms = self.terms
        if not terms:
            return Fraction(0), self
        lead = terms[max(terms)]
        if all(type(v) is int for v in terms.values()):
            g = _igcd(*terms.values())
            if lead < 0:
                g = -g
            if g == 1:
                return Fraction(1), self
            return Fraction(g), Polynomial._make(self.ring, {e: v // g for e, v in terms.items()})
        num_g = 0
        den_l = 1
        for c in terms.values():
            q = Fraction(c)
            num_g = _igcd(num_g, abs(q.numerator))
            den_l = _ilcm(den_l, q.denominator)
        c = Fraction(num_g, den_l)
        if lead < 0:
            c = -c
        inv = 1 / c
        prim = Polynomial._make(
            self.ring, {e: _as_coeff(Fraction(v) * inv) for e, v in terms.items()}
        )
        return c, prim

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                raise ValueError("polynomial rings differ")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.const(other)
        return None

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, frozenset(self.terms.items())))
        return self._hash

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in other.terms.items():
            n = terms.get(e, 0) + c
            if n:
                terms[e] = n
            else:
                terms.pop(e, None)
        return Polynomial._make(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._make(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in other.terms.items():
            n = terms.get(e, 0) - c
            if n:
                terms[e] = n
            else:
                terms.pop(e, None)
        return Polynomial._make(self.ring, terms)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return self.ring.zero()
            other = _as_coeff(other)
            return Polynomial._make(
                self.ring, {e: _as_coeff(c * other) for e, c in self.terms.items()}
            )
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.terms, other.terms
        if not a or not b:
            return self.ring.zero()
        if len(a) < len(b):
            a, b = b, a
        shift = self.ring._deg_shift
        # Every field of every product is at most the product's total degree,
        # so bounding that keeps all guard bits clear: no field can carry.
        _check_degree((max(a) >> shift) + (max(b) >> shift))
        out: dict = {}
        get = out.get
        for e2, c2 in b.items():
            for e1, c1 in a.items():
                key = e1 + e2
                out[key] = get(key, 0) + c1 * c2
        return Polynomial._make(self.ring, {e: c for e, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = self.ring.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def scale(self, q) -> "Polynomial":
        return self * (q if isinstance(q, int) else Fraction(q))

    def exact_div(self, d: "Polynomial"):
        """Return self / d when the division is exact, else None."""
        if d.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero():
            return self
        dterms = d.terms
        de = max(dterms)
        dc = dterms[de]
        guard = self.ring._guard
        if len(dterms) == 1:
            # a monomial, constants included, divides term by term, with no
            # remainder to carry
            out = {}
            for e, c in self.terms.items():
                diff = e - de
                if diff & guard:
                    return None
                if type(c) is int and type(dc) is int and not c % dc:
                    out[diff] = c // dc
                else:
                    out[diff] = _as_coeff(Fraction(c) / dc)
            return Polynomial._make(self.ring, out)
        rest = [(e2, c2) for e2, c2 in dterms.items() if e2 != de]
        rem = dict(self.terms)
        # Remainder keys, negated into a max-heap.  A key that cancels stays
        # in the heap and is skipped when popped: every key a step adds is
        # below the key it eliminates, so the live maximum is always on top.
        heap = [-e for e in rem]
        heapq.heapify(heap)
        out: dict = {}
        while rem:
            e = -heapq.heappop(heap)
            c = rem.pop(e, None)
            if c is None:
                continue
            diff = e - de
            if diff & guard:
                return None
            if type(c) is int and type(dc) is int and not c % dc:
                q = c // dc
            else:
                q = _as_coeff(Fraction(c) / dc)
            out[diff] = q
            for e2, c2 in rest:
                key = diff + e2
                old = rem.get(key)
                if old is None:
                    rem[key] = -q * c2
                    heapq.heappush(heap, -key)
                else:
                    n = old - q * c2
                    if n:
                        rem[key] = n
                    else:
                        del rem[key]
        return Polynomial._make(self.ring, out)

    # -- evaluation ------------------------------------------------------

    def evaluate(self, values: dict):
        """Substitute a value for every variable; values may live in any ring.

        Every ring variable needs a value, but each term multiplies in only
        the variables it has, in ring order: with the degree field masked
        off, the highest set bit of a packed monomial lies in the field of
        its first variable.
        """
        vals = [values[name] for name in self.ring.names]
        last = len(vals) - 1
        fields = (1 << self.ring._deg_shift) - 1
        total = None
        for e, c in self.terms.items():
            term = c
            e &= fields
            while e:
                f = (e.bit_length() - 1) // _FIELD_BITS
                k = e >> (f * _FIELD_BITS)
                e ^= k << (f * _FIELD_BITS)
                v = vals[last - f]
                term = term * v if k == 1 else term * v**k
            total = term if total is None else total + term
        return 0 if total is None else total

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            factors = [
                name if k == 1 else f"{name}^{k}"
                for name, k in zip(self.ring.names, self.ring._unpack(e))
                if k
            ]
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            elif c == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(f"{c}*" + "*".join(factors))
        s = " + ".join(parts).replace("+ -", "- ")
        return s

    def __repr__(self):
        return f"<Polynomial {self}>"


# -- gcd machinery -------------------------------------------------------


def poly_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Primitive gcd (positive leading coefficient), monomial part included.

    A constant or monomial operand is answered from the packed exponents
    alone: the gcd is 1, or the fieldwise minimum of the two monomial
    contents.  Any other pair has its monomial contents divided out and its
    primitive parts passed to ``_gcd_core``.
    """
    if f.ring != g.ring:
        raise ValueError("polynomial rings differ")
    if f.is_zero():
        return g.content_and_primitive()[1] if not g.is_zero() else f
    if g.is_zero():
        return f.content_and_primitive()[1]
    ring = f.ring
    if f.is_constant() or g.is_constant():
        return ring.one()
    mf, mg = f._content_key(), g._content_key()
    m = ring._pack(map(min, ring._unpack(mf), ring._unpack(mg))) if mf and mg else 0
    if f.is_monomial() or g.is_monomial():
        # a monomial is its own monomial content
        return Polynomial._make(ring, {m: 1})
    fp = f._shift_key(mf)
    gp = g._shift_key(mg)
    core = _gcd_core(fp.content_and_primitive()[1], gp.content_and_primitive()[1])
    return core * Polynomial._make(ring, {m: 1}) if m else core


def _gcd_core(f: Polynomial, g: Polynomial) -> Polynomial:
    """gcd of two primitive polynomials of two or more terms that have no
    monomial factor, so neither is constant.

    After the cheap cases (equal inputs, one dividing the other) the image
    certificate either proves the gcd is 1 or hands the pair to the
    subresultant PRS gcd, the one fallback.
    """
    ring = f.ring
    if f.terms == g.terms:
        return f
    if f.total_degree() > g.total_degree():
        f, g = g, f
    if g.exact_div(f) is not None:
        return f
    if f.exact_div(g) is not None:
        return g
    fvars, gvars = f.support_vars(), g.support_vars()
    shared = [n for n in fvars if n in gvars]
    if not shared or _proved_coprime(f, g, shared):
        return ring.one()
    # A variable in only one input is absent from the gcd, so the PRS in it
    # is only the content gcds: the cheapest main variable when there is one.
    lone = [n for n in (*fvars, *gvars) if n not in shared]
    if lone:
        return _prs_gcd(f, g, lone[0])
    return _prs_gcd(f, g, min(shared, key=lambda n: max(f.degree_in(n), g.degree_in(n))))


def _proved_coprime(f: Polynomial, g: Polynomial, shared) -> bool:
    """True once seeded integer points prove every shared variable absent from gcd(f, g).

    At a point, v is proved absent when lc_v(f) or lc_v(g) is nonzero there
    and the univariate images of f and g in v have a constant gcd.  Proof:
    the gcd G divides f and g, so lc_v(G) divides lc_v(f) and lc_v(g), so
    the image of G keeps its degree in v and divides both images.  A
    variable whose leading coefficients both vanish waits for the next
    point.  False as soon as one variable's images have a non-constant gcd,
    or when the points run out first.
    """
    open_vars = shared
    for point in _gcd_points(f.ring.nvars):
        undecided = []
        for v, a, b in zip(open_vars, _images(f, open_vars, point), _images(g, open_vars, point)):
            if not (a[-1] or b[-1]):
                undecided.append(v)
            elif len(_euclid(_trim(a), _trim(b))) > 1:
                return False
        if not undecided:
            return True
        open_vars = undecided
    return False


_GCD_POINTS: dict = {}


def _gcd_points(nvars: int):
    """An iterator over the seeded integer points of the certificate, nonzero
    in every variable.  The points are drawn once per number of variables."""
    points = _GCD_POINTS.get(nvars)
    if points is None:
        rng = random.Random(0x5EED)
        points = _GCD_POINTS[nvars] = tuple(
            tuple(rng.randint(1, 40) * rng.choice((1, -1)) for _ in range(nvars))
            for _ in range(4)
        )
    return iter(points)


def _images(p: Polynomial, names, point) -> list:
    """The univariate images of the integer polynomial p in each named variable.

    Entry k of the image in v is the sum of c * prod_{u != v} point[u]^e_u
    over the terms c * x^e with e_v = k, and the list runs up to p's degree
    in v, so its last entry is lc_v(p) at the point.  One pass over the
    terms forms each term's value at the whole point, then divides out
    point[v]^k exactly, which needs the point nonzero.
    """
    ring = p.ring
    used = 0
    for e in p.terms:
        used |= e
    support = [(s, val) for s, val in zip(ring._shifts, point) if (used >> s) & _FIELD_MASK]
    named = [(ring._shifts[ring.index[v]], point[ring.index[v]]) for v in names]
    images = [{} for _ in names]
    for e, c in p.terms.items():
        for s, val in support:
            k = (e >> s) & _FIELD_MASK
            if k:
                c *= val**k
        for image, (s, val) in zip(images, named):
            k = (e >> s) & _FIELD_MASK
            image[k] = image.get(k, 0) + (c // val**k if k else c)
    return [[image.get(k, 0) for k in range(max(image) + 1)] for image in images]


def _trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def _euclid(a: list, b: list) -> list:
    """Primitive gcd of two integer coefficient lists, lowest degree first.

    Each step replaces a by the primitive part of its pseudo-remainder by b,
    so the arithmetic stays in the integers.  Both lists must be trimmed;
    the result is trimmed and empty only when both are.
    """
    while b:
        while len(a) >= len(b):
            la, lb = a[-1], b[-1]
            off = len(a) - len(b)
            a = [c * lb for c in a]
            for k, c in enumerate(b):
                a[off + k] -= la * c
            _trim(a)
        if a:
            h = _igcd(*a)
            a = [c // h for c in a]
        a, b = b, a
    return a


def _content_in(f: Polynomial, x: str) -> Polynomial:
    coeffs = list(f.coefficients_in(x).values())
    acc = coeffs[0]
    for c in coeffs[1:]:
        acc = poly_gcd(acc, c)
        if acc.is_one():
            break
    return acc


def _prs_gcd(f: Polynomial, g: Polynomial, x: str) -> Polynomial:
    """Subresultant pseudo-remainder sequence gcd in the main variable x.

    Each pseudo-remainder is divided exactly by beta = l * h^delta (Brown &
    Traub; Knuth, TAOCP vol. 2, 4.6.1, Algorithm C), which keeps the growth
    of the coefficients in the other variables polynomial.  Only the inputs
    and the last remainder take a content gcd: taking one at every step, as
    the primitive sequence does, recurses into ever larger content gcds and
    runs for minutes on some 3x3 rational-function determinants.
    """
    cf = _content_in(f, x)
    cg = _content_in(g, x)
    cont = poly_gcd(cf, cg)
    a = _exact_quo(f, cf)
    b = _exact_quo(g, cg)
    if a.degree_in(x) < b.degree_in(x):
        a, b = b, a
    one = f.ring.one()
    lc = h = one
    while b.degree_in(x):
        delta = a.degree_in(x) - b.degree_in(x)
        r = _pseudo_rem(a, b, x)
        if r.is_zero():
            gcd_pp = _exact_quo(b, _content_in(b, x))
            break
        a, b = b, _exact_quo(r, lc * h**delta)
        lc = a.coefficients_in(x)[a.degree_in(x)]
        h = _exact_quo(lc**delta, h ** (delta - 1)) if delta else h
    else:
        gcd_pp = one
    result = cont * gcd_pp
    return result.content_and_primitive()[1]


def _exact_quo(f: Polynomial, d: Polynomial) -> Polynomial:
    q = f.exact_div(d)
    if q is None:
        raise ArithmeticError("exact division failed in the gcd")
    return q


def _pseudo_rem(a: Polynomial, b: Polynomial, x: str) -> Polynomial:
    """prem(a, b) = lc_x(b)^(deg_x a - deg_x b + 1) * a mod b, in x."""
    ring = a.ring
    i = ring.index[x]
    db = b.degree_in(x)
    lb = b.coefficients_in(x)[db]
    steps = a.degree_in(x) - db + 1
    r = a
    while not r.is_zero():
        dr = r.degree_in(x)
        if dr < db:
            break
        lr = r.coefficients_in(x)[dr]
        exps = [0] * ring.nvars
        exps[i] = dr - db
        shift = ring.monomial(exps)
        r = r * lb - b * (lr * shift)
        steps -= 1
    return r * lb**steps if steps and not r.is_zero() else r
