"""Archimedean L-factors for the exterior square on GL(2n, R).

Induction data (sign characters and discrete-series blocks with complex
shifts) is validated against the generic-unitary conditions, embedded into
principal-series parameters, and assembled into structural Gamma-product
expressions: the local factor itself, the Gamma-ratio of its functional
equation with its root-number constant, pole lists in a right half-plane,
and the six partial products used in the holomorphy analysis.

Each public function checks its input once.  ``_checked`` puts the blocks
on one integer lattice, scaling every shift by the common denominator d
(with 2) to (label, d*Re s, d*Im s), sorts them as ``normalize`` does,
validates that form and returns it.  The private builders (``_l_inf``,
``_embed``, ``_g_product``, ``_partial_products``, ``_omega`` and the
dual step ``_dual``) take the lattice form as given, check nothing again
and work in integers, accumulating factor powers in one dict keyed by
(kind, orient, d*Re, d*Im).  A ``GammaExpr`` stores those counts and d:
products, equality and pole-lattice tests stay in integers, and the exact
``GammaFactor`` constants and the float shifts are built from the keys on
first read.  Exact keys keep lattice membership (where Gamma arguments
pole) decidable.
"""

import cmath
import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from types import MappingProxyType
from typing import NamedTuple

from .rational import RationalComplex, _json_complex, _json_field, _json_int, _json_list
from .specialfn import _I_POW, _TWO_53, PoleError, as_parity, log_gamma_c, log_gamma_r

# fe_ratio_check refuses sample points closer than this to a Gamma pole
_MIN_POLE_DISTANCE = 1e-6


class IdentityMismatchError(ArithmeticError):
    """Two computations of one identity disagree: a mathematical mismatch."""


class PoleProximityError(ArithmeticError):
    """A sample point fell too close to a Gamma-argument pole; resample."""

    def __init__(self, location, distance):
        super().__init__(f"sample {location} lies {distance:.3g} from a pole")
        self.location = location
        self.distance = distance


# -- induction data ----------------------------------------------------------


@dataclass(frozen=True)
class SignBlock:
    """One character factor sgn^eps |.|^s of the inducing data."""

    eps: int
    s: RationalComplex

    def __post_init__(self):
        object.__setattr__(self, "eps", as_parity(self.eps))
        object.__setattr__(self, "s", RationalComplex.from_value(self.s))


@dataclass(frozen=True)
class DSBlock:
    """One discrete-series factor of lowest weight k >= 2, shifted by s."""

    k: int
    s: RationalComplex

    def __post_init__(self):
        object.__setattr__(self, "k", int(self.k))
        object.__setattr__(self, "s", RationalComplex.from_value(self.s))


@dataclass(frozen=True)
class ReprData:
    """Induction data for a generic irreducible unitary rep of GL(2n, R).

    eta is the parity of the twisting character; sign_blocks has length r1
    and ds_blocks length r2 with r1 + 2 r2 = 2 n_half.
    """

    n_half: int
    eta: int
    sign_blocks: tuple = ()
    ds_blocks: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "n_half", int(self.n_half))
        object.__setattr__(self, "eta", as_parity(self.eta))
        object.__setattr__(
            self,
            "sign_blocks",
            tuple(b if isinstance(b, SignBlock) else SignBlock(*b) for b in self.sign_blocks),
        )
        object.__setattr__(
            self,
            "ds_blocks",
            tuple(b if isinstance(b, DSBlock) else DSBlock(*b) for b in self.ds_blocks),
        )


class _Checked(NamedTuple):
    """Induction data on its lattice: d, then the sign blocks as (eps, x, y)
    and the ds blocks as (k, x, y), where x + iy is d times the shift."""

    n_half: int
    eta: int
    d: int
    sign: list
    ds: list


def _by_shift(block) -> tuple:
    """normalize's order on a lattice block: real part, imaginary part, label."""
    label, x, y = block
    return x, y, label


def _point(x: int, y: int, d: int) -> RationalComplex:
    """The exact number (x + iy) / d."""
    return RationalComplex(Fraction(x, d), Fraction(y, d))


def validate(r: ReprData) -> list:
    """Check the unitarity and ordering conditions; return violation texts.

    An empty list means the data is admissible for every operation below.
    """
    blocks = [(b.eps, b.s) for b in r.sign_blocks], [(b.k, b.s) for b in r.ds_blocks]
    return _violations(_Checked(r.n_half, r.eta, *_lattice(*blocks)))


def _violations(c: _Checked) -> list:
    """validate's checks on the lattice form; a block is named by its shift."""
    out = []
    d, r1, r2 = c.d, len(c.sign), len(c.ds)
    if c.n_half < 1 or r1 + 2 * r2 != 2 * c.n_half:
        out.append(f"size: r1 + 2*r2 = {r1 + 2 * r2} does not equal 2*n = {2 * c.n_half}")
    if r1 % 2:
        out.append("r1-parity: an odd number of sign blocks admits no embedding here")
    for k, x, y in c.ds:
        if k < 2:
            out.append(f"k-range: ds block at s = {_point(x, y, d)} has k = {k} < 2")
    families = (("sign", c.sign), ("ds", c.ds))
    for fam, blocks in families:
        for _, x, y in blocks:
            if 2 * abs(x) >= d:
                out.append(f"(b): {fam} block at s = {_point(x, y, d)} has |Re s| >= 1/2")
    for fam, blocks in families:
        # s -> -conj(s) takes (d*Re s, d*Im s) to (-d*Re s, d*Im s)
        if Counter(blocks) != Counter((label, -x, y) for label, x, y in blocks):
            out.append(f"(a): {fam} blocks are not closed under s -> -conj(s)")
    for fam, blocks in families:
        res = [x for _, x, _ in blocks]
        if any(res[i] > res[i + 1] for i in range(len(res) - 1)):
            out.append(f"ordering: {fam} shifts are not sorted by real part")
        m = len(blocks)
        if not out and any(res[i] + res[m - 1 - i] != 0 for i in range(m)):
            out.append(f"paired: {fam} real parts are not negated under reflection")
    return out


def _checked(r: ReprData) -> _Checked:
    """r on its lattice with the blocks sorted as normalize sorts them, or
    ValueError naming each violation when the data is not admissible."""
    blocks = [(b.eps, b.s) for b in r.sign_blocks], [(b.k, b.s) for b in r.ds_blocks]
    d, sb, db = _lattice(*blocks)
    c = _Checked(r.n_half, r.eta, d, sorted(sb, key=_by_shift), sorted(db, key=_by_shift))
    problems = _violations(c)
    if problems:
        raise ValueError("invalid representation data: " + "; ".join(problems))
    return c


def _dual(c: _Checked) -> _Checked:
    """The contragredient data: every shift negated, blocks re-sorted."""
    flip = lambda blocks: sorted([(label, -x, -y) for label, x, y in blocks], key=_by_shift)
    return c._replace(sign=flip(c.sign), ds=flip(c.ds))


def normalize(r: ReprData) -> ReprData:
    """Sort each block family by real part (ties by imaginary part, label)."""
    sb = sorted(r.sign_blocks, key=lambda b: (b.s.real, b.s.imag, b.eps))
    db = sorted(r.ds_blocks, key=lambda b: (b.s.real, b.s.imag, b.k))
    return ReprData(r.n_half, r.eta, tuple(sb), tuple(db))


def repr_from_json(obj) -> ReprData:
    """Read {"n":..,"eta":..,"sign_blocks":[{"eps":..,"s":".."}],"ds_blocks":[..]}.

    A missing or ill-typed field raises ValueError naming it.
    """
    if isinstance(obj, str):
        obj = json.loads(obj)
    top = "representation"
    n = _json_field(obj, "n", top, _json_int)
    eta = _json_field(obj, "eta", top, _json_int, 0)
    blocks = []
    for fam, label, convert in (("sign", "eps", as_parity), ("ds", "k", _json_int)):
        entries = _json_field(obj, f"{fam}_blocks", top, _json_list, [])
        blocks.append(
            tuple(
                (
                    _json_field(e, label, f"{fam} block {j}", convert),
                    _json_field(e, "s", f"{fam} block {j}", _json_complex),
                )
                for j, e in enumerate(entries, 1)
            )
        )
    return ReprData(n, eta, *blocks)


def repr_to_json(r: ReprData) -> dict:
    return {
        "n": r.n_half,
        "eta": r.eta,
        "sign_blocks": [{"eps": b.eps, "s": str(b.s)} for b in r.sign_blocks],
        "ds_blocks": [{"k": b.k, "s": str(b.s)} for b in r.ds_blocks],
    }


def random_repr_data(rng, n_half=None, eta=None) -> ReprData:
    """Draw admissible induction data with exact rational shifts.

    Mixes mirrored sign pairs, mirrored ds pairs, purely imaginary
    self-dual blocks of either family, and arbitrary weight multisets.
    """
    if n_half is None:
        n_half = rng.randint(1, 4)
    if eta is None:
        eta = rng.randint(0, 1)
    budget = 2 * n_half
    sign, ds = [], []

    def im():
        return Fraction(rng.randint(-20, 20), 10)

    def re():
        return Fraction(rng.randint(1, 45), 100)

    while budget > 0:
        roll = rng.random()
        if roll < 0.40 and budget >= 2:
            ds.append((rng.randint(2, 5), RationalComplex(0, im())))
            budget -= 2
        elif roll < 0.60 and budget >= 4:
            k, a, b = rng.randint(2, 5), re(), im()
            ds.append((k, RationalComplex(-a, b)))
            ds.append((k, RationalComplex(a, b)))
            budget -= 4
        elif roll < 0.85 and budget >= 2:
            eps, a, b = rng.randint(0, 1), re(), im()
            sign.append((eps, RationalComplex(-a, b)))
            sign.append((eps, RationalComplex(a, b)))
            budget -= 2
        else:
            sign.append((rng.randint(0, 1), RationalComplex(0, im())))
            budget -= 1
    return normalize(ReprData(n_half, eta, tuple(sign), tuple(ds)))


# -- embedding parameters ----------------------------------------------------


@dataclass(frozen=True)
class EmbeddingParams:
    """Principal-series exponents lam and sign parities delta, length 2n."""

    lam: tuple
    delta: tuple

    def __post_init__(self):
        object.__setattr__(self, "lam", tuple(RationalComplex.from_value(x) for x in self.lam))
        object.__setattr__(self, "delta", tuple(as_parity(d) for d in self.delta))
        if len(self.lam) != len(self.delta):
            raise ValueError("lam and delta must have equal length")


def casselman_embedding(r: ReprData) -> EmbeddingParams:
    """Embed the induction data into a principal series.

    The first half of the sign-block exponents fills the leading positions,
    each discrete-series block contributes the interleaved pair
    -s -+ (k-1)/2 with parities (k mod 2, 0), and the remaining sign blocks
    close the list.  Blocks are sorted first; permuting them is free.
    """
    d, lam = _embed(_checked(r))
    return EmbeddingParams(tuple(_point(x, y, d) for _, x, y in lam), tuple(p for p, _, _ in lam))


def _embed(c: _Checked) -> tuple:
    """d, then casselman_embedding on c's lattice: (delta, d*Re lam, d*Im lam)."""
    h, half = len(c.sign) // 2, c.d // 2
    lam = [(eps, -x, -y) for eps, x, y in c.sign[:h]]
    for k, x, y in c.ds:
        lam.append((k % 2, -x - (k - 1) * half, -y))
        lam.append((0, -x + (k - 1) * half, -y))
    lam.extend((eps, -x, -y) for eps, x, y in c.sign[h:])
    return c.d, lam


def contragredient(e: EmbeddingParams) -> EmbeddingParams:
    """Reverse and negate the exponents, reverse the parities; an involution."""
    return EmbeddingParams(tuple(-x for x in reversed(e.lam)), tuple(reversed(e.delta)))


# -- structural Gamma products ------------------------------------------------


class GammaFactor(NamedTuple):
    """One Gamma_R or Gamma_C factor whose argument is orient*s + const."""

    kind: str
    orient: int
    const: RationalComplex


def _accumulate(factors: dict, key, power: int = 1) -> None:
    """Add power to a lattice key's entry; an entry whose power reaches 0 goes.

    A new key goes to the end, so the dict keeps the order of the
    multiplications, which fixes the order in which value() sums log-Gammas.
    """
    total = factors.get(key, 0) + power
    if total:
        factors[key] = total
    else:
        factors.pop(key, None)


def _lattice(*families) -> tuple:
    """Put labelled shifts on one integer lattice.

    Each family is a list of (label, shift) pairs.  Returns d, the least
    common multiple of 2 and the denominators of every shift's real and
    imaginary parts, then each family as a list of (label, d*Re, d*Im).
    """
    d = 2
    for fam in families:
        for _, z in fam:
            d = math.lcm(d, z.real.denominator, z.imag.denominator)
    scale = lambda q: q.numerator * (d // q.denominator)
    return (d, *([(label, scale(z.real), scale(z.imag)) for label, z in fam] for fam in families))


class GammaExpr:
    """Product of shifted Gamma_R/Gamma_C factors with a unit constant i^k.

    Factors carry signed integer powers, so the same object represents
    ratios; structural equality is multiset equality including the unit.
    It stores d and its lattice counts, (kind, orient, d*Re, d*Im) to
    power, and never changes: the builders and __mul__ build counts through
    _accumulate and construct once through _expr.  The exact factors and
    the float terms are each derived from the counts on first read.
    """

    __slots__ = ("unit_ipow", "_counts", "_d", "_factors", "_terms")

    def __init__(self, unit_ipow: int = 0, factors=None):
        """i^unit_ipow times each GammaFactor to its power, put on the lattice."""
        items = (factors or {}).items()
        d, keyed = _lattice([((f.kind, f.orient, p), f.const) for f, p in items if p])
        self.unit_ipow, self._d = unit_ipow % 4, d
        self._counts = {(kind, orient, x, y): p for (kind, orient, p), x, y in keyed}
        self._factors = self._terms = None

    @property
    def factors(self) -> MappingProxyType:
        """A read-only view of each GammaFactor mapped to its power, in the stored order."""
        factors = self._factors
        if factors is None:
            d = self._d
            factors = {
                GammaFactor(kind, orient, _point(x, y, d)): power
                for (kind, orient, x, y), power in self._counts.items()
            }
            factors = self._factors = MappingProxyType(factors)
        return factors

    def _float_terms(self) -> tuple:
        """(kind, orient, complex shift, power) per factor, in factor order.

        Built once per expression; complex(x / d, y / d) is complex(const)
        bit for bit because int true division is correctly rounded.
        """
        terms = self._terms
        if terms is None:
            d = self._d
            terms = self._terms = tuple(
                (kind, orient, complex(x / d, y / d), power)
                for (kind, orient, x, y), power in self._counts.items()
            )
        return terms

    def _on(self, d: int) -> dict:
        """The counts with every key scaled to d, a multiple of this expression's d."""
        m = d // self._d
        if m == 1:
            return self._counts
        return {(kind, o, x * m, y * m): p for (kind, o, x, y), p in self._counts.items()}

    @classmethod
    def one(cls) -> "GammaExpr":
        return cls()

    @classmethod
    def gamma_r(cls, const, power: int = 1) -> "GammaExpr":
        d, ((_, x, y),) = _lattice([(None, RationalComplex.from_value(const))])
        return _expr(0, {("R", 1, x, y): power} if power else {}, d)

    @classmethod
    def gamma_c(cls, const, power: int = 1) -> "GammaExpr":
        d, ((_, x, y),) = _lattice([(None, RationalComplex.from_value(const))])
        return _expr(0, {("C", 1, x, y): power} if power else {}, d)

    @classmethod
    def g_factor(cls, parity, shift) -> "GammaExpr":
        """The ratio form i^p Gamma_R(s+shift+p) / Gamma_R(1-s-shift+p)."""
        p = as_parity(parity)
        d, ((_, x, y),) = _lattice([(None, RationalComplex.from_value(shift))])
        return _expr(p, {("R", 1, x + p * d, y): 1, ("R", -1, (1 + p) * d - x, -y): -1}, d)

    def __mul__(self, other):
        if not isinstance(other, GammaExpr):
            return NotImplemented
        d = math.lcm(self._d, other._d)
        merged = dict(self._on(d))
        for key, power in other._on(d).items():
            _accumulate(merged, key, power)
        return _expr(self.unit_ipow + other.unit_ipow, merged, d)

    def __eq__(self, other):
        if not isinstance(other, GammaExpr):
            return NotImplemented
        d = math.lcm(self._d, other._d)
        return self.unit_ipow == other.unit_ipow and self._on(d) == other._on(d)

    def __repr__(self):
        return "GammaExpr(" + " ".join(self.describe()) + ")" if self._counts else "GammaExpr(1)"

    def describe(self) -> tuple:
        """Human-readable factor list in a deterministic order."""
        names = {"R": "Gamma_R", "C": "Gamma_C"}
        key = lambda fp: (fp[0].kind, -fp[0].orient, fp[0].const.real, fp[0].const.imag)
        parts = []
        for fac, power in sorted(self.factors.items(), key=key):
            arg = "s" if fac.orient == 1 else "-s"
            if (text := str(fac.const)) != "0":
                arg += text if text.startswith("-") else "+" + text
            term = f"{names[fac.kind]}({arg})"
            if power != 1:
                term += f"^{power}"
            parts.append(term)
        if self.unit_ipow:
            parts.insert(0, ("i", "-1", "-i")[self.unit_ipow - 1])
        return tuple(parts)

    def value(self, s) -> complex:
        """Numeric evaluation; a net pole raises PoleError, a net zero is 0, and
        a value past the float range raises OverflowError naming s.  As in
        g_delta, |Re s| >= 2^53 is refused that way: every real part there is
        an even integer, so the pole tests would fire at points that are not
        poles."""
        s = complex(s)
        if abs(s.real) >= _TWO_53:
            raise OverflowError(f"a Gamma product at s={s} is outside the float range")
        acc, order, hit = 0.0j, 0, False
        for kind, orient, shift, power in self._float_terms():
            z = orient * s + shift
            try:
                part = log_gamma_r(z) if kind == "R" else log_gamma_c(z)
            except PoleError:
                hit = True
                order -= power
                continue
            acc += power * part
        if hit:
            if order > 0:
                return 0.0j
            raise PoleError(s, what="gamma-expr")
        try:
            if value := cmath.exp(acc):  # Gamma has no zeros: 0 is an underflow
                return _I_POW[self.unit_ipow] * value
        except OverflowError:
            pass
        raise OverflowError(f"a Gamma product at s={s} is outside the float range")

    def _hits(self, point) -> list:
        """The power of each factor whose Gamma argument at the exact point is a pole.

        In units of 1/d the argument z must be integral with Im z = 0 and
        Re z <= 0 a multiple of d times the pole step (2 for R, 1 for C).
        """
        point = RationalComplex.from_value(point)
        d = self._d
        px, rx = divmod(point.real.numerator * d, point.real.denominator)
        py, ry = divmod(point.imag.numerator * d, point.imag.denominator)
        if rx or ry:
            return []
        return [
            power
            for (kind, orient, x, y), power in self._counts.items()
            if y + orient * py == 0
            and (z := x + orient * px) <= 0
            and z % (2 * d if kind == "R" else d) == 0
        ]

    def pole_order_at(self, point) -> int:
        return sum(p for p in self._hits(point) if p > 0)

    def zero_order_at(self, point) -> int:
        return sum(-p for p in self._hits(point) if p < 0)

    def order_at(self, point) -> int:
        """Order of vanishing at the point; negative means a pole."""
        return -sum(self._hits(point))

    def nearest_pole_distance(self, s) -> float:
        """Distance from s to the nearest argument-lattice point of any factor."""
        s = complex(s)
        best = math.inf
        for kind, orient, shift, _ in self._float_terms():
            z = orient * s + shift
            step = 2 if kind == "R" else 1
            m = min(0, round(z.real / step))
            best = min(best, math.hypot(z.real - step * m, z.imag))
        return best

    def lattice_points_in_halfplane(self, re_min) -> dict:
        """Points with Re >= re_min where the order is nonzero, mapped to it.

        Only meaningful when every factor has the forward orientation;
        reversed ones put infinitely many lattice points in the half-plane.
        Each scanned point goes into a set, and the result keeps its order.
        """
        d = self._d
        lo = math.ceil(Fraction(re_min) * d)
        points = set()
        for kind, orient, x, y in self._counts:
            if orient != 1:
                raise ValueError("reversed factors have unbounded lattices to the right")
            # the argument s + (x + iy) / d poles at s = (px - iy) / d
            for px in range(-x, lo - 1, -2 * d if kind == "R" else -d):
                points.add(_point(px, -y, d))
        return {pt: o for pt in points if (o := self.order_at(pt))}

    def poles_in_halfplane(self, re_min) -> dict:
        """Pole locations with Re >= re_min mapped to their (positive) order."""
        return {pt: -o for pt, o in self.lattice_points_in_halfplane(re_min).items() if o < 0}


def _expr(unit: int, counts: dict, d: int) -> GammaExpr:
    """i^unit times each lattice factor (kind, orient, x, y) to its power."""
    out = GammaExpr.__new__(GammaExpr)
    out.unit_ipow, out._counts, out._d = unit % 4, counts, d
    out._factors = out._terms = None
    return out


# -- the local factor and its functional equation -----------------------------


def l_inf(r: ReprData) -> GammaExpr:
    """The archimedean factor as a Gamma product in s.

    Gamma_R pieces: one per ds block at 2t + eps' with eps' = (k+eta) mod 2,
    and one per sign-block pair at s_i + s_k + (eps_i+eps_k+eta mod 2).
    Gamma_C pieces: one per sign-ds pair at s_i + t_j + (k_j-1)/2, and two
    per ds pair at t_j + t_l + (k_j+k_l-2)/2 and t_j + t_l + |k_j-k_l|/2.
    """
    return _l_inf(_checked(r))


def _l_inf(c: _Checked) -> GammaExpr:
    eta, d, sb, db = c.eta, c.d, c.sign, c.ds
    half = d // 2
    counts = {}
    for k, x, y in db:
        _accumulate(counts, ("R", 1, 2 * x + (k + eta) % 2 * d, 2 * y))
    for _, x1, y1 in sb:
        for k, x2, y2 in db:
            _accumulate(counts, ("C", 1, x1 + x2 + (k - 1) * half, y1 + y2))
    for (e1, x1, y1), (e2, x2, y2) in combinations(sb, 2):
        _accumulate(counts, ("R", 1, x1 + x2 + (e1 + e2 + eta) % 2 * d, y1 + y2))
    for (k1, x1, y1), (k2, x2, y2) in combinations(db, 2):
        _accumulate(counts, ("C", 1, x1 + x2 + (k1 + k2 - 2) * half, y1 + y2))
        _accumulate(counts, ("C", 1, x1 + x2 + abs(k1 - k2) * half, y1 + y2))
    return _expr(0, counts, d)


def _g_product(d: int, lam: list, eta: int, full: bool) -> GammaExpr:
    """G over the pairs i < j of the lattice embedding lam: all of them when
    full, else those with i + j <= 2n."""
    two_n = len(lam)
    counts, unit = {}, 0
    for i, (di, xi, yi) in enumerate(lam):
        # 0-based, i + j <= 2n reads j < 2n - 1 - i
        for dj, xj, yj in lam[i + 1 : two_n if full else two_n - 1 - i]:
            p = (di + dj + eta) % 2
            # G(p, -(lam_i + lam_j)), the shift scaled by d to -(xi + xj, yi + yj)
            _accumulate(counts, ("R", 1, p * d - xi - xj, -yi - yj))
            _accumulate(counts, ("R", -1, (1 + p) * d + xi + xj, yi + yj), -1)
            unit += p
    return _expr(unit, counts, d)


def script_g(e: EmbeddingParams, eta) -> GammaExpr:
    """Product of G factors over index pairs i < j with i + j <= 2n."""
    return _g_product(*_lattice(list(zip(e.delta, e.lam))), as_parity(eta), False)


def script_g_tilde(e: EmbeddingParams, eta) -> GammaExpr:
    """The same product built from the contragredient parameters."""
    return script_g(contragredient(e), eta)


def script_g_full(e: EmbeddingParams, eta) -> GammaExpr:
    """Product over all pairs i < j; the functional-equation right side."""
    return _g_product(*_lattice(list(zip(e.delta, e.lam))), as_parity(eta), True)


def omega_closed_form(r: ReprData) -> complex:
    """The root-number constant of the Gamma-ratio identity, a power of i.

    The weight factors are enumerated with weights nonincreasing.  The
    j-dependent exponent makes the product order-sensitive mod 4 whenever
    weights of both parities occur, and only the nonincreasing enumeration
    reproduces the constant solved from the ratio itself (the solved value
    is invariant under permuting the induction data, so the enumeration is
    a normalization choice, not extra structure).  Inadmissible data
    raises ValueError, as in every public function here.
    """
    return _omega(_checked(r))


def _omega(c: _Checked) -> complex:
    eps = [e for e, _, _ in c.sign]
    expo = -sum((e1 + e2 + c.eta) % 2 for e1, e2 in combinations(eps, 2))
    order = sorted((k for k, _, _ in c.ds), reverse=True)
    for j, k in enumerate(order, 1):
        expo += k * (2 * j - 2 * c.n_half) - (k + c.eta) % 2
    return _I_POW[expo % 4]


@dataclass(frozen=True)
class FERatioResult:
    lhs: complex
    rhs: complex
    omega: complex


def fe_ratio_check(r: ReprData, s, tol: float = 1e-8) -> FERatioResult:
    """Check l_inf(s) over the dual l_inf(1-s) against omega times the G-product.

    omega is omega_closed_form for either parity of the twist, and the
    match is asserted to the relative tolerance.  A sample point closer
    than _MIN_POLE_DISTANCE to a pole raises PoleProximityError, a Gamma
    product that is 0 or infinite in floats raises OverflowError, and a
    mismatch raises IdentityMismatchError.
    """
    c = _checked(r)
    s = complex(s)
    num = _l_inf(c)
    # the dual of checked data is admissible: negation keeps the closure
    # under s -> -conj(s), and re-sorting keeps the pairing of real parts
    den = _l_inf(_dual(c))
    prod_expr = _g_product(*_embed(c), c.eta, True)
    d = min(e.nearest_pole_distance(z) for e, z in ((num, s), (den, 1 - s), (prod_expr, s)))
    if d < _MIN_POLE_DISTANCE:
        raise PoleProximityError(s, d)
    top, bottom, prod = num.value(s), den.value(1 - s), prod_expr.value(s)
    lhs = top / bottom if bottom else math.inf
    # past the pole-distance test a 0 or an infinity is float under- or
    # overflow; a 0 bottom makes lhs infinite
    if not all(v and cmath.isfinite(v) for v in (top, lhs, prod)):
        raise OverflowError(f"a Gamma product at s={s} is outside the float range")
    omega = _omega(c)
    rhs = omega * prod
    if abs(lhs - rhs) > tol * abs(lhs):
        raise IdentityMismatchError(
            f"functional-equation ratio mismatch at s={s}: lhs={lhs}, rhs={rhs}, "
            f"solved constant {lhs / prod}"
        )
    return FERatioResult(lhs, rhs, omega)


# -- poles and holomorphy ------------------------------------------------------


@dataclass(frozen=True)
class PoleRecord:
    location: RationalComplex
    order: int
    provenance: tuple


def pole_enumeration(r: ReprData) -> tuple:
    """The PoleRecord of each pole of l_inf in Re s >= 1/2, with
    multiplicity and family labels, ordered by location.

    Scans the Gamma-argument lattices of the full factor and cross-checks
    the result against the three structural pole families (squared ds
    shifts, sign-block pairs, equal-weight ds pairs); the lists must agree,
    or IdentityMismatchError is raised.
    """
    c = _checked(r)
    scanned = _l_inf(c).poles_in_halfplane(Fraction(1, 2))
    eta, d, sb, db = c.eta, c.d, c.sign, c.ds
    families = {}

    def tag(x, y, name):
        # the pole at s = (x + iy) / d counts when Re s >= 1/2
        if 2 * x >= d:
            families.setdefault((x, y), []).append(name)

    for j, (k, x, y) in enumerate(db, 1):
        if (k + eta) % 2 == 0:
            tag(-2 * x, -2 * y, f"ds-square[{j}]")
    for (i, (e1, x1, y1)), (m, (e2, x2, y2)) in combinations(enumerate(sb, 1), 2):
        if (e1 + e2 + eta) % 2 == 0:
            tag(-x1 - x2, -y1 - y2, f"sign-pair[{i},{m}]")
    for (j, (k1, x1, y1)), (l, (k2, x2, y2)) in combinations(enumerate(db, 1), 2):
        if k1 == k2:
            tag(-x1 - x2, -y1 - y2, f"ds-pair[{j},{l}]")
    points = {_point(x, y, d): tags for (x, y), tags in sorted(families.items())}
    counted = {pt: len(tags) for pt, tags in points.items()}
    if counted != scanned:
        raise IdentityMismatchError(
            f"lattice scan {scanned} disagrees with the structural families {counted}"
        )
    return tuple(PoleRecord(pt, len(tags), tuple(tags)) for pt, tags in points.items())


def partial_products(r: ReprData) -> tuple:
    """Six sub-products of the G-product, split by index classes.

    Class 1 pairs leading sign positions among themselves, class 2 pairs
    leading with trailing sign positions, class 3 pairs sign positions with
    ds positions, classes 4 and 5 pair each ds block with itself and with
    its reflection, and class 6 covers the remaining ds cross pairs.  They
    are built independently from the block data, and their combined factor
    multiset must reproduce script_g, or IdentityMismatchError is raised.
    """
    c = _checked(r)
    return _partial_products(c, _g_product(*_embed(c), c.eta, False))


def _partial_products(c: _Checked, g_expr: GammaExpr) -> tuple:
    eta, d, sb, db = c.eta, c.d, c.sign, c.ds
    half, h, r2 = d // 2, len(sb) // 2, len(db)
    counts = [{} for _ in range(6)]
    units = [0] * 6

    def put(part, parity, x, y):
        # G(parity, shift) for the shift (x + iy) / d
        units[part - 1] += parity
        _accumulate(counts[part - 1], ("R", 1, x + parity * d, y))
        _accumulate(counts[part - 1], ("R", -1, (1 + parity) * d - x, -y), -1)

    for (e1, x1, y1), (e2, x2, y2) in combinations(sb[:h], 2):
        put(1, (e1 + e2 + eta) % 2, x1 + x2, y1 + y2)
    # 0-based, leading position i meets the trailing positions h .. 2h - 2 - i
    for i, (e1, x1, y1) in enumerate(sb[:h]):
        for e2, x2, y2 in sb[h : 2 * h - 1 - i]:
            put(2, (e1 + e2 + eta) % 2, x1 + x2, y1 + y2)
    for e1, x1, y1 in sb[:h]:
        for k, x2, y2 in db:
            put(3, (e1 + k + eta) % 2, x1 + x2 + (k - 1) * half, y1 + y2)
            put(3, (e1 + eta) % 2, x1 + x2 - (k - 1) * half, y1 + y2)
    for k, x, y in db[: r2 // 2]:
        put(4, (k + eta) % 2, 2 * x, 2 * y)
    for (k1, x1, y1), (k2, x2, y2) in zip(db[: r2 // 2], reversed(db)):
        put(5, (k1 + k2 + eta) % 2, x1 + x2 + (k1 + k2 - 2) * half, y1 + y2)
    # 0-based, the pairs l1 < l2 with l1 + l2 <= r2 - 2
    for l1, (k1, x1, y1) in enumerate(db):
        for k2, x2, y2 in db[l1 + 1 : r2 - 1 - l1]:
            x, y = x1 + x2, y1 + y2
            h1, h2 = (k1 - 1) * half, (k2 - 1) * half
            put(6, (k1 + k2 + eta) % 2, x + h1 + h2, y)
            put(6, (k1 + eta) % 2, x + h1 - h2, y)
            put(6, (k2 + eta) % 2, x - h1 + h2, y)
            put(6, eta, x - h1 - h2, y)
    g1, g2, g3, g4, g5, g6 = (_expr(u, cs, d) for u, cs in zip(units, counts))
    combined = g1 * g2 * g3 * g4 * g5 * g6
    if combined != g_expr:
        raise IdentityMismatchError("partial products do not reassemble the G-product")
    return (g1, g2, g3, g4, g5, g6)


@dataclass(frozen=True)
class HolomorphyReport:
    ok: bool
    poles: tuple  # of PoleRecord
    notes: tuple


def holomorphy_check(r: ReprData) -> HolomorphyReport:
    """Pole bookkeeping for the quotient analysis.

    Confirms the local factor is pole- and zero-free in Re s >= 1, and that
    every pole in Re s >= 1/2 is matched, with at least its multiplicity,
    by the G-product, without any partial product vanishing there.
    """
    c = _checked(r)
    notes = []
    factor = _l_inf(c)
    if any(p < 0 for p in factor._counts.values()):
        notes.append("local factor contains reciprocal Gamma factors")
    stray = factor.lattice_points_in_halfplane(1)
    if stray:
        notes.append(f"local factor is not pole- and zero-free in Re s >= 1: {stray}")
    poles = pole_enumeration(r)
    g_expr = _g_product(*_embed(c), c.eta, False)
    partials = _partial_products(c, g_expr)
    for rec in poles:
        got = g_expr.pole_order_at(rec.location)
        if got < rec.order:
            notes.append(
                f"pole at {rec.location}: G-product order {got} below required {rec.order}"
            )
        for idx, part in enumerate(partials, 1):
            if z := part.zero_order_at(rec.location):
                notes.append(
                    f"pole at {rec.location}: partial product {idx} vanishes to order {z}"
                )
    return HolomorphyReport(not notes, poles, tuple(notes))
