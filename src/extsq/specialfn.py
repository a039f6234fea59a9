"""Complex Gamma machinery and the Fourier-type ratio G_delta.

The building blocks are a Lanczos log-Gamma, the real and complex Gamma
factors gamma_r(s) = pi^(-s/2) Gamma(s/2) and gamma_c(s) = 2 (2pi)^(-s)
Gamma(s), and

    g_delta(delta, s) = i^delta * gamma_r(s + delta) / gamma_r(1 - s + delta),

the normalized Fourier transform of sgn(x)^delta |x|^(s-1).  An independent
oracle evaluates that Fourier integral directly, without any Gamma function:
it splits the integral at CutoffSpec.inner_radius, sums the power series of
the piece next to 0 (cos and sin integrated term by term), and integrates the
rest on a path rotated into the complex plane by double-exponential
quadrature.  Only the tail's powers (a +- i t)^(s-1) depend on s: its nodes
and weights of each step level are built once per (inner radius, level), on
first use, and kept in a bounded cache.  CutoffSpec.parts_count bounds the
accepted domain 0 < Re s < parts_count; outer_radius is validated but unread.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

_LN_2 = math.log(2.0)
_LN_PI = math.log(math.pi)
_LN_2PI = math.log(2.0 * math.pi)
_TWO_PI = 2.0 * math.pi
_TWO_53 = 2.0**53
_I_POW = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)  # i**k for k mod 4

# Lanczos parameters (g = 607/128, 15 terms); term i >= 1 is c_i / (z - 1 + i).
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    3.3994649984811888699e-5,
    4.6523628927048575665e-5,
    -9.8374475304879564677e-5,
    1.5808870322491248884e-4,
    -2.1026444172410488319e-4,
    2.1743961811521264320e-4,
    -1.6431810653676389022e-4,
    8.4418223983852743293e-5,
    -2.6190838401581408670e-5,
    3.6899182659531622704e-6,
)
_LANCZOS_SHIFT = 607.0 / 128.0 - 0.5  # g - 1/2
_LANCZOS_TERMS = tuple((c, float(i)) for i, c in enumerate(_LANCZOS_C) if i)


class PoleError(ArithmeticError):
    """Evaluation hit a pole; .location carries the offending point."""

    def __init__(self, location, what="gamma"):
        self.location = location
        super().__init__(f"{what} pole at {location}")


class QuadratureToleranceError(ArithmeticError):
    """Quadrature error estimate exceeded its budget; .achieved carries it."""

    def __init__(self, achieved: float, budget: float, value: complex):
        self.achieved = achieved
        self.budget = budget
        self.value = value
        super().__init__(
            f"quadrature error estimate {achieved:.3e} exceeds budget {budget:.3e}"
        )


def as_parity(v) -> int:
    if v not in (0, 1):
        raise ValueError(f"parity must be 0 or 1, got {v!r}")
    return int(v)


def _is_nonpositive_integer(z: complex):
    if z.imag == 0.0 and z.real <= 0.0 and z.real == math.floor(z.real):
        return int(z.real)
    return None


def log_sin_pi(z: complex) -> complex:
    """log(sin(pi z)) up to multiples of 2 pi i, safe for large |Im z|."""
    if z.imag > 1.0:
        # sin(pi z) = e^{-i pi z} (1 - e^{2 i pi z}) * i/2
        return (
            -1j * math.pi * z
            + cmath.log(1.0 - cmath.exp(2j * math.pi * z))
            + cmath.log(0.5j)
        )
    if z.imag < -1.0:
        return log_sin_pi(z.conjugate()).conjugate()
    return cmath.log(cmath.sin(math.pi * z))


def lgamma(z) -> complex:
    """Principal-branch log Gamma up to multiples of 2 pi i.

    Raises PoleError at nonpositive integers.  Values are meant to be
    exponentiated or differenced-then-exponentiated, so the 2 pi i ambiguity
    introduced by the reflection path is harmless.
    """
    z = complex(z)
    k = _is_nonpositive_integer(z)
    if k is not None:
        raise PoleError(k)
    if z.real < 0.5:
        return _LN_PI - log_sin_pi(z) - lgamma(1.0 - z)
    t = z + _LANCZOS_SHIFT
    zm1 = z - 1.0
    acc = _LANCZOS_C[0]
    for c, offset in _LANCZOS_TERMS:
        acc += c / (zm1 + offset)
    return 0.5 * _LN_2PI + (z - 0.5) * cmath.log(t) - t + cmath.log(acc)


def gamma(z) -> complex:
    return cmath.exp(lgamma(z))


def log_gamma_r(z: complex) -> complex:
    """log gamma_r(z) up to multiples of 2 pi i; PoleError at the poles."""
    return -0.5 * z * _LN_PI + lgamma(0.5 * z)


def log_gamma_c(z: complex) -> complex:
    """log gamma_c(z) up to multiples of 2 pi i; PoleError at the poles."""
    return _LN_2 - z * _LN_2PI + lgamma(z)


def gamma_r(s) -> complex:
    """pi^(-s/2) Gamma(s/2); poles at s in {0, -2, -4, ...}."""
    return cmath.exp(log_gamma_r(complex(s)))


def gamma_c(s) -> complex:
    """2 (2 pi)^(-s) Gamma(s); poles at nonpositive integers."""
    return cmath.exp(log_gamma_c(complex(s)))


def g_delta(delta, s) -> complex:
    """i^delta gamma_r(s+delta) / gamma_r(1-s+delta).

    Poles of the numerator raise PoleError; poles of the denominator give an
    exact zero.  The value satisfies g_delta(s) g_delta(1-s) = (-1)^delta.
    From |Re s| = 2^53 on, every real part is an even integer, so the pole
    tests would fire at points that are not poles; there the value is far
    outside the float range, and it raises OverflowError.
    """
    delta = as_parity(delta)
    s = complex(s)
    if abs(s.real) >= _TWO_53:
        raise OverflowError(f"g_delta at s={s} is outside the float range")
    num_arg = 0.5 * (s + delta)
    den_arg = 0.5 * (1.0 - s + delta)
    num_pole = _is_nonpositive_integer(num_arg) is not None
    den_pole = _is_nonpositive_integer(den_arg) is not None
    # the arguments sum to delta + 1/2, so at most one of them is a pole
    if num_pole:
        raise PoleError(s, what="g_delta")
    if den_pole:
        return 0.0j
    log_ratio = log_gamma_r(s + delta) - log_gamma_r(1.0 - s + delta)
    try:
        return _I_POW[delta % 4] * cmath.exp(log_ratio)
    except OverflowError:
        raise OverflowError(f"g_delta at s={s} is outside the float range") from None


# -- oscillatory-integral oracle -------------------------------------------

# Double-exponential quadrature (Takahasi & Mori, Publ. RIMS 9, 1974): after
# a substitution whose weights decay like exp(-c e^|t|), the trapezoid rule
# in t has an error like exp(-c'/h).  Steps run from 1 down to 2^-_DE_LEVELS.
_DE_LEVELS = 9
# exp-sinh range for the rotated tail: the nodes run from t = 2e-31 to
# t = 28, where e^(-2 pi t) is below 1e-77
_TAIL_RANGE = (-4.5, 1.5)
_HALF_PI = 0.5 * math.pi
# Tail tables kept, one per (inner radius, level): ten levels per radius.
_NODE_TABLES = 32
_U = 2.0**-53  # unit roundoff of a float


@dataclass(frozen=True)
class CutoffSpec:
    """Where the quadrature oracle splits its integral, and what it accepts.

    The oracle sums a power series over (0, inner_radius), rotates the rest
    into the complex plane and accepts 0 < Re s < parts_count.  The series'
    rounding grows like e^(2 pi inner_radius), so radii above about 2.5 are
    refused at the default budget; the program uses 1.  outer_radius is unread.
    """

    inner_radius: float
    outer_radius: float
    parts_count: int

    def __post_init__(self):
        if not (0.0 < self.inner_radius < self.outer_radius):
            raise ValueError("need 0 < inner_radius < outer_radius")
        if self.parts_count < 1:
            raise ValueError("parts_count must be >= 1")


def _abscissae(lo: float, hi: float, level: int) -> list:
    """The trapezoid nodes in [lo, hi] new at a level: the integers at level 0,
    the odd multiples of the step 2^-level after."""
    if not level:
        return [float(k) for k in range(math.ceil(lo), math.floor(hi) + 1)]
    h = 0.5**level
    k_lo = math.ceil(lo / h)
    return [k * h for k in range(k_lo + 1 - k_lo % 2, math.floor(hi / h) + 1, 2)]


def _head_series(delta: int, s: complex, a: float) -> tuple[complex, float]:
    """H = int_0^a trig(2 pi x) x^(s-1) dx, trig cos or sin by delta, with an error bound.

    Trig's Taylor series integrated term by term (DLMF 8.5) gives H = a^s
    sum_k (-1)^k w^m / (m! (m + s)), m = 2k + delta, w = 2 pi a.  Once
    (m+1)(m+2) >= 2 w^2 each later term is at most half the one before, so
    the rest from the next term t on is at most 2|t|; the sum stops there
    once |t| <= u mass (or mass overflows), mass = sum |terms|, u = 2^-53.
    Rounding, first order, K terms, libm within 2u: w^m / m! is off by 2m u
    from w, k u from w^2 and 2k u from the k steps; m + s and Smith's complex
    quotient add 7u; summing adds (K - 1) u mass: (8K + 1) u mass in all.
    a^s = a^Re(s) e^(i Im(s) ln a) is off by 5u (pow, cos or sin, product)
    plus 3u |Im(s) ln a| (log, product), and the product adds 3u.  Taking
    4.5 (m + 2) >= 9(K + 1) for 8K + 9 leaves room for second order.
    """
    w = _TWO_PI * a
    step = -w * w
    c = w if delta else 1.0  # (-1)^k w^m / m!
    m, total, mass = delta, 0j, 0.0
    while True:
        term = c / (m + s)
        size = abs(term)
        d = (m + 1) * (m + 2)
        if not size > _U * mass and (d >= -2.0 * step or mass == math.inf):
            break
        total += term
        mass += size
        c *= step / d
        m += 2
    scale = a**s
    value = scale * total
    bound = abs(scale) * (2.0 * size + 4.5 * (m + 2) * _U * mass)
    return value, bound + 3.0 * _U * abs(s.imag * math.log(a)) * abs(value)


@lru_cache(maxsize=_NODE_TABLES)
def _tail_nodes(a, level: int) -> tuple:
    """The tuples of weight, a + i t and a - i t over the tail's new nodes of a level,
    where the integrand is weight (c_plus (a + i t)^(s-1) + c_minus (a - i t)^(s-1))."""
    ws, zps, zms = [], [], []
    for tau in _abscissae(*_TAIL_RANGE, level):
        # t = exp((pi/2) sinh tau) on the rotated paths x = a + i t, a - i t
        t = math.exp(_HALF_PI * math.sinh(tau))
        weight = math.exp(-_TWO_PI * t) * t * _HALF_PI * math.cosh(tau)
        ws.append(weight)
        zps.append(complex(a, t))
        zms.append(complex(a, -t))
    return tuple(ws), tuple(zps), tuple(zms)


def _double_exponential(level_values) -> tuple[complex, float]:
    """Trapezoid sums on a double-exponential grid, the step halved until two
    successive sums agree near machine precision or _DE_LEVELS is reached.

    level_values(level) gives the weighted integrand at the nodes new at
    that level (see _abscissae); it is asked only for the levels reached.
    Returns the last sum and its change from the one before, which is never
    taken below the rounding level of the sum of |values|.
    """
    values = level_values(0)
    total = sum(values)
    mass = sum(map(abs, values))
    h = 1.0
    for level in range(1, _DE_LEVELS + 1):
        h *= 0.5
        values = level_values(level)
        refined = 0.5 * total + h * sum(values)
        mass = 0.5 * mass + h * sum(map(abs, values))
        change = abs(refined - total)
        total = refined
        if change <= 1e-14 * mass:
            break
    return total, max(change, 1e-14 * mass)


def g_delta_integral(delta, s, cutoff: CutoffSpec, budget: float = 1e-7) -> complex:
    """Evaluate the Fourier integral of sgn^delta |x|^(s-1) directly.

    Folding x -> -x gives int_0^inf (e(x) + (-1)^delta e(-x)) x^(s-1) dx,
    e(x) = exp(2 pi i x), split at a = cutoff.inner_radius: the head over
    (0, a) is 2 or 2i times _head_series; on the tail the path x = a +- i t
    turns e(+-x) into e(+-a) e^(-2 pi t) (Cauchy's theorem; for Re s >= 1
    this is the analytic continuation), integrated by exp-sinh.  The error
    estimate is twice the head's bound plus the tail's last change.  The
    value does not depend on budget; an estimate above it raises
    QuadratureToleranceError.  Requires 0 < Re s < parts_count.
    """
    delta = as_parity(delta)
    s = complex(s)
    if not (0.0 < s.real < cutoff.parts_count):
        raise ValueError(f"quadrature oracle needs 0 < Re s < {cutoff.parts_count}")
    a = cutoff.inner_radius
    head_val, head_bound = _head_series(delta, s, a)
    head_val *= 2j if delta else 2.0

    s1 = s - 1.0
    e_a = complex(math.cos(_TWO_PI * a), math.sin(_TWO_PI * a))
    c_plus = 1j * e_a
    c_minus = (1.0 if delta else -1.0) * 1j * e_a.conjugate()

    def tail(level: int) -> list:
        return [w * (c_plus * zp**s1 + c_minus * zm**s1) for w, zp, zm in zip(*_tail_nodes(a, level))]

    try:
        tail_val, tail_change = _double_exponential(tail)
    except OverflowError:
        # once |Im s| is in the hundreds the rotated integrand outgrows floats
        raise QuadratureToleranceError(math.inf, budget, complex(math.nan, math.nan)) from None
    value = head_val + tail_val
    achieved = 2.0 * head_bound + tail_change
    if not achieved <= budget:
        raise QuadratureToleranceError(achieved, budget, value)
    return value


# -- pairwise collapse ------------------------------------------------------


def gcancel(eta1, eta2, z1, z2, s):
    """Product of two g_delta factors collapsed to one gamma_c ratio.

    Requires z1 - z2 to lie in 2Z + eta1 - eta2 + 1.  Returns the pair
    (g_{eta1}(s+z1) g_{eta2}(s+z2), i^(z1-z2+1) gamma_c(s+z1)/gamma_c(1-s-z2));
    the two agree identically on the stated lattice.
    """
    eta1 = as_parity(eta1)
    eta2 = as_parity(eta2)
    z1 = complex(z1)
    z2 = complex(z2)
    d = z1 - z2
    if abs(d.imag) > 1e-12:
        raise ValueError("z1 - z2 must be real")
    m = round(d.real)
    if abs(d.real - m) > 1e-9 or (m - (eta1 - eta2 + 1)) % 2 != 0:
        raise ValueError("z1 - z2 must lie in 2Z + eta1 - eta2 + 1")
    lhs = g_delta(eta1, s + z1) * g_delta(eta2, s + z2)
    rhs = _I_POW[(m + 1) % 4] * gamma_c(s + z1) / gamma_c(1 - s - z2)
    return lhs, rhs
