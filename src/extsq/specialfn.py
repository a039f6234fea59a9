"""Complex Gamma machinery and the Fourier-type ratio G_delta.

The building blocks are a Lanczos log-Gamma, the real and complex Gamma
factors gamma_r(s) = pi^(-s/2) Gamma(s/2) and gamma_c(s) = 2 (2pi)^(-s)
Gamma(s), and

    g_delta(delta, s) = i^delta * gamma_r(s + delta) / gamma_r(1 - s + delta),

the normalized Fourier transform of sgn(x)^delta |x|^(s-1).  An independent
oracle evaluates that Fourier integral directly: a smooth cutoff splits it at
finite radius, the compact piece goes to adaptive quadrature, and the tail is
integrated by parts N times until it converges absolutely, with the remaining
oscillatory integral handled by weighted quadrature.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

_LN_PI = math.log(math.pi)
_LN_2PI = math.log(2.0 * math.pi)
_TWO_PI = 2.0 * math.pi
_I_POW = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)  # i**k for k mod 4

# Lanczos parameters (g = 607/128, 15 terms).
_LANCZOS_G = 607.0 / 128.0
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
    t = z + (_LANCZOS_G - 0.5)
    acc = _LANCZOS_C[0]
    for i in range(1, len(_LANCZOS_C)):
        acc += _LANCZOS_C[i] / (z - 1.0 + i)
    return 0.5 * _LN_2PI + (z - 0.5) * cmath.log(t) - t + cmath.log(acc)


def gamma(z) -> complex:
    return cmath.exp(lgamma(z))


def gamma_r(s) -> complex:
    """pi^(-s/2) Gamma(s/2); poles at s in {0, -2, -4, ...}."""
    s = complex(s)
    return cmath.exp(-0.5 * s * _LN_PI + lgamma(0.5 * s))


def gamma_c(s) -> complex:
    """2 (2 pi)^(-s) Gamma(s); poles at nonpositive integers."""
    s = complex(s)
    return 2.0 * cmath.exp(-s * _LN_2PI + lgamma(s))


def g_delta(delta, s) -> complex:
    """i^delta gamma_r(s+delta) / gamma_r(1-s+delta).

    Poles of the numerator raise PoleError; poles of the denominator give an
    exact zero.  The value satisfies g_delta(s) g_delta(1-s) = (-1)^delta.
    """
    delta = as_parity(delta)
    s = complex(s)
    num_arg = 0.5 * (s + delta)
    den_arg = 0.5 * (1.0 - s + delta)
    num_pole = _is_nonpositive_integer(num_arg) is not None
    den_pole = _is_nonpositive_integer(den_arg) is not None
    if num_pole and not den_pole:
        raise PoleError(s, what="g_delta")
    if den_pole and not num_pole:
        return 0.0j
    if num_pole and den_pole:
        # cannot happen: the two lattices have opposite parities
        raise PoleError(s, what="g_delta")
    log_ratio = (
        -0.5 * (s + delta) * _LN_PI
        + lgamma(num_arg)
        + 0.5 * (1.0 - s + delta) * _LN_PI
        - lgamma(den_arg)
    )
    return _I_POW[delta % 4] * cmath.exp(log_ratio)


# -- oscillatory-integral oracle -------------------------------------------


@dataclass(frozen=True)
class CutoffSpec:
    """Smooth cutoff: 1 on [0, inner_radius], 0 beyond outer_radius, with
    parts_count integrations by parts applied to the tail."""

    inner_radius: float
    outer_radius: float
    parts_count: int

    def __post_init__(self):
        if not (0.0 < self.inner_radius < self.outer_radius):
            raise ValueError("need 0 < inner_radius < outer_radius")
        if self.parts_count < 1:
            raise ValueError("parts_count must be >= 1")


def _bump_edge(t: float) -> float:
    """Smooth monotone 0 -> 1 transition on [0, 1]."""
    if t <= 0.0:
        return 0.0
    if t >= 1.0:
        return 1.0
    a = math.exp(-1.0 / t)
    b = math.exp(-1.0 / (1.0 - t))
    return a / (a + b)


def smooth_cutoff(x: float, spec: CutoffSpec) -> float:
    if x <= spec.inner_radius:
        return 1.0
    if x >= spec.outer_radius:
        return 0.0
    t = (x - spec.inner_radius) / (spec.outer_radius - spec.inner_radius)
    return 1.0 - _bump_edge(t)


def _quad_complex(f, a, b, budget_acc, **kw):
    from scipy.integrate import quad

    # the real- and imaginary-part runs share many nodes; evaluate f once
    # per node, in a memo that lives as long as this call
    value = functools.cache(f)
    re, re_err = quad(lambda x: value(x).real, a, b, **kw)
    im, im_err = quad(lambda x: value(x).imag, a, b, **kw)
    budget_acc.append(re_err + im_err)
    return complex(re, im)


def _quad_weighted(f, a, weight, budget_acc):
    from scipy.integrate import quad

    val, err = quad(f, a, math.inf, weight=weight, wvar=_TWO_PI, limit=200)
    budget_acc.append(err)
    return val


def _tail_remainders(s: complex, n_parts: int, a: float, errs) -> tuple:
    """The weighted integrals f1..f4 of x^(s-1-N) against cos and sin of
    2 pi x over [a, infinity), N = n_parts, which both signs of the tail
    combine.  Their error estimates are appended once; the caller counts
    them once per sign."""
    sigma = s.real - 1.0 - n_parts
    beta = s.imag
    # every node's x^sigma and beta log x, shared by the four integrals
    power_and_phase = functools.cache(lambda x: (x**sigma, beta * math.log(x)))

    def mag_cos(x):
        # for real s the phase is a zero, whose cosine is exactly 1.0
        mag, phase = power_and_phase(x)
        return mag * math.cos(phase)

    def mag_sin(x):
        mag, phase = power_and_phase(x)
        return mag * math.sin(phase)

    f1 = _quad_weighted(mag_cos, a, "cos", errs)
    f3 = _quad_weighted(mag_cos, a, "sin", errs)
    if beta:
        f2 = _quad_weighted(mag_sin, a, "cos", errs)
        f4 = _quad_weighted(mag_sin, a, "sin", errs)
    else:
        f2 = f4 = 0.0
    return f1, f2, f3, f4


def _tail_oscillatory(s: complex, n_parts: int, a: float, c_sign: int, remainders) -> complex:
    """Integral of e^{c x} x^{s-1} over [a, infinity), c = c_sign * 2 pi i,
    regularized by n_parts integrations by parts; remainders are
    _tail_remainders(s, n_parts, a)."""
    c = complex(0.0, c_sign * _TWO_PI)
    total = 0.0j
    k_m = 1.0 + 0.0j  # prod_{t=1..m} (s - t)
    coef = 1.0 + 0.0j  # (-1/c)^m
    exp_ca = cmath.exp(c * a)
    for m in range(n_parts):
        boundary = -exp_ca * (a ** complex(s - 1 - m)) / c
        total += coef * k_m * boundary
        k_m *= s - (m + 1)
        coef *= -1.0 / c
    # remaining absolutely convergent piece: int_a^inf e^{cx} x^{s-1-N} dx
    f1, f2, f3, f4 = remainders
    if c_sign > 0:
        rest = complex(f1 - f4, f2 + f3)
    else:
        rest = complex(f1 + f4, f2 - f3)
    total += coef * k_m * rest
    return total


def g_delta_integral(delta, s, cutoff: CutoffSpec, budget: float = 1e-7) -> complex:
    """Evaluate the Fourier integral of sgn^delta |x|^(s-1) directly.

    Folding x -> -x turns the real-line integral into
    int_0^inf (e(x) + (-1)^delta e(-x)) x^(s-1) dx, which is split by the
    smooth cutoff; the compactly supported piece is integrated after the
    substitution x = u^nu that absorbs the x^(s-1) singularity, and the tail
    is integrated by parts cutoff.parts_count times.  Requires
    0 < Re s < parts_count.
    """
    delta = as_parity(delta)
    s = complex(s)
    n_parts = cutoff.parts_count
    if not (0.0 < s.real < n_parts):
        raise ValueError("need 0 < Re s < parts_count")
    sign = -1.0 if delta else 1.0
    errs: list[float] = []

    def phi(x: float) -> complex:
        w = _TWO_PI * x
        e_plus = complex(math.cos(w), math.sin(w))
        return e_plus + sign * e_plus.conjugate()

    r0, r1 = cutoff.inner_radius, cutoff.outer_radius
    # substitute x = u^nu so the integrand near 0 behaves like u^(nu*s - 1)
    # with real part >= 0.5, which adaptive quadrature handles comfortably
    nu = max(1, math.ceil(1.5 / s.real))
    b_sub = r1 ** (1.0 / nu)

    def head(u: float) -> complex:
        if u <= 0.0:
            return 0.0j
        x = u**nu
        psi = smooth_cutoff(x, cutoff)
        if psi == 0.0:
            return 0.0j
        return nu * phi(x) * psi * (u ** complex(nu * s - 1))

    head_val = _quad_complex(head, 0.0, b_sub, errs, limit=200)

    def mid(x: float) -> complex:
        w = 1.0 - smooth_cutoff(x, cutoff)
        if w == 0.0:
            return 0.0j
        return phi(x) * w * (x ** complex(s - 1))

    mid_val = _quad_complex(mid, r0, r1, errs, limit=200)
    tail_errs: list[float] = []
    remainders = _tail_remainders(s, n_parts, r1, tail_errs)
    # one estimate per sign, as if each sign had integrated its own copy
    errs += tail_errs + tail_errs
    tail = _tail_oscillatory(s, n_parts, r1, +1, remainders) + sign * _tail_oscillatory(
        s, n_parts, r1, -1, remainders
    )
    value = head_val + mid_val + tail
    achieved = sum(errs)
    if achieved > budget:
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
