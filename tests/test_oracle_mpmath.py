"""The closed-form Gamma factors against mpmath as an oracle.

mpmath is not a dependency of extsq, so the module is skipped without it.
mpmath evaluates the same formulas at 40 significant digits, so the
reference is exact for double-precision purposes.  The Lanczos log-Gamma
loses absolute accuracy in proportion to |Im s|, and exponentiating turns
that into relative error: about 2e-16 near the real axis, 1e-14 at
|Im s| = 50, 1e-13 at 200 and 1e-12 at 1000.  The bound grows to match.
The quadrature oracle's series head is held to its own error bound.
"""

import math
import random

import pytest

mpmath = pytest.importorskip("mpmath")

from extsq.specialfn import _head_series, g_delta, gamma_c, gamma_r  # noqa: E402


def rel_bound(s: complex) -> float:
    return 1e-14 * (1.0 + abs(s.imag) / 2.0)


def mp_gamma_r(s):
    return mpmath.pi ** (-s / 2) * mpmath.gamma(s / 2)


def mp_gamma_c(s):
    return 2 * (2 * mpmath.pi) ** (-s) * mpmath.gamma(s)


def mp_g_delta(delta, s):
    return mpmath.mpc(0, 1) ** delta * mp_gamma_r(s + delta) / mp_gamma_r(1 - s + delta)


def draws(seed, count, im_max):
    rng = random.Random(seed)
    return [complex(rng.uniform(-3.0, 4.0), rng.uniform(-im_max, im_max)) for _ in range(count)]


def rel_err(value: complex, ref) -> float:
    ref = complex(ref)
    return abs(value - ref) / abs(ref)


# gamma_r and gamma_c decay like exp(-pi |Im s| / 4) and exp(-pi |Im s| / 2),
# so they leave the double range before |Im s| = 1000; g_delta is a ratio
# and stays of moderate size there.
@pytest.mark.parametrize("im_max", [1.0, 10.0, 50.0, 200.0])
def test_gamma_r_and_gamma_c_match_mpmath(im_max):
    with mpmath.workdps(40):
        for s in draws(f"gamma:{im_max}", 100, im_max):
            ms = mpmath.mpc(s.real, s.imag)
            assert rel_err(gamma_r(s), mp_gamma_r(ms)) <= rel_bound(s), s
            assert rel_err(gamma_c(s), mp_gamma_c(ms)) <= rel_bound(s), s


@pytest.mark.parametrize("im_max", [1.0, 10.0, 50.0, 200.0, 1000.0])
@pytest.mark.parametrize("delta", [0, 1])
def test_g_delta_matches_mpmath(delta, im_max):
    with mpmath.workdps(40):
        for s in draws(f"g_delta:{delta}:{im_max}", 100, im_max):
            ref = mp_g_delta(delta, mpmath.mpc(s.real, s.imag))
            assert rel_err(g_delta(delta, s), ref) <= rel_bound(s), s


def test_g_delta_at_large_height_matches_mpmath():
    with mpmath.workdps(40):
        for t in (-1000.0, 1000.0):
            for sigma in (0.25, 0.5, 0.75):
                s = complex(sigma, t)
                for delta in (0, 1):
                    ref = mp_g_delta(delta, mpmath.mpc(sigma, t))
                    assert rel_err(g_delta(delta, s), ref) <= rel_bound(s), (delta, s)


def mp_head(delta, s, a):
    """int_0^a trig(2 pi x) x^(s-1) dx, cos for delta 0 and sin for 1, as
    a^(s+delta) (2 pi)^delta / (s+delta) times a 1F2 (DLMF 8.5)."""
    b = (s + delta) / 2
    z = -((mpmath.pi * a) ** 2)
    return (2 * mpmath.pi) ** delta * a ** (s + delta) / (s + delta) * mpmath.hyp1f2(
        b, delta + mpmath.mpf(1) / 2, b + 1, z
    )


@pytest.mark.parametrize("delta", [0, 1])
def test_head_series_bound_covers_its_error(delta):
    # Re s log-uniform in [1e-6, 3.9], |Im s| up to 60 and radii 0.1-2.5:
    # the bound must hold at every draw, the phase rounding of a^s included
    rng = random.Random(f"head:{delta}")
    with mpmath.workdps(40):
        for _ in range(600):
            s = complex(10.0 ** rng.uniform(-6.0, math.log10(3.9)), rng.uniform(-60.0, 60.0))
            a = rng.uniform(0.1, 2.5)
            value, bound = _head_series(delta, s, a)
            ref = mp_head(delta, mpmath.mpc(s.real, s.imag), mpmath.mpf(a))
            assert abs(value - complex(ref)) <= bound, (delta, s, a)
