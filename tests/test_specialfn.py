import cmath
import math
import random
import subprocess
import sys

import pytest

from extsq import specialfn
from extsq.specialfn import (
    CutoffSpec,
    PoleError,
    QuadratureToleranceError,
    as_parity,
    g_delta,
    g_delta_integral,
    gamma,
    gamma_c,
    gamma_r,
    gcancel,
    lgamma,
)


def test_as_parity():
    assert as_parity(0) == 0
    assert as_parity(1) == 1
    for bad in (0.5, 2, -1, "0"):
        with pytest.raises(ValueError):
            as_parity(bad)


def test_lgamma_matches_scipy_on_reals():
    for x in (0.5, 1.0, 2.5, 7.3, 12.0):
        assert lgamma(x).real == pytest.approx(math.lgamma(x), rel=1e-12)
        assert abs(lgamma(x).imag) < 1e-12


def test_gamma_matches_scipy_complex():
    scipy_special = pytest.importorskip("scipy.special")
    rng = random.Random(5)
    for _ in range(50):
        z = complex(rng.uniform(0.1, 6.0), rng.uniform(-5.0, 5.0))
        want = scipy_special.gamma(z)
        assert gamma(z) == pytest.approx(want, rel=1e-11)


def test_gamma_reflection_into_left_halfplane():
    scipy_special = pytest.importorskip("scipy.special")
    rng = random.Random(6)
    for _ in range(30):
        z = complex(rng.uniform(-6.0, -0.1), rng.uniform(0.2, 4.0))
        want = scipy_special.gamma(z)
        assert gamma(z) == pytest.approx(want, rel=1e-9)


def test_gamma_poles():
    for k in (0, -1, -2, -5):
        with pytest.raises(PoleError) as exc:
            gamma(complex(k))
        assert exc.value.location == complex(k)


def test_gamma_r_and_c_anchors():
    assert gamma_r(1) == pytest.approx(1.0, rel=1e-14)
    # gamma_r(s) = pi^(-s/2) Gamma(s/2); at s=2 that is 1/pi
    assert gamma_r(2) == pytest.approx(1.0 / math.pi, rel=1e-14)
    assert gamma_c(1) == pytest.approx(1.0 / math.pi, rel=1e-14)
    assert gamma_c(2) == pytest.approx(1.0 / (2.0 * math.pi**2), rel=1e-13)


def test_duplication_identity():
    rng = random.Random(7)
    for _ in range(100):
        s = complex(rng.uniform(0.1, 4.0), rng.uniform(-3.0, 3.0))
        lhs = gamma_c(s)
        rhs = gamma_r(s) * gamma_r(s + 1)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_g_delta_anchor():
    # delta = 0 at the symmetric point: the ratio is 1 and the sign factor is 1
    assert g_delta(0, 0.5) == pytest.approx(1.0, rel=1e-12)


def test_g_delta_reflection():
    rng = random.Random(8)
    for _ in range(100):
        delta = rng.randint(0, 1)
        s = complex(rng.uniform(0.1, 0.9), rng.uniform(-2.0, 2.0))
        prod = g_delta(delta, s) * g_delta(delta, 1 - s)
        assert prod == pytest.approx((-1.0) ** delta, rel=1e-10)


def test_g_delta_num_pole_raises_den_pole_vanishes():
    # numerator Gamma_R(s + delta) has poles at s = -delta - 2k
    with pytest.raises(PoleError):
        g_delta(0, 0.0)
    with pytest.raises(PoleError):
        g_delta(1, -1.0)
    # denominator Gamma_R(1 - s + delta) poles give exact zeros
    assert g_delta(0, 1.0) == 0.0
    assert g_delta(1, 2.0) == 0.0


@pytest.mark.parametrize("delta", [0, 1])
@pytest.mark.parametrize("s", [1e16, 1e20, -1e20, complex(2.0**53, 1.0)])
def test_g_delta_refuses_real_parts_past_2_53(delta, s):
    # there every float is an even integer, and the pole tests would fire
    # at points that are not poles: 1e20 read as a denominator pole, 0
    with pytest.raises(OverflowError, match=r"g_delta at s=.* is outside the float range"):
        g_delta(delta, s)


def test_g_delta_keeps_the_last_denominator_poles_below_2_53():
    assert g_delta(0, 2.0**53 - 1) == 0.0
    assert g_delta(1, 2.0**53 - 2) == 0.0


def test_cutoff_spec_validation():
    with pytest.raises(ValueError):
        CutoffSpec(2.0, 1.0, 4)
    with pytest.raises(ValueError):
        CutoffSpec(1.0, 2.0, 0)


CUTOFF = CutoffSpec(1.0, 2.0, 4)


@pytest.mark.parametrize("delta", [0, 1])
@pytest.mark.parametrize("re", [0.1, 0.5, 1.0, 1.5, 1.9])
@pytest.mark.parametrize("im", [-2.0, 0.0, 2.0])
def test_quadrature_agrees_with_closed_form(delta, re, im):
    s = complex(re, im)
    want = g_delta(delta, s)
    got = g_delta_integral(delta, s, CUTOFF, budget=1e-6)
    assert got == pytest.approx(want, abs=1e-5)


def test_quadrature_cutoff_independence():
    s = complex(0.7, 0.4)
    a = g_delta_integral(0, s, CutoffSpec(1.0, 2.0, 4))
    b = g_delta_integral(0, s, CutoffSpec(0.5, 3.0, 5))
    assert a == pytest.approx(b, abs=2e-6)


# analytic-workload points where a quadrature that underestimated its error
# missed the closed form by 1e-6 to 2.5e-5 while claiming under 1e-6
KNOWN_MISSES = [
    0.9180515991010545 - 0.8116496411862144j,
    0.19279498119613647 + 1.4182889819567328j,
    0.13529030667142977 - 0.04557395148819188j,
    0.1819850989912683 - 0.5244313517832668j,
    0.9684253544790208 - 1.6462646085556805j,
]


@pytest.mark.parametrize("s", KNOWN_MISSES)
def test_quadrature_known_misses(s):
    got = g_delta_integral(0, s, CUTOFF, budget=1e-6)
    assert abs(got - g_delta(0, s)) <= 1e-12


@pytest.mark.parametrize("delta", [0, 1])
@pytest.mark.parametrize("im", [-2.0, 0.0, 2.0])
def test_quadrature_near_the_singular_end(delta, im):
    # x^(s-1) at Re s = 0.1 needs the head's nodes far into (0, 1e-100)
    s = complex(0.1, im)
    got = g_delta_integral(delta, s, CUTOFF, budget=1e-9)
    assert abs(got - g_delta(delta, s)) <= 1e-9


def test_refusal_estimate_covers_the_error():
    # the head's series sums terms near 1/Re s at Re s = 1e-9, and terms
    # near e^(8 pi) / (8 pi) that cancel at radius 4; its rounding bound
    # counts both and exceeds the default budget
    for delta, s, radius in [(0, 1e-9, 1.0), (1, 0.7 + 0.3j, 4.0)]:
        cutoff = CutoffSpec(radius, 8.0, 4)
        with pytest.raises(QuadratureToleranceError) as info:
            g_delta_integral(delta, s, cutoff)
        refusal = info.value
        assert refusal.budget == 1e-7
        assert refusal.achieved >= abs(refusal.value - g_delta(delta, s))
        assert g_delta_integral(delta, s, cutoff, budget=1e-2) == refusal.value


@pytest.mark.parametrize("delta", [0, 1])
@pytest.mark.parametrize("re", [1e-6, 1e-3, 0.01, 0.03])
def test_small_re_s_is_accepted(delta, re):
    # the series integrates down to 0, so no piece next to 0 is left out
    got = g_delta_integral(delta, re, CUTOFF)
    want = g_delta(delta, re)
    assert abs(got - want) <= 1e-14 * abs(want) + 1e-13


@pytest.mark.parametrize("delta, s", [(0, 0.7 - 2j), (1, 0.7 - 5j), (0, 2.0)])
def test_estimate_covers_rounding(delta, s):
    # successive sums can agree to the last bit while rounding leaves an
    # error near 1e-15; budget 0 refuses every call, exposing the estimate
    with pytest.raises(QuadratureToleranceError) as info:
        g_delta_integral(delta, s, CUTOFF, budget=0.0)
    assert info.value.achieved >= abs(info.value.value - g_delta(delta, s))


def test_overflow_is_a_refusal():
    with pytest.raises(QuadratureToleranceError) as info:
        g_delta_integral(0, complex(0.5, 500.0), CUTOFF)
    assert info.value.achieved == math.inf


def test_quadrature_imports_neither_scipy_nor_numpy():
    code = (
        "import sys, extsq\n"
        "extsq.g_delta_integral(0, 0.5, extsq.CutoffSpec(1.0, 2.0, 4))\n"
        "print(sorted({'scipy', 'numpy'} & set(sys.modules)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120
    ).stdout
    assert out.strip() == "[]"


def test_quadrature_domain_check():
    with pytest.raises(ValueError):
        g_delta_integral(0, complex(-0.2, 0.0), CUTOFF)
    with pytest.raises(ValueError):
        g_delta_integral(0, complex(4.5, 0.0), CUTOFF)


# -- per-node references: the tanh-sinh head the series replaced, and the
# -- rotated tail as it was before the node tables


def _reference_double_exponential(g, lo, hi):
    values = [g(float(k)) for k in range(math.ceil(lo), math.floor(hi) + 1)]
    total = sum(values)
    mass = sum(map(abs, values))
    h = 1.0
    for _ in range(9):
        h *= 0.5
        k_lo = math.ceil(lo / h)
        values = [g(k * h) for k in range(k_lo + 1 - k_lo % 2, math.floor(hi / h) + 1, 2)]
        refined = 0.5 * total + h * sum(values)
        mass = 0.5 * mass + h * sum(map(abs, values))
        change = abs(refined - total)
        total = refined
        if change <= 1e-14 * mass:
            break
    return total, max(change, 1e-14 * mass)


def _tanh_sinh_head(delta, s, a):
    """int_0^a trig(2 pi x) x^(s-1) dx by tanh-sinh quadrature, recomputing
    every node, and its estimate: the change of the last step halving plus
    x_min^Re(s) / Re(s), which bounds the untouched piece (0, x_min)."""
    half_pi, two_pi = 0.5 * math.pi, 2.0 * math.pi
    trig = math.sin if delta else math.cos

    def head(t):
        u = half_pi * math.sinh(t)
        q = math.exp(-2.0 * abs(u))
        if u < 0.0:
            x = a * q / (1.0 + q)
            weight = 2.0 / (1.0 + q)
        else:
            x = a / (1.0 + q)
            weight = 2.0 * q / (1.0 + q)
        return trig(two_pi * x) * x**s * (weight * half_pi * math.cosh(t))

    value, change = _reference_double_exponential(head, -6.0, 4.0)
    x_min = a * math.exp(math.pi * math.sinh(-6.0))
    return value, change + x_min**s.real / s.real


def _reference_g_delta_integral(delta, s, cutoff, budget):
    """g_delta_integral with the series head and the tail recomputing every
    node at every call; returns the value or the refusal's fields."""
    s = complex(s)
    half_pi, two_pi = 0.5 * math.pi, 2.0 * math.pi
    sign = -1.0 if delta else 1.0
    a = cutoff.inner_radius
    head_val, head_bound = specialfn._head_series(delta, s, a)
    head_val *= 2j if delta else 2.0
    s1 = s - 1.0
    e_a = complex(math.cos(two_pi * a), math.sin(two_pi * a))
    c_plus = 1j * e_a
    c_minus = -sign * 1j * e_a.conjugate()

    def tail(tau):
        t = math.exp(half_pi * math.sinh(tau))
        weight = math.exp(-two_pi * t) * t * half_pi * math.cosh(tau)
        return weight * (c_plus * complex(a, t) ** s1 + c_minus * complex(a, -t) ** s1)

    try:
        tail_val, tail_change = _reference_double_exponential(tail, -4.5, 1.5)
    except OverflowError:
        return ("refused", math.inf, "nan")
    value = head_val + tail_val
    achieved = 2.0 * head_bound + tail_change
    if not achieved <= budget:
        return ("refused", achieved, value)
    return ("value", value)


def _outcome(delta, s, cutoff, budget):
    try:
        return ("value", g_delta_integral(delta, s, cutoff, budget))
    except QuadratureToleranceError as refusal:
        assert refusal.budget == budget
        value = "nan" if cmath.isnan(refusal.value) else refusal.value
        return ("refused", refusal.achieved, value)


def test_quadrature_matches_the_per_node_reference_bit_for_bit():
    # the tail's node tables change no bit of the per-node tail; the refusals
    # come from Re s near 0 (delta 0), radius 4 (delta 1) and one overflow
    rng = random.Random(12)
    points = [(0, complex(0.5, 500.0), 1.0, 1e-7)]
    for i in range(200):
        re = 10.0 ** rng.uniform(-12.0, -9.0) if i % 10 == 0 else rng.uniform(0.05, 3.9)
        im = rng.uniform(-30.0, 30.0) if i % 4 == 0 else rng.uniform(-3.0, 3.0)
        radius = 4.0 if i % 10 == 5 else (0.5, 1.0, 1.5)[i % 3]
        points.append((i % 2, complex(re, im), radius, (1e-7, 1e-6)[i // 2 % 2]))
    refused = 0
    for delta, s, radius, budget in points:
        cutoff = CutoffSpec(radius, 8.0, 4)
        want = _reference_g_delta_integral(delta, s, cutoff, budget)
        assert _outcome(delta, s, cutoff, budget) == want, (delta, s, radius, budget)
        refused += want[0] == "refused"
    assert refused >= 10


def test_the_series_head_agrees_with_the_tanh_sinh_head():
    rng = random.Random(13)
    for i in range(300):
        delta = i % 2
        im = rng.uniform(-30.0, 30.0) if i % 3 else rng.uniform(-3.0, 3.0)
        s = complex(rng.uniform(0.05, 3.9), im)
        a = rng.uniform(0.3, 1.5)
        series, series_bound = specialfn._head_series(delta, s, a)
        nodes, nodes_estimate = _tanh_sinh_head(delta, s, a)
        assert abs(series - nodes) <= series_bound + nodes_estimate, (delta, s, a)


# -- the tail's node tables -------------------------------------------------


def _clear_node_tables():
    specialfn._tail_nodes.cache_clear()


def test_a_second_call_builds_no_node_table(monkeypatch):
    _clear_node_tables()
    builds = []
    abscissae = specialfn._abscissae

    def counting(lo, hi, level):
        builds.append((lo, hi, level))
        return abscissae(lo, hi, level)

    monkeypatch.setattr(specialfn, "_abscissae", counting)
    cutoff = CutoffSpec(0.75, 2.0, 4)
    s = complex(0.6, 1.3)
    first = g_delta_integral(1, s, cutoff, budget=1e-6)
    assert builds
    del builds[:]
    assert g_delta_integral(1, s, cutoff, budget=1e-6) == first
    assert builds == []


def test_node_tables_stay_within_their_bound():
    _clear_node_tables()
    for i in range(80):
        g_delta_integral(i % 2, complex(1.2, 0.4), CutoffSpec(0.3 + 0.01 * i, 4.0, 4), budget=1e-6)
    info = specialfn._tail_nodes.cache_info()
    assert info.maxsize == specialfn._NODE_TABLES
    assert info.currsize <= info.maxsize


def test_node_tables_are_tuples():
    g_delta_integral(0, complex(0.8, -0.5), CUTOFF, budget=1e-6)
    for level in range(3):
        table = specialfn._tail_nodes(1.0, level)
        assert type(table) is tuple and len(table) == 3
        assert all(type(column) is tuple for column in table)
        assert len(set(map(len, table))) == 1 and table[0]


def test_a_failed_build_leaves_no_table(monkeypatch):
    _clear_node_tables()
    cosh = math.cosh
    calls = []

    def failing(t):
        calls.append(t)
        if len(calls) > 5:
            raise RuntimeError("cosh failed mid-table")
        return cosh(t)

    s = complex(0.9, 0.2)
    with monkeypatch.context() as patch:
        patch.setattr(specialfn.math, "cosh", failing)
        with pytest.raises(RuntimeError):
            g_delta_integral(0, s, CUTOFF, budget=1e-6)
    assert specialfn._tail_nodes.cache_info().currsize == 0
    want = _reference_g_delta_integral(0, s, CUTOFF, 1e-6)
    assert _outcome(0, s, CUTOFF, 1e-6) == want


# -- lgamma's Lanczos loop --------------------------------------------------


def _lgamma_indexed(z):
    """lgamma with the Lanczos loop it had before the offsets were hoisted:
    z - 1 + i recomputed and the coefficients indexed on every term."""
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0 and z.real == math.floor(z.real):
        raise PoleError(int(z.real))
    if z.real < 0.5:
        return math.log(math.pi) - specialfn.log_sin_pi(z) - _lgamma_indexed(1.0 - z)
    coefficients = specialfn._LANCZOS_C
    t = z + (607.0 / 128.0 - 0.5)
    acc = coefficients[0]
    for i in range(1, len(coefficients)):
        acc += coefficients[i] / (z - 1.0 + i)
    return 0.5 * math.log(2.0 * math.pi) + (z - 0.5) * cmath.log(t) - t + cmath.log(acc)


def _bits(z: complex) -> tuple:
    return z.real.hex(), z.imag.hex()


def test_lgamma_matches_the_indexed_loop_bit_for_bit():
    rng = random.Random(16)
    points = [complex(rng.uniform(-12.0, 12.0), rng.uniform(-60.0, 60.0)) for _ in range(3000)]
    points += [complex(rng.uniform(-12.0, 12.0), 0.0) for _ in range(500)]
    points += [complex(rng.uniform(-1.0, 1.0), rng.uniform(-1e-3, 1e-3)) for _ in range(500)]
    points += [0.5, 1.0, 2.0, -0.5, complex(0.5, -0.0), 1e-300, -2.5 + 1e-12j]
    assert sum(complex(z).real < 0.5 for z in points) > 1000
    for z in points:
        assert _bits(lgamma(z)) == _bits(_lgamma_indexed(z)), z
    for k in (0, -1, -2, -9):
        for f in (lgamma, _lgamma_indexed):
            with pytest.raises(PoleError) as info:
                f(float(k))
            assert info.value.location == k


def test_gcancel_pair_agrees():
    rng = random.Random(9)
    for _ in range(40):
        eta1 = rng.randint(0, 1)
        eta2 = rng.randint(0, 1)
        m = 2 * rng.randint(-2, 2) + eta1 - eta2 + 1
        im = rng.uniform(-1.0, 1.0)
        z2 = complex(rng.uniform(-0.4, 0.4), im)
        z1 = z2 + m
        s = complex(rng.uniform(0.05, 0.45), rng.uniform(-1.0, 1.0))
        try:
            lhs, rhs = gcancel(eta1, eta2, z1, z2, s)
        except PoleError:
            continue
        assert cmath.isclose(lhs, rhs, rel_tol=1e-9, abs_tol=1e-12)


def test_gcancel_lattice_constraint():
    with pytest.raises(ValueError):
        gcancel(0, 0, 0.0, 0.0, 0.3)  # difference 0 is even, needs odd
    with pytest.raises(ValueError):
        gcancel(0, 1, 1.0, 0.0, 0.3)  # difference 1, needs even
    with pytest.raises(ValueError):
        gcancel(0, 0, complex(1.0, 0.5), 0.0, 0.3)  # non-real difference
