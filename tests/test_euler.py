import itertools
import random
from fractions import Fraction

import pytest

from extsq.euler import (
    ConvergenceGuardError,
    SatakeData,
    VanishingFactorError,
    ext2_factor,
    ext2_reciprocal_poly,
    partial_L,
    poly_degree,
    satake_from_json,
    standard_factor,
    standard_reciprocal_poly,
)
from extsq.rational import RationalComplex

RC = RationalComplex
F = Fraction


def test_satake_validation():
    with pytest.raises(ValueError):
        SatakeData(1, (RC(1, 0), RC(1, 0)), RC(1, 0))
    with pytest.raises(ValueError):
        SatakeData(2, (RC(1, 0),), RC(1, 0))
    with pytest.raises(ValueError):
        SatakeData(2, (), RC(1, 0))


def test_known_factor_values():
    # unit-circle pair 3/5 +- 4/5 i at p=2, s=2: the three pair products
    # are alpha1 alpha2 = 1 and the factor is 1/(1 - 1/4) = 4/3
    d = SatakeData(2, (RC(F(3, 5), F(4, 5)), RC(F(3, 5), F(-4, 5))), RC(1, 0))
    assert ext2_factor(d, 2.0) == pytest.approx(4.0 / 3.0, rel=1e-14)
    d5 = SatakeData(5, (RC(1, 0), RC(-1, 0)), RC(1, 0))
    assert ext2_factor(d5, 2.0) == pytest.approx(25.0 / 26.0, rel=1e-14)


def test_degrees():
    for size in (2, 4, 6):
        alpha = tuple(RC(F(1, k + 2), 0) for k in range(size))
        d = SatakeData(3, alpha, RC(1, 0))
        assert poly_degree(ext2_reciprocal_poly(d)) == size * (size - 1) // 2
        assert poly_degree(standard_reciprocal_poly(d)) == size


def test_reciprocal_poly_exact_values():
    d = SatakeData(2, (RC(F(1, 2), 0), RC(F(1, 3), 0)), RC(1, 0))
    coeffs = ext2_reciprocal_poly(d)
    assert coeffs[0] == RC(1, 0)
    assert coeffs[1] == RC(F(-1, 6), 0)
    sc = standard_reciprocal_poly(d)
    # (1 - T/2)(1 - T/3) = 1 - 5T/6 + T^2/6
    assert sc == (RC(1, 0), RC(F(-5, 6), 0), RC(F(1, 6), 0))


def test_factor_matches_reciprocal_poly():
    rng = random.Random(3)
    for _ in range(20):
        size = rng.choice((2, 4))
        alpha = tuple(
            RC(F(rng.randint(-3, 3), 4), F(rng.randint(-3, 3), 4)) for _ in range(size)
        )
        if any(a == RC(0, 0) for a in alpha):
            continue
        d = SatakeData(rng.choice((2, 3, 5)), alpha, RC(1, 0))
        s = complex(rng.uniform(1.5, 3.0), rng.uniform(-1.0, 1.0))
        x = complex(d.p) ** (-s)
        for factor, poly in (
            (ext2_factor, ext2_reciprocal_poly),
            (standard_factor, standard_reciprocal_poly),
        ):
            try:
                got = factor(d, s)
            except VanishingFactorError:
                continue
            val = sum(complex(c) * x**k for k, c in enumerate(poly(d)))
            assert got * val == pytest.approx(1.0, rel=1e-12)


def test_ext2_is_permutation_invariant():
    alpha = (RC(F(1, 2), 0), RC(F(-1, 3), 0), RC(F(1, 5), F(1, 5)), RC(F(1, 5), F(-1, 5)))
    s = complex(2.2, 0.3)
    vals = set()
    for perm in itertools.permutations(alpha):
        d = SatakeData(3, perm, RC(1, 0))
        vals.add(complex(round(ext2_factor(d, s).real, 12), round(ext2_factor(d, s).imag, 12)))
    assert len(vals) == 1


def test_conjugation_symmetry():
    d = SatakeData(3, (RC(F(1, 2), F(1, 3)), RC(F(-1, 4), F(1, 5))), RC(0, 1))
    s = complex(2.0, 0.7)
    conj = SatakeData(d.p, tuple(x.conjugate() for x in d.alpha), d.chi.conjugate())
    a = ext2_factor(conj, s.conjugate())
    b = ext2_factor(d, s).conjugate()
    assert a == pytest.approx(b, rel=1e-13)


def test_partial_product_and_guards():
    data = [
        SatakeData(5, (RC(1, 0), RC(-1, 0)), RC(1, 0)),
        SatakeData(2, (RC(F(3, 5), F(4, 5)), RC(F(3, 5), F(-4, 5))), RC(1, 0)),
    ]
    got = partial_L(data, 2.0)
    assert got == pytest.approx((4.0 / 3.0) * (25.0 / 26.0), rel=1e-13)
    with pytest.raises(ValueError):
        partial_L(data + [SatakeData(2, (RC(1, 0), RC(1, 0)), RC(1, 0))], 2.0)
    with pytest.raises(ConvergenceGuardError):
        partial_L(data, 0.01)
    with pytest.raises(ValueError):
        partial_L(data, 2.0, kind="nope")


def test_vanishing_factor_is_located():
    # alpha1 alpha2 = 2 at p = 2, s = 1: the pair term is 1 - 2 * 2^-1 = 0
    d = SatakeData(2, (RC(1, 0), RC(2, 0)), RC(1, 0))
    with pytest.raises(VanishingFactorError) as exc:
        ext2_factor(d, 1.0)
    assert exc.value.p == 2
    assert exc.value.indices == (1, 2)
    d2 = SatakeData(2, (RC(2, 0), RC(1, 0)), RC(1, 0))
    with pytest.raises(VanishingFactorError) as exc2:
        standard_factor(d2, 1.0)
    assert exc2.value.indices == (1,)


def test_json_round_trip():
    d = SatakeData(7, (RC(F(1, 2), F(1, 3)), RC(F(1, 2), F(-1, 3))), RC(0, 1))
    obj = {"p": d.p, "alpha": [str(a) for a in d.alpha], "chi": str(d.chi)}
    again = satake_from_json(obj)
    assert again == d
    assert satake_from_json({"p": 3, "alpha": ["1", "-1"]}).chi == RC(1, 0)
    # JSON numbers read as the same exact values as their strings
    assert satake_from_json({"p": 3, "alpha": [1, 2]}).alpha == (RC(1, 0), RC(2, 0))
