"""Unramified Euler factors for the exterior-square and standard lifts.

Everything here works with exact Satake parameters (rational complex
numbers) and evaluates factors in floating point only at the very end.
The reciprocal polynomials are computed by exact convolution, so degree
statements are checked symbolically rather than numerically.
"""

import cmath
from dataclasses import dataclass

from .rational import RationalComplex, _json_complex, _json_field, _json_int, _json_list


class VanishingFactorError(ArithmeticError):
    """A linear Euler factor vanished at the evaluation point."""

    def __init__(self, p, indices, message):
        super().__init__(message)
        self.p = p
        self.indices = indices


class ConvergenceGuardError(ArithmeticError):
    """A partial product was requested outside its guarded region."""


@dataclass(frozen=True)
class SatakeData:
    """Satake parameters at one unramified place: alpha has even length."""

    p: int
    alpha: tuple
    chi: RationalComplex

    def __post_init__(self):
        object.__setattr__(self, "p", int(self.p))
        object.__setattr__(
            self, "alpha", tuple(RationalComplex.from_value(a) for a in self.alpha)
        )
        object.__setattr__(self, "chi", RationalComplex.from_value(self.chi))
        if self.p < 2:
            raise ValueError("p must be at least 2")
        if not self.alpha or len(self.alpha) % 2:
            raise ValueError("alpha must have positive even length")


def satake_from_json(obj) -> SatakeData:
    """Read {"p": 3, "alpha": ["1/2", "-1+i"], "chi": ".."}; chi defaults to 1.

    A missing or ill-typed field raises ValueError naming it.
    """
    top = "Satake place"
    return SatakeData(
        _json_field(obj, "p", top, _json_int),
        _json_field(obj, "alpha", top, lambda v: [_json_float_range(a) for a in _json_list(v)]),
        _json_field(obj, "chi", top, _json_float_range, 1),
    )


def _json_float_range(value) -> RationalComplex:
    """An exact complex literal that the factors can evaluate in floats."""
    z = _json_complex(value)
    try:
        complex(z)
    except OverflowError:
        raise ValueError(f"{value!r} is outside the float range") from None
    return z


def ext2_factor(d: SatakeData, s) -> complex:
    """The local exterior-square factor, product over index pairs j < k."""
    s = complex(s)
    x = cmath.exp(-s * cmath.log(d.p))
    chi = complex(d.chi)
    out = complex(1.0)
    alpha = [complex(a) for a in d.alpha]
    m = len(alpha)
    for j in range(m):
        aj = alpha[j]
        for k in range(j + 1, m):
            lin = 1.0 - aj * alpha[k] * chi * x
            if lin == 0:
                raise VanishingFactorError(
                    d.p, (j + 1, k + 1),
                    f"factor for pair ({j + 1},{k + 1}) at p={d.p} vanishes",
                )
            out /= lin
    return out


def standard_factor(d: SatakeData, s) -> complex:
    """The local standard factor, one linear term per parameter."""
    s = complex(s)
    x = cmath.exp(-s * cmath.log(d.p))
    out = complex(1.0)
    for j, a in enumerate(d.alpha, 1):
        lin = 1.0 - complex(a) * x
        if lin == 0:
            raise VanishingFactorError(
                d.p, (j,), f"factor for index {j} at p={d.p} vanishes"
            )
        out /= lin
    return out


def _guard(d: SatakeData, s, pairwise: bool):
    mags = [abs(complex(a)) for a in d.alpha]
    if pairwise:
        top = max(mags) ** 2 * abs(complex(d.chi))
    else:
        top = max(mags)
    if top * d.p ** (-s.real) > 0.99:
        raise ConvergenceGuardError(
            f"p={d.p}: largest linear term has modulus above 0.99 at Re s = {s.real}"
        )


def partial_L(data, s, kind: str = "ext2") -> complex:
    """Product of local factors over the given places, smallest prime first.

    Each factor must sit inside the guarded region where its largest
    linear term has modulus at most 0.99, so truncations stay stable.
    """
    if kind not in ("ext2", "standard"):
        raise ValueError("kind must be 'ext2' or 'standard'")
    s = complex(s)
    seen = set()
    out = complex(1.0)
    for d in sorted(data, key=lambda d: d.p):
        if d.p in seen:
            raise ValueError(f"duplicate place p={d.p}")
        seen.add(d.p)
        _guard(d, s, kind == "ext2")
        out *= ext2_factor(d, s) if kind == "ext2" else standard_factor(d, s)
    return out


def _poly_mul(coeffs, root_factor):
    # multiply sum c_m T^m by (1 - r T)
    r = root_factor
    out = list(coeffs) + [RationalComplex(0, 0)]
    for m in range(len(coeffs), 0, -1):
        out[m] = out[m] - r * out[m - 1]
    return out


def ext2_reciprocal_poly(d: SatakeData):
    """Exact coefficients of the pairwise reciprocal polynomial in p^-s.

    The constant term is 1 and the degree equals the number of index
    pairs whenever no parameter vanishes.
    """
    coeffs = [RationalComplex(1, 0)]
    m = len(d.alpha)
    for j in range(m):
        for k in range(j + 1, m):
            coeffs = _poly_mul(coeffs, d.alpha[j] * d.alpha[k] * d.chi)
    return tuple(coeffs)


def standard_reciprocal_poly(d: SatakeData):
    """Exact coefficients of the standard reciprocal polynomial in p^-s."""
    coeffs = [RationalComplex(1, 0)]
    for a in d.alpha:
        coeffs = _poly_mul(coeffs, a)
    return tuple(coeffs)


def poly_degree(coeffs) -> int:
    deg = -1
    zero = RationalComplex(0, 0)
    for m, c in enumerate(coeffs):
        if c != zero:
            deg = m
    return deg
