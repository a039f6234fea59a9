"""Exact scalar helpers: rational strings and complex numbers with rational parts.

The JSON field readers at the end are shared by the representation reader
(``lfactors.repr_from_json``) and the Satake reader (``euler.satake_from_json``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


# Python's own limit on the digits of an int read from or printed to a
# string; Fraction expands a decimal exponent in full, so a larger one could
# take any time, and a value with more digits could not be printed
_MAX_EXPONENT = 4300


def parse_rational(text: str) -> Fraction:
    """Parse "p/q", "p", or a decimal string such as "2.5e-3" into a Fraction.

    A decimal literal whose mantissa digits plus exponent size reach
    _MAX_EXPONENT is refused; below that, its value prints within the limit.
    """
    mantissa, e, exponent = text.strip().lower().partition("e")
    try:
        if not e or sum(map(str.isdigit, mantissa)) + abs(int(exponent)) < _MAX_EXPONENT:
            return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational literal: {text!r}") from exc
    raise ValueError(
        f"not a rational literal: {text!r} (expands to {_MAX_EXPONENT} digits or more)"
    )


def format_rational(q: Fraction) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
class RationalComplex:
    """A complex number with exact rational real and imaginary parts.

    Used wherever pole-lattice membership must be decided exactly.  The
    arithmetic operators take int and Fraction operands on a fast path that
    works on the real part alone (or scales both parts), so shifting by a
    real constant never builds a zero imaginary part; parts stay Fraction.
    """

    real: Fraction = Fraction(0)
    imag: Fraction = Fraction(0)
    # not a field (no annotation): the hash, cached on first use
    _hash = None

    @classmethod
    def from_value(cls, value) -> "RationalComplex":
        if isinstance(value, RationalComplex):
            return value
        if isinstance(value, str):
            return parse_rational_complex(value)
        if isinstance(value, (int, Fraction)):
            return cls(Fraction(value), Fraction(0))
        if isinstance(value, complex):
            return cls(Fraction(value.real), Fraction(value.imag))
        if isinstance(value, float):
            return cls(Fraction(value), Fraction(0))
        raise TypeError(f"cannot make a RationalComplex from {type(value).__name__}")

    def __post_init__(self):
        if type(self.real) is not Fraction:
            object.__setattr__(self, "real", Fraction(self.real))
        if type(self.imag) is not Fraction:
            object.__setattr__(self, "imag", Fraction(self.imag))

    def __hash__(self):
        # the value the dataclass would generate; Fraction.__hash__ runs in
        # Python, and neither it nor the tuple hash is salted per process
        h = self._hash
        if h is None:
            h = hash((self.real, self.imag))
            object.__setattr__(self, "_hash", h)
        return h

    # dispatch on the exact type: bool, float, complex and str operands, and
    # subclasses, go through from_value
    def __add__(self, other):
        kind = type(other)
        if kind is not RationalComplex:
            if kind is int or kind is Fraction:
                return RationalComplex(self.real + other, self.imag)
            other = RationalComplex.from_value(other)
        return RationalComplex(self.real + other.real, self.imag + other.imag)

    __radd__ = __add__

    def __sub__(self, other):
        kind = type(other)
        if kind is not RationalComplex:
            if kind is int or kind is Fraction:
                return RationalComplex(self.real - other, self.imag)
            other = RationalComplex.from_value(other)
        return RationalComplex(self.real - other.real, self.imag - other.imag)

    def __rsub__(self, other):
        kind = type(other)
        if kind is int or kind is Fraction:
            return RationalComplex(other - self.real, -self.imag)
        other = RationalComplex.from_value(other)
        return RationalComplex(other.real - self.real, other.imag - self.imag)

    def __neg__(self):
        return RationalComplex(-self.real, -self.imag)

    def __mul__(self, other):
        kind = type(other)
        if kind is not RationalComplex:
            if kind is int or kind is Fraction:
                return RationalComplex(self.real * other, self.imag * other)
            other = RationalComplex.from_value(other)
        return RationalComplex(
            self.real * other.real - self.imag * other.imag,
            self.real * other.imag + self.imag * other.real,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "RationalComplex":
        return RationalComplex(self.real, -self.imag)

    def __complex__(self) -> complex:
        return complex(self.real, self.imag)

    def __str__(self) -> str:
        if self.imag == 0:
            return format_rational(self.real)
        if self.imag == 1:
            imag = "i"
        elif self.imag == -1:
            imag = "-i"
        else:
            imag = format_rational(self.imag) + "i"
        if self.real == 0:
            return imag
        sign = "+" if self.imag > 0 else "-"
        mag = abs(self.imag)
        tail = "i" if mag == 1 else format_rational(mag) + "i"
        return f"{format_rational(self.real)}{sign}{tail}"


def parse_rational_complex(text: str) -> RationalComplex:
    """Parse strings like "1+0i", "0+0.2i", "-1/3-2i", "2+1e-3i", "i", "0.5" exactly."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty complex literal")
    if not s.endswith(("i", "I", "j", "J")):
        return RationalComplex(parse_rational(s), Fraction(0))
    body = s[:-1]
    split = 0
    # The sign that starts the imaginary part follows neither a "/" nor the
    # "e" of an exponent.
    for k in range(len(body) - 1, 0, -1):
        if body[k] in "+-" and body[k - 1] not in "/eE":
            split = k
            break
    re_part, im_part = body[:split], body[split:]
    if im_part in ("", "+"):
        imag = Fraction(1)
    elif im_part == "-":
        imag = Fraction(-1)
    else:
        imag = parse_rational(im_part)
    real = parse_rational(re_part) if re_part else Fraction(0)
    return RationalComplex(real, imag)


# -- JSON field readers ----------------------------------------------------


_REQUIRED = object()


def _json_field(entry, key: str, where: str, convert, default=_REQUIRED):
    """convert(entry[key]); a missing or ill-typed field raises ValueError naming it."""
    if not isinstance(entry, dict):
        raise ValueError(f"{where} must be a JSON object, not {type(entry).__name__}")
    if key not in entry:
        if default is _REQUIRED:
            raise ValueError(f"{where} has no {key!r} field")
        return default
    try:
        return convert(entry[key])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where} field {key!r}: {exc}") from None


def _json_list(value) -> list:
    if not isinstance(value, list):
        raise TypeError(f"expected a list, not {type(value).__name__}")
    return value


def _json_int(value) -> int:
    if type(value) is not int:
        raise TypeError(f"expected an integer, not {value!r}")
    return value


def _json_complex(value) -> RationalComplex:
    return parse_rational_complex(str(value))
