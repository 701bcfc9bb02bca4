"""Dense univariate polynomials with exact integer/rational coefficients."""

from __future__ import annotations

import math
import operator
import re
import sys
from fractions import Fraction

_EXPONENT = re.compile(r"e([-+]?\d+(_\d+)*)\s*\Z", re.IGNORECASE)  # as Fraction reads it


def _check_order(n, what="polynomial order", least=0):
    """n as a Python int: any integer type operator.index takes passes
    (numpy's too); a float, even a whole one, or a value below least (0 or 1)
    raises ValueError."""
    try:
        if (value := operator.index(n)) >= least:
            return value
    except TypeError:
        pass
    raise ValueError(f"{what} must be a {('nonnegative', 'positive')[least]} integer, got {n!r}")


def _check_sigma(sigma):
    """sigma itself if it is a finite positive scale; nan is not positive."""
    if abs(sigma) == math.inf:
        raise ValueError(f"sigma must be finite, got {sigma!r}")
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma!r}")
    return sigma


def _as_exact(value):
    """Coerce a coefficient to an exact int or Fraction; numpy's integers are ints."""
    if isinstance(value, int):
        return value
    if hasattr(value, "__index__"):  # any integer type operator.index takes, as _check_order
        return operator.index(value)
    if isinstance(value, (str, float)):
        # floats convert via their exact binary value (0.5 -> 1/2); Fraction builds 10**e,
        # so a string whose exponent e is past the digit guard is refused before it
        if isinstance(value, str) and (e := _EXPONENT.search(value)) and \
                abs(int(e[1])) > (limit := sys.get_int_max_str_digits()) > 0:
            raise ValueError(f"coefficient {value!r} has an exponent beyond {limit}")
        try:
            value = Fraction(value)
        except (ZeroDivisionError, OverflowError):  # "1/0", inf
            raise ValueError(f"coefficient {value!r} is not a finite number") from None
    elif not isinstance(value, Fraction):
        raise TypeError(f"cannot use {type(value).__name__} as an exact coefficient")
    return int(value) if value.denominator == 1 else value


class ExactPolynomial:
    """Polynomial stored as exact coefficients, constant term first: ints (numpy's
    integers, an array's too, are ints), Fractions, floats at their exact binary
    value, or decimal strings.  The zero polynomial is the single coefficient 0;
    otherwise the leading coefficient is nonzero.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=(0,)):
        cs = [_as_exact(c) for c in coeffs]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        if not cs:
            cs = [0]
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls):
        return cls((0,))

    degree = property(lambda self: len(self.coeffs) - 1)

    def __eq__(self, other):
        if not isinstance(other, ExactPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if not isinstance(other, ExactPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return ExactPolynomial(out)

    def __neg__(self):
        return ExactPolynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, ExactPolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, ExactPolynomial):
            out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return ExactPolynomial(out)
        scalar = _as_exact(other)
        return ExactPolynomial([scalar * c for c in self.coeffs])

    __rmul__ = __mul__

    def derivative(self, order=1):
        cs = self.coeffs
        for _ in range(_check_order(order, "derivative order")):
            if len(cs) == 1:
                return ExactPolynomial.zero()
            cs = tuple(i * c for i, c in enumerate(cs) if i >= 1)
        return ExactPolynomial(cs)

    def scale_argument(self, factor):
        """Return p(factor * x), exactly."""
        s = _as_exact(factor)
        return ExactPolynomial([c * s**i for i, c in enumerate(self.coeffs)])

    def __call__(self, x):
        """Horner's rule: exact at an integer x (numpy's too) or a Fraction, else at float(x)."""
        if hasattr(x, "__index__"):
            x = operator.index(x)
        if isinstance(x, (int, Fraction)):
            acc = 0
            for c in reversed(self.coeffs):
                acc = acc * x + c
            return acc
        if math.isnan(x := float(x)):
            raise ValueError("x must not be nan")
        try:  # from the leading coefficient: 0.0 * inf is never taken
            acc = float(self.coeffs[-1])
            for c in reversed(self.coeffs[:-1]):
                acc = acc * x + float(c)
        except OverflowError as exc:
            raise ValueError(f"a coefficient is past float range: {exc}") from None
        return acc

    def __repr__(self):
        return f"ExactPolynomial({list(self.coeffs)!r})"
