"""Dense univariate polynomials with exact integer/rational coefficients."""

import contextlib
import math
import numbers
import operator
from fractions import Fraction

_PYTHON_REALS = frozenset((int, float, Fraction))


def _check_order(n, what="polynomial order", least=0):
    """n as a Python int: any integer type operator.index takes passes
    (numpy's too); a float, even a whole one, or a value below least (0 or 1)
    raises ValueError, which names an integer as the Python int it holds."""
    try:
        if (n := operator.index(n)) >= least:
            return n
    except TypeError:
        pass
    raise ValueError(f"{what} must be a {('nonnegative', 'positive')[least]} integer, got {n!r}")


def _real(value, what):
    """The Python number a real argument holds: what operator.index takes (numpy's integers too)
    is an int, a Fraction stays, and any other numbers.Real (numpy's floats too) is a float."""
    if type(value) in _PYTHON_REALS:
        return value
    if hasattr(value, "__index__"):
        with contextlib.suppress(TypeError):  # an ndarray has one; only a 0-d integer one takes it
            return operator.index(value)
    if isinstance(value, numbers.Real):
        return value if isinstance(value, Fraction) else float(value)
    name = f"{type(value).__module__}.{type(value).__qualname__}".removeprefix("builtins.")
    raise TypeError(f"{what} must be a real number, got {name}")  # numpy.bool, not bool


def _check_finite(value, what):
    """value as _real gives it, if finite; a big int past double range is never converted."""
    if abs(value := _real(value, what)) < math.inf:  # nan and +-inf fail
        return value
    raise ValueError(f"{what} must be finite, got {value!r}")


def _check_sigma(sigma):
    """sigma as _real gives it, if it is a finite positive scale; nan is not positive."""
    if abs(sigma := _real(sigma, "sigma")) == math.inf:
        raise ValueError(f"sigma must be finite, got {sigma!r}")
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma!r}")
    return sigma


def _as_exact(value):
    """A real coefficient as _real gives it, exact: a float at its binary value (0.5 -> 1/2)."""
    if type(value := _real(value, "coefficient")) is float:
        if not math.isfinite(value):
            raise ValueError(f"coefficient {value!r} is not a finite number")
        value = Fraction(value)
    return int(value) if value.denominator == 1 else value


class ExactPolynomial:
    """Polynomial stored as exact coefficients, constant term first, from real numbers
    (numpy's, an array's too; a float at its exact binary value).
    The zero polynomial is the single coefficient 0; otherwise the leading coefficient is nonzero.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=(0,)):
        cs = [c if type(c) is int else _as_exact(c) for c in coeffs] or [0]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

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
        scalar = _as_exact(_real(other, "factor"))
        return ExactPolynomial([scalar * c for c in self.coeffs])

    __rmul__ = __mul__

    def __call__(self, x):
        """Horner's rule at x as _real gives it, from the leading coefficient, so that
        0.0 * inf is never taken: exact at an int or a Fraction, else in floats."""
        if (x := _real(x, "x")) != x:
            raise ValueError("x must not be nan")
        convert = float if type(x) is float else operator.pos
        try:
            acc = convert(self.coeffs[-1])
            for c in reversed(self.coeffs[:-1]):
                acc = acc * x + convert(c)
        except OverflowError as exc:
            raise ValueError(f"a coefficient is past float range: {exc}") from None
        return acc

    def __repr__(self):
        return f"ExactPolynomial({list(self.coeffs)!r})"
