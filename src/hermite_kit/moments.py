"""Gaussian raw moments, basis connections and the exact Gaussian transform.

The basis tags mirror the polynomial sets whose change-of-basis matrices
share coefficients: the physicists' family against powers of 2x, and the
Chebyshev-Hermite family against the Gaussian moment polynomials
E[Y^n](x) for Y ~ N(x, 1).
"""

from collections import namedtuple
from fractions import Fraction
from functools import partial

from .exactpoly import ExactPolynomial, _as_exact, _check_finite, _check_order, _check_sigma
from .polynomials import _pairing_column, _rounded

MONOMIAL = "monomial"
TWO_X_MONOMIAL = "2x-monomial"
HE_BASIS = "he"
H_BASIS = "h"
GAUSS_MOMENT = "gauss-moment"


class ChangeOfBasisMatrix(namedtuple("ChangeOfBasisMatrix", "from_basis to_basis entries")):
    """(n+1)x(n+1) exact matrix, rows of int/Fraction; column k expands source-basis element k."""

    __slots__ = ()

    def __new__(cls, from_basis, to_basis, entries):
        entries = tuple(map(tuple, entries))  # a caller's lists are copied: the check holds
        if any(len(row) != len(entries) for row in entries):
            raise ValueError(f"entries must be square, got row lengths {[*map(len, entries)]}")
        return super().__new__(cls, from_basis, to_basis, entries)

    _make = classmethod(lambda cls, fields: cls(*fields))
    size = property(lambda self: len(self.entries))

    def apply(self, coeffs):
        """Map coefficients from from_basis to to_basis exactly, each float at its binary value."""
        if len(coeffs) != self.size:
            raise ValueError(f"expected {self.size} coefficients, got {len(coeffs)}")
        coeffs = [_as_exact(c) for c in coeffs]
        return tuple(sum(a * b for a, b in zip(row, coeffs)) for row in self.entries)


def gaussian_raw_moment(n, mu, sigma):
    """E[Y^n] for Y ~ N(mu, sigma^2) = sigma^n E[(mu/sigma + Z)^n], the moment
    polynomial sum_j n!/(2^j (n-2j)! j!) x^(n-2j) at x = mu/sigma, evaluated exactly
    at the binary values of mu and sigma and rounded once; a signed inf past
    double range.
    """
    n, sigma = _check_order(n, "moment order"), Fraction(_check_sigma(sigma))
    mu = Fraction(_check_finite(mu, "mu"))  # a big int is never converted to float
    return _rounded(sigma**n * gauss_moment_polynomial(n)(mu / sigma))


def gauss_moment_polynomial(n):
    """E[Y^n](x) for Y ~ N(x, 1) as an exact polynomial in x.

    Its coefficients are the absolute values of the He_n coefficients.
    """
    n = _check_order(n)
    return ExactPolynomial(_pairing_column(n, n, shift=0))


_COLUMN_BUILDERS = {
    (HE_BASIS, MONOMIAL): partial(_pairing_column, sign=-1, shift=0),
    # x^k = k! sum_j He_(k-2j) / (2^j (k-2j)! j!)
    (MONOMIAL, HE_BASIS): partial(_pairing_column, shift=0),
    (H_BASIS, TWO_X_MONOMIAL): partial(_pairing_column, sign=-1),
    (TWO_X_MONOMIAL, H_BASIS): _pairing_column,
    (HE_BASIS, GAUSS_MOMENT): partial(_pairing_column, sign=-1),
    (GAUSS_MOMENT, HE_BASIS): _pairing_column,
}


def change_of_basis(n, from_basis, to_basis):
    """Exact change-of-basis matrix between two supported polynomial bases.

    Only the pairs with closed-form coefficients are built directly:
    he<->monomial, h<->2x-monomial, he<->gauss-moment.  Chain other
    conversions explicitly with compose().
    """
    n = _check_order(n, "matrix order")
    builder = _COLUMN_BUILDERS.get((from_basis, to_basis))
    if builder is None:
        raise ValueError(f"unsupported basis pair {from_basis!r} -> {to_basis!r}")
    rows = tuple(zip(*(builder(n, k) for k in range(n + 1))))
    return ChangeOfBasisMatrix(from_basis=from_basis, to_basis=to_basis, entries=rows)


def compose(second, first):
    """Matrix for first.from_basis -> second.to_basis, as second @ first."""
    if first.to_basis != second.from_basis:
        raise ValueError(
            f"cannot compose: first maps into {first.to_basis!r} but second "
            f"expects {second.from_basis!r}"
        )
    if first.size != second.size:
        raise ValueError("matrix sizes differ")
    # each column of first as its nonzero (k, c) pairs: the zeros of triangular bases cost nothing
    columns = [[(k, c) for k, c in enumerate(col) if c] for col in zip(*first.entries)]
    entries = tuple(
        tuple(sum([row[k] * c for k, c in col]) for col in columns) for row in second.entries
    )
    return ChangeOfBasisMatrix(
        from_basis=first.from_basis, to_basis=second.to_basis, entries=entries
    )


def _gaussian_transform(coeffs, variance):
    """E[p(x + sqrt(v) Z)] for p = sum_k c_k x^k (each int or Fraction) and v = a/b of either
    sign: c_k times entry j of x^k's pairing column times a^j b^(J-j), J = deg // 2, goes to
    x^(k-2j), and each sum is divided once by b^J."""
    a, b, half = variance.numerator, variance.denominator, (len(coeffs) - 1) // 2
    weights = [a**j * b ** (half - j) for j in range(half + 1)]
    out = [0] * len(coeffs)
    for k, c in enumerate(coeffs):
        if c:  # the preimage's x^n would build n columns for nothing
            for j, entry in enumerate(_pairing_column(k, k, shift=0)[k::-2]):
                out[k - 2 * j] += c * (entry * weights[j])
    return ExactPolynomial([Fraction(t, weights[0]) for t in out])  # weights[0] = b^J


def weierstrass_preimage_polynomial(n, sigma):
    """sigma^n He_n(x / sigma) as an exact polynomial, the Gaussian transform of x^n with
    variance -sigma^2; sigma is taken at its exact binary value, so dyadic sigmas stay exact.
    """
    n, s = _check_order(n), Fraction(_check_sigma(sigma))
    return _gaussian_transform([0] * n + [1], -s * s)


def gaussian_mixture_deconvolve(g, sigma):
    """Mixing polynomial f with (phi_sigma * f)(y) = g(y), exactly: for g = sum_k c_k x^k,
    f = sum_k c_k sigma^k He_k(x / sigma), the Gaussian transform of g with variance -sigma^2.
    g must be an ExactPolynomial; sigma enters at its binary value."""
    if not isinstance(g, ExactPolynomial):
        raise TypeError("deconvolution requires an ExactPolynomial input")
    s = Fraction(_check_sigma(sigma))
    return _gaussian_transform(g.coeffs, -s * s)
