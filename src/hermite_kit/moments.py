"""Gaussian raw moments and the connection problem with Hermite bases.

The basis tags mirror the polynomial sets whose change-of-basis matrices
share coefficients: the physicists' family against powers of 2x, and the
Chebyshev-Hermite family against the Gaussian moment polynomials
E[Y^n](x) for Y ~ N(x, 1).
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from fractions import Fraction
from functools import partial

from .exactpoly import ExactPolynomial, _check_order, _check_sigma
from .polynomials import _rounded, eval_hermite, hermite_explicit, pairings

MONOMIAL = "monomial"
TWO_X_MONOMIAL = "2x-monomial"
HE_BASIS = "he"
H_BASIS = "h"
GAUSS_MOMENT = "gauss-moment"


class ChangeOfBasisMatrix(namedtuple("ChangeOfBasisMatrix", "from_basis to_basis entries")):
    """(n+1)x(n+1) exact matrix, rows of int/Fraction; column k expands source-basis element k."""

    __slots__ = ()

    @property
    def size(self):
        return len(self.entries)

    def column(self, k):
        return tuple(row[k] for row in self.entries)

    def apply(self, coeffs):
        """Map a coefficient vector from from_basis to to_basis."""
        if len(coeffs) != self.size:
            raise ValueError(f"expected {self.size} coefficients, got {len(coeffs)}")
        return tuple(
            sum(row[j] * coeffs[j] for j in range(self.size)) for row in self.entries
        )

    def to_json(self):
        rows = [[str(e) for e in row] for row in self.entries]
        return json.dumps(rows)


def gaussian_raw_moment(n, mu, sigma):
    """E[Y^n] for Y ~ N(mu, sigma^2) = sigma^n E[(mu/sigma + Z)^n], the moment
    polynomial sum_j pairings(n, j) x^(n-2j) at x = mu/sigma, evaluated exactly
    at the binary values of mu and sigma and rounded once; a signed inf past
    double range.
    """
    n, sigma = _check_order(n, "moment order"), Fraction(_check_sigma(sigma))
    if not math.isfinite(mu):
        raise ValueError(f"mu must be finite, got {mu!r}")
    return _rounded(sigma**n * gauss_moment_polynomial(n)(Fraction(mu) / sigma))


def gauss_moment_polynomial(n):
    """E[Y^n](x) for Y ~ N(x, 1) as an exact polynomial in x.

    Its coefficients are the absolute values of the He_n coefficients.
    """
    n = _check_order(n)
    return ExactPolynomial(_pairing_column(n, n, shift=0))


def _pairing_column(n, k, sign=1, shift=1):
    # element k expands with sign^j k! 2^((shift-1) j) / ((k-2j)! j!) at row k - 2j
    col = [0] * (n + 1)
    for j in range(k // 2 + 1):
        col[k - 2 * j] = sign**j * pairings(k, j) << (shift * j)
    return col


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
    columns = [builder(n, k) for k in range(n + 1)]
    entries = tuple(tuple(columns[k][i] for k in range(n + 1)) for i in range(n + 1))
    return ChangeOfBasisMatrix(from_basis=from_basis, to_basis=to_basis, entries=entries)


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


def identity_matrix(n, basis):
    n = _check_order(n, "matrix order")
    entries = tuple(tuple(1 if i == j else 0 for j in range(n + 1)) for i in range(n + 1))
    return ChangeOfBasisMatrix(from_basis=basis, to_basis=basis, entries=entries)


def weierstrass_deconvolution_identity(n, sigma, x):
    """sigma^n He_n(x / sigma): the function whose Gaussian blur at scale
    sigma returns y^n.  A float value that leaves double range on the way is
    redone from the exact preimage polynomial and rounded once.
    """
    n, sigma = _check_order(n), _check_sigma(sigma)
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x!r}")
    try:
        value = float(sigma) ** n * eval_hermite(n, float(x) / float(sigma))
    except OverflowError:  # sigma**n
        value = math.nan
    if math.isfinite(value):
        return value
    return _rounded(weierstrass_preimage_polynomial(n, sigma)(Fraction(x)))


def weierstrass_preimage_polynomial(n, sigma):
    """sigma^n He_n(x / sigma) as an exact polynomial; sigma is taken at
    its exact binary value, so dyadic sigmas stay exact.
    """
    n, s = _check_order(n), Fraction(_check_sigma(sigma))
    return s**n * hermite_explicit(n).scale_argument(1 / s)
