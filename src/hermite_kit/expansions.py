"""Hermite-based expansions of densities and functions of Gaussians.

Holds the series and chaos records, series evaluation, the Gram-Charlier series, chaos
reconstruction, and the numeric check that the weighted Hermite functions are Fourier
eigenfunctions, all in plain Python numbers.  The quadrature-driven expansions, which
contract a Hermite table with a rule, live in quadrature, the one module that loads numpy.
"""

import functools
import itertools
import math
import operator
from collections import namedtuple
from fractions import Fraction

from .exactpoly import _PYTHON_REALS, _check_finite, _check_order, _check_sigma, _real
from .polynomials import (_LN2, MAX_ORDER, PHYSICIST, SQRT_TWO_PI, _check_rule_order, _ldexp,
                          _pairing_column, _read_rule, _recurrence, _rounded,
                          eval_hermite_function, hermite_table, tensor_component)

DENSITY_WEIGHTED = "density-weighted"   # f(x) = e^{-x^2/2} sum a_n He_n(x)
PLAIN_RV = "plain-rv"                   # f(Y) = sum b_n He_n(Y)
MAX_FACTORIAL_ORDER = 170               # the largest n whose n! is inside double range
MAX_EIGEN_FREQUENCY = 11                # fourier_eigen_check's default band: |k| <= 11


class HermiteSeries(namedtuple("HermiteSeries", "coeffs convention")):
    """Truncated coefficient sequence against a declared convention, as Python numbers."""

    __slots__ = ()

    def __new__(cls, coeffs, convention):
        if convention not in (DENSITY_WEIGHTED, PLAIN_RV):
            raise ValueError(f"unknown series convention {convention!r}")
        if not _PYTHON_REALS.issuperset(map(type, coeffs := tuple(coeffs))):
            coeffs = tuple(_real(c, "series coefficients") for c in coeffs)
        if not coeffs:
            raise ValueError("series needs at least one coefficient")
        try:
            finite = all(map(math.isfinite, coeffs))
        except OverflowError:  # a big int or Fraction past double range
            finite = False
        if not finite:
            raise ValueError("series coefficients must be finite")
        return super().__new__(cls, coeffs, convention)

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace builds through it

    @property
    def truncation(self):
        return len(self.coeffs) - 1


class StandardizedMoments(namedtuple("StandardizedMoments", "mu sigma nu")):
    """Location, scale, and standardized central moments nu_3, nu_4, ..."""

    __slots__ = ()

    def __new__(cls, mu, sigma, nu=()):
        mu = _check_finite(mu, "mu")
        nu = tuple(_check_finite(v, f"nu_{k}") for k, v in enumerate(nu, 3))
        return super().__new__(cls, mu, _check_sigma(sigma), nu)

    _make = classmethod(lambda cls, fields: cls(*fields))

    def standardized(self, k):
        """nu_k with the fixed values nu_0 = 1, nu_1 = 0, nu_2 = 1."""
        if (k := _check_order(k, "moment index")) >= len(self.nu) + 3:
            raise ValueError(f"standardized moment nu_{k} was not supplied")
        return _rounded(self.nu[k - 3]) if k > 2 else (1.0, 0.0, 1.0)[k]


def _shape(tensor, rank):  # a float's or real array's shape, or of floats nested in tuples
    if isinstance(tensor, tuple):  # None if ragged
        shapes = {_shape(t, rank) for t in tensor}
        return (len(tensor), *shapes.pop()) if len(shapes) == 1 and None not in shapes else None
    kind = "f" if type(tensor) is float else getattr(getattr(tensor, "dtype", None), "kind", None)
    if kind in ("i", "u", "f"):
        return getattr(tensor, "shape", ())
    name = f"{tensor.dtype} array" if kind else type(tensor).__name__
    raise TypeError(f"tensor b^({rank}) must hold floats or a real array, got {name}")


class WCETensorCoeffs(namedtuple("WCETensorCoeffs", "dimension tensors")):
    """Symmetric chaos tensors b^(0) .. b^(N) of a d-dim expansion, b^(r) of shape (d,) * r."""

    __slots__ = ()

    def __new__(cls, dimension, tensors):
        dimension = _check_order(dimension, "dimension", 1)
        for rank, tensor in enumerate(tensors := tuple(tensors)):
            want = (dimension,) * rank
            if (shape := _shape(tensor, rank)) != want:
                raise ValueError(f"tensor b^({rank}) must have shape {want}, got {shape}")
        return super().__new__(cls, dimension, tensors)

    _make = classmethod(lambda cls, fields: cls(*fields))


def evaluate_series(series, x):
    """Value of the truncated expansion at x, honoring its convention: floats where
    the sum is finite and the weight e^{-x^2/2} normal, else exact at the binary
    values, rounded once (a weight, applied as 2**e e**r, adds about |e| ulps): a
    signed inf past double range, 0 where the weight wins, the limit at x = +-inf."""
    x, coeffs = _rounded(x), series.coeffs
    log_weight = -x * x / 2.0 if series.convention == DENSITY_WEIGHTED else 0.0
    total = sum(c * h for c, h in zip(coeffs, hermite_table(len(coeffs) - 1, x)))
    weight = math.exp(log_weight)
    # a subnormal or 0 weight from a finite exponent has lost bits: the exact path splits it
    if (weight >= 2.0**-1022 or log_weight == -math.inf) and math.isfinite(total := total * weight):
        return total
    if log_weight == -math.inf:  # the weight wins at any degree, infinite x included
        return 0.0
    if math.isinf(x):  # the float sum is inf or nan here: take the limit
        if k := max((k for k, c in enumerate(coeffs) if c), default=0):
            return math.copysign(math.inf, coeffs[k] * (x if k % 2 else 1.0))
        return coeffs[0] * weight
    x, prev, cur, total = Fraction(x), 0, 1, 0
    for k, c in enumerate(coeffs):
        total += Fraction(c) * cur
        prev, cur = cur, x * cur - k * prev
    # total / 2**s and e**(t - e ln 2) are O(1); their product is scaled by 2**(s + e)
    s = total.numerator.bit_length() - total.denominator.bit_length()
    t = max(-1e15, log_weight)  # as in _recurrence: past -1e15 the weight wins anyway
    e = math.floor(t / _LN2)
    return _ldexp(float(total / Fraction(2) ** s) * math.exp(t - e * _LN2), s + e)


def series_tail_indicator(series):
    """|a_N| sqrt(N!): grows along a divergent expansion, shrinks along a
    convergent one.  Reported, never used to clip.
    """
    n, f = series.truncation, math.factorial(series.truncation)
    shift = 0 if n <= MAX_FACTORIAL_ORDER else f.bit_length() - 64 & ~1
    return _ldexp(abs(series.coeffs[-1]) * math.sqrt(f >> shift), shift // 2)


def gram_charlier_density(moments, order, x):
    """Gram-Charlier density approximation around the Gaussian N(mu, sigma^2).

    Each coefficient E[He_n(Z)]/n! is assembled from the supplied
    standardized moments; up to order 4 this is the classical form
    w(z)/(sqrt(2*pi) sigma) * (1 + nu_3/6 He_3(z) + (nu_4 - 3)/24 He_4(z)).
    The sum is evaluate_series' own, so a value that leaves double range is
    redone exactly, and a coefficient that overflows raises ValueError.  Where
    x - mu or sqrt(2*pi) sigma overflows, its operands are scaled exactly.
    Truncated values can go negative and are returned as-is.
    """
    if (order := _check_order(order, "order")) > MAX_FACTORIAL_ORDER:
        raise ValueError(f"order must be 0..{MAX_FACTORIAL_ORDER}, got {order}")
    x, mu, sigma = _rounded(x), _rounded(moments.mu), _rounded(moments.sigma)
    h = 2.0 if math.isinf(x - mu) else 1.0  # z may be finite still: halve both ends
    z = (x / h - mu / h) / sigma * h
    nu = [moments.standardized(k) for k in range(order + 1)]
    coeffs = []
    for n in range(order + 1):
        # E[He_n(Z)] over He_n's monomial column, in ascending k; a zero entry is
        # skipped, since a big-int nu_k rounds to inf and 0 * inf is nan
        expected = 0.0
        for c, v in zip(_pairing_column(n, n, -1, 0), nu):
            expected += float(c) * v if c else 0.0
        coeffs.append(expected / math.factorial(n))
    density = evaluate_series(HermiteSeries(coeffs, DENSITY_WEIGHTED), z)
    q = 4.0 if math.isinf(SQRT_TWO_PI * sigma) else 1.0  # sigma past 7.17e307: quarter both
    return density / q / (SQRT_TWO_PI * (sigma / q))


def wce_reconstruct(coeffs, point):
    """Full contraction sum_n b^(n) . He^(n)(point)."""
    if len(point) != coeffs.dimension:
        raise ValueError(f"point has {len(point)} coordinates, expected {coeffs.dimension}")
    total = 0.0
    for rank, tensor in enumerate(coeffs.tensors):
        tensor = tensor.tolist() if hasattr(tensor, "tolist") else tensor  # cheap to index by level
        for indices in itertools.product(range(coeffs.dimension), repeat=rank):
            if b := float(functools.reduce(operator.getitem, indices, tensor)):
                if not math.isfinite(b):
                    raise ValueError(f"chaos coefficient b{indices!r} must be finite, got {b!r}")
                total += b * tensor_component(indices, point)
    if math.isnan(total):  # finite coefficients: inf - inf between terms
        point = tuple(_real(x, "x") for x in point)  # each coordinate as the kernel took it
        raise ValueError(f"point {point!r} has terms of both signs past double range")
    return total


def fourier_eigen_check(n, k_grid, quad_order=None):
    """Max deviation of the numeric Fourier transform of h_n from
    (-i)^n h_n over a grid of frequencies.

    The transform (1/sqrt(2*pi)) int h_n(x) e^{-ikx} dx is computed against the Gaussian
    weight, where h_n(x) e^{x^2/2} = H_n(x).  The rule mirrors bit for bit and H_n has n's
    parity, so the other part cancels exactly: plain floats sum cos(kx) (even n) or sin(kx)
    (odd n) over the nonnegative nodes, weights doubled but the middle node's.  The default rule,
    MAX_ORDER points, takes n <= 95 and |k| <= MAX_EIGEN_FREQUENCY; an explicit Q >= 2n + 10.
    """
    n = _check_order(n)
    if quad_order is None and n > (largest := (MAX_ORDER - 10) // 2):
        raise ValueError(f"n {n} exceeds {largest}, the default quadrature's limit")
    rule_order = MAX_ORDER if quad_order is None else _check_rule_order(quad_order, 2 * n + 10)
    if not (ks := [_real(q, "k") for q in k_grid]):  # no frequency checked is no residual
        raise ValueError("k_grid needs at least one frequency")
    band = MAX_EIGEN_FREQUENCY
    if quad_order is None and (far := [k for k in ks if not abs(k) <= band]):
        raise ValueError(f"k must be in [-{band}, {band}] on the default rule, got {far[0]!r}")
    half = rule_order // 2  # the nonnegative half; an odd rule's middle node, 0.0, comes first
    nodes, weights = (values[half:] for values in _read_rule(rule_order))
    column = [(w if x == 0.0 else 2.0 * w) * _ldexp(*_recurrence(n, x, PHYSICIST))
              for x, w in zip(nodes, weights)]
    trig, sign = math.sin if n % 2 else math.cos, -1.0 if n // 2 % 2 else 1.0
    residual = 0.0
    for k in map(float, ks):
        if not math.isfinite(k * nodes[-1]):
            raise OverflowError("k times the quadrature nodes is not finite")
        transform = math.fsum(c * trig(k * x) for c, x in zip(column, nodes))
        expected = sign * eval_hermite_function(n, k, PHYSICIST)
        residual = max(residual, abs(transform / SQRT_TWO_PI - expected))
    return residual
