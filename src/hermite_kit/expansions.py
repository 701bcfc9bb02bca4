"""Hermite-based expansions of densities and functions of Gaussians.

Covers the weighted Fourier-Hermite density expansion, the Gram-Charlier series, scalar
and tensor Wiener-chaos coefficients, and the numeric check that the weighted Hermite
functions are Fourier eigenfunctions.  Only the functions that build a rule import numpy.
"""

import functools
import itertools
import math
from collections import namedtuple
from fractions import Fraction

from .exactpoly import _PYTHON_REALS, _check_finite, _check_order, _check_sigma, _real
from .polynomials import (
    _LN2,
    MAX_ORDER,
    SQRT_TWO_PI,
    _check_rule_order,
    _pairing_column,
    _ldexp,
    _rounded,
    eval_hermite_function,
    hermite_table,
    index_multiplicities,
    tensor_component,
)

DENSITY_WEIGHTED = "density-weighted"   # f(x) = e^{-x^2/2} sum a_n He_n(x)
PLAIN_RV = "plain-rv"                   # f(Y) = sum b_n He_n(Y)
MAX_FACTORIAL_ORDER = 170               # the largest n whose n! is inside double range


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
        if not 0 <= k < len(self.nu) + 3:
            raise ValueError(f"standardized moment nu_{k} was not supplied")
        return _rounded(self.nu[k - 3]) if k > 2 else (1.0, 0.0, 1.0)[k]


class WCETensorCoeffs(namedtuple("WCETensorCoeffs", "dimension tensors")):
    """Symmetric chaos tensors b^(0) .. b^(N) of a d-dim expansion, b^(r) of shape (d,) * r."""

    __slots__ = ()


def _quad_order(order, quad_order=None, what="order", extra=12):
    # the default, 2 order + extra points, keeps polynomial integrands exact with margin and
    # past MAX_ORDER names the argument; an explicit rule below order + 2 aliases the top degree
    if quad_order is None:
        if order > (largest := (MAX_ORDER - extra) // 2):
            raise ValueError(f"{what} {order} exceeds {largest}, the default quadrature's limit")
        return 2 * order + extra
    return _check_rule_order(quad_order, order + 2)


_KEPT_TABLE_BYTES = 2**12   # a larger He table is built for its call, not kept


def _table(Q, order):
    # the read-only table; _rule_table decides whether it is kept
    from . import quadrature

    table = hermite_table(order, quadrature.gauss_hermite_rule(Q).nodes)
    table.flags.writeable = False
    return table


_kept_table = functools.cache(_table)


def _rule_table(Q, order):
    """Rows He_0 .. He_order at the nodes of the cached Q-point rule, read-only.

    A table of at most _KEPT_TABLE_BYTES is kept and shared for the life of
    the process: with Q <= 200 and order <= Q - 2, at most 1261 tables of
    2 517 688 bytes (2.4 MiB) in all.  A larger table is built for its call."""
    return (_kept_table if 8 * (order + 1) * Q <= _KEPT_TABLE_BYTES else _table)(Q, order)


@functools.cache
def _norms():
    # sqrt(2 pi) n! for n = 0..MAX_FACTORIAL_ORDER, built once per process on first use
    return tuple(SQRT_TWO_PI * math.factorial(n) for n in range(MAX_FACTORIAL_ORDER + 1))


def _normalized(moments):
    # a 1-d array of moments sqrt(2 pi) n! a_n -> coefficients a_n; past MAX_FACTORIAL_ORDER
    # n! leaves double range, so a finite moment is divided exactly and inf or nan passes on
    norms = _norms()
    return tuple(m / norms[n] if n <= MAX_FACTORIAL_ORDER else m if not math.isfinite(m)
                 else float(Fraction(m) / (Fraction(SQRT_TWO_PI) * math.factorial(n)))
                 for n, m in enumerate(moments.tolist()))


def _contracted_series(f, order, quad_order, convention):
    """Series with coefficients (table @ (weights * f(nodes)))_n / (sqrt(2 pi) n!)
    on the Q-point rule: whole-line weights for DENSITY_WEIGHTED, else plain.

    The contraction goes through quadrature._guarded, so a finite coefficient
    whose terms or moment overflow is kept.  Scaling back saturates: a
    coefficient past double range becomes a signed inf and is refused.
    """
    order = _check_order(order, "truncation order")
    rule_order = _quad_order(order, quad_order)
    from . import quadrature

    rule = quadrature.gauss_hermite_rule(rule_order)
    values = quadrature.integrand_values(f, rule)
    table = _rule_table(rule.order, order)
    weights = rule.whole_line_weights if convention == DENSITY_WEIGHTED else rule.weights
    moments, shift = quadrature._guarded(lambda v: table @ (weights * v), values)
    coeffs = _normalized(moments)
    if shift:
        coeffs = tuple(_ldexp(c, shift) for c in coeffs)
    return HermiteSeries(coeffs=coeffs, convention=convention)


def fourier_hermite_coeffs(f, order, quad_order=None):
    """Density-weighted expansion coefficients
    a_n = (1 / (sqrt(2*pi) n!)) int He_n(x) f(x) dx, by whole-line quadrature.

    f is called once per node of the Q-point rule and the Hermite table is
    contracted with those values, in O(order * Q).  quad_order must be at
    least order + 2 (defaults to 2*order + 12).
    """
    return _contracted_series(f, order, quad_order, DENSITY_WEIGHTED)


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


def wce_coeffs_1d(f, order, quad_order=None):
    """Chaos coefficients b_n = E[He_n(Y) f(Y)] / n! for Y ~ N(0, 1).

    f is called once per node of the Q-point rule, Q >= order + 2.  Cost O(order * Q).
    """
    return _contracted_series(f, order, quad_order, PLAIN_RV)


MAX_WCE_DIMENSION = 3
MAX_WCE_ORDER = 4


@functools.cache
def _multiplicities(dimension, rank):
    # per axis of the moment grid, the multiplicity of that axis at every
    # index of a rank-`rank` tensor: one fancy index, built once per shape
    import numpy as np

    counts = [index_multiplicities(indices, dimension)
              for indices in itertools.product(range(dimension), repeat=rank)]
    return tuple(np.reshape(axis, (dimension,) * rank) for axis in zip(*counts))


def wce_coeffs_multi(f, dimension, order, quad_order=None):
    """Rank-n tensors b^(n) = E[He^(n)(Y) f(Y)] / n! for Y ~ N(0, I_d).

    f is called once per point of the Q^d cubature.  Contracting each axis
    of the values with the 1-d table times the 1-d weights yields every moment
    E[prod_i He_{m_i}(Y_i) f(Y)] in O(Q^d * d * order); an entry of b^(n)
    is the moment at its index multiplicities.
    """
    if not 1 <= (dimension := _check_order(dimension, "dimension")) <= MAX_WCE_DIMENSION:
        raise ValueError(f"dimension must be 1..{MAX_WCE_DIMENSION}, got {dimension!r}")
    if (order := _check_order(order, "order")) > MAX_WCE_ORDER:
        raise ValueError(f"order must be 0..{MAX_WCE_ORDER}, got {order!r}")
    rule_order = _quad_order(order, quad_order)
    import numpy as np
    from . import quadrature

    rule = quadrature.tensor_cubature(dimension, rule_order)
    table = _rule_table(rule.order, order) * rule.base.weights  # the 1-d table times 1-d weights

    def contracted(values):
        moments = values.reshape((rule.order,) * dimension)
        for _ in range(dimension):
            # contracts the leading node axis and appends a degree axis
            moments = np.tensordot(moments, table, axes=([0], [1]))
        return moments

    moments, shift = quadrature._guarded(contracted, quadrature.integrand_values(f, rule))
    normalization = (2.0 * math.pi) ** (dimension / 2.0)
    tensors = [moments[_multiplicities(dimension, rank)] / (normalization * math.factorial(rank))
               for rank in range(order + 1)]
    if shift:  # scaling back saturates: an entry past double range becomes +-inf
        with np.errstate(over="ignore"):
            tensors = [np.ldexp(tensor, shift) for tensor in tensors]
    return WCETensorCoeffs(dimension=dimension, tensors=tuple(tensors))


def wce_reconstruct(coeffs, point):
    """Full contraction sum_n b^(n) . He^(n)(point)."""
    if len(point) != coeffs.dimension:
        raise ValueError(f"point has {len(point)} coordinates, expected {coeffs.dimension}")
    total = 0.0
    for rank, tensor in enumerate(coeffs.tensors):
        for indices in itertools.product(range(coeffs.dimension), repeat=rank):
            if b := float(tensor[indices]):
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

    The transform (1/sqrt(2*pi)) int h_n(x) e^{-ikx} dx is split into
    cos/sin parts and computed against the Gaussian weight, where
    h_n(x) e^{x^2/2} = H_n(x).  quad_order must be at least 2n + 10.
    """
    n = _check_order(n)
    if quad_order is None:  # 2n + 10 points, at least 40; an explicit rule needs 2n + 10
        quad_order = max(_quad_order(n, None, "n", 10), 40)
    rule_order = _quad_order(2 * n + 8, quad_order)
    import numpy as np
    from . import quadrature

    rule = quadrature.gauss_hermite_rule(rule_order)
    eigenvalue = (-1j) ** (n % 4)
    column = rule.weights * hermite_table(n, rule.nodes, "h")[n]
    k = np.array([_real(q, "k") for q in k_grid], dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):   # inf * 0.0 at an odd rule's centre
        kx = np.multiply.outer(k, rule.nodes)
    if not np.isfinite(kx).all():
        raise OverflowError("k times the quadrature nodes is not finite")
    transform = (np.cos(kx) @ column - 1j * (np.sin(kx) @ column)) / SQRT_TWO_PI
    expected = eigenvalue * np.array([eval_hermite_function(n, q, "h") for q in k])
    return float(np.max(np.abs(transform - expected), initial=0.0))
