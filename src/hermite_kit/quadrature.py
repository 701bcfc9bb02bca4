"""Gauss-Hermite quadrature for the weight e^{-x^2/2} and tensor cubature.

The rules N = 1..200 are read from gauss_hermite.bin beside this module; no
rule is built at run time.  tests/rule_table.py made the file, and `python
tests/rule_table.py` rewrites it: nodes are the eigenvalues of the Jacobi
matrix of the monic three-term recurrence (Golub & Welsch 1969), polished by
Newton steps on the unit-norm weighted Hermite function to a residual of
1e-13 and symmetrized about the origin, and weights are the overflow-safe
e^{-x^2/2} / (N psi_{N-1}(x_i)^2) form of sqrt(2*pi) N! / [N He_{N-1}(x_i)]^2.
For each N in turn the file holds the nonnegative half of the rule, its
ceil(N/2) nodes then their weights, as little-endian doubles (161 600 bytes in
all); the negative half is its mirror image, bit for bit.  Each order is read
once per process and shared, so its arrays are read-only.

The quadrature-driven expansions, which contract a He table at a rule's nodes with the
integrand's values, live here too: this is the one module that loads numpy.
"""

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exactpoly import _check_order, _real
from .expansions import (DENSITY_WEIGHTED, MAX_FACTORIAL_ORDER, PLAIN_RV, HermiteSeries,
                         WCETensorCoeffs)
from .polynomials import (MAX_ORDER, SQRT_TWO_PI, _check_rule_order, _ldexp, _read_rule, _rounded,
                          index_multiplicities)

CUBATURE_POINT_BUDGET = 10**7
MAX_CUBATURE_DIMENSION = 32  # the most axes np.meshgrid, which builds the points, takes

_BLOCK_ROWS = 2**14   # most cubature points built at once


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes (ascending) and positive weights for int e^{-x^2/2} f(x) dx."""

    order: int
    nodes: np.ndarray
    weights: np.ndarray

    @functools.cached_property
    def whole_line_weights(self):
        """w_i e^{x_i^2/2} per node, read-only, built on first read.  Finite for
        every tabled rule; ValueError for a rule whose product leaves double range."""
        with np.errstate(over="ignore"):
            whole = self.weights * np.exp(0.5 * self.nodes**2)
        if not np.isfinite(whole).all():
            raise ValueError(f"whole-line weights of the order-{self.order} rule overflow: "
                             "e^(x^2/2) leaves double range at its outer nodes")
        whole.flags.writeable = False
        return whole


@dataclass(frozen=True, eq=False)
class CubatureRule:
    """Full tensor product of a 1-d rule over d coordinates, held as the
    dimension and the shared 1-d rule, whose order and nodes are the cubature's."""

    dimension: int
    base: QuadratureRule
    order = property(lambda self: self.base.order)
    nodes = property(lambda self: self.base.nodes)

    @property
    def weights(self):
        """The order**dimension product weights in C order, built on each read.  Nothing in
        src/ reads them; they go with the integrate_cubature alias once the benchmark does not."""
        return functools.reduce(np.multiply.outer, [self.base.weights] * self.dimension).ravel()

    def _blocks(self):
        # the points in C order, as fresh arrays of at most _BLOCK_ROWS rows
        d, nodes = self.dimension, self.nodes
        lead = next(k for k in range(d + 1) if len(nodes) ** (d - k) <= _BLOCK_ROWS)
        for head in itertools.product(nodes, repeat=lead):
            axes = [(x,) for x in head] + [nodes] * (d - lead)
            yield np.stack(np.meshgrid(*axes, indexing="ij", copy=False), axis=-1).reshape(-1, d)


def gauss_hermite_rule(N):
    """N-point rule whose nodes are the zeros of He_N, read from the table.

    Read once per order and shared: the returned arrays are read-only.
    Raises ValueError for N outside 1..200.
    """
    return _rule(_check_rule_order(N))


@functools.cache
def _rule(N):
    nodes, weights = map(np.array, _read_rule(N))
    nodes.flags.writeable = weights.flags.writeable = False
    return QuadratureRule(order=N, nodes=nodes, weights=weights)


def integrand_values(f, rule):
    """f at every node of a QuadratureRule, or every point of a CubatureRule,
    as an array: one call per node, in order.

    A cubature point is a row of a freshly built block, so f may keep or
    modify it.  A value v is float(v - 0.0), which keeps -0.0 and takes an np.bool_, or else the
    int its __index__ gives, rounded once; a str, Decimal or complex raises TypeError naming its
    type, and a non-finite value, an int or Fraction past double range too, ValueError its index.
    """
    cubature = isinstance(rule, CubatureRule)
    values = np.empty(rule.order ** rule.dimension if cubature else len(rule.weights))
    for i, x in enumerate(itertools.chain.from_iterable(rule._blocks()) if cubature else rule.nodes):
        v = f(x)
        try:
            y = float(v - 0.0)
        except (TypeError, OverflowError):  # an int or Fraction past double range is +-inf
            y = _rounded(_real(v, "integrand value"))
        if not math.isfinite(y):
            where = f"point index {i}" if cubature else f"node index {i} (x={float(x)!r})"
            raise ValueError(f"integrand returned non-finite value {y!r} at {where}")
        values[i] = y
    return values


@np.errstate(over="ignore", invalid="ignore")   # as a decorator it costs half a with block
def _guarded(contract, values):
    """(contract(values), 0) if finite, else (contract(values * 2**-shift), shift)
    with shift the binary exponent of the largest |value|, so a linear contract
    keeps a finite result whose terms overflow; the caller scales back by
    2**shift, saturating.  The entrywise check runs only if the sum is not finite."""
    result = contract(values)
    if math.isfinite(result if isinstance(result, float) else result.sum()) or \
            np.isfinite(result).all():
        return result, 0
    shift = math.frexp(float(np.max(np.abs(values))))[1]
    return contract(np.ldexp(values, -shift)), shift


def integrate_weighted(f, rule):
    """sum_i w_i f(x_i) over a QuadratureRule, i.e. int e^{-x^2/2} f(x) dx,
    or over a CubatureRule, int e^{-|x|^2/2} f(x) dx on R^d, contracted one
    axis at a time with the 1-d weights, the last axis first.

    Exact (to rounding) whenever f is a polynomial of degree <= 2N-1 in
    each variable.  Only a sum past double range is inf, with its sign.
    """
    base, d = (rule.base, rule.dimension) if isinstance(rule, CubatureRule) else (rule, 1)
    return _ldexp(*_guarded(lambda v: float(functools.reduce(
        np.matmul, [base.weights] * d, v.reshape((base.order,) * d))), integrand_values(f, rule)))


integrate_cubature = integrate_weighted


def integrate_whole_line(f, rule):
    """int f(x) dx over the real line via f(x) = [f(x) e^{x^2/2}] e^{-x^2/2}.

    Accurate when f(x) e^{x^2/2} is moderate at the outermost nodes.  Only a
    sum past double range is inf, with its sign.  rule is a 1-d QuadratureRule.
    """
    if not isinstance(rule, QuadratureRule):
        raise TypeError(f"integrate_whole_line needs a 1-d QuadratureRule, "
                        f"got {type(rule).__name__}")
    whole = rule.whole_line_weights
    return _ldexp(*_guarded(lambda v: float(np.sum(v * whole)), integrand_values(f, rule)))


def tensor_cubature(d, N):
    """Tensor-product rule on R^d; exact for per-variable degree <= 2N-1."""
    d = _check_order(d, "dimension", 1)
    base = gauss_hermite_rule(N)  # checks N first, with the 1-d rule's messages
    N = base.order  # a Python int: a numpy N**d could wrap
    # N**d has d log2(N) bits, so it is built only where it is small: N >= 2 is over budget from
    # d = 24 on (2**24 > 10**7), and the refusal names it by its digits where Python prints them
    if N > 1 and (d >= CUBATURE_POINT_BUDGET.bit_length() or N**d > CUBATURE_POINT_BUDGET):
        try:
            size = f"{N**d}" if d <= 2**16 else f"{N}**{d}"
        except ValueError:  # more digits than Python converts
            size = f"{N}**{d}"
        raise ValueError(f"cubature of order {N} in dimension {d} needs {size} points, "
                         f"above the budget of {CUBATURE_POINT_BUDGET}")
    if d > MAX_CUBATURE_DIMENSION:  # only N = 1 is here
        raise ValueError(f"dimension must be 1..{MAX_CUBATURE_DIMENSION}, got {d}")
    return CubatureRule(dimension=d, base=base)


def _quad_order(order, quad_order):
    # the expansions' rule: 2 order + 12 points by default, exact on polynomial integrands with
    # margin and refused past MAX_ORDER; an explicit rule below order + 2 aliases the top degree
    if quad_order is None:
        if order > (largest := (MAX_ORDER - 12) // 2):
            raise ValueError(f"order {order} exceeds {largest}, the default quadrature's limit")
        return 2 * order + 12
    return _check_rule_order(quad_order, order + 2)


_KEPT_TABLE_BYTES = 2**12   # a larger He table is built for its call, not kept


def _table(Q, order):
    # the read-only table, one numpy step per row over all nodes; _rule_table decides whether it
    # is kept.  At order <= Q - 2, which _quad_order holds, every row is finite at every node
    x = gauss_hermite_rule(Q).nodes
    rows = [np.ones_like(x), x]
    for k in range(1, order):
        rows.append(x * rows[k] - k * rows[k - 1])
    table = np.array(rows[: order + 1])
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

    The contraction goes through _guarded, so a finite coefficient
    whose terms or moment overflow is kept.  Scaling back saturates: a
    coefficient past double range becomes a signed inf and is refused.
    """
    order = _check_order(order, "truncation order")
    rule_order = _quad_order(order, quad_order)
    rule = gauss_hermite_rule(rule_order)
    values = integrand_values(f, rule)
    table = _rule_table(rule.order, order)
    weights = rule.whole_line_weights if convention == DENSITY_WEIGHTED else rule.weights
    moments, shift = _guarded(lambda v: table @ (weights * v), values)
    coeffs = _normalized(moments)
    if shift:
        coeffs = tuple(_ldexp(c, shift) for c in coeffs)
    return HermiteSeries(coeffs=coeffs, convention=convention)


def fourier_hermite_coeffs(f, order, quad_order=None):
    """Density-weighted expansion coefficients
    a_n = (1 / (sqrt(2*pi) n!)) int He_n(x) f(x) dx, by whole-line quadrature.

    f is called once per node of the Q-point rule and the Hermite table is contracted with
    those values, in O(order * Q).  quad_order must be at least order + 2.  The default,
    2*order + 12, is sized from the order alone, so mass past its outer node is lost without
    a warning: N(7, 1) at order 3 gets a_0 = 0.3277, not 0.3989; quad_order=200 gives 0.3989.
    """
    return _contracted_series(f, order, quad_order, DENSITY_WEIGHTED)


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
    rule = tensor_cubature(dimension, rule_order)
    table = _rule_table(rule.order, order) * rule.base.weights  # the 1-d table times 1-d weights

    def contracted(values):
        moments = values.reshape((rule.order,) * dimension)
        for _ in range(dimension):
            # contracts the leading node axis and appends a degree axis
            moments = np.tensordot(moments, table, axes=([0], [1]))
        return moments

    moments, shift = _guarded(contracted, integrand_values(f, rule))
    normalization = (2.0 * math.pi) ** (dimension / 2.0)
    tensors = [moments[_multiplicities(dimension, rank)] / (normalization * math.factorial(rank))
               for rank in range(order + 1)]
    if shift:  # scaling back saturates: an entry past double range becomes +-inf
        with np.errstate(over="ignore"):
            tensors = [np.ldexp(tensor, shift) for tensor in tensors]
    return WCETensorCoeffs(dimension=dimension, tensors=tuple(tensors))
