"""Gauss-Hermite quadrature for the weight e^{-x^2/2} and tensor cubature.

Nodes start as the eigenvalues of the Jacobi matrix of the monic three-term
recurrence (zero diagonal, off-diagonals sqrt(1..N-1)) from numpy's dense
symmetric eigensolver.  Newton steps on the unit-norm weighted Hermite
function then polish every node at once, one Hermite-table sweep per step,
and the nodes are symmetrized about the origin.  Weights use the closed form
sqrt(2*pi) N! / [N He_{N-1}(x_i)]^2 rewritten in the overflow-safe weighted
form e^{-x^2/2} / (N psi_{N-1}(x_i)^2).  Each order is built once per process
and shared, so its arrays are read-only.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .exactpoly import _check_order
from .polynomials import MAX_ORDER, SQRT_TWO_PI, NodeConvergenceError, _ldexp, hermite_table

CUBATURE_POINT_BUDGET = 10**7

_NEWTON_MAX_ITER = 100
_NODE_RESIDUAL_TOL = 1e-13
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
        every built rule; ValueError for a rule whose product leaves double range."""
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
    """N-point rule whose nodes are the zeros of He_N.

    Built once per order and shared: the returned arrays are read-only.
    Raises ValueError for N outside 1..200 and NodeConvergenceError, a
    RuntimeError naming the first such node, if Newton polishing fails to
    reach the residual tolerance.
    """
    if (N := _check_order(N, "quadrature order", 1)) > MAX_ORDER:
        raise ValueError(f"quadrature order {N} exceeds the supported maximum {MAX_ORDER}")
    return _build_rule(N)


def _orthonormal_pair(n, x):
    # (psi_n(x), psi_{n-1}(x)) at the nodes x, psi_n = he_n / sqrt(sqrt(2 pi) n!),
    # both O(1) and finite there; n! enters exactly, shifted by an even power of two
    f = math.factorial(n)
    shift = max(f.bit_length() - 64, 0) & ~1
    scale = 1.0 / math.sqrt(SQRT_TWO_PI * (f >> shift))
    prev, cur = hermite_table(n, x)[-2:] * (scale * np.exp(-x * x / 4.0))
    return np.ldexp(cur, -shift // 2), np.ldexp(math.sqrt(n) * prev, -shift // 2)


@functools.cache
def _build_rule(N):
    # eigvalsh reads only the lower triangle of the Jacobi matrix
    nodes = np.linalg.eigvalsh(np.diag(np.sqrt(np.arange(1.0, N)), -1))
    for _ in range(_NEWTON_MAX_ITER):
        value, lower = _orthonormal_pair(N, nodes)
        pending = ~(np.abs(value) <= _NODE_RESIDUAL_TOL)   # a nan is pending too
        if not pending.any():
            break
        slope = math.sqrt(N) * lower - 0.5 * nodes * value
        nodes = np.where(pending, nodes - value / slope, nodes)
    else:
        raise NodeConvergenceError(f"node {np.argmax(pending)} of the order-{N} rule did not "
                                   f"converge after {_NEWTON_MAX_ITER} Newton iterations")

    log_w = -np.log(N) - 0.5 * nodes**2 - 2.0 * np.log(np.abs(lower))
    # parity of He_N is exact; enforce the same on the float nodes and weights
    nodes = 0.5 * (nodes - nodes[::-1])
    weights = np.exp(0.5 * (log_w + log_w[::-1]))
    nodes.flags.writeable = weights.flags.writeable = False
    return QuadratureRule(order=N, nodes=nodes, weights=weights)


def integrand_values(f, rule):
    """f at every node of a QuadratureRule, or every point of a CubatureRule,
    as an array: one call per node, in order.

    A cubature point is a row of a freshly built block, so f may keep or
    modify it.  A non-finite value raises ValueError naming its index.
    """
    cubature = isinstance(rule, CubatureRule)
    values = np.empty(rule.order ** rule.dimension if cubature else len(rule.weights))
    for i, x in enumerate(itertools.chain.from_iterable(rule._blocks()) if cubature else rule.nodes):
        y = float(f(x))
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
    total, shift = _guarded(lambda v: float(functools.reduce(
        np.matmul, [base.weights] * d, v.reshape((base.order,) * d))), integrand_values(f, rule))
    return _ldexp(total, shift) if shift else total


integrate_cubature = integrate_weighted


def integrate_whole_line(f, rule):
    """int f(x) dx over the real line via f(x) = [f(x) e^{x^2/2}] e^{-x^2/2}.

    Accurate when f(x) e^{x^2/2} is moderate at the outermost nodes.  Only a
    sum past double range is inf, with its sign.
    """
    whole = rule.whole_line_weights
    total, shift = _guarded(lambda v: float(np.sum(v * whole)), integrand_values(f, rule))
    return _ldexp(total, shift) if shift else total


def tensor_cubature(d, N):
    """Tensor-product rule on R^d; exact for per-variable degree <= 2N-1."""
    d = _check_order(d, "dimension", 1)
    base = gauss_hermite_rule(N)  # checks N first, with the 1-d rule's messages
    N = base.order  # a Python int: a numpy N**d could wrap
    size = N**d
    if size > CUBATURE_POINT_BUDGET:
        raise ValueError(
            f"cubature of order {N} in dimension {d} needs {size} points, "
            f"above the budget of {CUBATURE_POINT_BUDGET}"
        )
    if d > 32:  # np.meshgrid, which builds the points, takes at most 32 axes; only N = 1 is here
        raise ValueError(f"dimension must be 1..32, got {d}")
    return CubatureRule(dimension=d, base=base)
