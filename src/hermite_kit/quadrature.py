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
import warnings
from dataclasses import dataclass, field

import numpy as np

from .exactpoly import _check_order
from .polynomials import MAX_ORDER, NodeConvergenceError, _orthonormal_pair

CUBATURE_POINT_BUDGET = 10**7

_NEWTON_MAX_ITER = 100
_NODE_RESIDUAL_TOL = 1e-13
_BLOCK_ROWS = 2**14   # most cubature points built at once


class QuadratureRangeWarning(UserWarning):
    """Raised when whole-line reweighting leaves double range at outer nodes."""


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes (ascending) and positive weights for int e^{-x^2/2} f(x) dx."""

    order: int
    nodes: np.ndarray
    weights: np.ndarray

    @functools.cached_property
    def whole_line_weights(self):
        """w_i e^{x_i^2/2} per node, read-only, built on first read; inf where
        e^{x^2/2} leaves double range."""
        with np.errstate(over="ignore"):
            whole = self.weights * np.exp(0.5 * self.nodes**2)
        whole.flags.writeable = False
        return whole

    @functools.cached_property
    def _whole_line_finite(self):
        # whether every whole_line_weights entry is finite, found once per rule
        return bool(np.isfinite(self.whole_line_weights).all())


@dataclass(frozen=True, eq=False)
class CubatureRule:
    """Full tensor product of a 1-d rule over d coordinates: the shared 1-d
    nodes and the order**dimension weights in C order."""

    dimension: int
    order: int
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    @functools.cached_property
    def points(self):
        """Every point as a row, shape (order**dimension, dimension), built on first read."""
        return np.concatenate(list(self._blocks()))

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
    values = np.empty(len(rule.weights))
    start = 0
    for block in rule._blocks() if cubature else [rule.nodes]:
        for i, x in enumerate(block, start):
            y = float(f(x))
            if not math.isfinite(y):
                where = f"point index {i}" if cubature else f"node index {i} (x={float(x)!r})"
                raise ValueError(f"integrand returned non-finite value {y!r} at {where}")
            values[i] = y
        start += len(block)
    return values


def integrate_weighted(f, rule):
    """sum_i w_i f(x_i) over a QuadratureRule, i.e. int e^{-x^2/2} f(x) dx,
    or over a CubatureRule, int e^{-|x|^2/2} f(x) dx on R^d.

    Exact (to rounding) whenever f is a polynomial of degree <= 2N-1 in
    each variable.
    """
    return float(np.dot(rule.weights, integrand_values(f, rule)))


integrate_cubature = integrate_weighted


def whole_line_terms(f, rule):
    """w_i e^{x_i^2/2} f(x_i) per node, so that their sum is int f(x) dx.

    A node where f is exactly 0 contributes 0 even where e^{x^2/2}
    overflows; that overflow raises QuadratureRangeWarning first.
    """
    whole = rule.whole_line_weights
    if rule._whole_line_finite:
        return integrand_values(f, rule) * whole
    warnings.warn(
        f"e^(x^2/2) overflows at the outer nodes of the order-{rule.order} rule; "
        "whole-line reweighting is out of range there",
        QuadratureRangeWarning,
        stacklevel=3,
    )
    values = integrand_values(f, rule)
    return values * np.where(values == 0.0, 0.0, whole)


def integrate_whole_line(f, rule):
    """int f(x) dx over the real line via f(x) = [f(x) e^{x^2/2}] e^{-x^2/2}.

    Accurate when f(x) e^{x^2/2} is moderate at the outermost nodes.
    """
    return float(np.sum(whole_line_terms(f, rule)))


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
    weights = functools.reduce(np.multiply.outer, [base.weights] * d)
    return CubatureRule(dimension=d, order=N, nodes=base.nodes, weights=weights.ravel())
