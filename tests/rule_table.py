"""The Gauss-Hermite rule table, src/hermite_kit/gauss_hermite.bin, and the
builder that makes it.

The library reads its rules (N = 1..200) from that file and builds none.  The
builder here is the reference they were made with, and tests/test_rule_table.py
checks the file against it.  Nodes start as the eigenvalues of the Jacobi matrix
of the monic three-term recurrence (zero diagonal, off-diagonals sqrt(1..N-1))
from numpy's dense symmetric eigensolver (Golub & Welsch 1969).  Newton steps on
the unit-norm weighted Hermite function then polish every node at once, one
two-row He recurrence over all nodes per step, and the nodes are symmetrized
about the origin.
Weights use the closed form sqrt(2*pi) N! / [N He_{N-1}(x_i)]^2 rewritten in
the overflow-safe weighted form e^{-x^2/2} / (N psi_{N-1}(x_i)^2).

The file holds, for N = 1..200 in turn, the nonnegative half of the N-point
rule: its ceil(N/2) nodes, ascending, then their weights, as little-endian
doubles.  The rest of a rule is the mirror image of that half, bit for bit.

    python tests/rule_table.py    # rewrite gauss_hermite.bin
"""

import functools
import math
import pathlib
import sys

import numpy as np

if __name__ == "__main__":  # run as a script: the checkout's hermite_kit, installed or not
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from hermite_kit.polynomials import _RULE_TABLE, MAX_ORDER, SQRT_TWO_PI, eval_hermite_function
from hermite_kit.quadrature import QuadratureRule

_NEWTON_MAX_ITER = 100
_NODE_RESIDUAL_TOL = 1e-13


class NodeConvergenceError(RuntimeError):
    """Raised when Newton polishing leaves a node above the residual tolerance."""


def orthonormal_residual(N, x):
    # psi_N(x) = he_N(x) / sqrt(sqrt(2 pi) N!) from the scalar kernel, not from
    # the array pair with which the builder polishes the nodes
    return eval_hermite_function(N, x) * math.exp(
        -0.5 * (math.lgamma(N + 1) + math.log(SQRT_TWO_PI)))


def _orthonormal_pair(n, x):
    # (psi_n(x), psi_{n-1}(x)) at the nodes x, psi_n = he_n / sqrt(sqrt(2 pi) n!),
    # both O(1) and finite there; n! enters exactly, shifted by an even power of two.
    # He_(n-1) and He_n by two rows of the recurrence over all nodes, n >= 1
    f = math.factorial(n)
    shift = max(f.bit_length() - 64, 0) & ~1
    scale = 1.0 / math.sqrt(SQRT_TWO_PI * (f >> shift))
    prev, cur = np.ones_like(x), x
    for k in range(1, n):
        prev, cur = cur, x * cur - k * prev
    weight = scale * np.exp(-x * x / 4.0)
    prev, cur = prev * weight, cur * weight
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


def table_bytes():
    """The bytes of gauss_hermite.bin, from the builder."""
    halves = []
    for N in range(1, MAX_ORDER + 1):
        rule = _build_rule(N)
        halves += [rule.nodes[N // 2:], rule.weights[N // 2:]]
    return np.concatenate(halves).astype("<f8").tobytes()


if __name__ == "__main__":
    data = table_bytes()
    pathlib.Path(_RULE_TABLE).write_bytes(data)
    print(f"wrote {len(data)} bytes to {_RULE_TABLE}")
