"""Rank-n Chebyshev-Hermite tensors on R^d.

A component He^(n)_(a1..an)(x) factorizes into a product of 1-d polynomials,
one per coordinate, with the degree given by how often that coordinate
appears among the indices.
"""

from __future__ import annotations

import math

from .polynomials import PROBABILIST, _ldexp, _recurrence, _rounded


def index_multiplicities(indices, dimension):
    """How many times each coordinate 0..d-1 occurs among the indices."""
    counts = [0] * dimension
    for a in indices:
        if not 0 <= a < dimension:
            raise ValueError(f"index {a} outside dimension {dimension}")
        counts[a] += 1
    return tuple(counts)


def tensor_component(indices, point):
    """Value of the rank-len(indices) tensor component at a d-vector, rounded
    once: the product keeps its power of two apart, so factors past double
    range whose product is inside it give a finite value."""
    counts = index_multiplicities(indices, len(point))
    value, exponent = 1.0, 0
    for degree, x in zip(counts, point):
        if degree or x != x:  # He_0 = 1 is skipped; a nan goes on to the kernel's refusal
            _, cur, e = _recurrence(degree, _rounded(x), PROBABILIST)
            cur, s = math.frexp(cur)  # a subnormal factor too: rounded only with the product
            value, t = math.frexp(value * cur)
            exponent += e + s + t
    value = _ldexp(value, exponent)
    return value if value == value else 0.0  # 0 * inf: a factor that is exactly 0 wins
