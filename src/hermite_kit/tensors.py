"""Rank-n Chebyshev-Hermite tensors on R^d.

A component He^(n)_(a1..an)(x) factorizes into a product of 1-d polynomials,
one per coordinate, with the degree given by how often that coordinate
appears among the indices.
"""

from __future__ import annotations

from .polynomials import eval_hermite


def index_multiplicities(indices, dimension):
    """How many times each coordinate 0..d-1 occurs among the indices."""
    counts = [0] * dimension
    for a in indices:
        if not 0 <= a < dimension:
            raise ValueError(f"index {a} outside dimension {dimension}")
        counts[a] += 1
    return tuple(counts)


def tensor_component(indices, point):
    """Value of the rank-len(indices) tensor component at a d-vector."""
    counts = index_multiplicities(indices, len(point))
    value = 1.0
    for degree, x in zip(counts, point):
        if degree or x != x:  # He_0 = 1 is skipped; a nan goes on to the kernel's refusal
            value *= eval_hermite(degree, x)
    return value if value == value else 0.0  # 0 * inf: a factor that is exactly 0 wins
