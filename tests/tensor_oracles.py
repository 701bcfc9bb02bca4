"""Test-only references for the rank-n Hermite tensors.

The rank-lowering recurrence

    He^(n+1)_(a, rest) = x_a He^(n)_rest - sum_k delta(a, rest_k) He^(n-1)_(rest minus k)

evaluates a component independently of the library's product form, and the
orthogonality constant is written out from its closed form.
"""

import math

from hermite_kit.polynomials import index_multiplicities


def tensor_component_recursive(indices, point):
    """Same component evaluated through the rank-lowering recurrence."""
    indices = tuple(indices)
    if not indices:
        return 1.0
    a, rest = indices[0], indices[1:]
    value = float(point[a]) * tensor_component_recursive(rest, point)
    for k, b in enumerate(rest):
        if b == a:
            value -= tensor_component_recursive(rest[:k] + rest[k + 1 :], point)
    return value


def orthogonality_normalization(indices_a, indices_b, dimension):
    """Exact value of the weighted inner product of two tensor components,
    divided by nothing: (2*pi)^(d/2) * prod_i n_i! when the index tuples
    are permutations of each other, else 0.
    """
    counts_a = index_multiplicities(indices_a, dimension)
    counts_b = index_multiplicities(indices_b, dimension)
    if counts_a != counts_b:
        return 0.0
    value = (2.0 * math.pi) ** (dimension / 2.0)
    for c in counts_a:
        value *= math.factorial(c)
    return value
