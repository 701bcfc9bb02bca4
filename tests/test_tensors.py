"""Multidimensional Hermite tensor components."""

import itertools
import math

import numpy as np
import pytest

from hermite_kit import tensor_component
from hermite_kit.polynomials import index_multiplicities
from tensor_oracles import orthogonality_normalization, tensor_component_recursive

RNG = np.random.default_rng(20240811)
POINTS = [RNG.uniform(-2.5, 2.5, size=3) for _ in range(5)]


def explicit_low_rank(indices, x):
    """Closed forms for ranks 0..3, written out index by index."""
    if len(indices) == 0:
        return 1.0
    if len(indices) == 1:
        return x[indices[0]]
    if len(indices) == 2:
        a, b = indices
        return x[a] * x[b] - (1.0 if a == b else 0.0)
    a, b, c = indices
    value = x[a] * x[b] * x[c]
    value -= x[a] * (1.0 if b == c else 0.0)
    value -= x[b] * (1.0 if a == c else 0.0)
    value -= x[c] * (1.0 if a == b else 0.0)
    return value


class TestComponents:
    @pytest.mark.parametrize("rank", [0, 1, 2, 3])
    def test_matches_explicit_formulas(self, rank):
        for indices in itertools.product(range(3), repeat=rank):
            for x in POINTS:
                assert tensor_component(indices, x) == pytest.approx(
                    explicit_low_rank(indices, x), rel=1e-12, abs=1e-12
                )

    @pytest.mark.parametrize("rank", [0, 1, 2, 3, 4])
    def test_product_form_matches_recurrence(self, rank):
        for indices in itertools.product(range(2), repeat=rank):
            for x in POINTS:
                point = x[:2]
                assert tensor_component(indices, point) == pytest.approx(
                    tensor_component_recursive(indices, point), rel=1e-11, abs=1e-11
                )

    def test_symmetry_under_index_permutation(self):
        x = POINTS[0]
        for perm in itertools.permutations((0, 1, 1, 2)):
            assert tensor_component(perm, x) == pytest.approx(
                tensor_component((0, 1, 1, 2), x), rel=1e-12
            )

    def test_factors_past_double_range_with_a_finite_product(self):
        # He_2(1e200) = 1e400 - 1 overflows on its own; times He_1(1e-300) it is 1e100
        assert tensor_component((0, 0, 1), (1e200, 1e-300)) == pytest.approx(1e100, rel=1e-15)
        assert tensor_component((0, 0, 1), (1e200, -1e-300)) == pytest.approx(-1e100, rel=1e-15)
        assert tensor_component((0, 0, 0, 1), (1e200, 1e-300)) == pytest.approx(1e300, rel=1e-15)
        # past double range the product saturates or underflows with its sign
        assert tensor_component((0, 0, 0, 0, 1), (-1e200, -1e-300)) == -math.inf
        assert math.copysign(1.0, tensor_component((0, 1, 1, 1), (1e-300, 1e-100))) == -1.0

    def test_a_subnormal_product_is_rounded_once(self):
        # -2.5 * 7 units of 2^-1074 is -17.5 units, -18 under one rounding; a factor
        # rounded to the subnormal grid before its power of two gives -16
        assert tensor_component((0, 1), (-2.5, 3.5e-323)) == -2.5 * 3.5e-323 == -9e-323

    def test_a_nan_coordinate_is_refused_also_at_degree_0(self):
        with pytest.raises(ValueError, match="^x must not be nan$"):
            tensor_component((0,), (0.5, math.nan))

    def test_multiplicities(self):
        assert index_multiplicities((0, 1, 1, 2), 3) == (1, 2, 1)
        with pytest.raises(ValueError):
            index_multiplicities((3,), 3)


class TestOrthogonalityNormalization:
    def test_permuted_indices_share_value(self):
        assert orthogonality_normalization((0, 1), (1, 0), 2) == pytest.approx(
            (2 * np.pi) ** 1.0
        )

    def test_mismatched_multiplicities_vanish(self):
        assert orthogonality_normalization((0, 0), (0, 1), 2) == 0.0

    def test_repeated_index_factorials(self):
        value = orthogonality_normalization((0, 0), (0, 0), 2)
        assert value == pytest.approx((2 * np.pi) * 2.0)
