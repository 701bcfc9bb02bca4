"""Density/function expansions, deconvolution, and the Fourier eigencheck."""

import itertools
import math
import re
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hermite_kit import (
    DENSITY_WEIGHTED,
    PLAIN_RV,
    ExactPolynomial,
    HermiteSeries,
    StandardizedMoments,
    WCETensorCoeffs,
    eval_hermite,
    evaluate_series,
    fourier_eigen_check,
    fourier_hermite_coeffs,
    gauss_hermite_rule,
    gaussian_mixture_deconvolve,
    gram_charlier_density,
    hermite_table,
    integrate_cubature,
    integrate_weighted,
    integrate_whole_line,
    series_tail_indicator,
    tensor_cubature,
    wce_coeffs_1d,
    wce_coeffs_multi,
    wce_reconstruct,
    weierstrass_preimage_polynomial,
)
from hermite_kit import cli, expansions, quadrature
from hermite_kit.quadrature import _multiplicities, _normalized
from hermite_kit.polynomials import hermite_explicit
from hermite_kit.polynomials import index_multiplicities
from tensor_oracles import tensor_component_recursive

SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


def shifted_gaussian(mu):
    return lambda x: math.exp(-0.5 * (x - mu) ** 2) / SQRT_TWO_PI


class CountingIntegrand:
    def __init__(self, f):
        self.f = f
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.f(x)


# Oracles: one quadrature per coefficient, calling the integrand again for
# every degree or index tuple.

def per_degree_fourier_hermite(f, order, quad_order):
    rule = gauss_hermite_rule(quad_order)
    return [
        integrate_whole_line(lambda x: eval_hermite(n, x) * f(x), rule)
        / (SQRT_TWO_PI * math.factorial(n))
        for n in range(order + 1)
    ]


def per_degree_wce_1d(f, order, quad_order):
    rule = gauss_hermite_rule(quad_order)
    return [
        integrate_weighted(lambda y: eval_hermite(n, y) * f(y), rule)
        / (SQRT_TWO_PI * math.factorial(n))
        for n in range(order + 1)
    ]


def per_tuple_wce_multi(f, dimension, order, quad_order):
    rule = tensor_cubature(dimension, quad_order)
    normalization = (2.0 * math.pi) ** (dimension / 2.0)
    tensors = []
    for rank in range(order + 1):
        tensor = np.empty((dimension,) * rank)
        for indices in itertools.product(range(dimension), repeat=rank):
            integral = integrate_cubature(
                lambda p: tensor_component_recursive(indices, p) * f(p), rule
            )
            tensor[indices] = integral / (normalization * math.factorial(rank))
        tensors.append(tensor)
    return tensors


class TestFourierHermite:
    def test_standard_gaussian_coefficients(self):
        series = fourier_hermite_coeffs(shifted_gaussian(0.0), 10)
        assert series.convention == DENSITY_WEIGHTED
        assert series.coeffs[0] == pytest.approx(1.0 / SQRT_TWO_PI, rel=1e-12)
        for c in series.coeffs[1:]:
            assert abs(c) <= 1e-12

    def test_quad_order_below_order_plus_two_is_rejected(self):
        with pytest.raises(ValueError, match="^quad_order must be at least 5, got 4$"):
            fourier_hermite_coeffs(shifted_gaussian(0.0), 3, 4)
        with pytest.raises(ValueError, match="^quadrature order must be a positive integer, got -4"):
            fourier_hermite_coeffs(shifted_gaussian(0.0), 3, -4)
        assert fourier_hermite_coeffs(shifted_gaussian(0.0), 3, 5).truncation == 3

    def test_shifted_gaussian_closed_form(self):
        # coefficients of the mean-mu unit Gaussian are mu^n / (sqrt(2*pi) n!)
        for mu in (0.5, 1.0):
            series = fourier_hermite_coeffs(shifted_gaussian(mu), 12)
            for n, c in enumerate(series.coeffs):
                expected = mu**n / (SQRT_TWO_PI * math.factorial(n))
                assert c == pytest.approx(expected, rel=1e-10, abs=1e-14)

    def test_specific_third_coefficient(self):
        series = fourier_hermite_coeffs(shifted_gaussian(0.5), 5)
        assert series.coeffs[3] == pytest.approx(0.125 / (6 * SQRT_TWO_PI), rel=1e-10)

    def test_zero_density(self):
        series = fourier_hermite_coeffs(lambda x: 0.0, 6)
        assert series.coeffs == (0.0,) * 7

    def test_round_trip_reconstruction(self):
        for mu in (0.0, 0.5, 1.0):
            density = shifted_gaussian(mu)
            series = fourier_hermite_coeffs(density, 30)
            for x in np.linspace(-4.0, 4.0, 20):
                assert abs(evaluate_series(series, x) - density(x)) <= 1e-8

    def test_mode_value_recovered(self):
        series = fourier_hermite_coeffs(shifted_gaussian(0.5), 30)
        assert evaluate_series(series, 0.5) == pytest.approx(1.0 / SQRT_TWO_PI, rel=1e-12)

    def test_parseval_identity(self):
        # sum sqrt(2*pi) n! a_n^2 = int f(x)^2 e^{x^2/2} dx
        mu = 0.5
        series = fourier_hermite_coeffs(shifted_gaussian(mu), 30)
        lhs = sum(
            SQRT_TWO_PI * math.factorial(n) * c * c for n, c in enumerate(series.coeffs)
        )
        rule = gauss_hermite_rule(60)
        rhs = integrate_whole_line(
            lambda x: shifted_gaussian(mu)(x) ** 2 * math.exp(0.5 * x * x), rule
        )
        assert lhs == pytest.approx(rhs, rel=1e-6)


class TestOneEvaluationPerNode:
    def test_fourier_hermite_calls_f_once_per_node(self):
        f = CountingIntegrand(shifted_gaussian(0.3))
        fourier_hermite_coeffs(f, 30, 70)
        assert f.calls == 70

    def test_wce_1d_calls_f_once_per_node(self):
        f = CountingIntegrand(math.sin)
        wce_coeffs_1d(f, 21, 60)
        assert f.calls == 60

    def test_wce_multi_calls_f_once_per_point(self):
        f = CountingIntegrand(lambda p: p[0] * p[1] ** 2 + p[2])
        wce_coeffs_multi(f, 3, 4, 7)
        assert f.calls == 7**3

    @pytest.mark.parametrize("order", [30, 60, 90])
    def test_fourier_hermite_matches_per_degree_quadrature(self, order):
        density = lambda x: 0.7 * shifted_gaussian(0.4)(x) + 0.3 * shifted_gaussian(-1.1)(x)
        quad_order = 2 * order + 12
        want = per_degree_fourier_hermite(density, order, quad_order)
        got = fourier_hermite_coeffs(density, order, quad_order).coeffs
        scale = max(abs(a) for a in want)
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-12 * scale

    @pytest.mark.parametrize("order", [30, 60, 90])
    def test_wce_1d_matches_per_degree_quadrature(self, order):
        f = lambda y: math.sin(y) + 0.25 * y**3
        quad_order = 2 * order + 12
        want = per_degree_wce_1d(f, order, quad_order)
        got = wce_coeffs_1d(f, order, quad_order).coeffs
        scale = max(abs(b) for b in want)
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-12 * scale

    def test_wce_multi_matches_per_tuple_quadrature(self):
        f = lambda p: 1.5 * p[0] ** 2 * p[1] - p[1] * p[2] ** 3 + 0.5 * p[2] + math.cos(p[0])
        want = per_tuple_wce_multi(f, 3, 4, 6)
        got = wce_coeffs_multi(f, 3, 4, 6).tensors
        scale = max(float(np.max(np.abs(t))) for t in want)
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert np.max(np.abs(g - w), initial=0.0) <= 1e-12 * scale

    def test_non_finite_integrand_names_the_node(self):
        rule = gauss_hermite_rule(20)
        bad = lambda x: math.nan if x == rule.nodes[3] else 1.0
        with pytest.raises(ValueError, match="node index 3"):
            fourier_hermite_coeffs(bad, 5, 20)
        with pytest.raises(ValueError, match="node index 3"):
            wce_coeffs_1d(bad, 5, 20)
        # point 4 of the 2-d rule is (node 0, node 4): the last axis runs fastest
        corner = lambda p: math.inf if (p[0], p[1]) == (rule.nodes[0], rule.nodes[4]) else 1.0
        with pytest.raises(ValueError, match="point index 4"):
            wce_coeffs_multi(corner, 2, 2, 20)

    def test_bad_node_prints_as_a_plain_float(self):
        # 1e308 y is -inf at the first node of the default 16-point rule
        with pytest.raises(ValueError) as refused:
            wce_coeffs_1d(ExactPolynomial((0, 1e308)), 2)
        message = str(refused.value)
        assert message.startswith("integrand returned non-finite value -inf at node index 0")
        assert "(x=-6.630878198393131)" in message and "np." not in message


class TestSeriesEvaluation:
    def test_zero_series(self):
        series = HermiteSeries(coeffs=(0.0, 0.0, 0.0), convention=DENSITY_WEIGHTED)
        assert evaluate_series(series, 1.3) == 0.0

    def test_unit_constant_density_weighted(self):
        series = HermiteSeries(coeffs=(1.0,), convention=DENSITY_WEIGHTED)
        assert evaluate_series(series, 0.0) == 1.0
        assert evaluate_series(series, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-15)

    def test_plain_convention_is_polynomial(self):
        series = HermiteSeries(coeffs=(1.0, 0.0, 1.0), convention=PLAIN_RV)
        # He_0 + He_2 = x^2
        assert evaluate_series(series, 3.0) == pytest.approx(9.0, rel=1e-15)

    def test_overflowing_float_terms_give_the_exact_value(self):
        plain = HermiteSeries(coeffs=(0.0, 0.0, -1.0, 1.0), convention=PLAIN_RV)
        assert evaluate_series(plain, 1e308) == math.inf  # float terms: -inf + inf
        assert evaluate_series(plain, -1e308) == -math.inf
        big = HermiteSeries(coeffs=(0.0, 1e308, 0.0, 1e308), convention=PLAIN_RV)
        assert evaluate_series(big, 1.0) == -1e308  # 1e308 (He_1 + He_3)(1), He_3(1) = -2
        weighted = HermiteSeries(coeffs=(1.0, 2.0, 1e308), convention=DENSITY_WEIGHTED)
        assert evaluate_series(weighted, 1e308) == 0.0
        assert evaluate_series(weighted, -1e200) == 0.0
        # He_2(30) = 899: 1e308 * 899 overflows, and the 1 + 2 He_1(30) terms are negligible
        expected = 899.0 * (1e308 * math.exp(-450.0))
        assert evaluate_series(weighted, 30.0) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("coeffs, at_inf, at_minus_inf", [
        ((1.0, 0.0, 1.0), math.inf, math.inf),  # x^2
        ((1.0, 2.0), math.inf, -math.inf),
        ((1.0, 0.0, 1.0, -2.0, 0.0), -math.inf, math.inf),  # the highest nonzero term wins
        ((3.0, 0.0, 0.0), 3.0, 3.0),  # a constant stays c_0
        ((3.0,), 3.0, 3.0),
        ((0.0, 0.0), 0.0, 0.0),
    ])
    def test_infinite_x_is_the_limit(self, coeffs, at_inf, at_minus_inf):
        plain = HermiteSeries(coeffs=coeffs, convention=PLAIN_RV)
        assert evaluate_series(plain, math.inf) == at_inf
        assert evaluate_series(plain, -math.inf) == at_minus_inf
        weighted = HermiteSeries(coeffs=coeffs, convention=DENSITY_WEIGHTED)
        assert evaluate_series(weighted, math.inf) == evaluate_series(weighted, -math.inf) == 0.0

    def test_subnormal_weight_against_mpmath(self):
        # past |x| = 37.6 e^{-x^2/2} is subnormal or 0 in floats: the sum is exact,
        # the weight split as 2**e e**r, so the result keeps its normal-float bits
        coeffs = (1e280, -2e279, 0.0, 3e278, 1e280, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1e280)
        # 1e300 He_10(40) is about 1e316, past double range before the weight applies
        cases = [(coeffs, x) for x in (37.7, 38.0, 38.4, 38.6, -39.0, 40.0, 45.0)]
        cases.append(((0.0,) * 10 + (1e300,), 40.0))
        with mpmath.workdps(60):
            for coeffs, x in cases:
                series = HermiteSeries(coeffs=coeffs, convention=DENSITY_WEIGHTED)
                prev, cur, want = mpmath.mpf(0), mpmath.mpf(1), mpmath.mpf(0)
                for k, c in enumerate(coeffs):
                    want += mpmath.mpf(c) * cur
                    prev, cur = cur, x * cur - k * prev
                want *= mpmath.exp(-mpmath.mpf(x) ** 2 / 2)
                assert evaluate_series(series, x) == pytest.approx(float(want), rel=1e-12, abs=0), x

    def test_tail_indicator(self):
        series = fourier_hermite_coeffs(shifted_gaussian(0.5), 20)
        # convergent case: the indicator must be tiny by order 20
        assert series_tail_indicator(series) <= 1e-10

    def test_rejects_unknown_convention(self):
        with pytest.raises(ValueError):
            HermiteSeries(coeffs=(1.0,), convention="other")

    def test_rejects_empty_or_non_finite_coeffs(self):
        with pytest.raises(ValueError):
            HermiteSeries(coeffs=(), convention=PLAIN_RV)
        with pytest.raises(ValueError):
            HermiteSeries(coeffs=(1.0, math.inf), convention=PLAIN_RV)


class TestGramCharlier:
    def test_gaussian_moments_give_exact_gaussian(self):
        m = StandardizedMoments(mu=0.3, sigma=1.7, nu=(0.0, 3.0))
        for x in (-2.0, 0.0, 0.3, 1.5, 4.0):
            z = (x - 0.3) / 1.7
            expected = math.exp(-z * z / 2.0) / (SQRT_TWO_PI * 1.7)
            assert gram_charlier_density(m, 4, x) == expected

    def test_odd_skew_term_vanishes_at_center(self):
        m = StandardizedMoments(mu=0.0, sigma=1.0, nu=(0.5, 3.0))
        assert gram_charlier_density(m, 4, 0.0) == pytest.approx(1.0 / SQRT_TWO_PI, rel=1e-15)

    def test_kurtosis_term_at_center(self):
        m = StandardizedMoments(mu=0.0, sigma=1.0, nu=(0.0, 4.0))
        assert gram_charlier_density(m, 4, 0.0) == pytest.approx(1.125 / SQRT_TWO_PI, rel=1e-15)

    def test_generic_path_on_gaussian_moments(self):
        # with every moment at its Gaussian value all corrections vanish,
        # so the order-6 generic path must still return the exact density
        m = StandardizedMoments(mu=0.2, sigma=1.3, nu=(0.0, 3.0, 0.0, 15.0))
        for x in (-1.0, 0.2, 2.0):
            closed = gram_charlier_density(m, 4, x)
            assert gram_charlier_density(m, 6, x) == pytest.approx(closed, rel=1e-13)

    def test_generic_path_order_six_terms(self):
        from hermite_kit import eval_hermite

        m = StandardizedMoments(mu=0.0, sigma=1.0, nu=(0.4, 3.6, 1.0, 16.0))
        # He_5 = x^5 - 10x^3 + 15x, He_6 = x^6 - 15x^4 + 45x^2 - 15
        e_he5 = 1.0 - 10.0 * 0.4
        e_he6 = 16.0 - 15.0 * 3.6 + 45.0 - 15.0
        for x in (-1.0, 0.2, 2.0):
            base = math.exp(-x * x / 2.0) / SQRT_TWO_PI
            expected = gram_charlier_density(m, 4, x) + base * (
                e_he5 / math.factorial(5) * eval_hermite(5, x)
                + e_he6 / math.factorial(6) * eval_hermite(6, x)
            )
            assert gram_charlier_density(m, 6, x) == pytest.approx(expected, rel=1e-12)

    def test_higher_order_requires_supplied_moments(self):
        m = StandardizedMoments(mu=0.0, sigma=1.0, nu=(0.1, 3.2))
        with pytest.raises(ValueError, match="nu_5"):
            gram_charlier_density(m, 5, 0.0)

    def test_negative_order_is_not_supplied(self):
        m = StandardizedMoments(mu=0.0, sigma=1.0, nu=(0.1, 3.2, 0.3, 15.0))
        for k in (-1, -2, -7):
            with pytest.raises(ValueError, match=f"nu_{k}"):
                m.standardized(k)

    def test_negative_values_returned_as_is(self):
        # strong negative excess kurtosis drives the truncated density
        # negative in the flanks; it must not be clipped
        m = StandardizedMoments(mu=0.0, sigma=1.0, nu=(0.0, 1.2))
        values = [gram_charlier_density(m, 4, x) for x in np.linspace(-4.0, 4.0, 81)]
        assert min(values) < 0.0

    def test_sigma_validation(self):
        with pytest.raises(ValueError):
            StandardizedMoments(mu=0.0, sigma=0.0)

    def test_far_tails_are_zero_not_nan(self):
        far = StandardizedMoments(mu=1e308, sigma=1.0, nu=(0.0, 3.0))
        assert gram_charlier_density(far, 4, 0.0) == 0.0
        assert gram_charlier_density(far, 4, -1e308) == 0.0  # z overflows to -inf
        wide = StandardizedMoments(mu=0.0, sigma=1e-300, nu=(1e308, 1e308))
        assert gram_charlier_density(wide, 4, 1.0) == 0.0

    @pytest.mark.parametrize("order, nu", [
        (5, (1e308, 3.0, -1e308)),  # E[He_5(Z)] = nu_5 - 10 nu_3 overflows to -inf
        (8, (0.0, 1e308, 0.0, 1e308, 0.0, 1.0)),  # E[He_8(Z)]: +inf - inf, a nan
    ])
    def test_non_finite_coefficient_raises(self, order, nu):
        m = StandardizedMoments(mu=0.0, sigma=1.0, nu=nu)
        for x in (0.5, 40.0, -1e308):
            with pytest.raises(ValueError, match="^series coefficients must be finite$"):
                gram_charlier_density(m, order, x)

    def test_orders_past_170_are_refused(self):
        m = StandardizedMoments(mu=0.0, sigma=1.0, nu=(0.0, 3.0) + (0.0,) * 170)
        assert math.isfinite(gram_charlier_density(m, 170, 0.5))
        with pytest.raises(ValueError, match="^order must be 0..170, got 171$"):
            gram_charlier_density(m, 171, 0.5)

    def test_subnormal_weight_against_mpmath(self):
        # e^{-z^2/2} is subnormal for 37.6 < |z| < 38.6; huge moments keep the density normal
        m = StandardizedMoments(mu=0.5, sigma=1.0, nu=(1e280, 1e281))
        for x in (38.2, 38.5, -37.5, 38.9):
            z = x - 0.5
            coeffs = (1.0, 0.0, 0.0, 1e280 / 6.0, (1e281 - 3.0) / 24.0)
            with mpmath.workdps(60):
                he = (1, z, z * z - 1, z**3 - 3 * z, z**4 - 6 * z * z + 3)
                want = sum(mpmath.mpf(c) * mpmath.mpf(h) for c, h in zip(coeffs, he))
                want *= mpmath.exp(-mpmath.mpf(z) ** 2 / 2) / mpmath.sqrt(2 * mpmath.pi)
            assert gram_charlier_density(m, 4, x) == pytest.approx(float(want), rel=1e-12, abs=0), x

    def test_overflowing_coefficient_times_underflowing_weight(self):
        # (nu_4 - 3)/24 He_4(40) overflows and e^-800 underflows; the product does neither
        m = StandardizedMoments(mu=0.0, sigma=1.0, nu=(0.0, 1e308))
        he4 = 40.0**4 - 6.0 * 40.0**2 + 3.0
        log_value = math.log(1e308 / 24.0) + math.log(he4) - 800.0 - math.log(SQRT_TWO_PI)
        assert gram_charlier_density(m, 4, 40.0) == pytest.approx(math.exp(log_value), rel=1e-12)

    @pytest.mark.parametrize("mu, sigma, x, want", [
        (0.0, 1e308, 1.0, 3.989422804014326e-309),         # sqrt(2 pi) sigma overflows
        (-1.5e308, 1e308, 1.5e308, 4.431848411938e-311),   # x - mu overflows too; z = 3
    ])
    def test_a_subnormal_density_past_an_overflowing_scale(self, mu, sigma, x, want):
        # the exact quotient of the series value by sqrt(2 pi) sigma, rounded once
        m = StandardizedMoments(mu=mu, sigma=sigma, nu=(0.0, 3.0))
        z = float((Fraction(x) - Fraction(mu)) / Fraction(sigma))
        series = evaluate_series(HermiteSeries((1.0,), DENSITY_WEIGHTED), z)
        exact = Fraction(series) / (Fraction(SQRT_TWO_PI) * Fraction(sigma))
        assert gram_charlier_density(m, 4, x) == float(exact) == want

    def test_past_double_range_the_intermediates_round_as_within_it(self):
        # x - mu and sqrt(2 pi) sigma each rounded to 53 bits, past double range
        # too, then z and the density each rounded once: on both sides of
        # sigma = 7.17e307 and of |x - mu| = 1.8e308
        def rounded(p):
            k = p.numerator.bit_length() - p.denominator.bit_length()
            ulp = Fraction(2) ** (k - (abs(p) < Fraction(2) ** k) - 52)
            return round(p / ulp) * ulp

        rng = np.random.default_rng(27)
        nu = (0.5, 3.5, -2.0)
        coeffs = (1.0, 0.0, 0.0, nu[0] / 6.0, (nu[1] - 3.0) / 24.0, (nu[2] - 10.0 * nu[0]) / 120.0)
        top = 1.7976931348623157e308
        sigmas = [*rng.uniform(7.0e307, top, 300).tolist(), *rng.uniform(1.0, 1e300, 20), 7.1e307]
        for sigma in sigmas:
            mu, x = (float(v) for v in min(4.0 * sigma, top) * rng.uniform(-1.0, 1.0, 2))
            z = float(rounded(Fraction(x) - Fraction(mu)) / Fraction(sigma))
            series = evaluate_series(HermiteSeries(coeffs, DENSITY_WEIGHTED), z)
            want = float(Fraction(series) / rounded(Fraction(SQRT_TWO_PI) * Fraction(sigma)))
            m = StandardizedMoments(mu=mu, sigma=sigma, nu=nu)
            assert gram_charlier_density(m, 5, x).hex() == want.hex(), (mu, sigma, x)

    def test_bitwise_the_sum_over_explicit_polynomials(self):
        # E[He_n(Z)] / n! summed over the coefficients of hermite_explicit(n) in
        # ascending power, then the same guarded series sum, at every order 0..170
        rng = np.random.default_rng(19)
        nu = tuple(rng.uniform(-1.0, 1.0, 168) * 2.0 ** rng.integers(0, 300, 168))
        m = StandardizedMoments(mu=0.25, sigma=1.5, nu=nu)
        coeffs = []
        for n in range(171):
            expected = 0.0
            for k, c in enumerate(hermite_explicit(n).coeffs):
                if c:
                    expected += float(c) * m.standardized(k)
            coeffs.append(expected / math.factorial(n))
        for x in (0.5, -2.0, 7.0):
            z = (x - 0.25) / 1.5
            for order in range(171):
                series = HermiteSeries(coeffs[: order + 1], DENSITY_WEIGHTED)
                want = evaluate_series(series, z) / (SQRT_TWO_PI * 1.5)
                assert gram_charlier_density(m, order, x).hex() == want.hex(), (order, x)

    @pytest.mark.parametrize("nu, order, k", [((), 3, 3), ((0.0, 3.0), 6, 5), ((0.1,), 9, 4)])
    def test_a_missing_moment_is_named(self, nu, order, k):
        m = StandardizedMoments(mu=0.0, sigma=1.0, nu=nu)
        with pytest.raises(ValueError, match=f"^standardized moment nu_{k} was not supplied$"):
            gram_charlier_density(m, order, 0.5)


class TestWienerChaos1D:
    def test_constant(self):
        series = wce_coeffs_1d(lambda y: 1.0, 4)
        assert series.convention == PLAIN_RV
        assert series.coeffs[0] == pytest.approx(1.0, rel=1e-13)
        assert all(abs(c) <= 1e-12 for c in series.coeffs[1:])

    def test_square(self):
        series = wce_coeffs_1d(lambda y: y * y, 5)
        expected = {0: 1.0, 2: 1.0}
        for n, c in enumerate(series.coeffs):
            assert c == pytest.approx(expected.get(n, 0.0), rel=1e-12, abs=1e-12)

    def test_cube(self):
        series = wce_coeffs_1d(lambda y: y**3, 5)
        expected = {1: 3.0, 3: 1.0}
        for n, c in enumerate(series.coeffs):
            assert c == pytest.approx(expected.get(n, 0.0), rel=1e-12, abs=1e-12)

    def test_inverse_explicit_expression(self):
        # y^k = k! sum_j He_(k-2j)(y) / (2^j (k-2j)! j!)
        for k in range(9):
            series = wce_coeffs_1d(lambda y, k=k: y**k, k + 1)
            for n, c in enumerate(series.coeffs):
                if (k - n) % 2 == 0 and n <= k:
                    j = (k - n) // 2
                    expected = math.factorial(k) / (
                        2**j * math.factorial(n) * math.factorial(j)
                    )
                else:
                    expected = 0.0
                assert c == pytest.approx(expected, rel=1e-11, abs=1e-10)

    def test_reconstruction_of_nonpolynomial(self):
        # truncation tail of sin at order 21 is ~ e/sqrt(21!) ~ 1e-9
        f = lambda y: math.sin(y)
        series = wce_coeffs_1d(f, 21, quad_order=60)
        for y in (-1.0, 0.0, 0.7, 2.0):
            assert evaluate_series(series, y) == pytest.approx(f(y), abs=1e-8)

    def test_explicit_zero_quad_order_is_rejected(self):
        # all four quadrature expansions refuse it with the rule builder's message
        for expansion in (lambda: wce_coeffs_1d(lambda y: y, 3, 0),
                          lambda: fourier_hermite_coeffs(shifted_gaussian(0.0), 3, 0),
                          lambda: wce_coeffs_multi(lambda p: 1.0, 2, 2, 0),
                          lambda: fourier_eigen_check(3, [0.0], 0)):
            with pytest.raises(ValueError, match="^quadrature order must be a positive integer, got 0"):
                expansion()

    def test_quad_order_below_order_plus_two_is_rejected(self):
        # a 3-point rule aliases: b_3 of He_3 at order 6 would read -2.6e-16, not 1
        f = CountingIntegrand(lambda y: y**3 - 3 * y)
        with pytest.raises(ValueError, match="^quad_order must be at least 8, got 3$"):
            wce_coeffs_1d(f, 6, 3)
        assert f.calls == 0
        assert wce_coeffs_1d(f, 6, 8).coeffs[3] == pytest.approx(1.0, rel=1e-12)


class TestOverflowingMoments:
    """sqrt(2 pi) n! times a coefficient can leave double range while the
    coefficient does not; the contraction is then redone on terms scaled by a
    power of two, which scales every coefficient exactly."""

    def test_issue_example_keeps_its_coefficient(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            series = fourier_hermite_coeffs(lambda x: 1e308 * math.exp(-x * x / 2), 0)
        assert series.coeffs[0] == pytest.approx(1e308, rel=1e-14)

    def test_terms_past_double_range_keep_their_coefficient(self):
        # weight times value overflows at the middle node of the 3-point rule; b_0 = a_0 do not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            wce = wce_coeffs_1d(lambda y: 1.5e308, 0, 3).coeffs
            weighted = fourier_hermite_coeffs(lambda x: 1.5e308 * math.exp(-x * x / 2), 0, 3).coeffs
        assert wce[0] == pytest.approx(1.5e308, rel=1e-14)
        assert weighted[0] == pytest.approx(1.5e308, rel=1e-14)

    def test_finite_moments_whose_sum_overflows_keep_their_bits(self):
        # m_0 = m_1 = sqrt(2 pi) 4e307 are finite though their sum is not; no retry runs
        f = lambda y: 4e307 * (1.0 + y)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            series = wce_coeffs_1d(f, 1, 3)
        rule = gauss_hermite_rule(3)
        moments = quadrature._rule_table(3, 1) @ (rule.weights * np.array([f(y) for y in rule.nodes]))
        with np.errstate(over="ignore"):
            assert np.isfinite(moments).all() and moments.sum() == math.inf
        assert series.coeffs == _normalized(moments)

    def test_scaled_retry_is_bitwise_a_power_of_two(self):
        g = lambda y: 1.75 + y / 16  # sqrt(2 pi) 1.75 2^1022 passes 2^1024
        density = shifted_gaussian(0.5)  # moment_0 = 1, so 2^1024 overflows it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            wce = wce_coeffs_1d(lambda y: math.ldexp(g(y), 1022), 3).coeffs
            weighted = fourier_hermite_coeffs(lambda x: math.ldexp(density(x), 1024), 6).coeffs
        assert wce == tuple(math.ldexp(c, 1022) for c in wce_coeffs_1d(g, 3).coeffs)
        base = fourier_hermite_coeffs(density, 6).coeffs
        assert weighted == tuple(math.ldexp(c, 1024) for c in base)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_a_coefficient_past_double_range_is_refused(self, sign):
        # int 1e308 e^{-x^2/200} dx / sqrt(2 pi) = 1e309
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="must be finite"):
                fourier_hermite_coeffs(lambda x: sign * 1e308 * math.exp(-x * x / 200), 0)

    def test_chaos_tensors_keep_a_constant_past_double_range(self):
        # sum_i w_i 1e308 = 2 pi 1e308 overflows; b^(0) = 1e308 does not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tensors = wce_coeffs_multi(lambda p: 1e308, 2, 2).tensors
        assert float(tensors[0]) == pytest.approx(1e308, rel=1e-14)
        assert all(np.isfinite(t).all() for t in tensors)
        assert np.abs(tensors[1]).max() < 1e308 * 1e-14

    def test_chaos_tensor_retry_is_bitwise_a_power_of_two(self):
        g = lambda p: 1.75 + p[0] / 16 - p[1] / 32  # (2 pi) 1.75 2^1022 passes 2^1024
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = wce_coeffs_multi(lambda p: math.ldexp(g(p), 1022), 2, 3).tensors
        base = wce_coeffs_multi(g, 2, 3).tensors
        assert all(np.array_equal(s, np.ldexp(b, 1022)) for s, b in zip(scaled, base))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_a_chaos_coefficient_past_double_range_is_inf(self, sign):
        # the 3-point weights sum to sqrt(2 pi) (1 + 4e-16) in floats, so b^(0) of the
        # largest double rounds past double range; wce_reconstruct refuses it by index
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tensors = wce_coeffs_multi(lambda p: sign * sys.float_info.max, 2, 1, 3).tensors
            assert float(tensors[0]) == sign * math.inf
            assert np.isfinite(tensors[1]).all()
            message = rf"^chaos coefficient b\(\) must be finite, got {sign * math.inf!r}$"
            with pytest.raises(ValueError, match=message):
                wce_reconstruct(WCETensorCoeffs(2, tensors), (0.0, 0.0))


class TestPastTheFloatFactorial:
    """n! leaves double range at n = 171, a little below the largest order
    a 200-point rule serves."""

    def test_moments_are_divided_by_the_exact_factorial(self):
        want = [1e300 / (SQRT_TWO_PI * math.factorial(n)) for n in range(171)]
        with mpmath.workdps(60):
            scale = mpmath.mpf(SQRT_TWO_PI) / mpmath.mpf(1e300)
            want += [float(1 / (scale * mpmath.factorial(n))) for n in range(171, 200)]
        assert _normalized(np.full(200, 1e300)) == tuple(want)
        coeffs = _normalized(np.array([1.0] * 171 + [math.inf, -math.inf, math.nan]))
        assert coeffs[171:173] == (math.inf, -math.inf) and math.isnan(coeffs[173])

    def test_normalized_is_bitwise_the_per_order_division(self):
        # the kept table of sqrt(2 pi) n! against the product formed at each n
        rng = np.random.default_rng(19)
        for size in (1, 5, 170, 171, 172, 200):
            moments = rng.uniform(-1.0, 1.0, size) * 10.0 ** rng.integers(-300, 308, size)
            moments[rng.integers(0, size, 3)] = rng.choice([math.inf, -math.inf, math.nan], 3)
            want = [m / (SQRT_TWO_PI * math.factorial(n)) if n <= 170 else m
                    if not math.isfinite(m) else float(Fraction(m) / (
                        Fraction(SQRT_TWO_PI) * math.factorial(n)))
                    for n, m in enumerate(moments.tolist())]
            assert list(map(float.hex, _normalized(moments))) == list(map(float.hex, want))

    def test_expansions_past_order_170(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            series = wce_coeffs_1d(lambda y: eval_hermite(175, y), 180, quad_order=200)
            assert series.coeffs[175] == pytest.approx(1.0, rel=1e-9)
            # a_0 = 1e309 is refused past order 170 as below it
            with pytest.raises(ValueError, match="must be finite"):
                fourier_hermite_coeffs(lambda x: 1e308 * math.exp(-x * x / 200), 180, 200)

    @pytest.mark.parametrize("mu, order", [(0.0, 180), (1e308, 198)])
    def test_orders_past_170(self, mu, order):
        # n! leaves double range at n = 171; a 200-point rule serves up to order 198

        def density(x):  # N(mu, 1) in plain floats: d * d overflows to inf, silently
            d = float(x) - mu
            return math.exp(-0.5 * (d * d)) / SQRT_TWO_PI

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            series = fourier_hermite_coeffs(density, order, 200)
        assert series.truncation == order and all(map(math.isfinite, series.coeffs))

    def test_tail_indicator_past_order_170(self):
        for n in (171, 180):  # the bits of n! past 64: odd at 171, even at 180
            series = HermiteSeries(coeffs=(0.0,) * n + (1e-150,), convention=PLAIN_RV)
            with mpmath.workdps(60):
                want = float(mpmath.mpf(1e-150) * mpmath.sqrt(mpmath.factorial(n)))
            assert series_tail_indicator(series) == pytest.approx(want, rel=1e-15)
        series = HermiteSeries(coeffs=(0.0,) * 199 + (-1e300,), convention=PLAIN_RV)
        assert series_tail_indicator(series) == math.inf


class TestWienerChaosMulti:
    def test_kept_multiplicity_index_is_the_per_entry_one(self):
        # b^(n) reads the moment grid at one fancy index per rank, built once per shape
        for dimension, rank in itertools.product(range(1, 4), range(5)):
            index = _multiplicities(dimension, rank)
            for indices in itertools.product(range(dimension), repeat=rank):
                got = tuple(int(axis[indices]) for axis in index)
                assert got == index_multiplicities(indices, dimension)

    def test_constant(self):
        coeffs = wce_coeffs_multi(lambda p: 1.0, 2, 2)
        assert float(coeffs.tensors[0]) == pytest.approx(1.0, rel=1e-12)
        assert np.allclose(coeffs.tensors[1], 0.0, atol=1e-12)
        assert np.allclose(coeffs.tensors[2], 0.0, atol=1e-12)

    def test_cross_product(self):
        coeffs = wce_coeffs_multi(lambda p: p[0] * p[1], 2, 2)
        b2 = coeffs.tensors[2]
        assert b2[0, 1] == pytest.approx(0.5, rel=1e-12)
        assert b2[1, 0] == pytest.approx(0.5, rel=1e-12)
        assert abs(b2[0, 0]) <= 1e-12 and abs(b2[1, 1]) <= 1e-12

    def test_square_of_first_coordinate(self):
        coeffs = wce_coeffs_multi(lambda p: p[0] ** 2, 2, 2)
        assert float(coeffs.tensors[0]) == pytest.approx(1.0, rel=1e-12)
        assert coeffs.tensors[2][0, 0] == pytest.approx(1.0, rel=1e-12)

    def test_tensor_symmetry(self):
        coeffs = wce_coeffs_multi(lambda p: p[0] ** 2 * p[1] + 0.5 * p[1], 2, 4)
        for rank, tensor in enumerate(coeffs.tensors):
            for perm_axes in itertools.permutations(range(rank)):
                assert np.allclose(tensor, np.transpose(tensor, perm_axes), atol=1e-9)

    def test_monomial_reconstruction_total_degree_4(self):
        for ex in range(5):
            for ey in range(5 - ex):
                f = lambda p, ex=ex, ey=ey: p[0] ** ex * p[1] ** ey
                coeffs = wce_coeffs_multi(f, 2, 4)
                for point in [np.array([0.3, -1.2]), np.array([1.0, 2.0])]:
                    assert wce_reconstruct(coeffs, point) == pytest.approx(
                        f(point), rel=1e-8, abs=1e-8
                    )

    @pytest.mark.parametrize("point, length", [((0.5, 0.25, 99.0), 3), ((0.5,), 1)])
    def test_reconstruction_refuses_a_point_of_the_wrong_length(self, point, length):
        # a third coordinate was dropped silently; a missing one failed deep in a term
        coeffs = wce_coeffs_multi(lambda p: p[0] + 2 * p[1], 2, 2)
        with pytest.raises(ValueError, match=f"^point has {length} coordinates, expected 2$"):
            wce_reconstruct(coeffs, point)
        assert wce_reconstruct(coeffs, (0.5, 0.25)) == pytest.approx(1.0, rel=1e-12)

    def test_budget_guards(self):
        with pytest.raises(ValueError):
            wce_coeffs_multi(lambda p: 1.0, 4, 2)
        with pytest.raises(ValueError):
            wce_coeffs_multi(lambda p: 1.0, 2, 5)

    def test_explicit_zero_quad_order_is_rejected(self):
        with pytest.raises(ValueError, match="positive integer, got 0"):
            wce_coeffs_multi(lambda p: 1.0, 2, 2, 0)

    def test_quad_order_below_order_plus_two_is_rejected(self):
        # a 2-point rule aliases: b^(3) of y^3 would read -0.333, not 1
        f = CountingIntegrand(lambda p: p[0] ** 3)
        with pytest.raises(ValueError, match="^quad_order must be at least 6, got 2$"):
            wce_coeffs_multi(f, 1, 4, quad_order=2)
        assert f.calls == 0
        assert wce_coeffs_multi(f, 1, 4, quad_order=6).tensors[3][0, 0, 0] == pytest.approx(1.0)


def _bits(result):
    # the exact bytes of a series' coefficients or of every chaos tensor
    arrays = result.tensors if hasattr(result, "tensors") else [result.coeffs]
    return [np.asarray(a, dtype=float).tobytes() for a in arrays]


def _small_keys():
    # every (Q, order) a built rule serves whose table the cache keeps, in order of Q
    return [(Q, order) for Q in range(2, 201) for order in range(Q - 1)
            if 8 * (order + 1) * Q <= quadrature._KEPT_TABLE_BYTES]


_CHAOS_INTEGRAND = lambda y: math.sin(y) + 0.25 * y**3


class TestRuleTableCache:
    """The He table of each (rule size, order) pair is kept between calls
    when it is at most 4 KiB, and built for its call when larger."""

    def test_cached_results_are_the_cold_ones_bit_for_bit(self):
        quadrature._kept_table.cache_clear()
        density = shifted_gaussian(0.3)
        calls = [(fourier_hermite_coeffs, density, order) for order in range(95)]
        calls += [(wce_coeffs_1d, _CHAOS_INTEGRAND, order) for order in range(95)]
        # the first pass fills the cache, the second reads the kept tables
        warm = [[_bits(expand(f, order)) for expand, f, order in calls] for _ in range(2)]
        for (expand, f, order), first, second in zip(calls, *warm):
            quadrature._kept_table.cache_clear()
            assert first == second == _bits(expand(f, order)), (expand.__name__, order)

    def test_chaos_tensors_share_the_one_dimensional_tables(self):
        f = lambda p: p[0] ** 2 * p[-1] + math.cos(p[0])
        info = quadrature._kept_table.cache_info
        for dimension, order in itertools.product((1, 2, 3), range(5)):
            quadrature._kept_table.cache_clear()
            cold = _bits(wce_coeffs_multi(f, dimension, order))
            assert (info().hits, info().misses, info().currsize) == (0, 1, 1)
            wce_coeffs_1d(_CHAOS_INTEGRAND, order)  # a hit on the same entry
            assert (info().hits, info().currsize) == (1, 1)
            assert _bits(wce_coeffs_multi(f, dimension, order)) == cold

    def test_tables_and_whole_line_weights_are_read_only(self):
        rule = gauss_hermite_rule(26)
        with np.errstate(over="ignore"):
            want = rule.weights * np.exp(0.5 * rule.nodes**2)
        assert rule.whole_line_weights.tobytes() == want.tobytes()
        assert rule.whole_line_weights is rule.whole_line_weights
        tables = [quadrature._rule_table(Q, order) for Q, order in ((26, 7), (200, 180))]
        assert tables[0].T.tolist() == [hermite_table(7, x) for x in rule.nodes.tolist()]  # kept
        assert tables[1].shape == (181, 200)  # built for its call
        for array in (*tables, rule.whole_line_weights):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    def test_every_table_a_rule_serves_is_finite(self):
        # the numpy rows need no guard: at the largest order a Q-point rule serves, Q - 2,
        # every entry is finite without a warning (the largest is 5.4e265, at Q = 200), and
        # each column holds the scalar kernel's bits
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tables = {Q: quadrature._table(Q, Q - 2) for Q in range(2, 201)}
        assert all(np.isfinite(table).all() for table in tables.values())
        assert 5e265 < max(np.abs(table).max() for table in tables.values()) < 6e265
        for Q in (2, 3, 17, 64, 131, 199, 200):
            nodes = gauss_hermite_rule(Q).nodes.tolist()
            scalar = np.array([hermite_table(Q - 2, x) for x in nodes])
            assert tables[Q].T.tobytes() == scalar.tobytes(), Q

    def test_a_table_past_the_bound_is_returned_but_not_kept(self):
        quadrature._kept_table.cache_clear()
        # 8 (order + 1) Q bytes: 2400 and exactly 4096 are kept, 4608 and up are not
        kept = [quadrature._rule_table(Q, order) for Q, order in ((30, 9), (64, 7))]
        large = [quadrature._rule_table(Q, order) for Q, order in ((64, 8), (200, 180))]
        assert [table.nbytes for table in kept + large] == [2400, 4096, 4608, 8 * 181 * 200]
        assert not any(table.flags.writeable for table in kept + large)
        assert quadrature._kept_table.cache_info().currsize == 2
        assert quadrature._rule_table(30, 9) is kept[0] and quadrature._rule_table(64, 7) is kept[1]
        again = quadrature._rule_table(64, 8)
        assert again is not large[0] and again.tobytes() == large[0].tobytes()
        assert quadrature._kept_table.cache_info().currsize == 2

    def test_kept_tables_stay_within_the_byte_bound(self):
        # the key space is finite, so the cache is bounded without evicting
        quadrature._kept_table.cache_clear()
        total = 0
        for Q in range(2, 201):
            for order in range(Q - 1):
                size = quadrature._kept_table.cache_info().currsize
                table = quadrature._rule_table(Q, order)
                if quadrature._kept_table.cache_info().currsize == size:  # not kept
                    assert table.nbytes > 4096
                    break  # the tables only grow with the order
                total += table.nbytes
        assert quadrature._kept_table.cache_info().currsize == len(_small_keys()) == 1261
        assert total == 2_517_688 <= 2.41 * 2**20
        quadrature._kept_table.cache_clear()

    @staticmethod
    def _in_four_threads(run):
        # the same work in every thread, so that they miss on the same key together
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, inside the bookkeeping too
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                return list(pool.map(lambda _: run(), range(4), timeout=120))
        finally:
            sys.setswitchinterval(interval)

    def test_threads_match_the_serial_results(self):
        # orders 0..60 mix kept tables and tables built per call
        density = shifted_gaussian(-0.4)
        calls = [(expand, f, order) for order in range(61)
                 for expand, f in ((fourier_hermite_coeffs, density),
                                   (wce_coeffs_1d, _CHAOS_INTEGRAND))]
        serial = {(expand, order): _bits(expand(f, order)) for expand, f, order in calls}
        quadrature._kept_table.cache_clear()
        results = self._in_four_threads(
            lambda: [((expand, order), _bits(expand(f, order))) for expand, f, order in calls])
        for key, bits in itertools.chain.from_iterable(results):
            assert bits == serial[key], key

    def test_threads_keep_one_entry_per_small_key(self):
        # every small table, missed by four threads together: each key ends with one
        # kept entry, and every thread got the serial table's bits
        keys = _small_keys()
        serial = [quadrature._table(*key).tobytes() for key in keys]
        quadrature._kept_table.cache_clear()
        results = self._in_four_threads(lambda: [quadrature._rule_table(*key) for key in keys])
        assert quadrature._kept_table.cache_info().currsize == len(keys)
        for tables in results:
            assert [table.tobytes() for table in tables] == serial
        kept = [quadrature._rule_table(*key) for key in keys]  # hits now
        assert [table.tobytes() for table in kept] == serial
        quadrature._kept_table.cache_clear()


def gaussian_blur(coeffs, sigma):
    # y -> E[f(y + sigma Z)] by the binomial expansion, with E[Z^i] = (i-1)!! for even i
    out = [0] * len(coeffs)
    for k, c in enumerate(coeffs):
        for i in range(0, k + 1, 2):
            out[k - i] += c * math.comb(k, i) * sigma**i * math.prod(range(i - 1, 0, -2))
    return ExactPolynomial(out)


# random exact polynomials up to the CLI's degree cap, integer or rational coefficients
_POLYNOMIALS = st.lists(st.one_of(st.integers(-10**6, 10**6), st.fractions(max_denominator=1000)),
                        min_size=1, max_size=cli.MAX_COEFFS_DEGREE + 1).map(ExactPolynomial)


class TestDeconvolution:
    def test_constant(self):
        assert gaussian_mixture_deconvolve(ExactPolynomial((1,)), 1.0).coeffs == (1,)

    def test_square(self):
        result = gaussian_mixture_deconvolve(ExactPolynomial((0, 0, 1)), 1.0)
        assert result.coeffs == (-1, 0, 1)

    def test_cube_with_sigma_two(self):
        result = gaussian_mixture_deconvolve(ExactPolynomial((0, 0, 0, 1)), 2.0)
        assert result.coeffs == (0, -12, 0, 1)

    def test_equals_scaled_hermite(self):
        # deconvolving y^n must give exactly sigma^n He_n(x / sigma)
        for n in range(11):
            for sigma in (Fraction(1, 2), 1, 2):
                g = ExactPolynomial((0,) * n + (1,))
                assert gaussian_mixture_deconvolve(g, sigma) == weierstrass_preimage_polynomial(n, sigma)

    def test_blur_round_trip_by_quadrature(self):
        # (phi_sigma * f)(y) = g(y), integrating in the standardized variable
        for k in range(9):
            g = ExactPolynomial((0,) * k + (1,))
            for sigma in (0.5, 1.0, 2.0):
                f = gaussian_mixture_deconvolve(g, sigma)
                rule = gauss_hermite_rule(k // 2 + 3)
                for y in (-2.0, 0.0, 1.0, 3.0):
                    blurred = (
                        integrate_weighted(lambda z: f(y + sigma * z), rule) / SQRT_TWO_PI
                    )
                    assert blurred == pytest.approx(float(g(y)), rel=1e-8, abs=1e-9)

    @pytest.mark.parametrize("sigma", [0.1, 1 / 3, 0.75, 2, 5e-324, 1.7e308, 10**400,
                                       Fraction(1, 3)],
                             ids=["0.1", "1/3", "0.75", "2", "5e-324", "1.7e308", "10**400",
                                  "Fraction(1, 3)"])
    @settings(max_examples=8, deadline=None)
    @given(g=_POLYNOMIALS)
    @example(g=ExactPolynomial([1] * (cli.MAX_COEFFS_DEGREE + 1)))
    def test_blurs_back_exactly(self, sigma, g):
        # an independent oracle: sigma at its exact binary value, E[Z^i] by the double factorial
        f = gaussian_mixture_deconvolve(g, sigma)
        assert f.degree == g.degree
        assert gaussian_blur(f.coeffs, Fraction(sigma)) == g

    def test_linearity(self):
        g = ExactPolynomial((2, 0, 3, 1))
        parts = [
            2 * gaussian_mixture_deconvolve(ExactPolynomial((1,)), 1),
            3 * gaussian_mixture_deconvolve(ExactPolynomial((0, 0, 1)), 1),
            gaussian_mixture_deconvolve(ExactPolynomial((0, 0, 0, 1)), 1),
        ]
        total = parts[0] + parts[1] + parts[2]
        assert gaussian_mixture_deconvolve(g, 1) == total

    def test_rejects_non_polynomial(self):
        with pytest.raises(TypeError):
            gaussian_mixture_deconvolve(lambda y: abs(y), 1.0)

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            gaussian_mixture_deconvolve(ExactPolynomial((1,)), 0)


def full_rule_eigen_residual(n, k, quad_order):
    """|(1/sqrt(2 pi)) sum_i w_i H_n(x_i) e^(-i k x_i) - (-i)^n h_n(k)| over every node of
    the rule, in complex numpy arithmetic with H_n by numpy's Clenshaw sum, and the sum of
    the magnitudes of its terms."""
    rule = gauss_hermite_rule(quad_order)
    unit = [0] * n + [1]
    kx = k * rule.nodes
    terms = rule.weights * np.polynomial.hermite.hermval(rule.nodes, unit) \
        * (np.cos(kx) - 1j * np.sin(kx)) / SQRT_TWO_PI
    expected = (-1j) ** n * math.exp(-k * k / 2) * np.polynomial.hermite.hermval(k, unit)
    return abs(terms.sum() - expected), float(np.abs(terms).sum()) + abs(expected)


class TestFourierEigenfunctions:
    @pytest.mark.parametrize("n", range(31))
    @pytest.mark.parametrize("odd", [False, True], ids=["default rule", "odd rule"])
    def test_half_rule_sum_matches_the_full_rule(self, n, odd):
        # the opposite-parity half cancels exactly on the mirrored rule, so the
        # half-rule sum differs from the full one by rounding only; the default rule
        # is the 200-point one, and an odd rule has a middle node at 0, whose weight
        # is not doubled
        quad_order = max(2 * n + 10, 40) + 1 if odd else expansions.MAX_ORDER
        norm = math.sqrt(2.0**n * math.factorial(n) * math.sqrt(math.pi))  # ||h_n||
        for k in np.linspace(-3.0, 3.0, 13).tolist():
            want, scale = full_rule_eigen_residual(n, k, quad_order)
            got = fourier_eigen_check(n, [k], quad_order if odd else None)
            assert abs(got - want) <= 4 * 2.0**-52 * scale, (k, got, want, scale)
            assert got <= 1e-10 * norm  # the transform of h_n is (-i)^n h_n

    @given(n=st.integers(0, 95), k=st.floats(-expansions.MAX_EIGEN_FREQUENCY,
                                             expansions.MAX_EIGEN_FREQUENCY))
    @settings(max_examples=60, deadline=None)
    @example(n=3, k=10.0)   # a 40-point rule aliases it to 3.369
    @example(n=95, k=11.0)  # the band's edge at the largest n
    def test_default_rule_resolves_its_band(self, n, k):
        # the transform of h_n is (-i)^n h_n: on the default rule, within the band, the
        # residual is at most 1e-10 ||h_n||, against the library's h_n and numpy's H_n alike
        norm = math.sqrt(2.0**n * math.factorial(n) * math.sqrt(math.pi))  # ||h_n||
        assert fourier_eigen_check(n, [k]) <= 1e-10 * norm
        assert full_rule_eigen_residual(n, k, expansions.MAX_ORDER)[0] <= 1e-10 * norm

    @pytest.mark.parametrize("k", [-11.000000000000002, 12, 10**400, Fraction(23, 2), math.inf,
                                   -math.inf, math.nan])
    def test_default_rule_refuses_a_frequency_past_its_band(self, k):
        message = f"k must be in [-11, 11] on the default rule, got {k!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fourier_eigen_check(3, [0.5, k])

    def test_an_explicit_rule_checks_no_band(self):
        # past the default band, the 200-point rule still resolves k = 12 at n = 3, and a
        # 40-point rule returns the aliased residual of k = 10 unrefused
        norm = math.sqrt(2.0**3 * math.factorial(3) * math.sqrt(math.pi))  # ||h_3||
        assert fourier_eigen_check(3, [12.0], 200) <= 1e-10 * norm
        assert fourier_eigen_check(3, [10.0], 40) > 0.1 * norm

    def test_gaussian_self_transform(self):
        assert fourier_eigen_check(0, [0.0], 40) <= 1e-12

    def test_first_orders(self):
        assert fourier_eigen_check(1, [0.0, 1.0, -1.0, 2.0, -2.0], 40) <= 1e-8
        assert fourier_eigen_check(4, [0.0, 1.0, -1.0, 2.0, -2.0], 40) <= 1e-7

    def test_acceptance_grid(self):
        grid = np.linspace(-3.0, 3.0, 25)
        for n in range(9):
            assert fourier_eigen_check(n, grid, 60) <= 1e-6

    def test_quad_order_below_2n_plus_10_is_rejected(self):
        with pytest.raises(ValueError, match="^quad_order must be at least 16, got 15$"):
            fourier_eigen_check(3, [0.0], 15)
        with pytest.raises(ValueError, match="^quadrature order must be a positive integer, got -4"):
            fourier_eigen_check(3, [0.0], -4)
        assert fourier_eigen_check(3, [0.0], 16) <= 1e-12

    def test_overflowing_frequencies_raise(self):
        with pytest.raises(OverflowError):
            fourier_eigen_check(3, [0.0, 1e308], 40)

    def test_infinite_frequency_is_refused_without_a_warning(self):
        # inf times the 0.0 centre node of an odd rule is invalid, not an overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="^k times the quadrature nodes is not finite$"):
                fourier_eigen_check(9, [math.inf, -math.inf], 29)

