"""Exact construction and evaluation of both Hermite families."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermite_kit import (
    PLAIN_RV,
    ExactPolynomial,
    HermiteSeries,
    eval_hermite,
    eval_hermite_function,
    evaluate_series,
    gram_schmidt_construct,
    hermite_explicit,
    hermite_recurrence,
    hermite_table,
)


def moment(k):
    # int x^k e^{-x^2/2} dx / sqrt(2*pi): (k-1)!! for even k, 0 for odd
    return 0 if k % 2 else math.prod(range(k - 1, 0, -2))


def derivative(p):
    # the formal derivative, term by term
    return ExactPolynomial([i * c for i, c in enumerate(p.coeffs)][1:])


def fraction_gram_schmidt(n):
    """Modified Gram-Schmidt on 1, x, ..., x^n with every inner product
    expanded over coefficient pairs in Fractions: the O(n^4) oracle that
    gram_schmidt_construct's moment rows replace."""

    def inner(p, q):
        total = Fraction(0)
        for i, a in enumerate(p.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(q.coeffs):
                if b == 0:
                    continue
                total += Fraction(a) * Fraction(b) * moment(i + j)
        return total

    basis = []
    norms = []
    for k in range(n + 1):
        q = ExactPolynomial((0,) * k + (1,))
        for prev, norm in zip(basis, norms):
            coeff = inner(q, prev) / norm
            if coeff != 0:
                q = q - coeff * prev
        basis.append(q)
        norms.append(inner(q, q))
    return basis


class TestConstructionAgreement:
    def test_recurrence_matches_explicit_to_50(self):
        for n in range(51):
            assert hermite_recurrence(n) == hermite_explicit(n)

    def test_physicist_recurrence_matches_explicit(self):
        for n in range(41):
            assert hermite_recurrence(n, "h") == hermite_explicit(n, "h")

    def test_gram_schmidt_matches_explicit_to_12(self):
        sequence = gram_schmidt_construct(12)
        for n, poly in enumerate(sequence):
            assert poly == hermite_explicit(n)

    def test_gram_schmidt_degenerate_order(self):
        assert [p.coeffs for p in gram_schmidt_construct(0)] == [(1,)]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 120))
    def test_three_constructions_agree(self, n):
        he = hermite_recurrence(n)
        assert hermite_explicit(n) == he
        assert gram_schmidt_construct(n)[-1] == he
        assert hermite_recurrence(n, "h") == hermite_explicit(n, "h")

    def test_physicist_three_term_recurrence_consistent(self):
        # H_{n+1} = 2x H_n - 2n H_{n-1} is implied by the coefficient
        # transform; checked as an identity, not used as a definition.
        two_x = ExactPolynomial((0, 2))
        for n in range(1, 25):
            lhs = hermite_explicit(n + 1, "h")
            rhs = two_x * hermite_explicit(n, "h") - (2 * n) * hermite_explicit(n - 1, "h")
            assert lhs == rhs


class TestGramSchmidt:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 20))
    def test_matches_fraction_oracle(self, n):
        assert gram_schmidt_construct(n) == fraction_gram_schmidt(n)

    def test_degree_100_is_the_recurrence(self):
        start = time.perf_counter()
        sequence = gram_schmidt_construct(100)
        assert time.perf_counter() - start < 2.0
        assert sequence == [hermite_recurrence(k) for k in range(101)]


class TestKnownPolynomials:
    def test_base_cases(self):
        assert hermite_recurrence(0).coeffs == (1,)
        assert hermite_explicit(0, "h").coeffs == (1,)

    def test_he_examples(self):
        assert hermite_explicit(2).coeffs == (-1, 0, 1)
        assert hermite_recurrence(4).coeffs == (3, 0, -6, 0, 1)
        assert hermite_explicit(5).coeffs == (0, 15, 0, -10, 0, 1)

    def test_h_examples(self):
        assert hermite_explicit(1, "h").coeffs == (0, 2)
        assert hermite_recurrence(3, "h").coeffs == (0, -12, 0, 8)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            hermite_explicit(-1)
        with pytest.raises(ValueError):
            hermite_recurrence(3, "laguerre")


class TestSpecialValues:
    def test_monic_to_50(self):
        for n in range(51):
            assert hermite_recurrence(n).coeffs[-1] == 1

    def test_parity_coefficients_vanish(self):
        for n in range(51):
            poly = hermite_recurrence(n)
            for k, c in enumerate(poly.coeffs):
                if (k - n) % 2:
                    assert c == 0

    def test_value_at_zero(self):
        for n in range(16):
            expected = (-1) ** n * math.factorial(2 * n) // (math.factorial(n) * 2**n)
            assert hermite_recurrence(2 * n).coeffs[0] == expected
            assert hermite_recurrence(2 * n + 1).coeffs[0] == 0

    def test_eval_at_zero(self):
        assert eval_hermite(2, 0.0) == -1.0
        assert eval_hermite(6, 0.0) == -15.0
        assert eval_hermite(7, 0.0) == 0.0


class TestFamilyBridge:
    def test_h_equals_scaled_he(self):
        # H_n(x) = 2^(n/2) He_n(sqrt(2) x)
        for n in range(16):
            for x in (-2.0, -1.0, 0.5, 3.0):
                lhs = eval_hermite(n, x, "h")
                rhs = 2 ** (n / 2.0) * eval_hermite(n, math.sqrt(2.0) * x)
                assert abs(lhs - rhs) <= 1e-9 * abs(lhs)

    def test_exact_coefficient_bridge(self):
        # the same relation at the exact level: coefficients pick up 2^((n+k)/2)
        for n in range(21):
            he = hermite_explicit(n)
            h = hermite_explicit(n, "h")
            for k in range(n + 1):
                assert h.coeffs[k] == he.coeffs[k] * 2 ** ((n + k) // 2)


class TestEvaluation:
    def test_eval_matches_exact_polynomial(self):
        for n in range(21):
            poly = hermite_explicit(n)
            for x in (-3, -1, 0, 2, 5):
                assert eval_hermite(n, float(x)) == float(poly(Fraction(x)))

    def test_hermite_function_values(self):
        assert eval_hermite_function(0, 0.0) == 1.0
        assert eval_hermite_function(1, 2.0) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-14)
        assert eval_hermite_function(2, 0.0, "h") == -2.0

    def test_hermite_function_weighted_consistency(self):
        for n in range(12):
            for x in np.linspace(-4.0, 4.0, 9):
                direct = math.exp(-x * x / 4.0) * eval_hermite(n, x)
                assert eval_hermite_function(n, x) == pytest.approx(direct, rel=1e-12, abs=1e-300)

    def test_high_order_no_overflow(self):
        # weighted recurrence keeps he_n finite where He_n alone explodes
        value = eval_hermite_function(200, 50.0)
        assert math.isfinite(value)
        value = eval_hermite_function(200, 0.0, "h")
        assert math.isfinite(value)

    def test_polynomial_overflow_reports_infinity(self):
        assert math.isinf(eval_hermite(300, 30.0))

    @pytest.mark.parametrize("family", ["he", "h"])
    def test_infinite_x_is_the_signed_limit(self, family):
        # from degree 3 the float recurrence meets inf - inf; the limit is (+-1)^n inf
        for n in range(13):
            assert eval_hermite(n, math.inf, family) == (math.inf if n else 1.0), n
            assert eval_hermite(n, -math.inf, family) == (-1.0) ** n * (math.inf if n else 1.0), n

    @pytest.mark.parametrize("family", ["he", "h"])
    def test_table_at_infinite_x_is_the_signed_limit(self, family):
        # the plain recurrence meets inf - inf from degree 3; each row is its signed limit
        assert hermite_table(4, math.inf, family) == [1.0] + [math.inf] * 4
        assert hermite_table(4, -math.inf, family) == [1.0, -math.inf, math.inf,
                                                       -math.inf, math.inf]

    @pytest.mark.parametrize("family", ["he", "h"])
    def test_weighted_functions_vanish_at_infinite_x(self, family):
        for n in range(8):
            for x in (math.inf, -math.inf):
                assert eval_hermite_function(n, x, family) == 0.0, (n, x)

    def test_weighted_functions_vanish_at_the_top_of_double_range(self):
        # past |a| = 2^1022 the first weighted step a * cur must stay finite; the weight
        # underflows long before He_n overflows, so each value is 0
        for n, x, kind in ((1, 1.339e308, "he"), (3, 1.339e308, "he"),
                           (20, -1.339429505148255e308, "he"), (174, 1.3926718186877096e308, "he"),
                           (3, 8.04e307, "h"), (1, -8.711736630867731e307, "h"),
                           (1, 1.7976931348623157e308, "he")):
            assert eval_hermite_function(n, x, kind) == 0.0, (n, x, kind)
        # the sign is that of the true value, e^{-x^2/2} 2x at a negative x
        assert math.copysign(1.0, eval_hermite_function(1, -8.711736630867731e307, "h")) == -1.0

    @pytest.mark.parametrize("family", ["he", "h"])
    def test_overflow_sign_is_that_of_degree_n(self, family):
        # e.g. He_400(0) = +399!!, where a sign taken from the first degree
        # to overflow would be wrong; at 1e308, 2x overflows for H
        assert eval_hermite(400, 0.0, family) == math.inf
        for n in (170, 200, 250, 300, 400):
            poly = hermite_recurrence(n, family)
            for x in (0.0, 0.5, 1.0, 3.0, 30.0, -7.25, 1e308, -1e308):
                exact = poly(Fraction(x))
                value = eval_hermite(n, x, family)
                if math.isinf(value):
                    assert abs(exact) > 2**1023 and (value > 0) == (exact > 0), (n, x)
                else:
                    assert value == pytest.approx(float(exact), rel=1e-9), (n, x)

    @pytest.mark.parametrize("kind", ["he", "h"])
    def test_weighted_overflow_is_signed_infinity_not_nan(self, kind):
        # e^{-x^2/4} He_400(x) or e^{-x^2/2} H_400(x) against the exact
        # polynomial times the weight taken in logarithms
        poly = hermite_recurrence(400, kind)
        log_weight_scale = 4.0 if kind == "he" else 2.0
        for x in (0.0, 1.0, 30.0, 45.5, 60.0, -60.0, 70.0):
            exact = Fraction(poly(Fraction(x)))
            value = eval_hermite_function(400, x, kind)
            assert not math.isnan(value)
            log_abs = math.log(abs(exact.numerator)) - math.log(exact.denominator)
            log_true = log_abs - x * x / log_weight_scale
            if log_true > math.log(2.0) * 1024:
                assert value == (math.inf if exact > 0 else -math.inf), x
            else:
                assert math.isfinite(value) and (value > 0) == (exact > 0), x
                assert math.log(abs(value)) == pytest.approx(log_true, abs=1e-12), x


class TestTable:
    @pytest.mark.parametrize("family", ["he", "h"])
    def test_rows_match_exact_polynomials(self, family):
        for x in (-3, -1, 0, 2, 5):
            rows = hermite_table(20, float(x), family)
            assert rows == [float(hermite_explicit(n, family)(Fraction(x))) for n in range(21)]

    def test_last_row_is_eval_hermite(self):
        for n in (0, 1, 7, 60):
            for family in ("he", "h"):
                assert hermite_table(n, 1.3, family)[-1] == eval_hermite(n, 1.3, family)

    def test_validation(self):
        with pytest.raises(ValueError):
            hermite_table(-1, 0.0)
        with pytest.raises(ValueError):
            hermite_table(3, 0.0, "x")


class TestDerivative:
    # the Appell property He_n' = n He_(n-1), against the formal derivative
    def test_examples(self):
        assert derivative(hermite_recurrence(2)).coeffs == (0, 2)
        assert derivative(hermite_recurrence(3)).coeffs == (-3, 0, 3)
        assert derivative(hermite_recurrence(4)).coeffs == (0, -12, 0, 4)

    def test_zero_order_is_zero_polynomial(self):
        assert derivative(hermite_recurrence(0)) == ExactPolynomial()

    def test_matches_formal_derivative(self):
        for n in range(1, 41):
            assert derivative(hermite_recurrence(n)) == n * hermite_recurrence(n - 1)
            assert derivative(hermite_explicit(n)) == n * hermite_explicit(n - 1)


def generating_series(t, order):
    # e^{xt - t^2/2} = sum_k He_k(x) t^k / k!, truncated after degree order
    return HermiteSeries(tuple(t**k / math.factorial(k) for k in range(order + 1)), PLAIN_RV)


def exact_partial_sum(series, x):
    # sum_k c_k He_k(x) in Fractions, at the binary values of the coefficients and x
    return sum(Fraction(c) * hermite_recurrence(k)(Fraction(x)) for k, c in enumerate(series.coeffs))


class TestGeneratingFunction:
    def test_trivial_point(self):
        assert evaluate_series(generating_series(0.0, 5), 0.0) == 1.0

    def test_examples(self):
        assert evaluate_series(generating_series(0.5, 30), 1.0) == pytest.approx(
            math.exp(0.375), rel=1e-12)
        assert evaluate_series(generating_series(-0.3, 30), 2.0) == pytest.approx(
            math.exp(-0.645), rel=1e-12)

    def test_overflowing_partial_sum_is_a_signed_inf(self):
        # He_k(-1e200) leaves double range from k = 2 with alternating signs: the
        # float terms sum to inf - inf, the exact sum is far past double range
        series, x = generating_series(0.5, 10), -1e200
        exact = exact_partial_sum(series, x)
        assert abs(exact) > 2**1024
        assert evaluate_series(series, x) == (math.inf if exact > 0 else -math.inf)

    def test_overflowing_target_is_inf(self):
        # e^{xt - t^2/2} overflows at x = 1e3, t = 1; the truncated sum stays finite
        series, x = generating_series(1.0, 5), 1e3
        assert evaluate_series(series, x) == pytest.approx(
            float(exact_partial_sum(series, x)), rel=1e-15)

    def test_partial_sum_converges_on_grid(self):
        for x in (-3.0, -1.0, 0.0, 1.5, 3.0):
            for t in (-1.0, -0.5, 0.1, 0.5, 1.0):
                target = math.exp(x * t - t * t / 2.0)
                assert abs(evaluate_series(generating_series(t, 40), x) - target) <= 1e-10 * target


class TestDifferentialEquations:
    def test_ode_residual_exactly_zero(self):
        # He_n'' - x He_n' + n He_n = 0 as exact polynomials, for both constructions
        x = ExactPolynomial((0, 1))
        for n in range(41):
            for p in (hermite_recurrence(n), hermite_explicit(n)):
                dp = derivative(p)
                assert derivative(dp) - x * dp + n * p == ExactPolynomial(), n

    @staticmethod
    def _weighted_recurrence_mp(n, x):
        import mpmath as mp

        prev = mp.exp(-x * x / 4)
        if n == 0:
            return prev
        cur = x * prev
        for k in range(1, n):
            prev, cur = cur, x * cur - k * prev
        return cur

    def test_weber_equation_by_finite_differences(self):
        # he_n'' + (-x^2/4 + n + 1/2) he_n = 0, central second difference at
        # step 1e-4.  In doubles the cancellation noise 4 eps/h^2 alone sits
        # at the 1e-8 tolerance, so the difference quotient runs at 50
        # digits; the float evaluator is tied to those values separately.
        import mpmath as mp

        with mp.workdps(50):
            h = mp.mpf("1e-4")
            grid = np.linspace(-3.0, 3.0, 20)
            for n in range(9):
                residuals = []
                scales = []
                for x in grid:
                    xm = mp.mpf(float(x))
                    f0 = self._weighted_recurrence_mp(n, xm)
                    fp = self._weighted_recurrence_mp(n, xm + h)
                    fm = self._weighted_recurrence_mp(n, xm - h)
                    second = (fp - 2 * f0 + fm) / (h * h)
                    potential = (-xm * xm / 4 + n + mp.mpf(1) / 2) * f0
                    residuals.append(abs(second + potential))
                    scales.append(max(abs(second), abs(potential)))

                    assert float(abs(eval_hermite_function(n, float(x)) - f0)) <= 1e-12 * float(abs(f0)) + 1e-15
                assert max(residuals) <= 1e-8 * max(scales)

