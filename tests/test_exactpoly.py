"""Exact polynomial arithmetic underneath everything else."""

import math
from fractions import Fraction

import pytest

from hermite_kit import ExactPolynomial


class TestNormalization:
    def test_trailing_zeros_stripped(self):
        assert ExactPolynomial((1, 2, 0, 0)).coeffs == (1, 2)
        assert ExactPolynomial((1, 2, 0, 0)).degree == 1

    def test_zero_polynomial_shape(self):
        zero = ExactPolynomial((0, 0, 0))
        assert zero.coeffs == (0,)
        assert zero.degree == 0
        assert ExactPolynomial() == zero
        assert ExactPolynomial(()).coeffs == (0,)

    def test_leading_coefficient_nonzero_unless_zero(self):
        assert ExactPolynomial((0, 0, 5)).coeffs[-1] == 5

    def test_fraction_coercion(self):
        poly = ExactPolynomial([Fraction(1, 3), 0.5, 2])
        assert poly.coeffs == (Fraction(1, 3), Fraction(1, 2), 2)
        # whole-valued fractions collapse to ints
        assert ExactPolynomial([Fraction(4, 2)]).coeffs == (2,)

    def test_a_string_is_refused_as_every_real_argument_refuses_one(self):
        # decimal strings are the CLI's to read (tests/test_cli.py)
        with pytest.raises(TypeError, match="^coefficient must be a real number, got str$"):
            ExactPolynomial(["0.5"])
        with pytest.raises(TypeError, match="^factor must be a real number, got str$"):
            ExactPolynomial((1, 2)) * "2"

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_a_coefficient_that_is_not_finite_is_refused_by_name(self, value):
        # nan once gave Fraction's "cannot convert NaN to integer ratio"
        message = f"^coefficient {value!r} is not a finite number$"
        with pytest.raises(ValueError, match=message):
            ExactPolynomial([1.0, value])
        with pytest.raises(ValueError, match=message):
            ExactPolynomial((1, 2)) * value

    def test_rejects_inexact_types(self):
        with pytest.raises(TypeError):
            ExactPolynomial([1j])


class TestArithmetic:
    def test_addition_and_cancellation(self):
        a = ExactPolynomial((1, 0, 1))
        b = ExactPolynomial((2, 3, -1))
        assert (a + b).coeffs == (3, 3)
        assert (a - a).coeffs == (0,)

    def test_multiplication(self):
        a = ExactPolynomial((1, 1))        # 1 + x
        b = ExactPolynomial((-1, 1))       # -1 + x
        assert (a * b).coeffs == (-1, 0, 1)
        assert (a * ExactPolynomial()).coeffs == (0,)
        # interior zeros on both sides: (1 + 2x^3)(3x - x^3)
        c = ExactPolynomial((1, 0, 0, 2))
        d = ExactPolynomial((0, 3, 0, -1))
        assert (c * d).coeffs == (0, 3, 0, -1, 6, 0, -2)
        assert (d * c).coeffs == (0, 3, 0, -1, 6, 0, -2)

    def test_scalar_multiplication(self):
        a = ExactPolynomial((1, 2))
        assert (3 * a).coeffs == (3, 6)
        assert (a * Fraction(1, 2)).coeffs == (Fraction(1, 2), 1)

    def test_only_polynomials_compare_add_and_subtract(self):
        p = ExactPolynomial((3,))
        assert (p == 3) is False and (p != 3) is True
        for operation in (lambda: p + 3, lambda: 3 + p, lambda: p - 3, lambda: 3 - p):
            with pytest.raises(TypeError, match="unsupported operand"):
                operation()

    def test_equal_polynomials_hash_equal(self):
        a, b = ExactPolynomial((1, Fraction(2, 4), 0)), ExactPolynomial([1, Fraction(1, 2)])
        assert a == b and hash(a) == hash(b)
        assert len({a, b, ExactPolynomial((1, 0.5))}) == 1


class TestEvaluation:
    def test_exact_evaluation(self):
        p = ExactPolynomial((1, -2, 1))     # (x - 1)^2
        assert p(Fraction(3, 2)) == Fraction(1, 4)
        assert p(1) == 0
        assert isinstance(p(1), int)

    def test_float_evaluation(self):
        p = ExactPolynomial((1, -2, 1))
        assert p(1.5) == 0.25

    def test_huge_coefficients_evaluate_in_float(self):
        p = ExactPolynomial((10**300, 0, 1))
        assert p(2.0) == pytest.approx(1e300, rel=1e-12)

    def test_a_coefficient_past_float_range_is_refused_at_a_float_point(self):
        # Horner in floats cannot hold it; an exact point keeps the exact value
        for c in (10**400, Fraction(10**400, 3)):
            with pytest.raises(ValueError, match="^a coefficient is past float range: "):
                ExactPolynomial([c])(0.5)
            assert ExactPolynomial([c])(1) == c

    def test_float_evaluation_at_infinity_is_the_limit(self):
        # Horner from the leading coefficient never takes 0.0 * inf
        assert ExactPolynomial((1, 0, 1))(-math.inf) == math.inf
        assert ExactPolynomial((0, 1, -1))(math.inf) == -math.inf
        assert ExactPolynomial((1, -3, 0, 1))(-math.inf) == -math.inf
        assert ExactPolynomial((5,))(math.inf) == 5.0
        assert ExactPolynomial((0,))(math.inf) == 0.0
        with pytest.raises(ValueError, match="^x must not be nan$"):
            ExactPolynomial((1, 0, 1))(math.nan)

    def test_float_evaluation_at_finite_x_keeps_its_bits(self):
        # starting Horner at 0.0 took 0.0 * x + lead first, which is lead itself
        def from_zero(p, x):
            acc = 0.0
            for c in reversed(p.coeffs):
                acc = acc * x + float(c)
            return acc

        for coeffs in ((0,), (5,), (0, 1), (1, -3, 0, 1), (Fraction(1, 3), 0, -7, 2)):
            p = ExactPolynomial(coeffs)
            for x in (-0.0, 0.0, 5e-324, -1.5, 1e100, -1e308):
                assert repr(p(x)) == repr(from_zero(p, x)), (coeffs, x)
