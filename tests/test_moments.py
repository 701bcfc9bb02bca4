"""Gaussian moments, basis connections, and the blur/deblur identities."""

import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermite_kit import (
    ExactPolynomial,
    change_of_basis,
    compose,
    gauss_hermite_rule,
    gauss_moment_polynomial,
    gaussian_raw_moment,
    hermite_explicit,
    hermite_recurrence,
    integrate_weighted,
    weierstrass_preimage_polynomial,
)
from hermite_kit.moments import _COLUMN_BUILDERS, ChangeOfBasisMatrix
from hermite_kit.polynomials import _rounded

SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n + 1)) for i in range(n + 1))


def column(matrix, k):
    # column k expands source-basis element k
    return tuple(row[k] for row in matrix.entries)


def pairing_count(k, j):
    """k! / (2^j (k-2j)! j!) as comb * perm: the oracle for every pairing column."""
    return math.comb(k, 2 * j) * math.perm(2 * j, j) >> j


def pairing_column(n, k, sign, shift):
    # entry k - 2j of column k is sign^j pairing_count(k, j) 2^(shift j), the rest 0
    col = [0] * (n + 1)
    for j in range(k // 2 + 1):
        col[k - 2 * j] = sign**j * pairing_count(k, j) << shift * j
    return col


@st.composite
def basis_matrices(draw, n, from_basis, to_basis):
    """An n x n matrix of int or Fraction entries, dense or mostly zero, in
    no particular shape."""
    value = st.integers(-(10**20), 10**20)
    if draw(st.booleans()):
        value |= st.builds(Fraction, value, st.integers(1, 10**6))
    if draw(st.booleans()):
        value = st.one_of(st.just(0), st.just(0), st.just(0), value)
    entries = draw(st.lists(value, min_size=n * n, max_size=n * n))
    rows = tuple(tuple(entries[i * n : (i + 1) * n]) for i in range(n))
    return ChangeOfBasisMatrix(from_basis=from_basis, to_basis=to_basis, entries=rows)


def gauss_expectation(g, order):
    """E[g(Z)] for Z ~ N(0,1) by quadrature, exact for deg g <= 2*order-1."""
    return integrate_weighted(g, gauss_hermite_rule(order)) / SQRT_TWO_PI


def scaled_hermite(n, sigma):
    """sigma^n He_n(x / sigma) from the three-term recurrence, not the pairing column:
    the x^i coefficient of He_n times sigma^(n-i), sigma at its exact binary value."""
    s = Fraction(sigma)
    return ExactPolynomial([c * s ** (n - i) for i, c in enumerate(hermite_recurrence(n).coeffs)])


def preimage_value(n, sigma, x):
    """sigma^n He_n(x / sigma) at a float x, exact and rounded once."""
    return _rounded(weierstrass_preimage_polynomial(n, sigma)(Fraction(float(x))))


def hermite_form(n, mu, sigma):
    """E[Y^n] for Y ~ N(mu, sigma^2) as (-i sigma)^n He_n(i mu / sigma), in 50-digit
    complex arithmetic with He_n(z) = 2^(-n/2) H_n(z / sqrt 2); the real part."""
    with mpmath.workdps(50):
        z = mpmath.mpc(0, mpmath.mpf(mu) / sigma) / mpmath.sqrt(2)
        value = (-1j * mpmath.mpf(sigma) / mpmath.sqrt(2)) ** n * mpmath.hermite(n, z)
        assert abs(value.imag) <= 1e-40 * abs(value)
        return value.real


def combine(coeffs, basis):
    # sum_k coeffs[k] basis(k), exactly
    return sum((c * basis(k) for k, c in enumerate(coeffs)), ExactPolynomial())


class TestRawMoments:
    def test_first_moments(self):
        assert gaussian_raw_moment(0, 3.0, 2.0) == 1.0
        assert gaussian_raw_moment(1, 3.0, 2.0) == 3.0
        assert gaussian_raw_moment(2, 1.5, 0.5) == pytest.approx(1.5**2 + 0.25, rel=1e-14)
        assert gaussian_raw_moment(4, 0.0, 1.0) == pytest.approx(3.0, rel=1e-14)

    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError):
            gaussian_raw_moment(2, 0.0, 0.0)
        with pytest.raises(ValueError):
            gaussian_raw_moment(2, 0.0, -1.0)

    def test_hermite_form_agrees(self):
        for n in range(11):
            for mu, sigma in [(0.0, 1.0), (0.7, 2.0), (-1.3, 0.5), (2.5, 3.0)]:
                exact = float(self._binomial_moment(n, mu, sigma))
                oracle = gauss_expectation(lambda z: (mu + sigma * z) ** n, n + 2)
                assert float(hermite_form(n, mu, sigma)) == pytest.approx(exact, rel=1e-15, abs=0)
                assert oracle == pytest.approx(exact, rel=1e-12, abs=1e-14)
                assert gaussian_raw_moment(n, mu, sigma) == exact

    def test_hermite_form_past_double_range_is_a_signed_inf(self):
        for n, mu in [(200, 1e10), (201, -1e10)]:
            value = hermite_form(n, mu, 1.0)
            assert abs(value) > 2**1024
            assert gaussian_raw_moment(n, mu, 1.0) == math.copysign(math.inf, value)
        # finite moments whose float form leaves double range on the way: (mu/sigma)**n
        # overflows, or sigma**n underflows to 0 (the float product read 0.0, not 1e-100)
        for n, mu, sigma in [(40, 3.0, 1e-10), (7, -2.5, 1e-200), (20, 1e-5, 1e-20)]:
            exact = float(self._binomial_moment(n, mu, sigma))
            assert float(hermite_form(n, mu, sigma)) == pytest.approx(exact, rel=1e-15, abs=0)
            assert gaussian_raw_moment(n, mu, sigma) == exact

    def test_matches_quadrature_expectation(self):
        for n in range(9):
            mu, sigma = 0.8, 1.7
            oracle = gauss_expectation(lambda z: (mu + sigma * z) ** n, n + 2)
            assert gaussian_raw_moment(n, mu, sigma) == pytest.approx(oracle, rel=1e-12)

    def test_exact_rational_identity_with_hermite_expansion(self):
        # E[Y^n](x) rebuilt from the He expansion equals the moment
        # polynomial coefficient-for-coefficient
        m = change_of_basis(15, "gauss-moment", "he")
        for n in range(16):
            assert combine(column(m, n), hermite_explicit) == gauss_moment_polynomial(n)

    @staticmethod
    def _binomial_moment(n, mu, sigma):
        # exact E[(mu + sigma Z)^n] = sum_k C(n,k) mu^(n-k) sigma^k E[Z^k] at
        # the binary values of mu and sigma, with E[Z^k] = (k-1)!! for even k
        mu, sigma = Fraction(mu), Fraction(sigma)
        total = Fraction(0)
        for k in range(0, n + 1, 2):
            total += math.comb(n, k) * mu ** (n - k) * sigma**k * math.prod(range(k - 1, 0, -2))
        return total

    def test_orders_past_the_float_factorial(self):
        # n! leaves double range at n = 171; the moments themselves need not
        assert gaussian_raw_moment(171, 0.0, 1.0) == 0.0
        for n, mu, sigma in [(172, 0.0, 1.0), (172, 0.3, 1.7), (400, 0.0, 0.1),
                             (400, -2.5, 0.25), (401, -0.75, 0.125)]:
            exact = self._binomial_moment(n, mu, sigma)
            value = gaussian_raw_moment(n, mu, sigma)
            assert math.isfinite(value)
            assert value == pytest.approx(float(exact), rel=1e-15)

    def test_overflow_is_a_signed_inf(self):
        assert gaussian_raw_moment(400, 0.0, 1.0) == math.inf
        assert gaussian_raw_moment(401, -1.0, 1.0) == -math.inf
        assert self._binomial_moment(400, 0.0, 1.0) > 2**1024

    def test_non_finite_arguments_rejected(self):
        for mu, sigma in [(math.inf, 1.0), (0.0, math.inf), (math.nan, 1.0), (0.0, math.nan)]:
            with pytest.raises(ValueError):
                gaussian_raw_moment(3, mu, sigma)

    def test_moment_polynomial_evaluates_to_raw_moment(self):
        for n in range(16):
            for mu in (Fraction(1, 2), Fraction(-3), Fraction(7, 4)):
                exact = gauss_moment_polynomial(n)(mu)
                floating = gaussian_raw_moment(n, float(mu), 1.0)
                assert floating == pytest.approx(float(exact), rel=1e-12)


class TestConnectionCoefficients:
    # column n of he -> gauss-moment holds He_n = sum_j (-1)^j n! / ((n-2j)! j!) E[Y^(n-2j)],
    # column n of its inverse E[Y^n] = sum_j n! / ((n-2j)! j!) He_(n-2j)
    def test_hermite_in_moments_values(self):
        m = change_of_basis(3, "he", "gauss-moment")
        assert column(m, 0) == (1, 0, 0, 0)
        assert column(m, 2) == (-2, 0, 1, 0)
        assert column(m, 3) == (0, -6, 0, 1)

    def test_moments_in_hermite_values(self):
        m = change_of_basis(4, "gauss-moment", "he")
        assert column(m, 0) == (1, 0, 0, 0, 0)
        assert column(m, 2) == (2, 0, 1, 0, 0)
        assert column(m, 4) == (12, 0, 12, 0, 1)

    def test_hermite_rebuilt_from_moment_polynomials(self):
        m = change_of_basis(15, "he", "gauss-moment")
        for n in range(16):
            assert combine(column(m, n), gauss_moment_polynomial) == hermite_explicit(n)


class TestPairingColumns:
    # (sign, shift) of each builder's column, as pairing_column takes them
    SIGN_SHIFT = {
        ("he", "monomial"): (-1, 0), ("monomial", "he"): (1, 0),
        ("h", "2x-monomial"): (-1, 1), ("2x-monomial", "h"): (1, 1),
        ("he", "gauss-moment"): (-1, 1), ("gauss-moment", "he"): (1, 1),
    }

    def test_every_builder_is_the_comb_perm_formula_to_400(self):
        assert self.SIGN_SHIFT.keys() == _COLUMN_BUILDERS.keys()
        for pair, (sign, shift) in self.SIGN_SHIFT.items():
            build = _COLUMN_BUILDERS[pair]
            for k in range(401):
                want = pairing_column(400, k, sign, shift)
                assert build(400, k) == want
                assert build(k, k) == want[: k + 1]

    @pytest.mark.parametrize("pair", list(SIGN_SHIFT))
    def test_matrix_rows_are_the_columns_transposed(self, pair):
        sign, shift = self.SIGN_SHIFT[pair]
        for n in (0, 1, 2, 7, 60):
            columns = [pairing_column(n, k, sign, shift) for k in range(n + 1)]
            rows = tuple(tuple(col[i] for col in columns) for i in range(n + 1))
            assert change_of_basis(n, *pair).entries == rows

    def test_hermite_explicit_is_the_comb_perm_formula_to_400(self):
        for n in range(401):
            he = pairing_column(n, n, -1, 0)
            assert hermite_explicit(n).coeffs == tuple(he)
            # H_n's coefficient of x^(n-2j) is He_n's times 2^(n-j)
            assert hermite_explicit(n, "h").coeffs == tuple(c << (n + i) // 2
                                                            for i, c in enumerate(he))
            assert gauss_moment_polynomial(n).coeffs == tuple(pairing_column(n, n, 1, 0))


class TestChangeOfBasis:
    PAIRS = [
        ("he", "monomial"),
        ("h", "2x-monomial"),
        ("he", "gauss-moment"),
    ]

    def test_column_examples(self):
        m = change_of_basis(1, "he", "monomial")
        assert m.entries == ((1, 0), (0, 1))
        m = change_of_basis(2, "he", "monomial")
        assert column(m, 2) == (-1, 0, 1)

    @pytest.mark.parametrize("a,b", PAIRS)
    def test_inverse_pairs_exact(self, a, b):
        for n in range(13):
            forward = change_of_basis(n, a, b)
            backward = change_of_basis(n, b, a)
            assert compose(backward, forward).entries == identity(n)
            assert compose(forward, backward).entries == identity(n)

    @pytest.mark.parametrize("a,b", PAIRS)
    def test_upper_triangular(self, a, b):
        m = change_of_basis(8, a, b)
        for i, row in enumerate(m.entries):
            for j, entry in enumerate(row):
                if j < i:
                    assert entry == 0
                if j == i:
                    assert entry != 0

    def test_shared_coefficient_theorem(self):
        # the he<->moment matrices carry the same entries as h<->(2x) power
        for n in range(13):
            assert (change_of_basis(n, "he", "gauss-moment").entries
                    == change_of_basis(n, "h", "2x-monomial").entries)
            assert (change_of_basis(n, "gauss-moment", "he").entries
                    == change_of_basis(n, "2x-monomial", "h").entries)

    def test_columns_expand_correctly(self):
        # column k of he->monomial must literally hold He_k's coefficients
        n = 9
        m = change_of_basis(n, "he", "monomial")
        for k in range(n + 1):
            expected = list(hermite_recurrence(k).coeffs) + [0] * (n - k)
            assert list(column(m, k)) == expected

    def test_apply_maps_coefficient_vectors(self):
        # He_2 + 2 He_0 is x^2 + 1
        m = change_of_basis(2, "he", "monomial")
        assert m.apply((2, 0, 1)) == (1, 0, 1)
        for coeffs in ((2, 0), (2, 0, 1, 5)):
            with pytest.raises(ValueError, match=f"^expected 3 coefficients, got {len(coeffs)}$"):
                m.apply(coeffs)

    @pytest.mark.parametrize("n, dtype", [(28, np.int64), (30, np.int32), (60, np.int64)])
    def test_apply_is_exact_for_numpy_integers(self, n, dtype):
        # each coefficient is the Python int it holds: no int64 wraparound, no OverflowError
        m = change_of_basis(n, "he", "monomial")
        coeffs = np.zeros(n + 1, dtype)
        coeffs[n] = 10**4
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = m.apply(coeffs)
        assert got == m.apply([0] * n + [10**4])
        assert all(type(c) is int for c in got)
        assert m.apply(np.array([1.5] + [0] * n)) == (1.5,) + (0.0,) * n

    def test_apply_refuses_a_coefficient_that_is_not_a_real_number(self):
        with pytest.raises(TypeError, match="^coefficient must be a real number, got str$"):
            change_of_basis(2, "he", "monomial").apply((1, "2", 3))

    def test_unsupported_pair_rejected(self):
        with pytest.raises(ValueError, match="unsupported"):
            change_of_basis(4, "monomial", "gauss-moment")
        with pytest.raises(ValueError, match="unsupported"):
            change_of_basis(4, "he", "h")

    def test_explicit_composition_chains(self):
        # routing he -> monomial through the moment basis must agree with
        # the direct matrix once chained explicitly
        n = 8
        via = compose(change_of_basis(n, "gauss-moment", "he"),
                      change_of_basis(n, "he", "gauss-moment"))
        assert via.entries == identity(n)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_compose_is_the_plain_triple_sum(self, data):
        n = data.draw(st.integers(1, 12))
        first = data.draw(basis_matrices(n, "he", "monomial"))
        second = data.draw(basis_matrices(n, "monomial", "gauss-moment"))
        s, f = second.entries, first.entries
        want = tuple(
            tuple(sum(s[i][k] * f[k][j] for k in range(n)) for j in range(n)) for i in range(n)
        )
        product = compose(second, first)
        assert product.entries == want
        assert (product.from_basis, product.to_basis) == ("he", "gauss-moment")

    def test_compose_mismatches_are_refused(self):
        he_to_x = change_of_basis(3, "he", "monomial")
        with pytest.raises(ValueError, match="cannot compose"):
            compose(he_to_x, he_to_x)
        with pytest.raises(ValueError, match="sizes differ"):
            compose(change_of_basis(4, "monomial", "he"), he_to_x)


class TestGaussianSmoothingIdentities:
    def test_expected_hermite_examples(self):
        # E[He_n(x + Z)] = sum_k [x^k]He_n E[(x + Z)^k], and E[(x + Z)^k] is the
        # moment polynomial: exactly x^n
        for n in range(31):
            expected = combine(hermite_explicit(n).coeffs, gauss_moment_polynomial)
            assert expected == ExactPolynomial((0,) * n + (1,)), n
        assert combine(hermite_explicit(5).coeffs, gauss_moment_polynomial)(Fraction(-3, 2)) \
            == Fraction(-243, 32)

    def test_expected_hermite_against_quadrature(self):
        # int phi(y - x) He_n(y) dy = x^n, integrated in the shifted variable
        from hermite_kit import eval_hermite

        for n in range(11):
            rule_order = n + 4
            for x in (0.0, 1.0, 2.5):
                oracle = gauss_expectation(lambda z: eval_hermite(n, x + z), rule_order)
                expected = x**n
                assert abs(oracle - expected) <= 1e-9 * max(1.0, abs(expected))

    def test_deconvolution_identity_values(self):
        # sigma^n He_n(x / sigma), evaluated exactly and rounded once
        assert preimage_value(0, 1.0, 0.3) == 1.0
        assert preimage_value(2, 1.0, 0.0) == -1.0
        assert preimage_value(2, 2.0, 2.0) == 0.0

    def test_deconvolution_identity_past_double_range(self):
        # sigma**40 = 1e400: the value is past double range too
        assert preimage_value(40, 1e10, 1.0) == math.inf
        assert preimage_value(41, 1e10, -1.0) == -math.inf
        assert preimage_value(41, 1e10, 0.0) == 0.0  # odd He_41(0) = 0

    def test_deconvolution_identity_blurs_back_to_power(self):
        # (phi_sigma * f)(y) = y^n for f(x) = sigma^n He_n(x / sigma)
        for n in range(7):
            for sigma in (0.5, 1.0, 2.0):
                for y in (-1.0, 0.5, 2.0):
                    blurred = gauss_expectation(
                        lambda z: preimage_value(n, sigma, y + sigma * z), n + 4)
                    assert blurred == pytest.approx(y**n, rel=1e-10, abs=1e-10)

    def test_preimage_polynomial_is_exact(self):
        for sigma in (0.5, 0.75, Fraction(1, 3), 1e-300):
            for n in range(41):
                assert weierstrass_preimage_polynomial(n, sigma) == scaled_hermite(n, sigma)

    def test_sigma_validation(self):
        with pytest.raises(ValueError):
            weierstrass_preimage_polynomial(2, 0.0)
        with pytest.raises(ValueError):
            weierstrass_preimage_polynomial(2, -1)
