"""Gaussian moments, basis connections, and the blur/deblur identities."""

import math
from fractions import Fraction

import mpmath
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
    integrate_weighted,
    weierstrass_deconvolution_identity,
    weierstrass_preimage_polynomial,
)
from hermite_kit.moments import ChangeOfBasisMatrix, identity_matrix

SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


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
    return sum((c * basis(k) for k, c in enumerate(coeffs)), ExactPolynomial.zero())


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
            assert combine(m.column(n), hermite_explicit) == gauss_moment_polynomial(n)

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
        assert m.column(0) == (1, 0, 0, 0)
        assert m.column(2) == (-2, 0, 1, 0)
        assert m.column(3) == (0, -6, 0, 1)

    def test_moments_in_hermite_values(self):
        m = change_of_basis(4, "gauss-moment", "he")
        assert m.column(0) == (1, 0, 0, 0, 0)
        assert m.column(2) == (2, 0, 1, 0, 0)
        assert m.column(4) == (12, 0, 12, 0, 1)

    def test_hermite_rebuilt_from_moment_polynomials(self):
        m = change_of_basis(15, "he", "gauss-moment")
        for n in range(16):
            assert combine(m.column(n), gauss_moment_polynomial) == hermite_explicit(n)


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
        assert m.column(2) == (-1, 0, 1)

    @pytest.mark.parametrize("a,b", PAIRS)
    def test_inverse_pairs_exact(self, a, b):
        for n in range(13):
            forward = change_of_basis(n, a, b)
            backward = change_of_basis(n, b, a)
            assert compose(backward, forward).entries == identity_matrix(n, a).entries
            assert compose(forward, backward).entries == identity_matrix(n, b).entries

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
            expected = list(hermite_explicit(k).coeffs) + [0] * (n - k)
            assert list(m.column(k)) == expected

    def test_apply_maps_coefficient_vectors(self):
        # He_2 + 2 He_0 is x^2 + 1
        m = change_of_basis(2, "he", "monomial")
        assert m.apply((2, 0, 1)) == (1, 0, 1)
        for coeffs in ((2, 0), (2, 0, 1, 5)):
            with pytest.raises(ValueError, match=f"^expected 3 coefficients, got {len(coeffs)}$"):
                m.apply(coeffs)

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
        assert via.entries == identity_matrix(n, "he").entries

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

    def test_json_serialization(self):
        import json

        m = change_of_basis(2, "he", "monomial")
        rows = json.loads(m.to_json())
        assert rows == [["1", "0", "-1"], ["0", "1", "0"], ["0", "0", "1"]]


class TestGaussianSmoothingIdentities:
    def test_expected_hermite_examples(self):
        # E[He_n(x + Z)] = sum_k [x^k]He_n E[(x + Z)^k], and E[(x + Z)^k] is the
        # moment polynomial: exactly x^n
        for n in range(31):
            expected = combine(hermite_explicit(n).coeffs, gauss_moment_polynomial)
            assert expected == ExactPolynomial.monomial(n), n
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
        assert weierstrass_deconvolution_identity(0, 1.0, 0.3) == 1.0
        assert weierstrass_deconvolution_identity(2, 1.0, 0.0) == -1.0
        assert weierstrass_deconvolution_identity(2, 2.0, 2.0) == 0.0

    def test_deconvolution_identity_past_double_range(self):
        # sigma**40 = 1e400 overflows; the value is past double range too
        assert weierstrass_deconvolution_identity(40, 1e10, 1.0) == math.inf
        assert weierstrass_deconvolution_identity(41, 1e10, -1.0) == -math.inf
        assert weierstrass_deconvolution_identity(41, 1e10, 0.0) == 0.0  # odd He_41(0) = 0
        # sigma**200 underflows to 0 and He_200(1e10) overflows: 0 * inf, not nan
        exact = weierstrass_preimage_polynomial(200, 1e-10)(Fraction(1.0))
        assert weierstrass_deconvolution_identity(200, 1e-10, 1.0) == float(exact)

    def test_deconvolution_identity_blurs_back_to_power(self):
        # (phi_sigma * f)(y) = y^n for f(x) = sigma^n He_n(x / sigma)
        for n in range(7):
            for sigma in (0.5, 1.0, 2.0):
                for y in (-1.0, 0.5, 2.0):
                    blurred = gauss_expectation(
                        lambda z: weierstrass_deconvolution_identity(n, sigma, y + sigma * z),
                        n + 4,
                    )
                    assert blurred == pytest.approx(y**n, rel=1e-10, abs=1e-10)

    def test_preimage_polynomial_is_exact(self):
        for n in range(11):
            poly = weierstrass_preimage_polynomial(n, Fraction(1, 2))
            scaled = Fraction(1, 2) ** n * hermite_explicit(n).scale_argument(2)
            assert poly == scaled

    def test_sigma_validation(self):
        with pytest.raises(ValueError):
            weierstrass_deconvolution_identity(2, 0.0, 1.0)
        with pytest.raises(ValueError):
            weierstrass_preimage_polynomial(2, -1)
