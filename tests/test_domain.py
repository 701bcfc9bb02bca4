"""One domain contract for every public order, size and scale argument.

An order or size is any integer type (numpy's too) and nonnegative, or
positive where the function needs one; a float is refused even when it is
whole.  A sigma is finite and positive, and a mu or nu_k is finite.  Each
refusal is a ValueError with one wording, and a numpy integer gives exactly
what the same Python int gives.
"""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from hermite_kit import (
    ExactPolynomial,
    SimpleGraph,
    StandardizedMoments,
    change_of_basis,
    complete_graph,
    complete_kpartite,
    count_complete_matches,
    count_j_matches,
    eval_hermite,
    eval_hermite_function,
    expected_hermite_of_gaussian,
    fourier_eigen_check,
    fourier_hermite_coeffs,
    gauss_hermite_rule,
    gauss_moment_polynomial,
    gaussian_mixture_deconvolve,
    gaussian_raw_moment,
    gaussian_raw_moment_hermite_form,
    generating_function_check,
    gram_charlier_density,
    gram_schmidt_construct,
    hermite_derivative,
    hermite_explicit,
    hermite_in_moments,
    hermite_ode_residual,
    hermite_product_integral,
    hermite_recurrence,
    hermite_table,
    linearization_coeffs,
    moments_in_hermite,
    partite_closed_form,
    tensor_cubature,
    verify_hermite_matching,
    wce_coeffs_1d,
    wce_coeffs_multi,
    weierstrass_deconvolution_identity,
    weierstrass_preimage_polynomial,
)
from hermite_kit.moments import identity_matrix
from hermite_kit.polynomials import eval_orthonormal_hermite_function

GAUSSIAN = StandardizedMoments(mu=0.0, sigma=1.0, nu=(0.0, 3.0))

# each call takes the order or size under test; 3 is a valid value for every one
ORDERS = {
    "hermite_recurrence": hermite_recurrence,
    "hermite_explicit": lambda n: hermite_explicit(n, "h"),
    "gram_schmidt_construct": gram_schmidt_construct,
    "hermite_table": lambda n: hermite_table(n, 0.5),
    "hermite_table(array)": lambda n: hermite_table(n, np.array([0.5, 40.0])),
    "eval_hermite": lambda n: eval_hermite(n, 0.5),
    "eval_hermite_function": lambda n: eval_hermite_function(n, 0.5),
    "eval_orthonormal_hermite_function": lambda n: eval_orthonormal_hermite_function(n, 0.5),
    "hermite_derivative": hermite_derivative,
    "generating_function_check": lambda n: generating_function_check(0.5, 0.25, n),
    "hermite_ode_residual": lambda n: hermite_ode_residual(n, 0.5),
    "ExactPolynomial.monomial": ExactPolynomial.monomial,
    "ExactPolynomial.derivative": ExactPolynomial((1, 2, 3, 4, 5)).derivative,
    "gaussian_raw_moment": lambda n: gaussian_raw_moment(n, 0.5, 2.0),
    "gaussian_raw_moment_hermite_form": lambda n: gaussian_raw_moment_hermite_form(n, 0.5, 2.0),
    "hermite_in_moments": hermite_in_moments,
    "moments_in_hermite": moments_in_hermite,
    "gauss_moment_polynomial": gauss_moment_polynomial,
    "change_of_basis": lambda n: change_of_basis(n, "he", "monomial"),
    "identity_matrix": lambda n: identity_matrix(n, "he"),
    "expected_hermite_of_gaussian": lambda n: expected_hermite_of_gaussian(n, 4.0),
    "weierstrass_deconvolution_identity": lambda n: weierstrass_deconvolution_identity(n, 2.0, 0.5),
    "weierstrass_preimage_polynomial": lambda n: weierstrass_preimage_polynomial(n, 0.5),
    "fourier_hermite_coeffs": lambda n: fourier_hermite_coeffs(math.cos, n),
    "fourier_hermite_coeffs(quad_order)": lambda n: fourier_hermite_coeffs(math.cos, 1, n),
    "gram_charlier_density": lambda n: gram_charlier_density(GAUSSIAN, n, 0.5),
    "wce_coeffs_1d": lambda n: wce_coeffs_1d(math.cos, n),
    "wce_coeffs_1d(quad_order)": lambda n: wce_coeffs_1d(math.cos, 1, n),
    "wce_coeffs_multi(dimension)": lambda n: wce_coeffs_multi(np.sum, n, 1, 3),
    "wce_coeffs_multi(order)": lambda n: wce_coeffs_multi(np.sum, 1, n),
    "wce_coeffs_multi(quad_order)": lambda n: wce_coeffs_multi(np.sum, 2, 1, n),
    "fourier_eigen_check": lambda n: fourier_eigen_check(n, [0.5, 1.5]),
    "gauss_hermite_rule": gauss_hermite_rule,
    "tensor_cubature(dimension)": lambda n: tensor_cubature(n, 2),
    "tensor_cubature(order)": lambda n: tensor_cubature(2, n),
    "SimpleGraph": lambda n: SimpleGraph(n, frozenset({(1, 2)})),
    "count_j_matches": lambda n: count_j_matches(complete_graph(4), n),
    "complete_graph": complete_graph,
    "complete_kpartite": lambda n: complete_kpartite([2, n]),
    "verify_hermite_matching": verify_hermite_matching,
    "count_complete_matches": lambda n: count_complete_matches([1, n, 2]),
    "partite_closed_form": lambda n: partite_closed_form([n, 3]),
    "hermite_product_integral": lambda n: hermite_product_integral([3, n]),
    "linearization_coeffs(m)": lambda n: linearization_coeffs(n, 2),
    "linearization_coeffs(n)": lambda n: linearization_coeffs(2, n),
}

SIGMAS = {
    "gaussian_raw_moment": lambda s: gaussian_raw_moment(3, 0.5, s),
    "gaussian_raw_moment_hermite_form": lambda s: gaussian_raw_moment_hermite_form(3, 0.5, s),
    "weierstrass_deconvolution_identity": lambda s: weierstrass_deconvolution_identity(3, s, 0.5),
    "weierstrass_preimage_polynomial": lambda s: weierstrass_preimage_polynomial(3, s),
    "StandardizedMoments": lambda s: StandardizedMoments(0.0, s),
    "gaussian_mixture_deconvolve": lambda s: gaussian_mixture_deconvolve(
        ExactPolynomial((0, 0, 1)), s),
}


def same(a, b):
    # equal values of equal types, arrays and quadrature rules included
    if hasattr(a, "weights"):
        return (a.order, getattr(a, "dimension", 1)) == (b.order, getattr(b, "dimension", 1)) \
            and np.array_equal(a.weights, b.weights) and np.array_equal(a.nodes, b.nodes)
    if hasattr(a, "tensors"):
        return a.dimension == b.dimension and all(map(np.array_equal, a.tensors, b.tensors))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b and repr(a) == repr(b)


@pytest.mark.parametrize("bad", [-1, 2.5, 2.0, "3"])
@pytest.mark.parametrize("name", sorted(ORDERS))
def test_bad_order_or_size_is_refused(name, bad):
    with pytest.raises(ValueError, match=f"got {re.escape(repr(bad))}"):
        ORDERS[name](bad)


@pytest.mark.parametrize("name", sorted(ORDERS))
def test_numpy_integer_gives_the_python_int_result(name):
    assert same(ORDERS[name](np.int64(3)), ORDERS[name](3))


@pytest.mark.parametrize("bad, message", [
    (0.0, "sigma must be positive, got 0.0"),
    (-1.0, "sigma must be positive, got -1.0"),
    (math.nan, "sigma must be positive, got nan"),
    (math.inf, "sigma must be finite, got inf"),
    (-math.inf, "sigma must be finite, got -inf"),
])
@pytest.mark.parametrize("name", sorted(SIGMAS))
def test_bad_sigma_is_refused(name, bad, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SIGMAS[name](bad)


def test_one_wording_for_every_order():
    with pytest.raises(ValueError, match=r"^polynomial order must be a nonnegative integer, got 2\.0$"):
        hermite_explicit(2.0)
    with pytest.raises(ValueError, match=r"^part size must be a nonnegative integer, got -1$"):
        count_complete_matches([2, -1])
    with pytest.raises(ValueError, match=r"^quadrature order must be a positive integer, got 0$"):
        gauss_hermite_rule(0)
    # the range checks after it keep their own wording
    with pytest.raises(ValueError, match=r"^order must be 0\.\.170, got 171$"):
        gram_charlier_density(GAUSSIAN, 171, 0.0)
    with pytest.raises(ValueError, match=r"^dimension must be 1\.\.3, got 0$"):
        wce_coeffs_multi(np.sum, 0, 1)


def test_non_integer_sizes_get_no_answer():
    # truncating or ranging over 2.5 would give {3.5: 1, 1.5: 2.0}, K_(1,2), 2 and 2.0
    for call in (lambda: linearization_coeffs(2.5, 1), lambda: complete_kpartite([1.5, 2]),
                 lambda: count_complete_matches([2.7, 2.2]),
                 lambda: expected_hermite_of_gaussian(0.5, 4.0)):
        with pytest.raises(ValueError, match="must be a nonnegative integer"):
            call()
    # Fraction(inf) would raise OverflowError, which the CLI does not map to exit 2
    with pytest.raises(ValueError, match="^sigma must be finite, got inf$"):
        gaussian_mixture_deconvolve(ExactPolynomial((0, 0, 1)), math.inf)
    assert hermite_explicit(np.int64(3)) == hermite_explicit(3)
    assert type(SimpleGraph(np.int64(2), frozenset()).vertex_count) is int


def test_exact_sigma_types_pass():
    # Fractions and big ints are compared exactly, never converted to float
    assert gaussian_mixture_deconvolve(ExactPolynomial((0, 0, 1)), 10**400).coeffs[0] == -10**800
    assert weierstrass_preimage_polynomial(2, Fraction(1, 2)) == \
        weierstrass_preimage_polynomial(2, 0.5)
    # so are a big-int mu and Fraction moments
    assert StandardizedMoments(10**400, 1.0, (Fraction(1, 3), 3)).mu == 10**400


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field, build", [
    ("mu", lambda v: dict(mu=v)),
    ("nu_3", lambda v: dict(nu=(v, 3.0))),
    ("nu_4", lambda v: dict(nu=(0.0, v))),
])
def test_standardized_moments_must_be_finite(field, build, bad):
    # a nan mu used to reach gram_charlier_density as "cannot convert NaN to integer ratio"
    message = f"^{field} must be finite, got {bad!r}$"
    with pytest.raises(ValueError, match=message):
        StandardizedMoments(**{"mu": 0.0, "sigma": 1.0, **build(bad)})
    with pytest.raises(ValueError, match=message):
        GAUSSIAN._replace(**build(bad))
