"""Chebyshev-Hermite polynomial toolkit.

Exact polynomial construction, Gauss-Hermite quadrature and cubature,
Gaussian moments and basis connections, Hermite expansions of densities and
random variables, and the matching-polynomial combinatorics that evaluates
weighted integrals of Hermite products.
"""

import importlib

from .exactpoly import ExactPolynomial
from .graphs import (
    GraphFileError,
    SimpleGraph,
    complete_graph,
    complete_kpartite,
    count_complete_matches,
    count_j_matches,
    format_edge_list,
    hermite_product_integral,
    linearization_coeffs,
    match_count_table,
    matching_polynomial,
    parse_edge_list,
    partite_closed_form,
    verify_hermite_matching,
)
from .moments import (
    ChangeOfBasisMatrix,
    change_of_basis,
    compose,
    expected_hermite_of_gaussian,
    gauss_moment_polynomial,
    gaussian_raw_moment,
    gaussian_raw_moment_hermite_form,
    hermite_in_moments,
    moments_in_hermite,
    weierstrass_deconvolution_identity,
    weierstrass_preimage_polynomial,
)
from .polynomials import (
    PHYSICIST,
    PROBABILIST,
    eval_hermite,
    eval_hermite_function,
    generating_function_check,
    gram_schmidt_construct,
    hermite_derivative,
    hermite_explicit,
    hermite_ode_residual,
    hermite_recurrence,
    hermite_table,
)
from .tensors import tensor_component

# numpy-backed names load their module on first use, so that the exact
# paths never import numpy; __getattr__ caches each in the module globals
_LAZY_MODULE = {
    **dict.fromkeys((
        "DENSITY_WEIGHTED",
        "PLAIN_RV",
        "HermiteSeries",
        "StandardizedMoments",
        "WCETensorCoeffs",
        "evaluate_series",
        "fourier_eigen_check",
        "fourier_hermite_coeffs",
        "gaussian_mixture_deconvolve",
        "gram_charlier_density",
        "series_tail_indicator",
        "wce_coeffs_1d",
        "wce_coeffs_multi",
        "wce_reconstruct",
    ), "expansions"),
    **dict.fromkeys((
        "CubatureRule",
        "QuadratureRule",
        "gauss_hermite_rule",
        "integrate_cubature",
        "integrate_weighted",
        "integrate_whole_line",
        "tensor_cubature",
    ), "quadrature"),
}

__version__ = "0.1.0"

__all__ = [
    "ExactPolynomial",
    "DENSITY_WEIGHTED",
    "PLAIN_RV",
    "HermiteSeries",
    "StandardizedMoments",
    "WCETensorCoeffs",
    "evaluate_series",
    "fourier_eigen_check",
    "fourier_hermite_coeffs",
    "gaussian_mixture_deconvolve",
    "gram_charlier_density",
    "series_tail_indicator",
    "wce_coeffs_1d",
    "wce_coeffs_multi",
    "wce_reconstruct",
    "GraphFileError",
    "SimpleGraph",
    "complete_graph",
    "complete_kpartite",
    "count_complete_matches",
    "count_j_matches",
    "format_edge_list",
    "hermite_product_integral",
    "linearization_coeffs",
    "match_count_table",
    "matching_polynomial",
    "parse_edge_list",
    "partite_closed_form",
    "verify_hermite_matching",
    "ChangeOfBasisMatrix",
    "change_of_basis",
    "compose",
    "expected_hermite_of_gaussian",
    "gauss_moment_polynomial",
    "gaussian_raw_moment",
    "gaussian_raw_moment_hermite_form",
    "hermite_in_moments",
    "moments_in_hermite",
    "weierstrass_deconvolution_identity",
    "weierstrass_preimage_polynomial",
    "PHYSICIST",
    "PROBABILIST",
    "eval_hermite",
    "eval_hermite_function",
    "generating_function_check",
    "gram_schmidt_construct",
    "hermite_derivative",
    "hermite_explicit",
    "hermite_ode_residual",
    "hermite_recurrence",
    "hermite_table",
    "CubatureRule",
    "QuadratureRule",
    "gauss_hermite_rule",
    "integrate_cubature",
    "integrate_weighted",
    "integrate_whole_line",
    "tensor_cubature",
    "tensor_component",
]


def __getattr__(name):
    if name not in _LAZY_MODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY_MODULE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
