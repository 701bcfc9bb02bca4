"""Chebyshev-Hermite polynomial toolkit.

Exact polynomial construction, Gauss-Hermite quadrature and cubature,
Gaussian moments and basis connections, Hermite expansions of densities and
random variables, and the matching-polynomial combinatorics that evaluates
weighted integrals of Hermite products.
"""

import importlib

__version__ = "0.1.0"

# each public name and its module: a name loads its module on first use, so
# that the exact paths never import numpy, and __getattr__ caches it in the
# module globals
_PUBLIC = {
    "ExactPolynomial": "exactpoly",
    "DENSITY_WEIGHTED": "expansions",
    "PLAIN_RV": "expansions",
    "HermiteSeries": "expansions",
    "StandardizedMoments": "expansions",
    "WCETensorCoeffs": "expansions",
    "evaluate_series": "expansions",
    "fourier_eigen_check": "expansions",
    "gram_charlier_density": "expansions",
    "series_tail_indicator": "expansions",
    "wce_reconstruct": "expansions",
    "SimpleGraph": "graphs",
    "complete_graph": "graphs",
    "complete_kpartite": "graphs",
    "count_complete_matches": "graphs",
    "count_j_matches": "graphs",
    "hermite_product_integral": "graphs",
    "linearization_coeffs": "graphs",
    "match_count_table": "graphs",
    "matching_polynomial": "graphs",
    "partite_closed_form": "graphs",
    "ChangeOfBasisMatrix": "moments",
    "change_of_basis": "moments",
    "compose": "moments",
    "gauss_moment_polynomial": "moments",
    "gaussian_mixture_deconvolve": "moments",
    "gaussian_raw_moment": "moments",
    "weierstrass_preimage_polynomial": "moments",
    "PHYSICIST": "polynomials",
    "PROBABILIST": "polynomials",
    "eval_hermite": "polynomials",
    "eval_hermite_function": "polynomials",
    "gram_schmidt_construct": "polynomials",
    "hermite_explicit": "polynomials",
    "hermite_recurrence": "polynomials",
    "hermite_table": "polynomials",
    "tensor_component": "polynomials",
    "CubatureRule": "quadrature",
    "QuadratureRule": "quadrature",
    "fourier_hermite_coeffs": "quadrature",
    "gauss_hermite_rule": "quadrature",
    "integrate_cubature": "quadrature",
    "integrate_weighted": "quadrature",
    "integrate_whole_line": "quadrature",
    "tensor_cubature": "quadrature",
    "wce_coeffs_1d": "quadrature",
    "wce_coeffs_multi": "quadrature",
}

__all__ = [*_PUBLIC]


def __getattr__(name):
    if name not in _PUBLIC:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_PUBLIC[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
