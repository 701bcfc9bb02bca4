"""One domain contract for every public order, size, scale and float argument.

An order or size is any integer type (numpy's too) and nonnegative, or
positive where the function needs one; a float is refused even when it is
whole.  A float argument is any real number: a str, complex, Decimal,
numpy bool or, where one number is expected, array is refused with a
TypeError that names the argument, and a decimal string is taken only as
an exact coefficient.  A sigma is finite and positive, a mu or nu_k is
finite, and a point x is not nan.  Each
refusal is a ValueError with one wording, and a numpy integer or float, or
an array of them, gives exactly what the Python numbers it holds give, its
refusal included, word for word.  At a float extreme (+-inf, +-1e308, the
smallest subnormal, -0.0) every float argument gives a value or its limit,
never nan, or a ValueError that names it, with the argument's one wording.
Every import in src/ is read by its module.
"""

import ast
import collections
import math
import pathlib
import random
import re
import sys
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from hermite_kit import (
    DENSITY_WEIGHTED,
    PLAIN_RV,
    ExactPolynomial,
    SimpleGraph,
    HermiteSeries,
    StandardizedMoments,
    WCETensorCoeffs,
    change_of_basis,
    complete_graph,
    complete_kpartite,
    count_complete_matches,
    count_j_matches,
    eval_hermite,
    eval_hermite_function,
    evaluate_series,
    fourier_eigen_check,
    fourier_hermite_coeffs,
    gauss_hermite_rule,
    gauss_moment_polynomial,
    gaussian_mixture_deconvolve,
    gaussian_raw_moment,
    gram_charlier_density,
    gram_schmidt_construct,
    hermite_explicit,
    hermite_product_integral,
    hermite_recurrence,
    hermite_table,
    linearization_coeffs,
    partite_closed_form,
    tensor_component,
    tensor_cubature,
    wce_coeffs_1d,
    wce_coeffs_multi,
    wce_reconstruct,
    weierstrass_preimage_polynomial,
)
from hermite_kit.polynomials import _rounded

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
    "gaussian_raw_moment": lambda n: gaussian_raw_moment(n, 0.5, 2.0),
    "gauss_moment_polynomial": gauss_moment_polynomial,
    "change_of_basis": lambda n: change_of_basis(n, "he", "monomial"),
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
    "count_complete_matches": lambda n: count_complete_matches([1, n, 2]),
    "partite_closed_form": lambda n: partite_closed_form([n, 3]),
    "hermite_product_integral": lambda n: hermite_product_integral([3, n]),
    "linearization_coeffs(m)": lambda n: linearization_coeffs(n, 2),
    "linearization_coeffs(n)": lambda n: linearization_coeffs(2, n),
}

SIGMAS = {
    "gaussian_raw_moment": lambda s: gaussian_raw_moment(3, 0.5, s),
    "weierstrass_preimage_polynomial": lambda s: weierstrass_preimage_polynomial(3, s),
    "StandardizedMoments": lambda s: StandardizedMoments(0.0, s),
    "gaussian_mixture_deconvolve": lambda s: gaussian_mixture_deconvolve(
        ExactPolynomial((0, 0, 1)), s),
}

# 1 + y/2 + He_2(x) - He_2(y) on R^2
RECONSTRUCTION = WCETensorCoeffs(2, (np.array(1.0), np.array([0.0, 0.5]),
                                     np.array([[1.0, 0.0], [0.0, -1.0]])))


def _finite(what):
    return lambda v: None if abs(v) < math.inf else f"{what} must be finite, got {v!r}"


def _moment(what):
    # a finite moment that rounds past double range overflows its series coefficient
    return lambda v: _finite(what)(v) or REFUSAL["series coefficients"](v)


# the full message with which a float argument refuses a value, None where it
# takes the value; a point coordinate is x, in the recurrence kernel's words.
# Exact values are compared exactly: a big int past double range is finite.
REFUSAL = {
    "x": lambda v: "x must not be nan" if v != v else None,
    "mu": _finite("mu"),
    "nu_3": _moment("nu_3"),
    "nu_4": _moment("nu_4"),
    "sigma": lambda v: (f"sigma must be finite, got {v!r}" if abs(v) == math.inf
                        else None if v > 0 else f"sigma must be positive, got {v!r}"),
    "series coefficients": lambda v: (
        None if math.isfinite(_rounded(v)) else "series coefficients must be finite"),
    # a coordinate of RECONSTRUCTION's point: at y = +inf its top terms are inf - inf
    "point": lambda v: (f"point {(0.5, v)!r} has terms of both signs past double range"
                        if _rounded(v) == math.inf else REFUSAL["x"](v)),
}

# each row takes the float argument under test, for which 0.5 is valid, and
# names its REFUSAL.  fourier_eigen_check's k is exempt until it is checked
# against the rule's resolved band (the fourier-check item in ROADMAP.md): a k
# whose product with a node overflows raises OverflowError.
XS = {
    "eval_hermite": ("x", lambda x: eval_hermite(3, x)),
    "eval_hermite(h)": ("x", lambda x: eval_hermite(4, x, "h")),
    "eval_hermite_function": ("x", lambda x: eval_hermite_function(3, x)),
    "eval_hermite_function(h)": ("x", lambda x: eval_hermite_function(4, x, "h")),
    "hermite_table": ("x", lambda x: hermite_table(5, x)),
    "ExactPolynomial.__call__": ("x", lambda x: ExactPolynomial((1, -3, 0, 1))(x)),
    "evaluate_series(plain-rv)": ("x", lambda x: evaluate_series(
        HermiteSeries((1.0, 0.0, 1.0), PLAIN_RV), x)),
    "evaluate_series(density-weighted)": ("x", lambda x: evaluate_series(
        HermiteSeries((1.0, 0.0, 1.0), DENSITY_WEIGHTED), x)),
    "HermiteSeries(coeffs)": ("series coefficients", lambda c: evaluate_series(
        HermiteSeries((1.0, c), PLAIN_RV), 0.5)),
    "gram_charlier_density": ("x", lambda x: gram_charlier_density(GAUSSIAN, 4, x)),
    "gram_charlier_density(mu)": ("mu", lambda mu: gram_charlier_density(
        GAUSSIAN._replace(mu=mu), 4, 0.5)),
    "gram_charlier_density(sigma)": ("sigma", lambda s: gram_charlier_density(
        GAUSSIAN._replace(sigma=s), 4, 0.5)),
    "gram_charlier_density(nu_3)": ("nu_3", lambda v: gram_charlier_density(
        GAUSSIAN._replace(nu=(v, 3.0)), 4, 0.5)),
    "gram_charlier_density(nu_4)": ("nu_4", lambda v: gram_charlier_density(
        GAUSSIAN._replace(nu=(0.0, v)), 4, 0.5)),
    "gaussian_raw_moment(mu)": ("mu", lambda mu: gaussian_raw_moment(3, mu, 2.0)),
    "gaussian_raw_moment(sigma)": ("sigma", lambda s: gaussian_raw_moment(3, 0.5, s)),
    # the exact results, evaluated exactly and rounded once
    "weierstrass_preimage_polynomial(sigma)": ("sigma", lambda s: _rounded(
        weierstrass_preimage_polynomial(3, s)(Fraction(0.5)))),
    "gaussian_mixture_deconvolve(sigma)": ("sigma", lambda s: _rounded(
        gaussian_mixture_deconvolve(ExactPolynomial((0, 0, 1)), s)(Fraction(0.5)))),
    "tensor_component": ("x", lambda x: tensor_component((0, 0, 1), (x, 0.5))),
    # He_2(x) He_1(0) is 0 at every x, also where He_2(x) leaves double range
    "tensor_component(zero factor)": ("x", lambda x: tensor_component((0, 0, 1), (x, 0.0))),
    "wce_reconstruct": ("point", lambda x: wce_reconstruct(RECONSTRUCTION, (0.5, x))),
}

# public callables with no order, size, scale or float argument of their own:
# they take graphs, callables, rules or text, or are records and errors
NO_NUMERIC_ARGUMENT = {
    "ChangeOfBasisMatrix", "CubatureRule", "GraphFileError", "QuadratureRule",
    "WCETensorCoeffs", "compose", "format_edge_list", "integrate_cubature",
    "integrate_weighted", "integrate_whole_line", "match_count_table",
    "matching_polynomial", "parse_edge_list", "series_tail_indicator",
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
    with pytest.raises(ValueError, match="got -1$"):  # a refusal names the Python int
        ORDERS[name](np.int64(-1))


# every float argument, the sigma rows' included
FLOAT_CALLS = {**{name: call for name, (_, call) in XS.items()}, **SIGMAS}

# numpy floats at values each holds exactly; float32's nearest to 3e38 is 3.0000000054977558e38
NUMPY_FLOATS = [*((np.float64, v) for v in (0.5, 1e200, 5e-324, -1e308, math.inf, -math.inf)),
                *((np.float32, v) for v in (0.5, -1.0, 2.0**-149, float(np.float32(3e38))))]


@pytest.mark.parametrize("kind, value", NUMPY_FLOATS,
                         ids=[f"{kind.__name__}({value!r})" for kind, value in NUMPY_FLOATS])
@pytest.mark.parametrize("name", sorted(FLOAT_CALLS))
def test_numpy_float_gives_the_python_float_result(name, kind, value):
    # a numpy float is taken as the Python float it holds: the same value and type,
    # or the very same refusal, which names the float, and no warning
    call, number = FLOAT_CALLS[name], kind(value)
    assert float(number) == value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            want = call(value)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                call(number)
            return
        got = call(number)
    assert same(got, want) and type(got) is type(want)


def test_a_numpy_integer_coordinate_is_named_as_the_python_int():
    # at y = +inf RECONSTRUCTION's terms are inf - inf; the refusal shows each
    # coordinate as the kernel took it, the float ones by NUMPY_FLOATS' infinities
    with pytest.raises(ValueError, match=r"^point \(1, inf\) has terms of both signs"):
        wce_reconstruct(RECONSTRUCTION, (np.int64(1), math.inf))


# numpy's numbers where a record or an exact polynomial takes them, each beside the
# same call on the Python numbers they hold
NUMPY_NUMBERS = {
    "HermiteSeries(ndarray)": (
        lambda: HermiteSeries(np.array([1.0, 1e200, -5e-324]), PLAIN_RV),
        lambda: HermiteSeries([1.0, 1e200, -5e-324], PLAIN_RV)),
    "HermiteSeries(numpy integers)": (
        lambda: HermiteSeries((np.int64(1), np.uint8(2), np.int8(-3)), DENSITY_WEIGHTED),
        lambda: HermiteSeries((1, 2, -3), DENSITY_WEIGHTED)),
    "evaluate_series(ndarray)": (
        lambda: evaluate_series(HermiteSeries(np.arange(-2.0, 3.0), DENSITY_WEIGHTED), 0.5),
        lambda: evaluate_series(HermiteSeries([-2.0, -1.0, 0.0, 1.0, 2.0], DENSITY_WEIGHTED), 0.5)),
    "evaluate_series(ndarray past double range)": (
        lambda: evaluate_series(HermiteSeries(np.array([1e308, 1e308]), PLAIN_RV), 10.0),
        lambda: evaluate_series(HermiteSeries([1e308, 1e308], PLAIN_RV), 10.0)),
    "StandardizedMoments(ndarray)": (
        lambda: StandardizedMoments(0.25, 2.0, np.array([0.5, 3.5])),
        lambda: StandardizedMoments(0.25, 2.0, [0.5, 3.5])),
    "StandardizedMoments(numpy integers)": (
        lambda: StandardizedMoments(0.25, 2.0, (np.int64(0), np.int32(3))),
        lambda: StandardizedMoments(0.25, 2.0, (0, 3))),
    "ExactPolynomial(ndarray)": (
        lambda: ExactPolynomial(np.arange(3)), lambda: ExactPolynomial([0, 1, 2])),
    "ExactPolynomial(float ndarray)": (
        lambda: ExactPolynomial(np.array([0.5, -1.5])), lambda: ExactPolynomial([0.5, -1.5])),
    "ExactPolynomial(numpy integers)": (
        lambda: ExactPolynomial((np.int64(2**62), np.uint8(2), np.int8(-3))),
        lambda: ExactPolynomial((2**62, 2, -3))),
    "ExactPolynomial.__call__(numpy integer)": (
        lambda: ExactPolynomial((1, 2))(np.int64(3)), lambda: ExactPolynomial((1, 2))(3)),
    "ExactPolynomial.__call__(past int64)": (  # exact: 2**186, not an int64 product
        lambda: ExactPolynomial((0, 0, 0, 1))(np.int64(2**62)),
        lambda: ExactPolynomial((0, 0, 0, 1))(2**62)),
    "ExactPolynomial * numpy integer": (
        lambda: ExactPolynomial((1, 2)) * np.int32(3), lambda: ExactPolynomial((1, 2)) * 3),
}


@pytest.mark.parametrize("name", sorted(NUMPY_NUMBERS))
def test_numpy_numbers_are_the_python_numbers_they_hold(name):
    numpy_call, python_call = NUMPY_NUMBERS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = numpy_call()
    want = python_call()
    assert same(got, want) and type(got) is type(want)


# each row takes an argument that must be a real number, under the name its refusal gives
REAL_ARGUMENTS = {
    **{name: ("x" if what == "point" else what, call) for name, (what, call) in XS.items()},
    **{name: ("sigma", call) for name, call in SIGMAS.items()},
    "StandardizedMoments(mu)": ("mu", lambda v: StandardizedMoments(v, 1.0)),
    "StandardizedMoments(nu_5)": ("nu_5", lambda v: StandardizedMoments(0.0, 1.0, (0, 3, v))),
    # a coordinate of degree 0 is a point coordinate all the same
    "tensor_component(degree 0)": ("x", lambda x: tensor_component((0,), (0.5, x))),
    "ExactPolynomial(coefficient)": ("coefficient", lambda c: ExactPolynomial((1, c))),
    "ExactPolynomial * factor": ("factor", lambda c: ExactPolynomial((1, 2)) * c),
    "fourier_eigen_check(k)": ("k", lambda k: fourier_eigen_check(2, [0.5, k])),
}


@pytest.mark.parametrize("bad", ["0.5", 0.5j, Decimal("0.5"), np.True_, np.array(0.5),
                                 np.array([0.5])],
                         ids=["str", "complex", "Decimal", "numpy bool", "0-d array", "array"])
@pytest.mark.parametrize("name", sorted(REAL_ARGUMENTS))
def test_an_argument_that_is_not_a_real_number_is_refused(name, bad):
    # never parsed, never failing deep inside: a TypeError that names the argument
    what, call = REAL_ARGUMENTS[name]
    if what == "coefficient" and isinstance(bad, str):  # a decimal string is an exact coefficient
        assert call(bad) == ExactPolynomial((1, Fraction(1, 2)))
        return
    if name == "hermite_table" and isinstance(bad, np.ndarray):  # the elementwise form
        assert call(bad).reshape(6).tolist() == hermite_table(5, 0.5)
        return
    name = {str: "str", complex: "complex", Decimal: "decimal.Decimal", np.bool_: "numpy.bool",
            np.ndarray: "numpy.ndarray"}
    with pytest.raises(TypeError, match=f"^{what} must be a real number, got {name[type(bad)]}$"):
        call(bad)


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


@pytest.mark.parametrize("name", sorted(XS))
def test_nan_x_is_refused(name):
    # x is whichever float argument the row takes; refused by name, never
    # returned and never as Fraction(nan)'s "cannot convert NaN to integer ratio"
    what, call = XS[name]
    assert np.isfinite(call(0.5)).all()
    with pytest.raises(ValueError, match=f"^{re.escape(REFUSAL[what](math.nan))}$"):
        call(math.nan)


@pytest.mark.parametrize("value", [
    math.inf, -math.inf, 1e308, -1e308, 5e-324, -0.0,
    # exact values past double range are rounded once, to +-inf
    pytest.param(10**400, id="10**400"), pytest.param(-(10**400), id="-10**400"),
    pytest.param(Fraction(10**400), id="Fraction(10**400)"),
])
@pytest.mark.parametrize("name", sorted(XS))
def test_float_extremes_give_a_value_or_a_named_refusal(name, value):
    what, call = XS[name]
    if (message := REFUSAL[what](value)) is None:
        result = call(value)
        if isinstance(result, (int, Fraction)):  # ExactPolynomial's exact value
            result = _rounded(result)
        assert not np.isnan(result).any()
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(value)


def _edges_of_double_range(seed=15, rounds=8):
    # seeded values from the top binade [2^1023, max] and the two below it (where
    # 2x, for H, reaches the top binade), the subnormals, each with either sign,
    # and big ints past double range
    rng = random.Random(seed)
    values = []
    for _ in range(rounds):
        sign = rng.choice((-1, 1))
        values += [sign * rng.uniform(2.0**1023, sys.float_info.max),
                   sign * math.ldexp(rng.uniform(1.0, 2.0), rng.choice((1021, 1022))),
                   sign * rng.uniform(0.0, 2.0**-1022),
                   sign * 10 ** rng.randint(309, 400)]
    return values


# the weight underflows long before the polynomial overflows: 0 at every |x| >= 2^1021
VANISHING = {"eval_hermite_function", "eval_hermite_function(h)",
             "evaluate_series(density-weighted)", "gram_charlier_density"}


@pytest.mark.parametrize("name", sorted(XS))
def test_edges_of_double_range_give_a_value_or_a_named_refusal(name):
    # finite input never gives nan or a warning: a finite value, a signed inf or
    # the argument's one refusal
    what, call = XS[name]
    for value in _edges_of_double_range():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if (message := REFUSAL[what](value)) is not None:
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    call(value)
                continue
            result = call(value)
        if isinstance(result, (int, Fraction)):  # ExactPolynomial's exact value
            result = _rounded(result)
        assert not np.isnan(result).any(), value
        if name in VANISHING and abs(value) >= 2.0**1021:
            assert result == 0.0, value


@pytest.mark.parametrize("name", sorted(name for name, (what, _) in XS.items()
                                        if what == "x" and name != "ExactPolynomial.__call__"))
def test_a_point_past_double_range_gives_its_limit_at_infinity(name):
    # x is rounded once, so an exact x past double range is its signed infinity
    # (ExactPolynomial is left out: it evaluates an int or a Fraction exactly)
    call = XS[name][1]
    for exact, limit in ((10**400, math.inf), (-(10**400), -math.inf),
                         (Fraction(10**400), math.inf)):
        assert same(call(exact), call(limit))


def test_zero_factor_and_terms_of_both_signs_at_infinity():
    # the float products meet 0 * inf and inf - inf; only the first has a limit
    assert tensor_component((0, 0, 1), (math.inf, 0.0)) == 0.0
    assert wce_reconstruct(RECONSTRUCTION, (0.5, -math.inf)) == -math.inf
    both_signs = r"^point \(0\.5, inf\) has terms of both signs past double range$"
    with pytest.raises(ValueError, match=both_signs):
        wce_reconstruct(RECONSTRUCTION, (0.5, math.inf))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_a_coefficient_that_is_not_finite_is_refused_by_name(bad):
    # an overflowed moment in wce_coeffs_multi can leave one; it is the
    # coefficient's fault, not the point's, even at a point where every He is finite
    tensors = (np.array(1.0), np.array([0.0, bad]), np.zeros((2, 2)))
    message = rf"^chaos coefficient b\(1,\) must be finite, got {bad!r}$"
    with pytest.raises(ValueError, match=message):
        wce_reconstruct(WCETensorCoeffs(2, tensors), (0.0, 0.0))


def test_float_array_is_elementwise():
    # a nan node gives a nan column, not a refusal; the other columns keep their values
    table = hermite_table(3, np.array([0.5, math.nan, -math.inf]))
    assert table[:, 0].tolist() == hermite_table(3, 0.5)
    assert np.isnan(table[1:, 1]).all()
    assert table[:, 2].tolist() == hermite_table(3, -math.inf)
    # 2x overflows at 1e308 without a RuntimeWarning; the column is the scalar one
    assert hermite_table(3, np.array([1e308]), "h")[:, 0].tolist() == hermite_table(3, 1e308, "h")
    # any shape, 0-d included, gives (n_max + 1, *x.shape), past double range too
    x = np.array([[0.5, 1e200, math.nan], [-1e300, 2.0, math.inf]])
    for nodes in (x, x.T, np.array(1e200), np.array(0.5), x[:, :0]):
        for family in ("he", "h"):
            table = hermite_table(3, nodes, family)
            assert table.shape == (4, *nodes.shape)
            for index in np.ndindex(nodes.shape):
                column = table[(slice(None), *index)].tolist()
                if math.isnan(nodes[index]):
                    assert np.isnan(column[1:]).all()
                else:
                    assert column == hermite_table(3, float(nodes[index]), family)


@pytest.mark.parametrize("bad", [np.array(["0.5"]), np.array([Decimal("0.5")]),
                                 np.array([0.5 + 0j]), np.array([True])],
                         ids=["str", "Decimal", "complex", "bool"])
def test_an_array_that_is_not_of_real_numbers_is_refused(bad):
    # as each entry would be at the scalar door: not parsed, not truncated
    message = rf"^x must be an array of real numbers, got dtype {re.escape(str(bad.dtype))}$"
    with pytest.raises(TypeError, match=message):
        hermite_table(3, bad)


def test_integer_arrays_are_their_float_values():
    for x in (np.array([3, -2], np.int8), np.array([3, 2], np.uint64), np.array([0.5], np.float32)):
        assert hermite_table(3, x).T.tolist() == [hermite_table(3, float(v)) for v in x]


def test_a_zero_dimensional_integer_array_is_the_int_it_holds():
    assert ExactPolynomial((1, np.array(3))) == ExactPolynomial((1, 3))
    assert eval_hermite(3, np.array(2, np.int64)) == eval_hermite(3, 2)


def test_big_ints_past_double_range_round_once():
    # an exact mu, sigma or nu_k past double range is rounded once, to +-inf,
    # never converted into an OverflowError
    for mu in (10**400, Fraction(10**400)):
        assert gaussian_raw_moment(3, mu, 1.0) == math.inf
    for field in ({"mu": 10**400}, {"sigma": 10**400}, {"mu": Fraction(-(10**400))}):
        assert gram_charlier_density(GAUSSIAN._replace(**field), 4, 0.5) == 0.0
    with pytest.raises(ValueError, match="^series coefficients must be finite$"):
        gram_charlier_density(GAUSSIAN._replace(nu=(10**400, 3.0)), 4, 0.5)
    # a float moment keeps its bits: an int or a Fraction rounds to the same float
    moments = StandardizedMoments(Fraction(1, 3), 3, (Fraction(1, 7), 3))
    rounded = StandardizedMoments(1 / 3, 3.0, (1 / 7, 3.0))
    assert gram_charlier_density(moments, 4, 0.25) == gram_charlier_density(rounded, 4, 0.25)


def test_every_public_callable_is_in_a_domain_table():
    # a new public argument cannot skip the contract: list the function in ORDERS,
    # SIGMAS or XS, or, if it takes no number, in NO_NUMERIC_ARGUMENT
    import hermite_kit

    tabled = {re.split(r"[(.]", row)[0] for row in [*ORDERS, *SIGMAS, *XS]}
    public = {name for name in hermite_kit.__all__ if callable(getattr(hermite_kit, name))}
    assert sorted(public - tabled - NO_NUMERIC_ARGUMENT) == []
    assert sorted(NO_NUMERIC_ARGUMENT - public) == []
    assert sorted(NO_NUMERIC_ARGUMENT & tabled) == []


def test_every_module_level_name_is_public_or_used_in_src():
    # a function or class that only the tests call belongs in tests/: each
    # non-underscore one is public or referenced in src/ outside its own definition
    import hermite_kit

    defined, used, unread_imports = set(), set(), []
    for path in pathlib.Path(hermite_kit.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        # an import its own module never reads goes too
        reads = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unread_imports += [f"{path.name}: {alias.asname or alias.name}" for node in ast.walk(tree)
                           if isinstance(node, (ast.Import, ast.ImportFrom))
                           and getattr(node, "module", None) != "__future__"
                           for alias in node.names
                           if (alias.asname or alias.name).split(".")[0] not in reads]
        for top in tree.body:
            names = {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(top) if isinstance(node, (ast.Name, ast.Attribute))}
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                defined.add(top.name)
                names.discard(top.name)
            used |= names
    public = set(hermite_kit._PUBLIC)
    assert sorted(n for n in defined - public - used if not n.startswith("_")) == []
    assert unread_imports == []


def test_no_module_reads_the_environment():
    # the command line is the whole input: no os.environ, os.getenv or their bytes forms
    import hermite_kit

    readers, reads = {"environ", "environb", "getenv", "getenvb"}, []
    for path in pathlib.Path(hermite_kit.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                names = [alias.name for alias in node.names]
            else:
                names = []
            reads += [f"{path.name}: {name}" for name in names if name in readers]
    assert reads == []


def test_every_public_method_is_read_outside_its_definition():
    # a method or property that only restates stored data for the tests goes: each
    # non-underscore one of a public class is read in src/ outside its own
    # definition, or in perfbench/
    import hermite_kit

    src = pathlib.Path(hermite_kit.__file__).parent
    files = [*src.glob("*.py"), *(src.parents[1] / "perfbench").glob("*.py")]
    trees = {path: ast.parse(path.read_text()) for path in files}
    reads = collections.Counter(node.attr for tree in trees.values() for node in ast.walk(tree)
                                if isinstance(node, ast.Attribute))
    unread = []
    for path, tree in trees.items():
        for cls in tree.body:
            if path.parent != src or not isinstance(cls, ast.ClassDef) \
                    or cls.name not in hermite_kit._PUBLIC:
                continue
            for method in cls.body:
                if isinstance(method, ast.FunctionDef) and not method.name.startswith("_"):
                    own = sum(isinstance(node, ast.Attribute) and node.attr == method.name
                              for node in ast.walk(method))
                    if reads[method.name] == own:
                        unread.append(f"{cls.name}.{method.name}")
    assert unread == []


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
                 lambda: count_complete_matches([2.7, 2.2])):
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
