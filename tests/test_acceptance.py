"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
report lines; tolerances are pinned inline.
"""

import itertools
import math
import time
from contextlib import contextmanager

import numpy as np

from hermite_kit import (
    ExactPolynomial,
    change_of_basis,
    complete_graph,
    complete_kpartite,
    compose,
    count_complete_matches,
    count_j_matches,
    eval_hermite,
    evaluate_series,
    fourier_eigen_check,
    fourier_hermite_coeffs,
    gauss_hermite_rule,
    gaussian_mixture_deconvolve,
    gram_charlier_density,
    gram_schmidt_construct,
    hermite_explicit,
    hermite_product_integral,
    hermite_recurrence,
    integrate_cubature,
    integrate_weighted,
    linearization_coeffs,
    match_count_table,
    partite_closed_form,
    tensor_component,
    tensor_cubature,
    weierstrass_preimage_polynomial,
)
from hermite_kit.expansions import StandardizedMoments
from tensor_oracles import orthogonality_normalization

SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n + 1)) for i in range(n + 1))


@contextmanager
def criterion(number, description):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} FAIL  {description}")
        raise
    elapsed = time.monotonic() - start
    print(f"criterion {number:2d} PASS  {description}  [{elapsed:.2f}s]")


def exact_gaussian_moment(k):
    if k % 2:
        return 0.0
    return SQRT_TWO_PI * math.factorial(k) / (2 ** (k // 2) * math.factorial(k // 2))


def test_criterion_01_exact_construction_triple_agreement():
    with criterion(1, "recurrence/explicit/Gram-Schmidt agree exactly"):
        start = time.monotonic()
        for n in range(51):
            assert hermite_recurrence(n) == hermite_explicit(n)
        sequence = gram_schmidt_construct(12)
        for n, poly in enumerate(sequence):
            assert poly == hermite_explicit(n)
        assert time.monotonic() - start < 5.0


def test_criterion_02_special_values():
    with criterion(2, "monic, parity, and exact values at zero"):
        for n in range(16):
            even = hermite_recurrence(2 * n)
            odd = hermite_recurrence(2 * n + 1)
            assert even.coeffs[-1] == 1
            assert odd.coeffs[-1] == 1
            expected = (-1) ** n * math.factorial(2 * n) // (math.factorial(n) * 2**n)
            assert even.coeffs[0] == expected
            assert odd.coeffs[0] == 0
            for poly, order in ((even, 2 * n), (odd, 2 * n + 1)):
                for k, c in enumerate(poly.coeffs):
                    if (k - order) % 2:
                        assert c == 0


def test_criterion_03_quadrature_exactness():
    with criterion(3, "N-point rules integrate degree <= 2N-1 exactly"):
        start = time.monotonic()
        for N in range(1, 21):
            rule = gauss_hermite_rule(N)
            total = float(np.sum(rule.weights))
            assert abs(total - SQRT_TWO_PI) <= 1e-12 * SQRT_TWO_PI
            for k in range(2 * N):
                result = integrate_weighted(lambda x, k=k: x**k, rule)
                expected = exact_gaussian_moment(k)
                scale = expected if expected else exact_gaussian_moment(k + 1)
                assert abs(result - expected) <= 1e-10 * scale
        assert time.monotonic() - start < 10.0


def test_criterion_04_orthogonality():
    with criterion(4, "orthogonality by quadrature and exactly via matchings"):
        for m in range(13):
            for n in range(13):
                rule = gauss_hermite_rule(m + n + 2)
                numeric = integrate_weighted(
                    lambda x: eval_hermite(m, x) * eval_hermite(n, x), rule
                )
                expected = SQRT_TWO_PI * math.factorial(n) if m == n else 0.0
                scale = SQRT_TWO_PI * math.sqrt(math.factorial(m) * math.factorial(n))
                assert abs(numeric - expected) <= 1e-9 * scale
                # the combinatorial route is exact
                count = count_complete_matches((m, n))
                assert count == (math.factorial(n) if m == n else 0)
                bridge = hermite_product_integral((m, n))
                assert abs(bridge - expected) <= 1e-12 * max(1.0, abs(expected))


def test_criterion_05_weierstrass_identity():
    with criterion(5, "Gaussian blur of He_n collapses to x^n"):
        for n in range(11):
            rule = gauss_hermite_rule(n + 4)
            for x in (0.0, 1.0, 2.5):
                numeric = integrate_weighted(
                    lambda z, n=n, x=x: eval_hermite(n, x + z), rule
                ) / SQRT_TWO_PI
                assert abs(numeric - x**n) <= 1e-9 * max(1.0, abs(x) ** n)


def test_criterion_06_connection_problem():
    with criterion(6, "basis matrices are exact inverses with shared entries"):
        for n in range(13):
            forward = change_of_basis(n, "he", "gauss-moment")
            backward = change_of_basis(n, "gauss-moment", "he")
            assert compose(backward, forward).entries == identity(n)
            assert compose(forward, backward).entries == identity(n)
            assert forward.entries == change_of_basis(n, "h", "2x-monomial").entries
            assert backward.entries == change_of_basis(n, "2x-monomial", "h").entries


def test_criterion_07_matching_theorem():
    with criterion(7, "matching polynomial of K_m equals He_m for m <= 14"):
        start = time.monotonic()
        for m in range(1, 15):
            counts = match_count_table(complete_graph(m))
            coeffs = [0] * (m + 1)
            for j, p in enumerate(counts):
                coeffs[m - 2 * j] = (-1) ** j * p
            assert ExactPolynomial(coeffs) == hermite_recurrence(m)
        assert time.monotonic() - start < 60.0


def test_criterion_08_combinatorial_analytic_bridge():
    with criterion(8, "sqrt(2*pi) P matches quadrature; all count routes agree"):
        for k in range(1, 5):
            for parts in itertools.combinations_with_replacement(range(1, 13), k):
                total = sum(parts)
                if total > 12:
                    continue
                recurrence = count_complete_matches(parts)
                # brute force on the realized multipartite graph
                if total % 2 == 0:
                    brute = count_j_matches(complete_kpartite(parts), total // 2)
                    assert recurrence == brute
                else:
                    assert recurrence == 0
                if k in (2, 3):
                    assert recurrence == partite_closed_form(parts)
                rule = gauss_hermite_rule(total // 2 + 1)

                def product(x, parts=parts):
                    value = 1.0
                    for n in parts:
                        value *= eval_hermite(n, x)
                    return value

                numeric = integrate_weighted(product, rule)
                combinatorial = hermite_product_integral(parts)
                assert abs(numeric - combinatorial) <= 1e-8 * max(1.0, abs(combinatorial))


def test_criterion_09_linearization():
    with criterion(9, "linearization coefficients rebuild He_m He_n exactly"):
        for m in range(11):
            for n in range(11):
                product = hermite_recurrence(m) * hermite_recurrence(n)
                rebuilt = ExactPolynomial()
                for l, a in linearization_coeffs(m, n).items():
                    rebuilt = rebuilt + a * hermite_explicit(l)
                assert rebuilt == product


def test_criterion_10_density_round_trip():
    with criterion(10, "Fourier-Hermite round trip and Gram-Charlier base case"):
        for mu in (0.0, 0.5, 1.0):
            def density(x, mu=mu):
                return math.exp(-0.5 * (x - mu) ** 2) / SQRT_TWO_PI

            series = fourier_hermite_coeffs(density, 30)
            for x in np.linspace(-4.0, 4.0, 20):
                assert abs(evaluate_series(series, x) - density(x)) <= 1e-8
        moments = StandardizedMoments(mu=0.4, sigma=1.5, nu=(0.0, 3.0))
        for x in np.linspace(-3.0, 3.0, 11):
            z = (x - 0.4) / 1.5
            exact = math.exp(-z * z / 2.0) / (SQRT_TWO_PI * 1.5)
            assert gram_charlier_density(moments, 4, x) == exact


def test_criterion_11_deconvolution():
    with criterion(11, "polynomial deconvolution is exact and blurs back"):
        for k in range(9):
            g = ExactPolynomial((0,) * k + (1,))
            for sigma in (0.5, 1.0, 2.0):
                f = gaussian_mixture_deconvolve(g, sigma)
                assert f == weierstrass_preimage_polynomial(k, sigma)
                rule = gauss_hermite_rule(k // 2 + 3)
                for y in (-2.0, 0.0, 1.0, 3.0):
                    blurred = integrate_weighted(
                        lambda z, f=f, y=y, sigma=sigma: f(y + sigma * z), rule
                    ) / SQRT_TWO_PI
                    expected = float(g(y))
                    assert abs(blurred - expected) <= 1e-8 * max(1.0, abs(expected))


def test_criterion_12_fourier_eigenfunctions():
    with criterion(12, "numeric transform of h_n matches (-i)^n h_n"):
        grid = np.linspace(-3.0, 3.0, 25)
        for n in range(9):
            assert fourier_eigen_check(n, grid, 60) <= 1e-6


def test_criterion_13_tensor_orthogonality():
    with criterion(13, "rank-2/3 tensor components meet the cubature normalization"):
        cube = tensor_cubature(2, 5)
        index_sets = {
            2: list(itertools.product(range(2), repeat=2)),
            3: list(itertools.product(range(2), repeat=3)),
        }
        for rank_a, rank_b in ((2, 2), (3, 3), (2, 3)):
            for alpha in index_sets[rank_a]:
                for beta in index_sets[rank_b]:
                    numeric = integrate_cubature(
                        lambda p, a=alpha, b=beta: tensor_component(a, p)
                        * tensor_component(b, p),
                        cube,
                    )
                    expected = (
                        orthogonality_normalization(alpha, beta, 2)
                        if rank_a == rank_b
                        else 0.0
                    )
                    scale = max(
                        orthogonality_normalization(alpha, alpha, 2),
                        orthogonality_normalization(beta, beta, 2),
                    )
                    assert abs(numeric - expected) <= 1e-7 * scale
