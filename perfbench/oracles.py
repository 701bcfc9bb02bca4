"""Reference values computed without hermite_kit.

Exact results are compared for equality against int/Fraction arithmetic
written here from the textbook closed forms.  Float results are compared
against closed forms with the tolerance FLOAT_RTOL, taken relative to a
scale that bounds the rounding error of the computation being checked.
Tolerances and not bit patterns, because a faster kernel may legitimately
change the last bits.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

SQRT_TWO_PI = math.sqrt(2.0 * math.pi)
FLOAT_RTOL = 1e-10
_LOG_FLOAT_MAX = math.log(1.7976931348623157e308)


class Mismatch(Exception):
    """An output disagrees with its oracle."""


@functools.cache
def he_coeffs(n):
    """He_n, constant term first: x^(n-2j) carries (-1)^j n!/(2^j (n-2j)! j!)."""
    coeffs = [0] * (n + 1)
    for j in range(n // 2 + 1):
        coeffs[n - 2 * j] = (-1) ** j * math.factorial(n) // (
            2**j * math.factorial(n - 2 * j) * math.factorial(j))
    return tuple(coeffs)


@functools.cache
def h_coeffs(n):
    """H_n, constant term first: x^(n-2j) carries (-1)^j n! 2^(n-2j)/((n-2j)! j!)."""
    coeffs = [0] * (n + 1)
    for j in range(n // 2 + 1):
        coeffs[n - 2 * j] = (-1) ** j * math.factorial(n) * 2 ** (n - 2 * j) // (
            math.factorial(n - 2 * j) * math.factorial(j))
    return tuple(coeffs)


def gauss_moment(k):
    """E[Z^k] for Z ~ N(0, 1): (k-1)!! for even k, 0 for odd k."""
    return 0 if k % 2 else math.prod(range(k - 1, 0, -2))


def poly_value(coeffs, x):
    """Exact value of a polynomial with exact coefficients at a Fraction."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def abs_poly_value(coeffs, x, log_weight=0.0):
    """e^log_weight sum |c_k| |x|^k, summed in logs: bounds the size of the
    terms that cancel; +inf past double range."""
    log_x = math.log(abs(float(x))) if x else None
    logs = [math.log(abs(c)) + (k * log_x if k else 0.0) for k, c in enumerate(coeffs)
            if c and (k == 0 or log_x is not None)]
    if not logs:
        return 0.0
    top = max(logs)
    log_sum = top + math.log(math.fsum(math.exp(v - top) for v in logs)) + log_weight
    return math.inf if log_sum > _LOG_FLOAT_MAX else math.exp(log_sum)


def scaled_float(value, log_factor=0.0):
    """float(value * e^log_factor) for an exact value; +-inf past double range."""
    if value == 0:
        return 0.0
    value = Fraction(value)
    log_mag = math.log(abs(value.numerator)) - math.log(value.denominator) + log_factor
    sign = 1.0 if value > 0 else -1.0
    return sign * (math.inf if log_mag > _LOG_FLOAT_MAX else math.exp(log_mag))


def check_close(label, got, want, scale):
    """got within FLOAT_RTOL * scale of want; infinities must match exactly."""
    got = float(got)
    if math.isnan(got):
        raise Mismatch(f"{label}: got nan, expected {want!r}")
    if math.isinf(want) or math.isinf(got):
        if got != want:
            raise Mismatch(f"{label}: got {got!r}, expected {want!r}")
        return
    if abs(got - want) > FLOAT_RTOL * max(scale, abs(want)):
        raise Mismatch(f"{label}: got {got!r}, expected {want!r} (scale {scale:.3g})")


def check_equal(label, got, want):
    if got != want:
        raise Mismatch(f"{label}: got {_short(got)}, expected {_short(want)}")


def _short(value):
    text = repr(value)
    return text if len(text) <= 120 else text[:117] + "..."


def check_hermite_value(label, got, n, x, family="he", log_weight=0.0):
    """Float He_n/H_n(x), times e^log_weight, against the exact value."""
    coeffs = he_coeffs(n) if family == "he" else h_coeffs(n)
    want = scaled_float(poly_value(coeffs, Fraction(x)), log_weight)
    check_close(label, got, want, abs_poly_value(coeffs, x, log_weight))


def rule_moment_checks(nodes, weights):
    """sum w x^(2k) = (2k-1)!! sqrt(2 pi) for every k the rule must integrate
    exactly (2k <= 2N-1), capped at k = 30."""
    n = len(nodes)
    for k in range(min(n - 1, 30) + 1):
        got = math.fsum(float(w) * float(x) ** (2 * k) for x, w in zip(nodes, weights))
        want = gauss_moment(2 * k) * SQRT_TWO_PI
        check_close(f"order-{n} rule, moment {2 * k}", got, want, want)


def check_series_value(label, got, coeffs, x, density):
    """sum b_n He_n(x), times e^{-x^2/2} for a density-weighted series."""
    xf = Fraction(x)
    total = sum(Fraction(b) * poly_value(he_coeffs(n), xf) for n, b in enumerate(coeffs))
    scale = sum(abs(b) * abs_poly_value(he_coeffs(n), x) for n, b in enumerate(coeffs))
    log_weight = -x * x / 2.0 if density else 0.0
    check_close(label, got, scaled_float(total, log_weight), scale * math.exp(log_weight))


def check_eigen_residual(n, residual):
    """The Fourier transform of h_n is (-i)^n h_n, so the true deviation is 0;
    rounding is relative to the size of h_n, whose L2 norm is
    sqrt(2^n n! sqrt(pi))."""
    norm = math.sqrt(2.0**n * math.factorial(n) * math.sqrt(math.pi))
    if not residual <= FLOAT_RTOL * norm:
        raise Mismatch(f"Fourier eigen residual {residual!r} of h_{n} "
                       f"exceeds {FLOAT_RTOL} * {norm:.3g}")


def fourier_hermite_exact(mu, order):
    """a_n = mu^n / (n! sqrt(2 pi)) for the density of N(mu, 1), and their scale."""
    want = [mu**n / (math.factorial(n) * SQRT_TWO_PI) for n in range(order + 1)]
    return want, max(abs(w) for w in want)


def sparse_poly_integral(terms):
    """int e^{-x^2/2} sum c x^k dx and the matching error scale."""
    want = SQRT_TWO_PI * sum(c * gauss_moment(k) for c, k in terms)
    scale = SQRT_TWO_PI * sum(abs(c) * gauss_moment(k + k % 2) for c, k in terms)
    return want, scale


# --- Hermite expansions ---------------------------------------------------

def he_basis_to_monomial(he_coeffs_list):
    """Monomial coefficients of sum_n b_n He_n, exactly."""
    out = [Fraction(0)] * max(len(he_coeffs_list), 1)
    for n, b in enumerate(he_coeffs_list):
        if b:
            for k, c in enumerate(he_coeffs(n)):
                out[k] += b * c
    return out


def monomial_to_he_basis(coeffs):
    """x^k = sum_j k!/(2^j (k-2j)! j!) He_(k-2j), so the chaos coefficients
    of a polynomial of a unit Gaussian are exact rationals."""
    out = [Fraction(0)] * max(len(coeffs), 1)
    for k, c in enumerate(coeffs):
        if c:
            for j in range(k // 2 + 1):
                out[k - 2 * j] += c * Fraction(math.factorial(k), 2**j * math.factorial(k - 2 * j)
                                               * math.factorial(j))
    return out


def gram_charlier_value(mu, sigma, nus, order, x):
    """phi(z)/sigma * sum_n E[He_n(Z)]/n! He_n(z), z = (x - mu)/sigma, with
    E[He_n(Z)] assembled from the standardized moments (nu_0..2 = 1, 0, 1).
    Returns the value and its error scale."""
    z = (float(x) - mu) / sigma
    moments = [Fraction(1), Fraction(0), Fraction(1)] + [Fraction(v) for v in nus]
    zf = Fraction(z)
    total = Fraction(0)
    scale = 0.0
    for n in range(order + 1):
        coeffs = he_coeffs(n)
        expected = sum(c * moments[k] for k, c in enumerate(coeffs) if c) / math.factorial(n)
        total += expected * poly_value(coeffs, zf)
        scale += abs(float(expected)) * abs_poly_value(coeffs, z)
    base = math.exp(-z * z / 2.0) / (SQRT_TWO_PI * sigma)
    return float(total) * base, scale * base


# --- Gaussian moments and basis connections ------------------------------

def _connection(k, alternating, power_of_two):
    # coefficients k!/((k-2j)! j!) (times 2^-j, times (-1)^j) at index k-2j
    col = {}
    for j in range(k // 2 + 1):
        value = math.factorial(k) // (math.factorial(k - 2 * j) * math.factorial(j)
                                      * (2**j if power_of_two else 1))
        col[k - 2 * j] = -value if alternating and j % 2 else value
    return col


BASIS_COLUMNS = {
    # He_k = sum (-1)^j k!/(2^j (k-2j)! j!) x^(k-2j)
    ("he", "monomial"): lambda k: _connection(k, True, True),
    # x^k = sum k!/(2^j (k-2j)! j!) He_(k-2j)
    ("monomial", "he"): lambda k: _connection(k, False, True),
    # H_k = sum (-1)^j k!/((k-2j)! j!) (2x)^(k-2j)
    ("h", "2x-monomial"): lambda k: _connection(k, True, False),
    ("2x-monomial", "h"): lambda k: _connection(k, False, False),
    # exp(xt - t^2/2) = exp(xt + t^2/2) exp(-t^2): He against E[Y^k](x), Y ~ N(x, 1)
    ("he", "gauss-moment"): lambda k: _connection(k, True, False),
    ("gauss-moment", "he"): lambda k: _connection(k, False, False),
    # E[(x + Z)^k] = sum_i C(k, i) E[Z^(k-i)] x^i
    ("gauss-moment", "monomial"): lambda k: {i: math.comb(k, i) * gauss_moment(k - i)
                                             for i in range(k + 1) if gauss_moment(k - i)},
}


def basis_matrix(n, source, target):
    """Row-major (n+1)x(n+1) matrix whose column k expands source element k."""
    rows = [[0] * (n + 1) for _ in range(n + 1)]
    column = BASIS_COLUMNS[(source, target)]
    for k in range(n + 1):
        for i, value in column(k).items():
            rows[i][k] = value
    return tuple(tuple(row) for row in rows)


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n + 1)) for i in range(n + 1))


def gaussian_blur(coeffs, sigma):
    """Coefficients of y -> E[f(y + sigma Z)] for an exact polynomial f."""
    out = [Fraction(0)] * len(coeffs)
    for k, c in enumerate(coeffs):
        if c:
            for i in range(0, k + 1, 2):
                out[k - i] += c * math.comb(k, i) * sigma**i * gauss_moment(i)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


# --- Matching combinatorics ----------------------------------------------

def match_counts(vertex_count, edges):
    """j-match counts by vertex elimination: the lowest remaining vertex is
    either left unmatched or matched to one of its remaining neighbours.
    Independent of the program's edge-deletion recurrence."""
    neighbours = [0] * (vertex_count + 1)
    for u, v in edges:
        neighbours[u] |= 1 << v
        neighbours[v] |= 1 << u
    memo = {0: (1,)}

    def count(mask):
        hit = memo.get(mask)
        if hit is not None:
            return hit
        low = mask & -mask
        rest = mask ^ low
        acc = list(count(rest))
        candidates = neighbours[low.bit_length() - 1] & rest
        while candidates:
            bit = candidates & -candidates
            candidates ^= bit
            sub = count(rest ^ bit)
            acc.extend([0] * (len(sub) + 1 - len(acc)))
            for j, c in enumerate(sub):
                acc[j + 1] += c
        result = tuple(acc)
        memo[mask] = result
        return result

    counts = list(count(((1 << vertex_count) - 1) << 1))
    while len(counts) > 1 and counts[-1] == 0:
        counts.pop()
    return tuple(counts)


def complete_graph_counts(m):
    """j-match counts of K_m: m!/(2^j (m-2j)! j!)."""
    return tuple(math.factorial(m) // (2**j * math.factorial(m - 2 * j) * math.factorial(j))
                 for j in range(m // 2 + 1))


def perfect_matches(parts):
    """Perfect-match count of the complete multipartite graph.

    Two parts: m! if m = n else 0.  Three parts with half-sum s:
    l! m! n! / ((s-l)! (s-m)! (s-n)!).  Otherwise int e^{-x^2/2} prod He_(n_i)
    divided by sqrt(2 pi), from the expanded product and the Gaussian moments.
    """
    parts = [p for p in parts if p > 0]
    if sum(parts) % 2:
        return 0
    if not parts:
        return 1
    if len(parts) == 1:
        return 0
    if len(parts) == 2:
        return math.factorial(parts[0]) if parts[0] == parts[1] else 0
    if len(parts) == 3:
        s = sum(parts) // 2
        if any(s < p for p in parts):
            return 0
        num = math.prod(math.factorial(p) for p in parts)
        return num // math.prod(math.factorial(s - p) for p in parts)
    product = [1]
    for p in parts:
        factor = he_coeffs(p)
        out = [0] * (len(product) + len(factor) - 1)
        for i, a in enumerate(product):
            if a:
                for j, b in enumerate(factor):
                    if b:
                        out[i + j] += a * b
        product = out
    return sum(c * gauss_moment(k) for k, c in enumerate(product) if c)


def linearization(m, n):
    """He_m He_n = sum_j C(m,j) C(n,j) j! He_(m+n-2j)."""
    return {m + n - 2 * j: math.comb(m, j) * math.comb(n, j) * math.factorial(j)
            for j in range(min(m, n) + 1)}
