"""Chebyshev-Hermite (probabilists') and Hermite (physicists') polynomials.

Exact construction runs over arbitrary-precision integers/rationals; the
float paths evaluate by forward three-term recurrences on values at one real
x, never by expanding coefficients, which keeps them usable far beyond degree
20.  Rows at the nodes of a whole rule are quadrature's own table.
"""

import math
import os
import struct

from .exactpoly import ExactPolynomial, _check_order, _real

PROBABILIST = "he"
PHYSICIST = "h"

_FAMILIES = (PROBABILIST, PHYSICIST)

SQRT_TWO_PI = math.sqrt(2.0 * math.pi)
MAX_ORDER = 200  # largest Gauss-Hermite rule, here so that rules are checked before any array


def _check_rule_order(N, least=1):
    # N as a Python int from least (a caller's floor) to MAX_ORDER: every rule order, up front
    if (N := _check_order(N, "quadrature order", 1)) < least:
        raise ValueError(f"quad_order must be at least {least}, got {N}")
    if N > MAX_ORDER:
        raise ValueError(f"quadrature order {N} exceeds the supported maximum {MAX_ORDER}")
    return N


# every Gauss-Hermite rule, made by tests/rule_table.py: for N = 1..MAX_ORDER in turn, the
# ceil(N/2) nonnegative nodes of the N-point rule, ascending, then their weights, as
# little-endian doubles, so that rule N starts 16 (N*N // 4) bytes in
_RULE_TABLE = os.path.join(os.path.dirname(__file__), "gauss_hermite.bin")


def _read_rule(N):
    # (nodes, weights) of the N-point rule as lists of floats, N as _check_rule_order gives
    # it; the negative half mirrors the stored one, bit for bit
    half, mirrored = (N + 1) // 2, N // 2  # an odd rule's middle node, 0.0, is not mirrored
    with open(_RULE_TABLE, "rb") as table:
        table.seek(16 * (N * N // 4))
        values = struct.unpack(f"<{2 * half}d", table.read(16 * half))
    nodes, weights = values[:half], values[half:]
    return ([-x for x in reversed(nodes[half - mirrored:])] + list(nodes),
            [*reversed(weights[half - mirrored:]), *weights])


def _check_family(family):
    if family not in _FAMILIES:
        raise ValueError(f"unknown polynomial family {family!r}; expected 'he' or 'h'")


def hermite_recurrence(n, family=PROBABILIST):
    """Exact degree-n polynomial built from the three-term recurrence.

    He_{k+1} = x*He_k - k*He_{k-1} from He_0 = 1, He_1 = x, on the nonzero
    coefficients only: He_k has the parity of k, so a row holds those of x^k,
    x^(k-2), ..., and step k does k/2 big-integer multiply-subtracts (about
    6 ms in all at n = 400 on a 2-vCPU Xeon).  The physicists' family comes
    from the same run by H_n(x) = 2**(n/2) He_n(sqrt(2) x), which shifts the
    coefficient of x^(n-2i) left by n - i.
    """
    n = _check_order(n)
    _check_family(family)
    prev, cur = [], [1]  # rows of He_(k-1), He_k, highest power first
    for k in range(n):
        prev, cur = cur, [a - k * b for a, b in zip([*cur, 0], [0, *prev])]
    if family == PHYSICIST:
        cur = [c << (n - i) for i, c in enumerate(cur)]
    coeffs = [0] * (n + 1)
    coeffs[n::-2] = cur
    return ExactPolynomial(coeffs)


def _pairing_column(n, k, sign=1, shift=1):
    # element k expands with sign^j k! 2^((shift-1) j) / ((k-2j)! j!) at row k - 2j; the
    # pairing count c_j = k! / (2^j (k-2j)! j!) steps by the exact ratio (k-2j)(k-2j-1) / (2(j+1))
    col, c = [0] * (n + 1), 1
    for j in range(k // 2 + 1):
        col[k - 2 * j] = sign**j * c << (shift * j)
        c = c * (k - 2 * j) * (k - 2 * j - 1) // (2 * j + 2)
    return col


def hermite_explicit(n, family=PROBABILIST):
    """Exact degree-n polynomial from the closed coefficient sum, the he -> monomial
    column of the connection matrix: the coefficient of x^(n-2j) is
    (-1)^j n! / (2^j (n-2j)! j!) for He_n, and that times 2^(n-j) for H_n."""
    n = _check_order(n)
    _check_family(family)
    coeffs = _pairing_column(n, n, -1, 0)
    if family == PHYSICIST:
        coeffs = [c << (n + k) // 2 for k, c in enumerate(coeffs)]
    return ExactPolynomial(coeffs)


def gram_schmidt_construct(n):
    """Orthogonalize 1, x, ..., x^n against the Gaussian weight, exactly.

    Classical Gram-Schmidt over integer moment rows.  Each q_j carries the
    row L_j[i] = <x^i, q_j>, i = 0..n, from the exact moments m of
    e^{-x^2/2} with the common sqrt(2*pi) cancelled.  Then <x^k, q_j> =
    L_j[k] and ||q_j||^2 = L_j[j], so q_k = x^k - sum_j r_j q_j with
    r_j = L_j[k] / L_j[j] has the row L_k = m[k:k+n+1] - sum_j r_j L_j.
    The division is exact: q_j = He_j, so r_j = <x^k, He_j> / j! =
    C(k, j) (k - j - 1)!!.  O(n^3) integer operations.
    Returns the monic orthogonal sequence [q_0, ..., q_n].
    """
    n = _check_order(n)
    moments = [1, 0]  # m_k = (k-1)!! for even k, 0 for odd, by m_(k+2) = (k+1) m_k
    for k in range(2 * n - 1):
        moments.append((k + 1) * moments[k])
    basis, rows = [], []
    for k in range(n + 1):
        q, row = [0] * k + [1], moments[k : k + n + 1]
        for j, (p, lj) in enumerate(zip(basis, rows)):
            if lj[k]:
                r = lj[k] // lj[j]
                q[: j + 1] = [a - r * b for a, b in zip(q, p)]
                row = [a - r * b for a, b in zip(row, lj)]
        basis.append(q)
        rows.append(row)
    return [ExactPolynomial(q) for q in basis]


# Rows past _RESCALE_AT / (1 + |a| + b n_max) are rescaled before the next
# step, which keeps a m_k - b k m_{k-1} inside double range.
_RESCALE_AT = 2.0**960
_LN2 = math.log(2.0)


def _ldexp(m, e):
    # m * 2**e, saturating to a signed infinity past double range
    try:
        return math.ldexp(m, e)
    except OverflowError:
        return math.copysign(math.inf, m)


def _rounded(exact):
    # a real x (as _real gives it; a float is one) rounded once, a signed inf past double range
    try:
        return exact if type(exact) is float else float(exact := _real(exact, "x"))
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


def _recurrence(n_max, x, family, rows=None, log_weight=0.0):
    """Run the recurrence at one float x up to degree n_max, scaled by
    e**log_weight: (cur, e), the last row as a mantissa over a factor
    2**e.  rows, if given, receives rows 1..n_max as floats.

    Plain float arithmetic.  The weight starts as
    cur * 2**e, and dividing both carried rows by a power of two is exact,
    so rows inside double range keep the plain recurrence's bits, a huge
    row times a tiny weight neither overflows nor underflows on the way,
    and rows past double range saturate with their own sign.  Where x or 2x
    (for H) is infinite the rows are their limits, (+-1)^k inf past degree 0
    or 0 under a weight, and a nan x raises ValueError.
    """
    a, b = (2.0 * x, 2.0) if family == PHYSICIST else (x, 1.0)
    if not math.isfinite(a):  # x is +-inf or nan, or 2x is past double range
        if math.isnan(x):
            raise ValueError("x must not be nan")
        limits = [0.0] * (n_max + 1) if log_weight else [
            1.0, *(a if k % 2 else math.inf for k in range(1, n_max + 1))]
        if rows is not None:
            rows += limits[1:]
        return limits[-1], 0
    big = _RESCALE_AT / (1.0 + abs(a) + b * n_max)
    prev, cur, e = 0.0, 1.0, 0
    if log_weight:
        # past -1e15 the weight wins at any degree; keeps floor() and exp() in range.  Past
        # |a| = 2^1022 the mantissa starts in [0.5, 1), so that the first a * cur is finite
        log_weight = max(-1e15, log_weight)
        e = math.floor(log_weight / _LN2) + (abs(a) > 2.0**1022)
        cur = math.exp(log_weight - e * _LN2)
    for k in range(n_max):
        prev, cur = cur, a * cur - b * k * prev
        if abs(cur) > big:
            cur, s = math.frexp(cur)
            prev = math.ldexp(prev, -s)
            e += s
        if rows is not None:
            rows.append(_ldexp(cur, e) if e else cur)
    return cur, e


def index_multiplicities(indices, dimension):
    """How many times each coordinate 0..d-1 occurs among the indices."""
    counts = [0] * dimension
    for a in indices:
        if (a := _check_order(a, "index")) >= dimension:
            raise ValueError(f"index {a} outside dimension {dimension}")
        counts[a] += 1
    return tuple(counts)


def tensor_component(indices, point):
    """He^(n)_(a1..an) at a d-vector: the product of He_(c_i)(x_i), c_i how often i
    occurs among the indices, rounded once.  The product keeps its power of two
    apart, so factors past double range whose product is inside it give a finite value."""
    counts = index_multiplicities(indices, len(point))
    value, exponent = 1.0, 0
    for degree, x in zip(counts, point):
        if (x := _rounded(x)) != x or degree:  # He_0 = 1 is skipped; a nan reaches the kernel
            cur, e = _recurrence(degree, x, PROBABILIST)
            cur, s = math.frexp(cur)  # a subnormal factor too: rounded only with the product
            value, t = math.frexp(value * cur)
            exponent += e + s + t
    value = _ldexp(value, exponent)
    return value if value == value else 0.0  # 0 * inf: a factor that is exactly 0 wins


def hermite_table(n_max, x, family=PROBABILIST):
    """Rows He_0(x) .. He_{n_max}(x), or H_0 .. H_{n_max} for family 'h', as a list.

    He_{k+1} = x He_k - k He_{k-1} and H_{k+1} = 2x H_k - 2k H_{k-1}, in plain
    float arithmetic at one real x.  Values past double range are infinities
    with the sign of their own degree; a nan x raises ValueError.
    """
    n_max = _check_order(n_max)
    _check_family(family)
    rows = [1.0]
    _recurrence(n_max, _rounded(x), family, rows)
    return rows


def eval_hermite(n, x, family=PROBABILIST):
    """Float value of He_n(x) or H_n(x) via the forward recurrence.

    Past double range, infinite x included, the result is an infinity with
    the sign of the true value.
    """
    n = _check_order(n)
    _check_family(family)
    cur, e = _recurrence(n, _rounded(x), family)
    return _ldexp(cur, e)


def eval_hermite_function(n, x, kind=PROBABILIST):
    """Weighted Hermite function he_n(x) = e^{-x^2/4} He_n(x) or
    h_n(x) = e^{-x^2/2} H_n(x).

    The weight multiplies the rescaled row: the result is finite wherever
    the true value is, and a signed infinity where that overflows.
    """
    n = _check_order(n)
    _check_family(kind)
    x = _rounded(x)
    log_weight = -x * x / (4.0 if kind == PROBABILIST else 2.0)
    cur, e = _recurrence(n, x, kind, log_weight=log_weight)
    return _ldexp(cur, e)
