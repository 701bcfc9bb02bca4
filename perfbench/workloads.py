"""The in-process workloads: seeded rounds of operations with their oracles.

Each workload is a closed loop with one client.  It is a stream of rounds;
a round has a fixed composition of operation kinds whose parameters are
drawn from the seed, so every run does the same mix of work and only the
inputs change.  An operation is timed around its calls into hermite_kit
and nothing else; its oracle runs afterwards, outside the timed region.

Parameters are drawn from the documented limits (quadrature order <= 200,
at most 24 vertices, WCE with d <= 3 and order <= 4).  Part sizes for the
perfect-match count have no documented cap and are drawn into the
thousands, so the known recursion defect stays in the mix.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from oracles import (
    SQRT_TWO_PI,
    abs_poly_value,
    basis_matrix,
    check_close,
    check_eigen_residual,
    check_equal,
    check_hermite_value,
    check_series_value,
    complete_graph_counts,
    fourier_hermite_exact,
    gaussian_blur,
    gram_charlier_value,
    he_basis_to_monomial,
    he_coeffs,
    h_coeffs,
    identity,
    linearization,
    match_counts,
    perfect_matches,
    poly_value,
    rule_moment_checks,
    scaled_float,
    sparse_poly_integral,
)

# Failures that reproduce at the parent commit.  They are counted as
# failures like any other; a failure only counts as one of these when the
# input can trigger it and its message carries the signature.
KNOWN_DEFECTS = {
    "product-integral-recursion": (
        "RecursionError",
        "count_complete_matches recurses once per vertex pair, so part sizes "
        "in the thousands raise RecursionError",
    ),
    "hermite-function-nan": (
        "nan",
        "eval_hermite_function(400, x) returns nan from inf - inf in the "
        "weighted recurrence",
    ),
}


_BASIS_PAIRS = (("he", "monomial"), ("monomial", "he"), ("h", "2x-monomial"),
                ("2x-monomial", "h"), ("he", "gauss-moment"), ("gauss-moment", "he"))

_COMPOSITIONS = (
    (("he", "monomial"), ("monomial", "he")),
    (("monomial", "he"), ("he", "monomial")),
    (("h", "2x-monomial"), ("2x-monomial", "h")),
    (("gauss-moment", "he"), ("he", "monomial")),
)


class Op:
    """One timed operation: call(tracer) -> output, then check(output)."""

    __slots__ = ("kind", "call", "check", "defect")

    def __init__(self, kind, call, check, defect=None):
        self.kind = kind
        self.call = call
        self.check = check
        self.defect = defect   # name of a known defect this input can trigger


# Chebyshev-Hermite polynomials of degree <= 4 as source text over a name.
_HE_TEXT = ("1.0", "{y}", "({y}*{y}-1.0)", "{y}*({y}*{y}-3.0)",
            "(({y}*{y}-6.0)*{y}*{y}+3.0)")


def _he_product_function(terms):
    """f(p) = sum c prod_i He_(alpha_i)(p[i]) compiled to one expression, so
    that the integrand costs little next to the library call it feeds."""
    pieces = []
    for c, alpha in terms:
        factors = [_HE_TEXT[a].format(y=f"p[{i}]") for i, a in enumerate(alpha) if a]
        pieces.append("*".join([repr(float(c))] + factors))
    return eval("lambda p: " + " + ".join(pieces), {})


def _he_product_value(terms, point):
    """Exact value and error scale of the same sum at a point."""
    value = Fraction(0)
    scale = 0.0
    for c, alpha in terms:
        v, s = Fraction(c), abs(c)
        for a, y in zip(alpha, point):
            v *= poly_value(he_coeffs(a), Fraction(y))
            s *= abs_poly_value(he_coeffs(a), y)
        value += v
        scale += s
    return float(value), scale


class InProcess:
    """Shared state and operation constructors of the in-process workloads."""

    def __init__(self, hk, rng):
        self.hk = hk
        self.rng = rng
        self.rule_orders = set()
        self._decks = {}

    def deal(self, key, values):
        """The next value from a shuffled deck of `values`, refilled when
        empty: every value comes up once per pass, so the cost of a run
        depends little on the seed."""
        deck = self._decks.setdefault(key, [])
        if not deck:
            deck.extend(values)
            self.rng.shuffle(deck)
        return deck.pop()

    # -- bookkeeping ------------------------------------------------------

    def note_rule(self, tr, order):
        """Count a rule request and whether its order was requested earlier
        in this process: the property a rule cache exploits."""
        tr.count("quadrature.rule.requests")
        if order in self.rule_orders:
            tr.count("quadrature.rule.repeats")
        self.rule_orders.add(order)

    def _coeff(self, low=-3, high=3):
        value = 0
        while value == 0:
            value = self.rng.randint(low, high)
        return value

    # -- quadrature -------------------------------------------------------

    def rule_op(self, n):
        hk = self.hk

        def call(tr):
            self.note_rule(tr, n)
            with tr.span("quadrature.rule"):
                return hk.gauss_hermite_rule(n)

        def check(rule):
            check_equal("rule order", len(rule.nodes), n)
            rule_moment_checks(rule.nodes, rule.weights)
        return Op("rule", call, check)

    def integrate_op(self, n, whole_line):
        hk, rng = self.hk, self.rng
        terms = [(self._coeff(-5, 5), rng.randint(0, 2 * n - 1)) for _ in range(3)]
        (a, i), (b, j), (c, k) = terms
        if whole_line:
            def f(x):
                return math.exp(-0.5 * x * x) * (a * x**i + b * x**j + c * x**k)
            integrate = hk.integrate_whole_line
        else:
            def f(x):
                return a * x**i + b * x**j + c * x**k
            integrate = hk.integrate_weighted

        def call(tr):
            self.note_rule(tr, n)
            with tr.span("quadrature.rule"):
                rule = hk.gauss_hermite_rule(n)
            g = tr.counted("quadrature.integrand_evals", f)
            with tr.span("quadrature.integrate"):
                return integrate(g, rule)

        def check(value):
            want, scale = sparse_poly_integral(terms)
            check_close(f"integral of {terms} at order {n}", value, want, scale)
        return Op("integrate_whole_line" if whole_line else "integrate_weighted", call, check)

    def cubature_op(self, n):
        hk, rng = self.hk, self.rng
        a, b, c, d = (self._coeff() for _ in range(4))
        # (2 pi)^2 E[f(Y)] for Y ~ N(0, I_4): E[y0^2 y1^2] = 1, E[y2^4] = 3
        want = (2.0 * math.pi) ** 2 * (a + 3 * b + d)
        scale = (2.0 * math.pi) ** 2 * (abs(a) + 3 * abs(b) + abs(d) + abs(c))
        axes = rng.sample(range(4), 4)
        i0, i1, i2, i3 = axes

        def f(p):
            return a * p[i0] * p[i0] * p[i1] * p[i1] + b * p[i2] ** 4 + c * p[i3] + d

        def call(tr):
            self.note_rule(tr, n)
            with tr.span("quadrature.cubature"):
                rule = hk.tensor_cubature(4, n)
            tr.count("quadrature.cubature.points", len(rule.weights))
            g = tr.counted("quadrature.integrand_evals", f)
            with tr.span("quadrature.integrate"):
                return hk.integrate_cubature(g, rule)

        def check(value):
            check_close(f"order-{n} cubature in 4 dimensions", value, want, scale)
        return Op("cubature", call, check)

    # -- expansions -------------------------------------------------------

    def fourier_hermite_op(self, order):
        hk = self.hk
        mu = round(self.rng.uniform(-1.0, 1.0), 3)
        quad_order = 2 * order + 12

        def f(x):
            return math.exp(-0.5 * (x - mu) ** 2) / SQRT_TWO_PI

        def call(tr):
            self.note_rule(tr, quad_order)
            g = tr.counted("expansions.fourier_hermite.integrand_evals", f)
            with tr.span("expansions.fourier_hermite"):
                return hk.fourier_hermite_coeffs(g, order, quad_order)

        def check(series):
            want, scale = fourier_hermite_exact(mu, order)
            check_equal("coefficient count", len(series.coeffs), order + 1)
            for n, (got, w) in enumerate(zip(series.coeffs, want)):
                check_close(f"a_{n} of N({mu}, 1) at order {order}", got, w, scale)
        return Op("fourier_hermite", call, check)

    def wce_1d_op(self, order):
        hk = self.hk
        degree = self.rng.randint(0, min(order, 6))
        chaos = [self._coeff() for _ in range(degree + 1)]
        mono = [float(c) for c in he_basis_to_monomial(chaos)]
        quad_order = 2 * order + 12

        def f(y):
            acc = 0.0
            for c in reversed(mono):
                acc = acc * y + c
            return acc

        def call(tr):
            self.note_rule(tr, quad_order)
            g = tr.counted("expansions.wce_1d.integrand_evals", f)
            with tr.span("expansions.wce_1d"):
                return hk.wce_coeffs_1d(g, order, quad_order)

        def check(series):
            want = chaos + [0] * (order + 1 - len(chaos))
            check_equal("coefficient count", len(series.coeffs), order + 1)
            scale = max(abs(c) * math.factorial(n) for n, c in enumerate(chaos))
            for n, (got, w) in enumerate(zip(series.coeffs, want)):
                check_close(f"chaos coefficient b_{n} of {chaos}", got, w, scale)
        return Op("wce_1d", call, check)

    def wce_multi_op(self, dimension, order, quad_order=None):
        hk, rng = self.hk, self.rng
        indices = [a for a in itertools.product(range(order + 1), repeat=dimension)
                   if sum(a) <= order]
        terms = [(self._coeff(), alpha) for alpha in rng.sample(indices, min(4, len(indices)))]
        f = _he_product_function(terms)
        point = tuple(round(rng.uniform(-2.0, 2.0), 3) for _ in range(dimension))
        quad_order = quad_order or 2 * order + 12

        def call(tr):
            self.note_rule(tr, quad_order)
            g = tr.counted("expansions.wce_multi.integrand_evals", f)
            with tr.span("expansions.wce_multi"):
                coeffs = hk.wce_coeffs_multi(g, dimension, order, quad_order)
            with tr.span("expansions.wce_reconstruct"):
                return coeffs, hk.wce_reconstruct(coeffs, point)

        def check(result):
            # f = sum c_a He_a gives b^(n)[i_1..i_n] = c_b b!/n!, b the multiplicities
            coeffs, value = result
            by_alpha = dict((alpha, c) for c, alpha in terms)
            scale = max(abs(c) * math.prod(map(math.factorial, a)) for c, a in terms)
            for rank, tensor in enumerate(coeffs.tensors):
                for idx in itertools.product(range(dimension), repeat=rank):
                    beta = tuple(idx.count(axis) for axis in range(dimension))
                    want = (by_alpha.get(beta, 0) * math.prod(map(math.factorial, beta))
                            / math.factorial(rank))
                    check_close(f"b^({rank}){list(idx)} of {terms}", tensor[idx], want, scale)
            want, vscale = _he_product_value(terms, point)
            check_close(f"reconstruction at {point}", value, want, vscale)
        return Op("wce_multi", call, check)

    def fourier_eigen_op(self, n):
        hk = self.hk
        kmax = round(self.rng.uniform(1.0, 4.0), 2)
        grid = [kmax * (i / 12.0 - 1.0) for i in range(25)]
        quad_order = max(2 * n + 10, 40)

        def call(tr):
            self.note_rule(tr, quad_order)
            with tr.span("expansions.fourier_eigen"):
                return hk.fourier_eigen_check(n, grid, quad_order)

        def check(residual):
            check_eigen_residual(n, residual)
        return Op("fourier_eigen", call, check)

    def gram_charlier_op(self):
        hk, rng = self.hk, self.rng
        order = rng.choice((3, 4, 5, 6, 7, 8))
        mu = round(rng.uniform(-1.0, 1.0), 3)
        sigma = round(rng.uniform(0.5, 2.0), 3)
        nus = [round(rng.uniform(-1.0, 1.0), 3), round(rng.uniform(2.0, 6.0), 3)]
        nus += [round(rng.uniform(-5.0, 5.0), 3) for _ in range(max(0, order - 4))]
        x = round(rng.uniform(mu - 3 * sigma, mu + 3 * sigma), 3)
        moments = hk.StandardizedMoments(mu=mu, sigma=sigma, nu=tuple(nus))

        def call(tr):
            with tr.span("expansions.gram_charlier"):
                return hk.gram_charlier_density(moments, order, x)

        def check(value):
            want, scale = gram_charlier_value(mu, sigma, nus, order, x)
            check_close(f"Gram-Charlier order {order} at {x}", value, want, scale)
        return Op("gram_charlier", call, check)

    def evaluate_series_op(self):
        hk, rng = self.hk, self.rng
        coeffs = tuple(round(rng.uniform(-1.0, 1.0), 3) for _ in range(rng.randint(2, 13)))
        density = rng.random() < 0.5
        series = hk.HermiteSeries(coeffs=coeffs, convention=hk.DENSITY_WEIGHTED if density
                                  else hk.PLAIN_RV)
        x = round(rng.uniform(-4.0, 4.0), 3)

        def call(tr):
            with tr.span("expansions.evaluate_series"):
                return hk.evaluate_series(series, x)

        def check(value):
            check_series_value(f"series {coeffs} at {x}", value, coeffs, x, density)
        return Op("evaluate_series", call, check)

    def eval_grid_op(self, weighted):
        hk, rng = self.hk, self.rng
        n = rng.randint(0, 40)
        family = rng.choice(("he", "h"))
        half = rng.uniform(1.0, 8.0)
        grid = [half * (2.0 * i / 15.0 - 1.0) for i in range(16)]
        evaluate = hk.eval_hermite_function if weighted else hk.eval_hermite

        def call(tr):
            with tr.span("polynomials.eval"):
                return [evaluate(n, x, family) for x in grid]

        def check(values):
            for x, value in zip(grid, values):
                log_weight = 0.0
                if weighted:
                    log_weight = -x * x / (4.0 if family == "he" else 2.0)
                check_hermite_value(f"{family}_{n}({x!r})", value, n, x, family, log_weight)
        return Op("eval_hermite_function" if weighted else "eval_hermite", call, check)


class ExpandSmall(InProcess):
    """Many low-order in-process calls.  Per-call Python overhead is the cost
    and quadrature orders repeat, so a rule cache shows its gain here and a
    vectorized kernel that adds fixed numpy cost per call shows its loss."""

    name = "expand-small"
    trace_rounds = 150
    round_seconds = 0.035   # wall time of a round with its checks, reference host

    def round(self):
        rng = self.rng
        ops = [self.rule_op(rng.randint(2, 40)) for _ in range(6)]
        ops += [self.integrate_op(rng.randint(2, 40), False) for _ in range(2)]
        ops.append(self.integrate_op(rng.randint(2, 40), True))
        # four each, so that the median falls mid-way through the rules and
        # integrals rather than among the cheapest of them
        ops += [self.fourier_hermite_op(rng.randint(2, 12)) for _ in range(4)]
        ops += [self.wce_1d_op(rng.randint(2, 12)) for _ in range(4)]
        ops.append(self.wce_multi_op(*self.deal("wce_multi", [(d, order) for d in (1, 2)
                                                              for order in range(1, 5)])))
        ops += [self.gram_charlier_op() for _ in range(2)]
        ops += [self.evaluate_series_op() for _ in range(2)]
        ops += [self.eval_grid_op(False) for _ in range(2)]
        ops += [self.eval_grid_op(True) for _ in range(2)]
        rng.shuffle(ops)
        return ops

    def warm_up_ops(self):
        return [self.rule_op(3), self.integrate_op(3, False), self.integrate_op(3, True),
                self.fourier_hermite_op(2), self.wce_1d_op(2), self.wce_multi_op(2, 1),
                self.gram_charlier_op(), self.evaluate_series_op(), self.eval_grid_op(False),
                self.eval_grid_op(True)]


class ExpandLarge(InProcess):
    """A few heavy in-process calls: the O(N^2 Q) coefficient loops and the
    121-tuple chaos loop, the largest measured costs.  A single recurrence
    kernel must show its gain here."""

    name = "expand-large"
    trace_rounds = 6
    round_seconds = 1.0   # wall time of a round with its checks, reference host

    def round(self):
        rng = self.rng
        # Quadrature order 10 keeps the 121-tuple chaos loop near the cost of
        # the largest cubature.  It is the slowest operation of a round, and
        # a run holds more than eleven rounds, so that the tail falls on it.
        ops = [self.wce_multi_op(3, 4, quad_order=10)]
        ops += [self.fourier_hermite_op(self.deal("fourier_hermite", range(60, 91)))
                for _ in range(3)]
        ops.append(self.wce_1d_op(self.deal("wce_1d", range(30, 41))))
        # orders 150..200 without repeats until all 51 have been used
        ops.append(self.rule_op(self.deal("rule", range(150, 201))))
        ops.append(self.cubature_op(self.deal("cubature", (16, 18, 20))))
        ops.append(self.fourier_eigen_op(self.deal("fourier_eigen", range(20, 41))))
        rng.shuffle(ops)
        return ops

    def warm_up_ops(self):
        return [self.wce_multi_op(3, 1), self.fourier_hermite_op(2), self.wce_1d_op(2),
                self.rule_op(4), self.cubature_op(3), self.fourier_eigen_op(2)]


class ExactCombinatorics(InProcess):
    """Pure-integer work: exact constructions, basis changes and matching
    counts.  No numpy and no quadrature run here, so kernel, rule-cache and
    scipy changes should leave it unchanged; folding the shared
    n!/((n-2j)! j!) helper across modules shows here if it slows."""

    name = "exact-combinatorics"
    trace_rounds = 3
    round_seconds = 2.0   # wall time of a round with its checks, reference host

    def construction_op(self, recurrence, low=0):
        hk, rng = self.hk, self.rng
        n = rng.randint(low, 400)
        family = rng.choice(("he", "h"))
        build = hk.hermite_recurrence if recurrence else hk.hermite_explicit

        def call(tr):
            with tr.span("polynomials.exact"):
                return build(n, family)

        def check(poly):
            want = he_coeffs(n) if family == "he" else h_coeffs(n)
            check_equal(f"{family}_{n} coefficients", poly.coeffs, tuple(want))
        return Op("hermite_recurrence" if recurrence else "hermite_explicit", call, check)

    def gram_schmidt_op(self):
        hk = self.hk
        n = self.deal("gram_schmidt", range(24, 41))

        def call(tr):
            with tr.span("polynomials.gram_schmidt"):
                return hk.gram_schmidt_construct(n)

        def check(basis):
            check_equal("basis size", len(basis), n + 1)
            for k, q in enumerate(basis):
                check_equal(f"monic orthogonal q_{k}", q.coeffs, tuple(he_coeffs(k)))
        return Op("gram_schmidt", call, check)

    def change_of_basis_op(self):
        hk, rng = self.hk, self.rng
        n = rng.randint(0, 200)
        pair = rng.choice(_BASIS_PAIRS)

        def call(tr):
            with tr.span("moments.change_of_basis"):
                matrix = hk.change_of_basis(n, *pair)
            tr.count("moments.entries", (n + 1) ** 2)
            return matrix

        def check(matrix):
            check_equal(f"{pair} matrix of order {n}", matrix.entries, basis_matrix(n, *pair))
        return Op("change_of_basis", call, check)

    def compose_op(self):
        hk, rng = self.hk, self.rng
        n = rng.randint(40, 60)
        first, second = rng.choice(_COMPOSITIONS)

        def call(tr):
            with tr.span("moments.change_of_basis"):
                a = hk.change_of_basis(n, *first)
                b = hk.change_of_basis(n, *second)
            with tr.span("moments.compose"):
                product = hk.compose(b, a)
            tr.count("moments.entries", 3 * (n + 1) ** 2)
            return product

        def check(product):
            source, target = first[0], second[1]
            want = identity(n) if source == target else basis_matrix(n, source, target)
            check_equal(f"{first} then {second} at order {n}", product.entries, want)
        return Op("compose", call, check)

    def deconvolve_op(self):
        hk, rng = self.hk, self.rng
        coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(1, 13))]
        coeffs[-1] = self._coeff(-9, 9)
        sigma = rng.choice((0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0))
        g = hk.ExactPolynomial(coeffs)

        def call(tr):
            with tr.span("expansions.deconvolve"):
                return hk.gaussian_mixture_deconvolve(g, sigma)

        def check(f):
            # blurring the answer with N(0, sigma^2) must give g back
            blurred = gaussian_blur([Fraction(c) for c in f.coeffs], Fraction(sigma))
            check_equal(f"blur of the deconvolution of {coeffs} at sigma {sigma}",
                        tuple(blurred), tuple(Fraction(c) for c in coeffs))
        return Op("deconvolve", call, check)

    def match_table_op(self, complete, m):
        hk, rng = self.hk, self.rng
        if complete:
            graph = hk.complete_graph(m)
        else:
            # G(m, 0.6) with the edge count fixed at 0.6 * C(m, 2)
            pairs = [(u, v) for u in range(1, m + 1) for v in range(u + 1, m + 1)]
            graph = hk.SimpleGraph.from_edges(m, rng.sample(pairs, round(0.6 * len(pairs))))

        def call(tr):
            with tr.span("graphs.match_table"):
                counts = hk.match_count_table(graph)
            tr.count("graphs.match_table.edges", graph.edge_count)
            return counts

        def check(counts):
            want = complete_graph_counts(m) if complete else match_counts(m, graph.edges)
            check_equal(f"match counts of a {m}-vertex graph", tuple(counts), want)
        return Op("match_table_complete" if complete else "match_table_random", call, check)

    def complete_matches_op(self, parts):
        hk = self.hk
        defect = "product-integral-recursion" if sum(parts) >= 1000 else None

        def call(tr):
            with tr.span("graphs.complete_matches"):
                return hk.count_complete_matches(parts)

        def check(count):
            check_equal(f"perfect matches of K{parts}", count, perfect_matches(parts))
        return Op("complete_matches", call, check, defect)

    def product_integral_op(self):
        hk, rng = self.hk, self.rng
        orders = [rng.randint(0, 30) for _ in range(rng.randint(2, 4))]

        def call(tr):
            with tr.span("graphs.product_integral"):
                return hk.hermite_product_integral(orders)

        def check(value):
            want = scaled_float(perfect_matches(orders), math.log(SQRT_TWO_PI))
            check_close(f"product integral of He{orders}", value, want, abs(want))
        return Op("product_integral", call, check)

    def linearize_op(self):
        hk, rng = self.hk, self.rng
        m, n = rng.randint(0, 200), rng.randint(0, 200)

        def call(tr):
            with tr.span("graphs.linearize"):
                return hk.linearization_coeffs(m, n)

        def check(table):
            check_equal(f"He_{m} He_{n}", table, linearization(m, n))
        return Op("linearize", call, check)

    def round(self):
        rng = self.rng
        # Eight recurrences near n = 400 hold the median, and three K_20 are
        # the slowest operations, so that the tail falls on K_20.
        ops = [self.construction_op(True, low=370) for _ in range(8)]
        ops += [self.construction_op(False), self.gram_schmidt_op(),
                self.change_of_basis_op(), self.compose_op(), self.deconvolve_op(),
                self.match_table_op(False, 20),
                self.match_table_op(True, self.deal("complete", range(8, 17))),
                self.match_table_op(True, 20), self.match_table_op(True, 20),
                self.match_table_op(True, 20),
                self.complete_matches_op([rng.randint(0, 300) for _ in range(rng.randint(2, 3))]),
                self.complete_matches_op([rng.randint(0, 12) for _ in range(rng.randint(4, 5))]),
                self.complete_matches_op([rng.randint(1000, 3000)
                                          for _ in range(rng.randint(2, 3))]),
                self.product_integral_op(), self.linearize_op()]
        rng.shuffle(ops)
        return ops

    def warm_up_ops(self):
        return [self.deconvolve_op(), self.complete_matches_op([3, 3, 2]),
                self.match_table_op(True, 6), self.match_table_op(False, 8),
                self.product_integral_op(), self.linearize_op()]

