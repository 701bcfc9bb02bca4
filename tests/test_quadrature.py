"""Gauss-Hermite rules checked against exact Gaussian moments and
independent weight recovery."""

import importlib
import itertools
import json
import math
import operator
import os
import re
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hermite_kit
from hermite_kit import (
    gauss_hermite_rule,
    integrate_cubature,
    integrate_weighted,
    integrate_whole_line,
    tensor_cubature,
    wce_coeffs_multi,
)
from golden import regen
from hermite_kit import polynomials, quadrature
from rule_table import orthonormal_residual

SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


# a child interpreter imports the same hermite_kit as this process, installed or not
_CHILD_ENV = {**os.environ,
              "PYTHONPATH": os.path.dirname(os.path.dirname(hermite_kit.__file__))}


def _cli_without_numpy(commands):
    """[status, stdout, stderr] of each argv through cli.main, in one child where
    None in sys.modules makes any import of numpy raise ImportError, and which of
    dataclasses and inspect that child loaded."""
    code = "\n".join([
        "import contextlib, io, json, sys",
        "sys.modules['numpy'] = None",
        "import hermite_kit",
        "from hermite_kit.cli import main",
        "results = []",
        "for argv in json.loads(sys.argv[1]):",
        "    out, err = io.StringIO(), io.StringIO()",
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):",
        "        try:",
        "            status = main(argv)",
        "        except SystemExit as exc:",
        "            status = exc.code",
        "    results.append([status, out.getvalue(), err.getvalue()])",
        "print(json.dumps([results, sorted({'dataclasses', 'inspect'} & set(sys.modules))]))",
    ])
    result = subprocess.run([sys.executable, "-c", code, json.dumps(commands)],
                            capture_output=True, text=True, check=True,
                            env=_CHILD_ENV)
    return json.loads(result.stdout)


_QUADS = [(n, fmt) for n in (1, 2, 3, 200) for fmt in ("csv", "tsv", "json")]


def _quad_output(N, fmt):
    # the stdout of `quad --n N --format fmt`, from gauss_hermite_rule's arrays
    rule = gauss_hermite_rule(N)
    if fmt == "json":
        return json.dumps({"nodes": rule.nodes.tolist(), "weights": rule.weights.tolist()}) + "\n"
    rows = [("node", "weight"), *((format(x, ".17g"), format(w, ".17g"))
                                  for x, w in zip(rule.nodes, rule.weights))]
    return "".join(("," if fmt == "csv" else "\t").join(row) + "\n" for row in rows)


PUBLIC_NAMES = [
    "ChangeOfBasisMatrix", "CubatureRule", "DENSITY_WEIGHTED", "ExactPolynomial",
    "GraphFileError", "HermiteSeries", "PHYSICIST", "PLAIN_RV", "PROBABILIST",
    "QuadratureRule", "SimpleGraph", "StandardizedMoments", "WCETensorCoeffs",
    "change_of_basis", "complete_graph", "complete_kpartite", "compose",
    "count_complete_matches", "count_j_matches", "eval_hermite", "eval_hermite_function",
    "evaluate_series", "format_edge_list", "fourier_eigen_check", "fourier_hermite_coeffs",
    "gauss_hermite_rule", "gauss_moment_polynomial", "gaussian_mixture_deconvolve",
    "gaussian_raw_moment", "gram_charlier_density", "gram_schmidt_construct",
    "hermite_explicit", "hermite_product_integral", "hermite_recurrence", "hermite_table",
    "integrate_cubature", "integrate_weighted", "integrate_whole_line",
    "linearization_coeffs", "match_count_table", "matching_polynomial",
    "parse_edge_list", "partite_closed_form", "series_tail_indicator", "tensor_component",
    "tensor_cubature", "wce_coeffs_1d", "wce_coeffs_multi",
    "wce_reconstruct", "weierstrass_preimage_polynomial",
]

# paper identities and float copies of exact results that the tests check and
# the package must not export
REMOVED_NAMES = [
    "expected_hermite_of_gaussian", "gaussian_raw_moment_hermite_form",
    "generating_function_check", "hermite_derivative", "hermite_in_moments",
    "hermite_ode_residual", "moments_in_hermite", "verify_hermite_matching",
    "weierstrass_deconvolution_identity",
]


def exact_gaussian_moment(k):
    """int x^k e^{-x^2/2} dx = sqrt(2*pi) (k-1)!! for even k, 0 for odd."""
    if k % 2:
        return 0.0
    return SQRT_TWO_PI * math.factorial(k) / (2 ** (k // 2) * math.factorial(k // 2))


class TestRuleInvariants:
    @pytest.mark.parametrize("N", [1, 2, 3, 5, 8, 20, 51, 99, 200])
    def test_structure(self, N):
        rule = gauss_hermite_rule(N)
        assert rule.order == N
        assert len(rule.nodes) == N and len(rule.weights) == N
        assert np.all(np.diff(rule.nodes) > 0)
        assert np.all(rule.weights > 0)
        assert np.max(np.abs(rule.nodes + rule.nodes[::-1])) <= 1e-12
        total = float(np.sum(rule.weights))
        assert abs(total - SQRT_TWO_PI) <= 1e-12 * SQRT_TWO_PI
        if N % 2:
            assert rule.nodes[N // 2] == 0.0

    def test_small_rules_explicitly(self):
        rule = gauss_hermite_rule(1)
        assert rule.nodes[0] == 0.0
        assert rule.weights[0] == pytest.approx(SQRT_TWO_PI, rel=1e-14)
        rule = gauss_hermite_rule(2)
        assert rule.nodes == pytest.approx([-1.0, 1.0], abs=1e-14)
        assert rule.weights == pytest.approx([SQRT_TWO_PI / 2] * 2, rel=1e-14)
        rule = gauss_hermite_rule(3)
        assert rule.nodes == pytest.approx([-math.sqrt(3.0), 0.0, math.sqrt(3.0)], abs=1e-14)

    def test_rejects_bad_orders(self):
        with pytest.raises(ValueError):
            gauss_hermite_rule(0)
        with pytest.raises(ValueError):
            gauss_hermite_rule(201)

    def test_node_residuals_in_weighted_form(self):
        for N in (5, 20, 120, 200):
            rule = gauss_hermite_rule(N)
            for x in rule.nodes:
                assert abs(orthonormal_residual(N, x)) <= 1e-13

    def test_interlacing_to_50(self):
        prev = gauss_hermite_rule(1).nodes
        for N in range(2, 51):
            cur = gauss_hermite_rule(N).nodes
            for i, root in enumerate(prev):
                assert cur[i] < root < cur[i + 1]
            prev = cur


class TestRuleBuilder:
    def test_rule_is_cached_and_read_only(self):
        rule = gauss_hermite_rule(17)
        assert gauss_hermite_rule(17) is rule
        with pytest.raises(ValueError, match="read-only"):
            rule.nodes[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            rule.weights[0] = 1.0

    def test_unhashable_order_is_a_value_error(self):
        with pytest.raises(ValueError, match="positive integer"):
            gauss_hermite_rule([3])

    def test_import_leaves_scipy_out(self):
        # a bare import loads no submodule; a public name loads only its own
        code = "\n".join([
            "import sys, hermite_kit",
            "loaded = lambda: sorted(m for m in sys.modules if m.startswith('hermite_kit.'))",
            "print('scipy' in sys.modules, loaded())",
            "hermite_kit.ExactPolynomial",
            "print(loaded())",
        ])
        result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                text=True, check=True, env=_CHILD_ENV)
        assert result.stdout.splitlines() == ["False []", "['hermite_kit.exactpoly']"]

    def test_exact_cli_paths_run_without_numpy(self, tmp_path):
        # the records are named tuples, so neither dataclasses nor inspect loads
        graph, bad = tmp_path / "c4.txt", tmp_path / "bad.txt"
        graph.write_text("4\n1 2\n2 3\n3 4\n1 4\n", encoding="utf-8")
        bad.write_text("3\n1 2\n1 2\n", encoding="utf-8")
        moments = tmp_path / "moments.csv"
        moments.write_text("0\n1\n0.5\n3.5\n", encoding="utf-8")
        grid = ["--n", "3", "--xmin=-2", "--xmax", "2", "--samples", "5"]
        commands = [
            ["poly", "--n", "4"],
            ["graph", "match-poly", "--file", str(graph)],
            ["graph", "matches", "--file", str(graph)],
            ["graph", "kpartite", "--parts", "2,3"],
            ["graph", "product-integral", "--parts", "2,2,2"],
            ["graph", "linearize", "--m", "3", "--n", "2"],
            ["plotdata", "--kind", "poly", *grid],
            ["plotdata", "--kind", "function", *grid],
            ["plotdata", "--kind", "series", "--coeffs", "1,0,1", *grid],
            ["expand", "deconvolve", "--coeffs", "0,0,1", "--sigma", "1"],
            ["expand", "gram-charlier", "--nu3", "0.5", "--nu4", "3.5", "--x", "0.5"],
            ["expand", "gram-charlier", "--moments-csv", str(moments), "--x", "0.5"],
            ["poly", "--n", "3", "--family", "legendre"],
            ["expand", "deconvolve", "--coeffs", "1,2", "--sigma", "-1"],
            ["expand", "fourier-hermite", "--mu", "0", "--order", "150"],
            ["expand", "wce", "--coeffs", "0,0,1", "--order", "201"],
            ["expand", "fourier-check", "--n", "100"],
            ["quad", "--n", "0"],
            ["quad", "--n", "201"],
            ["graph", "match-poly", "--file", str(bad)],
            *(["quad", f"--n={n}", f"--format={fmt}"] for n, fmt in _QUADS),
        ]
        results, loaded = _cli_without_numpy(commands)
        assert [status for status, _, _ in results] == [0] * 12 + [2] * 7 + [3] + [0] * 12
        assert results[0][1] == "3,0,-6,0,1\n"
        assert results[4][1] == "20.053026197048002\n"
        assert results[9][1] == "-1,0,1\n"
        assert results[10][1] == results[11][1] != ""
        assert [err for _, _, err in results[17:19]] == [
            "error: quadrature order must be a positive integer, got 0\n",
            "error: quadrature order 201 exceeds the supported maximum 200\n",
        ]
        assert results[19][2] == "error: line 3: duplicate edge (1, 2)\n"
        quads = dict(zip(_QUADS, (out for _, out, _ in results[20:])))
        assert all(out == _quad_output(*key) for key, out in quads.items())
        golden = {f"quad --n={n}": (n, "csv") for n in (1, 2)}
        golden |= {f"quad --n 3 --format {fmt}": (3, fmt) for fmt in ("csv", "tsv", "json")}
        recorded = dict(line.split("\t")[::2] for line in
                        regen.CORPUS.read_text(encoding="utf-8").splitlines()[2:])
        assert {argv: recorded[argv] for argv in golden} == \
            {argv: regen.digest(quads[key]) for argv, key in golden.items()}
        assert loaded == []

    def test_explicit_rule_order_refusal_runs_without_numpy(self):
        # an explicit order past the largest rule is refused before a rule is built
        results, _ = _cli_without_numpy([["expand", "fourier-hermite", "--mu", "0", "--order", "2",
                                          "--quad-order", "201"]])
        assert results == [
            [2, "", "error: quadrature order 201 exceeds the supported maximum 200\n"]]

    @pytest.mark.parametrize("argv, output, modules", [
        (["poly", "--n", "4"], "3,0,-6,0,1\n", ()),
        (["plotdata", "--kind", "series", "--coeffs", "1", "--xmin", "0", "--xmax", "0",
          "--samples", "2"], "x\tvalue\n0\t1\n0\t1\n", ("expansions",)),
        (["expand", "gram-charlier", "--x", "0"], "0.3989422804014327\n", ("expansions",)),
        (["expand", "wce", "--coeffs", "0,0,1", "--order", "4"],
         '{"convention": "plain-rv", "coeffs": [1.0, 0.0, 1.0, 0.0, 0.0]}\n',
         ("moments", "expansions")),
        (["expand", "deconvolve", "--coeffs", "0,0,1", "--sigma", "1"], "-1,0,1\n", ("moments",)),
        (["quad", "--n", "3"], "node,weight\n-1.7320508075688772,0.41777137910516693\n"
                               "0,1.6710855164206673\n1.7320508075688772,0.41777137910516693\n",
         ()),
    ], ids=["poly", "plotdata series", "expand gram-charlier", "expand wce", "expand deconvolve",
            "quad"])
    def test_a_cli_process_loads_only_what_it_runs(self, argv, output, modules):
        # a fresh `python -m hermite_kit.cli` process; -v logs every module it
        # imports, those a public name loads through importlib too.  Beside exactpoly and
        # polynomials, which every subcommand reads, it loads just the modules it runs
        result = subprocess.run([sys.executable, "-v", "-m", "hermite_kit.cli", *argv],
                                capture_output=True, text=True, check=True, env=_CHILD_ENV)
        loaded = set(re.findall(r"^import '([\w.]+)'", result.stderr, re.MULTILINE))
        assert result.stdout == output
        assert {name for name in loaded if name.startswith("hermite_kit.")} == \
            {f"hermite_kit.{name}" for name in ("exactpoly", "polynomials", *modules)}
        assert not {"__future__", "numpy"} & loaded

    def test_default_rule_refusals_run_without_numpy(self):
        # the library sizes and checks every rule before it imports numpy or quadrature
        code = "\n".join([
            "import sys",
            "sys.modules['numpy'] = None",
            "import hermite_kit as hk",
            "for call in (lambda: hk.fourier_hermite_coeffs(abs, 95),",
            "             lambda: hk.wce_coeffs_1d(abs, 95),",
            "             lambda: hk.fourier_eigen_check(96, [1.0]),",
            "             lambda: hk.wce_coeffs_multi(abs, 4, 1),",
            "             lambda: hk.wce_coeffs_multi(abs, 2, 1, 201)):",
            "    try:",
            "        call()",
            "    except ValueError as exc:",
            "        print(exc)",
        ])
        result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                text=True, check=True, env=_CHILD_ENV)
        assert result.stdout.splitlines() == [
            "order 95 exceeds 94, the default quadrature's limit",
            "order 95 exceeds 94, the default quadrature's limit",
            "n 96 exceeds 95, the default quadrature's limit",
            "dimension must be 1..3, got 4",
            "quadrature order 201 exceeds the supported maximum 200",
        ]

    def test_rule_limit_is_shared_with_polynomials(self):
        # expansions sizes and checks a rule, and the CLI checks a rule order,
        # both without importing quadrature, hence numpy
        assert polynomials.MAX_ORDER == 200
        assert quadrature._check_rule_order is polynomials._check_rule_order

    def test_public_names_resolve_to_their_modules(self):
        modules = [importlib.import_module(f"hermite_kit.{name}") for name in
                   ("exactpoly", "expansions", "graphs", "moments", "polynomials",
                    "quadrature")]
        assert sorted(hermite_kit.__all__) == PUBLIC_NAMES
        for name in hermite_kit.__all__:
            value = getattr(hermite_kit, name)
            owners = [module for module in modules if name in vars(module)]
            assert owners and all(vars(module)[name] is value for module in owners), name
            assert vars(hermite_kit)[name] is value  # resolved once, then a dict hit
        namespace = {}
        exec("from hermite_kit import *", namespace)
        assert sorted(set(namespace) - {"__builtins__"}) == sorted(hermite_kit.__all__)
        with pytest.raises(AttributeError, match="no_such_name"):
            hermite_kit.no_such_name
        assert len(PUBLIC_NAMES) == 50
        # dir() lists every public name, resolved or not, beside the module's own
        assert set(PUBLIC_NAMES) <= set(dir(hermite_kit)) and "__version__" in dir(hermite_kit)
        assert dir(hermite_kit) == sorted(dir(hermite_kit))
        for name in REMOVED_NAMES:
            with pytest.raises(AttributeError, match=name):
                getattr(hermite_kit, name)

    @pytest.mark.parametrize("N, bound", [(20, 1e-13), (60, 6e-13)])
    def test_weights_against_mpmath(self, N, bound):
        # roots of He_N polished at 50 digits from the float nodes, weights
        # sqrt(2 pi) N! / (N He_{N-1})^2; each bound rounds up the error of
        # the earlier scipy tridiagonal-eigensolver build (8.6e-14 at N=20,
        # 5.5e-13 at N=60), which the tabled rules match
        import mpmath as mp

        def he_pair(x):
            prev, cur = mp.mpf(0), mp.mpf(1)
            for k in range(N):
                prev, cur = cur, x * cur - k * prev
            return cur, prev

        rule = gauss_hermite_rule(N)
        with mp.workdps(50):
            for x, w in zip(rule.nodes, rule.weights):
                t = mp.mpf(float(x))
                for _ in range(5):
                    value, lower = he_pair(t)
                    t -= value / (N * lower)
                lower = he_pair(t)[1]
                want = mp.sqrt(2 * mp.pi) * mp.factorial(N) / (N * lower) ** 2
                assert abs(float(t) - x) <= 1e-13 * max(1.0, abs(x))
                assert abs(w - want) <= bound * want


class TestExactness:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 60).flatmap(lambda N: st.tuples(
        st.just(N), st.lists(st.integers(-9, 9), min_size=1, max_size=2 * N))))
    def test_random_polynomials_of_degree_below_2n(self, case):
        # against sum_k c_k (k-1)!! sqrt(2 pi), scaled by sum_k |c_k| E|x|^k
        # bounded through the next even moment
        N, coeffs = case
        result = integrate_weighted(
            lambda x: sum(c * x**k for k, c in enumerate(coeffs)), gauss_hermite_rule(N))
        expected = sum(c * exact_gaussian_moment(k) for k, c in enumerate(coeffs))
        scale = sum(abs(c) * exact_gaussian_moment(k + k % 2) for k, c in enumerate(coeffs))
        assert abs(result - expected) <= 1e-12 * max(scale, 1.0)

    def test_polynomial_exactness_to_20(self):
        for N in range(1, 21):
            rule = gauss_hermite_rule(N)
            for k in range(2 * N):
                result = integrate_weighted(lambda x, k=k: x**k, rule)
                expected = exact_gaussian_moment(k)
                if expected == 0.0:
                    assert abs(result) <= 1e-10 * exact_gaussian_moment(k + 1 if k % 2 else k)
                else:
                    assert abs(result - expected) <= 1e-10 * expected

    def test_weight_normalization_example(self):
        rule = gauss_hermite_rule(2)
        assert integrate_weighted(lambda x: 1.0, rule) == pytest.approx(SQRT_TWO_PI, rel=1e-14)
        assert integrate_weighted(lambda x: x * x, rule) == pytest.approx(SQRT_TWO_PI, rel=1e-13)

    def test_fourth_moment_example(self):
        rule = gauss_hermite_rule(3)
        assert integrate_weighted(lambda x: x**4, rule) == pytest.approx(3 * SQRT_TWO_PI, rel=1e-13)

    def test_weights_against_vandermonde_system(self):
        # independent recovery: solve the moment system V w = m exactly
        for N in range(1, 9):
            rule = gauss_hermite_rule(N)
            V = np.vander(rule.nodes, N, increasing=True).T
            m = np.array([exact_gaussian_moment(k) for k in range(N)])
            recovered = np.linalg.solve(V, m)
            assert np.allclose(recovered, rule.weights, rtol=1e-8, atol=0.0)

    def test_orthogonality_reproduced(self):
        for m in range(13):
            for n in range(13):
                rule = gauss_hermite_rule(m + n + 2)
                from hermite_kit import eval_hermite

                result = integrate_weighted(
                    lambda x: eval_hermite(m, x) * eval_hermite(n, x), rule
                )
                expected = SQRT_TWO_PI * math.factorial(n) if m == n else 0.0
                scale = SQRT_TWO_PI * math.sqrt(math.factorial(m) * math.factorial(n))
                assert abs(result - expected) <= 1e-9 * scale


class TestWholeLine:
    def test_weighted_gaussian(self):
        rule = gauss_hermite_rule(5)
        f = lambda x: math.exp(-x * x / 2.0)
        assert integrate_whole_line(f, rule) == pytest.approx(SQRT_TWO_PI, rel=1e-13)

    def test_second_moment(self):
        rule = gauss_hermite_rule(5)
        f = lambda x: x * x * math.exp(-x * x / 2.0)
        assert integrate_whole_line(f, rule) == pytest.approx(SQRT_TWO_PI, rel=1e-13)

    def test_plain_gaussian(self):
        rule = gauss_hermite_rule(20)
        f = lambda x: math.exp(-x * x)
        assert integrate_whole_line(f, rule) == pytest.approx(math.sqrt(math.pi), rel=1e-8)

    def test_monotone_improvement_spot_check(self):
        # no rate is asserted for non-polynomial integrands, only that
        # raising the order improves these spot values
        f = lambda x: math.exp(-x * x)
        errors = [
            abs(integrate_whole_line(f, gauss_hermite_rule(N)) - math.sqrt(math.pi))
            for N in (5, 10, 20, 40)
        ]
        assert errors[0] > errors[1] > errors[2] > errors[3]

    def test_non_finite_integrand_reports_index(self):
        rule = gauss_hermite_rule(5)
        bad = lambda x: math.inf if x == rule.nodes[2] else 1.0
        with pytest.raises(ValueError, match="node index 2"):
            integrate_weighted(bad, rule)

    def test_overflowing_whole_line_weights_raise(self):
        # e^(x^2/2) only leaves double range past |x| ~ 37.6, beyond any
        # supported order; only a hand-built rule reaches the refusal
        from hermite_kit.quadrature import QuadratureRule

        fake = QuadratureRule(
            order=2, nodes=np.array([-40.0, 40.0]), weights=np.array([1.0, 1.0])
        )
        called = []
        for _ in range(2):  # refused on every read, before f is called
            with pytest.raises(ValueError, match=r"^whole-line weights of the order-2 rule "
                               r"overflow: e\^\(x\^2/2\) leaves double range at its outer nodes$"):
                integrate_whole_line(called.append, fake)
        assert called == []

    def test_a_cubature_rule_is_refused(self):
        called = []
        with pytest.raises(TypeError, match=r"^integrate_whole_line needs a 1-d "
                           r"QuadratureRule, got CubatureRule$"):
            integrate_whole_line(called.append, tensor_cubature(2, 3))
        assert called == []

    def test_whole_line_integral_is_bitwise_the_plain_sum(self):
        # every tabled rule has finite whole-line weights, and a finite sum is the
        # plain product summed, the sign of an exact zero included
        def f(x):
            return -0.0 if x < -1.0 else 0.0 if x > 2.0 else math.exp(-x * x / 3) * (x - 0.5)

        for n in range(1, 201):
            rule = gauss_hermite_rule(n)
            assert np.isfinite(rule.whole_line_weights).all(), n
            values = np.array([f(x) for x in rule.nodes])
            want = float(np.sum(values * rule.whole_line_weights))
            got = integrate_whole_line(f, rule)
            assert (got, math.copysign(1.0, got)) == (want, math.copysign(1.0, want)), n


def _exact_sum(weights, values):
    # sum_i w_i v_i in rationals at the binary values, rounded once
    return sum(Fraction(float(w)) * Fraction(float(v)) for w, v in zip(weights, values))


def _ulps(got, exact):
    return abs(Fraction(got) - exact) / Fraction(math.ulp(float(exact)))


class TestOverflowingTerms:
    """A term w_i f(x_i) past double range while the sum is not: the contraction
    is redone on values scaled by a power of two, without a RuntimeWarning."""

    @staticmethod
    def f(y):
        return 1.5e308 if abs(y) < 0.1 else -1.5e308

    def test_integrate_weighted(self):
        rule = gauss_hermite_rule(3)
        got = integrate_weighted(self.f, rule)
        # 1.5e308 (w_1 - 2 w_0) with w_1 = 1.67, w_0 = 0.42
        assert _ulps(got, _exact_sum(rule.weights, map(self.f, rule.nodes))) <= 2
        assert got == pytest.approx(1.2533141373155001e308, rel=1e-15)

    def test_integrate_cubature(self):
        rule = tensor_cubature(2, 3)
        # the centre term 2.78 * 0.9e308 overflows even with one outer term (-0.63e308) added
        g = lambda p: 0.6 * self.f(p[0]) if p[1] == 0.0 else 0.0
        want = _exact_sum(rule.weights, map(g, itertools.product(rule.nodes, repeat=2)))
        assert _ulps(integrate_cubature(g, rule), want) <= 2
        line = tensor_cubature(1, 3)
        assert integrate_cubature(lambda p: self.f(p[0]), line) == \
            integrate_weighted(self.f, gauss_hermite_rule(3))

    def test_integrate_whole_line(self):
        rule = gauss_hermite_rule(5)
        g = lambda y: self.f(y) * math.exp(-y * y / 2) if abs(y) < 2.5 else 0.0
        want = _exact_sum(rule.whole_line_weights, map(g, rule.nodes))
        assert abs(want) < Fraction(1e308)
        assert _ulps(integrate_whole_line(g, rule), want) <= 4  # the terms cancel

    def test_sum_past_double_range_is_a_signed_inf(self):
        # whole-line 3-point: 1.5e308 (1.67 - 2 * 1.87) is past -2^1024
        rule = gauss_hermite_rule(3)
        assert _exact_sum(rule.whole_line_weights, map(self.f, rule.nodes)) < -Fraction(2) ** 1024
        assert integrate_whole_line(self.f, rule) == -math.inf
        assert integrate_weighted(lambda y: 1.7e308, rule) == math.inf
        assert integrate_cubature(lambda p: -1.7e308, tensor_cubature(2, 2)) == -math.inf

    def test_finite_result_whose_sum_overflows_is_not_retried(self):
        calls = []

        def contract(values):
            calls.append(values)
            return np.array([1e308, 1e308]) * values[0]

        result, shift = quadrature._guarded(contract, np.array([1.0]))
        assert (result.tolist(), shift, len(calls)) == ([1e308, 1e308], 0, 1)
        calls.clear()
        result, shift = quadrature._guarded(contract, np.array([4.0]))
        assert (result.tolist(), shift, len(calls)) == ([0.5e308, 0.5e308], 3, 2)


def _rows(rule):
    # the cubature points, as integration builds them for f, as lists
    return np.concatenate(list(rule._blocks())).tolist()


class TestCubature:
    def test_dimension_one_matches_base_rule(self):
        base = gauss_hermite_rule(2)
        cube = tensor_cubature(1, 2)
        assert np.allclose(_rows(cube), base.nodes[:, None])
        assert np.allclose(cube.weights, base.weights)

    def test_two_by_two(self):
        cube = tensor_cubature(2, 2)
        points = np.array(_rows(cube))
        assert points.shape == (4, 2)
        assert np.allclose(sorted(np.abs(points).ravel()), np.ones(8))
        assert float(np.sum(cube.weights)) == pytest.approx(2 * math.pi, rel=1e-13)

    def test_product_of_second_moments(self):
        cube = tensor_cubature(2, 3)
        value = integrate_cubature(lambda p: p[0] ** 2 * p[1] ** 2, cube)
        assert value == pytest.approx(2 * math.pi, rel=1e-12)

    def test_weight_normalization_three_dimensions(self):
        cube = tensor_cubature(3, 4)
        total = float(np.sum(cube.weights))
        assert abs(total - (2 * math.pi) ** 1.5) <= 1e-10 * (2 * math.pi) ** 1.5

    def test_matches_iterated_one_dimensional_integrals(self):
        # brute-force oracle: a separable integrand is a product of 1-d results
        rule = gauss_hermite_rule(4)
        one_dim = integrate_weighted(lambda x: x**2 + 1.0, rule)
        cube = tensor_cubature(2, 4)
        sep = integrate_cubature(lambda p: (p[0] ** 2 + 1.0) * (p[1] ** 2 + 1.0), cube)
        assert sep == pytest.approx(one_dim**2, rel=1e-12)

    @pytest.mark.parametrize("d, N", [(1, 3), (2, 4), (3, 5), (4, 3)])
    def test_points_in_product_order(self, d, N):
        # the last axis varies fastest, as in itertools.product, and the
        # weights follow the same order
        base = gauss_hermite_rule(N)
        cube = tensor_cubature(d, N)
        assert _rows(cube) == [list(p) for p in itertools.product(base.nodes, repeat=d)]
        products = [math.prod(w) for w in itertools.product(base.weights, repeat=d)]
        assert cube.weights == pytest.approx(products, rel=1e-15)

    def test_point_budget_enforced(self):
        with pytest.raises(ValueError, match="budget"):
            tensor_cubature(4, 100)
        # 10**7 points is the budget itself: accepted; 11**7 is refused
        assert tensor_cubature(7, 10).weights.size == quadrature.CUBATURE_POINT_BUDGET == 10**7
        with pytest.raises(ValueError, match="needs 19487171 points, above the budget of 10000000$"):
            tensor_cubature(7, 11)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_order_checked_before_the_budget(self, d):
        # (-100)**4 is 1e8 points; the order is refused first, as the 1-d rule refuses it
        with pytest.raises(ValueError, match="^quadrature order must be a positive integer, got -100"):
            tensor_cubature(d, -100)
        with pytest.raises(ValueError, match="^quadrature order 201 exceeds the supported maximum"):
            tensor_cubature(d, 201)

    def test_dimension_past_numpy_axes_is_refused(self):
        # only N = 1 passes the point budget at d > 32; np.meshgrid takes at most 32 axes
        total = integrate_cubature(lambda p: 1.0, tensor_cubature(32, 1))
        assert total == pytest.approx((2 * math.pi) ** 16, rel=1e-14)
        for d in (33, 65):
            with pytest.raises(ValueError, match=f"^dimension must be 1\\.\\.32, got {d}$"):
                tensor_cubature(d, 1)
        with pytest.raises(ValueError, match="^cubature of order 2 in dimension 33 needs"):
            tensor_cubature(33, 2)

    @pytest.mark.parametrize("d", [33, 64, 65, 1000])
    def test_dimension_bound_comes_after_the_budget(self, d):
        # 64 was the last dimension the outer product built, 65 the first it could not
        with pytest.raises(ValueError, match=f"^dimension must be 1\\.\\.32, got {d}$"):
            tensor_cubature(d, 1)
        with pytest.raises(ValueError, match=f"^cubature of order 2 in dimension {d} needs {2**d} points"):
            tensor_cubature(d, 2)

    def test_rule_shares_the_one_dimensional_nodes(self):
        assert tensor_cubature(3, 6).nodes is gauss_hermite_rule(6).nodes


def _exact_cubature_sum(rule, values):
    # sum over the grid of v times the exact product of the 1-d weights, one axis at a time
    weights = [Fraction(float(w)) for w in gauss_hermite_rule(rule.order).weights]
    sums = [Fraction(float(v)) for v in np.ravel(values)]
    for _ in range(rule.dimension):
        sums = [sum(map(operator.mul, weights, sums[i:i + rule.order]))
                for i in range(0, len(sums), rule.order)]
    return sums[0]


class TestSeparableContraction:
    """A cubature sum is contracted one axis at a time with the shared 1-d weights,
    whose order**dimension product nothing in src/ builds."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_no_product_weights_are_built(self, d, monkeypatch):
        def refuse(rule):
            raise AssertionError("the product weights were built")

        monkeypatch.setattr(quadrature.CubatureRule, "weights", property(refuse))
        rule = tensor_cubature(d, 5)
        f = lambda p: float(p @ p) + 1.0
        assert quadrature.integrand_values(f, rule).shape == (5**d,)
        assert integrate_weighted(f, rule) == pytest.approx((d + 1) * (2 * math.pi) ** (d / 2),
                                                            rel=1e-13)
        if d <= 3:   # the chaos expansion's largest dimension
            tensors = wce_coeffs_multi(f, d, 2).tensors
            assert tensors[0] == pytest.approx(d + 1.0, rel=1e-13)

    def test_the_rule_allocates_nothing(self):
        gauss_hermite_rule(56)
        tracemalloc.start()
        try:
            tensor_cubature(4, 56)   # 9 834 496 points
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**12

    @pytest.mark.parametrize("low, high, bound", [(-1.0, 1.0, 1), (0.5, 1.5, 2)])
    def test_within_ulps_of_the_exact_sum(self, low, high, bound):
        # error in ulps of sum |w f| against the exact sum over exact products of the 1-d
        # weights.  Values of both signs stay within 1 ulp (0.77 at most over 90 draws).
        # Values of one sign have no cancellation to hide the d rounded dots of Q terms:
        # 1.8 ulps at most over 90 draws, where the flat sum over the rounded product
        # weights reached 2.3
        rule, rng = tensor_cubature(3, 12), np.random.default_rng(26)
        for _ in range(10):
            values = rng.uniform(low, high, 12**3)
            got = integrate_weighted(lambda p, it=iter(values.tolist()): next(it), rule)
            exact = _exact_cubature_sum(rule, values)
            scale = Fraction(math.ulp(float(_exact_cubature_sum(rule, np.abs(values)))))
            assert abs(Fraction(got) - exact) / scale <= bound


class TestIntegrandValues:
    """Each value is taken as float(v - 0.0): a real number, a bool or np.bool_ indicator
    among them, gives the bits float(v) gives, and anything else is refused by its type."""

    @pytest.mark.parametrize("value, name", [
        ("1.0", "str"), (Decimal("1.0"), "decimal.Decimal"), (1j, "complex"),
        (1.0 + 0j, "complex"), (None, "NoneType"), ([1.0], "list"),
        (np.array([1.0]), "numpy.ndarray")])
    def test_non_real_values_are_refused_by_type(self, value, name):
        message = rf"^integrand value must be a real number, got {name}$"
        for integrate, rule in [(integrate_weighted, gauss_hermite_rule(4)),
                                (integrate_whole_line, gauss_hermite_rule(4)),
                                (integrate_cubature, tensor_cubature(2, 3))]:
            with pytest.raises(TypeError, match=message):
                integrate(lambda x: value, rule)

    @pytest.mark.parametrize("value", [
        1, -3, 2**60 + 1, 0.1, -0.0, 0.0, math.tau, Fraction(1, 3), np.float32(0.1),
        np.float64(-0.0), np.int64(-7), np.uint64(2**64 - 1), np.longdouble(1) / 3,
        mpmath.mpf(2) / 3, np.array(0.25)])
    def test_real_values_keep_their_bits(self, value):
        rule = gauss_hermite_rule(3)
        got = quadrature.integrand_values(lambda x: value, rule)
        assert got.tobytes() == np.full(3, float(value)).tobytes()

    def test_indicators_integrate(self):
        rule, cubature = gauss_hermite_rule(5), tensor_cubature(2, 4)
        half = integrate_weighted(lambda x: float(x > 0), rule)
        assert integrate_weighted(lambda x: x > 0, rule) == half  # np.bool_
        assert integrate_weighted(lambda x: bool(x > 0), rule) == half
        quarter = integrate_cubature(lambda p: float(p[0] > 0 and p[1] > 0), cubature)
        assert integrate_cubature(lambda p: (p[0] > 0) & (p[1] > 0), cubature) == quarter
        assert integrate_cubature(lambda p: bool(p[0] > 0 and p[1] > 0), cubature) == quarter
        assert quarter == pytest.approx(SQRT_TWO_PI**2 / 4, rel=1e-15)

    def test_a_type_error_inside_the_integrand_is_not_replaced(self):
        def f(x):
            raise TypeError("from the integrand")

        with pytest.raises(TypeError, match="^from the integrand$"):
            integrate_weighted(f, gauss_hermite_rule(3))


class TestStreamedPoints:
    """integrand_values builds the points block by block from the 1-d nodes;
    (4, 12) has 20 736 points, more than one block."""

    @pytest.mark.parametrize("d, N", [(1, 5), (3, 4), (4, 12)])
    def test_rows_in_product_order(self, d, N):
        rule = tensor_cubature(d, N)
        rows = []

        def f(p):
            assert isinstance(p, np.ndarray) and p.shape == (d,) and p.dtype == np.float64
            rows.append(p.copy())
            return p[0] * p[-1] ** 2 + math.sin(p[-1]) + 1.0

        value = integrate_cubature(f, rule)
        assert [r.tolist() for r in rows] == [list(p) for p in
                                              itertools.product(rule.nodes, repeat=d)]
        # the same values, contracted one axis at a time with the 1-d weights, last axis first
        points = itertools.product(rule.nodes, repeat=d)
        contracted = np.reshape([f(np.array(p)) for p in points], (N,) * d)
        for _ in range(d):
            contracted = contracted @ gauss_hermite_rule(N).weights
        assert value == float(contracted)

    def test_first_non_finite_value_stops_evaluation(self):
        rule = tensor_cubature(4, 12)
        calls = 0

        def f(p):
            nonlocal calls
            calls += 1
            return math.inf if calls == 20001 else 1.0

        with pytest.raises(ValueError, match=r"non-finite value inf at point index 20000$"):
            integrate_cubature(f, rule)
        assert calls == 20001

    def test_an_integrand_that_writes_into_its_row_changes_nothing(self):
        rule = tensor_cubature(4, 12)
        f = lambda p: float(p @ p)
        first = integrate_cubature(f, rule)

        def overwrite(p):
            value = f(p)
            p[:] = 1e6
            return value

        assert integrate_cubature(overwrite, rule) == first
        assert integrate_cubature(f, rule) == first
        assert _rows(rule) == [list(p) for p in itertools.product(rule.nodes, repeat=4)]

    def test_peak_memory_is_a_small_multiple_of_the_weights(self):
        # values and one block: neither the points array nor the product weights are built
        gauss_hermite_rule(16)
        tracemalloc.start()
        try:
            integrate_cubature(lambda p: p[0] * p[1] + p[3] ** 4, tensor_cubature(4, 16))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 16**4 * 8
