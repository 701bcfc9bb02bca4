"""Command-line interface: outputs, formats, exit codes, determinism."""

import contextlib
import io
import itertools
import json
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hermite_kit import graphs, partite_closed_form, quadrature
from hermite_kit.cli import _grid, main

SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def decimal(value):
    # str() of an int of any length, the process-wide digit guard restored after
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


class TestPoly:
    def test_he4(self, capsys):
        code, out, _ = run_cli(capsys, "poly", "--n", "4", "--family", "he")
        assert code == 0
        assert out == "3,0,-6,0,1\n"

    def test_h0_and_h3(self, capsys):
        code, out, _ = run_cli(capsys, "poly", "--n", "0", "--family", "h")
        assert (code, out) == (0, "1\n")
        code, out, _ = run_cli(capsys, "poly", "--n", "3", "--family", "h")
        assert (code, out) == (0, "0,-12,0,8\n")

    def test_json_uses_decimal_strings(self, capsys):
        code, out, _ = run_cli(capsys, "poly", "--n", "2", "--format", "json")
        assert code == 0
        assert json.loads(out) == ["-1", "0", "1"]

    def test_large_order_allowed_and_cap(self, capsys):
        code, out, _ = run_cli(capsys, "poly", "--n", "200")
        assert code == 0
        code, _, err = run_cli(capsys, "poly", "--n", "201")
        assert code == 2 and "capped" in err

    def test_bad_family_is_argument_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["poly", "--n", "3", "--family", "legendre"])
        assert excinfo.value.code == 2


class TestQuad:
    def test_single_node(self, capsys):
        code, out, _ = run_cli(capsys, "quad", "--n", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "node,weight"
        node, weight = lines[1].split(",")
        assert float(node) == 0.0
        assert abs(float(weight) - SQRT_TWO_PI) <= 1e-12 * SQRT_TWO_PI

    def test_two_nodes_at_unit(self, capsys):
        _, out, _ = run_cli(capsys, "quad", "--n", "2")
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [float(r[0]) for r in rows] == pytest.approx([-1.0, 1.0], abs=1e-14)

    def test_middle_node_exactly_zero(self, capsys):
        _, out, _ = run_cli(capsys, "quad", "--n", "3")
        rows = out.strip().splitlines()[1:]
        assert rows[1].split(",")[0] == "0"

    def test_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "quad", "--n", "0")
        assert code == 2 and "error" in err

    def test_newton_failure_is_exit_2(self, capsys, monkeypatch):
        # no residual passes a negative tolerance, so every build fails
        monkeypatch.setattr(quadrature, "_NODE_RESIDUAL_TOL", -1.0)
        quadrature._build_rule.cache_clear()
        code, out, err = run_cli(capsys, "quad", "--n", "5")
        assert (code, out) == (2, "")
        assert err.startswith("error: node 0 of the order-5 rule did not converge")

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "quad", "--n", "2", "--format", "json")
        payload = json.loads(out)
        assert set(payload) == {"nodes", "weights"}
        assert len(payload["nodes"]) == 2


class TestPlotdata:
    def test_linear_polynomial(self, capsys):
        code, out, _ = run_cli(
            capsys, "plotdata", "--kind", "poly", "--n", "1",
            "--xmin", "-1", "--xmax", "1", "--samples", "3",
        )
        assert code == 0
        assert out == "x\tvalue\n-1\t-1\n0\t0\n1\t1\n"

    def test_quadratic_values(self, capsys):
        _, out, _ = run_cli(
            capsys, "plotdata", "--kind", "poly", "--n", "2",
            "--xmin", "0", "--xmax", "2", "--samples", "3",
        )
        rows = [line.split("\t") for line in out.strip().splitlines()[1:]]
        assert [float(r[1]) for r in rows] == [-1.0, 0.0, 3.0]

    def test_weighted_function_at_origin(self, capsys):
        _, out, _ = run_cli(
            capsys, "plotdata", "--kind", "function", "--n", "0",
            "--xmin", "0", "--xmax", "0", "--samples", "2",
        )
        rows = [line.split("\t") for line in out.strip().splitlines()[1:]]
        assert all(float(r[1]) == 1.0 for r in rows)

    def test_series_kind(self, capsys):
        code, out, _ = run_cli(
            capsys, "plotdata", "--kind", "series", "--coeffs", "1,0,1",
            "--convention", "plain", "--xmin", "3", "--xmax", "3", "--samples", "2",
        )
        assert code == 0
        rows = [line.split("\t") for line in out.strip().splitlines()[1:]]
        assert float(rows[0][1]) == pytest.approx(9.0, rel=1e-15)

    def test_empty_range_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "plotdata", "--kind", "poly", "--n", "1",
            "--xmin", "2", "--xmax", "1", "--samples", "3",
        )
        assert code == 2 and "empty range" in err

    def test_too_few_samples_rejected(self, capsys):
        code, _, _ = run_cli(
            capsys, "plotdata", "--kind", "poly", "--n", "1",
            "--xmin", "0", "--xmax", "1", "--samples", "1",
        )
        assert code == 2

    def test_series_without_coeffs_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "plotdata", "--kind", "series",
            "--xmin", "0", "--xmax", "1", "--samples", "2",
        )
        assert code == 2 and "coefficient" in err


class TestGrid:
    @settings(max_examples=400, deadline=None)
    @given(lo=st.floats(allow_nan=False, allow_infinity=False),
           hi=st.floats(allow_nan=False, allow_infinity=False),
           samples=st.integers(2, 60))
    @example(lo=0.0, hi=2e-323, samples=10)  # the step underflows to 0
    @example(lo=-0.0, hi=0.0, samples=2)
    @example(lo=-1e308, hi=1e308, samples=3)  # hi - lo overflows
    @example(lo=3.0, hi=-3.0, samples=25)
    def test_matches_numpy_linspace_bitwise(self, lo, hi, samples):
        with np.errstate(all="ignore"):
            if math.isfinite(hi - lo):
                expected = np.linspace(lo, hi, samples)
            else:  # halved ends, exact at that size
                expected = 2.0 * np.linspace(lo / 2.0, hi / 2.0, samples)
        grid = _grid(lo, hi, samples)
        assert all(type(x) is float for x in grid)
        assert np.array(grid).tobytes() == expected.tobytes()


class TestGraph:
    @pytest.fixture
    def c4_file(self, tmp_path):
        path = tmp_path / "c4.txt"
        path.write_text("4\n1 2\n2 3\n3 4\n1 4\n", encoding="utf-8")
        return str(path)

    def test_match_poly(self, capsys, c4_file):
        code, out, _ = run_cli(capsys, "graph", "match-poly", "--file", c4_file)
        assert (code, out) == (0, "2,0,-4,0,1\n")

    def test_matches_table(self, capsys, c4_file):
        _, out, _ = run_cli(capsys, "graph", "matches", "--file", c4_file)
        assert out == "j,count\n0,1\n1,4\n2,2\n"

    def test_matches_single_count(self, capsys, c4_file):
        _, out, _ = run_cli(capsys, "graph", "matches", "--file", c4_file, "--j", "2")
        assert out == "2\n"

    def test_malformed_file_exit_3(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("3\n1 2\n1 2\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "graph", "match-poly", "--file", str(bad))
        assert code == 3
        assert "line 3" in err

    def test_missing_file_exit_3(self, capsys):
        code, _, _ = run_cli(capsys, "graph", "match-poly", "--file", "/nonexistent/g.txt")
        assert code == 3

    def test_single_vertex_file(self, capsys, tmp_path):
        # one vertex is a graph (match polynomial x); zero vertices is a malformed file
        for text, want in (("1", (0, "0,1\n")), ("0", (3, ""))):
            path = tmp_path / "g.txt"
            path.write_text(text, encoding="utf-8")
            code, out, _ = run_cli(capsys, "graph", "match-poly", "--file", str(path))
            assert (code, out) == want

    def test_kpartite_emits_edge_list(self, capsys):
        code, out, _ = run_cli(capsys, "graph", "kpartite", "--parts", "2,2")
        assert code == 0
        assert out == "4\n1 3\n1 4\n2 3\n2 4\n"

    def test_product_integral_value(self, capsys):
        code, out, _ = run_cli(capsys, "graph", "product-integral", "--parts", "1,1,2")
        assert code == 0
        assert float(out) == pytest.approx(2 * SQRT_TWO_PI, rel=1e-15)

    def test_product_integral_table(self, capsys):
        _, out, _ = run_cli(
            capsys, "graph", "product-integral", "--parts", "1,1,2", "--format", "csv"
        )
        lines = out.strip().splitlines()
        assert lines[0] == "parts,P,J"
        parts, p, j = lines[1].split(",")
        assert (parts, p) == ("1 1 2", "2")
        assert float(j) == pytest.approx(2 * SQRT_TWO_PI, rel=1e-15)

    def test_linearize_json(self, capsys):
        code, out, _ = run_cli(capsys, "graph", "linearize", "--m", "2", "--n", "2")
        assert (code, out) == (0, '{"4":1,"2":4,"0":2}\n')

    @pytest.mark.parametrize("fmt", ["plain", "csv", "tsv", "json"])
    def test_product_integral_counts_once(self, capsys, monkeypatch, fmt):
        calls = []
        count = graphs.count_complete_matches
        monkeypatch.setattr(graphs, "count_complete_matches",
                            lambda parts: calls.append(parts) or count(parts))
        code, _, _ = run_cli(
            capsys, "graph", "product-integral", "--parts", "100,100,100,100", "--format", fmt
        )
        assert (code, len(calls)) == (0, 1)


class TestExactIntegerOutput:
    """Exact integers print at any length; parsed input keeps Python's
    default int-to-string digit guard."""

    @pytest.mark.parametrize("fmt", ["plain", "csv", "tsv", "json"])
    def test_product_integral_in_the_thousands(self, capsys, fmt):
        limit = sys.get_int_max_str_digits()
        code, out, err = run_cli(
            capsys, "graph", "product-integral", "--parts", "2000,2000", "--format", fmt
        )
        assert (code, err) == (0, "")
        assert sys.get_int_max_str_digits() == limit
        p = decimal(math.factorial(2000))
        assert len(p) > limit
        if fmt == "plain":
            assert out == "inf\n"
        elif fmt == "json":
            assert out == json.dumps({"parts": [2000, 2000], "P": p, "J": math.inf}) + "\n"
        else:
            sep = "," if fmt == "csv" else "\t"
            rows = [sep.join(("parts", "P", "J")), sep.join(("2000 2000", p, "inf"))]
            assert out.splitlines() == rows

    def test_three_parts_in_the_thousands(self, capsys):
        p = decimal(partite_closed_form([3000, 2999, 2999]))
        for fmt in ("plain", "csv", "tsv", "json"):
            code, out, err = run_cli(
                capsys, "graph", "product-integral", "--parts", "3000,2999,2999", "--format", fmt
            )
            assert (code, err) == (0, "")
            if fmt == "json":
                assert json.loads(out)["P"] == p
            elif fmt != "plain":
                assert out.splitlines()[1].split("," if fmt == "csv" else "\t")[1] == p

    @staticmethod
    def _linearize(capsys, order, fmt):
        code, out, err = run_cli(capsys, "graph", "linearize", "--m", str(order),
                                 "--n", str(order), "--format", fmt)
        assert (code, err) == (0, "")
        if fmt == "json":
            return [tuple(item.split(":")) for item in out.strip()[1:-1].split(",")]
        sep = "," if fmt == "csv" else "\t"
        lines = out.splitlines()
        assert lines[0] == f"l{sep}coefficient"
        return [tuple(line.split(sep)) for line in lines[1:]]

    @staticmethod
    def _coefficient(order, j):
        return decimal(math.comb(order, j) ** 2 * math.factorial(j))

    @pytest.mark.parametrize("fmt", ["csv", "tsv", "json"])
    def test_linearize_past_the_digit_guard(self, capsys, fmt):
        rows = self._linearize(capsys, 1600, fmt)
        quote = '"' if fmt == "json" else ""
        want = [(f"{quote}{3200 - 2 * j}{quote}", self._coefficient(1600, j)) for j in range(1601)]
        assert rows == want
        assert max(len(a) for _, a in want) > sys.get_int_max_str_digits()

    def test_linearize_in_the_thousands(self, capsys):
        rows = self._linearize(capsys, 3000, "json")
        assert [l for l, _ in rows] == [f'"{6000 - 2 * j}"' for j in range(3001)]
        for j in (0, 1, 1000, 2999, 3000):
            assert rows[j][1] == self._coefficient(3000, j)

    def test_long_vertex_token_still_exit_3(self, capsys, tmp_path):
        for text in ("3\n1 " + "2" * 5000 + "\n", "1" * 5000 + "\n1 2\n"):
            path = tmp_path / "long.txt"
            path.write_text(text, encoding="utf-8")
            code, out, _ = run_cli(capsys, "graph", "match-poly", "--file", str(path))
            assert (code, out) == (3, "")


class TestNonFiniteFloats:
    @pytest.mark.parametrize("argv", [
        ("expand", "deconvolve", "--coeffs", "0,0,1", "--sigma", "inf"),
        ("plotdata", "--kind", "poly", "--xmin", "0", "--xmax", "inf", "--samples", "3"),
        ("expand", "gram-charlier", "--x", "inf"),
        ("expand", "gram-charlier", "--x", "0", "--sigma", "nan"),
        ("expand", "gram-charlier", "--x", "0", "--nu3", "inf"),
        ("expand", "fourier-check", "--n", "2", "--kmax", "inf"),
        ("expand", "fourier-hermite", "--mu=-inf"),
    ])
    def test_flag_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(list(argv))
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "expected a finite number" in captured.err

    @pytest.mark.parametrize("argv, expected", [
        (("expand", "gram-charlier", "--mu", "1e308", "--x", "0"), "0\n"),
        (("expand", "gram-charlier", "--x", "1e308"), "0\n"),
        (("expand", "gram-charlier", "--x", "1e308", "--nu4", "1e308"), "0\n"),
        (("plotdata", "--kind", "poly", "--n", "2", "--xmin=-1e308", "--xmax", "1e308",
          "--samples", "3"), "x\tvalue\n-1e+308\tinf\n0\t-1\n1e+308\tinf\n"),
        (("plotdata", "--kind", "series", "--coeffs", "0,0,-1,1", "--convention", "plain",
          "--xmin=-1e308", "--xmax", "1e308", "--samples", "2"),
         "x\tvalue\n-1e+308\t-inf\n1e+308\tinf\n"),
        (("plotdata", "--kind", "series", "--coeffs", "1,2", "--xmin=-1e308", "--xmax", "1e308",
          "--samples", "3"), "x\tvalue\n-1e+308\t0\n0\t1\n1e+308\t0\n"),
    ])
    def test_extreme_finite_flag_prints_the_limit(self, capsys, argv, expected):
        code, out, _ = run_cli(capsys, *argv)
        assert (code, out) == (0, expected)

    @pytest.mark.parametrize("kmax", ["1e308", "-1e308", "5e307"])
    def test_fourier_check_overflow_names_kmax(self, capsys, kmax):
        code, out, err = run_cli(capsys, "expand", "fourier-check", "--n", "3", f"--kmax={kmax}")
        assert (code, out) == (2, "")
        assert err.startswith("error: --kmax ") and "Traceback" not in err

    def test_moments_file_names_the_line(self, capsys, tmp_path):
        path = tmp_path / "moments.csv"
        path.write_text("0.0\n1.0\ninf\n3.0\n", encoding="utf-8")
        code, out, err = run_cli(
            capsys, "expand", "gram-charlier", "--moments-csv", str(path), "--x", "0"
        )
        assert (code, out) == (3, "")
        assert "line 3" in err


_VALUES = ["0", "-1", "1", "2", "3", "7", "50", "1e308", "-1e308", "1e-300", "inf", "-inf",
           "nan", "1/2", "1/0", "1e400"]
_NUMBERS = st.sampled_from(_VALUES)
_LISTS = st.lists(_NUMBERS, min_size=1, max_size=4).map(",".join)
_COMMANDS = {
    ("poly",): ("--n",),
    ("quad",): ("--n",),
    ("plotdata", "--kind", "poly"): ("--n", "--xmin", "--xmax", "--samples"),
    ("plotdata", "--kind", "function"): ("--n", "--xmin", "--xmax", "--samples"),
    ("plotdata", "--kind", "series"): ("--coeffs", "--xmin", "--xmax", "--samples"),
    ("graph", "kpartite"): ("--parts",),
    ("graph", "product-integral"): ("--parts",),
    ("graph", "linearize"): ("--m", "--n"),
    ("expand", "fourier-hermite"): ("--mu", "--order"),
    ("expand", "gram-charlier"): ("--mu", "--sigma", "--nu3", "--nu4", "--order", "--x"),
    ("expand", "wce"): ("--coeffs", "--order"),
    ("expand", "deconvolve"): ("--coeffs", "--sigma"),
    ("expand", "fourier-check"): ("--n", "--kmax"),
}


def assert_exit_code_is_0_2_or_3(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3), argv
    assert code != 0 or "nan" not in out.getvalue().lower(), argv  # no silent nan


class TestFuzz:
    @pytest.mark.parametrize("command", sorted(_COMMANDS), ids=" ".join)
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_exit_code_is_0_2_or_3(self, command, data):
        argv = list(command)
        for flag in _COMMANDS[command]:
            values = _LISTS if flag in ("--coeffs", "--parts") else _NUMBERS
            argv.append(f"{flag}={data.draw(values)}")  # "=" keeps "-1" a value, not a flag
        assert_exit_code_is_0_2_or_3(argv)

    @pytest.mark.parametrize("command", sorted(_COMMANDS), ids=" ".join)
    def test_every_value_in_every_slot(self, command):
        # the other flags at 1; for a list flag the value is a one-item list
        flags = _COMMANDS[command]
        for slot, value in itertools.product(flags, _VALUES):
            argv = [*command, *(f"{flag}={value if flag == slot else 1}" for flag in flags)]
            assert_exit_code_is_0_2_or_3(argv)


_MOMENT_FILES = {
    "gaussian": "0\n1\n0\n3\n",
    "overflowing-odd": "0\n1\n1e308\n3\n-1e308\n",  # E[He_5(Z)] overflows to -inf
    "overflowing-even": "0\n1\n0\n1e308\n0\n1e308\n0\n1\n",  # E[He_8(Z)] is inf - inf
    "extreme-location": "1e308\n1e-300\n1e308\n-1e308\n",
    "long": "0\n1\n" + "0\n" * 170,
    "short": "0\n",
    "not-a-number": "0\n1\nx\n",
}


class TestMomentsFiles:
    @pytest.mark.parametrize("name", sorted(_MOMENT_FILES))
    def test_exit_code_is_0_2_or_3(self, tmp_path, name):
        path = tmp_path / "moments.csv"
        path.write_text(_MOMENT_FILES[name], encoding="utf-8")
        for order, x in itertools.product(["0", "4", "5", "8", "170", "171"], _VALUES):
            assert_exit_code_is_0_2_or_3(["expand", "gram-charlier", f"--moments-csv={path}",
                                          f"--order={order}", f"--x={x}"])

    def test_overflowing_coefficient_is_exit_2(self, capsys, tmp_path):
        path = tmp_path / "moments.csv"
        path.write_text(_MOMENT_FILES["overflowing-odd"], encoding="utf-8")
        result = run_cli(capsys, "expand", "gram-charlier", "--moments-csv", str(path),
                         "--order", "5", "--x", "0.5")
        assert result == (2, "", "error: series coefficients must be finite\n")


class TestExpand:
    def test_deconvolve(self, capsys):
        code, out, _ = run_cli(
            capsys, "expand", "deconvolve", "--coeffs", "0,0,1", "--sigma", "1"
        )
        assert (code, out) == (0, "-1,0,1\n")

    def test_gram_charlier_gaussian_case(self, capsys):
        code, out, _ = run_cli(
            capsys, "expand", "gram-charlier", "--mu", "0", "--sigma", "1",
            "--nu3", "0", "--nu4", "3", "--x", "0",
        )
        assert code == 0
        assert float(out) == pytest.approx(1.0 / SQRT_TWO_PI, rel=1e-16)

    def test_gram_charlier_from_csv(self, capsys, tmp_path):
        path = tmp_path / "moments.csv"
        path.write_text("0.0\n1.0\n0.0\n3.0\n", encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "expand", "gram-charlier", "--moments-csv", str(path), "--x", "0"
        )
        assert code == 0
        assert float(out) == pytest.approx(1.0 / SQRT_TWO_PI, rel=1e-16)

    def test_gram_charlier_invalid_sigma_exit_2(self, capsys):
        code, _, _ = run_cli(
            capsys, "expand", "gram-charlier", "--sigma", "-1", "--x", "0"
        )
        assert code == 2

    def test_fourier_check(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "fourier-check", "--n", "4", "--kmax", "3")
        assert code == 0
        assert float(out) <= 1e-6

    def test_fourier_hermite_series(self, capsys):
        code, out, _ = run_cli(
            capsys, "expand", "fourier-hermite", "--mu", "0.5", "--order", "6"
        )
        payload = json.loads(out)
        assert payload["convention"] == "density-weighted"
        assert payload["coeffs"][3] == pytest.approx(0.125 / (6 * SQRT_TWO_PI), rel=1e-10)

    @pytest.mark.parametrize("argv, code, out, err", [
        (("fourier-hermite", "--mu", "1e308", "--order", "3"), 0,
         '{"convention": "density-weighted", "coeffs": [0.0, 0.0, 0.0, 0.0]}\n',
         "tail indicator |a_N| sqrt(N!) = 0.000e+00\n"),
        (("wce", "--coeffs", "0,1e308", "--order", "2"), 2, "",
         "error: integrand returned non-finite value -inf at node index 0"),
    ], ids=["fourier-hermite", "wce"])
    def test_overflowing_integrand_leaves_no_runtime_warning(self, capsys, argv, code, out, err):
        # the integrands run in plain floats, where (x - mu)^2 and the Horner
        # products overflow to inf without a numpy warning on stderr
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run_cli(capsys, "expand", *argv)
        assert result[:2] == (code, out)
        assert result[2].startswith(err) and "Warning" not in result[2]
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("argv, code", [
        (("wce", "--coeffs", "1", "--order", "180"), 0),
        (("fourier-hermite", "--mu", "0", "--order", "180"), 0),
        (("wce", "--coeffs", "1e308", "--order", "180"), 0),
        (("fourier-hermite", "--mu", "1e308", "--order", "198"), 0),
        (("wce", "--coeffs", "0,0,0,0,1e308", "--order", "198"), 2),
    ])
    def test_orders_past_170(self, capsys, monkeypatch, argv, code):
        # n! leaves double range at n = 171; a 200-point rule serves up to order 198
        monkeypatch.setenv("HERMITE_KIT_QUAD_ORDER", "200")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run_cli(capsys, "expand", *argv)
        assert result[0] == code and "Traceback" not in result[2]
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        if code == 0:
            assert len(json.loads(result[1])["coeffs"]) == int(argv[-1]) + 1

    def test_bad_node_prints_as_a_plain_float(self, capsys):
        code, out, err = run_cli(capsys, "expand", "wce", "--coeffs", "0,1e308", "--order", "2")
        assert (code, out) == (2, "")
        assert "(x=-6.630878198393131)" in err and "np." not in err

    def test_wce_keeps_a_finite_coefficient_of_an_overflowing_square(self, capsys):
        # E[f(Y)^2] = 1e400 leaves double range; b_0 = 1e200 does not
        code, out, _ = run_cli(capsys, "expand", "wce", "--coeffs", "1e200", "--order", "0")
        assert code == 0
        assert json.loads(out)["coeffs"] == [pytest.approx(1e200, rel=1e-15)]

    @pytest.mark.parametrize("order", ["0", "1", "4"])  # the moments reach inf, then inf - inf
    def test_wce_keeps_a_finite_coefficient_of_an_overflowing_moment(self, capsys, order):
        # sqrt(2 pi) n! b_n leaves double range before the division; b_0 = 1e308 does not
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, _ = run_cli(capsys, "expand", "wce", "--coeffs", "1e308", "--order", order)
        assert code == 0
        coeffs = json.loads(out)["coeffs"]
        assert len(coeffs) == int(order) + 1
        assert coeffs[0] == pytest.approx(1e308, rel=1e-14)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("order", ["1", "4"])
    def test_wce_overflowing_coefficient_is_exit_2_without_warning(self, capsys, order):
        # f = 1e308 y^4 has b_0 = 3e308; y^4 already overflows it at the outermost node
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(
                capsys, "expand", "wce", "--coeffs", "0,0,0,0,1e308", "--order", order
            )
        assert (code, out) == (2, "")
        assert err.startswith("error: integrand returned non-finite value inf at node index 0 ")
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_wce_series(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "wce", "--coeffs", "0,0,1", "--order", "4")
        payload = json.loads(out)
        assert payload["convention"] == "plain-rv"
        assert payload["coeffs"][0] == pytest.approx(1.0, rel=1e-12)
        assert payload["coeffs"][2] == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("argv, message", [
        (("fourier-hermite", "--mu", "0", "--order", "150"), "--order 150 exceeds 94"),
        (("wce", "--coeffs", "0,0,1", "--order", "150"), "--order 150 exceeds 94"),
        (("fourier-check", "--n", "100"), "--n 100 exceeds 95"),
    ])
    def test_default_rule_limit_names_the_flag(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "expand", *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {message}, the default quadrature's limit\n"

    def test_quad_order_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("HERMITE_KIT_QUAD_ORDER", "4")
        # an order-4 rule would alias the top coefficients of an order-8 series
        result = run_cli(capsys, "expand", "wce", "--coeffs", "0,0,0,0,0,0,0,0,1", "--order", "8")
        assert result == (2, "", "error: quad_order must be at least 10, got 4\n")
        # the override is honoured: a 10-point rule is exact to degree 19, so He_8 x^12
        # is not integrated exactly and b_8 of x^12 reads 1395; the default rule gives 1485
        x12 = ",".join(["0"] * 12 + ["1"])
        for order, want in (("10", 1395.0), (None, 1485.0)):
            if order is None:
                monkeypatch.delenv("HERMITE_KIT_QUAD_ORDER")
            else:
                monkeypatch.setenv("HERMITE_KIT_QUAD_ORDER", order)
            code, out, _ = run_cli(capsys, "expand", "wce", "--coeffs", x12, "--order", "8")
            assert code == 0
            assert json.loads(out)["coeffs"][8] == pytest.approx(want, rel=1e-12)
        monkeypatch.setenv("HERMITE_KIT_QUAD_ORDER", "not-a-number")
        code, _, _ = run_cli(capsys, "expand", "wce", "--coeffs", "0,0,1", "--order", "2")
        assert code == 2

    def test_quad_order_env_is_read_only_where_a_rule_is_built(self, capsys, monkeypatch):
        exact = [("deconvolve", "--coeffs", "0,0,1", "--sigma", "1"),
                 ("gram-charlier", "--nu3", "0.5", "--nu4", "3.5", "--x", "0.5")]
        plain = [run_cli(capsys, "expand", *argv) for argv in exact]
        assert all(code == 0 for code, _, _ in plain)
        monkeypatch.setenv("HERMITE_KIT_QUAD_ORDER", "0")
        assert [run_cli(capsys, "expand", *argv) for argv in exact] == plain
        result = run_cli(capsys, "expand", "fourier-hermite", "--mu", "0", "--order", "4")
        assert result == (2, "", "error: HERMITE_KIT_QUAD_ORDER must be a positive integer, "
                                 "got 0\n")


class TestHarness:
    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "quad", "--n", "7")
        _, second, _ = run_cli(capsys, "quad", "--n", "7")
        assert first == second
        _, first, _ = run_cli(capsys, "graph", "linearize", "--m", "3", "--n", "4")
        _, second, _ = run_cli(capsys, "graph", "linearize", "--m", "3", "--n", "4")
        assert first == second

    def test_format_flag_accepted_uniformly(self, capsys):
        for fmt in ("csv", "tsv", "json"):
            code, _, _ = run_cli(capsys, "quad", "--n", "3", "--format", fmt)
            assert code == 0
            code, _, _ = run_cli(capsys, "poly", "--n", "3", "--format", fmt)
            assert code == 0

    @pytest.mark.parametrize("argv", [
        ("expand", "fourier-hermite", "--mu", "0", "--order", "2"),
        ("expand", "gram-charlier", "--x", "0"),
        ("expand", "wce", "--coeffs", "1", "--order", "2"),
        ("expand", "fourier-check", "--n", "2"),
    ], ids=lambda argv: argv[1])
    def test_format_is_refused_where_the_output_has_one_form(self, capsys, argv):
        assert run_cli(capsys, *argv)[0] == 0
        with pytest.raises(SystemExit) as excinfo:  # argparse: unrecognized arguments
            main([*argv, "--format", "csv"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --format csv" in capsys.readouterr().err

    def test_deconvolve_keeps_its_format(self, capsys):
        argv = ("expand", "deconvolve", "--coeffs", "0,0,1", "--sigma", "1")
        assert run_cli(capsys, *argv, "--format", "json") == (0, '["-1", "0", "1"]\n', "")
        assert run_cli(capsys, *argv, "--format", "tsv") == (0, "-1\t0\t1\n", "")

    def test_missing_subcommand_is_exit_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_seventeen_digit_floats(self, capsys):
        _, out, _ = run_cli(capsys, "quad", "--n", "1")
        weight = out.strip().splitlines()[1].split(",")[1]
        assert float(weight) == float(format(float(weight), ".17g"))