"""Command-line interface: outputs, formats, exit codes, determinism."""

import json
import math

import pytest

from hermite_kit import quadrature
from hermite_kit.cli import main

SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        # order-4 quadrature cannot integrate He_8^2 exactly, so the
        # eighth coefficient of a degree-8 input must come out wrong
        code, out, _ = run_cli(capsys, "expand", "wce", "--coeffs", "0,0,0,0,0,0,0,0,1",
                               "--order", "8")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["coeffs"][8] - 1.0) > 1e-3
        monkeypatch.setenv("HERMITE_KIT_QUAD_ORDER", "not-a-number")
        code, _, _ = run_cli(capsys, "expand", "wce", "--coeffs", "0,0,1", "--order", "2")
        assert code == 2


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

    def test_missing_subcommand_is_exit_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_seventeen_digit_floats(self, capsys):
        _, out, _ = run_cli(capsys, "quad", "--n", "1")
        weight = out.strip().splitlines()[1].split(",")[1]
        assert float(weight) == float(format(float(weight), ".17g"))