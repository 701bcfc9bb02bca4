"""Command-line interface: outputs, formats, exit codes, determinism."""

import argparse
import contextlib
import functools
import io
import itertools
import json
import math
import os
import pathlib
import subprocess
import sys
import time
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hermite_kit
from hermite_kit import cli, graphs, partite_closed_form
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

    def test_readme_output(self, capsys):
        # the block README.md documents, which CI compares with the installed script
        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("`hermite-kit quad --n 3` prints", 1)[1].split("```text\n", 1)[1]
        assert run_cli(capsys, "quad", "--n", "3") == (0, block.split("```", 1)[0], "")

    def test_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "quad", "--n", "0")
        assert code == 2 and "error" in err

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

    def test_samples_cap(self, capsys):
        # refused before the grid is built, whose list of 10**11 samples would exhaust memory
        code, out, err = run_cli(
            capsys, "plotdata", "--kind", "poly", "--n", "5",
            "--xmin", "0", "--xmax", "1", "--samples", "1000001",
        )
        assert (code, out) == (2, "")
        assert err == "error: --samples is capped at 1000000, got 1000001\n"

    @pytest.mark.parametrize("samples", ["100000000000", "1" + "0" * 30])
    def test_samples_far_past_the_cap_are_refused_at_once(self, capsys, samples):
        # 10**11 samples ran until killed before the cap
        code, out, err = run_cli(
            capsys, "plotdata", "--kind", "poly", "--n", "5",
            "--xmin", "0", "--xmax", "1", "--samples", samples,
        )
        assert (code, out, err) == (2, "", f"error: --samples is capped at 1000000, got {samples}\n")

    @pytest.mark.parametrize("bounds, samples, message", [
        (("2", "1"), "100000000000", "empty range [2.0, 1.0]"),
        (("0", "1"), "1", "--samples must be at least 2"),
    ])
    def test_earlier_refusals_keep_their_wording(self, capsys, bounds, samples, message):
        code, out, err = run_cli(
            capsys, "plotdata", "--kind", "poly", "--n", "5",
            "--xmin", bounds[0], "--xmax", bounds[1], "--samples", samples,
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv, message", [
        (("--kind", "poly", "--n", "10000000", "--samples", "2"),
         "10000001 terms times --samples 2 is 20000002, capped at 10000000"),
        (("--kind", "function", "--n", "200", "--samples", "300000"),
         "201 terms times --samples 300000 is 60300000, capped at 10000000"),
        (("--kind", "series", "--coeffs", ",".join("1" * 11), "--samples", "1000000"),
         "11 terms times --samples 1000000 is 11000000, capped at 10000000"),
    ])
    def test_terms_times_samples_cap(self, capsys, monkeypatch, argv, message):
        # refused before the grid: --n 10**7 at 2 samples took 3.4 s, --n 200 at
        # 300000 samples 11 s, and each sample sums every term
        monkeypatch.setattr(cli, "_grid", None)
        assert run_cli(capsys, "plotdata", *argv, "--xmin", "0", "--xmax", "1") == \
            (2, "", f"error: {message}\n")

    def test_at_the_terms_cap_is_sampled(self, capsys, monkeypatch):
        # 10**7 terms to sum is the cap itself; a stand-in evaluator keeps the test small
        monkeypatch.setattr(hermite_kit, "eval_hermite", lambda n, x, family: float(n))
        code, out, err = run_cli(capsys, "plotdata", "--kind", "poly", "--n", "4999999",
                                 "--xmin", "0", "--xmax", "1", "--samples", "2")
        assert (code, out, err) == (0, "x\tvalue\n0\t4999999\n1\t4999999\n", "")

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


def _edge_list(graph):
    # the edge-list format: the vertex count, then each edge u < v, in ascending order
    return "".join([f"{graph.vertex_count}\n", *(f"{u} {v}\n" for u, v in sorted(graph.edges))])


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

    @pytest.mark.parametrize("argv", [("graph", "matches", "--file"),
                                      ("expand", "gram-charlier", "--x", "0", "--moments-csv")])
    def test_a_file_that_is_not_utf8_is_exit_3(self, capsys, tmp_path, argv):
        # a decode error is a ValueError, but the file cannot be read: exit 3, naming it
        path = tmp_path / "input.txt"
        path.write_bytes(b"2\n1 \xff2\n")
        code, out, err = run_cli(capsys, *argv, str(path))
        assert (code, out) == (3, "")
        assert err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xff")

    def test_single_vertex_file(self, capsys, tmp_path):
        # one vertex is a graph (match polynomial x); zero vertices is a malformed file
        for text, want in (("1", (0, "0,1\n")), ("0", (3, ""))):
            path = tmp_path / "g.txt"
            path.write_text(text, encoding="utf-8")
            code, out, _ = run_cli(capsys, "graph", "match-poly", "--file", str(path))
            assert (code, out) == want

    @pytest.mark.parametrize("command", ["match-poly", "matches"])
    def test_vertex_cap_refuses_before_any_allocation(self, capsys, tmp_path, command):
        # match-poly once built its coefficient list first: OverflowError, exit 1
        path = tmp_path / "huge.txt"
        path.write_text("99999999999999999999\n", encoding="utf-8")
        assert run_cli(capsys, "graph", command, "--file", str(path)) == (
            2, "", "error: graph has 99999999999999999999 vertices; "
                   "match counting is guarded at 24 (exponential beyond)\n")

    def test_kpartite_emits_edge_list(self, capsys):
        code, out, _ = run_cli(capsys, "graph", "kpartite", "--parts", "2,2")
        assert code == 0
        assert out == "4\n1 3\n1 4\n2 3\n2 4\n"

    @pytest.mark.parametrize("parts, message", [
        ("1000,1001", "--parts makes 1001000 edges, capped at 1000000"),
        ("1,1000,1000", "--parts makes 1002000 edges, capped at 1000000"),
        ("10000,10000", "--parts makes 100000000 edges, capped at 1000000"),
        # the part sizes are checked first
        ("-1,2000,2000", "part size must be a nonnegative integer, got -1"),
        (",", "graph needs at least one vertex"),
    ])
    def test_kpartite_refusals(self, capsys, parts, message):
        # refused before any edge is built: 2000,2000 took 20 s and 837 MB
        assert run_cli(capsys, "graph", "kpartite", f"--parts={parts}") == \
            (2, "", f"error: {message}\n")

    def test_kpartite_at_the_edge_cap_is_built(self, capsys, monkeypatch):
        # 10**6 edges is the cap itself; stand-in edges keep the test small
        calls, edges = [], graphs._kpartite_edges
        monkeypatch.setattr(graphs, "_kpartite_edges",
                            lambda sizes: calls.append(sizes) or edges([1, 1]))
        assert run_cli(capsys, "graph", "kpartite", "--parts", "1000,1000") == \
            (0, "2000\n1 2\n", "")
        assert calls == [[1000, 1000]]

    @pytest.mark.parametrize("parts, count", [("1" + "0" * 21, "1" + "0" * 21),
                                              ("0,0," + "7" * 4000, "7" * 4000), ("0,5,0", "5")],
                             ids=["10**21", "0,0,4000 digits", "0,5,0"])
    def test_kpartite_of_one_nonempty_part_prints_the_vertex_count_at_once(self, capsys, parts,
                                                                           count):
        # no edges, so the edge cap passes; the one part is not walked vertex by vertex
        start = time.perf_counter()
        result = run_cli(capsys, "graph", "kpartite", "--parts", parts)
        assert time.perf_counter() - start < 1.0
        assert result == (0, f"{count}\n", "")

    @pytest.mark.parametrize("parts", ["2,2", "3", "0,3", "1,2,3", "3,0,1,2"])
    def test_kpartite_writes_the_graphs_edge_list(self, capsys, parts):
        # the edges as they are generated are the graph's sorted edges, byte for byte
        graph = graphs.complete_kpartite([int(s) for s in parts.split(",")])
        assert run_cli(capsys, "graph", "kpartite", "--parts", parts) == (0, _edge_list(graph), "")

    @pytest.mark.parametrize("parts, message", [
        ("0,0,50001", "--parts sums to 50001, capped at 50000 for three or fewer parts"),
        ("501,500,500,500", "--parts sums to 2001, capped at 2000 for four or more parts"),
        # the part sizes are checked first
        ("-1,60000", "part size must be a nonnegative integer, got -1"),
    ])
    def test_product_integral_refusals(self, capsys, monkeypatch, parts, message):
        # refused before any count: 4 x 2500 took 16 s, 4 x 25000 passed 1.2 GB
        monkeypatch.setattr(hermite_kit, "count_complete_matches", None)
        assert run_cli(capsys, "graph", "product-integral", f"--parts={parts}") == \
            (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("parts", ["0,0,50000", "500,500,500,500"])
    def test_product_integral_at_the_caps_is_counted(self, capsys, parts):
        code, out, err = run_cli(
            capsys, "graph", "product-integral", f"--parts={parts}", "--format", "csv")
        assert (code, err) == (0, "")
        count = graphs.count_complete_matches([int(s) for s in parts.split(",")])
        assert out.splitlines()[1].split(",")[1] == str(count)

    @pytest.mark.parametrize("m, n, message", [
        ("3001", "3000", "--m + --n is 6001, capped at 6000"),
        ("0", "6001", "--m + --n is 6001, capped at 6000"),
        # the orders are checked first
        ("-1", "7000", "order must be a nonnegative integer, got -1"),
    ])
    def test_linearize_refusals(self, capsys, monkeypatch, m, n, message):
        # refused before any coefficient: 5000 and 5000 took 12 s and printed 49 MB
        monkeypatch.setattr(hermite_kit, "linearization_coeffs", None)
        assert run_cli(capsys, "graph", "linearize", "--m", m, "--n", n) == \
            (2, "", f"error: {message}\n")

    def test_linearize_at_the_cap(self, capsys):
        assert run_cli(capsys, "graph", "linearize", "--m", "0", "--n", "6000") == \
            (0, '{"6000":1}\n', "")

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
        monkeypatch.setattr(hermite_kit, "count_complete_matches",
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


class TestEdgeListFormat:
    # graph matches reads the file; a malformed one exits 3 naming its 1-based line
    def run(self, capsys, tmp_path, text):
        path = tmp_path / "g.txt"
        path.write_text(text, encoding="utf-8")
        return run_cli(capsys, "graph", "matches", "--file", str(path))

    def refused(self, capsys, tmp_path, text, message):
        assert self.run(capsys, tmp_path, text) == (3, "", f"error: {message}\n")

    @pytest.mark.parametrize("parts", ["2,1,1", "3,0,2", "1,1,1,1,1"])
    def test_round_trip(self, capsys, tmp_path, parts):
        # graph kpartite writes the format graph matches reads
        code, text, _ = run_cli(capsys, "graph", "kpartite", "--parts", parts)
        counts = hermite_kit.match_count_table(
            hermite_kit.complete_kpartite([int(s) for s in parts.split(",")]))
        assert code == 0 and self.run(capsys, tmp_path, text) == \
            (0, "j,count\n" + "".join(f"{j},{c}\n" for j, c in enumerate(counts)), "")

    def test_duplicate_edge_reports_line(self, capsys, tmp_path):
        self.refused(capsys, tmp_path, "3\n1 2\n2 1\n", "line 3: duplicate edge (2, 1)")
        # blank lines are skipped but counted
        self.refused(capsys, tmp_path, "\n3\n\n1 2\n 1  2 \n", "line 5: duplicate edge (1, 2)")

    def test_loop_reports_line(self, capsys, tmp_path):
        self.refused(capsys, tmp_path, "3\n2 2\n", "line 2: loop edge (2, 2) not allowed")

    def test_vertex_out_of_range(self, capsys, tmp_path):
        self.refused(capsys, tmp_path, "3\n1 4\n", "line 2: vertex outside 1..3 in (1, 4)")
        self.refused(capsys, tmp_path, "3\n0 1\n", "line 2: vertex outside 1..3 in (0, 1)")

    def test_malformed_tokens(self, capsys, tmp_path):
        self.refused(capsys, tmp_path, "three\n1 2\n",
                     "line 1: expected the vertex count, got 'three'")
        self.refused(capsys, tmp_path, "3\n1 2 3\n", "line 2: expected 'u v', got '1 2 3'")
        self.refused(capsys, tmp_path, "3\n1 x\n", "line 2: non-integer vertex in '1 x'")

    def test_empty_file(self, capsys, tmp_path):
        self.refused(capsys, tmp_path, "\n\n", "line 1: empty graph file")
        self.refused(capsys, tmp_path, "", "line 1: empty graph file")

    def test_single_vertex_file(self, capsys, tmp_path):
        assert self.run(capsys, tmp_path, "1\n") == (0, "j,count\n0,1\n", "")
        self.refused(capsys, tmp_path, "0\n", "line 1: vertex count must be positive, got 0")


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

    @pytest.mark.parametrize("kmax, first", [("12", "-12.0"), ("1e306", "-1e+306"),
                                             ("-1e308", "1e+308")])
    def test_fourier_check_refuses_kmax_past_the_band(self, capsys, kmax, first):
        # the grid's first point, -kmax, is past the default rule's band
        code, out, err = run_cli(capsys, "expand", "fourier-check", "--n", "3", f"--kmax={kmax}")
        assert (code, out) == (2, "")
        assert err == f"error: k must be in [-11, 11] on the default rule, got {first}\n"

    def test_moments_file_names_the_line(self, capsys, tmp_path):
        path = tmp_path / "moments.csv"
        path.write_text("0.0\n1.0\ninf\n3.0\n", encoding="utf-8")
        code, out, err = run_cli(
            capsys, "expand", "gram-charlier", "--moments-csv", str(path), "--x", "0"
        )
        assert (code, out) == (3, "")
        assert "line 3" in err


# each real flag, and a --moments-csv line, at a fraction: its id names the slot
_FRACTION_FLAGS = {
    "gram-charlier --x": (("expand", "gram-charlier", "--x={}"), "1/2"),
    "gram-charlier --mu": (("expand", "gram-charlier", "--x=0", "--mu={}"), "1/2"),
    "gram-charlier --sigma": (("expand", "gram-charlier", "--x=0", "--sigma={}"), "3/2"),
    "gram-charlier --nu3": (("expand", "gram-charlier", "--x=0", "--nu3={}"), "1/2"),
    "gram-charlier --nu4": (("expand", "gram-charlier", "--x=0", "--nu4={}"), "3/2"),
    "gram-charlier --moments-csv": (("expand", "gram-charlier", "--moments-csv={}", "--x=0.5"),
                                    "1/2"),
    "fourier-hermite --mu": (("expand", "fourier-hermite", "--mu={}", "--order=4"), "1/2"),
    "deconvolve --sigma": (("expand", "deconvolve", "--coeffs=0,0,1", "--sigma={}"), "1/2"),
    "fourier-check --kmax": (("expand", "fourier-check", "--n=3", "--kmax={}"), "3/2"),
    "plotdata --xmin": (("plotdata", "--kind=poly", "--n=2", "--xmin={}", "--xmax=2",
                         "--samples=3"), "1/2"),
    "plotdata --xmax": (("plotdata", "--kind=poly", "--n=2", "--xmin=0", "--xmax={}",
                         "--samples=3"), "1/2"),
    "plotdata --coeffs": (("plotdata", "--kind=series", "--coeffs=1,{}", "--xmin=0", "--xmax=1",
                           "--samples=3"), "1/2"),
}


def _with_value(argv, value, tmp_path):
    # argv with its {} slot at value; a --moments-csv slot names a file whose third line it is
    if any(arg.startswith("--moments-csv") for arg in argv):
        (path := tmp_path / "moments.csv").write_text(f"0\n1\n{value}\n3\n", encoding="utf-8")
        value = str(path)
    return [arg.replace("{}", value) for arg in argv]


def _refusal(argv, token, tmp_path):
    # the one refusal text: argparse names the flag, a file its line, --coeffs neither
    flag = next(arg for arg in argv if "{}" in arg).split("=")[0]
    if flag == "--moments-csv":
        return 3, f"error: {tmp_path / 'moments.csv'}: line 3: expected a finite number, " \
                  f"got {token!r}\n"
    if flag == "--coeffs":
        return 2, f"error: expected a finite number, got {token!r}\n"
    return 2, f"argument {flag}: expected a finite number, got {token!r}\n"


def _run_or_exit(capsys, argv):
    # run_cli, with argparse's refusals as their exit code and output
    try:
        return run_cli(capsys, *argv)
    except SystemExit as exc:
        return exc.code, *capsys.readouterr()


class TestNumbers:
    """One reader takes every real token: a Fraction, exact for the --coeffs of wce and
    deconvolve and rounded once to a finite float everywhere else."""

    @settings(max_examples=2000, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(0.0)
    @example(-0.0)
    @example(5e-324)
    @example(-5e-324)
    @example(2.225073858507201e-308)   # the largest subnormal
    @example(2.2250738585072014e-308)  # the smallest normal
    @example(1.7976931348623157e308)
    def test_every_double_is_read_bit_for_bit(self, x):
        # float(Fraction(t)) and float(t) are both correctly rounded, and the sign of a zero
        # comes from the text; repr reads back as x, and shorter forms as float() reads them
        # (1.798e+308 is past double range, so refused)
        assert cli._number(repr(x)).hex() == x.hex()
        for text in (format(x, ".17g"), format(x, ".3e"), f" {x!r}\n"):
            if math.isfinite(float(text)):
                assert cli._number(text).hex() == float(text).hex(), text
            else:
                with pytest.raises(argparse.ArgumentTypeError, match="expected a finite number"):
                    cli._number(text)

    @pytest.mark.parametrize("text, want", [
        ("-0", "-0x0.0p+0"), ("-0.0", "-0x0.0p+0"), ("0.0", "0x0.0p+0"), ("+0", "0x0.0p+0"),
        ("-1e-400", "-0x0.0p+0"), ("1e-400", "0x0.0p+0"), ("-0/7", "-0x0.0p+0"),
        ("1/3", (1 / 3).hex()), ("1_000.5", "0x1.f440000000000p+9"),
        ("1.7976931348623158e308", "0x1.fffffffffffffp+1023"),  # rounds down, not to inf
    ])
    def test_a_float_token_is_rounded_once(self, text, want):
        assert cli._number(text).hex() == want

    def test_coefficient_tokens_are_exact(self):
        assert cli._number("1/3", exact=True) == Fraction(1, 3)
        assert cli._number("0.1", exact=True) == Fraction(1, 10)
        assert cli._number("1e400", exact=True) == 10**400  # exact, so past double range

    @pytest.mark.parametrize("slot", sorted(_FRACTION_FLAGS))
    def test_every_real_flag_takes_a_fraction(self, capsys, tmp_path, slot):
        # a/b reads as the decimal of the same number, bit for bit in the output
        argv, value = _FRACTION_FLAGS[slot]
        want = run_cli(capsys, *_with_value(argv, str(float(Fraction(value))), tmp_path))
        assert want[0] == 0
        assert run_cli(capsys, *_with_value(argv, value, tmp_path)) == want

    @pytest.mark.parametrize("slot", sorted(_FRACTION_FLAGS))
    @pytest.mark.parametrize("token", ["1/0", "nan", "inf", "-inf", "1e400", "x", "1e", "1/2/3"])
    def test_every_real_flag_has_one_refusal(self, capsys, tmp_path, slot, token):
        argv = _FRACTION_FLAGS[slot][0]
        code, out, err = _run_or_exit(capsys, _with_value(argv, token, tmp_path))
        want_code, want_err = _refusal(argv, token, tmp_path)
        assert (code, out) == (want_code, "") and err.endswith(want_err), err

    @pytest.mark.parametrize("argv", [("expand", "wce", "--coeffs={}", "--order", "1"),
                                      ("expand", "gram-charlier", "--x={}")])
    def test_a_long_exponent_gets_the_guards_own_message(self, capsys, argv):
        # 5000 digits: int() of them would raise Python's own "Exceeds the limit"
        token = "1e" + "9" * 5000
        result = _run_or_exit(capsys, [arg.replace("{}", token) for arg in argv])
        assert result[:2] == (2, "")
        assert result[2].endswith(f"{token!r} has an exponent beyond 4300\n")
        assert "Exceeds the limit" not in result[2]

    @pytest.mark.parametrize("limit", [0, 640, 100_000])
    def test_the_guard_is_fixed_whatever_the_process_limit(self, limit):
        # the exponent guard and the mantissa's digits take the default 4300, and the
        # process's own limit is restored after
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            with pytest.raises(argparse.ArgumentTypeError, match="has an exponent beyond 4300"):
                cli._number("1e4301")
            assert cli._number("1e4300", exact=True) == 10**4300
            assert cli._number("1" * 4300 + "/3", exact=True).denominator == 3
            with pytest.raises(argparse.ArgumentTypeError, match="expected a finite number"):
                cli._number("1" * 4301, exact=True)
            assert sys.get_int_max_str_digits() == limit
        finally:
            sys.set_int_max_str_digits(old)

    @pytest.mark.parametrize("argv", [("expand", "wce", "--coeffs", "1e99999999", "--order", "1"),
                                      ("expand", "gram-charlier", "--x", "1e99999999")])
    def test_no_process_limit_lets_an_exponent_through(self, argv):
        # PYTHONINTMAXSTRDIGITS=0 lifts Python's own guard: 10**99999999 would take minutes
        env = {**os.environ, "PYTHONINTMAXSTRDIGITS": "0",
               "PYTHONPATH": os.path.dirname(os.path.dirname(hermite_kit.__file__))}
        result = subprocess.run([sys.executable, "-m", "hermite_kit.cli", *argv],
                                capture_output=True, text=True, env=env, timeout=10)
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr.endswith("'1e99999999' has an exponent beyond 4300\n")

    @pytest.mark.parametrize("xmax", ["-0.0", "-0", "-1e-400"])
    def test_a_negative_zero_prints_with_its_sign(self, capsys, xmax):
        argv = ("plotdata", "--kind", "poly", "--n", "0", "--xmin=-1", f"--xmax={xmax}",
                "--samples", "2")
        assert run_cli(capsys, *argv) == (0, "x\tvalue\n-1\t1\n-0\t1\n", "")


_VALUES = ["0", "-1", "1", "2", "3", "7", "50", "1e308", "-1e308", "1e-300", "inf", "-inf",
           "nan", "1/2", "1/0", "1e400", "-0.0"]
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

    def test_unreadable_moments_file_is_exit_3(self, capsys, tmp_path):
        # a missing file and a directory: open() fails, and the refusal names the path
        for path in (tmp_path / "missing.csv", tmp_path):
            code, out, err = run_cli(capsys, "expand", "gram-charlier",
                                     "--moments-csv", str(path), "--x", "0")
            assert (code, out) == (3, "")
            assert err.startswith(f"error: cannot read {path}: "), err

    def test_moments_file_lines_are_the_text_mode_lines(self, capsys, tmp_path):
        # \r\n and \r end a line as \n does; \x1c, a line break to str.splitlines,
        # stays inside its line, so the third line is not a number
        path = tmp_path / "moments.csv"
        argv = ("expand", "gram-charlier", "--moments-csv", str(path), "--x", "0.5")
        results = []
        for text in (b"0\n1\n0.25\n3\n", b"0\r\n1\r0.25\r\n3\r"):
            path.write_bytes(text)
            results.append(run_cli(capsys, *argv))
        assert results[0][0] == 0 and results[1] == results[0]
        path.write_bytes(b"0\n1\n0\x1c3\n")
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == f"error: {path}: line 3: expected a finite number, got '0\\x1c3'\n"


def _moment(k):
    # E[Y^k] for Y ~ N(0, 1): (k-1)!! for even k, 0 for odd
    return 0 if k % 2 else math.prod(range(k - 1, 0, -2))


@functools.cache
def _he(n):
    return hermite_kit.hermite_recurrence(n).coeffs


def _chaos(coeffs, n):
    # b_n = E[He_n(Y) f(Y)] / n! exactly, from the moments and the three-term recurrence
    total = sum(a * c * _moment(i + k) for i, a in enumerate(_he(n)) for k, c in enumerate(coeffs))
    return Fraction(total) / math.factorial(n)


# a coefficient as an integer or a decimal string; past e300 the printed b_n can overflow
_COEFF_TEXT = st.one_of(st.integers(-10**30, 10**30).map(str),
                        st.builds("{}e{}".format, st.integers(-999, 999), st.integers(-330, 300)))


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

    @pytest.mark.parametrize("kmax", ["10", "11"])
    def test_fourier_check_resolves_its_band(self, capsys, kmax):
        # h_3 is an eigenfunction, so the true residual is 0; a 40-point rule aliases --kmax 10
        # to 3.369
        code, out, err = run_cli(capsys, "expand", "fourier-check", "--n", "3", "--kmax", kmax)
        assert (code, err) == (0, "")
        assert float(out) < 1e-13

    def test_fourier_hermite_series(self, capsys):
        code, out, _ = run_cli(
            capsys, "expand", "fourier-hermite", "--mu", "0.5", "--order", "6"
        )
        payload = json.loads(out)
        assert payload["convention"] == "density-weighted"
        assert payload["coeffs"][3] == pytest.approx(0.125 / (6 * SQRT_TWO_PI), rel=1e-10)

    @pytest.mark.parametrize("argv, code, out, err", [
        (("fourier-hermite", "--mu", "1e308", "--order", "3"), 2, "",
         "error: series coefficients must be finite\n"),
    ], ids=["fourier-hermite"])
    def test_overflowing_integrand_leaves_no_runtime_warning(self, capsys, argv, code, out, err):
        # a_2 = mu^2 / (2 sqrt(2 pi)) is past double range: refused, as wce refuses
        # one, without a warning on stderr
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run_cli(capsys, "expand", *argv)
        assert result[:2] == (code, out)
        assert result[2].startswith(err) and "Warning" not in result[2]
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("mu", [0.0, 0.5, -3.0, 7.0, 50.0, 1e-300])
    def test_fourier_hermite_prints_the_generating_function_coefficients(self, capsys, mu):
        # e^(mu x - mu^2/2) = sum He_n(x) mu^n / n!: the N(mu, 1) density has
        # a_n = mu^n / (n! sqrt(2 pi)), each printed within 1 ulp (2^-1074 for a subnormal)
        code, out, _ = run_cli(capsys, "expand", "fourier-hermite", f"--mu={mu!r}",
                               "--order", str(cli.MAX_FOURIER_ORDER))
        got = json.loads(out)["coeffs"]
        assert (code, len(got)) == (0, cli.MAX_FOURIER_ORDER + 1)
        with mpmath.workdps(50):
            want = [mpmath.mpf(mu) ** n / (mpmath.factorial(n) * mpmath.sqrt(2 * mpmath.pi))
                    for n in range(cli.MAX_FOURIER_ORDER + 1)]
            for n, (a, w) in enumerate(zip(got, want)):
                assert abs(a - w) <= max(math.ulp(float(w)), 2.0**-1074), (n, a, float(w))

    @pytest.mark.parametrize("coeffs, order, want", [
        ("0,0,1", 4, [1.0, 0.0, 1.0, 0.0, 0.0]),
        ("1", 180, [1.0] + [0.0] * 180),            # orders past 170, where n! leaves double range
        ("1e308", 180, [1e308] + [0.0] * 180),
        ("1e200", 0, [1e200]),                      # E[f(Y)^2] = 1e400 leaves double range
        ("1e308", 4, [1e308, 0.0, 0.0, 0.0, 0.0]),  # sqrt(2 pi) n! b_n would too
        ("0,1e308", 2, [0.0, 1e308, 0.0]),           # 1e308 y is -inf at the outer nodes
        (",".join(["0"] * 12 + ["1"]), 8, [10395.0, 0.0, 62370.0, 0.0, 51975.0, 0.0, 13860.0,
                                            0.0, 1485.0]),
        (",".join(["0"] * 40 + ["1"]), 0, [3.1983098677287775e+23]),   # E[Y^40] = 39!!
    ], ids=["y^2", "1 order 180", "1e308 order 180", "1e200", "1e308", "1e308 y", "y^12",
            "y^40"])
    def test_wce_prints_the_rounded_exact_coefficients(self, capsys, coeffs, order, want):
        # b_n = E[He_n(Y) f(Y)] / n! is f's He coefficient, rounded once; y^40 at order 0
        # passes degree 4 order + 23, the most a rule of 2 order + 12 points integrates
        code, out, _ = run_cli(capsys, "expand", "wce", f"--coeffs={coeffs}", "--order", str(order))
        assert (code, json.loads(out)) == (0, {"convention": "plain-rv", "coeffs": want})

    @pytest.mark.parametrize("order", ["1", "4", "198"])
    def test_wce_overflowing_coefficient_is_exit_2_without_warning(self, capsys, order):
        # f = 1e308 y^4 has b_0 = 3e308, past double range
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(
                capsys, "expand", "wce", "--coeffs", "0,0,0,0,1e308", "--order", order
            )
        assert (code, out, err) == (2, "", "error: series coefficients must be finite\n")
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @settings(max_examples=80, deadline=None)
    @given(st.lists(_COEFF_TEXT, min_size=1, max_size=cli.MAX_COEFFS_DEGREE + 1),
           st.integers(0, cli.MAX_POLY_N))
    @example(["0"] * 40 + ["1"], 0)
    @example(["7e-3"] * (cli.MAX_COEFFS_DEGREE + 1), cli.MAX_POLY_N)
    @example(["0", "0", "0", "0", "1e308"], 4)
    def test_wce_prints_each_coefficient_correctly_rounded(self, texts, order):
        coeffs = [Fraction(text) for text in texts]
        degree = max((k for k, c in enumerate(coeffs) if c), default=0)
        try:  # past the degree b_n = 0: He_n is orthogonal to every lower degree
            want = [float(_chaos(coeffs, n)) if n <= degree else 0.0 for n in range(order + 1)]
        except OverflowError:  # a printed b_n past double range
            want = None
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["expand", "wce", "--coeffs=" + ",".join(texts), "--order", str(order)])
        if want is None:
            assert (code, out.getvalue(), err.getvalue()) == \
                (2, "", "error: series coefficients must be finite\n")
        else:
            assert (code, json.loads(out.getvalue())) == \
                (0, {"convention": "plain-rv", "coeffs": want})

    @pytest.mark.parametrize("command", [("wce", "--order", "2"), ("deconvolve", "--sigma", "1")])
    def test_coefficients_are_read_as_exact_fractions(self, capsys, command):
        # each --coeffs token is a Fraction: g = 1/3 + x/2 + 2x^2 is 7/3 + He_1 / 2 + 2 He_2,
        # and its deconvolution 1/3 + He_1 / 2 + 2 He_2 = -5/3 + x/2 + 2x^2
        argv = ("expand", command[0], "--coeffs", "1/3,0.5,2", *command[1:])
        assert run_cli(capsys, *argv)[:2] == (0, "-5/3,1/2,2\n" if command[0] == "deconvolve"
                                              else f'{{"convention": "plain-rv", "coeffs": '
                                                   f'[{7 / 3!r}, 0.5, 2.0]}}\n')

    @pytest.mark.parametrize("command", [("wce", "--order", "2"), ("deconvolve", "--sigma", "1")])
    def test_coefficient_refusals(self, capsys, command):
        # Fraction would build 10**exponent: 10**99999999 takes minutes, so it is refused first
        limit = sys.int_info.default_max_str_digits
        for coeffs, message in [
                (f"1E+{limit + 1}", f"'1E+{limit + 1}' has an exponent beyond {limit}"),
                ("0,1e-99999999", f"'1e-99999999' has an exponent beyond {limit}"),
                (" -2.5e9_999_999 ", f"'-2.5e9_999_999' has an exponent beyond {limit}"),
                ("1/0", "expected a finite number, got '1/0'"),
                ("1e", "expected a finite number, got '1e'"),
                ("1,nan", "expected a finite number, got 'nan'"),
                ("-inf", "expected a finite number, got '-inf'")]:
            argv = ("expand", command[0], f"--coeffs={coeffs}", *command[1:])
            assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")

    def test_an_exponent_at_the_digit_guard_is_read(self, capsys):
        limit = sys.int_info.default_max_str_digits
        argv = ("expand", "deconvolve", f"--coeffs=1e{limit},1e-{limit}", "--sigma", "1")
        big = decimal(10**limit)
        assert run_cli(capsys, *argv) == (0, f"{big},1/{big}\n", "")

    @pytest.mark.parametrize("argv, message", [
        # the CLI's cap, where a quadrature rule once set it
        (("fourier-hermite", "--mu", "0", "--order", "150"), "--order is capped at 94, got 150"),
        # the library's own refusal, which names the argument the rule is sized from
        (("fourier-check", "--n", "100"), "n 100 exceeds 95, the default quadrature's limit"),
    ])
    def test_order_limit_names_the_flag(self, capsys, argv, message):
        assert run_cli(capsys, "expand", *argv) == (2, "", f"error: {message}\n")

    def test_quad_order_flag(self, capsys):
        # an order-4 rule would alias the top coefficients of an order-8 series
        with pytest.raises(ValueError, match="quad_order must be at least 10, got 4"):
            hermite_kit.fourier_hermite_coeffs(math.cos, 8, 4)
        # the library's explicit rule still counts: the 18-point rule's residual is not the
        # default 200-point rule's, which the CLI prints
        grid = _grid(-3.0, 3.0, 25)
        residual = {q: hermite_kit.fourier_eigen_check(4, grid, q) for q in (18, None)}
        assert residual[18] != residual[None]
        code, out, _ = run_cli(capsys, "expand", "fourier-check", "--n", "4")
        assert (code, float(out)) == (0, residual[None])

    @pytest.mark.parametrize("argv", [
        ("fourier-hermite", "--mu", "0.5", "--order", "4"),
        ("wce", "--coeffs", "0,0,1", "--order", "4"),
        ("fourier-check", "--n", "4"),
        ("deconvolve", "--coeffs", "0,0,1", "--sigma", "1"),
        ("gram-charlier", "--nu3", "0.5", "--nu4", "3.5", "--x", "0.5"),
    ])
    def test_the_environment_is_not_read(self, capsys, monkeypatch, argv):
        # no rule size is read from anywhere: setting HERMITE_KIT_QUAD_ORDER changes nothing
        plain = run_cli(capsys, "expand", *argv)
        assert plain[0] == 0
        for value in ("0", "4", "201", "not-a-number"):
            monkeypatch.setenv("HERMITE_KIT_QUAD_ORDER", value)
            assert run_cli(capsys, "expand", *argv) == plain

    @pytest.mark.parametrize("argv", [
        ("poly", "--n", "4"),
        ("quad", "--n", "4"),
        ("plotdata", "--kind", "poly", "--xmin", "0", "--xmax", "1", "--samples", "2"),
        ("graph", "linearize", "--m", "1", "--n", "1"),
        ("expand", "fourier-hermite", "--mu", "0.5", "--order", "4"),
        ("expand", "wce", "--coeffs", "0,0,1", "--order", "4"),
        ("expand", "deconvolve", "--coeffs", "0,0,1", "--sigma", "1"),
        ("expand", "gram-charlier", "--x", "0.5"),
        ("expand", "fourier-check", "--n", "4"),
    ])
    def test_every_subcommand_refuses_quad_order(self, capsys, argv):
        # no subcommand takes a rule size: fourier-check runs the library's default rule
        with pytest.raises(SystemExit) as excinfo:  # argparse: unrecognized arguments
            main([*argv, "--quad-order", "20"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --quad-order 20" in capsys.readouterr().err


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

    @pytest.mark.parametrize("fmt, out", [
        ("csv", "0,1/2\n"), ("tsv", "0\t1/2\n"), ("json", '["0", "1/2"]\n')])
    def test_rational_coefficients_print_as_fractions(self, capsys, fmt, out):
        argv = ("expand", "deconvolve", "--coeffs", "0,1/2", "--sigma", "1", "--format", fmt)
        assert run_cli(capsys, *argv) == (0, out, "")

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