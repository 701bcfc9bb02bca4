"""Every size limit is named once, and README.md's limits table states each one.

A limit is a module-level name in src/ that starts with MAX_ or ends with
_BUDGET.  Each has a row of the table under "## Size limits", keyed by the
limit as a Python expression, and one row more for each further input that
it caps; a limit derived from one, such as the default rule's, has a row
that states the formula.  A row's value is the limit's, the function it
names reads the constant, and the first input past the limit, built here
from the limit's value, is the row's input and gives the row's refusal: a
ValueError from the library called directly, or exit 2 with that message
and nothing on stdout from the CLI through cli.main in-process.
"""

import ast
import contextlib
import importlib
import inspect
import io
import math
import pathlib
import re
import shlex

import pytest

import hermite_kit
from hermite_kit import cli

README = pathlib.Path(__file__).parents[1] / "README.md"
LIMIT_NAME = re.compile(r"MAX_[A-Z0-9_]+|[A-Z0-9_]+_BUDGET")

# the first input past each limit, built from the limit's value: a call of
# public names, or a hermite-kit command line; a tuple, in the table's order,
# for a limit with a row per input it caps
FIRST_REFUSED = {
    "polynomials.MAX_ORDER": lambda n: f"gauss_hermite_rule({n + 1})",
    "(polynomials.MAX_ORDER - 12) // 2": lambda n: f"fourier_hermite_coeffs(abs, {n + 1})",
    "(polynomials.MAX_ORDER - 10) // 2": lambda n: f"hermite-kit expand fourier-check --n {n + 1}",
    "expansions.MAX_EIGEN_FREQUENCY":
        lambda n: f"hermite-kit expand fourier-check --n 0 --kmax {n + 1}",
    # the smallest order refused in dimension 4
    "quadrature.CUBATURE_POINT_BUDGET":
        lambda n: f"tensor_cubature(4, {math.isqrt(math.isqrt(n)) + 1})",
    "quadrature.MAX_CUBATURE_DIMENSION": lambda n: f"tensor_cubature({n + 1}, 1)",
    "quadrature.MAX_WCE_DIMENSION": lambda n: f"wce_coeffs_multi(sum, {n + 1}, 1)",
    "quadrature.MAX_WCE_ORDER": lambda n: f"wce_coeffs_multi(sum, 1, {n + 1})",
    "expansions.MAX_FACTORIAL_ORDER":
        lambda n: f"gram_charlier_density(StandardizedMoments(0, 1), {n + 1}, 0)",
    "graphs.MAX_MATCH_VERTICES": lambda n: f"match_count_table(complete_graph({n + 1}))",
    "cli.MAX_POLY_N": (lambda n: f"hermite-kit poly --n {n + 1}",
                       lambda n: f"hermite-kit expand wce --coeffs 1 --order {n + 1}"),
    "cli.MAX_COEFFS_DEGREE": (
        lambda n: f"hermite-kit expand wce --coeffs {','.join(['1'] * (n + 2))} --order 0",
        lambda n: f"hermite-kit expand deconvolve --coeffs {','.join(['1'] * (n + 2))} --sigma 1"),
    "cli.MAX_FOURIER_ORDER":
        lambda n: f"hermite-kit expand fourier-hermite --mu 0.5 --order {n + 1}",
    "cli.MAX_SAMPLES":
        lambda n: f"hermite-kit plotdata --kind poly --xmin 0 --xmax 1 --samples {n + 1}",
    # the smallest order refused at two samples
    "cli.MAX_PLOTDATA_WORK":
        lambda n: f"hermite-kit plotdata --kind poly --n {n // 2} --xmin 0 --xmax 1 --samples 2",
    "cli.MAX_KPARTITE_EDGES": lambda n: f"hermite-kit graph kpartite --parts 1,{n + 1}",
    "cli.MAX_PARTS_TOTAL": lambda n: f"hermite-kit graph product-integral --parts 1,{n}",
    "cli.MAX_PARTS_TOTAL_FOLDED":
        lambda n: f"hermite-kit graph product-integral --parts 1,1,1,{n - 2}",
    "cli.MAX_LINEARIZE_TOTAL": lambda n: f"hermite-kit graph linearize --m 1 --n {n}",
}


def _table():
    # the rows of the first table under "## Size limits", as dicts keyed by its header
    lines = README.read_text(encoding="utf-8").split("\n## Size limits\n", 1)[1].splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("|"))
    table = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        table.append([cell.strip().strip("`") for cell in line.strip("|").split("|")])
    header, _, *rows = table
    return [dict(zip(header, row)) for row in rows]


ROWS = {}
for _row in _table():
    ROWS.setdefault(_row["limit"], []).append(_row)


def _first_refused(limit):
    inputs = FIRST_REFUSED[limit]
    return inputs if isinstance(inputs, tuple) else (inputs,)


def _modules():
    return {path.stem: importlib.import_module(f"hermite_kit.{path.stem}")
            for path in pathlib.Path(hermite_kit.__file__).parent.glob("*.py")
            if path.stem != "__init__"}


def _value(cell):
    # "200", "50 000" or "10^7"
    base, _, exponent = cell.replace(" ", "").partition("^")
    return int(base) ** int(exponent or 1)


def test_every_limit_constant_has_a_row():
    named = set()
    for path in pathlib.Path(hermite_kit.__file__).parent.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign):
                named |= {f"{path.stem}.{target.id}" for target in node.targets
                          if isinstance(target, ast.Name) and LIMIT_NAME.fullmatch(target.id)}
    in_rows = {name for limit in ROWS for name in re.findall(r"\w+\.\w+", limit)}
    assert sorted(named - in_rows) == []
    assert sorted(in_rows - named) == []
    assert sorted(ROWS) == sorted(FIRST_REFUSED)


@pytest.mark.parametrize("limit", sorted(ROWS))
def test_a_row_states_its_limit_and_where_it_is_checked(limit):
    modules = _modules()
    for row in ROWS[limit]:
        assert _value(row["value"]) == eval(limit, modules)
        module, name = row["checked in"].split(".")
        source = inspect.getsource(getattr(modules[module], name))
        for constant in re.findall(r"\w+\.(\w+)", limit):
            assert constant in source


def _refusal(text):
    # the message with which text, a call or a command line, is refused
    if text.startswith("hermite-kit "):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(shlex.split(text)[1:])
        assert (code, out.getvalue()) == (2, "")
        assert err.getvalue().startswith("error: ") and err.getvalue().endswith("\n")
        return err.getvalue()[len("error: "):-1]
    names = {name: getattr(hermite_kit, name) for name in hermite_kit.__all__}
    with pytest.raises(ValueError) as refused:
        eval(text, names)
    return str(refused.value)


@pytest.mark.parametrize("limit", sorted(ROWS))
def test_the_first_input_past_a_limit_gives_the_rows_refusal(limit):
    value = eval(limit, _modules())
    for row, first_refused in zip(ROWS[limit], _first_refused(limit), strict=True):
        text = first_refused(value)
        assert row["first refused input"] == text
        assert _refusal(text) == row["refusal"]
