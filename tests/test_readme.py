"""README.md's examples run, and each result a comment states is the one they give."""

import ast
import pathlib
import re
import shlex

import mpmath

from hermite_kit.cli import main

README = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")


def block(heading, language):
    """The first fenced block of the language after the heading."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def commented(lines):
    """(code, comment) of each line with a trailing `  # ` comment."""
    return [tuple(part.strip() for part in line.split("  # ", 1))
            for line in lines if "  # " in line]


def leading_literal(text):
    """The Python literal the text starts with, up to a comma or its end, else None."""
    for end in range(1, len(text) + 1):
        if end == len(text) or text[end] == ",":
            try:
                return ast.literal_eval(text[:end])
            except (ValueError, SyntaxError):
                continue
    return None


def test_the_python_quick_tour_runs_and_gives_its_commented_results():
    code = block("Library quick tour", "python")
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)  # the tour runs as written
    checked = 0
    for expression, comment in commented(code.splitlines()):
        value = eval(expression, namespace)
        if (bound := re.fullmatch(r"3 sqrt\(2 pi\), relative error < (\S+)", comment)):
            exact = 3 * mpmath.sqrt(2 * mpmath.pi)
            assert abs(value - exact) / exact < float(bound[1]), comment
        else:
            literal = leading_literal(comment)
            assert literal is not None, comment
            # the same value, and the same types: (3, 0, -6, 0, 1) are exact ints
            assert value == literal and repr(value) == repr(literal), comment
        checked += 1
    assert checked == 5


def test_the_cli_examples_print_their_commented_output(capsys, tmp_path, monkeypatch):
    # a comment with no space is the whole output, one with a quote a piece of it;
    # the other comments describe the output in words
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c4.txt").write_text("4\n1 2\n2 3\n3 4\n1 4\n", encoding="utf-8")
    checked = []
    for command, comment in commented(block("CLI", "sh").splitlines()):
        if " " in comment and '"' not in comment:
            continue
        argv = shlex.split(command)
        assert argv[0] == "hermite-kit"
        assert main(argv[1:]) == 0, command
        out = capsys.readouterr().out
        assert (comment in out) if " " in comment else (out == comment + "\n"), command
        checked.append(comment)
    assert checked == ["3,0,-6,0,1", "2,0,-4,0,1", '{"4":1,"2":4,"0":2}', "-1,0,1",
                       "0.35206532676429952", '"coeffs": [1.0, 0.0, 1.0, 0.0, 0.0]']
