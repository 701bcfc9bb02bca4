"""CLI golden corpus: one line per argv with its exit code and the short
SHA-256s of its stdout and stderr, run in-process through hermite_kit.cli.main.

    python tests/golden/regen.py                # rewrite tests/golden/cli.tsv
    python tests/golden/regen.py --show ARGV    # print one argv's full output

ARGV is the first column of a line, as written there.  Input files are
written to a temporary directory, which the argvs and the hashed outputs
name as @tmp.  A change that moves a line must say which lines moved and why.
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import os
import pathlib
import platform
import shlex
import sys
import tempfile
from unittest import mock

HERE = pathlib.Path(__file__).resolve().parent
CORPUS = HERE / "cli.tsv"
TMP = "@tmp"   # stands for the input-file directory in argvs and outputs
C4 = "4\n1 2\n2 3\n3 4\n1 4\n"

# the README's examples; a flag tuple after the argv lists its --format choices
README = [
    (("poly", "--n", "4", "--family", "he"), ("csv", "tsv", "json")),
    (("quad", "--n", "3"), ("csv", "tsv", "json")),
    (("plotdata", "--kind", "poly", "--n", "2", "--xmin", "0", "--xmax", "2", "--samples", "3"),
     ("csv", "tsv", "json")),
    (("graph", "match-poly", "--file", f"{TMP}/c4.txt"), ("csv", "tsv", "json")),
    (("graph", "matches", "--file", f"{TMP}/c4.txt"), ("csv", "tsv", "json")),
    (("graph", "kpartite", "--parts", "2,2"), ()),
    (("graph", "product-integral", "--parts", "1,1,2"), ("plain", "csv", "tsv", "json")),
    (("graph", "linearize", "--m", "2", "--n", "2"), ("csv", "tsv", "json")),
    (("expand", "deconvolve", "--coeffs", "0,0,1", "--sigma", "1"), ("csv", "tsv", "json")),
    (("expand", "gram-charlier", "--mu", "0", "--sigma", "1", "--nu3", "0", "--nu4", "3",
      "--x", "0"), ()),
    (("expand", "fourier-hermite", "--mu", "0.5", "--order", "30"), ()),
    (("expand", "wce", "--coeffs", "0,0,1", "--order", "4"), ()),
    (("expand", "fourier-check", "--n", "4", "--kmax", "3"), ()),
]

# refusals the slots above do not reach
REFUSALS = [
    ("graph", "kpartite", "--parts=-1,5"),
    ("graph", "kpartite", "--parts=,"),
    ("graph", "kpartite", "--parts=1000,1001"),   # edge counts past the cap of 10**6
    ("graph", "kpartite", "--parts=2000,2000"),
    ("graph", "kpartite", "--parts=10000,10000"),
    ("graph", "product-integral", "--parts=0,0,50001"),   # vertex sums past the caps
    ("graph", "product-integral", "--parts=501,500,500,500"),
    ("graph", "linearize", "--m=3001", "--n=3000"),       # --m + --n past the cap of 6000
]


def versions():
    import numpy

    return f"python {platform.python_version()} numpy {numpy.__version__}"


def write_inputs(directory):
    """The input files the argvs name, in directory."""
    from test_cli import _MOMENT_FILES

    directory = pathlib.Path(directory)
    (directory / "c4.txt").write_text(C4, encoding="utf-8")
    for name, text in _MOMENT_FILES.items():
        (directory / f"{name}.csv").write_text(text, encoding="utf-8")


def argvs():
    """Every argv of the corpus, in order, without repeats."""
    from test_cli import _COMMANDS, _MOMENT_FILES, _VALUES

    found = []
    for argv, formats in README:
        found += [list(argv), *([*argv, "--format", fmt] for fmt in formats)]
    for command in sorted(_COMMANDS):   # every value in every slot, the other flags at 1
        flags = _COMMANDS[command]
        for slot, value in itertools.product(flags, _VALUES):
            found.append([*command, *(f"{flag}={value if flag == slot else 1}" for flag in flags)])
    for name in sorted(_MOMENT_FILES):
        for order, x in itertools.product(["0", "4", "5", "8", "170", "171"], _VALUES):
            found.append(["expand", "gram-charlier", f"--moments-csv={TMP}/{name}.csv",
                          f"--order={order}", f"--x={x}"])
    found += [list(argv) for argv in REFUSALS]
    return list({shlex.join(argv): argv for argv in found}.values())


def run(argv, directory):
    """(exit code, stdout, stderr) of argv, @tmp standing for directory in all three."""
    from hermite_kit import cli

    argv = [arg.replace(TMP, str(directory)) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, *(s.getvalue().replace(str(directory), TMP) for s in (out, err))


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def line(argv, directory):
    code, out, err = run(argv, directory)
    return f"{shlex.join(argv)}\t{code}\t{digest(out)}\t{digest(err)}"


@contextlib.contextmanager
def environment():
    """The fixed environment the corpus is made in: argparse wraps usage at
    COLUMNS, and no quadrature override.  cli.main builds its parser once,
    not once per argv; parsing leaves the parser as it was."""
    from hermite_kit import cli

    parser = cli.build_parser()
    with mock.patch.dict(os.environ, COLUMNS="80"), \
            mock.patch.object(cli, "build_parser", lambda: parser):
        os.environ.pop(cli.QUAD_ORDER_ENV, None)
        yield


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--show", metavar="ARGV", help="print the full output of one argv")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as directory, environment():
        write_inputs(directory)
        if args.show is not None:
            code, out, err = run(shlex.split(args.show), directory)
            print(f"exit code {code}\n--- stdout ---\n{out}--- stderr ---\n{err}", end="")
            return 0
        lines = ["# argv\texit code\tsha256(stdout)[:16]\tsha256(stderr)[:16]", f"# {versions()}"]
        lines += [line(a, directory) for a in argvs()]
    CORPUS.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(lines) - 2} lines to {CORPUS}")
    return 0


if __name__ == "__main__":
    sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]
    sys.exit(main())
