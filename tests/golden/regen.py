"""Golden corpora.  cli.tsv: one line per argv with its exit code and the
short SHA-256s of its stdout and stderr, run in-process through
hermite_kit.cli.main.  library.tsv: one line per seeded call of a public
float function, with its result as float.hex, a short SHA-256 for anything
else, or its exception type and message.

    python tests/golden/regen.py                # rewrite cli.tsv and library.tsv
    python tests/golden/regen.py --show ARGV    # print one argv's full output
    python tests/golden/regen.py --call EXPR    # print one call's full result

ARGV and EXPR are the first column of a line, as written there.  Input files
are written to a temporary directory, which the argvs and the hashed outputs
name as @tmp.  A change that moves a line must say which lines moved and why.
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import math
import os
import pathlib
import platform
import random
import shlex
import sys
import tempfile
import warnings
from fractions import Fraction
from unittest import mock

HERE = pathlib.Path(__file__).resolve().parent
CORPUS = HERE / "cli.tsv"
LIBRARY = HERE / "library.tsv"
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
    # terms times samples past the cap of 10**7
    ("plotdata", "--kind=poly", "--n=10000000", "--xmin=0", "--xmax=1", "--samples=2"),
    ("plotdata", "--kind=function", "--n=200", "--xmin=-5", "--xmax=5", "--samples=300000"),
    ("plotdata", "--kind=series", "--coeffs=1,1,1,1,1,1,1,1,1,1,1", "--xmin=0", "--xmax=1",
     "--samples=1000000"),
    # a decimal exponent past the integer digit guard, refused before Fraction builds 10**e
    ("expand", "deconvolve", "--coeffs=1e-99999999", "--sigma=1"),
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
    COLUMNS.  cli.main builds its parser once, not once per argv; parsing
    leaves the parser as it was."""
    from hermite_kit import cli

    parser = cli.build_parser()
    with mock.patch.dict(os.environ, COLUMNS="80"), \
            mock.patch.object(cli, "build_parser", lambda: parser):
        yield


# float arguments at the extremes: signed zeros, subnormals, the smallest
# normal, infinities, nan and the top of double range; ints past it
EXTREMES = ["0.0", "-0.0", "5e-324", "-5e-324", "1e-310", "2.2250738585072014e-308", "inf",
            "-inf", "nan", "1e300", "-1e300", "1.7976931348623157e+308",
            "-1.7976931348623157e+308"]
BIG_INTS = ["10**400", "-10**400", "2**1023"]
DRAWS = (lambda rng: rng.uniform(0.0, 12.0),
         lambda rng: rng.uniform(0.0, 2.2250738585072014e-308),   # subnormal
         lambda rng: rng.uniform(1e300, 1.7e308),
         lambda rng: 10 ** rng.uniform(-30.0, 30.0))


def _float(rng, ints=True):
    """One float argument as the corpus writes it: an extreme, a seeded
    draw with a random sign or (if ints) an int power, which may pass
    double range."""
    sign = rng.choice((-1, 1))
    kind = rng.randrange(len(DRAWS) + 1 + ints)
    if kind == 0:
        return rng.choice(EXTREMES + BIG_INTS if ints else EXTREMES)
    if kind > len(DRAWS):
        return f"{'-' if sign < 0 else ''}{rng.randint(2, 9)}**{rng.randint(1, 500)}"
    return repr(sign * DRAWS[kind - 1](rng))


def _floats(rng, count, ints=True):
    return ", ".join(_float(rng, ints) for _ in range(count))


def _tuple(rng, count, ints=True):
    return f"({_floats(rng, count, ints)}{',' if count == 1 else ''})"


def _integrand(rng):
    # a polynomial or a scaled Gaussian in the sum of the point's coordinates
    if rng.random() < 0.6:
        return f"poly({_floats(rng, rng.randint(1, 5), ints=False)})"
    return f"gauss({rng.uniform(-3.0, 3.0)!r}, {_float(rng, ints=False)})"


def _calls_of(rng):
    """One seeded call of every public float function, and of the exact
    functions behind hermite_product_integral and Gram-Schmidt, as expression
    text."""
    n = rng.choice([0, 1, 2, 3, rng.randint(4, 30), rng.randint(31, 200)])
    family = repr(rng.choice(["he", "h"]))
    x, d = _float(rng), rng.randint(1, 3)
    order = rng.randint(0, 12)
    q = rng.choice(["None", str(order + 2 + rng.randint(0, 8))])
    convention = repr(rng.choice(["density-weighted", "plain-rv"]))
    coeffs = _tuple(rng, rng.randint(1, 8))
    sigma = _float(rng)
    sigma = sigma[1:] if sigma.startswith("-") and rng.random() < 0.8 else sigma
    nu = _tuple(rng, moments := rng.randint(2, 6))
    tensors = ", ".join(f"array({_float(rng, ints=False)})" if rank == 0 else
                        f"full({(d,) * rank}, {_float(rng, ints=False)})" for rank in range(3))
    indices = tuple(rng.randrange(d) for _ in range(rng.randint(0, 5)))
    return [
        f"eval_hermite({n}, {x}, {family})",
        f"eval_hermite_function({n}, {_float(rng)}, {family})",
        f"hermite_table({n}, {_float(rng)}, {family})",
        f"hermite_table({n}, array([{_floats(rng, 3, ints=False)}]), {family})",
        f"tensor_component({indices}, {_tuple(rng, d)})",
        f"ExactPolynomial({_tuple(rng, rng.randint(1, 8), ints=False)})({_float(rng)})",
        f"evaluate_series(HermiteSeries({coeffs}, {convention}), {_float(rng)})",
        f"series_tail_indicator(HermiteSeries({coeffs}, {convention}))",
        f"gram_charlier_density(StandardizedMoments({_float(rng)}, {sigma}, {nu}), "
        f"{rng.choice([order % (moments + 3), 171])}, {_float(rng)})",
        f"gaussian_raw_moment({n}, {_float(rng)}, {_float(rng)})",
        f"hermite_product_integral({[rng.randint(0, 12) for _ in range(rng.randint(1, 5))]})",
        # the exact counts it rounds, and the exact Gram-Schmidt construction
        f"count_complete_matches({[rng.randint(0, 14) for _ in range(rng.randint(1, 6))]})",
        f"partite_closed_form({[rng.randint(0, 60) for _ in range(rng.randint(2, 3))]})",
        f"gram_schmidt_construct({rng.randint(0, 40)})",
        f"gauss_hermite_rule({rng.randint(1, 200)})",
        f"gauss_hermite_rule({rng.randint(1, 200)}).whole_line_weights",
        f"tensor_cubature({d}, {rng.randint(1, 8)})",
        f"integrate_weighted({_integrand(rng)}, gauss_hermite_rule({rng.randint(1, 40)}))",
        f"integrate_whole_line({_integrand(rng)}, gauss_hermite_rule({rng.randint(1, 40)}))",
        f"integrate_cubature({_integrand(rng)}, tensor_cubature({d}, {rng.randint(1, 6)}))",
        f"fourier_hermite_coeffs({_integrand(rng)}, {order}, {q})",
        f"wce_coeffs_1d({_integrand(rng)}, {order}, {q})",
        f"wce_coeffs_multi({_integrand(rng)}, {d}, {order % 5}, "
        f"{rng.choice(['None', str(order % 5 + 2 + rng.randint(0, 3))])})",
        f"wce_reconstruct(WCETensorCoeffs({d}, ({tensors})), {_tuple(rng, d)})",
        f"fourier_eigen_check({order}, [{_floats(rng, rng.randint(1, 3), ints=False)}], "
        f"{rng.choice(['None', str(2 * order + 10 + rng.randint(0, 4))])})",
    ]


def library_calls(rounds=60, seed=25):
    """Every call of the library corpus, in order, without repeats."""
    rng = random.Random(seed)
    return list(dict.fromkeys(call for _ in range(rounds) for call in _calls_of(rng)))


def _namespace():
    import numpy as np

    import hermite_kit

    def poly(*coeffs):
        def f(x):
            s, total = float(np.sum(x)), 0.0
            for c in reversed(coeffs):
                total = total * s + c
            return total
        return f

    def gauss(mu, scale):
        return lambda x: scale * math.exp(-0.5 * (float(np.sum(x)) - mu) ** 2)

    names = {name: getattr(hermite_kit, name) for name in hermite_kit.__all__}
    return {**names, "inf": math.inf, "nan": math.nan, "array": np.array, "full": np.full,
            "poly": poly, "gauss": gauss}


def _parts(value):
    # the text a result hashes to: floats as float.hex, exact values as decimals
    if isinstance(value, float):
        return [value.hex()]
    if isinstance(value, (int, Fraction, str)):
        return [str(value)]
    if hasattr(value, "shape"):   # a numpy array or scalar
        return [str(value.shape), *(float(v).hex() for v in value.ravel())]
    if hasattr(value, "weights"):   # a quadrature or cubature rule
        return [*_parts(value.nodes), *_parts(value.weights)]
    if hasattr(value, "coeffs") and not isinstance(value, tuple):   # an ExactPolynomial
        return _parts(value.coeffs)
    return [part for item in value for part in ["(", *_parts(item), ")"]]


def library_result(call, namespace):
    """A call's result as the corpus records it; every warning is an error."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = eval(call, namespace)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    if isinstance(value, float):
        return value.hex()
    return f"sha256:{digest(' '.join(_parts(value)))}"


def library_lines():
    namespace = _namespace()
    return [f"{call}\t{library_result(call, namespace)}" for call in library_calls()]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--show", metavar="ARGV", help="print the full output of one argv")
    parser.add_argument("--call", metavar="EXPR", help="print the full result of one call")
    args = parser.parse_args(argv)
    if args.call is not None:
        print(repr(eval(args.call, _namespace())))
        return 0
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
    lines = ["# call\tfloat.hex, sha256 of the parts or exception", f"# {versions()}"]
    lines += library_lines()
    LIBRARY.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(lines) - 2} lines to {LIBRARY}")
    return 0


if __name__ == "__main__":
    sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]
    sys.exit(main())
