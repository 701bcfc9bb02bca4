"""Command-line interface: the library with machine-readable output.

`expand wce` and `expand fourier-hermite` print exact He coefficients, each rounded once; no
subcommand loads numpy or takes a rule size (`expand fourier-check` runs the default rule).

Exit codes: 0 success, 2 argument error, 3 unreadable or malformed input file.
Floats print with 17 significant digits so output round-trips exactly.
"""

import argparse
import contextlib
import itertools
import json
import math
import re
import sys
from fractions import Fraction

import hermite_kit as hk

from .exactpoly import _check_order
from .polynomials import SQRT_TWO_PI, _check_rule_order, _read_rule, _rounded

# each cap is checked in one command below; README.md's limits table lists them
MAX_POLY_N = 200
MAX_SAMPLES = 10**6
MAX_PLOTDATA_WORK = 10**7       # terms times samples: each sample sums every term
MAX_KPARTITE_EDGES = 10**6
MAX_PARTS_TOTAL = 50_000        # product-integral with three or fewer parts
MAX_PARTS_TOTAL_FOLDED = 2000   # four or more parts take the slower linearization fold
MAX_LINEARIZE_TOTAL = 6000      # linearize: --m + --n
MAX_COEFFS_DEGREE = 50          # wce, deconvolve: exact work grows with it (and sigma's bits)
MAX_FOURIER_ORDER = 94          # fourier-hermite --order: CLI-only; perfbench expects 150 refused
_EXPONENT = re.compile(r"e[-+]?(\d+(_\d+)*)\s*\Z", re.IGNORECASE)  # as Fraction reads it


def _fmt(x):
    return format(float(x), ".17g")


def _emit_table(header, rows, fmt, out):
    if fmt == "json":  # in chunks of rows, written as one json.dumps of them all would be
        rows, sep = iter(rows), "["
        while chunk := [dict(zip(header, row)) for row in itertools.islice(rows, 4096)]:
            out.write(sep + json.dumps(chunk)[1:-1])
            sep = ", "
        print("]" if sep == ", " else "[]", file=out)
        return
    sep = "\t" if fmt == "tsv" else ","
    print(sep.join(header), file=out)
    for row in rows:
        out.write(sep.join([c if isinstance(c, str) else _fmt(c) for c in row]) + "\n")


@contextlib.contextmanager
def _digit_guard(digits):
    # 0 while exact integers print, at any length; Python's fixed default while input is read
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _emit_coeffs(poly, fmt, out):
    with _digit_guard(0):
        strings = [str(c) for c in poly.coeffs]
    if fmt == "json":
        print(json.dumps(strings), file=out)
    else:
        print(("\t" if fmt == "tsv" else ",").join(strings), file=out)


def _emit_series(series, out):
    print(f"tail indicator |a_N| sqrt(N!) = {hk.series_tail_indicator(series):.3e}",
          file=sys.stderr)
    print(json.dumps({"convention": series.convention, "coeffs": list(series.coeffs)}), file=out)


def _split(text, read=str.strip, sep=","):  # each token of a list read, blank ones skipped
    return [read(tok) for tok in text.split(sep) if tok.strip()]


def _parse_int_list(text):
    with contextlib.suppress(ValueError):
        return _split(text, int)
    raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _number(text, exact=False):
    # every real token, '1/2' too, as Fraction reads it: exact, or rounded once to a finite float
    # that keeps a zero's sign; Fraction builds 10**e, so a longer exponent than Python's default
    # digit guard is refused first, and that fixed guard holds whatever PYTHONINTMAXSTRDIGITS says
    bound = sys.int_info.default_max_str_digits
    digits = (e := _EXPONENT.search(text)) and e[1].replace("_", "").lstrip("0")
    if digits and (len(digits) > len(str(bound)) or int(digits) > bound):
        raise argparse.ArgumentTypeError(f"{text!r} has an exponent beyond {bound}")
    with contextlib.suppress(ValueError, ZeroDivisionError), _digit_guard(bound):
        if exact:
            return Fraction(text)
        if math.isfinite(value := _rounded(Fraction(text))):  # Fraction("-0.0") is 0
            return -0.0 if not value and text.strip().startswith("-") else value
    raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")


class InputFileError(Exception):
    """An input file could not be read or parsed; exits with code 3."""


def cmd_poly(args, out):
    if args.n > MAX_POLY_N:
        raise ValueError(f"--n is capped at {MAX_POLY_N}, got {args.n}")
    poly = hk.hermite_explicit(args.n, args.family)
    _emit_coeffs(poly, args.format, out)
    return 0


def cmd_quad(args, out):
    nodes, weights = _read_rule(_check_rule_order(args.n))  # the table's floats: no numpy
    if args.format == "json":
        print(json.dumps({"nodes": nodes, "weights": weights}), file=out)
    else:
        _emit_table(("node", "weight"), zip(nodes, weights), args.format, out)
    return 0


def _grid(lo, hi, samples):
    # np.linspace(lo, hi, samples) bit for bit, in plain floats; past double
    # range for hi - lo, halve the ends: exact at that size, same points
    if not math.isfinite(delta := hi - lo):
        return [2.0 * x for x in _grid(lo / 2.0, hi / 2.0, samples)]
    div = samples - 1
    step = delta / div
    if step == 0:  # delta / div underflowed: scale each index first, as numpy does
        grid = [i / div * delta + lo for i in range(samples)]
    else:
        grid = [i * step + lo for i in range(samples)]
    grid[-1] = hi
    return grid


def cmd_plotdata(args, out):
    if args.samples < 2:
        raise ValueError("--samples must be at least 2")
    if args.xmax < args.xmin:
        raise ValueError(f"empty range [{args.xmin}, {args.xmax}]")
    if args.samples > MAX_SAMPLES:
        raise ValueError(f"--samples is capped at {MAX_SAMPLES}, got {args.samples}")
    terms = len(args.coeffs) if args.kind == "series" else args.n + 1
    if (work := terms * args.samples) > MAX_PLOTDATA_WORK:
        raise ValueError(f"{terms} terms times --samples {args.samples} is {work}, "
                         f"capped at {MAX_PLOTDATA_WORK}")
    grid = _grid(args.xmin, args.xmax, args.samples)
    if args.kind == "series":
        convention = hk.DENSITY_WEIGHTED if args.convention == "density" else hk.PLAIN_RV
        series = hk.HermiteSeries([_number(c) for c in args.coeffs], convention)
        rows = ((x, hk.evaluate_series(series, x)) for x in grid)
    else:
        value = hk.eval_hermite if args.kind == "poly" else hk.eval_hermite_function
        n = _check_order(args.n)  # here: each row is written once computed, after the header
        rows = ((x, value(n, x, args.family)) for x in grid)
    _emit_table(("x", "value"), rows, args.format, out)
    return 0


def _read_text(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:  # a decode error, a ValueError, exits 3 here
        raise InputFileError(f"cannot read {path}: {exc}") from exc


def _load_graph(path):
    # the edge-list format: the vertex count, then one 'u v' per line (1-indexed); blank lines
    # are skipped, and a bad line (a loop or a repeated pair too) exits 3 with its 1-based number
    vertex_count, seen = None, set()
    for number, line in enumerate(_read_text(path).splitlines(), start=1):
        if not (line := line.strip()):
            continue
        at = f"line {number}:"
        if vertex_count is None:
            try:
                vertex_count = int(line)
            except ValueError:
                raise InputFileError(f"{at} expected the vertex count, got {line!r}") from None
            if vertex_count < 1:
                raise InputFileError(f"{at} vertex count must be positive, got {vertex_count}")
            continue
        if len(parts := line.split()) != 2:
            raise InputFileError(f"{at} expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise InputFileError(f"{at} non-integer vertex in {line!r}") from None
        if u == v:
            raise InputFileError(f"{at} loop edge ({u}, {v}) not allowed")
        if not (1 <= u <= vertex_count and 1 <= v <= vertex_count):
            raise InputFileError(f"{at} vertex outside 1..{vertex_count} in ({u}, {v})")
        if (pair := (min(u, v), max(u, v))) in seen:
            raise InputFileError(f"{at} duplicate edge ({u}, {v})")
        seen.add(pair)
    if vertex_count is None:
        raise InputFileError("line 1: empty graph file")
    return hk.SimpleGraph(vertex_count, frozenset(seen))


def cmd_graph(args, out):
    if args.graph_command == "match-poly":
        poly = hk.matching_polynomial(_load_graph(args.file))
        _emit_coeffs(poly, args.format, out)
    elif args.graph_command == "matches":
        graph = _load_graph(args.file)
        if args.j is not None:
            print(hk.count_j_matches(graph, args.j), file=out)
        else:
            counts = hk.match_count_table(graph)
            rows = [(str(j), str(c)) for j, c in enumerate(counts)]
            _emit_table(("j", "count"), rows, args.format, out)
    elif args.graph_command == "kpartite":
        sizes = [_check_order(s, "part size") for s in args.parts]  # their refusals come first
        if (edges := (sum(sizes) ** 2 - sum(s * s for s in sizes)) // 2) > MAX_KPARTITE_EDGES:
            raise ValueError(f"--parts makes {edges} edges, capped at {MAX_KPARTITE_EDGES}")
        from .graphs import _kpartite_edges  # _load_graph's format, written as generated
        print(hk.SimpleGraph(sum(sizes), ()).vertex_count, file=out)  # refuses 0 vertices
        out.writelines(f"{u} {v}\n" for u, v in _kpartite_edges(sizes))
    elif args.graph_command == "product-integral":
        sizes = [_check_order(s, "part size") for s in args.parts]  # their refusals come first
        cap, shape = (MAX_PARTS_TOTAL, "three or fewer") if len(sizes) <= 3 \
            else (MAX_PARTS_TOTAL_FOLDED, "four or more")
        if (total := sum(sizes)) > cap:
            raise ValueError(f"--parts sums to {total}, capped at {cap} for {shape} parts")
        p = hk.count_complete_matches(args.parts)
        value = SQRT_TWO_PI * _rounded(p)  # as hermite_product_integral
        with _digit_guard(0):
            count = str(p)
        if args.format == "json":
            print(json.dumps({"parts": args.parts, "P": count, "J": float(value)}), file=out)
        elif args.format == "plain":
            print(_fmt(value), file=out)
        else:
            parts_label = " ".join(str(p) for p in args.parts)
            _emit_table(("parts", "P", "J"), [(parts_label, count, value)], args.format, out)
    else:  # linearize
        orders = [_check_order(k, "order") for k in (args.m, args.n)]  # their refusals come first
        if (total := sum(orders)) > MAX_LINEARIZE_TOTAL:
            raise ValueError(f"--m + --n is {total}, capped at {MAX_LINEARIZE_TOTAL}")
        table = hk.linearization_coeffs(args.m, args.n)
        with _digit_guard(0):
            if args.format in ("csv", "tsv"):
                rows = [(str(l), str(a)) for l, a in table.items()]
                _emit_table(("l", "coefficient"), rows, args.format, out)
            else:
                payload = {str(l): a for l, a in table.items()}
                print(json.dumps(payload, separators=(",", ":")), file=out)
    return 0


def _read_moments_csv(path):
    # text mode turns \r\n and \r into \n, so these are the lines a file iterates
    values = []
    for number, tok in enumerate(_split(_read_text(path), sep="\n"), start=1):
        try:
            values.append(_number(tok))
        except argparse.ArgumentTypeError as exc:
            raise InputFileError(f"{path}: line {number}: {exc}") from None
    if len(values) < 2:
        raise InputFileError(f"{path}: moment list needs at least mu and sigma")
    return values


def cmd_expand(args, out):
    if args.expand_command == "fourier-hermite":
        if (order := _check_order(args.order, "truncation order")) > MAX_FOURIER_ORDER:
            raise ValueError(f"--order is capped at {MAX_FOURIER_ORDER}, got {order}")
        # e^(mu x - mu^2/2) = sum He_n(x) mu^n / n!: N(mu, 1) has a_n = mu^n / (n! sqrt(2 pi)),
        # sqrt(2 pi) to 40 digits (the float SQRT_TWO_PI is 1.04e-16 low, near half its ulp)
        mu, norm = Fraction(args.mu), Fraction(2506628274631000502415765284811045253007, 10**39)
        coeffs = [_rounded(mu**n / math.factorial(n) / norm) for n in range(order + 1)]
        _emit_series(hk.HermiteSeries(coeffs, hk.DENSITY_WEIGHTED), out)
    elif args.expand_command == "gram-charlier":
        if args.moments_csv is not None:
            mu, sigma, *nu = _read_moments_csv(args.moments_csv)
        else:
            mu, sigma, nu = args.mu, args.sigma, (args.nu3, args.nu4)
        m = hk.StandardizedMoments(mu=mu, sigma=sigma, nu=tuple(nu))
        value = hk.gram_charlier_density(m, args.order, args.x)
        if value < 0:
            print("warning: truncated expansion is negative at this point", file=sys.stderr)
        print(_fmt(value), file=out)
    elif args.expand_command in ("wce", "deconvolve"):
        if (degree := len(args.coeffs) - 1) > MAX_COEFFS_DEGREE:  # checked before any parsing
            raise ValueError(f"--coeffs has degree {degree}, capped at {MAX_COEFFS_DEGREE}")
        poly = hk.ExactPolynomial([_number(c, exact=True) for c in args.coeffs])
        if args.expand_command == "deconvolve":
            _emit_coeffs(hk.gaussian_mixture_deconvolve(poly, args.sigma), args.format, out)
        else:  # a polynomial's chaos coefficients are its He coefficients: the connection problem
            if (order := _check_order(args.order, "truncation order")) > MAX_POLY_N:
                raise ValueError(f"--order is capped at {MAX_POLY_N}, got {order}")
            he = hk.change_of_basis(poly.degree, "monomial", "he").apply(poly.coeffs)
            coeffs = [_rounded(b) for b in he[:order + 1]] + [0.0] * (order - poly.degree)
            _emit_series(hk.HermiteSeries(coeffs, hk.PLAIN_RV), out)
    else:  # fourier-check
        print(_fmt(hk.fourier_eigen_check(args.n, _grid(-args.kmax, args.kmax, 25))), file=out)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hermite-kit",
        description="Chebyshev-Hermite polynomials, Gauss-Hermite quadrature, "
                    "Hermite expansions, and graph-matching combinatorics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, default="csv"):
        p.add_argument("--format", choices=("csv", "tsv", "json"), default=default)

    p = sub.add_parser("poly", help="exact polynomial coefficients, constant term first")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--family", choices=("he", "h"), default="he")
    add_format(p)
    p.set_defaults(func=cmd_poly)

    p = sub.add_parser("quad", help="Gauss-Hermite nodes and weights for e^(-x^2/2)")
    p.add_argument("--n", type=int, required=True)
    add_format(p)
    p.set_defaults(func=cmd_quad)

    p = sub.add_parser("plotdata", help="sampled values on a uniform grid")
    p.add_argument("--kind", choices=("poly", "function", "series"), required=True)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--family", choices=("he", "h"), default="he")
    p.add_argument("--coeffs", type=_split, default=[])
    p.add_argument("--convention", choices=("density", "plain"), default="density")
    p.add_argument("--xmin", type=_number, required=True)
    p.add_argument("--xmax", type=_number, required=True)
    p.add_argument("--samples", type=int, required=True)
    add_format(p, default="tsv")
    p.set_defaults(func=cmd_plotdata)

    p = sub.add_parser("graph", help="matching combinatorics of simple graphs")
    gsub = p.add_subparsers(dest="graph_command", required=True)

    g = gsub.add_parser("match-poly", help="matching polynomial from an edge-list file")
    g.add_argument("--file", required=True)
    add_format(g)

    g = gsub.add_parser("matches", help="j-match counts from an edge-list file")
    g.add_argument("--file", required=True)
    g.add_argument("--j", type=int, default=None)
    add_format(g)

    g = gsub.add_parser("kpartite", help="emit the complete k-partite graph as an edge list")
    g.add_argument("--parts", type=_parse_int_list, required=True)

    g = gsub.add_parser("product-integral",
                        help="integral of a product of Chebyshev-Hermite polynomials")
    g.add_argument("--parts", type=_parse_int_list, required=True)
    g.add_argument("--format", choices=("plain", "csv", "tsv", "json"), default="plain")

    g = gsub.add_parser("linearize", help="He_m He_n re-expanded in the He basis")
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--n", type=int, required=True)
    add_format(g, default="json")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("expand", help="Hermite expansions and transforms")
    esub = p.add_subparsers(dest="expand_command", required=True)

    e = esub.add_parser("fourier-hermite",
                        help="density-weighted expansion of a shifted Gaussian density")
    e.add_argument("--mu", type=_number, required=True)
    e.add_argument("--order", type=int, default=30)

    e = esub.add_parser("gram-charlier", help="Gram-Charlier density value")
    e.add_argument("--mu", type=_number, default=0.0)
    e.add_argument("--sigma", type=_number, default=1.0)
    e.add_argument("--nu3", type=_number, default=0.0)
    e.add_argument("--nu4", type=_number, default=3.0)
    e.add_argument("--order", type=int, default=4)
    e.add_argument("--x", type=_number, required=True)
    e.add_argument("--moments-csv", default=None,
                   help="file with one value per line: mu, sigma, nu3, nu4, ...")

    e = esub.add_parser("wce", help="chaos coefficients of a polynomial of a unit Gaussian")
    e.add_argument("--coeffs", type=_split, required=True)
    e.add_argument("--order", type=int, required=True)

    e = esub.add_parser("deconvolve", help="exact Gaussian-mixture deconvolution of a polynomial")
    e.add_argument("--coeffs", type=_split, required=True)
    e.add_argument("--sigma", type=_number, required=True)
    add_format(e)

    e = esub.add_parser("fourier-check", help="Fourier eigenfunction residual of h_n")
    e.add_argument("--n", type=int, required=True)
    e.add_argument("--kmax", type=_number, default=3.0)
    p.set_defaults(func=cmd_expand)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, sys.stdout)
    except (InputFileError, ValueError, TypeError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, InputFileError) else 2


if __name__ == "__main__":
    sys.exit(main())
