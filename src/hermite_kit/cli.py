"""Command-line interface: every library capability with machine-readable output.

Exit codes: 0 success, 2 argument error, 3 malformed input file.
Floats print with 17 significant digits so output round-trips exactly.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys

from . import graphs, polynomials
from .exactpoly import ExactPolynomial, _check_order

QUAD_ORDER_ENV = "HERMITE_KIT_QUAD_ORDER"


def _fmt(x):
    return format(float(x), ".17g")


def _emit_table(header, rows, fmt, out):
    if fmt == "json":
        payload = [dict(zip(header, row)) for row in rows]
        print(json.dumps(payload), file=out)
        return
    sep = "\t" if fmt == "tsv" else ","
    print(sep.join(header), file=out)
    for row in rows:
        print(sep.join(str(c) if isinstance(c, str) else _fmt(c) for c in row), file=out)


@contextlib.contextmanager
def _exact_digits():
    # exact integers print at any length; parsed input keeps the default digit guard
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _emit_coeffs(poly, fmt, out):
    with _exact_digits():
        strings = [str(c) for c in poly.coeffs]
    if fmt == "json":
        print(json.dumps(strings), file=out)
    else:
        print(("\t" if fmt == "tsv" else ",").join(strings), file=out)


def _emit_series(series, out):
    from . import expansions

    print(f"tail indicator |a_N| sqrt(N!) = "
          f"{expansions.series_tail_indicator(series):.3e}", file=sys.stderr)
    print(json.dumps({"convention": series.convention, "coeffs": list(series.coeffs)}), file=out)


def _parse_int_list(text):
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _finite_float(text):
    with contextlib.suppress(ValueError):
        if math.isfinite(value := float(text)):
            return value
    raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")


def _parse_number_list(text):
    return [tok.strip() for tok in text.split(",") if tok.strip() != ""]


class InputFileError(Exception):
    """An input file could not be read or parsed; exits with code 3."""


def _env_quad_order():
    raw = os.environ.get(QUAD_ORDER_ENV)
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{QUAD_ORDER_ENV} must be an integer, got {raw!r}")
    return _check_order(value, QUAD_ORDER_ENV, 1)


def _check_default_rule(flag, value, rule_order):
    # a default rule sized from a flag: name the flag, not the rule size
    top = polynomials.MAX_ORDER
    largest = max(v for v in range(top) if rule_order(v) <= top)
    if value > largest:
        raise ValueError(f"{flag} {value} exceeds {largest}, the default quadrature's limit")


def cmd_poly(args, out):
    if args.n > 200:
        raise ValueError(f"--n is capped at 200, got {args.n}")
    poly = polynomials.hermite_explicit(args.n, args.family)
    _emit_coeffs(poly, args.format, out)
    return 0


def cmd_quad(args, out):
    from . import quadrature

    rule = quadrature.gauss_hermite_rule(args.n)
    if args.format == "json":
        print(json.dumps({"nodes": rule.nodes.tolist(), "weights": rule.weights.tolist()}), file=out)
    else:
        _emit_table(("node", "weight"), list(zip(rule.nodes, rule.weights)), args.format, out)
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
    if args.samples > 10**6:
        raise ValueError(f"--samples is capped at 1000000, got {args.samples}")
    terms = len(args.coeffs) if args.kind == "series" else args.n + 1
    if (work := terms * args.samples) > 10**7:  # each sample sums every term
        raise ValueError(f"{terms} terms times --samples {args.samples} is {work}, capped at {10**7}")
    grid = _grid(args.xmin, args.xmax, args.samples)
    if args.kind == "poly":
        values = [polynomials.eval_hermite(args.n, x, args.family) for x in grid]
    elif args.kind == "function":
        values = [polynomials.eval_hermite_function(args.n, x, args.family) for x in grid]
    else:
        from . import expansions

        coeffs = tuple(float(c) for c in args.coeffs)
        convention = (expansions.DENSITY_WEIGHTED if args.convention == "density"
                      else expansions.PLAIN_RV)
        series = expansions.HermiteSeries(coeffs=coeffs, convention=convention)
        values = [expansions.evaluate_series(series, x) for x in grid]
    _emit_table(("x", "value"), list(zip(grid, values)), args.format, out)
    return 0


def _load_graph(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise InputFileError(f"cannot read {path}: {exc}") from exc
    return graphs.parse_edge_list(text)


def cmd_graph(args, out):
    if args.graph_command == "match-poly":
        poly = graphs.matching_polynomial(_load_graph(args.file))
        _emit_coeffs(poly, args.format, out)
    elif args.graph_command == "matches":
        graph = _load_graph(args.file)
        if args.j is not None:
            print(graphs.count_j_matches(graph, args.j), file=out)
        else:
            counts = graphs.match_count_table(graph)
            rows = [(str(j), str(c)) for j, c in enumerate(counts)]
            _emit_table(("j", "count"), rows, args.format, out)
    elif args.graph_command == "kpartite":
        sizes = [_check_order(s, "part size") for s in args.parts]  # their refusals come first
        if (edges := (sum(sizes) ** 2 - sum(s * s for s in sizes)) // 2) > 10**6:
            raise ValueError(f"--parts makes {edges} edges, capped at 1000000")
        print(graphs.format_edge_list(graphs.complete_kpartite(args.parts)), file=out)
    elif args.graph_command == "product-integral":
        sizes = [_check_order(s, "part size") for s in args.parts]  # their refusals come first
        cap, shape = (50_000, "three or fewer") if len(sizes) <= 3 else (2000, "four or more")
        if (total := sum(sizes)) > cap:  # four or more parts take the slower linearization fold
            raise ValueError(f"--parts sums to {total}, capped at {cap} for {shape} parts")
        p = graphs.count_complete_matches(args.parts)
        value = polynomials.SQRT_TWO_PI * polynomials._rounded(p)  # as hermite_product_integral
        with _exact_digits():
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
        if (total := sum(orders)) > 6000:
            raise ValueError(f"--m + --n is {total}, capped at 6000")
        table = graphs.linearization_coeffs(args.m, args.n)
        with _exact_digits():
            if args.format in ("csv", "tsv"):
                rows = [(str(l), str(a)) for l, a in table.items()]
                _emit_table(("l", "coefficient"), rows, args.format, out)
            else:
                payload = {str(l): a for l, a in table.items()}
                print(json.dumps(payload, separators=(",", ":")), file=out)
    return 0


def _read_moments_csv(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = [line.strip() for line in handle if line.strip()]
    except OSError as exc:
        raise InputFileError(f"cannot read {path}: {exc}") from exc
    values = []
    for number, tok in enumerate(raw, start=1):
        try:
            values.append(_finite_float(tok))
        except argparse.ArgumentTypeError as exc:
            raise InputFileError(f"{path}: line {number}: {exc}") from None
    if len(values) < 2:
        raise InputFileError(f"{path}: moment list needs at least mu and sigma")
    return values


def cmd_expand(args, out):
    from . import expansions

    # only these three size a rule, so only they read the override
    rules = args.expand_command in ("fourier-hermite", "wce", "fourier-check")
    quad_order = _env_quad_order() if rules else None
    if quad_order is None and args.expand_command in ("fourier-hermite", "wce"):
        _check_default_rule("--order", args.order, expansions._quad_order)
    elif quad_order is None and args.expand_command == "fourier-check":
        _check_default_rule("--n", args.n, expansions._eigen_quad_order)
    if args.expand_command == "fourier-hermite":
        mu = args.mu

        def density(x):
            d = float(x) - mu  # plain floats: d * d overflows to inf, silently
            return math.exp(-0.5 * (d * d)) / expansions.SQRT_TWO_PI

        _emit_series(expansions.fourier_hermite_coeffs(density, args.order, quad_order), out)
    elif args.expand_command == "gram-charlier":
        if args.moments_csv is not None:
            mu, sigma, *nu = _read_moments_csv(args.moments_csv)
        else:
            mu, sigma, nu = args.mu, args.sigma, (args.nu3, args.nu4)
        m = expansions.StandardizedMoments(mu=mu, sigma=sigma, nu=tuple(nu))
        value = expansions.gram_charlier_density(m, args.order, args.x)
        if value < 0:
            print("warning: truncated expansion is negative at this point", file=sys.stderr)
        print(_fmt(value), file=out)
    elif args.expand_command == "wce":
        poly = ExactPolynomial(args.coeffs)
        _emit_series(expansions.wce_coeffs_1d(lambda x: poly(float(x)), args.order, quad_order), out)
    elif args.expand_command == "deconvolve":
        result = expansions.gaussian_mixture_deconvolve(
            ExactPolynomial(args.coeffs), args.sigma
        )
        _emit_coeffs(result, args.format, out)
    else:  # fourier-check
        try:
            error = expansions.fourier_eigen_check(args.n, _grid(-args.kmax, args.kmax, 25),
                                                   quad_order)
        except OverflowError as exc:
            raise ValueError(f"--kmax {args.kmax:g} is too large: {exc}") from None
        print(_fmt(error), file=out)
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
    p.add_argument("--coeffs", type=_parse_number_list, default=[])
    p.add_argument("--convention", choices=("density", "plain"), default="density")
    p.add_argument("--xmin", type=_finite_float, required=True)
    p.add_argument("--xmax", type=_finite_float, required=True)
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
    e.add_argument("--mu", type=_finite_float, required=True)
    e.add_argument("--order", type=int, default=30)

    e = esub.add_parser("gram-charlier", help="Gram-Charlier density value")
    e.add_argument("--mu", type=_finite_float, default=0.0)
    e.add_argument("--sigma", type=_finite_float, default=1.0)
    e.add_argument("--nu3", type=_finite_float, default=0.0)
    e.add_argument("--nu4", type=_finite_float, default=3.0)
    e.add_argument("--order", type=int, default=4)
    e.add_argument("--x", type=_finite_float, required=True)
    e.add_argument("--moments-csv", default=None,
                   help="file with one value per line: mu, sigma, nu3, nu4, ...")

    e = esub.add_parser("wce", help="chaos coefficients of a polynomial of a unit Gaussian")
    e.add_argument("--coeffs", type=_parse_number_list, required=True)
    e.add_argument("--order", type=int, required=True)

    e = esub.add_parser("deconvolve", help="exact Gaussian-mixture deconvolution of a polynomial")
    e.add_argument("--coeffs", type=_parse_number_list, required=True)
    e.add_argument("--sigma", type=_finite_float, required=True)
    add_format(e)

    e = esub.add_parser("fourier-check", help="Fourier eigenfunction residual of h_n")
    e.add_argument("--n", type=int, required=True)
    e.add_argument("--kmax", type=_finite_float, default=3.0)
    p.set_defaults(func=cmd_expand)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, sys.stdout)
    except (graphs.GraphFileError, InputFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError, polynomials.NodeConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
