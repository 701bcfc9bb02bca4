"""The cli-session workload: one `python -m hermite_kit.cli` process per operation.

Import and argument handling dominate here, so only this workload shows a
gain from dropping scipy or importing lazily.  Each process builds its
rule once, so a rule cache gets no reuse here: the prediction for a cache
change is no change.

Rounds hold README examples (checked against the output the README
documents), inputs that must exit 2 or 3, known-defect inputs, and seeded
invocations that together cover every subcommand.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from fractions import Fraction

from oracles import (
    SQRT_TWO_PI,
    Mismatch,
    check_close,
    check_eigen_residual,
    check_equal,
    check_hermite_value,
    check_series_value,
    complete_graph_counts,
    fourier_hermite_exact,
    gaussian_blur,
    gram_charlier_value,
    h_coeffs,
    he_coeffs,
    linearization,
    match_counts,
    monomial_to_he_basis,
    perfect_matches,
    rule_moment_checks,
    scaled_float,
)
from workloads import Op

C4 = "4\n1 2\n2 3\n3 4\n1 4\n"


def _exact_stdout(text):
    def check(out):
        check_equal("stdout", out, text)
    return check


def _rows(out, fmt, header):
    """Rows of a csv/tsv/json table as lists of strings."""
    if fmt == "json":
        return [[str(row[key]) for key in header] for row in json.loads(out)]
    lines = out.splitlines()
    sep = "\t" if fmt == "tsv" else ","
    check_equal("table header", lines[0], sep.join(header))
    return [line.split(sep) for line in lines[1:]]


def _coeff_list(out, fmt):
    text = out.strip()
    if fmt == "json":
        return [Fraction(c) for c in json.loads(text)]
    return [Fraction(c) for c in text.split("\t" if fmt == "tsv" else ",")]


def _check_rule_table(n):
    def check(out):
        nodes, weights = [], []
        for x, w in _rows(out, "csv", ("node", "weight")):
            nodes.append(float(x))
            weights.append(float(w))
        check_equal("node count", len(nodes), n)
        if nodes != sorted(nodes):
            raise Mismatch("nodes are not ascending")
        rule_moment_checks(nodes, weights)
    return check


def _check_series(want, scale):
    def check(out):
        coeffs = json.loads(out)["coeffs"]
        check_equal("coefficient count", len(coeffs), len(want))
        for n, (got, w) in enumerate(zip(coeffs, want)):
            check_close(f"coefficient {n}", got, w, scale)
    return check


def _check_eigen_residual(n):
    def check(out):
        check_eigen_residual(n, float(out))
    return check


class CliSession:
    name = "cli-session"
    trace_rounds = 4
    round_seconds = 2.0   # wall time of a round with its checks, reference host

    def __init__(self, rng, root, workdir, env):
        self.rng = rng
        self.root = root
        self.workdir = workdir
        self.env = env
        self.rounds_built = 0
        self.files = 0
        self.c4 = self._write(C4)
        self.readme = self._readme_examples()
        self.errors = self._error_inputs()
        rng.shuffle(self.readme)
        rng.shuffle(self.errors)

    def _write(self, text):
        self.files += 1
        path = self.workdir / f"input-{self.files}.txt"
        path.write_text(text)
        return str(path)

    def op(self, args, check=None, code=0, defect=None):
        command = [sys.executable, "-m", "hermite_kit.cli", *args]
        span = "cli." + args[0]

        def call(tr):
            with tr.span(span):
                return subprocess.run(command, cwd=self.root, env=self.env, capture_output=True,
                                      text=True, timeout=120)

        def verify(proc):
            if "Traceback" in proc.stderr:
                last = proc.stderr.strip().splitlines()[-1]
                raise Mismatch(f"exit {proc.returncode} with a traceback: {last}")
            if proc.returncode != code:
                raise Mismatch(f"exit {proc.returncode}, expected {code}: {proc.stderr.strip()}")
            if check is not None:
                check(proc.stdout)
            elif code != 0:
                check_equal("stdout of a rejected input", proc.stdout, "")
        return Op(" ".join(args[:2]) if args[0] in ("graph", "expand") else args[0],
                  call, verify, defect)

    # -- fixed inputs -------------------------------------------------------

    def _readme_examples(self):
        """Every README example, checked against the output it documents."""
        c4 = self.c4
        fh_want, fh_scale = fourier_hermite_exact(0.5, 30)
        return [
            self.op(["poly", "--n", "4", "--family", "he"], _exact_stdout("3,0,-6,0,1\n")),
            self.op(["quad", "--n", "3"], _check_rule_table(3)),
            self.op(["plotdata", "--kind", "poly", "--n", "2", "--xmin", "0", "--xmax", "2",
                     "--samples", "3"], _exact_stdout("x\tvalue\n0\t-1\n1\t0\n2\t3\n")),
            self.op(["graph", "match-poly", "--file", c4], _exact_stdout("2,0,-4,0,1\n")),
            self.op(["graph", "matches", "--file", c4],
                    _exact_stdout("j,count\n0,1\n1,4\n2,2\n")),
            self.op(["graph", "kpartite", "--parts", "2,2"],
                    _exact_stdout("4\n1 3\n1 4\n2 3\n2 4\n")),
            self.op(["graph", "product-integral", "--parts", "1,1,2"],
                    lambda out: check_close("J(1,1,2)", float(out), 2 * SQRT_TWO_PI,
                                            2 * SQRT_TWO_PI)),
            self.op(["graph", "linearize", "--m", "2", "--n", "2"],
                    _exact_stdout('{"4":1,"2":4,"0":2}\n')),
            self.op(["expand", "deconvolve", "--coeffs", "0,0,1", "--sigma", "1"],
                    _exact_stdout("-1,0,1\n")),
            self.op(["expand", "gram-charlier", "--mu", "0", "--sigma", "1", "--nu3", "0",
                     "--nu4", "3", "--x", "0"],
                    lambda out: check_close("density at 0", float(out), 1 / SQRT_TWO_PI,
                                            1 / SQRT_TWO_PI)),
            self.op(["expand", "fourier-hermite", "--mu", "0.5", "--order", "30"],
                    _check_series(fh_want, fh_scale)),
            self.op(["expand", "wce", "--coeffs", "0,0,1", "--order", "4"],
                    _check_series([1, 0, 1, 0, 0], 2.0)),
            self.op(["expand", "fourier-check", "--n", "4", "--kmax", "3"],
                    _check_eigen_residual(4)),
        ]

    def _error_inputs(self):
        """Inputs the CLI must reject with exit 2 (argument) or 3 (input file)."""
        rng = self.rng
        missing = str(self.workdir / "missing.txt")
        duplicate = self._write("3\n1 2\n2 3\n2 1\n")
        loop = self._write("3\n1 2\n3 3\n")
        pairs = [f"{u} {v}" for u in range(1, 26) for v in range(u + 1, 26) if (u + v) % 3 == 0]
        too_big = self._write("25\n" + "\n".join(pairs) + "\n")
        bad_moments = self._write("0.0\n1.0\nthree\n")
        return [
            self.op(["quad", "--n", "0"], code=2),
            self.op(["quad", "--n", str(rng.randint(201, 400))], code=2),
            self.op(["poly", "--n", str(rng.randint(201, 500))], code=2),
            self.op(["plotdata", "--kind", "poly", "--n", "3", "--xmin", "1", "--xmax", "0",
                     "--samples", "5"], code=2),
            self.op(["plotdata", "--kind", "poly", "--n", "2", "--xmin", "0", "--xmax", "1",
                     "--samples", "1"], code=2),
            self.op(["graph", "matches", "--file", missing], code=3),
            self.op(["graph", "match-poly", "--file", duplicate], code=3),
            self.op(["graph", "matches", "--file", loop], code=3),
            self.op(["graph", "matches", "--file", too_big], code=2),
            self.op(["expand", "deconvolve", "--coeffs", "1,2", "--sigma", "-1"], code=2),
            self.op(["expand", "gram-charlier", "--moments-csv", bad_moments, "--x", "0"], code=3),
            self.op(["poly"], code=2),
            self.op(["graph", "product-integral", "--parts", "1,x"], code=2),
            self.op(["expand", "fourier-hermite", "--mu", "0", "--order", "150"], code=2),
        ]

    # -- seeded inputs ------------------------------------------------------

    def poly_op(self):
        rng = self.rng
        n, family = rng.randint(0, 200), rng.choice(("he", "h"))
        fmt = rng.choice(("csv", "tsv", "json"))
        want = [Fraction(c) for c in (he_coeffs(n) if family == "he" else h_coeffs(n))]
        return self.op(["poly", "--n", str(n), "--family", family, "--format", fmt],
                       lambda out: check_equal(f"{family}_{n}", _coeff_list(out, fmt), want))

    def quad_op(self):
        n = self.rng.randint(1, 200)
        return self.op(["quad", "--n", str(n)], _check_rule_table(n))

    def plotdata_op(self, kind, n=None):
        rng = self.rng
        fmt = rng.choice(("csv", "tsv", "json"))
        lo = round(rng.uniform(-6.0, 3.0), 2)
        hi = round(lo + rng.uniform(0.5, 6.0), 2)
        args = ["plotdata", "--kind", kind, "--xmin", str(lo), "--xmax", str(hi),
                "--samples", str(rng.randint(2, 25)), "--format", fmt]
        if kind == "series":
            coeffs = [round(rng.uniform(-1.0, 1.0), 3) for _ in range(rng.randint(1, 12))]
            density = rng.random() < 0.5
            args += ["--coeffs=" + ",".join(map(str, coeffs)),
                     "--convention", "density" if density else "plain"]

            def value_check(x, got):
                check_series_value(f"series at {x!r}", got, coeffs, x, density)
        else:
            family = rng.choice(("he", "h"))
            n = rng.randint(0, 60) if n is None else n
            args += ["--n", str(n), "--family", family]

            def value_check(x, got):
                log_weight = 0.0
                if kind == "function":
                    log_weight = -x * x / (4.0 if family == "he" else 2.0)
                check_hermite_value(f"{kind} {family}_{n}({x!r})", got, n, x, family, log_weight)

        def check(out):
            rows = _rows(out, fmt, ("x", "value"))
            if len(rows) != int(args[args.index("--samples") + 1]):
                raise Mismatch(f"expected {args[args.index('--samples') + 1]} rows")
            for x, value in rows:
                value_check(float(x), float(value))
        defect = "hermite-function-nan" if kind == "function" and n >= 200 else None
        return self.op(args, check, defect=defect)

    def _graph_file(self):
        # at most 14 vertices: a larger memo would make the largest child's
        # RSS depend on which graphs the seed drew
        rng = self.rng
        if rng.random() < 0.3:
            m = rng.randint(2, 14)
            edges = [(u, v) for u in range(1, m + 1) for v in range(u + 1, m + 1)]
            return m, edges, complete_graph_counts(m)
        m = rng.randint(2, 12)
        p = rng.uniform(0.2, 0.8)
        edges = [(u, v) for u in range(1, m + 1) for v in range(u + 1, m + 1) if rng.random() < p]
        return m, edges, None

    def matching_op(self):
        rng = self.rng
        m, edges, counts = self._graph_file()
        rng.shuffle(edges)
        path = self._write(f"{m}\n" + "".join(f"{u} {v}\n" for u, v in edges))
        counts = counts or match_counts(m, edges)
        fmt = rng.choice(("csv", "tsv", "json"))
        mode = rng.choice(("match-poly", "matches", "matches-j"))
        if mode == "match-poly":
            want = [0] * (m + 1)
            for j, c in enumerate(counts):
                want[m - 2 * j] = (-1) ** j * c
            return self.op(["graph", "match-poly", "--file", path, "--format", fmt],
                           lambda out: check_equal("matching polynomial", _coeff_list(out, fmt),
                                                   want))
        if mode == "matches":
            want = [[str(j), str(c)] for j, c in enumerate(counts)]
            return self.op(["graph", "matches", "--file", path, "--format", fmt],
                           lambda out: check_equal("match counts", _rows(out, fmt, ("j", "count")),
                                                   want))
        j = rng.randint(0, m // 2 + 1)
        want = f"{counts[j] if j < len(counts) else 0}\n"
        return self.op(["graph", "matches", "--file", path, "--j", str(j)], _exact_stdout(want))

    def kpartite_op(self):
        rng = self.rng
        parts = [rng.randint(0, 5) for _ in range(rng.randint(1, 4))]
        parts[0] = max(parts[0], 1)
        bounds, start = [], 1
        for size in parts:
            bounds.append(range(start, start + size))
            start += size
        edges = sorted((u, v) for i, a in enumerate(bounds) for b in bounds[i + 1:]
                       for u in a for v in b)
        text = "\n".join([str(sum(parts))] + [f"{u} {v}" for u, v in edges]) + "\n"
        return self.op(["graph", "kpartite", "--parts", ",".join(map(str, parts))],
                       _exact_stdout(text))

    def product_integral_op(self, low, high, parts_range):
        rng = self.rng
        parts = [rng.randint(low, high) for _ in range(rng.randint(*parts_range))]
        fmt = rng.choice(("plain", "csv", "tsv", "json"))
        count = perfect_matches(parts)
        value = scaled_float(count, math.log(SQRT_TWO_PI))

        def check(out):
            if fmt == "plain":
                got_count, got_value = count, float(out)
            elif fmt == "json":
                data = json.loads(out)
                got_count, got_value = int(data["P"]), float(data["J"])
            else:
                (label, got, j_value), = _rows(out, fmt, ("parts", "P", "J"))
                got_count, got_value = int(got), float(j_value)
            check_equal(f"P{parts}", got_count, count)
            check_close(f"J{parts}", got_value, value, abs(value))
        defect = "product-integral-recursion" if sum(parts) >= 1000 else None
        return self.op(["graph", "product-integral", "--parts", ",".join(map(str, parts)),
                        "--format", fmt], check, defect=defect)

    def linearize_op(self):
        rng = self.rng
        m, n = rng.randint(0, 40), rng.randint(0, 40)
        fmt = rng.choice(("csv", "tsv", "json"))
        table = linearization(m, n)

        def check(out):
            if fmt == "json":
                got = {int(k): v for k, v in json.loads(out).items()}
            else:
                got = {int(k): int(v) for k, v in _rows(out, fmt, ("l", "coefficient"))}
            check_equal(f"He_{m} He_{n}", got, table)
        return self.op(["graph", "linearize", "--m", str(m), "--n", str(n), "--format", fmt],
                       check)

    def fourier_hermite_op(self):
        rng = self.rng
        mu, order = round(rng.uniform(-1.0, 1.0), 3), rng.randint(0, 40)
        return self.op(["expand", "fourier-hermite", "--mu", str(mu), "--order", str(order)],
                       _check_series(*fourier_hermite_exact(mu, order)))

    def wce_op(self):
        rng = self.rng
        coeffs = [rng.randint(-5, 5) for _ in range(rng.randint(1, 7))]
        order = rng.randint(0, 30)
        chaos = monomial_to_he_basis(coeffs)
        want = [float(c) for c in chaos[:order + 1]] + [0.0] * (order + 1 - len(chaos))
        scale = max(abs(float(c)) * math.factorial(n) for n, c in enumerate(chaos)) or 1.0
        return self.op(["expand", "wce", "--coeffs=" + ",".join(map(str, coeffs)),
                        "--order", str(order)], _check_series(want, scale))

    def gram_charlier_op(self):
        rng = self.rng
        mu, sigma = round(rng.uniform(-1.0, 1.0), 3), round(rng.uniform(0.5, 2.0), 3)
        nus = [round(rng.uniform(-1.0, 1.0), 3), round(rng.uniform(2.0, 6.0), 3)]
        x = round(rng.uniform(mu - 3 * sigma, mu + 3 * sigma), 3)
        if rng.random() < 0.5:
            order = rng.randint(0, 4)
            args = ["--mu", str(mu), "--sigma", str(sigma), "--nu3", str(nus[0]),
                    "--nu4", str(nus[1])]
        else:
            order = rng.randint(5, 8)
            nus += [round(rng.uniform(-5.0, 5.0), 3) for _ in range(order - 4)]
            args = ["--moments-csv", self._write("\n".join(map(str, [mu, sigma, *nus])) + "\n")]
        want, scale = gram_charlier_value(mu, sigma, nus, order, x)
        return self.op(["expand", "gram-charlier", *args, "--order", str(order), "--x", str(x)],
                       lambda out: check_close("Gram-Charlier density", float(out), want, scale))

    def deconvolve_op(self):
        rng = self.rng
        coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(1, 10))]
        sigma = rng.choice(("0.25", "0.5", "1", "1.5", "2"))

        def check(out):
            blurred = gaussian_blur(_coeff_list(out, "csv"), Fraction(sigma))
            want = [Fraction(c) for c in coeffs]
            while len(want) > 1 and want[-1] == 0:
                want.pop()
            check_equal("blur of the deconvolution", blurred, want)
        return self.op(["expand", "deconvolve", "--coeffs=" + ",".join(map(str, coeffs)),
                        "--sigma", sigma], check)

    def fourier_check_op(self):
        rng = self.rng
        n, kmax = rng.randint(0, 40), round(rng.uniform(1.0, 4.0), 2)
        return self.op(["expand", "fourier-check", "--n", str(n), "--kmax", str(kmax)],
                       _check_eigen_residual(n))

    # -- rounds ---------------------------------------------------------------

    def round(self):
        """Five invocations: a README example, a rejected input or a
        known-defect input in turn, then four seeded ones; every seven
        rounds cover each seeded kind and every subcommand."""
        i = self.rounds_built
        self.rounds_built += 1
        special = i % 3
        if special == 0:
            first = self.readme[(i // 3) % len(self.readme)]
        elif special == 1:
            first = self.errors[(i // 3) % len(self.errors)]
        elif i % 2:
            # part sizes in the thousands: the recursion defect
            first = self.product_integral_op(1000, 3000, (2, 3))
        else:
            first = self.plotdata_op("function", n=400)
        seeded = (
            self.poly_op, self.quad_op,
            lambda: self.plotdata_op(("poly", "function", "series")[i % 3]),
            self.matching_op,
            (self.kpartite_op, lambda: self.product_integral_op(0, 12, (2, 4)),
             self.linearize_op)[i % 3],
            (self.fourier_hermite_op, self.wce_op, self.gram_charlier_op)[i % 3],
            (self.deconvolve_op, self.fourier_check_op)[i % 2],
        )
        ops = [first] + [seeded[(4 * i + k) % len(seeded)]() for k in range(4)]
        self.rng.shuffle(ops)
        return ops

    def warm_up_ops(self):
        return [self.op(["poly", "--n", "2"], _exact_stdout("-1,0,1\n"))]
