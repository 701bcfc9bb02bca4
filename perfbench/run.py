"""hermite-kit benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from a source checkout; nothing needs to be installed.  Workers run as
`python perfbench/worker.py` with src/ on PYTHONPATH and BLAS/OpenMP pinned
to one thread, one process at a time.

--trace 0 measures the end-to-end metrics: set-up time (median of several
set-ups), completed operations per second, median and tail latency, and
peak RSS.  A run does a fixed number of rounds, the work that takes about
--seconds on the reference host, so a seed always gives the same
operations.  Times are scaled to the reference host speed with the probes
of speed.py; the unscaled values are printed beside them.  --trace 1 runs
a fixed number of rounds untraced and then traced, and prints the
per-layer metrics from spans around the benchmark's calls into each
module, plus import times read with -X importtime.  The last line of
stdout is one JSON object; the exit code is nonzero if an output
disagreed with its oracle for any reason other than a known defect.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import NEIGHBOURS, SpeedTrack, process_probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

WORKLOADS = ("cli-session", "expand-small", "expand-large", "exact-combinatorics")
SETUP_REPEATS = 5
IMPORT_PROBES = 5
WORKER_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

LAYER_SPANS = (
    "cli.poly", "cli.quad", "cli.plotdata", "cli.graph", "cli.expand",
    "quadrature.rule", "quadrature.integrate", "quadrature.cubature",
    "expansions.fourier_hermite", "expansions.wce_1d", "expansions.wce_multi",
    "expansions.gram_charlier", "expansions.evaluate_series", "expansions.deconvolve",
    "expansions.fourier_eigen", "expansions.wce_reconstruct",
    "polynomials.eval", "polynomials.exact", "polynomials.gram_schmidt",
    "moments.change_of_basis", "moments.compose",
    "graphs.match_table", "graphs.complete_matches", "graphs.product_integral",
    "graphs.linearize",
)
LAYER_COUNTS = (
    "quadrature.integrand_evals", "quadrature.cubature.points",
    "expansions.fourier_hermite.integrand_evals", "expansions.wce_1d.integrand_evals",
    "expansions.wce_multi.integrand_evals", "moments.entries", "graphs.match_table.edges",
)


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_worker(args, mode, env):
    """Start one worker; return (set-up seconds raw and scaled to the
    reference host speed, result dict or None)."""
    command = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--mode", mode]
    speed = SpeedTrack(process_probe)
    speed.sample(NEIGHBOURS)
    start = time.perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        end = time.perf_counter()
        speed.sample(NEIGHBOURS)
        setup_s = (end - start, (end - start) * speed.scale(start, end))
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker did not finish within {WORKER_TIMEOUT_S} s")
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker failed during {mode} (exit {proc.returncode})")
    return setup_s, (json.loads(out.splitlines()[-1]) if mode == "run" else None)


def import_times(env):
    """Median over fresh interpreters of `import hermite_kit` under -X importtime:
    the whole import, and the outermost numpy and scipy imports within it."""
    samples = {"total": [], "numpy": [], "scipy": []}
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import hermite_kit"],
                              cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError("import hermite_kit failed in a fresh interpreter")
        entries = []
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "cumulative" in line:
                continue
            _, cumulative, name = line[len("import time:"):].split("|")
            depth = (len(name) - len(name.lstrip())) // 2
            entries.append((depth, name.strip(), int(cumulative) / 1e3))
        # -X importtime prints children before their parent; walk it backwards
        # so that each entry's ancestors are on the stack.  numpy modules that
        # scipy pulls in count as scipy, so the two shares do not overlap.
        totals = {"total": 0.0, "numpy": 0.0, "scipy": 0.0}
        stack = []
        for depth, name, ms in reversed(entries):
            del stack[depth:]
            package = name.split(".")[0]
            owners = {a.split(".")[0] for a in stack}
            if name == "hermite_kit" and depth == 0:
                totals["total"] = ms
            elif package == "scipy" and "scipy" not in owners:
                totals["scipy"] += ms
            elif package == "numpy" and not owners & {"numpy", "scipy"}:
                totals["numpy"] += ms
            stack.append(name)
        for key, value in totals.items():
            samples[key].append(value)
    return {key: statistics.median(values) for key, values in samples.items()}


def tail(latencies):
    """The highest percentile that still has ten samples beyond it: the
    eleventh-largest latency.  Returns (value, percentile)."""
    n = len(latencies)
    if n < 11:
        raise BenchError(f"{n} operations are too few for a tail percentile")
    return sorted(latencies)[n - 11], 100.0 * (n - 10) / n


def failures_line(phase_reports):
    attempted = sum(len(r["latencies"]) for r in phase_reports)
    failures = [f for r in phase_reports for f in r["failures"]]
    known = {}
    for f in failures:
        if f["known_defect"]:
            known[f["known_defect"]] = known.get(f["known_defect"], 0) + 1
    unexpected = [f for f in failures if not f["known_defect"]]
    text = (f"failed_frac {len(failures) / attempted:.4f} ({len(failures)} of {attempted}; "
            f"known defects {known or 'none'}; unexpected {len(unexpected)})")
    return attempted, failures, unexpected, text


def time_metrics(setups, latencies, ok):
    """setup_s, ops_per_s, latency_p50_ms and latency_tail_ms from set-up
    times and operation latencies in seconds; returns (metrics, tail
    percentile)."""
    tail_s, tail_p = tail(latencies)
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": sum(ok) / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
    }, tail_p


def end_to_end(args, env):
    setups = [run_worker(args, "setup", env)[0] for _ in range(SETUP_REPEATS - 1)]
    setup_s, result = run_worker(args, "run", env)
    setups.append(setup_s)
    timed = result["timed"]
    ok = timed["ok"]
    n = len(ok)
    scaled, tail_p = time_metrics([s for _, s in setups], timed["scaled"], ok)
    raw, _ = time_metrics([r for r, _ in setups], timed["latencies"], ok)
    units = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms"}
    metrics = {name: (value, units[name]) for name, value in scaled.items()}
    metrics["peak_rss_mb"] = (result["peak_rss_kb"] / 1024.0, "MB")
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} set-ups",
        "ops_per_s": f"{sum(ok)} completed in {sum(timed['scaled']):.3f} scaled s of operations, "
                     f"{len(timed['round_ends'])} rounds",
        "latency_p50_ms": f"{n} samples",
        "latency_tail_ms": f"p{tail_p:.2f} of {n} samples, 10 beyond",
        "peak_rss_mb": "largest child process" if args.workload == "cli-session"
                       else "worker process",
    }
    for name, value in raw.items():
        notes[name] += f"; unscaled {value:.6g}"
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"run-{args.workload}-seed{args.seed}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "facts": result["facts"],
         "setups_s": setups, "timed": timed}))
    attempted, failures, unexpected, text = failures_line([timed])
    lines = [f"{name} {value:.6g} {unit} ({notes[name]})"
             for name, (value, unit) in metrics.items()]
    lines.append(text)
    return result, metrics, attempted, failures, unexpected + result["warm_up_failures"], lines


def per_layer(args, env):
    _, result = run_worker(args, "run", env)
    imports = import_times(env)
    summary, counts = result["summary"], result["counts"]
    metrics = {
        "import.total_ms": (imports["total"], "ms"),
        "import.numpy_ms": (imports["numpy"], "ms"),
        "import.scipy_ms": (imports["scipy"], "ms"),
    }
    for name in LAYER_SPANS:
        entry = summary.get(name, {"calls": 0, "busy_ms": 0.0})
        metrics[name + ".calls"] = (entry["calls"], "count")
        metrics[name + ".busy_ms"] = (entry["busy_ms"], "ms")
    cli_calls = sum(summary.get(n, {}).get("calls", 0) for n in LAYER_SPANS if n.startswith("cli."))
    cli_busy = sum(summary.get(n, {}).get("busy_ms", 0.0) for n in LAYER_SPANS
                   if n.startswith("cli."))
    metrics["cli.work_ms"] = (cli_busy / cli_calls - imports["total"] if cli_calls else 0.0, "ms")
    requests = counts.get("quadrature.rule.requests", 0)
    metrics["quadrature.rule.repeat_frac"] = (
        counts.get("quadrature.rule.repeats", 0) / requests if requests else 0.0, "fraction")
    for name in LAYER_COUNTS:
        metrics[name] = (counts.get(name, 0), "count")
    untraced, traced = result["untraced"], result["traced"]
    untraced_rate = len(untraced["scaled"]) / sum(untraced["scaled"])
    traced_rate = len(traced["scaled"]) / sum(traced["scaled"])
    metrics["trace.overhead_frac"] = (untraced_rate / traced_rate - 1.0, "fraction")

    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    trace_path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "facts": result["facts"],
        "span_fields": ["name", "start", "end", "parent", "op"], "spans": result["spans"],
        "summary": summary, "counts": counts,
    }))
    attempted, failures, unexpected, text = failures_line([untraced, traced])
    lines = [f"{'span':40s} {'calls':>7s} {'busy_ms':>12s} {'self_ms':>12s}"]
    lines += [f"{name:40s} {e['calls']:7d} {e['busy_ms']:12.3f} {e['self_ms']:12.3f}"
              for name, e in sorted(summary.items())]
    lines += [f"{name} {value:.6g} {unit}" for name, (value, unit) in metrics.items()
              if not name.endswith((".calls", ".busy_ms"))]
    lines += [text, f"spans written to {trace_path.relative_to(ROOT)}"]
    return result, metrics, attempted, failures, unexpected + result["warm_up_failures"], lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hermite_kit" / "__init__.py").is_file():
        print(f"perfbench: no hermite_kit sources under {SRC}", file=sys.stderr)
        return 2
    try:
        measure = per_layer if args.trace else end_to_end
        result, metrics, attempted, failures, unexpected, lines = measure(args, worker_env())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    facts = result["facts"]
    print(f"# {args.workload} seed {args.seed}: " + ", ".join(f"{k} {v}" for k, v in facts.items()))
    for line in lines:
        print(line)
    for f in unexpected:
        print(f"FAILED {f['kind']}: {f['error']}")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not unexpected else 1


if __name__ == "__main__":
    sys.exit(main())
