"""One benchmark worker process: set up, run a workload, report on stdout.

Started by run.py with src/ on PYTHONPATH.  It prints "ready" once set-up
is done (interpreter start, import hermite_kit, input generation and a
warm-up of every operation kind), then runs a fixed number of rounds and
prints one JSON line with the raw and speed-scaled latencies.  With
--mode setup it exits after "ready".
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import sys
import time
from pathlib import Path

import hermite_kit

import workloads
from cli_session import CliSession
from speed import NEIGHBOURS, SpeedTrack, interpreter_probe, process_probe
from tracer import NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
# a run stops early past this wall time, so that it still ends within
# three minutes on a much slower program
WALL_LIMIT_S = 120

IN_PROCESS = {w.name: w for w in (workloads.ExpandSmall, workloads.ExpandLarge,
                                  workloads.ExactCombinatorics)}


def machine_facts():
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    scipy = sys.modules.get("scipy")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__ if scipy else "not imported by hermite_kit",
    }


class Phase:
    """Results of running whole rounds of a workload."""

    def __init__(self, probe=interpreter_probe):
        self.starts = []
        self.latencies = []
        self.kinds = []
        self.ok = []
        self.round_ends = []
        self.failures = []
        self.speed = SpeedTrack(probe)
        self.speed.sample(NEIGHBOURS)

    def run_round(self, ops, tracer, next_op_id):
        """Run the round's operations back to back, then check their outputs:
        the oracles stay outside the timed region and do not disturb the
        caches between calls.  Host-speed probes run between operations."""
        results = []
        for op in ops:
            self.speed.maybe_sample()
            tracer.op_id = next_op_id + len(self.latencies)
            start = time.perf_counter()
            try:
                with tracer.span("op." + op.kind):
                    results.append((op.call(tracer), None))
            except Exception as exc:   # a failing operation must not stop the run
                results.append((None, f"{type(exc).__name__}: {exc}"))
            self.latencies.append(time.perf_counter() - start)
            self.starts.append(start)
            self.kinds.append(op.kind)
        self.speed.maybe_sample()
        for op, (output, error) in zip(ops, results):
            if error is None:
                try:
                    op.check(output)
                except Exception as exc:   # an oracle mismatch or an unreadable output
                    error = f"{type(exc).__name__}: {exc}"
            self.ok.append(error is None)
            if error is not None:
                self.failures.append({"kind": op.kind, "error": error[:300],
                                      "known_defect": _known_defect(op, error)})
        self.round_ends.append(len(self.latencies))

    def report(self):
        """Raw latencies and latencies scaled to the reference host speed."""
        self.speed.sample(NEIGHBOURS)
        scaled = [latency * self.speed.scale(start, start + latency)
                  for start, latency in zip(self.starts, self.latencies)]
        return {"latencies": self.latencies, "scaled": scaled, "kinds": self.kinds,
                "ok": self.ok, "round_ends": self.round_ends, "failures": self.failures,
                "probes": self.speed.durations}


def _known_defect(op, error):
    if op.defect is None:
        return None
    signature, _ = workloads.KNOWN_DEFECTS[op.defect]
    return op.defect if signature in error else None


def run_rounds(workload, tracer, phase, rounds, wall_limit_s, first_op_id=0):
    """Closed loop: a fixed number of whole rounds, so that a seed always
    gives the same operations; stop early only past `wall_limit_s`.

    A full garbage collection runs between rounds, outside the timed
    region: the matching memo of a 20-vertex graph sits in a reference
    cycle of over a hundred MB, and without it peak RSS would measure when
    the collector happened to run rather than the working set of a round."""
    start = time.perf_counter()
    while len(phase.round_ends) < rounds and time.perf_counter() - start < wall_limit_s:
        phase.run_round(workload.round(), tracer, first_op_id)
        gc.collect()
    return phase


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), default="run")
    args = parser.parse_args(argv)
    sys.set_int_max_str_digits(0)

    rng = random.Random(f"{args.workload}:{args.seed}")
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == CliSession.name:
            workload = CliSession(rng, ROOT, workdir, dict(os.environ))
        else:
            workload = IN_PROCESS[args.workload](hermite_kit, rng)
        warm = Phase()
        warm.run_round(workload.warm_up_ops(), NullTracer(), 0)
        if hasattr(workload, "rule_orders"):
            workload.rule_orders.clear()
        gc.collect()
        gc.freeze()   # set-up objects stay out of the collections between rounds
        print("ready", flush=True)
        if args.mode == "setup":
            return 0

        result = {"facts": machine_facts(),
                  "warm_up_failures": warm.failures}
        # cli-session times child processes
        children = args.workload == CliSession.name
        probe = process_probe if children else interpreter_probe
        if args.trace:
            # the same number of rounds untraced and traced, on fresh inputs
            # each, so that spans and counts repeat exactly for a seed
            k = workload.trace_rounds
            untraced = run_rounds(workload, NullTracer(), Phase(probe), k, WALL_LIMIT_S / 2)
            tracer = Tracer()
            traced = run_rounds(workload, tracer, Phase(probe), k, WALL_LIMIT_S / 2,
                                first_op_id=len(untraced.latencies))
            result.update(untraced=untraced.report(), traced=traced.report(),
                          spans=tracer.spans, summary=tracer.summary(),
                          counts=dict(tracer.counts))
        else:
            # the work that takes about --seconds on the reference host
            rounds = max(3, round(args.seconds / workload.round_seconds))
            phase = run_rounds(workload, NullTracer(), Phase(probe), rounds,
                               min(WALL_LIMIT_S, 4 * args.seconds))
            result["timed"] = phase.report()
        usage = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
        result["peak_rss_kb"] = resource.getrusage(usage).ru_maxrss
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
