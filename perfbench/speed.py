"""Host-speed probes: scale measured times to a reference host speed.

On a shared host the same instructions can take twice as long from one
second to the next, because other tenants share the cores and caches.
The benchmark therefore runs a short fixed probe between operations, at
most every PROBE_EVERY_S, and scales each operation's latency by the
probe's reference time over the median of the probes nearest to it.  A
scaled latency reads as time on a host where the probe takes its
reference time; a change to hermite_kit moves it as it moves the raw
latency, while the host's changes of speed mostly cancel.  The raw
latencies are kept beside the scaled ones.

There are two probes.  Work done in this process is scaled by a loop of
interpreter work.  Work done in a child process (a CLI call, a worker's
set-up) is scaled by the start of a bare interpreter: it runs on whichever
CPU the scheduler picks, as the child does, and it tracks process start
and module loading far better than a loop does.
"""

from __future__ import annotations

import bisect
import math
import statistics
import subprocess
import sys
import time

PROBE_LOOPS = 6000
PROBE_EVERY_S = 0.025
NEIGHBOURS = 2   # probes taken on each side of an operation

_TABLE = [float(i) for i in range(4096)]


def interpreter_probe():
    """Seconds taken by a fixed piece of interpreter work."""
    start = time.perf_counter()
    table = _TABLE
    total = 0.0
    for i in range(PROBE_LOOPS):
        total += math.sqrt(table[(i * 2654435761) & 4095]) * (i & 7)
    return time.perf_counter() - start


def process_probe():
    """Seconds taken to start and stop a bare interpreter."""
    start = time.perf_counter()
    # with pipes, as the CLI calls are run: the wait ends when they close,
    # not at the next step of subprocess's polling back-off
    subprocess.run([sys.executable, "-c", "pass"], check=True, capture_output=True, timeout=60)
    return time.perf_counter() - start


# About each probe's time on a 2-vCPU Xeon VM (Python 3.11) when no other
# tenant slows it; they only fix the scale of the reported times.
REFERENCE_S = {interpreter_probe: 0.0008, process_probe: 0.05}


class SpeedTrack:
    """Probe samples along a run: when each ended, and how long it took."""

    def __init__(self, probe=interpreter_probe):
        self.probe = probe
        self.times = []
        self.durations = []
        self._last = -math.inf

    def sample(self, count=1):
        for _ in range(count):
            duration = self.probe()
            self.times.append(time.perf_counter())
            self.durations.append(duration)
        self._last = time.perf_counter()

    def maybe_sample(self):
        """Probe if PROBE_EVERY_S has passed since the last probe."""
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.sample()

    def scale(self, start, end):
        """The probe's reference time over the median of the NEIGHBOURS
        probes that ended before `start` and the NEIGHBOURS that ended
        after `end`."""
        before = bisect.bisect_right(self.times, start)
        after = bisect.bisect_left(self.times, end)
        near = (self.durations[max(0, before - NEIGHBOURS):before]
                + self.durations[after:after + NEIGHBOURS])
        if not near:
            raise ValueError("no probe near the interval")
        return REFERENCE_S[self.probe] / statistics.median(near)
