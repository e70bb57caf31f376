"""Host-speed correction for timings taken on a shared machine.

On a shared host the speed of a vCPU drifts by 20-40% over seconds to
minutes, with CPU time tracking wall time, so the same op can take 1.4 s in
one minute and 2.2 s in the next.  A median over one run cannot remove drift
that lasts longer than the run.  The benchmark therefore pins itself to one
CPU and starts a probe process on the same CPU that times a fixed reference
kernel every ``PROBE_INTERVAL_S`` for as long as the run measures.  The work
a run does is its wall time times the host's mean speed over it, so the
run's timings are scaled by the mean of ``REFERENCE_NOMINAL_S`` over each
reading.  The result reads as seconds at a fixed host speed: on an idle
host it is close to the raw wall time, and a change that makes entropart
slower or faster moves it by the same share as the raw time.

Readings taken only between ops were too few on workloads whose ops take
seconds, and the kernel's time jumps between a fast and a slow state from
one reading to the next.  So the probe samples evenly through the ops, and
the mean speed is used: unlike the median reading, it follows the share of
time spent in each state.  The probe takes the CPU for one kernel run, about
6 ms, per interval: about 1.5% of the run, the same on every commit.

The kernel uses Python and numpy only, never entropart, so no change to
entropart can move it.  It does what entropart's timings are made of, on
fixed data: rotate 256 points, split them recursively at the median of
each axis in turn into 16 cells held in small frozen dataclasses, take the
variance of the cell volumes and write the cells as JSON.

Run as a script, this file is the probe: it prints a line when it is ready,
then its readings as one JSON list when its standard input closes.
"""

from __future__ import annotations

import json
import os
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

# the kernel's time on an idle Intel Xeon vCPU at 2.1 GHz (Python 3.11, numpy 2)
REFERENCE_NOMINAL_S = 0.006
PROBE_INTERVAL_S = 0.4
_POINTS = np.random.default_rng(0).normal(size=(256, 2))
_ANGLES = np.linspace(0.0, np.pi / 2, 12)
_DEPTH = 4


@dataclass(frozen=True)
class _Cell:
    lower: tuple
    upper: tuple
    count: int

    def __post_init__(self):
        if self.count < 0:
            raise ValueError("negative count")


def _split(points, lower, upper, level, out):
    if level == _DEPTH:
        out.append(_Cell(tuple(lower), tuple(upper), len(points)))
        return
    axis = level % points.shape[1]
    order = np.argsort(points[:, axis], kind="stable")
    half = len(order) // 2
    cut = 0.5 * (points[order[half - 1], axis] + points[order[half], axis])
    low_upper, high_lower = list(upper), list(lower)
    low_upper[axis] = high_lower[axis] = cut
    _split(points[order[:half]], lower, low_upper, level + 1, out)
    _split(points[order[half:]], high_lower, upper, level + 1, out)


def _kernel() -> float:
    acc = 0.0
    for angle in _ANGLES:
        c, s = np.cos(angle), np.sin(angle)
        points = _POINTS @ np.array([[c, -s], [s, c]])
        cells: list[_Cell] = []
        _split(points, list(points.min(axis=0)), list(points.max(axis=0)), 0, cells)
        volumes = np.array([np.prod(np.subtract(x.upper, x.lower)) for x in cells])
        acc += float(np.var(volumes / volumes.sum()))
        acc += len(json.dumps([{"lo": x.lower, "hi": x.upper, "n": x.count} for x in cells]))
    return acc


def reference_seconds() -> float:
    """CPU seconds of one run of the reference kernel.

    CPU time, because the probe shares its CPU with the run and may be
    preempted mid-kernel; on these hosts CPU time slows with the vCPU as
    wall time does.
    """
    start = time.process_time()
    _kernel()
    return time.process_time() - start


def pin_to_one_cpu() -> int:
    """Pin this process, and so every child it starts, to one CPU; returns it.

    The probe and the CLI processes of a workload must run on the CPU whose
    speed the probe measures, and the two vCPUs of a small host drift
    independently.  The benchmark runs one thing at a time, so one CPU is
    all it uses.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Probe:
    """A child process that reads the reference kernel every PROBE_INTERVAL_S.

    Use as a context manager; ``readings`` holds the readings once the block
    ends.  The child is stopped and waited for on every way out of the block.
    A probe made with ``enabled=False`` starts nothing and reads nothing.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.readings: list[float] = []
        self._proc = None

    def __enter__(self):
        if not self.enabled:
            return self
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE
        )
        self._proc.stdout.readline()  # started, so its start-up takes no time from the run
        return self

    def __exit__(self, *exc):
        proc = self._proc
        if proc is None:
            return False
        try:
            out, _ = proc.communicate(timeout=30)  # closes stdin, which stops the probe
            if proc.returncode == 0:
                self.readings = json.loads(out)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        return False

    def scale(self) -> float:
        """Seconds at the nominal host speed per wall second: the mean speed
        over the run, as the mean of nominal over each reading."""
        if not self.readings:
            raise RuntimeError("the host-speed probe returned no readings")
        return statistics.mean(REFERENCE_NOMINAL_S / r for r in self.readings)


def _probe() -> None:
    _kernel()  # warm up
    print("ready", flush=True)
    readings = []
    while not select.select([sys.stdin], [], [], PROBE_INTERVAL_S)[0]:
        readings.append(reference_seconds())
    print(json.dumps(readings))


if __name__ == "__main__":
    _probe()
