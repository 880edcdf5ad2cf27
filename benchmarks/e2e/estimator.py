"""How a run turns wall-clock samples into numbers that repeat.

The sandbox this runs in is a small shared VM with two kinds of noise
(README.md, "Why calibrate").  The hypervisor takes the CPU away for
tens of milliseconds at a time (up to 30 % of a second in bad minutes):
that is *steal*, and ``Stopwatch`` leaves it out by timing in busy
seconds, the process's CPU time plus the time its CPU sat idle.  And the
CPU itself runs 1.3-2x slower for seconds to minutes when its
hyperthread sibling is busy, with nothing in ``/proc`` to show for it:
pinned to one CPU, the lower quartile of raw rep times of the same code
differed by 16-22 % between back-to-back 24 s runs.  No statistic of the
reps alone survives that, so every timed region is bracketed by
``calibrate()``, a fixed amount of reference work, and reported in
*nominal* seconds: busy seconds divided by how much slower than
``NOMINAL_CAL_S`` the calibrations on either side of it ran.

The reference work is thread hand-offs and nothing else.  Of the
kinds tried (arithmetic loop, semaphore hand-offs, hand-offs with work
between them, allocation churn, a Condition-and-mailbox RPC loop,
compile+exec, cache-resident and cache-missing numpy gathers), alone
and in every combination, hand-offs tracked the runtime best on every
workload; adding any other kind made the result repeat worse.

Every timing metric goes through the same estimator,
``nominal_seconds``.  The lower quartile of raw wall time, which is
what a reader on another machine can compare with, is printed beside
it (``lower_quartile``).
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np

CAL_HANDOFFS = 3000
# calibrate() on the machine the baseline was recorded on (2.1 GHz Xeon
# vCPU, CPython 3.11) when nothing else contends for the core: the 5th
# percentile of ~2000 calibrations taken over an hour.  It fixes the
# unit and nothing else: nominal seconds are seconds of that machine,
# so values from two hosts or two Pythons are not comparable, only
# values from one.  The unit cannot come from the run itself: the
# quietest calibration of a 24 s run differed by 3-24 % between ten
# back-to-back runs (whole runs sit in a slow period), and tasks_per_s
# scaled by it repeated to 4-24 % where this constant gives 1-6 %
# (README.md, "Why calibrate").  Every listing prints how the run's
# quietest calibration compares (``slowdown_x`` min).
NOMINAL_CAL_S = 8.7e-6 * CAL_HANDOFFS

_USER_HZ = os.sysconf("SC_CLK_TCK")


class HarnessError(RuntimeError):
    """The harness refuses to produce numbers (the message says why)."""


def cpu_idle_seconds(cpu: int) -> float:
    """Idle + iowait time of one CPU since boot (10 ms resolution)."""
    prefix = "cpu%d " % cpu
    with open("/proc/stat") as stat:
        for line in stat:
            if line.startswith(prefix):
                fields = line.split()
                return (int(fields[4]) + int(fields[5])) / _USER_HZ
    raise HarnessError("no %r line in /proc/stat; cannot time" % prefix)


class Stopwatch:
    """Times a ``with`` block in a process pinned to one CPU.

    ``busy`` is what the block cost on a CPU that was ours alone: the
    CPU time of this process's threads plus the time the CPU idled
    (every rank asleep on a timer counts; a poll interval made longer
    must show).  What it leaves out of ``wall`` is time stolen by the
    hypervisor and time other processes ran on the CPU.
    """

    __slots__ = ("cpu_id", "wall", "cpu", "busy", "_t0", "_cpu0", "_idle0")

    def __init__(self) -> None:
        (self.cpu_id,) = os.sched_getaffinity(0)

    def __enter__(self) -> "Stopwatch":
        self._idle0 = cpu_idle_seconds(self.cpu_id)
        self._cpu0 = time.process_time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall = time.perf_counter() - self._t0
        self.cpu = time.process_time() - self._cpu0
        idle = cpu_idle_seconds(self.cpu_id) - self._idle0
        # The idle counter ticks in 10 ms steps; never report a block
        # as longer than the wall clock saw it.
        self.busy = min(self.wall, self.cpu + idle)


def calibrate() -> float:
    """Busy seconds this machine needs right now for the reference
    work: two threads handing a token back and forth through
    semaphores."""
    ping, pong = threading.Semaphore(0), threading.Semaphore(0)

    def partner() -> None:
        for _ in range(CAL_HANDOFFS):
            ping.acquire()
            pong.release()

    thread = threading.Thread(target=partner)
    with Stopwatch() as watch:
        thread.start()
        for _ in range(CAL_HANDOFFS):
            ping.release()
            pong.acquire()
        thread.join()
    return watch.busy


class Pace:
    """How much slower than nominal the machine ran over an interval:
    the mean of the calibrations at its two ends over ``NOMINAL_CAL_S``.
    Consecutive intervals share the calibration between them."""

    def __init__(self) -> None:
        self.last = calibrate()

    def slowdown(self) -> float:
        """Close the interval that began at the previous calibration."""
        before, self.last = self.last, calibrate()
        return (before + self.last) / (2 * NOMINAL_CAL_S)


def nominal_seconds(seconds, slowdowns) -> float:
    """The run's estimate of one sample's duration on a quiet machine:
    the median of busy time over slow-down, sample by sample.

    Not the lower quartile of raw wall time: that assumes noise only
    ever adds time *within* a run, and here whole runs sit in a slow
    period.  Once the drift is divided out what is left is two-sided
    (a calibration can be hit as well as a rep), and the median
    shrugs off the sample whose burst the calibrations missed.  (Over
    160 recorded runs the median, the lower quartile and two trimmed
    means of the calibrated samples all repeated alike, 2.5-4 %; what
    is left is how unlike the hand-offs a workload is, not the
    statistic.)"""
    return float(np.median(np.asarray(seconds) / np.asarray(slowdowns)))


def lower_quartile(values) -> float:
    return float(np.percentile(values, 25))


def summary(values) -> dict[str, float]:
    """Raw distribution of a sample set, printed beside the estimate."""
    q25, median, q75 = (float(v) for v in np.percentile(values, [25, 50, 75]))
    return {
        "q25": q25,
        "median": median,
        "iqr": q75 - q25,
        "min": float(min(values)),
        "n": len(values),
    }
