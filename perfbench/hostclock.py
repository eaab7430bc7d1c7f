"""Host-speed calibrated time: how long an interval would take on the reference host.

The benchmark's host is a small shared virtual machine.  Its speed drifts
by up to 2x within seconds and between minutes, and each of its two
virtual CPUs drifts on its own, while CPU time stays equal to wall time:
other tenants slow the cores themselves.  A wall-clock rate therefore
measures the neighbours as much as the program.

:class:`HostClock` interrupts the process every :data:`INTERVAL_S` seconds
(``SIGALRM``, handled in the main thread between bytecodes, wherever the
scheduler has put it) and times :class:`Probe`, a fixed piece of Python,
small-array numpy and cache-missing work shaped like the program's own.
The benchmark keeps the timed call to one CPU, so the probe times the
core the work runs on, threads included.  Each slice of the interval
between two probes is scaled by the host's speed around it (the median
of :data:`WINDOW` neighbouring probes) against :data:`REFERENCE_PROBE_S`,
the probe's time on the reference host speed.  The sum is the interval's
reference seconds: what the same work would have taken on a host that
runs the probe in exactly that time.  A change in the program moves it;
a change in host speed moves the probe nearly as much as the program and
largely cancels (a 2x wall-clock swing moved the reference rate by up to
about 20% on the host above).  The probes' own time is excluded, and is
about 3% of the interval.

The probe touches no state of the program (no random generator, no
module of ``repro``), so the interrupted work computes exactly what it
would have computed without it.
"""

import random
import signal
import statistics
import struct
import time
from typing import List, Tuple

import numpy as np

#: Seconds between two probes.
INTERVAL_S = 0.05
#: The probe's time at the reference host speed, in seconds.
REFERENCE_PROBE_S = 1.5e-3
#: Probes whose median gives the speed around one slice.
WINDOW = 3


class _Filter:
    __slots__ = ("value", "gain")

    def __init__(self) -> None:
        self.value = 0.0
        self.gain = 1.0

    def step(self, u: float) -> float:
        self.value = self.value * 0.9 + u * self.gain
        return self.value


class Probe:
    """A fixed amount of small-array numpy, object and struct work, and walks
    over a working set of a few MiB in a shuffled order.

    The walks matter: neighbours on the host slow code that misses the
    core's caches more than code that fits in them, and the program's
    objects do not fit.  Building the working set takes a few hundredths of
    a second, so it happens once, when the probe is made.
    """

    def __init__(self) -> None:
        shuffle = random.Random(1).shuffle
        filters = [_Filter() for _ in range(60000)]
        shuffle(filters)
        self.filters = filters[::60]
        self.table = {index * 7919 % 100003: float(index) for index in range(40000)}
        keys = list(self.table)
        shuffle(keys)
        self.keys = keys[::40]
        self.column = np.arange(64.0)
        self.ones = np.ones(64)

    def __call__(self) -> float:
        column = self.column.copy()
        for _ in range(150):
            column = np.minimum(column * 1.01, 50.0) + self.ones
            np.add(column, 0.5, out=column)
        state = _Filter()
        bits = 0
        for i in range(600):
            bits += state.step(i * 0.001) > 0.3
            bits ^= struct.unpack("<I", struct.pack("<I", i))[0] & 7
        total = 0.0
        for item in self.filters:
            total += item.step(0.5)
        table = self.table
        for key in self.keys:
            total += table[key]
        return total + float(column[0]) + bits


class HostClock:
    """Probes the host speed while started; converts intervals afterwards.

    Only one clock may run at a time (it owns ``SIGALRM``), and only
    from the main thread.
    """

    def __init__(self, interval_s: float = INTERVAL_S) -> None:
        self.interval_s = interval_s
        self.probe = Probe()
        #: (perf_counter at the probe's start, the probe's seconds)
        self.samples: List[Tuple[float, float]] = []
        self._previous = None

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def __enter__(self) -> "HostClock":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def _probe(self, signum, frame) -> None:
        start = time.perf_counter()
        self.probe()
        self.samples.append((start, time.perf_counter() - start))

    def measure(self, start: float, end: float) -> Tuple[float, float]:
        """``(net seconds, reference seconds)`` of ``[start, end]``.

        Net seconds are the wall time less the probes inside the interval;
        reference seconds scale each slice between probes by the host speed
        around it.  Raises if no probe fell inside the interval.
        """
        inside = [(at, took) for at, took in self.samples if start <= at and at + took <= end]
        if not inside:
            raise RuntimeError(f"no host-speed probe in an interval of {end - start:.3f} s")
        took = [duration for _, duration in inside]
        half = WINDOW // 2
        speeds = [
            REFERENCE_PROBE_S / statistics.median(took[max(0, index - half) : index + half + 1])
            for index in range(len(took))
        ]
        reference = 0.0
        previous_end = start
        for (at, duration), speed in zip(inside, speeds):
            reference += (at - previous_end) * speed
            previous_end = at + duration
        reference += (end - previous_end) * speeds[-1]
        return (end - start) - sum(took), reference
