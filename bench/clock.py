"""A stopwatch calibrated against the current speed of the CPU.

A CPU shared with other tenants switches between speeds about 1.7x apart,
for stretches of a second to minutes.  On a 2-vCPU Xeon virtual machine a
fixed loop took 75 ms in one regime and 125 ms in the other, and identical
``grid`` passes took 4.7 s and 7.8 s.  No statistic over raw wall times
removes that, because a whole run can sit in one regime.  So the stopwatch
times a fixed piece of interpreter work, the probe, when it starts, when it
stops and every PROBE_EVERY_S in between (from a SIGALRM handler, which runs
between bytecodes of the timed code).  Each stretch between two probes is
rescaled by the mean of the two probe times to the speed at which the probe
takes PROBE_REF_S.  Probe time is excluded from both the raw and the
calibrated time.
"""

from __future__ import annotations

import cmath
import signal
import time

PROBE_ITERS = 1500
#: about the probe's time on an uncontended core of the reference machine
PROBE_REF_S = 0.0065
PROBE_EVERY_S = 0.25


class _Wave:
    __slots__ = ("scale", "rate")

    def __init__(self, scale: float, rate: float):
        self.scale = scale
        self.rate = rate

    def at(self, x: float) -> complex:
        return self.scale * cmath.exp(1j * self.rate * x)


def probe() -> float:
    """Seconds the fixed probe work takes now.

    The work mixes what the interpreter does for the benchmarked program:
    object creation, method calls, complex math, tiny numpy arrays, dicts and
    float formatting.  Such a mix slows about as much as the program when the
    CPU is contended; a tight complex-math loop alone slowed about 17% less.
    numpy is imported here, not at module level, so that the timed import of
    the program pays for it.
    """
    import numpy as np

    t0 = time.perf_counter()
    grid = np.arange(4.0)
    acc = 0j
    for i in range(PROBE_ITERS):
        w = _Wave(i * 1e-3, 0.5)
        acc += w.at(0.3) + complex(np.exp(1j * grid * w.scale)[i & 3])
        row = {"k": i, "v": format(w.scale, ".17g")}
        acc += row["k"] * 1e-9
    return time.perf_counter() - t0


def calibrate(seconds: float) -> float:
    """``seconds`` measured just now, rescaled to the reference speed.

    The first probe of a process pays one-off costs (numpy's first calls),
    so the second one is used."""
    probe()
    return seconds * PROBE_REF_S / probe()


class CalibratedTimer:
    """``with CalibratedTimer() as t: ...`` then ``t.raw_s``, ``t.calibrated_s``, ``t.cpu_s``."""

    def __init__(self):
        self.probes: list[tuple[float, float, float]] = []  # (start, end, probe seconds)
        self.probe_cpu_s = 0.0
        self.cpu0 = 0.0
        self.cpu_s = 0.0
        self._busy = False

    def _probe(self, *_signal_args) -> None:
        if self._busy:
            return
        self._busy = True
        c0, t0 = time.process_time(), time.perf_counter()
        p = probe()
        self.probes.append((t0, time.perf_counter(), p))
        self.probe_cpu_s += time.process_time() - c0
        self._busy = False

    def __enter__(self) -> "CalibratedTimer":
        probe()  # one-off costs of a first probe stay out of the record
        self.cpu0 = time.process_time()
        self._probe()
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._probe()
        self.cpu_s = time.process_time() - self.cpu0 - self.probe_cpu_s

    @property
    def raw_s(self) -> float:
        return sum(s1 - e0 for (_, e0, _), (s1, _, _) in zip(self.probes, self.probes[1:]))

    @property
    def calibrated_s(self) -> float:
        return sum(
            (s1 - e0) * PROBE_REF_S / (0.5 * (p0 + p1))
            for (_, e0, p0), (s1, _, p1) in zip(self.probes, self.probes[1:])
        )
