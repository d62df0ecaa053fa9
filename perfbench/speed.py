"""A host speed probe, for times that do not follow the host's speed swings.

On a shared virtual machine the same Python work can take 1.8 times as long
from one moment to the next: the host changes how fast it runs the guest
every few hundred milliseconds, and CPU time follows the change, not only
wall time.  The probe measures that speed while the workload runs.  A timer
interrupts the process every ``INTERVAL_S`` seconds of wall time, and the
signal handler runs ``probe_work`` -- a fixed piece of interpreter-bound
work of the same kind as identkit's (a tuple-keyed dict of big integers,
modular products, a call per term, a sort) -- and records its CPU time.

``Probe.scaled(wall0, wall1, user, system)`` turns the CPU seconds a piece of
work took between two wall-clock instants into CPU seconds at the
reference speed: the probe's own CPU time in the window is taken off the
user time, and the rest is multiplied by the mean of ``REFERENCE_S /
sample`` over the probe samples in the window (the three nearest when fewer
fall inside).  The mean of the inverse is the right average: work done at
speed 1/f for a time t counts t/f.  System time (page faults, forks, file
reads) does not run at the interpreter's speed and is added as measured.

``REFERENCE_S`` is the probe's median CPU time on the 2-vCPU x86-64 host the
benchmark was calibrated on, so scaled times there read close to raw ones.
It is a constant: runs on one host are comparable, whatever its speed was.
"""

from __future__ import annotations

import gc
import signal
import time

INTERVAL_S = 0.04
REFERENCE_S = 0.00055
NEAREST = 3
WARM_UP = 20


def _term(value: int, key: tuple) -> tuple:
    return (value * 3 + key[0]) % 1000003, (key[1], key[0])


def probe_work() -> int:
    """About half a millisecond of dict, big-integer and call overhead."""
    p = 4611686018427387847
    poly = {}
    x = 987654321
    for i in range(260):
        x = x * 48271 % p
        key = (i % 7, (x >> 5) % 5, i % 3)
        poly[key] = (poly.get(key, 0) + x) % p
        _term(x, key)
    items = sorted(poly.items())
    return sum(v for _, v in items[:20]) + len([k for k in items if k[0][0] == 1])


class Probe:
    """Samples (wall start, CPU seconds) of ``probe_work`` on a wall-clock timer."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._previous = None

    def start(self) -> None:
        for _ in range(WARM_UP):  # the interpreter specialises code after a few runs
            probe_work()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def _tick(self, signum, frame) -> None:
        # The collector is paused so that it does not run, on the workload's
        # garbage, inside the timed probe.
        collecting = gc.isenabled()
        gc.disable()
        wall, cpu = time.perf_counter(), time.thread_time()
        probe_work()
        self.samples.append((wall, time.thread_time() - cpu))
        if collecting:
            gc.enable()

    def window(self, wall0: float, wall1: float) -> tuple[float, float]:
        """(speed factor, probe CPU seconds) for the work between two instants."""
        inside = [s for s in self.samples if wall0 <= s[0] <= wall1]
        own = sum(c for _, c in inside)
        if len(inside) < NEAREST:
            middle = (wall0 + wall1) / 2
            inside = sorted(self.samples, key=lambda s: abs(s[0] - middle))[:NEAREST]
        if not inside:
            raise RuntimeError("no probe samples: the probe timer never fired")
        return sum(REFERENCE_S / c for _, c in inside) / len(inside), own

    def scaled(self, wall0: float, wall1: float, user: float, system: float) -> float:
        """CPU seconds spent between two instants, user time at the reference speed."""
        factor, own = self.window(wall0, wall1)
        return max(0.0, user - own) * factor + system
