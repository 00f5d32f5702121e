"""Host speed, read from a fixed unit of reference work timed around and
during each measured call.

On a shared host the speed of this process's CPU changes with the load of
its neighbours: on a 2-core VM a fixed loop runs at one of two levels about
1.6x apart, switching every second or so, and the mix drifts over minutes,
so a run of a few tens of seconds does not average it out.  `Track.measure`
therefore times a short, fixed unit of work that is not `seqcs` code
(pure-Python arithmetic on small lists, row operations and a dict over rows
of a 1.5 MB table, a JSON round trip, a small numpy product and vector
operation; about 0.7 ms, with the garbage collector off) right before and
right after the call, and every INTERVAL_S during it from a SIGALRM timer.
It reports the call's time net of the units run inside it, and the factor
that brings that time to a fixed nominal host speed:

    time at nominal speed = net time x NOMINAL_S / median unit time

A program change does not move the unit, so it moves the reported time as
it moves the measured one; a slow moment of the host slows both the call and
the units timed in it, and cancels.
"""

from __future__ import annotations

import gc
import json
import random
import signal
import statistics
import time

import numpy as np

# duration of one reference unit at the nominal host speed; a unit conversion
# only, chosen near the unit's time on an unloaded 2-core Xeon VM
NOMINAL_S = 0.0007
INTERVAL_S = 0.05  # period of the units timed during a call

_rng = random.Random(0)
_ROWS = [[(i * 7 + j * 3) % 11 for j in range(12)] for i in range(12)]
_BIG = [[_rng.randrange(7) for _ in range(64)] for _ in range(3000)]
_KEYS = [tuple(row[:6]) for row in _BIG]
_MAT = np.arange(48 * 48, dtype=np.int64).reshape(48, 48) % 7
_VEC = np.arange(50_000, dtype=np.float64)


def _unit() -> int:
    acc = 0
    for _ in range(4):
        for row in _ROWS:
            acc = (acc + sum(a * b for a, b in zip(row, _ROWS[acc % 12]))) % 1000003
        acc += len({i: i * acc for i in range(200)})
    seen = {}
    for n, row in enumerate(_BIG[::150]):
        piv = row[n % 64]
        other = _BIG[(n * 7) % 3000]
        acc += sum((a * piv - b) % 7 for a, b in zip(row, other))
        seen[_KEYS[n]] = acc
    acc += len(json.loads(json.dumps(_BIG[:4]))) + len(seen)
    acc += int(((_MAT @ _MAT) % 7)[0, 0]) + int((_VEC * 1.5 + 2.0)[1])
    return acc


def time_unit() -> float:
    """Seconds one reference unit takes now, with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _unit()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Track:
    """Measures calls; keeps every unit time, in order, in `units`."""

    def __init__(self):
        self.units: list[float] = []
        self._inside = 0.0  # seconds spent in the timer's units during the current call
        self._busy = False
        for _ in range(20):  # warm-up: first-call costs are not host speed
            time_unit()

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        self.units.append(time_unit())
        self._inside += time.perf_counter() - start
        self._busy = False

    def measure(self, fn):
        """(fn(), seconds fn took net of the units timed during it, nominal-speed factor)."""
        first = len(self.units)
        self.units.append(time_unit())
        self._inside = 0.0
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - start  # after any unit still pending ran
            signal.signal(signal.SIGALRM, previous)
        net = elapsed - self._inside
        self.units.append(time_unit())
        return result, net, NOMINAL_S / statistics.median(self.units[first:])
