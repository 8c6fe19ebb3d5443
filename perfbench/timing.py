"""Timing on a shared host.

On the 2-core host this benchmark was defined on, other tenants share the
cores.  The speed of identical work changes every few seconds, in steps,
between a quiet level and about half of it, and for minutes at a time it can
sit mostly at the slow end.  Raw medians of identical 30-second runs
differed by up to 35%.

A fixed reference computation that does not involve conekit is timed just
before and just after every measured call.  The call waits until the
reference runs near the fastest speed seen in the run, and is taken again if
the reference after it is slow; the attempt made in the quietest conditions
is kept.  Waiting and retries are limited to a share of the time measured,
so a run takes at most about 1.3x its work.  The kept time is then scaled by
(QUIET_REFERENCE_S / mean of its two references) ** ELASTICITY: the time
the call would have taken at the host's quiet speed.  That is a correction
of a few percent for a quiet attempt and a larger one for a slow attempt,
which is all that is left when quiet periods are rare.
"""

from __future__ import annotations

import math
import time

import numpy as np

QUIET_REFERENCE_S = 1.75e-3  # reference() on the defining host at its quiet speed
QUIET_SLACK = 1.25  # a reference within this factor of the fastest seen is quiet
ATTEMPTS = 3
# conekit's slowdown as a power of the reference's: fitted across runs of
# identical catalogue entries, 0.7 on detect and 0.8 on qpbound
ELASTICITY = 0.75
WAIT_SHARE = 0.3  # seconds of waiting and retries allowed per second measured
WAIT_GRANT_S = 1.0  # waiting allowed before anything has been measured

_M = np.random.default_rng(0).standard_normal((8, 8))


def reference() -> float:
    """Seconds taken by about 2 ms of small numpy products and plain Python
    arithmetic, the two kinds of work conekit's own time is made of."""
    started = time.perf_counter()
    a, acc = _M, 0.0
    for i in range(600):
        acc += float((a @ a.T)[i % 8, 0]) * 1e-12
        a = _M + acc
    h = 0
    for i in range(3000):
        h = (h * 31 + i) % 1000003
    return time.perf_counter() - started


class QuietTimer:
    """Measures calls at the host's quiet speed; see the module docstring."""

    def __init__(self):
        self.measured_s = 0.0  # wall time of kept attempts
        self.spent_s = 0.0  # waiting plus discarded attempts
        self.fastest = math.inf
        self.kept: list = []  # per measurement: (raw wall, reference before, after)

    def _reference(self) -> float:
        ref = reference()
        self.fastest = min(self.fastest, ref)
        return ref

    def _quiet(self, ref: float) -> bool:
        return ref <= QUIET_SLACK * self.fastest

    def _allowance(self, pending_s: float = 0.0) -> float:
        """Waiting earned so far: a share of the time measured, so a long
        call, which spans more changes of speed, earns more retries."""
        return WAIT_GRANT_S + WAIT_SHARE * (self.measured_s + pending_s)

    def _wait(self) -> float:
        started = time.perf_counter()
        ref = self._reference()
        while not self._quiet(ref) and self.spent_s + time.perf_counter() - started < self._allowance():
            ref = self._reference()
        self.spent_s += time.perf_counter() - started
        return ref

    def measure(self, fn, *args, attempts: int = ATTEMPTS):
        """Call fn(*args); returns (result, wall_s, cpu_s), both times scaled
        to the host's quiet speed, for the attempt made in the quietest
        conditions."""
        best = None
        for attempt in range(attempts):
            before = self._wait()
            c0 = time.process_time()
            t0 = time.perf_counter()
            result = fn(*args)
            wall = time.perf_counter() - t0
            cpu = time.process_time() - c0
            after = self._reference()
            worst = max(before, after)
            if best is None or worst < max(best[3][1:]):
                scale = (QUIET_REFERENCE_S / (0.5 * (before + after))) ** ELASTICITY
                best = (result, wall * scale, cpu * scale, (wall, before, after))
            if self._quiet(worst) or self.spent_s + wall > self._allowance(wall):
                break
            self.spent_s += wall
        self.measured_s += best[3][0]
        self.kept.append(best[3])
        return best[:3]

    def summary(self) -> dict:
        refs = [max(before, after) for _, before, after in self.kept]
        return {
            "measurements": len(refs),
            "quiet_share": sum(1 for r in refs if self._quiet(r)) / len(refs) if refs else 0.0,
            "measured_s": self.measured_s,
            "spent_s": self.spent_s,
            "fastest_reference_ms": self.fastest * 1e3,
            "median_reference_ms": float(np.median(refs)) * 1e3 if refs else 0.0,
        }
