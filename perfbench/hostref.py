"""Host speed reference: a fixed pure-Python unit of work, timed while a
workload runs, so job times can be given relative to the host's speed.

A host that shares its cores with other tenants can swing in speed by
20-40% over tens of seconds, with process CPU time swinging along with
wall time, so the slowdown is the shared hardware, not the program or
steal.  The program and this unit slow down together: on a 2-vCPU VM a
fig3 job's wall time divided by the unit's time over the same window
stayed within a few percent while the raw wall time moved by a third.

The unit is interpreter-bound work of the kinds the simulator does (a
heap of tuples, float arithmetic, attribute and dict access).  It does
not import the program, so a change to the program cannot change it.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time

#: Iterations of one unit: about 3.5 ms on a quiet 2-vCPU VM.
UNIT_STEPS = 3000
#: Seconds between samples taken by :class:`Sampler`.
PERIOD_S = 0.25


class _Event:
    __slots__ = ("due", "value")

    def __init__(self, due: float, value: float) -> None:
        self.due = due
        self.value = value


def reference_unit(steps: int = UNIT_STEPS) -> float:
    """One fixed unit of interpreter work; returns a checksum."""
    heap: list[tuple[float, int, _Event]] = []
    seen: dict[int, float] = {}
    acc = 0.0
    for i in range(steps):
        ev = _Event((i * 7919) % 1009 * 0.5, i * 0.25)
        heapq.heappush(heap, (ev.due, i, ev))
        if len(heap) > 64:
            due, key, old = heapq.heappop(heap)
            acc += old.value * 0.5 + due
            seen[key & 255] = acc
    while heap:
        acc += heapq.heappop(heap)[2].value
    return acc + len(seen)


def time_unit() -> float:
    """Wall seconds of one reference unit."""
    t0 = time.perf_counter()
    reference_unit()
    return time.perf_counter() - t0


def unit_s(samples: list[float]) -> float:
    """The reference unit's time over a window, from samples taken at
    even wall-clock intervals in it; one is taken now if there are none.

    The harmonic mean: a job that runs through the window does its work
    at the window's mean speed, and a unit's time is one over the speed
    at the moment it ran.  One unit stalled by a context switch barely
    moves it."""
    return statistics.harmonic_mean(samples or [time_unit()])


class Sampler:
    """Times a reference unit every :data:`PERIOD_S` while it is active.

    It runs the unit from a ``SIGALRM`` handler in the main thread, so
    samples interleave with the workload's own work and see the same
    host.  ``spent_s`` is the wall time the samples took; callers take
    it out of the job times they measure."""

    def __init__(self, period_s: float = PERIOD_S) -> None:
        self.period_s = period_s
        self.samples: list[float] = []
        self.spent_s = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_unit()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent_s += dt

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

