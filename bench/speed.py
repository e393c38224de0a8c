"""Host-speed probe: end-to-end times are scaled to a reference speed.

The benchmark's reference host, a 2-vCPU virtual machine, changes speed
by tens of percent within seconds and by up to 1.7x over an afternoon as
its neighbours' load comes and goes, so a wall time says as much about
the host as about the program.  While a timed phase runs, :func:`measure`
interrupts it every :data:`PERIOD_S` of process CPU time (``SIGPROF``)
and times a fixed probe on the thread's CPU clock: a small event loop
that allocates packets and closures and runs them off a heap, the kind
of interpreter work trace simulation and sketch enumeration do.  The
probe touches no program data, and with the garbage collector paused it
frees everything it allocates, so it leaves the program's heap and
collector as it found them: it slows down with the host, not with the
program.

A phase's *scaled* time is its wall time, less the time the probes took,
times :data:`REFERENCE_PROBE_S` over the mean probe time.  It reads as
the phase's wall time on a host where one probe takes
:data:`REFERENCE_PROBE_S`.

The interval timer counts this process's CPU time only and is not
inherited by forked children, so pool workers are never interrupted; in
a pooled phase the probes sample the parent's share of the work.
"""

from __future__ import annotations

import gc
import heapq
import signal
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

#: CPU seconds between probes.
PERIOD_S = 0.025
#: Events of one probe (about 0.3 ms on the reference host).
PROBE_EVENTS = 200
#: Probe time that scaled times are expressed at.
REFERENCE_PROBE_S = 0.0003


class _Packet:
    __slots__ = ("seq", "size", "sent")

    def __init__(self, seq: int, size: int, sent: float) -> None:
        self.seq = seq
        self.size = size
        self.sent = sent


def _probe_loop() -> float:
    """Schedule :data:`PROBE_EVENTS` packets on a heap, then run them."""
    events: list = []
    for i in range(PROBE_EVENTS):
        packet = _Packet(i * 1448, 1448, i * 1e-3)
        heapq.heappush(
            events, ((i % 17) * 1e-3, i, lambda p=packet: p.size / 1e6)
        )
    total = 0.0
    while events:
        total += heapq.heappop(events)[2]()
    return total


@dataclass
class Timing:
    """One phase's wall time and the probe times taken while it ran."""

    #: Wall seconds of the phase, probes included.
    wall: float
    probes: list[float] = field(default_factory=list)
    #: Wall seconds the probes themselves took.
    probe_cost: float = 0.0

    def scaled(self, seconds: float, fallback: Sequence[float] = ()) -> float:
        """*seconds* of this phase (probes included) at the reference speed.

        The probes' own share of the phase is taken out first.  A phase
        too short to be probed uses the *fallback* probes.
        """
        probes = self.probes or fallback
        if not probes:
            raise ValueError("no probe ran during the phase")
        own = 1.0 - self.probe_cost / self.wall
        return seconds * own * REFERENCE_PROBE_S * len(probes) / sum(probes)


def measure(call: Callable[[], object]) -> tuple[object, Timing]:
    """Run *call* under the probe; its result and the phase's :class:`Timing`.

    An exception from *call* propagates after the timer is disarmed.
    """
    timing = Timing(0.0)

    def probe(signum, frame):
        began = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        cpu = time.thread_time()
        _probe_loop()
        timing.probes.append(time.thread_time() - cpu)
        if collecting:
            gc.enable()
        timing.probe_cost += time.perf_counter() - began

    previous = signal.signal(signal.SIGPROF, probe)
    signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
    started = time.perf_counter()
    try:
        result = call()
    finally:
        timing.wall = time.perf_counter() - started
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, previous)
    return result, timing
