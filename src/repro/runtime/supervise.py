"""Worker supervision and poison-sketch quarantine primitives.

The paper's scoring campaigns run for hours across a cluster (§5); at
that scale individual candidates and workers *will* misbehave, and the
run must outlive them (CC-Fuzz makes the same argument for CCA
evaluation under adversarial inputs).  This module holds the pieces the
executors build their fault tolerance from:

:func:`watchdog`
    a SIGALRM-based per-sketch timeout.  Scoring a candidate is pure
    Python, so an in-process alarm can always interrupt it; the alarm
    raises :class:`SketchTimeout`, which derives from ``BaseException``
    so no ``except Exception`` guard inside the scorer can swallow it.

:class:`Quarantined`
    the record kept for a candidate that hung, raised, or crashed its
    worker.  Quarantined sketches receive the worst-case score
    (:data:`WORST_DISTANCE`) so the wave still ranks, and the run report
    lists them instead of the run dying.

:class:`Supervisor`
    the pool-failure policy: bounded rebuilds with exponential backoff,
    then graceful degradation to serial scoring once
    ``max_pool_rebuilds`` consecutive failures show the pool cannot be
    kept alive on this host.

The supervision state machine (healthy -> rebuilding -> degraded) is
documented in ``docs/RESILIENCE.md``.
"""

from __future__ import annotations

import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

__all__ = [
    "WORST_DISTANCE",
    "SketchTimeout",
    "watchdog",
    "watchdog_available",
    "Quarantined",
    "SupervisionPolicy",
    "Supervisor",
]

#: Score assigned to a quarantined sketch: worse than any real distance,
#: so a poisoned candidate can never win, but the bucket it came from
#: still ranks on its healthy samples.
WORST_DISTANCE = float("inf")


class SketchTimeout(BaseException):
    """A sketch exceeded its watchdog budget.

    Derives from ``BaseException`` deliberately: scoring guards catch
    ``Exception`` to convert candidate bugs into quarantine records, and
    the watchdog must pierce those guards to reach the executor.
    """


def watchdog_available() -> bool:
    """True when the SIGALRM watchdog can arm in this thread/platform."""
    return (
        hasattr(signal, "setitimer")
        and threading.current_thread() is threading.main_thread()
    )


@contextmanager
def watchdog(seconds: float | None) -> Iterator[None]:
    """Raise :class:`SketchTimeout` if the body runs longer than *seconds*.

    A no-op when *seconds* is falsy or the platform/thread cannot arm
    SIGALRM (the itimer is Unix-only and signals deliver to the main
    thread); callers that need a hard guarantee pair this with a
    parent-side backstop timeout.
    """
    if not seconds or not watchdog_available():
        yield
        return

    def _trip(signum, frame):  # pragma: no cover - exercised via raise site
        raise SketchTimeout(f"sketch exceeded {seconds:.3g}s watchdog")

    previous = signal.signal(signal.SIGALRM, _trip)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@dataclass(frozen=True)
class Quarantined:
    """One candidate removed from the run instead of killing it."""

    sketch: str  #: canonical sketch text
    reason: str  #: "timeout" | "exception" | "worker-crash"
    detail: str = ""


@dataclass(frozen=True)
class SupervisionPolicy:
    """How many pool failures to tolerate, and how to pace recovery."""

    #: Consecutive pool failures tolerated before degrading to serial;
    #: each tolerated failure triggers one pool rebuild.
    max_pool_rebuilds: int = 3
    backoff_base_seconds: float = 0.05
    backoff_cap_seconds: float = 2.0


class Supervisor:
    """Tracks pool failures and decides rebuild-vs-degrade.

    One instance lives for a whole run: ``rebuilds`` is cumulative (the
    telemetry number), ``consecutive_failures`` resets on every
    successfully completed wave, so a long run with occasional transient
    crashes keeps its pool, while a persistently failing pool degrades
    after ``max_pool_rebuilds`` strikes in a row.
    """

    def __init__(self, policy: SupervisionPolicy | None = None) -> None:
        self.policy = policy or SupervisionPolicy()
        self.consecutive_failures = 0
        self.rebuilds = 0

    def record_success(self) -> None:
        """A wave completed: the pool is healthy again."""
        self.consecutive_failures = 0

    def next_action(self) -> str:
        """Record one pool failure; return ``"rebuild"`` or ``"degrade"``."""
        self.consecutive_failures += 1
        if self.consecutive_failures > self.policy.max_pool_rebuilds:
            return "degrade"
        return "rebuild"

    def backoff(self) -> float:
        """Sleep the exponential-backoff delay; return the seconds slept."""
        seconds = min(
            self.policy.backoff_base_seconds * (2.0 ** self.rebuilds),
            self.policy.backoff_cap_seconds,
        )
        self.rebuilds += 1
        if seconds > 0:
            time.sleep(seconds)
        return seconds
