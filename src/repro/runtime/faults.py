"""Deterministic fault injection for the scoring runtime.

Recovery code that only runs when the cluster misbehaves is recovery
code that never runs in CI.  A :class:`FaultPlan` makes every failure a
scoring task can meet *injectable on demand*, keyed by the canonical
text of the sketch being scored, so tests can crash a specific worker
on a specific task, hang a specific candidate, or raise from the scorer
— deterministically, under both executors.  The one message a pool
worker gets is its scoring chunk, so the plan needs no pool-level
faults: a chunk failing before its tasks run (a plane the worker cannot
attach) is supervised like a crash, and tests reach it by patching
``attach_plane``.

The plan is a frozen, picklable value: :class:`PooledExecutor` ships it
to workers through the pool initializer, and the serial path consults it
inline.  Production runs simply pass ``None`` (the default everywhere);
the checks compile down to one ``is None`` test per sketch.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Iterable

__all__ = [
    "FaultInjected",
    "FaultPlan",
    "ServiceFaultPlan",
    "apply_sketch_faults",
    "apply_service_faults",
    "service_kill_due",
]

#: Exit code of a fault-plan server kill.  Distinct from any real error
#: path so harnesses can assert the death was the injected one.
SERVICE_KILL_EXIT_CODE = 70


class FaultInjected(RuntimeError):
    """An injected fault fired (raised for ``raise_on`` and serial crashes)."""


def _texts(sketches: Iterable) -> frozenset[str]:
    return frozenset(str(sketch) for sketch in sketches)


@dataclass(frozen=True)
class FaultPlan:
    """What to break, and where.

    Sketch-keyed faults match on the sketch's canonical text
    (``str(sketch)``).  ``crash_on`` hard-kills the worker process
    scoring the sketch (``os._exit``), which the parent observes as a
    ``BrokenProcessPool``; in serial mode — where a process cannot
    survive its own crash — it raises :class:`FaultInjected` instead and
    exercises the quarantine path.  ``crash_generations`` restricts
    crashes to specific pool generations (the first pool a run spawns is
    generation 1), so a test can model a *transient* crash: the rebuilt
    pool scores the same sketch cleanly.
    """

    crash_on: frozenset[str] = frozenset()
    hang_on: frozenset[str] = frozenset()
    raise_on: frozenset[str] = frozenset()
    crash_generations: frozenset[int] | None = None
    hang_seconds: float = 3600.0

    @classmethod
    def make(
        cls,
        *,
        crash_on: Iterable = (),
        hang_on: Iterable = (),
        raise_on: Iterable = (),
        crash_generations: Iterable[int] | None = None,
        hang_seconds: float = 3600.0,
    ) -> "FaultPlan":
        """Build a plan from sketches (or their texts) directly."""
        return cls(
            crash_on=_texts(crash_on),
            hang_on=_texts(hang_on),
            raise_on=_texts(raise_on),
            crash_generations=(
                frozenset(crash_generations)
                if crash_generations is not None
                else None
            ),
            hang_seconds=hang_seconds,
        )

    def is_empty(self) -> bool:
        return not (self.crash_on or self.hang_on or self.raise_on)


@dataclass(frozen=True)
class ServiceFaultPlan:
    """Deterministic server-level failure injection for fleet chaos tests.

    Where :class:`FaultPlan` breaks individual scoring tasks, this plan
    kills the whole *server* — the scheduler process itself — exactly
    like a SIGKILL: ``os._exit``, no cleanup, leases and partial
    checkpoints left on disk.  The scheduler consults it after every
    dispatched wave slice, so production code and chaos tests share one
    mechanism (there is no test-only kill switch in the serve loop).

    ``kill_after_slices`` dies once the server has dispatched that many
    slices fleet-wide (the classic "server crashes mid-run").
    ``poison_jobs`` models a *job* that kills its server: the process
    dies once it has dispatched ``poison_after_slices`` slices of any
    named job — every server that picks the job up dies the same way,
    which is what drives the retry-budget/quarantine machinery.
    """

    kill_after_slices: int | None = None
    poison_jobs: frozenset[str] = frozenset()
    poison_after_slices: int = 1
    exit_code: int = SERVICE_KILL_EXIT_CODE

    @classmethod
    def make(
        cls,
        *,
        kill_after_slices: int | None = None,
        poison_jobs: Iterable[str] = (),
        poison_after_slices: int = 1,
        exit_code: int = SERVICE_KILL_EXIT_CODE,
    ) -> "ServiceFaultPlan":
        return cls(
            kill_after_slices=kill_after_slices,
            poison_jobs=frozenset(str(job) for job in poison_jobs),
            poison_after_slices=poison_after_slices,
            exit_code=exit_code,
        )

    def is_empty(self) -> bool:
        return self.kill_after_slices is None and not self.poison_jobs


def service_kill_due(
    plan: ServiceFaultPlan | None,
    *,
    job_id: str,
    job_slices: int,
    total_slices: int,
) -> bool:
    """Whether *plan* wants the server dead after this slice.

    Pure predicate (no exit) so tests can pin the trigger arithmetic
    without sacrificing a process; :func:`apply_service_faults` is the
    lethal wrapper the scheduler calls.
    """
    if plan is None:
        return False
    if (
        plan.kill_after_slices is not None
        and total_slices >= plan.kill_after_slices
    ):
        return True
    return (
        job_id in plan.poison_jobs
        and job_slices >= plan.poison_after_slices
    )


def apply_service_faults(
    plan: ServiceFaultPlan | None,
    *,
    job_id: str,
    job_slices: int,
    total_slices: int,
) -> None:
    """Die by ``os._exit`` when *plan* says so — a simulated SIGKILL."""
    if service_kill_due(
        plan, job_id=job_id, job_slices=job_slices, total_slices=total_slices
    ):
        os._exit(plan.exit_code)


def apply_sketch_faults(
    plan: FaultPlan | None,
    sketch_text: str,
    *,
    in_worker: bool,
    generation: int = 0,
) -> None:
    """Fire whatever fault *plan* holds for *sketch_text* (if any).

    Called at the top of every guarded scoring call, inside the watchdog
    window — an injected hang is interruptible exactly like a real one.
    """
    if plan is None:
        return
    if sketch_text in plan.crash_on and (
        plan.crash_generations is None
        or generation in plan.crash_generations
    ):
        if in_worker:
            os._exit(86)
        raise FaultInjected(f"injected crash for {sketch_text!r}")
    if sketch_text in plan.hang_on:
        time.sleep(plan.hang_seconds)
    if sketch_text in plan.raise_on:
        raise FaultInjected(f"injected scorer failure for {sketch_text!r}")
