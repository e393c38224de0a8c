"""Shared-stream bucket pool: one enumeration pass feeding every bucket.

The paper's SMT formulation gives each bucket its own solver because
*solver queries* grow with each blocked solution, so smaller per-bucket
queries are faster (§4.4).  Our direct enumerator has the opposite cost
profile: a per-bucket generator re-walks the whole AST space and
post-filters on the bucket's exact operator set, so 64 buckets cost 64
enumeration passes.  :class:`BucketPool` restores the intended economics
by enumerating the DSL **once** and routing each sketch to the bucket
its operator set names — the partition semantics are unchanged; only the
work is shared.

After the refinement loop prunes buckets, the pool rebuilds its stream
restricted to the union of the surviving operator sets (skipping
already-routed sketches), so deep iterations regain the "smaller space"
advantage the paper gets from per-bucket solvers.
"""

from __future__ import annotations

from typing import Iterator

from repro.dsl import ast
from repro.dsl.families import DslSpec
from repro.runtime.context import RunContext
from repro.runtime.events import SketchesDrawn
from repro.synth.buckets import Bucket, coherent_op_sets
from repro.synth.enumerator import (
    bucket_witnesses,
    enumerate_sketches,
    min_feasible_size,
)
from repro.synth.sketch import Sketch

__all__ = ["BucketPool"]


class BucketPool:
    """All live buckets of one search, fed from a shared sketch stream.

    An optional :class:`RunContext` receives a
    :class:`~repro.runtime.events.SketchesDrawn` event per ``draw`` so
    run logs show how far the shared enumeration stream advanced.
    """

    def __init__(self, dsl: DslSpec, *, context: RunContext | None = None):
        self.dsl = dsl
        self.context = context
        self.buckets: dict[frozenset[str], Bucket] = {
            key: Bucket(key=key) for key in coherent_op_sets(dsl)
        }
        self._stream: Iterator[Sketch] = enumerate_sketches(dsl)
        self._stream_done = False
        self._seen: set[ast.NumExpr] = set()
        #: Surplus sketches per bucket key, drawn before the stream.
        self._backlog: dict[frozenset[str], list[Sketch]] = {}

    # ------------------------------------------------------------------

    @property
    def live(self) -> list[Bucket]:
        return list(self.buckets.values())

    def _route(self, sketch: Sketch, target: int) -> bool:
        """Deliver a generated sketch to its bucket.

        Buckets only *draw* up to the iteration's sample target; the
        stream keeps producing for still-hungry buckets, so surplus
        sketches for already-full buckets go to a backlog and are drawn
        (before touching the stream) when a later iteration raises the
        target.  Without this, popular buckets would accumulate — and the
        loop would score — thousands of unrequested samples.
        """
        self._seen.add(sketch.expr)
        bucket = self.buckets.get(sketch.operators)
        if bucket is None:
            return False
        if len(bucket.drawn) < target:
            bucket.drawn.append(sketch)
            return len(bucket.drawn) == target
        self._backlog.setdefault(sketch.operators, []).append(sketch)
        return False

    def draw(self, target: int, *, max_steps: int | None = None) -> None:
        """Advance the stream (see :meth:`_draw`), then report progress."""
        self._draw(target, max_steps=max_steps)
        if self.context is not None:
            self.context.emit(
                SketchesDrawn(
                    target=target,
                    generated=self.generated,
                    live_buckets=len(self.buckets),
                )
            )

    def _draw(self, target: int, *, max_steps: int | None = None) -> None:
        """Advance the stream until every live bucket holds *target*
        sketches, the stream ends, or *max_steps* sketches were generated.

        The step cap matters: some coherent operator sets cannot be
        realized within the DSL's node budget (e.g. every operator at
        once needs more nodes than the cap allows), and without a bound
        one ``draw`` would scan the whole space trying to fill them.
        Under-filled buckets simply contribute smaller samples this
        iteration — the same effect as an SMT bucket query coming back
        with fewer models.
        """
        # Serve from backlogs first: these were generated earlier for
        # then-full buckets.
        for key, bucket in self.buckets.items():
            backlog = self._backlog.get(key)
            while backlog and len(bucket.drawn) < target:
                bucket.drawn.append(backlog.pop(0))
        if self._stream_done:
            return
        if max_steps is None:
            max_steps = max(2000, 40 * target * max(len(self.buckets), 1))
        pending = sum(
            1
            for bucket in self.buckets.values()
            if len(bucket.drawn) < target
        )
        steps = 0
        while pending and steps < max_steps:
            try:
                sketch = next(self._stream)
            except StopIteration:
                self._stream_done = True
                for bucket in self.buckets.values():
                    bucket.exhausted = True
                return
            steps += 1
            if self._route(sketch, target):
                pending -= 1
        self._probe_empty_buckets(target)

    def _probe_empty_buckets(self, target: int) -> None:
        """Construct witnesses for buckets the shared stream hasn't reached.

        The shared stream is smallest-first over the whole DSL, so a
        bucket whose minimum feasible sketch is large (e.g. an operator
        set needing conditionals *and* several arithmetic operators) may
        see nothing for millions of steps.  The paper's per-bucket SMT
        solvers never have this problem — each query returns an arbitrary
        model of its bucket — so we restore that semantics by directly
        constructing a few valid members (:func:`bucket_witnesses`).
        """
        for key, bucket in self.buckets.items():
            if bucket.drawn or bucket.probed:
                continue
            bucket.probed = True
            if min_feasible_size(key) > self.dsl.max_nodes:
                continue  # provably empty within the node budget
            for sketch in bucket_witnesses(
                self.dsl, key, count=min(target, 4)
            ):
                if sketch.expr in self._seen:
                    continue
                self._seen.add(sketch.expr)
                bucket.drawn.append(sketch)

    @property
    def generated(self) -> int:
        """Total sketches generated by the shared stream so far."""
        return len(self._seen)

    def prune(self, keep: set[frozenset[str]]) -> None:
        """Drop every bucket not in *keep* and restrict the stream.

        The rebuilt stream enumerates only the union of the surviving
        operator sets — a strictly smaller space — and skips sketches
        already routed, so no sample is drawn twice.
        """
        self.buckets = {
            key: bucket for key, bucket in self.buckets.items() if key in keep
        }
        self._backlog = {
            key: sketches
            for key, sketches in self._backlog.items()
            if key in keep
        }
        if self._stream_done or not self.buckets:
            return
        allowed: frozenset[str] = frozenset().union(*self.buckets.keys())
        restricted = enumerate_sketches(self.dsl, allowed_ops=allowed)
        seen = self._seen
        self._stream = (
            sketch for sketch in restricted if sketch.expr not in seen
        )

    @property
    def exhausted(self) -> bool:
        return self._stream_done
