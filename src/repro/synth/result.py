"""Synthesis result and instrumentation records.

Beyond the winning handler, benchmarks need visibility into *how* the
search went: the per-iteration bucket ranking reproduces Table 4 (where
the fine-tuned handler's bucket ranked after iterations 1 and 2) and the
§6.1 search-efficiency numbers (how much of the space was scored).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dsl.printer import to_text
from repro.dsl.simplify import simplify
from repro.runtime.supervise import Quarantined
from repro.synth.scoring import ScoredHandler

__all__ = ["IterationRecord", "SynthesisResult"]


@dataclass(frozen=True)
class IterationRecord:
    """Snapshot of one refinement-loop iteration."""

    index: int
    samples_per_bucket: int
    segment_count: int
    #: (bucket key, bucket score) sorted best-first — the ranking used
    #: for the top-k cut.
    ranking: tuple[tuple[frozenset[str], float], ...]
    kept: tuple[frozenset[str], ...]
    handlers_scored: int

    def rank_of(self, key: frozenset[str]) -> int | None:
        """1-based rank of *key* in this iteration's ranking, if present."""
        for position, (bucket_key, _) in enumerate(self.ranking, start=1):
            if bucket_key == key:
                return position
        return None

    @property
    def bucket_count(self) -> int:
        return len(self.ranking)


@dataclass
class SynthesisResult:
    """The outcome of one synthesis run."""

    best: ScoredHandler
    dsl_name: str
    iterations: list[IterationRecord] = field(default_factory=list)
    initial_bucket_count: int = 0
    total_handlers_scored: int = 0
    total_sketches_drawn: int = 0
    elapsed_seconds: float = 0.0
    #: Candidates that hung/raised/crashed and were worst-case scored
    #: instead of killing the run (includes entries restored on resume).
    quarantined: tuple[Quarantined, ...] = ()
    #: Scoring pools spawned beyond the first (0 for a healthy run).
    pool_rebuilds: int = 0
    #: True when supervision fell back to serial scoring mid-run.
    degraded: bool = False
    #: True when ``time_budget_seconds`` stopped the loop at an
    #: iteration boundary or skipped the exhaustive pass: the answer is
    #: the best so far, not the full search's.
    budget_exceeded: bool = False

    @property
    def expression(self) -> str:
        """The winning handler, arithmetically simplified for readability
        (as Table 2's presentation does; concretization can instantiate a
        hole with 1 or 0 and leave a reducible product behind)."""
        return to_text(simplify(self.best.handler))

    @property
    def distance(self) -> float:
        return self.best.distance

    def summary(self) -> str:
        text = (
            f"[{self.dsl_name}] {self.expression}  "
            f"(distance {self.distance:.2f}, "
            f"{self.total_handlers_scored} handlers scored over "
            f"{len(self.iterations)} iterations, "
            f"{self.elapsed_seconds:.1f}s)"
        )
        if self.quarantined or self.pool_rebuilds or self.degraded:
            notes = [f"{len(self.quarantined)} quarantined"]
            if self.pool_rebuilds:
                notes.append(f"{self.pool_rebuilds} pool rebuild(s)")
            if self.degraded:
                notes.append("degraded to serial")
            text += f"  [faults: {', '.join(notes)}]"
        if self.budget_exceeded:
            text += "  [stopped by the time budget]"
        return text
