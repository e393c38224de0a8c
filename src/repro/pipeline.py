"""The end-to-end Abagnale pipeline (paper Figure 1).

Given packet traces of an unknown CCA:

1. segment the traces at inferred loss events (§3.2);
2. run a classifier on the traces to pick a family sub-DSL (§3.3);
3. run the refinement-loop synthesis over that DSL (§4);
4. report the winning handler with its distance and search telemetry.

:func:`reverse_engineer` takes traces; :func:`reverse_engineer_cca` is the
"lab" entry point that collects fresh traces for a named CCA first.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.classify.base import ClassifierVerdict
from repro.classify.ccanalyzer import CcaAnalyzer
from repro.classify.gordon import GordonClassifier
from repro.dsl.families import DslSpec, dsl_for_classifier_label, with_budget
from repro.dsl.printer import to_text
from repro.dsl.simplify import simplify
from repro.errors import SynthesisError, TraceError
from repro.runtime.context import RunContext
from repro.runtime.events import DegradedInputs
from repro.synth.refinement import SynthesisConfig, drive, synthesize_core
from repro.synth.result import SynthesisResult
from repro.synth.scoring import QuorumConfig, QuorumDecision, quorum_filter
from repro.trace.collect import CollectionConfig, collect_traces
from repro.trace.model import Trace, TraceSegment
from repro.trace.segmentation import segment_trace
from repro.trace.triage import TriagePolicy, TriageSummary, triage_traces

__all__ = [
    "PipelineReport",
    "reverse_engineer",
    "reverse_engineer_core",
    "reverse_engineer_cca",
]


@dataclass
class PipelineReport:
    """Everything one pipeline invocation produced."""

    #: ``None`` when the caller supplied an explicit DSL (no classification).
    verdict: ClassifierVerdict | None
    dsl: DslSpec
    result: SynthesisResult
    segment_count: int
    #: ``None`` when input triage was disabled (``trace_policy=None``).
    triage: TriageSummary | None = None
    #: ``None`` when triage was disabled; otherwise the quorum guard's
    #: keep/exclude/backfill decision over the segmented working set.
    quorum: QuorumDecision | None = None

    @property
    def expression(self) -> str:
        """The synthesized handler, arithmetically simplified for reading."""
        return to_text(simplify(self.result.best.handler))

    @property
    def distance(self) -> float:
        return self.result.distance

    def summary(self) -> str:
        label = self.verdict.render() if self.verdict else "(skipped)"
        text = (
            f"classifier: {label}  ->  DSL {self.dsl.name!r}\n"
            f"handler:    {self.expression}\n"
            f"distance:   {self.distance:.2f} over {self.segment_count} segments "
            f"({self.result.total_handlers_scored} handlers scored, "
            f"{self.result.elapsed_seconds:.1f}s)"
        )
        result = self.result
        if result.quarantined or result.pool_rebuilds or result.degraded:
            notes = [f"{len(result.quarantined)} quarantined"]
            if result.pool_rebuilds:
                notes.append(f"{result.pool_rebuilds} pool rebuild(s)")
            if result.degraded:
                notes.append("degraded to serial")
            text += f"\nfaults:     {', '.join(notes)}"
        if result.budget_exceeded:
            text += (
                f"\nbudget:     stopped by the time budget after "
                f"{len(result.iterations)} iteration(s); best so far"
            )
        if self.triage is not None:
            summary = self.triage
            notes = [f"{summary.accepted} trace(s) accepted"]
            if summary.repaired:
                notes.append(f"{summary.repaired} repaired")
            if summary.rejected:
                notes.append(f"{summary.rejected} rejected")
            if summary.min_quality < 1.0:
                notes.append(f"min quality {summary.min_quality:.2f}")
            text += f"\ninputs:     {', '.join(notes)}"
        if self.quorum is not None and (
            self.quorum.excluded or self.quorum.backfilled
        ):
            text += (
                f"\nquorum:     {len(self.quorum.kept)} segment(s) kept, "
                f"{len(self.quorum.excluded)} excluded"
            )
            if self.quorum.degraded:
                text += (
                    f", {len(self.quorum.backfilled)} low-quality "
                    "backfilled (degraded inputs)"
                )
        return text


def _segments_from_traces(traces: list[Trace]) -> list[TraceSegment]:
    segments: list[TraceSegment] = []
    for trace in traces:
        segments.extend(segment_trace(trace))
    if not segments:
        raise SynthesisError(
            "no usable segments: traces are too short or carry no losses"
        )
    return segments


def reverse_engineer_core(
    traces: list[Trace],
    *,
    classifier: str = "gordon",
    dsl: DslSpec | None = None,
    config: SynthesisConfig | None = None,
    max_depth: int | None = None,
    max_nodes: int | None = None,
    context: RunContext | None = None,
    trace_policy: str | TriagePolicy | None = None,
    quorum: QuorumConfig | None = None,
):
    """The full pipeline as a re-entrant generator (wave protocol).

    Triage, classification, and segmentation run inline on the first
    ``send(None)``; the synthesis stage is delegated to
    :func:`~repro.synth.refinement.synthesize_core` via ``yield from``,
    so every executor interaction surfaces as a
    :mod:`repro.runtime.protocol` request for the driver — the blocking
    wrapper below, or a :class:`~repro.runtime.scheduler.Scheduler`
    multiplexing many pipelines over one pool.  The generator's return
    value is the :class:`PipelineReport`.
    """
    ctx = context if context is not None else RunContext()
    triage_summary: TriageSummary | None = None
    if trace_policy is not None:
        policy = (
            trace_policy
            if isinstance(trace_policy, TriagePolicy)
            else TriagePolicy(mode=trace_policy)
        )
        with ctx.timer("triage"):
            try:
                triage_summary = triage_traces(traces, policy, context=ctx)
            except TraceError as exc:
                raise SynthesisError(str(exc)) from exc
        traces = triage_summary.traces
    verdict: ClassifierVerdict | None = None
    if dsl is None:
        with ctx.timer("classify"):
            if classifier == "gordon":
                verdict = GordonClassifier().classify(traces)
            elif classifier == "ccanalyzer":
                verdict = CcaAnalyzer().classify(traces)
            else:
                raise SynthesisError(f"unknown classifier {classifier!r}")
        hint = verdict.label if not verdict.is_unknown else verdict.closest
        dsl = dsl_for_classifier_label(hint)
    if max_depth is not None or max_nodes is not None:
        dsl = with_budget(dsl, max_depth=max_depth, max_nodes=max_nodes)

    with ctx.timer("segment"):
        segments = _segments_from_traces(traces)
    decision: QuorumDecision | None = None
    if triage_summary is not None:
        decision = quorum_filter(segments, quorum)
        if decision.excluded or decision.backfilled:
            ctx.emit(
                DegradedInputs(
                    total_segments=len(segments),
                    usable=len(decision.kept) - len(decision.backfilled),
                    excluded=len(decision.excluded),
                    backfilled=len(decision.backfilled),
                    min_quorum=(quorum or QuorumConfig()).min_segments,
                )
            )
        segments = list(decision.kept)
        if not segments:
            raise SynthesisError(
                "no usable segments survived the quorum guard"
            )
    result = yield from synthesize_core(segments, dsl, config, context=ctx)
    return PipelineReport(
        verdict=verdict,
        dsl=dsl,
        result=result,
        segment_count=len(segments),
        triage=triage_summary,
        quorum=decision,
    )


def reverse_engineer(
    traces: list[Trace],
    *,
    classifier: str = "gordon",
    dsl: DslSpec | None = None,
    config: SynthesisConfig | None = None,
    max_depth: int | None = None,
    max_nodes: int | None = None,
    context: RunContext | None = None,
    trace_policy: str | TriagePolicy | None = None,
    quorum: QuorumConfig | None = None,
) -> PipelineReport:
    """Reverse-engineer the CCA behind *traces*.

    ``classifier`` is ``"gordon"`` (TCP targets) or ``"ccanalyzer"``
    (any transport); pass ``dsl`` to skip classification and search a
    specific sub-DSL.  ``max_depth``/``max_nodes`` override the DSL's
    search budget (the paper's Delay-7/Delay-11/Vegas-11 variants).
    ``context`` (a :class:`~repro.runtime.context.RunContext`) receives
    the run's telemetry — classification and segmentation phase timers
    plus every synthesis event.

    ``trace_policy`` switches on input triage
    (:mod:`repro.trace.triage`): a mode string (``"strict"`` /
    ``"repair"`` / ``"permissive"``) or a full
    :class:`~repro.trace.triage.TriagePolicy`.  With triage on, the
    segmented working set additionally passes the quorum guard
    (*quorum*, default :class:`~repro.synth.scoring.QuorumConfig`):
    segments from low-quality repaired traces are excluded unless
    exclusion would leave fewer than the quorum minimum, in which case
    the best low-quality segments are kept and a ``degraded_inputs``
    event is emitted.  ``trace_policy=None`` (the default) bypasses
    both stages — for clean traces the two configurations produce
    bit-identical rankings (see the triage differential harness).

    The blocking wrapper over :func:`reverse_engineer_core`: one private
    executor, one run, bit-identical to the historical inline pipeline.
    """
    return drive(
        reverse_engineer_core(
            traces,
            classifier=classifier,
            dsl=dsl,
            config=config,
            max_depth=max_depth,
            max_nodes=max_nodes,
            context=context,
            trace_policy=trace_policy,
            quorum=quorum,
        ),
        config,
        context,
    )


def reverse_engineer_cca(
    cca_name: str,
    *,
    collection: CollectionConfig | None = None,
    **kwargs,
) -> PipelineReport:
    """Collect traces for a named CCA, then reverse-engineer them."""
    traces = collect_traces(cca_name, collection)
    return reverse_engineer(traces, **kwargs)
