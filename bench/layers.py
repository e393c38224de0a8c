"""The layer map: which public calls are timed, and what each layer reports.

:data:`PATCHES` names every call the traced run wraps, with the span
name it records; :func:`answer_metrics` turns one answer's rolled-up
spans into the per-layer ledger.  The end-to-end metric each layer
should move, and on which workload, is tabulated in ``bench/README.md``.
"""

from __future__ import annotations

import functools
import importlib
import math
import pkgutil
from collections import defaultdict

import numpy as np

from ledger import WAVE
from spans import Tracer

# -- hooks: extra counts recorded on a span --------------------------------


def _acks(span, state, args, kwargs, result):
    span["attrs"]["acks"] = len(result.acks)


def _generated_before(tracer, args, kwargs):
    return args[0].generated


def _generated(span, before, args, kwargs, result):
    span["attrs"]["sketches"] = args[0].generated - before


def _replay_rows(span, state, args, kwargs, result):
    span["attrs"]["lanes"] = len(args[1])
    span["attrs"]["rows"] = len(args[2])


@functools.lru_cache(maxsize=None)
def _band_cells(n: int, m: int, band: float | None) -> int:
    """DP cells one lane of the banded DTW computes without abandoning."""
    from repro.distance.dtw import band_width

    width = band_width(n, m, band)
    return sum(
        min(m, i + width) - max(1, i - width) + 1 for i in range(1, n + 1)
    )


def _dtw_batch(span, state, args, kwargs, result):
    queries, candidate = args[0], args[1]
    lanes = len(queries)
    span["attrs"]["lanes"] = lanes
    span["attrs"]["abandoned"] = int(np.isinf(result).sum())
    if lanes:
        span["attrs"]["cells"] = lanes * _band_cells(
            queries.shape[1], len(candidate), kwargs.get("band", 0.2)
        )


def _dtw_scalar(span, state, args, kwargs, result):
    from repro.distance.preprocess import SERIES_BUDGET

    # dtw_distance downsamples both series to at most *budget* points.
    budget = kwargs.get("budget", SERIES_BUDGET)
    n, m = (min(len(series), budget) for series in args[:2])
    span["attrs"]["lanes"] = 1
    span["attrs"]["abandoned"] = int(result == math.inf)
    span["attrs"]["cells"] = _band_cells(n, m, kwargs.get("band", 0.2))


_SCORER_COUNTERS = ("lb_pruned", "dp_abandoned", "candidates_pruned")


def _scorer_before(tracer, args, kwargs):
    scorer = args[0]
    cache = scorer.cache
    counts = [getattr(scorer.counters, name) for name in _SCORER_COUNTERS]
    if cache is not None:
        counts += [cache.hits, cache.misses]
    return counts


def _scorer_deltas(span, before, args, kwargs, result):
    after = _scorer_before(None, args, kwargs)
    names = _SCORER_COUNTERS + ("cache_hits", "cache_misses")
    for name, old, new in zip(names, before, after):
        span["attrs"][name] = new - old


def _wave(span, state, args, kwargs, result):
    executor, groups = args[0], args[1]
    span["attrs"]["workers"] = getattr(executor, "workers", 1)
    span["attrs"]["tasks"] = sum(len(group) for group in groups)
    span["attrs"]["pooled"] = hasattr(executor, "workers")


def _plane_bytes(span, state, args, kwargs, result):
    span["attrs"]["bytes"] = result.nbytes if result is not None else 0


def _step_enter(tracer, args, kwargs):
    # The step serves the head job: its spans carry that job's id.
    scheduler = args[0]
    active = scheduler.active_jobs
    tracer.labels["job"] = active[0].job_id if active else None
    return tracer, sum(job.preemptions for job in scheduler.jobs.values())


def _step_leave(span, state, args, kwargs, result):
    tracer, before = state
    tracer.labels.pop("job", None)
    scheduler = args[0]
    span["attrs"]["preemptions"] = (
        sum(job.preemptions for job in scheduler.jobs.values()) - before
    )


#: ``(module, function or Class.method, span name, enter hook, leave hook)``.
PATCHES = (
    ("repro.netsim.simulator", "simulate", "netsim.simulate", None, _acks),
    ("repro.classify.gordon", "GordonClassifier.classify", "classify.classify", None, None),
    ("repro.classify.base", "ReferenceLibrary.nearest", "classify.nearest", None, None),
    ("repro.trace.triage", "triage_traces", "trace.triage", None, None),
    ("repro.trace.segmentation", "segment_trace", "trace.segment", None, None),
    ("repro.trace.signals", "extract_signals", "trace.signals", None, None),
    ("repro.synth.pool", "BucketPool.draw", "synth.pool.draw", _generated_before, _generated),
    ("repro.synth.pool", "BucketPool.prune", "synth.pool.prune", None, None),
    ("repro.dsl.compiled", "compile_sketch_vector", "dsl.compiled.compile", None, None),
    ("repro.synth.replay", "replay_batch", "synth.replay.batch", None, _replay_rows),
    ("repro.distance.lb", "keogh_envelope_batch", "distance.lb.envelope", None, None),
    ("repro.distance.dtw", "dtw_distance_batch", "distance.dtw.batch", None, _dtw_batch),
    ("repro.distance.dtw", "dtw_distance", "distance.dtw.scalar", None, _dtw_scalar),
    ("repro.synth.scoring", "Scorer.score_sketch", "synth.scoring.sketch", _scorer_before, _scorer_deltas),
    ("repro.synth.scoring", "Scorer.score_handler", "synth.scoring.handler", None, None),
    ("repro.synth.scoring", "Scorer.prepare_segments", "synth.scoring.prepare", None, None),
    ("repro.runtime.executors", "SerialExecutor.score_grouped", WAVE, None, _wave),
    ("repro.runtime.executors", "PooledExecutor.score_grouped", WAVE, None, _wave),
    ("repro.runtime.shm", "SegmentPlane.build", "runtime.shm.build", None, _plane_bytes),
    ("repro.runtime.scheduler", "Scheduler.step", "runtime.scheduler.step", _step_enter, _step_leave),
    ("repro.runtime.checkpoint", "CheckpointWriter.write", "runtime.checkpoint.write", None, None),
    ("repro.runtime.checkpoint", "CheckpointLease.acquire", "runtime.checkpoint.lease", None, None),
    ("repro.runtime.checkpoint", "CheckpointLease.renew", "runtime.checkpoint.lease", None, None),
    ("repro.runtime.checkpoint", "CheckpointLease.release", "runtime.checkpoint.lease", None, None),
    ("repro.service", "JobLedger.write", "service.ledger", None, None),
    ("repro.runtime.jobs", "ResultStore.record", "service.record", None, None),
)

#: Span names are ``<layer>.<call>``; the layers, in the order above.
LAYERS = tuple(dict.fromkeys(name.rsplit(".", 1)[0] for _, _, name, _, _ in PATCHES))


def install(tracer: Tracer) -> None:
    """Wrap every call in :data:`PATCHES`.

    Every ``repro`` module is imported first, so that no module imported
    later binds a wrapper by name and keeps it after :meth:`Tracer.unpatch`.
    """
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):  # that one runs the CLI
            importlib.import_module(info.name)
    for module, path, name, enter, leave in PATCHES:
        tracer.patch(module, path, name, enter, leave)


# -- the ledger -------------------------------------------------------------


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def answer_metrics(root: dict, spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one answer (or one setup) from its spans.

    *root* is the answer's (or setup's) own span; its self time is the
    part of the wall time no layer span covers (``unattributed_s``).
    """
    wall = root["end"] - root["start"]
    own: dict[str, float] = defaultdict(float)  # self time per span name
    calls: dict[str, int] = defaultdict(int)  # spans per span name
    layer_self: dict[str, float] = defaultdict(float)
    layer_calls: dict[str, int] = defaultdict(int)
    attrs: dict[str, float] = defaultdict(float)  # "<layer>:<attr>" sums
    by_id = {span["id"]: span for span in spans}
    wave_wall = wave_capacity = busy = pooled_wait = lane_rows = 0.0
    #: Lanes (candidates) of each sketch, read off its replay children.
    lanes_of: dict[str, int] = {}
    sketches: list[str] = []
    for span in spans:
        name = span["name"]
        layer = name.rsplit(".", 1)[0]
        span_attrs = span.get("attrs", {})
        own[name] += span["self"]
        calls[name] += 1
        layer_self[layer] += span["self"]
        layer_calls[layer] += 1
        for key, value in span_attrs.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                attrs[f"{layer}:{key}"] += value
        parent = by_id.get(span["parent"])
        if name == WAVE:
            if span_attrs.get("pooled"):
                pooled_wait += span["self"]
            if parent is None or parent["name"] != WAVE:
                duration = span["end"] - span["start"]
                wave_wall += duration
                wave_capacity += duration * span_attrs.get("workers", 1)
        elif name == "synth.scoring.sketch":
            sketches.append(span["id"])
            if parent is not None and parent["name"] == WAVE:
                busy += span["end"] - span["start"]
        elif layer == "synth.replay":
            lanes = span_attrs["lanes"]
            lanes_of[span["parent"]] = max(lanes_of.get(span["parent"], 0), lanes)
            lane_rows += lanes * span_attrs["rows"]
    candidates = sum(lanes_of.get(sketch, 0) for sketch in sketches)
    lookups = attrs["synth.scoring:cache_hits"] + attrs["synth.scoring:cache_misses"]
    lb_pruned = attrs["synth.scoring:lb_pruned"]
    dtw_lanes = attrs["distance.dtw:lanes"]
    metrics = {
        "answer_wall_s": wall,
        "unattributed_s": root["self"],
        "netsim.self_s": layer_self["netsim"],
        "netsim.calls": layer_calls["netsim"],
        "netsim.acks_per_s": _ratio(attrs["netsim:acks"], layer_self["netsim"]),
        "classify.self_s": layer_self["classify"],
        "classify.calls": layer_calls["classify"],
        "trace.triage_s": own["trace.triage"],
        "trace.segment_s": own["trace.segment"],
        "trace.signals_s": own["trace.signals"],
        "synth.pool.self_s": layer_self["synth.pool"],
        "synth.pool.calls": layer_calls["synth.pool"],
        "synth.pool.sketches_per_s": _ratio(
            attrs["synth.pool:sketches"], layer_self["synth.pool"]
        ),
        "dsl.compiled.self_s": layer_self["dsl.compiled"],
        "dsl.compiled.calls": layer_calls["dsl.compiled"],
        "synth.replay.self_s": layer_self["synth.replay"],
        "synth.replay.calls": layer_calls["synth.replay"],
        "synth.replay.lane_rows_per_s": _ratio(
            lane_rows, layer_self["synth.replay"]
        ),
        "distance.lb.self_s": layer_self["distance.lb"],
        "distance.lb.prune_ratio": _ratio(lb_pruned, lb_pruned + dtw_lanes),
        "distance.dtw.self_s": layer_self["distance.dtw"],
        "distance.dtw.calls": layer_calls["distance.dtw"],
        "distance.dtw.cells_per_s": _ratio(
            attrs["distance.dtw:cells"], layer_self["distance.dtw"]
        ),
        "distance.dtw.abandon_ratio": _ratio(
            attrs["distance.dtw:abandoned"], dtw_lanes
        ),
        "synth.scoring.self_s": own["synth.scoring.sketch"]
        + own["synth.scoring.handler"],
        "synth.scoring.prepare_s": own["synth.scoring.prepare"],
        "synth.scoring.sketches": calls["synth.scoring.sketch"],
        "synth.scoring.useful_ratio": _ratio(
            candidates - attrs["synth.scoring:candidates_pruned"], candidates
        ),
        "runtime.cache.lookups": lookups,
        "runtime.cache.hit_ratio": _ratio(attrs["synth.scoring:cache_hits"], lookups),
        "runtime.executors.wave_s": wave_wall,
        "runtime.executors.wait_s": pooled_wait,
        "runtime.executors.worker_busy_s": busy,
        "runtime.executors.occupancy": _ratio(busy, wave_capacity),
        "runtime.executors.waves": calls[WAVE],
        "runtime.executors.tasks": attrs["runtime.executors:tasks"],
        "runtime.shm.self_s": layer_self["runtime.shm"],
        "runtime.shm.bytes": attrs["runtime.shm:bytes"],
        "runtime.scheduler.self_s": layer_self["runtime.scheduler"],
        "runtime.scheduler.steps": layer_calls["runtime.scheduler"],
        "runtime.scheduler.preemptions": attrs["runtime.scheduler:preemptions"],
        "runtime.checkpoint.write_s": own["runtime.checkpoint.write"],
        "runtime.checkpoint.writes": calls["runtime.checkpoint.write"],
        "runtime.checkpoint.lease_s": own["runtime.checkpoint.lease"],
        "runtime.checkpoint.lease_ops": calls["runtime.checkpoint.lease"],
        "service.ledger_s": own["service.ledger"],
        "service.ledger_writes": calls["service.ledger"],
        "service.record_s": own["service.record"],
    }
    for layer in LAYERS:
        metrics[f"{layer}.share"] = _ratio(layer_self[layer], wall)
    return metrics


def setup_metrics(root: dict, spans: list[dict]) -> dict[str, float]:
    """The setup-scope ledger: what ``setup_s`` is made of."""
    full = answer_metrics(root, spans)
    return {
        "setup.wall_s": full["answer_wall_s"],
        "setup.netsim.self_s": full["netsim.self_s"],
        "setup.netsim.calls": full["netsim.calls"],
        "setup.trace.segment_s": full["trace.segment_s"],
        "setup.unattributed_s": full["unattributed_s"],
    }


def unit_of(name: str) -> str:
    """Unit of a ledger metric, read off its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", ".share", ".occupancy")) or name == "trace_overhead":
        return "ratio"
    if name.endswith(".bytes"):
        return "B"
    return "count"

