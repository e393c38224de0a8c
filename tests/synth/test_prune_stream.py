"""Per-sketch prune accounting of the batched scorer, pinned by digest.

The batched scorer (:meth:`Scorer.score_sketch`) prunes candidates with
lower bounds, partial totals, abandoned DTW programs and a caller's warm
start.  Those prunes never change a sketch's result, but they do decide
the run-log counters, so a rewrite of the prune loop must keep both.

This suite scores a prefix of the vegas 3/5 sketch stream, the one the
benchmark's ``delay_exhaustive`` workload scores, with that workload's
scorer settings, over a fixed three-segment working set, in two ways:

* cold: no incumbent, as for the first sketch of a bucket;
* chained: each sketch bounded by the best distance its bucket (its
  operator set) has so far, the way the executors' ``_score_tasks``
  chains group incumbents.

Each digest hashes one line per sketch, in stream order: the winning
handler's text, ``distance.hex()`` and the sketch's deltas of the pinned
counters.  ``batched_dtw_sweeps`` is left out: it counts kernel calls,
not prunes.  The score cache is off, so the pins hold without it.
"""

from __future__ import annotations

import hashlib
import itertools
import math

import pytest

from repro.dsl.families import family, with_budget
from repro.dsl.printer import to_text
from repro.netsim import Environment
from repro.synth.enumerator import enumerate_sketches
from repro.synth.scoring import Scorer
from repro.trace.collect import CollectionConfig, collect_traces
from repro.trace.noise import NoiseModel
from repro.trace.segmentation import segment_trace

VEGAS = with_budget(family("vegas"), max_depth=3, max_nodes=5)

#: Sketches scored, from the head of the 5,527-sketch stream; the whole
#: stream takes about 50 s cold on a 2-vCPU Xeon.
PREFIX = 600

#: The counters each line pins, as named on :class:`ScoringCounters`.
COUNTERS = (
    "batched_waves",
    "lb_pruned",
    "dp_abandoned",
    "candidates_pruned",
    "warm_start_pruned",
)


@pytest.fixture(scope="module")
def working_set():
    """One loss-free segment from each of three noisy vegas traces."""
    traces = collect_traces(
        "vegas",
        CollectionConfig(
            duration=4.0,
            environments=(
                Environment(bandwidth_mbps=5.0, rtt_ms=25.0),
                Environment(bandwidth_mbps=15.0, rtt_ms=80.0),
                Environment(bandwidth_mbps=10.0, rtt_ms=50.0),
            ),
            noise=NoiseModel(
                jitter_std=0.002, dropout=0.02, cwnd_error=0.02, seed=0
            ),
        ),
    )
    segments = [
        segment for trace in traces for segment in segment_trace(trace)
    ]
    assert len(segments) == 3
    return segments


def _scorer() -> Scorer:
    """``delay_exhaustive``'s scorer settings, without the score cache."""
    return Scorer(
        constant_pool=VEGAS.constant_pool,
        completion_cap=12,
        series_budget=96,
        max_replay_rows=48,
    )


def _prune_stream(segments, chained: bool):
    """(line count, sha256 of the lines, counters that fired)."""
    scorer = _scorer()
    incumbents: dict[frozenset[str], float] = {}
    digest = hashlib.sha256()
    count = 0
    fired: set[str] = set()
    for sketch in itertools.islice(enumerate_sketches(VEGAS), PREFIX):
        incumbent = (
            incumbents.get(sketch.operators, math.inf) if chained else math.inf
        )
        before = [getattr(scorer.counters, name) for name in COUNTERS]
        scored = scorer.score_sketch(
            sketch,
            segments,
            bound=incumbent if math.isfinite(incumbent) else None,
        )
        deltas = [
            getattr(scorer.counters, name) - old
            for name, old in zip(COUNTERS, before)
        ]
        fired.update(name for name, delta in zip(COUNTERS, deltas) if delta)
        if scored.distance < incumbent:
            incumbents[sketch.operators] = scored.distance
        line = "|".join(
            [to_text(scored.handler), scored.distance.hex()]
            + [str(delta) for delta in deltas]
        )
        digest.update(line.encode() + b"\n")
        count += 1
    return count, digest.hexdigest(), fired


def test_cold_prune_stream(working_set):
    count, digest, fired = _prune_stream(working_set, chained=False)
    assert (count, digest) == (
        PREFIX,
        "39d9de262d1f4a43547293d7564baa7ac2655c23ec2276f436d285d5ce8bac48",
    )
    assert fired == set(COUNTERS) - {"warm_start_pruned"}


def test_chained_prune_stream(working_set):
    count, digest, fired = _prune_stream(working_set, chained=True)
    assert (count, digest) == (
        PREFIX,
        "015ac952d43566d31dc762c6e119ca1c27df8861ff0e006f9845b925e12f9d8d",
    )
    assert fired == set(COUNTERS)
