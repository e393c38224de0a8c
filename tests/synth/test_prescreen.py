"""The batched scorer's LB_Keogh prescreen, pinned by digest.

Before any DTW runs, :meth:`Scorer.score_sketch` bounds every candidate
on every segment of the working set with LB_Keogh, in both directions.
That ``(lanes, segments)`` matrix of lower bounds decides which lanes
the prune loop (:meth:`Scorer._sweep`) drops, and so the run-log
counters.  A rewrite of the prescreen must keep it bit for bit: one
ulp can flip a prune.

The row sums behind each bound follow the memory order of the replayed
query matrix: a table longer than ``series_budget`` is downsampled by a
column pick, which yields an F-ordered matrix, and numpy sums the rows
of an F-ordered operand in a different order than those of a C-ordered
one.  A prescreen that sums the rows of F-ordered queries in C order
moves some bounds by an ulp or two; the reno and ``inf`` cases below
fail on it.

Each case scores sketches cold and hashes every ``lb_matrix`` the prune
loop receives, in order, shape included:

* the vegas 3/5 stream prefix on 48-point segments, with
  ``delay_exhaustive``'s scorer settings (C-ordered queries);
* the whole reno 3/4 stream (42 sketches) on eight reno segments of
  mixed length at ``max_replay_rows=320`` and ``series_budget=96``:
  queries of 22 to 96 points, two of them downsampled (F-ordered
  queries);
* the sketches of ``test_batched_replay.py`` on its working set with an
  ``inf`` in one observed series.
"""

from __future__ import annotations

import hashlib
import itertools

import numpy as np
import pytest

from repro.dsl.families import family, with_budget
from repro.dsl.parser import parse
from repro.netsim import Environment
from repro.synth.enumerator import enumerate_sketches
from repro.synth.scoring import Scorer
from repro.synth.sketch import Sketch
from repro.trace.collect import CollectionConfig, collect_traces
from repro.trace.noise import NoiseModel
from repro.trace.segmentation import segment_trace
from tests.synth.test_batched_replay import SKETCH_TEXTS, _scorer

VEGAS = with_budget(family("vegas"), max_depth=3, max_nodes=5)
RENO = with_budget(family("reno"), max_depth=3, max_nodes=4)

#: Vegas sketches scored, from the head of the 5,527-sketch stream.
PREFIX = 400


@pytest.fixture(scope="module")
def vegas_working_set():
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


@pytest.fixture(scope="module")
def poisoned_working_set(reno_segments):
    """``test_batched_replay.py``'s working set, its last observed
    series holding an ``inf``."""
    from repro.distance.preprocess import downsample
    from repro.runtime.shm import PlaneSegment

    working = reno_segments[:4]
    entry = _scorer().prepare_segments(working[-1:])[0]
    observed = entry.observed.copy()
    observed[observed.size // 2] = np.inf
    poisoned = PlaneSegment(
        0, entry.table, observed, downsample(observed, 128), None
    )
    return [*working[:-1], poisoned]


def _lb_digest(monkeypatch, scorer, sketches, segments):
    """(matrices, sha256 over them, query layouts seen) for scoring
    *sketches* cold on *segments*."""
    seen: list[np.ndarray] = []
    layouts: set[str] = set()
    sweep = Scorer._sweep

    def recording(self, lanes, incumbent, entries, queries, lb_matrix):
        if not seen or seen[-1] is not lb_matrix:
            seen.append(lb_matrix)
            layouts.update(
                "C" if block.flags.c_contiguous else "F" for block in queries
            )
        return sweep(self, lanes, incumbent, entries, queries, lb_matrix)

    monkeypatch.setattr(Scorer, "_sweep", recording)
    with np.errstate(invalid="ignore"):
        for sketch in sketches:
            scorer.score_sketch(sketch, segments)
    digest = hashlib.sha256()
    for matrix in seen:
        digest.update(repr(matrix.shape).encode())
        digest.update(np.ascontiguousarray(matrix).tobytes())
    return len(seen), digest.hexdigest(), layouts


def test_vegas_stream_lb_matrices(monkeypatch, vegas_working_set):
    scorer = Scorer(
        constant_pool=VEGAS.constant_pool,
        completion_cap=12,
        series_budget=96,
        max_replay_rows=48,
    )
    count, digest, layouts = _lb_digest(
        monkeypatch,
        scorer,
        itertools.islice(enumerate_sketches(VEGAS), PREFIX),
        vegas_working_set,
    )
    assert layouts == {"C"}
    assert (count, digest) == (
        PREFIX,
        "60245c888484e99330c1e9c0e96f47e62a9a534e9b2f96ffacc527e2bbf0489f",
    )


def test_mixed_length_reno_lb_matrices(monkeypatch, reno_segments):
    scorer = Scorer(
        constant_pool=RENO.constant_pool,
        completion_cap=12,
        series_budget=96,
        max_replay_rows=320,
    )
    segments = reno_segments[:8]
    sizes = [len(scorer.table_for(segment)) for segment in segments]
    assert min(sizes) < 96 and sum(size > 96 for size in sizes) == 2
    count, digest, layouts = _lb_digest(
        monkeypatch,
        scorer,
        enumerate_sketches(RENO),
        segments,
    )
    assert layouts == {"C", "F"}
    assert (count, digest) == (
        42,
        "d7585739db8cd0415b3437ef8997b5358c2513063951d6813e8861018e2d0e94",
    )


def test_poisoned_working_set_lb_matrices(
    monkeypatch, poisoned_working_set
):
    count, digest, _ = _lb_digest(
        monkeypatch,
        _scorer(),
        [Sketch.from_expr(parse(text)) for text in SKETCH_TEXTS],
        poisoned_working_set,
    )
    assert (count, digest) == (
        len(SKETCH_TEXTS),
        "8ec3d8890517d5cdbce1ebba8d51f94864cd34cfb9c8d69967a04b0c2608cc48",
    )
