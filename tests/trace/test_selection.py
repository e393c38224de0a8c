"""Diverse segment-selection tests (§3.2 strategy)."""

import json
import math
import random

import numpy as np
import pytest

from repro.errors import TraceError
from repro.netsim.environments import Environment
from repro.trace.collect import CollectionConfig, collect_traces
from repro.trace.corrupt import corruption_corpus
from repro.trace.io import trace_from_dict
from repro.trace.model import AckRecord, Trace, TraceSegment
from repro.trace.noise import NoiseModel
from repro.trace.segmentation import segment_trace
from repro.trace.selection import (
    segment_shape,
    select_diverse_segments,
    shape_distance,
)
from repro.trace.signals import extract_signals


def test_shape_is_fixed_length(reno_segments):
    shape = segment_shape(reno_segments[0])
    assert shape.shape == (64,)
    assert np.isfinite(shape).all()


def test_shape_scale_invariance(reno_segments):
    """The signature divides by the mean, so absolute window size drops out."""
    shape = segment_shape(reno_segments[1])
    assert shape.mean() == 1.0 or abs(shape.mean() - 1.0) < 1e-9


def test_shape_distance_identity(reno_segments):
    shape = segment_shape(reno_segments[0])
    assert shape_distance(shape, shape) == 0.0


def test_select_all_when_count_exceeds(reno_segments):
    picked = select_diverse_segments(reno_segments, len(reno_segments) + 5)
    assert picked == list(reno_segments)


def test_select_exact_count(reno_segments):
    if len(reno_segments) < 5:
        return
    picked = select_diverse_segments(reno_segments, 4, rng=random.Random(1))
    assert len(picked) == 4
    assert len({id(segment) for segment in picked}) == 4


def test_selection_deterministic_with_seed(reno_segments):
    if len(reno_segments) < 5:
        return
    first = select_diverse_segments(reno_segments, 4, rng=random.Random(9))
    second = select_diverse_segments(reno_segments, 4, rng=random.Random(9))
    assert [id(s) for s in first] == [id(s) for s in second]


def test_selection_prefers_diversity(reno_segments):
    """The farthest-pairing half must include at least one segment far
    from its anchor, compared to uniform sampling of the same size."""
    if len(reno_segments) < 6:
        return
    picked = select_diverse_segments(reno_segments, 4, rng=random.Random(3))
    shapes = [segment_shape(segment) for segment in picked]
    spread = max(
        shape_distance(a, b) for a in shapes for b in shapes
    )
    assert spread > 0.0


# --------------------------------------------- the two-column shape, pinned


def _table_shape(segment):
    """The shape as built from a full signal table (the oracle)."""
    table = extract_signals(segment)
    cwnd = table.observed_cwnd()
    times = table.times()
    if len(cwnd) < 2:
        return np.ones(64)
    t_norm = (times - times[0]) / max(times[-1] - times[0], 1e-9)
    grid = np.linspace(0.0, 1.0, 64)
    resampled = np.interp(grid, t_norm, cwnd)
    mean = resampled.mean()
    return resampled / mean if mean > 0 else resampled


def _looped_cwnd(segment):
    """The window column as a per-row loop builds it (the oracle): a
    non-finite observation carries the previous finite one, and a
    leading run takes the first finite one."""
    column, last = [], None
    for ack in segment.acks:
        if ack.dupack:
            continue
        if math.isfinite(ack.cwnd_bytes):
            last = float(ack.cwnd_bytes)
        column.append(last)
    first = next(value for value in column if value is not None)
    return np.array([first if value is None else value for value in column])


def _outcome(function, segment):
    """``("ok", bytes)`` or ``("refused", error message)``."""
    try:
        return "ok", function(segment).tobytes()
    except TraceError as exc:
        return "refused", str(exc)


def _assert_same_shape(segment):
    oracle = _outcome(_table_shape, segment)
    assert _outcome(segment_shape, segment) == oracle, segment.label
    return oracle[0]


@pytest.fixture(scope="module")
def noisy_zoo_segments():
    config = CollectionConfig(
        duration=6.0,
        environments=(
            Environment(bandwidth_mbps=5.0, rtt_ms=25.0),
            Environment(bandwidth_mbps=15.0, rtt_ms=80.0),
        ),
        noise=NoiseModel(
            jitter_std=0.002, dropout=0.03, cwnd_error=0.03, seed=3
        ),
    )
    return [
        segment
        for cca in ("reno", "cubic", "vegas", "bbr", "scalable", "student4")
        for trace in collect_traces(cca, config)
        for segment in segment_trace(trace)
    ]


def test_shape_matches_table_shape_on_noisy_zoo(noisy_zoo_segments):
    assert len(noisy_zoo_segments) > 50
    for segment in noisy_zoo_segments:
        assert _assert_same_shape(segment) == "ok"


def test_shape_matches_table_shape_on_corrupted_windows():
    """Windows over every loadable corrupted trace, unrepaired: sliding
    ones, and one- and two-row ones on each dupack and non-finite window.
    The same bytes where extraction succeeds, the same refusal where it
    does not, and the window column of the per-row loop."""
    clean = collect_traces(
        "reno",
        CollectionConfig(
            duration=4.0,
            environments=(Environment(bandwidth_mbps=10.0, rtt_ms=50.0),),
        ),
    )[0]
    outcomes = []
    for sample in corruption_corpus(clean, seeds=(0, 1)):
        try:
            trace = trace_from_dict(json.loads(sample.text))
        except (TraceError, ValueError):
            continue  # refused at load: never segmented
        n = len(trace.acks)
        windows = [
            (start, min(start + 60, n)) for start in range(0, n - 1, 37)
        ]
        windows += [
            (start, min(start + width, n))
            for start, ack in enumerate(trace.acks)
            if ack.dupack or not math.isfinite(ack.cwnd_bytes)
            for width in (1, 2)
        ]
        for start, stop in windows:
            segment = TraceSegment(trace, start, stop, 0.0)
            outcomes.append(_assert_same_shape(segment))
            if outcomes[-1] == "ok":
                assert (
                    extract_signals(segment).observed_cwnd().tobytes()
                    == _looped_cwnd(segment).tobytes()
                ), segment.label
    assert outcomes.count("ok") > 500
    assert outcomes.count("refused") > 0


def _ack(time, rtt=0.05, cwnd=10_000.0, dupack=False):
    return AckRecord(
        time=time,
        ack_seq=0,
        acked_bytes=0 if dupack else 1000,
        rtt_sample=rtt,
        cwnd_bytes=cwnd,
        inflight_bytes=2000,
        dupack=dupack,
    )


NAN = float("nan")

#: ``(acks, start, stop, refusal)``: segments extraction refuses, and
#: the boundary cases it accepts (``refusal`` is ``None``).
REFUSALS = [
    pytest.param(
        [_ack(0.0), _ack(0.1, None, dupack=True),
         _ack(0.2, None, dupack=True)],
        1, 3, "no new-data ACKs", id="only-dupacks",
    ),
    pytest.param(
        [_ack(0.0), _ack(0.1), _ack(NAN)],
        1, 3, "non-finite timestamps", id="non-finite-time",
    ),
    pytest.param(
        [_ack(0.0), _ack(0.1, cwnd=NAN), _ack(0.2, cwnd=-math.inf)],
        1, 3, "no finite cwnd", id="no-finite-window",
    ),
    pytest.param(
        [_ack(0.0, None), _ack(0.1, NAN), _ack(0.2, -0.05), _ack(0.3, None),
         _ack(0.4)],
        1, 4, "no usable RTT", id="no-rtt-before-end",
    ),
    pytest.param(
        [_ack(0.0), _ack(0.1, None), _ack(0.2, None, NAN),
         _ack(0.3, None, 12_000.0)],
        1, 4, None, id="rtt-only-in-prefix",
    ),
    pytest.param(
        [_ack(0.0, None, NAN), _ack(0.1, NAN, math.inf),
         _ack(0.2, cwnd=12_000.0), _ack(0.3, None, NAN)],
        0, 4, None, id="rtt-and-window-inside",
    ),
]


@pytest.mark.parametrize("acks, start, stop, refusal", REFUSALS)
def test_shape_refuses_what_extraction_refuses(acks, start, stop, refusal):
    trace = Trace(
        cca_name="synthetic", environment_label="acks", mss=1000, acks=acks
    )
    segment = TraceSegment(trace, start, stop, 0.0)
    verdict = _assert_same_shape(segment)
    if refusal is None:
        assert verdict == "ok"
        assert (
            extract_signals(segment).observed_cwnd().tobytes()
            == _looped_cwnd(segment).tobytes()
        )
        return
    with pytest.raises(TraceError, match=refusal):
        segment_shape(segment)
