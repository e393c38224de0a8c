"""Diverse trace-segment selection (§3.2).

Scoring every packet of every trace is too costly, so Abagnale samples a
subset of segments per refinement iteration.  To avoid over-fitting to
one network condition, the sampler is diversity-seeking: it draws half
the requested segments uniformly at random, then for each drawn segment
adds the un-picked segment *farthest* from it (by a distance over
normalized cwnd shapes), so the working set spans many conditions.
"""

from __future__ import annotations

import random
from typing import Callable, Sequence

import numpy as np

from repro.trace.model import TraceSegment
from repro.trace.signals import window_columns

__all__ = ["segment_shape", "shape_distance", "select_diverse_segments"]

#: Number of points segments are resampled to before shape comparison.
_SHAPE_POINTS = 64


def segment_shape(segment: TraceSegment) -> np.ndarray:
    """A scale-free shape signature of the segment's cwnd evolution.

    The cwnd series is resampled to a fixed length over normalized time
    and scaled by its mean, so segments from different bandwidths and
    durations are comparable.  It reads the same ``time`` and ``cwnd``
    columns :func:`~repro.trace.signals.extract_signals` would, and
    refuses the same segments, without extracting the other signals.
    """
    _, times, cwnd = window_columns(segment)
    if len(cwnd) < 2:
        return np.ones(_SHAPE_POINTS)
    t_norm = (times - times[0]) / max(times[-1] - times[0], 1e-9)
    grid = np.linspace(0.0, 1.0, _SHAPE_POINTS)
    resampled = np.interp(grid, t_norm, cwnd)
    mean = resampled.mean()
    return resampled / mean if mean > 0 else resampled


def shape_distance(left: np.ndarray, right: np.ndarray) -> float:
    """Euclidean distance between two shape signatures."""
    return float(np.linalg.norm(left - right))


def select_diverse_segments(
    segments: Sequence[TraceSegment],
    count: int,
    *,
    rng: random.Random | None = None,
    distance: Callable[[np.ndarray, np.ndarray], float] = shape_distance,
) -> list[TraceSegment]:
    """Pick *count* segments: half random, half farthest-from-picked.

    Follows the paper's §3.2 procedure: first randomly select half the
    desired number; then, for each sampled segment, add the remaining
    un-picked segment with the highest distance from it.
    """
    if count >= len(segments):
        return list(segments)
    rng = rng or random.Random(0)
    shapes = [segment_shape(segment) for segment in segments]
    indices = list(range(len(segments)))

    first_half = max(count // 2, 1)
    picked = rng.sample(indices, min(first_half, len(indices)))
    remaining = [index for index in indices if index not in picked]

    for anchor in list(picked):
        if len(picked) >= count or not remaining:
            break
        farthest = max(
            remaining, key=lambda index: distance(shapes[anchor], shapes[index])
        )
        picked.append(farthest)
        remaining.remove(farthest)

    # Top up randomly if the pairing loop finished early.
    while len(picked) < count and remaining:
        extra = rng.choice(remaining)
        picked.append(extra)
        remaining.remove(extra)

    return [segments[index] for index in picked]
