"""LB_Keogh lower bounds for DTW (Keogh, VLDB '02).

The batched scorer prescreens every candidate with LB_Keogh before any
DTW runs.  The bound never exceeds the **raw** DTW warping cost (the
un-normalized corner of the accumulated-cost matrix), so a candidate
whose bound already exceeds the best-so-far threshold can be discarded
without running the banded DP — the surviving minimum is unchanged,
which is what keeps batched rankings bit-identical to the scalar
reference path.

Validity: the banded DP only visits cells with ``|i - j| <= w``
(:func:`repro.distance.dtw.band_width`), so an upper/lower envelope of
the candidate series with reach ``w`` brackets every value the query's
point ``i`` can be matched against; each row is visited at least once,
so summing each point's distance-to-envelope lower-bounds the total.
DTW is symmetric, so the bound also holds with the roles swapped (the
envelope over the query), and the scorer takes the larger of the two.

One kernel builds every envelope, :func:`keogh_envelope_batch`: a
running maximum (upper) and minimum (lower) over a ±inf-padded copy of
the rows, with spans that double each pass, so a window of ``2w + 1``
points takes ⌈log2(2w + 1)⌉ passes per side.  Max and min are exact, so
the envelopes are the plain sliding-window ones element for element,
NaN and ±inf included.  Like the sliding-window envelopes, they keep
the memory order of the rows they are built from: numpy sums the rows
of F- and C-ordered operands in different orders, so a caller that sums
along them gets the same floats.

NaN inputs poison the bounds into NaN, whose comparisons are all false —
a NaN series is therefore never pruned by a bound, preserving whatever
the full metric would have done with it.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["keogh_envelope", "keogh_envelope_batch", "lb_keogh"]


def keogh_envelope(
    series: np.ndarray, width: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sliding min/max envelope of *series* with reach *width*.

    Returns ``(lower, upper)`` where ``lower[i]``/``upper[i]`` bracket
    every value of ``series[i - width : i + width + 1]``.  Pass the DP's
    :func:`~repro.distance.dtw.band_width` so the envelope covers every
    cell the banded DTW may visit.
    """
    series = np.asarray(series, dtype=float)
    lower, upper = keogh_envelope_batch(series[np.newaxis], width)
    return lower[0], upper[0]


def keogh_envelope_batch(
    queries: np.ndarray, width: int
) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise :func:`keogh_envelope` of a ``(K, m)`` matrix at once.

    Used by the batched prescreen to run LB_Keogh in the *reverse*
    direction (envelope over each candidate row, checked against the
    observed series) — the maximum of both directions is still a valid
    lower bound, and the reverse one often separates candidates the
    forward one cannot.  The envelopes are F-ordered when *queries* is,
    C-ordered otherwise.
    """
    size = queries.shape[1]
    if size == 0:
        raise ValueError("cannot build an envelope of an empty series")
    reach = min(max(int(width), 0), size - 1)
    order = "F" if queries.flags.fnc else "C"
    # Points-major (``queries.T``): each shifted slice below is then one
    # contiguous block, whatever the rows' own memory order.
    points = queries.T
    return (
        _running(points, reach, np.minimum, np.inf, order),
        _running(points, reach, np.maximum, -np.inf, order),
    )


def _running(
    points: np.ndarray,
    reach: int,
    combine: Callable[..., np.ndarray],
    fill: float,
    order: str,
) -> np.ndarray:
    """*combine* over each window ``[i - reach, i + reach]`` of the
    ``(m, K)`` *points*, as a ``(K, m)`` matrix in *order*.

    After the pass with span ``s``, point ``j`` of the padded copy holds
    the combination of ``[j, j + 2s)``; the largest span that fits the
    window, taken twice with overlap, then covers it exactly.
    """
    size, count = points.shape
    window = 2 * reach + 1
    running = np.full((size + 2 * reach, count), fill)
    running[reach : reach + size] = points
    span = 1
    while 2 * span <= window:
        running = combine(running[:-span], running[span:])
        span *= 2
    envelope = np.empty((count, size), order=order)
    combine(running[:size], running[window - span :], out=envelope.T)
    return envelope


def lb_keogh(
    query: np.ndarray, lower: np.ndarray, upper: np.ndarray
) -> float:
    """O(n) envelope lower bound on the raw banded-DTW cost.

    *query* must have the same length as the series the envelope was
    built from (the scorer downsamples both sides to one budget), and
    the envelope's reach must be at least the DP's band width.  A NaN
    anywhere makes the bound NaN.
    """
    query = np.asarray(query, dtype=float)
    if query.size != lower.size:
        raise ValueError(
            f"query size {query.size} != envelope size {lower.size}"
        )
    with np.errstate(invalid="ignore"):
        return float(
            np.maximum(query - upper, 0.0).sum()
            + np.maximum(lower - query, 0.0).sum()
        )
