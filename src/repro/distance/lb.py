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

NaN inputs poison the bounds into NaN, whose comparisons are all false —
a NaN series is therefore never pruned by a bound, preserving whatever
the full metric would have done with it.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
    size = series.size
    if size == 0:
        raise ValueError("cannot build an envelope of an empty series")
    reach = min(max(int(width), 0), size - 1)
    window = 2 * reach + 1
    upper = sliding_window_view(
        np.pad(series, reach, constant_values=-np.inf), window
    ).max(axis=1)
    lower = sliding_window_view(
        np.pad(series, reach, constant_values=np.inf), window
    ).min(axis=1)
    return lower, upper


def keogh_envelope_batch(
    queries: np.ndarray, width: int
) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise :func:`keogh_envelope` of a ``(K, m)`` matrix at once.

    Used by the batched prescreen to run LB_Keogh in the *reverse*
    direction (envelope over each candidate row, checked against the
    observed series) — the maximum of both directions is still a valid
    lower bound, and the reverse one often separates candidates the
    forward one cannot.
    """
    size = queries.shape[1]
    if size == 0:
        raise ValueError("cannot build an envelope of an empty series")
    reach = min(max(int(width), 0), size - 1)
    window = 2 * reach + 1
    pad = ((0, 0), (reach, reach))
    upper = sliding_window_view(
        np.pad(queries, pad, constant_values=-np.inf), window, axis=1
    ).max(axis=2)
    lower = sliding_window_view(
        np.pad(queries, pad, constant_values=np.inf), window, axis=1
    ).min(axis=2)
    return lower, upper


def lb_keogh(
    query: np.ndarray, lower: np.ndarray, upper: np.ndarray
) -> float:
    """O(n) envelope lower bound on the raw banded-DTW cost.

    *query* must have the same length as the series the envelope was
    built from (the scorer downsamples both sides to one budget), and
    the envelope's reach must be at least the DP's band width.
    """
    query = np.asarray(query, dtype=float)
    if query.size != lower.size:
        raise ValueError(
            f"query size {query.size} != envelope size {lower.size}"
        )
    above = query - upper
    below = lower - query
    with np.errstate(invalid="ignore"):
        return float(
            np.where(above > 0.0, above, 0.0).sum()
            + np.where(below > 0.0, below, 0.0).sum()
        )
