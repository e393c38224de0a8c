"""Dynamic Time Warping distance (Berndt & Clifford, KDD '94).

DTW is Abagnale's primary metric (§4.3): it is alignment-based, so the
temporal shifts that measurement noise introduces between a synthesized
trace and an observed one do not dominate the score.  The paper finds DTW
"remains correct for the widest range of constant error" among the
metrics considered.

The implementation is the classic O(n·m) dynamic program with an optional
Sakoe-Chiba band, vectorized row-by-row with numpy.  Cost is absolute
difference (L1 ground distance); the returned value is normalized by the
warping-path-length bound (n + m) so segments of different lengths are
comparable.

Storage is banded: the DP keeps two rolling length-(m+1) rows instead of
the full ``(n+1)×(m+1)`` matrix (:func:`dtw_matrix` can still materialize
the matrix for tests/debugging via ``return_matrix=True``), and
:func:`dtw_distance_batch` runs the same recurrence over a ``(K, n)``
stack of queries against one candidate in a single sweep, with per-lane
early abandonment — the kernel the batched scorer feeds each segment's
live lanes through.
"""

from __future__ import annotations

import numpy as np

from repro.distance.preprocess import SERIES_BUDGET, downsample

__all__ = [
    "dtw_distance",
    "dtw_distance_batch",
    "dtw_matrix",
    "band_width",
    "inflate_bound",
]

_INF = float("inf")

#: Slack applied by :func:`inflate_bound` — generous relative to the
#: float-summation error of a ~256-step DP (≈1e-10 relative), yet far
#: too small to let a genuinely worse candidate slip past a prune.
_BOUND_RELATIVE_SLACK = 1e-7
_BOUND_ABSOLUTE_SLACK = 1e-9


def band_width(n: int, m: int, band: float | None = 0.2) -> int:
    """Sakoe-Chiba half-width used by the DTW DP for sizes n, m.

    Also the contract the LB_Keogh envelope must honor: the DP only
    visits cells with ``|i - j| <= width``, so an envelope built with
    this reach lower-bounds the banded DTW.  The width always covers the
    diagonal slope difference (``abs(n - m) + 1``), which makes the
    ``(n, m)`` corner reachable — an infinite corner can then only mean
    the DP was abandoned by a ``bound``.
    """
    width = max(n, m) if band is None else max(int(band * max(n, m)), 2)
    return max(width, abs(n - m) + 1)


def inflate_bound(bound: float) -> float:
    """Add float-safety slack to an abandon threshold.

    Prunes compare *exact* quantities against thresholds derived from
    floating-point sums; inflating the threshold by far more than the
    accumulated rounding error guarantees a candidate that would tie or
    beat the incumbent is never abandoned (ranking identity), while a
    strictly worse one still prunes almost always.
    """
    return bound + abs(bound) * _BOUND_RELATIVE_SLACK + _BOUND_ABSOLUTE_SLACK


def _banded_cost(
    left: np.ndarray,
    right: np.ndarray,
    width: int,
    bound: float | None,
) -> float:
    """Corner total of the banded DP, storing only two rolling rows.

    Bit-identical to reading ``dtw_matrix(...)[n, m]``: each row is the
    same closed-form recurrence on the same floats; the only cells a row
    reads from its predecessor are ``[lo-1, hi]``, and the band edges
    ``lo`` / ``hi`` are non-decreasing in ``i``, so a two-buffer rotation
    with one explicit reset at ``curr[lo-1]`` (the cell a stale row
    ``i-2`` value could leak through) reproduces the full matrix's
    neighborhood exactly.  In the full matrix ``cost[i, lo-1]`` is never
    written for ``i >= 1`` (it sits left of the band), so the in-row
    ``min(running, cost[i, lo-1])`` term of the matrix recurrence is a
    no-op and is dropped here.
    """
    n, m = left.size, right.size
    prev = np.full(m + 1, _INF)
    prev[0] = 0.0
    curr = np.full(m + 1, _INF)
    with np.errstate(invalid="ignore"):
        for i in range(1, n + 1):
            lo = max(1, i - width)
            hi = min(m, i + width)
            row_cost = np.abs(left[i - 1] - right[lo - 1 : hi])
            best_prev = np.minimum(prev[lo - 1 : hi], prev[lo : hi + 1])
            prefix = np.add.accumulate(row_cost)
            shifted = np.empty_like(prefix)
            shifted[0] = 0.0
            shifted[1:] = prefix[:-1]
            running = np.minimum.accumulate(best_prev - shifted)
            row = prefix + running
            if i < n and bound is not None and not row.min() <= bound:
                # `not <=` rather than `>` so a NaN row abandons too.
                # The final row is exempt: the matrix form writes the
                # corner before checking, so an abandonment there still
                # surfaces the exact corner value.
                return _INF
            curr[lo - 1] = _INF
            curr[lo : hi + 1] = row
            prev, curr = curr, prev
    return float(prev[m])


def dtw_matrix(
    left: np.ndarray,
    right: np.ndarray,
    *,
    band: float | None = 0.2,
    bound: float | None = None,
    return_matrix: bool = False,
):
    """Banded DTW DP: corner total, or the full cost matrix on request.

    By default returns the accumulated cost at the ``(n, m)`` corner as
    a float, computed with two rolling band rows — no ``(n+1)×(m+1)``
    allocation.  ``return_matrix=True`` materializes and returns the
    classic full matrix instead (tests and debugging only; the values
    are identical where the band visits).

    ``band`` is the Sakoe-Chiba band half-width as a fraction of the
    longer series; ``None`` disables banding.  When *bound* is given the
    DP is abandoned — the corner reported infinite — as soon as an
    entire row's running minimum exceeds it: every warping path visits
    at least one cell per row and costs are non-negative, so the row
    minimum lower-bounds the corner and abandonment is exact (a path
    with total cost ``<= bound`` is never lost).
    """
    left = np.asarray(left, dtype=float)
    right = np.asarray(right, dtype=float)
    n, m = left.size, right.size
    if n == 0 or m == 0:
        raise ValueError("DTW requires non-empty series")
    width = band_width(n, m, band)
    if not return_matrix:
        return _banded_cost(left, right, width, bound)

    cost = np.full((n + 1, m + 1), _INF)
    cost[0, 0] = 0.0
    with np.errstate(invalid="ignore"):
        for i in range(1, n + 1):
            lo = max(1, i - width)
            hi = min(m, i + width)
            row_cost = np.abs(left[i - 1] - right[lo - 1 : hi])
            diag = cost[i - 1, lo - 1 : hi]
            above = cost[i - 1, lo : hi + 1]
            best_prev = np.minimum(diag, above)
            # The row recurrence r_j = c_j + min(b_j, r_{j-1}) has the
            # closed form r_j = S_j + min(r_lo, min_{k<=j} (b_k -
            # S_{k-1})) with S the prefix sums of c — so the whole row
            # vectorizes as a cumulative sum plus a running minimum (no
            # Python inner loop).
            prefix = np.add.accumulate(row_cost)
            shifted = np.empty_like(prefix)
            shifted[0] = 0.0
            shifted[1:] = prefix[:-1]
            running = np.minimum.accumulate(best_prev - shifted)
            row = prefix + np.minimum(running, cost[i, lo - 1])
            cost[i, lo : hi + 1] = row
            if bound is not None and not row.min() <= bound:
                return cost
    return cost


def dtw_distance(
    left: np.ndarray,
    right: np.ndarray,
    *,
    band: float | None = 0.2,
    budget: int = SERIES_BUDGET,
    bound: float | None = None,
) -> float:
    """Normalized DTW distance between two series.

    Both series are down-sampled to *budget* points; the accumulated
    warping cost is divided by the path-length bound so different segment
    lengths score comparably.

    When *bound* is given (in normalized units), the DP may abandon once
    no path can finish within it, returning ``inf``; whenever the true
    distance is ``<= bound`` the exact distance is returned (the raw
    threshold is inflated by :func:`inflate_bound` so float rounding can
    never turn a would-be winner into a prune).
    """
    left = downsample(np.asarray(left, dtype=float), budget)
    right = downsample(np.asarray(right, dtype=float), budget)
    n, m = left.size, right.size
    if n == 0 or m == 0:
        raise ValueError("DTW requires non-empty series")
    width = band_width(n, m, band)
    if bound is not None and np.isfinite(bound):
        raw_bound = inflate_bound(bound * (n + m))
        total = _banded_cost(left, right, width, raw_bound)
        if total == _INF:
            # band_width keeps the corner reachable, so an infinite
            # corner here means the DP was abandoned: distance > bound.
            return _INF
        return float(total / (n + m))
    total = _banded_cost(left, right, width, None)
    if total == _INF:
        # Band too narrow for these lengths; fall back to an exact pass.
        total = _banded_cost(left, right, band_width(n, m, None), None)
    return float(total / (n + m))


def dtw_distance_batch(
    queries: np.ndarray,
    candidate: np.ndarray,
    *,
    band: float | None = 0.2,
    bounds: np.ndarray | None = None,
) -> np.ndarray:
    """Normalized DTW of every row of ``queries`` against ``candidate``.

    One banded DP sweep over a ``(K, n)`` lane stack: each row of the
    rolling ``(K, m+1)`` buffers evolves through exactly the float
    operations the scalar kernel applies to that lane alone (the
    accumulate/minimum ops act independently along ``axis=1``), so lane
    ``k``'s result is bit-identical to ``dtw_distance(queries[k],
    candidate, bound=bounds[k])`` on pre-downsampled inputs.

    *bounds* gives each lane its abandon threshold in normalized units
    (``inf`` lanes never abandon, matching the scalar no-bound path);
    abandoned lanes report ``inf`` and are compacted out of the sweep,
    so heavily pruned waves cost proportionally less.  A one-lane call
    runs the scalar kernel instead, which computes the same floats at
    less cost.  Inputs are used as-is — callers downsample beforehand
    (the batched scorer already holds the downsampled replay matrix).
    """
    queries = np.asarray(queries, dtype=float)
    candidate = np.asarray(candidate, dtype=float)
    if queries.ndim != 2:
        raise ValueError("queries must be a (K, n) matrix")
    lanes, n = queries.shape
    m = candidate.size
    if lanes == 0:
        return np.empty(0)
    if n == 0 or m == 0:
        raise ValueError("DTW requires non-empty series")
    width = band_width(n, m, band)
    if bounds is None:
        raw = np.full(lanes, _INF)
    else:
        scaled = np.asarray(bounds, dtype=float) * (n + m)
        # Vectorized inflate_bound; non-finite thresholds stay inf.
        raw = np.where(
            np.isfinite(scaled),
            scaled
            + np.abs(scaled) * _BOUND_RELATIVE_SLACK
            + _BOUND_ABSOLUTE_SLACK,
            _INF,
        )
    if lanes == 1:
        # One lane: the scalar kernel, the same floats at less cost.
        bound = raw[0] if np.isfinite(raw[0]) else None
        total = _banded_cost(queries[0], candidate, width, bound)
        return np.array([total]) / (n + m)
    result = np.full(lanes, _INF)
    alive = np.arange(lanes)
    prev = np.full((lanes, m + 1), _INF)
    prev[:, 0] = 0.0
    curr = np.full((lanes, m + 1), _INF)
    with np.errstate(invalid="ignore"):
        for i in range(1, n + 1):
            lo = max(1, i - width)
            hi = min(m, i + width)
            row_cost = np.abs(
                queries[alive, i - 1][:, None] - candidate[None, lo - 1 : hi]
            )
            best_prev = np.minimum(
                prev[:, lo - 1 : hi], prev[:, lo : hi + 1]
            )
            prefix = np.add.accumulate(row_cost, axis=1)
            shifted = np.empty_like(prefix)
            shifted[:, 0] = 0.0
            shifted[:, 1:] = prefix[:, :-1]
            running = np.minimum.accumulate(best_prev - shifted, axis=1)
            row = prefix + running
            # Scalar semantics per lane: a finite threshold abandons when
            # ``not row.min() <= bound`` (NaN rows abandon); an infinite
            # one never does (the scalar no-bound path has no check),
            # and the final row is exempt like the scalar kernel's.
            row_min = row.min(axis=1)
            lane_raw = raw[alive]
            abandon = (
                np.isfinite(lane_raw) & ~(row_min <= lane_raw)
                if i < n
                else np.zeros(alive.size, dtype=bool)
            )
            if abandon.any():
                keep = ~abandon
                alive = alive[keep]
                if alive.size == 0:
                    return result
                prev = prev[keep]
                curr = curr[keep]
                row = row[keep]
            curr[:, lo - 1] = _INF
            curr[:, lo : hi + 1] = row
            prev, curr = curr, prev
    result[alive] = prev[:, m]
    return result / (n + m)
