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

Many candidates replay to bitwise-identical series (every handler that
diverges to the replay's cap, for one), so :func:`dtw_distance_batch`
runs each distinct query row once per candidate and answers every other
lane from a :class:`DTWMemo`.  That is exact because a DP's floats never
depend on its abandon threshold: a lane with threshold ``r`` abandons
iff ``r`` is finite and ``not peak <= r``, where the *peak* is the
largest row minimum over rows ``1..n-1`` (NaN once one is NaN), and
otherwise returns the corner.  A series holding a ±inf is ``inf`` apart
from anything: an infinite point costs ``inf`` wherever it aligns.
"""

from __future__ import annotations

import numpy as np

from repro.distance.preprocess import SERIES_BUDGET, downsample

__all__ = [
    "DTWMemo",
    "DTW_MEMO_ROWS",
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

#: Rows one :class:`DTWMemo` keeps before it drops its oldest.  The
#: largest memo a bench segment builds holds 176 rows, a paper-bench one
#: 1,507; a row's key is its bytes, 1 KiB for a 128-point series.
DTW_MEMO_ROWS = 4096


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
) -> tuple[float, float | None]:
    """Corner total and peak of the banded DP, storing only two rolling
    rows; ``(inf, None)`` when the DP abandons under *bound*.

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

    The peak is the largest row minimum over rows ``1..n-1``, NaN once
    one of them is NaN (``-inf`` for a one-row DP): the DP abandons under
    a finite bound exactly when ``not peak <= bound``.
    """
    n, m = left.size, right.size
    prev = np.full(m + 1, _INF)
    prev[0] = 0.0
    curr = np.full(m + 1, _INF)
    peak = -_INF
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
            if i < n:
                # The final row is exempt: the matrix form writes the
                # corner before checking, so an abandonment there would
                # still surface the exact corner value.
                low = float(row.min())
                if peak == peak and not low <= peak:
                    peak = low  # a larger minimum, or the first NaN
                if bound is not None and not low <= bound:
                    # `not <=` rather than `>` so a NaN row abandons too.
                    return _INF, None
            curr[lo - 1] = _INF
            curr[lo : hi + 1] = row
            prev, curr = curr, prev
    return float(prev[m]), peak


def _banded_costs(
    queries: np.ndarray,
    candidate: np.ndarray,
    width: int,
    limits: np.ndarray,
) -> tuple[np.ndarray, list[float | None]]:
    """:func:`_banded_cost` of every row of *queries*, row ``k`` under
    the raw threshold ``limits[k]`` (``inf``: none), in one sweep.

    Each row of the rolling ``(K, m+1)`` buffers evolves through exactly
    the float operations the one-row kernel applies to that row alone
    (the accumulate/minimum ops act independently along ``axis=1``), so
    every corner and peak is the one-row kernel's.  Abandoned rows are
    compacted out of the sweep; their corner is ``inf`` and their peak
    ``None``.  A single row runs the one-row kernel, which computes the
    same floats at less cost.
    """
    rows, n = queries.shape
    m = candidate.size
    if rows == 1:
        limit = float(limits[0])
        corner, peak = _banded_cost(
            queries[0], candidate, width, limit if limit != _INF else None
        )
        return np.array([corner]), [peak]
    corners = np.full(rows, _INF)
    peaks: list[float | None] = [None] * rows
    alive = np.arange(rows)
    peak = np.full(rows, -_INF)
    limit = np.asarray(limits, dtype=float)
    bounded = np.isfinite(limit)
    prev = np.full((rows, m + 1), _INF)
    prev[:, 0] = 0.0
    curr = np.full((rows, m + 1), _INF)
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
            if i < n:
                # One-row semantics per row: np.maximum keeps a NaN
                # minimum, a finite threshold abandons when ``not
                # row.min() <= limit`` and an infinite one never does;
                # the final row is exempt.
                row_min = row.min(axis=1)
                np.maximum(peak, row_min, out=peak)
                abandon = bounded & ~(row_min <= limit)
                if abandon.any():
                    keep = ~abandon
                    alive = alive[keep]
                    if alive.size == 0:
                        return corners, peaks
                    prev = prev[keep]
                    curr = curr[keep]
                    row = row[keep]
                    peak = peak[keep]
                    limit = limit[keep]
                    bounded = bounded[keep]
            curr[:, lo - 1] = _INF
            curr[:, lo : hi + 1] = row
            prev, curr = curr, prev
    corners[alive] = prev[:, m]
    for index, value in zip(alive.tolist(), peak.tolist()):
        peaks[index] = value
    return corners, peaks


class DTWMemo:
    """The DPs :func:`dtw_distance_batch` ran against one candidate
    series, keyed by each query row's bytes (a hit is a bitwise-equal
    row).

    A finished DP is stored as ``(distance, peak)``: its normalized
    corner and the peak of :func:`_banded_cost`.  An abandoned one is
    stored as ``(None, threshold)``: the raw threshold it was abandoned
    under, which also abandons any lane whose threshold is no larger.
    The memo binds to the first candidate and band it serves and refuses
    any other, so it never answers for another series.  It keeps at most
    :data:`DTW_MEMO_ROWS` rows, dropping the oldest write first.
    """

    __slots__ = ("candidate", "band", "rows")

    def __init__(self) -> None:
        self.candidate: bytes | None = None
        self.band: float | None = None
        self.rows: dict[bytes, tuple[float | None, float]] = {}

    def bind(self, candidate: np.ndarray, band: float | None) -> None:
        """Serve *candidate* under *band*; ``ValueError`` for any other
        pair once the memo is bound."""
        key = candidate.tobytes()
        if self.candidate is None:
            self.candidate, self.band = key, band
        elif key != self.candidate or band != self.band:
            raise ValueError("a DTW memo serves one candidate and one band")

    def answer(self, key: bytes, threshold: float) -> float | None:
        """The normalized distance of row *key* under the raw
        *threshold*, or ``None`` when only a DP can tell."""
        entry = self.rows.get(key)
        if entry is None:
            return None
        distance, mark = entry
        if distance is None:  # abandoned under ``mark``
            return _INF if threshold <= mark else None
        if threshold != _INF and not mark <= threshold:
            return _INF
        return distance

    def store(self, key: bytes, entry: tuple[float | None, float]) -> None:
        """Record *entry* for row *key* as the newest write."""
        self.rows.pop(key, None)
        self.rows[key] = entry
        if len(self.rows) > DTW_MEMO_ROWS:
            del self.rows[next(iter(self.rows))]


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
        return _banded_cost(left, right, width, bound)[0]

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
    never turn a would-be winner into a prune).  A down-sampled series
    holding a ±inf is ``inf`` apart, with or without a bound.
    """
    left = downsample(np.asarray(left, dtype=float), budget)
    right = downsample(np.asarray(right, dtype=float), budget)
    n, m = left.size, right.size
    if n == 0 or m == 0:
        raise ValueError("DTW requires non-empty series")
    if np.isinf(left).any() or np.isinf(right).any():
        return _INF
    raw_bound = None
    if bound is not None and np.isfinite(bound):
        raw_bound = inflate_bound(bound * (n + m))
    # band_width keeps the corner reachable, so an infinite corner means
    # the DP was abandoned (distance > bound) or its costs overflowed.
    total = _banded_cost(left, right, band_width(n, m, band), raw_bound)[0]
    return float(total / (n + m))


def dtw_distance_batch(
    queries: np.ndarray,
    candidate: np.ndarray,
    *,
    band: float | None = 0.2,
    bounds: np.ndarray | None = None,
    memo: DTWMemo | None = None,
) -> np.ndarray:
    """Normalized DTW of every row of ``queries`` against ``candidate``.

    Lane ``k``'s result is bit-identical to ``dtw_distance(queries[k],
    candidate, bound=bounds[k])`` on pre-downsampled inputs.  *bounds*
    gives each lane its abandon threshold in normalized units (``inf``
    lanes never abandon, matching the scalar no-bound path); abandoned
    lanes report ``inf``.  Inputs are used as-is — callers downsample
    beforehand (the batched scorer already holds the downsampled replay
    matrix).  A lane whose row holds a ±inf is ``inf``, and so is every
    lane when the candidate holds one; no DP runs for them.

    Every other lane is answered from *memo* (a fresh one when none is
    given; the scorer passes each segment's own), and only the rows it
    cannot answer run a DP: each distinct row once, in one banded sweep
    with per-row early abandonment (:func:`_banded_costs`), under the
    largest threshold among its lanes or under none if one of its lanes
    has none.  The answers are exact under any threshold because a DP's
    floats never depend on it:

    * a finished DP stored as ``(distance, peak)`` answers a lane with
      raw threshold ``r`` with ``inf`` iff ``r`` is finite and ``not
      peak <= r`` — the DP's own abandon test, row by row — and with
      ``distance`` otherwise;
    * a DP abandoned under ``a`` answers ``inf`` for a finite ``r <= a``
      (some row minimum already failed ``<= a``); any other lane reruns
      the row and its result replaces the entry.
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
    result = np.full(lanes, _INF)
    if np.isinf(candidate).any():
        return result
    memo = DTWMemo() if memo is None else memo
    memo.bind(candidate, band)
    thresholds = raw.tolist()
    #: Row bytes -> the lanes of that row the memo cannot answer.
    todo: dict[bytes, list[int]] = {}
    for lane in np.flatnonzero(~np.isinf(queries).any(axis=1)).tolist():
        key = queries[lane].tobytes()
        if key not in todo:
            answer = memo.answer(key, thresholds[lane])
            if answer is not None:
                result[lane] = answer
                continue
            todo[key] = []
        todo[key].append(lane)
    if not todo:
        return result
    groups = list(todo.values())
    limits = np.array(
        [max(thresholds[lane] for lane in group) for group in groups]
    )
    corners, peaks = _banded_costs(
        queries[[group[0] for group in groups]], candidate, width, limits
    )
    distances = (corners / (n + m)).tolist()
    for key, group, distance, peak, limit in zip(
        todo, groups, distances, peaks, limits.tolist()
    ):
        memo.store(key, (None, limit) if peak is None else (distance, peak))
        for lane in group:
            result[lane] = memo.answer(key, thresholds[lane])
    return result
