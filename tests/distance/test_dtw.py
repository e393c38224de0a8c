"""DTW distance tests: metric sanity and alignment behavior."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distance.dtw import band_width, dtw_distance, dtw_matrix


def test_identity_is_zero():
    series = np.sin(np.linspace(0, 10, 100))
    assert dtw_distance(series, series) == 0.0


def test_symmetry():
    rng = np.random.default_rng(0)
    a, b = rng.random(80), rng.random(80)
    assert dtw_distance(a, b) == pytest.approx(dtw_distance(b, a))


def test_nonnegative():
    rng = np.random.default_rng(1)
    assert dtw_distance(rng.random(50), rng.random(60)) >= 0.0


def test_empty_rejected():
    with pytest.raises(ValueError):
        dtw_matrix(np.array([]), np.array([1.0]))


def test_tolerates_temporal_shift_better_than_euclidean():
    """The §4.3 motivation: a time-shifted sawtooth is 'the same CCA'."""
    from repro.distance.pointwise import euclidean_distance

    t = np.linspace(0, 6 * np.pi, 400)
    base = np.abs(np.sin(t))  # sawtooth-ish pulses
    shifted = np.abs(np.sin(t + 0.4))
    dtw_penalty = dtw_distance(base, shifted) / dtw_distance(
        base, np.full_like(base, base.mean())
    )
    euclid_penalty = euclidean_distance(base, shifted) / euclidean_distance(
        base, np.full_like(base, base.mean())
    )
    assert dtw_penalty < euclid_penalty


def test_different_lengths_supported():
    a = np.sin(np.linspace(0, 10, 300))
    b = np.sin(np.linspace(0, 10, 120))
    assert dtw_distance(a, b) < 0.05


def test_narrow_band_widens_to_reach_the_corner():
    """A band too narrow for the lengths is widened to ``abs(n - m) +
    1``, which keeps the corner reachable: the DP runs at width 191."""
    a = np.linspace(0, 1, 10)
    b = np.linspace(0, 1, 200)
    assert band_width(10, 200, 0.01) == band_width(10, 200, 0.5) == 191
    value = dtw_distance(a, b, band=0.01)
    assert np.isfinite(value)
    assert value == dtw_distance(a, b, band=0.5)


def test_budget_downsamples():
    rng = np.random.default_rng(2)
    a, b = rng.random(5000), rng.random(5000)
    assert np.isfinite(dtw_distance(a, b, budget=64))


def test_scale_sensitivity():
    """Unlike correlation, DTW *does* see magnitude differences."""
    series = np.sin(np.linspace(0, 10, 100)) + 2
    assert dtw_distance(series, 3 * series) > dtw_distance(series, series)


@given(
    st.lists(
        st.floats(min_value=-100, max_value=100, allow_nan=False),
        min_size=2,
        max_size=60,
    ),
    st.lists(
        st.floats(min_value=-100, max_value=100, allow_nan=False),
        min_size=2,
        max_size=60,
    ),
)
@settings(max_examples=80, deadline=None)
def test_dtw_bounded_by_max_pointwise_gap(a, b):
    """Normalized DTW never exceeds the largest point-wise difference."""
    left, right = np.array(a), np.array(b)
    bound = max(abs(left.max() - right.min()), abs(right.max() - left.min()))
    assert dtw_distance(left, right) <= bound + 1e-9


@given(
    st.lists(
        st.floats(min_value=-50, max_value=50, allow_nan=False),
        min_size=2,
        max_size=40,
    )
)
@settings(max_examples=60, deadline=None)
def test_dtw_self_distance_zero(a):
    series = np.array(a)
    assert dtw_distance(series, series) == 0.0


def _reference_dtw(a, b, band=None):
    """Textbook O(nm) DP, used to pin the vectorized implementation."""
    n, m = len(a), len(b)
    width = max(n, m) if band is None else max(int(band * max(n, m)), 2)
    width = max(width, abs(n - m) + 1)
    inf = float("inf")
    cost = [[inf] * (m + 1) for _ in range(n + 1)]
    cost[0][0] = 0.0
    for i in range(1, n + 1):
        for j in range(max(1, i - width), min(m, i + width) + 1):
            step = abs(a[i - 1] - b[j - 1])
            cost[i][j] = step + min(
                cost[i - 1][j - 1], cost[i - 1][j], cost[i][j - 1]
            )
    return cost[n][m] / (n + m)


def test_vectorized_rows_match_reference_dp():
    rng = np.random.default_rng(7)
    for trial in range(40):
        n = int(rng.integers(2, 50))
        m = int(rng.integers(2, 50))
        a = rng.normal(size=n) * 10
        b = rng.normal(size=m) * 10
        band = None if trial % 3 == 0 else 0.3
        assert dtw_distance(a, b, band=band) == pytest.approx(
            _reference_dtw(a, b, band=band), abs=1e-9
        )


def test_dtw_matrix_scalar_matches_full_matrix_corner():
    rng = np.random.default_rng(11)
    for trial in range(30):
        n = int(rng.integers(2, 60))
        m = int(rng.integers(2, 60))
        a = rng.normal(size=n) * 10
        b = rng.normal(size=m) * 10
        band = None if trial % 3 == 0 else 0.25
        corner = dtw_matrix(a, b, band=band)
        full = dtw_matrix(a, b, band=band, return_matrix=True)
        assert isinstance(corner, float)
        assert corner == full[n, m]


def test_dtw_matrix_bounded_scalar_matches_full_matrix_corner():
    rng = np.random.default_rng(12)
    for _ in range(30):
        n = int(rng.integers(2, 60))
        m = int(rng.integers(2, 60))
        a = rng.normal(size=n) * 10
        b = rng.normal(size=m) * 10
        bound = float(rng.random() * 200)
        corner = dtw_matrix(a, b, bound=bound)
        full = dtw_matrix(a, b, bound=bound, return_matrix=True)
        assert corner == full[n, m]


def test_dtw_distance_batch_matches_scalar_bit_identically():
    from repro.distance.dtw import dtw_distance_batch

    rng = np.random.default_rng(13)
    for trial in range(40):
        lanes = int(rng.integers(1, 8))
        n = int(rng.integers(2, 50))
        m = int(rng.integers(2, 50))
        queries = rng.normal(size=(lanes, n)) * 10
        candidate = rng.normal(size=m) * 10
        band = None if trial % 4 == 0 else 0.2
        batch = dtw_distance_batch(queries, candidate, band=band)
        for lane in range(lanes):
            # budget larger than both sizes: downsample is the identity,
            # so the scalar kernel sees the very same floats.
            assert batch[lane] == dtw_distance(
                queries[lane], candidate, band=band, budget=1 << 30
            )


def _bounded_batch_inputs():
    """``(queries, candidate, bounds)`` triples for the lane-for-lane test."""
    rng = np.random.default_rng(14)
    for _ in range(40):
        lanes = int(rng.integers(1, 8))
        n = int(rng.integers(2, 50))
        m = int(rng.integers(2, 50))
        queries = rng.normal(size=(lanes, n)) * 10
        candidate = rng.normal(size=m) * 10
        bounds = np.where(
            rng.random(lanes) < 0.3, np.inf, rng.random(lanes) * 6
        )
        yield queries, candidate, bounds
    # One lane runs the scalar kernel: a finite bound, no bound, a bound
    # at the exact distance, one that abandons at once, and a query that
    # holds an inf (inf with or without a bound).  The query ends on the
    # candidate's last value, so the DP's last rows meet the exact bound
    # and only its float-safety slack keeps it.
    rng = np.random.default_rng(22)
    query = np.round(rng.normal(size=(1, 40)) * 10, 1)
    candidate = np.round(rng.normal(size=32) * 10, 1)
    query[0, -1] = candidate[-1]
    exact = dtw_distance(query[0], candidate, budget=1 << 30)
    for bound in (exact * 2, np.inf, exact, 1e-6):
        yield query, candidate, np.array([bound])
    held = query.copy()
    held[0, 17] = np.inf
    for bound in (exact * 2, np.inf):
        yield held, candidate, np.array([bound])


def test_dtw_distance_batch_bounded_matches_scalar_per_lane():
    from repro.distance.dtw import dtw_distance_batch

    for queries, candidate, bounds in _bounded_batch_inputs():
        lanes = len(queries)
        batch = dtw_distance_batch(queries, candidate, bounds=bounds)
        for lane in range(lanes):
            bound = None if not np.isfinite(bounds[lane]) else bounds[lane]
            scalar = dtw_distance(
                queries[lane], candidate, budget=1 << 30, bound=bound
            )
            # Bitwise, so NaN results would have to match too.
            assert batch[lane].tobytes() == np.float64(scalar).tobytes()
            if np.isinf(queries[lane]).any():
                assert batch[lane] == np.inf


def test_dtw_distance_batch_abandons_hopeless_lanes_only():
    from repro.distance.dtw import dtw_distance_batch

    queries = np.stack([np.zeros(32), np.full(32, 100.0)])
    candidate = np.full(32, 100.0)
    bounds = np.array([1e-6, 1e-6])
    batch = dtw_distance_batch(queries, candidate, bounds=bounds)
    assert batch[0] == float("inf")  # hopeless lane abandoned
    assert batch[1] == 0.0  # identical lane survives its tight bound


def test_dtw_distance_batch_rejects_bad_shapes():
    from repro.distance.dtw import dtw_distance_batch

    with pytest.raises(ValueError):
        dtw_distance_batch(np.zeros(5), np.ones(3))
    with pytest.raises(ValueError):
        dtw_distance_batch(np.zeros((2, 0)), np.ones(3))
    assert dtw_distance_batch(np.empty((0, 4)), np.ones(3)).size == 0


def test_series_holding_an_inf_is_inf_apart():
    """An infinite point costs ``inf`` wherever it aligns: with or
    without a bound, in the query or the candidate, of either sign."""
    from repro.distance.dtw import dtw_distance_batch

    for left, right in (
        ([1.0, np.inf, 2.0], [1.0, 2.0, 3.0]),
        ([1.0, 2.0, 3.0], [1.0, -np.inf, 2.0]),
        ([1.0, np.nan, np.inf], [1.0, 2.0, 3.0]),
    ):
        assert dtw_distance(left, right) == np.inf
        assert dtw_distance(left, right, bound=10.0) == np.inf
        batch = dtw_distance_batch(
            np.array([left, [1.0, 2.0, 3.0]]), np.array(right)
        )
        assert batch[0] == np.inf
    # A NaN-holding series is left as it is.
    assert np.isnan(dtw_distance([1.0, np.nan, 2.0], [1.0, 2.0, 3.0]))


def _memo_calls(seed):
    """Calls sharing one candidate, as ``(queries, bounds)`` pairs.

    The rows repeat across lanes and calls, and each lane's bound is no
    bound, a loose one, a tight one, the row's exact distance, or
    ``1e-6``, so the memo's rows are abandoned, finished, re-run and
    replaced in every order.  Rows holding an inf or a NaN ride along.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    m = int(rng.integers(2, 40))
    candidate = np.round(rng.normal(size=m) * 10, 1)
    pool = [np.round(rng.normal(size=n) * 10, 1) for _ in range(4)]
    # A row ending on the candidate's last value meets its exact bound
    # in the DP's last rows.
    pool[0][-1] = candidate[-1]
    held = pool[1].copy()
    held[int(rng.integers(n))] = np.inf
    nan = pool[2].copy()
    nan[int(rng.integers(n))] = np.nan
    pool += [held, nan]
    exact = [dtw_distance(row, candidate, budget=1 << 30) for row in pool]
    calls = []
    for _ in range(12):
        picks = rng.integers(len(pool), size=int(rng.integers(1, 7)))
        bounds = []
        for pick in picks:
            distance = exact[pick] if np.isfinite(exact[pick]) else 5.0
            bounds.append(
                (np.inf, 2 * distance, 0.5 * distance, distance, 1e-6)[
                    int(rng.integers(5))
                ]
            )
        calls.append((np.stack([pool[p] for p in picks]), np.array(bounds)))
    return candidate, calls


def _assert_lanes_match_scalar(batch, queries, candidate, bounds, band=0.2):
    for lane in range(len(queries)):
        bound = bounds[lane] if np.isfinite(bounds[lane]) else None
        scalar = dtw_distance(
            queries[lane], candidate, band=band, budget=1 << 30, bound=bound
        )
        assert batch[lane].tobytes() == np.float64(scalar).tobytes()


def test_memo_answers_every_lane_as_the_scalar_kernel():
    from repro.distance.dtw import DTWMemo, dtw_distance_batch

    for seed in range(40):
        candidate, calls = _memo_calls(seed)
        memo = DTWMemo()
        for queries, bounds in calls:
            batch = dtw_distance_batch(
                queries, candidate, bounds=bounds, memo=memo
            )
            _assert_lanes_match_scalar(batch, queries, candidate, bounds)
        # Rows holding an inf are answered before the memo.
        assert not any(np.isinf(np.frombuffer(key)).any() for key in memo.rows)


def _count_dps(monkeypatch):
    """Count the rows every DP sweep of :mod:`repro.distance.dtw` runs."""
    import repro.distance.dtw as dtw

    runs = []
    sweep = dtw._banded_costs

    def counted(queries, candidate, width, limits):
        runs.append(len(queries))
        return sweep(queries, candidate, width, limits)

    monkeypatch.setattr(dtw, "_banded_costs", counted)
    return runs


def test_memo_replaces_an_abandoned_row(monkeypatch):
    """Tight, tighter, loose, tight: the second call runs no DP, the
    third re-runs the row and replaces its entry, the fourth reads it."""
    from repro.distance.dtw import DTWMemo, dtw_distance_batch

    rng = np.random.default_rng(5)
    row = np.round(rng.normal(size=(1, 30)) * 10, 1)
    candidate = np.round(rng.normal(size=30) * 10, 1)
    exact = dtw_distance(row[0], candidate, budget=1 << 30)
    runs = _count_dps(monkeypatch)
    memo = DTWMemo()
    key = row[0].tobytes()

    def call(bound):
        bounds = np.array([bound])
        batch = dtw_distance_batch(row, candidate, bounds=bounds, memo=memo)
        _assert_lanes_match_scalar(batch, row, candidate, bounds)
        return batch[0]

    assert call(exact / 4) == np.inf and runs == [1]
    assert memo.rows[key][0] is None  # abandoned under exact / 4
    assert call(exact / 8) == np.inf and runs == [1]
    assert call(np.inf) == exact and runs == [1, 1]
    assert memo.rows[key][0] == exact  # replaced by the finished DP
    assert call(exact / 4) == np.inf and runs == [1, 1]
    assert call(exact) == exact and runs == [1, 1]


def test_memo_runs_each_new_row_once_per_call(monkeypatch):
    """Duplicate lanes share one DP, run under the loosest of their
    bounds, and a later call with the same rows runs none."""
    from repro.distance.dtw import DTWMemo, dtw_distance_batch

    rng = np.random.default_rng(6)
    rows = np.round(rng.normal(size=(2, 24)) * 10, 1)
    candidate = np.round(rng.normal(size=24) * 10, 1)
    queries = rows[[0, 1, 0, 0, 1]]
    exact = dtw_distance(rows[0], candidate, budget=1 << 30)
    bounds = np.array([exact / 4, np.inf, np.inf, 1e-6, 1e-6])
    runs = _count_dps(monkeypatch)
    memo = DTWMemo()
    batch = dtw_distance_batch(queries, candidate, bounds=bounds, memo=memo)
    _assert_lanes_match_scalar(batch, queries, candidate, bounds)
    assert runs == [2]
    again = dtw_distance_batch(queries, candidate, bounds=bounds, memo=memo)
    assert again.tobytes() == batch.tobytes()
    assert runs == [2]


def test_memo_never_answers_for_another_candidate_or_band():
    from repro.distance.dtw import DTWMemo, dtw_distance_batch

    rng = np.random.default_rng(8)
    queries = np.round(rng.normal(size=(3, 20)) * 10, 1)
    candidate = np.round(rng.normal(size=20) * 10, 1)
    memo = DTWMemo()
    dtw_distance_batch(queries, candidate, memo=memo)
    rows = dict(memo.rows)
    other = candidate.copy()
    other[7] += 1.0
    for args, band in ((other, 0.2), (candidate, 0.5), (candidate, None)):
        with pytest.raises(ValueError):
            dtw_distance_batch(queries, args, band=band, memo=memo)
    assert memo.rows == rows
    # A fresh memo serves the other candidate exactly.
    batch = dtw_distance_batch(queries, other, memo=DTWMemo())
    _assert_lanes_match_scalar(batch, queries, other, np.full(3, np.inf))


def test_memo_keeps_at_most_its_cap(monkeypatch):
    """Past the cap the oldest row goes first; answers stay exact."""
    import repro.distance.dtw as dtw

    monkeypatch.setattr(dtw, "DTW_MEMO_ROWS", 3)
    rng = np.random.default_rng(9)
    rows = np.round(rng.normal(size=(5, 16)) * 10, 1)
    candidate = np.round(rng.normal(size=16) * 10, 1)
    memo = dtw.DTWMemo()
    for index in range(5):
        batch = dtw.dtw_distance_batch(rows[[index]], candidate, memo=memo)
        _assert_lanes_match_scalar(
            batch, rows[[index]], candidate, np.array([np.inf])
        )
    assert list(memo.rows) == [row.tobytes() for row in rows[2:]]
    runs = _count_dps(monkeypatch)
    batch = dtw.dtw_distance_batch(rows, candidate, memo=memo)
    _assert_lanes_match_scalar(batch, rows, candidate, np.full(5, np.inf))
    assert runs == [2]  # the two evicted rows run again
    assert len(memo.rows) == 3


def test_scoring_a_sketch_twice_runs_no_second_dp(monkeypatch, reno_segments):
    """The scorer keeps one memo per segment entry: the second scoring
    of a sketch on the same scorer gives the same answer and the same
    counter deltas, and every DTW lane is answered from the memo."""
    from repro.dsl.parser import parse
    from repro.synth.scoring import Scorer
    from repro.synth.sketch import Sketch

    sketch = Sketch.from_expr(parse("c0 * cwnd + c1 * mss"))
    segments = reno_segments[:3]
    scorer = Scorer(
        constant_pool=(0.25, 0.5, 1.0, 2.0), completion_cap=16, seed=0
    )
    scorer.prepare_segments(segments)
    runs = _count_dps(monkeypatch)
    results, deltas, dps = [], [], []
    for _ in range(2):
        before = scorer.counters.as_tuple()
        results.append(scorer.score_sketch(sketch, segments))
        after = scorer.counters.as_tuple()
        deltas.append(tuple(b - a for a, b in zip(before, after)))
        dps.append(len(runs))
    first, second = results
    assert second == first
    assert second.distance.hex() == first.distance.hex()
    assert deltas[1] == deltas[0]
    assert deltas[0][5] > 0  # the scorings call the kernel ...
    assert dps[0] > 0 and dps[1] == dps[0]  # ... but only the first runs DPs
