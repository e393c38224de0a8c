"""DTW distance tests: metric sanity and alignment behavior."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distance.dtw import dtw_distance, dtw_matrix


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


def test_band_fallback_when_too_narrow():
    # Extremely different lengths force the band fallback path.
    a = np.linspace(0, 1, 10)
    b = np.linspace(0, 1, 200)
    value = dtw_distance(a, b, band=0.01)
    assert np.isfinite(value)


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
    # holds an inf (abandoned under a bound, NaN without one).  The
    # query ends on the candidate's last value, so the DP's last rows
    # meet the exact bound and only its float-safety slack keeps it.
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
            # Bitwise, so the NaN an unbounded inf query yields matches.
            assert batch[lane].tobytes() == np.float64(scalar).tobytes()


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
