"""Lower-bound tests: LB_Keogh validity and bounded-DTW exactness.

The batched scorer's correctness rests on two contracts proven here by
property testing: LB_Keogh, in either direction, really is a lower bound
of the raw banded-DTW cost (so a prune can never discard a would-be
winner), and ``dtw_distance(bound=b)`` returns the exact distance
whenever the true distance is ``<= b`` (so a bounded sweep is
bit-identical to the unbounded metric on every candidate it does not
discard).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from repro.distance.dtw import (
    band_width,
    dtw_distance,
    dtw_matrix,
    inflate_bound,
)
from repro.distance.lb import keogh_envelope, keogh_envelope_batch, lb_keogh

_series = st.lists(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    min_size=2,
    max_size=40,
).map(np.array)

_equal_pair = st.integers(min_value=2, max_value=40).flatmap(
    lambda n: st.tuples(
        st.lists(
            st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
            min_size=n,
            max_size=n,
        ).map(np.array),
        st.lists(
            st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
            min_size=n,
            max_size=n,
        ).map(np.array),
    )
)


def _raw_cost(left, right):
    """The raw (un-normalized) banded-DTW corner the bounds must stay under."""
    return dtw_matrix(left, right)


@given(_equal_pair)
@settings(max_examples=80, deadline=None)
def test_lb_keogh_lower_bounds_raw_cost(pair):
    query, candidate = pair
    width = band_width(query.size, candidate.size)
    lower, upper = keogh_envelope(candidate, width)
    assert lb_keogh(query, lower, upper) <= _raw_cost(query, candidate) + 1e-9


@given(_equal_pair)
@settings(max_examples=80, deadline=None)
def test_lb_keogh_reverse_direction_also_valid(pair):
    """Enveloping the *query* and checking the candidate against it is
    the same bound with the roles swapped — DTW is symmetric."""
    query, candidate = pair
    width = band_width(query.size, candidate.size)
    lower, upper = keogh_envelope(query, width)
    assert (
        lb_keogh(candidate, lower, upper) <= _raw_cost(query, candidate) + 1e-9
    )


@given(_series, st.integers(min_value=0, max_value=50))
@settings(max_examples=60, deadline=None)
def test_envelope_brackets_series(series, width):
    lower, upper = keogh_envelope(series, width)
    assert np.all(lower <= series)
    assert np.all(series <= upper)


def _sliding_envelope(queries, width):
    """The plain sliding-window envelope, as an independent oracle: pad
    each row with -inf (+inf) and take every window's max (min)."""
    size = queries.shape[1]
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


@st.composite
def _envelope_inputs(draw):
    """A ``(lanes, length)`` matrix, C- or F-ordered, with NaN and ±inf
    planted, and a reach that may exceed the length."""
    lanes = draw(st.integers(min_value=1, max_value=12))
    length = draw(st.integers(min_value=1, max_value=130))
    width = draw(st.integers(min_value=0, max_value=length + 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrix = rng.normal(size=(lanes, length)) * 100.0
    if draw(st.booleans()):
        matrix = matrix.round()  # ties within a window
    planted = st.tuples(
        st.integers(min_value=0, max_value=lanes - 1),
        st.integers(min_value=0, max_value=length - 1),
        st.sampled_from([np.nan, np.inf, -np.inf]),
    )
    for lane, point, value in draw(st.lists(planted, max_size=8)):
        matrix[lane, point] = value
    if draw(st.booleans()):
        matrix = np.asfortranarray(matrix)
    return matrix, width


@given(_envelope_inputs())
@settings(max_examples=150, deadline=None)
def test_envelope_batch_matches_sliding_window_oracle(inputs):
    """The doubling kernel equals the sliding-window envelope element for
    element, NaN and ±inf included, and keeps the rows' memory order,
    which the scorer's LB_Keogh row sums depend on."""
    matrix, width = inputs
    got = keogh_envelope_batch(matrix, width)
    want = _sliding_envelope(matrix, width)
    for envelope, oracle in zip(got, want):
        np.testing.assert_array_equal(envelope, oracle)  # NaN == NaN here
        assert envelope.strides == oracle.strides
        assert envelope.flags.fnc == matrix.flags.fnc


def test_lb_keogh_nan_query_poisons_the_bound():
    lower, upper = keogh_envelope(np.arange(8.0), 2)
    query = np.arange(8.0)  # inside the envelope: the bound is 0 ...
    assert lb_keogh(query, lower, upper) == 0.0
    query[3] = np.nan  # ... and NaN once a point is
    assert np.isnan(lb_keogh(query, lower, upper))


@given(_series, _series, st.floats(min_value=0.0, max_value=2.0))
@settings(max_examples=120, deadline=None)
def test_bounded_dtw_exact_within_bound(a, b, factor):
    """``dtw_distance(bound=b)`` returns the exact distance whenever the
    true distance is ``<= b``, and only ever abandons above it."""
    exact = dtw_distance(a, b)
    bound = exact * factor + 1e-6
    bounded = dtw_distance(a, b, bound=bound)
    if exact <= bound:
        assert bounded == exact
    else:
        # Abandoning is optional (the bound is a permission, not an
        # obligation) but a returned value must be the exact one.
        assert bounded == exact or bounded == float("inf")


@given(_series, _series)
@settings(max_examples=40, deadline=None)
def test_bounded_dtw_with_infinite_or_nan_bound_is_legacy(a, b):
    exact = dtw_distance(a, b)
    assert dtw_distance(a, b, bound=float("inf")) == exact
    assert dtw_distance(a, b, bound=float("nan")) == exact
    assert dtw_distance(a, b, bound=None) == exact


def test_bounded_dtw_abandons_hopeless_candidate():
    a = np.zeros(32)
    b = np.full(32, 100.0)
    assert dtw_distance(a, b, bound=1e-6) == float("inf")
    assert dtw_matrix(a, b, bound=-1.0) == float("inf")  # corner abandoned
    cost = dtw_matrix(a, b, bound=-1.0, return_matrix=True)
    assert cost[32, 32] == float("inf")  # corner left infinite


@given(st.floats(min_value=0.0, max_value=1e12, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_inflate_bound_adds_strictly_positive_slack(bound):
    inflated = inflate_bound(bound)
    assert inflated > bound
    assert inflated <= bound + bound * 1e-6 + 1e-8  # slack stays tiny


def test_lb_keogh_rejects_size_mismatch():
    lower, upper = keogh_envelope(np.ones(4), 2)
    with pytest.raises(ValueError):
        lb_keogh(np.ones(5), lower, upper)


def test_keogh_envelope_rejects_empty():
    with pytest.raises(ValueError):
        keogh_envelope(np.empty(0), 2)
    with pytest.raises(ValueError):
        keogh_envelope_batch(np.empty((3, 0)), 2)
