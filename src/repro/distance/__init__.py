"""Trace-distance metrics (paper §4.3).

The optimization formulation needs a measurable distance between the
candidate's synthesized cwnd series and the observed one.  DTW is the
default; Euclidean, Manhattan and correlation distances back the §4.3
metric study (Figure 3).
"""

from repro.distance.base import (
    DEFAULT_METRIC,
    METRICS,
    DistanceMetric,
    get_metric,
)
from repro.distance.dtw import (
    band_width,
    dtw_distance,
    dtw_distance_batch,
    dtw_matrix,
    inflate_bound,
)
from repro.distance.frechet import frechet_distance, lag_distance
from repro.distance.lb import keogh_envelope, lb_keogh
from repro.distance.pointwise import (
    correlation_distance,
    euclidean_distance,
    manhattan_distance,
)
from repro.distance.preprocess import (
    SERIES_BUDGET,
    align_pair,
    downsample,
    normalize_scale,
)

__all__ = [
    "DEFAULT_METRIC",
    "METRICS",
    "DistanceMetric",
    "get_metric",
    "dtw_distance",
    "dtw_distance_batch",
    "dtw_matrix",
    "band_width",
    "inflate_bound",
    "lb_keogh",
    "keogh_envelope",
    "frechet_distance",
    "lag_distance",
    "correlation_distance",
    "euclidean_distance",
    "manhattan_distance",
    "SERIES_BUDGET",
    "align_pair",
    "downsample",
    "normalize_scale",
]
