"""Abagnale's synthesizer: enumeration, concretization, replay, search.

The packages here implement §4 of the paper: constraint-driven sketch
enumeration, approximate constant concretization, stateful handler replay
over trace segments, operator-subset bucketization, and the refinement
loop that samples/scores/prunes buckets until a handler emerges.
"""

from repro.synth.buckets import (
    Bucket,
    bucket_key_for,
    coherent_op_sets,
    make_buckets,
)
from repro.synth.concretize import (
    DEFAULT_COMPLETION_CAP,
    concretizations,
    concretize_all,
)
from repro.synth.enumerator import count_sketches, enumerate_sketches, leaf_pool
from repro.synth.loss_handler import (
    LossSample,
    LossSynthesisResult,
    extract_loss_samples,
    synthesize_loss_handler,
)
from repro.synth.pool import BucketPool
from repro.synth.refinement import SynthesisConfig, synthesize
from repro.synth.replay import (
    CWND_CAP_FACTOR,
    replay_handler,
    replay_on_segment,
)
from repro.synth.result import IterationRecord, SynthesisResult
from repro.synth.scoring import ScoredHandler, Scorer
from repro.synth.sketch import Sketch

__all__ = [
    "Bucket",
    "bucket_key_for",
    "coherent_op_sets",
    "make_buckets",
    "DEFAULT_COMPLETION_CAP",
    "concretizations",
    "concretize_all",
    "count_sketches",
    "enumerate_sketches",
    "leaf_pool",
    "BucketPool",
    "LossSample",
    "LossSynthesisResult",
    "extract_loss_samples",
    "synthesize_loss_handler",
    "SynthesisConfig",
    "synthesize",
    "CWND_CAP_FACTOR",
    "replay_handler",
    "replay_on_segment",
    "IterationRecord",
    "SynthesisResult",
    "ScoredHandler",
    "Scorer",
    "Sketch",
]
