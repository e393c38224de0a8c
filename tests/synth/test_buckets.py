"""Bucketization tests (§4.4)."""

import itertools

from repro.dsl import CUBIC_DSL, RENO_DSL, with_budget
from repro.synth.buckets import Bucket, bucket_key_for, coherent_op_sets
from repro.synth.enumerator import enumerate_sketches

SMALL_RENO = with_budget(RENO_DSL, max_depth=3, max_nodes=5)


def test_coherence_rules():
    keys = coherent_op_sets(RENO_DSL)
    for key in keys:
        has_cond = "cond" in key
        has_pred = bool(key & {"cmp", "modeq"})
        assert has_cond == has_pred, key


def test_empty_key_present():
    assert frozenset() in coherent_op_sets(RENO_DSL)


def test_key_count_reno():
    # 4 arithmetic ops -> 16 subsets; cond variants: none, {cond,cmp},
    # {cond,modeq}, {cond,cmp,modeq} -> 16 * 4 = 64.
    assert len(coherent_op_sets(RENO_DSL)) == 64


def test_key_count_cubic_dsl():
    # Cubic adds cube/cbrt: 6 free ops -> 64 subsets * 4 = 256.
    assert len(coherent_op_sets(CUBIC_DSL)) == 256


def test_buckets_partition_the_space():
    """Every enumerated sketch lands in exactly one coherent bucket."""
    keys = set(coherent_op_sets(SMALL_RENO))
    for sketch in itertools.islice(enumerate_sketches(SMALL_RENO), 300):
        assert bucket_key_for(sketch) in keys


def test_bucket_label():
    assert Bucket(key=frozenset()).label == "{}"
    assert Bucket(key=frozenset({"+", "cmp"})).label == "{+,cmp}"
