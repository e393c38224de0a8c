"""Search-space bucketization (§4.4).

Abagnale partitions the sketch space into disjoint *buckets* so whole
buckets can be ranked and discarded.  The discriminator is the paper's
option (2): **the exact set of DSL operators the sketch uses** — read
off every sketch as it is enumerated, and behaviorally meaningful
(sketches sharing operators tend to share dynamics).
:class:`~repro.synth.pool.BucketPool` enumerates the DSL once and routes
each sketch to the bucket its operator set names.

A bucket key must be *coherent* to be non-empty: ``cond`` appears iff at
least one predicate operator does, since predicates exist only inside
conditionals.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.dsl.families import DslSpec
from repro.synth.sketch import Sketch

__all__ = ["Bucket", "coherent_op_sets", "bucket_key_for"]

_ARITH = ("+", "-", "*", "/")
_UNARY = ("cube", "cbrt")
_PREDS = ("cmp", "modeq")


def coherent_op_sets(dsl: DslSpec) -> list[frozenset[str]]:
    """All operator subsets that can label a non-empty bucket.

    Arithmetic and unary operators combine freely; ``cond`` requires at
    least one predicate operator and vice versa.  The empty set is a
    valid bucket: it holds the single-leaf sketches (a constant or bare
    signal handler, e.g. the paper's Student-4 result ``mss``).
    """
    free_ops = [op for op in _ARITH + _UNARY if op in dsl.operators]
    has_cond = "cond" in dsl.operators
    preds = [op for op in _PREDS if op in dsl.operators]

    pred_variants: list[frozenset[str]] = [frozenset()]
    if has_cond and preds:
        for count in range(1, len(preds) + 1):
            for combo in itertools.combinations(preds, count):
                pred_variants.append(frozenset(combo) | {"cond"})

    keys: list[frozenset[str]] = []
    for count in range(len(free_ops) + 1):
        for combo in itertools.combinations(free_ops, count):
            for preds_part in pred_variants:
                keys.append(frozenset(combo) | preds_part)
    return keys


def bucket_key_for(sketch: Sketch) -> frozenset[str]:
    """The bucket a sketch belongs to: its exact operator set."""
    return sketch.operators


@dataclass
class Bucket:
    """One disjoint slice of the search space and its drawn sample.

    The pool appends the sketches it routes here, so successive
    refinement iterations extend (never re-draw) the sample (§4.4: N
    grows 8x each iteration).  ``exhausted`` becomes true once the
    pool's stream ends — the loop then knows the bucket has been fully
    enumerated.
    """

    key: frozenset[str]
    drawn: list[Sketch] = field(default_factory=list)
    exhausted: bool = False
    #: Whether a directed probe already searched for this bucket's first
    #: members (see BucketPool._probe_empty_buckets).
    probed: bool = False
    score: float = float("inf")

    @property
    def label(self) -> str:
        return "{" + ",".join(sorted(self.key)) + "}" if self.key else "{}"
