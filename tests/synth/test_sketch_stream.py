"""Sketch-stream identity: the enumerator's output, pinned by digest.

Each digest hashes one line per sketch, in stream order: the sketch's
text, its sorted operators, size, depth and hole count.  The digests were
recorded with the ``dataclasses.fields``-based tree utilities, so a
faster AST walk, hole renaming or simplifier that changes any sketch,
its metadata or the order of the stream fails here.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.dsl.families import family, with_budget
from repro.dsl.printer import to_text
from repro.synth.buckets import coherent_op_sets
from repro.synth.enumerator import bucket_witnesses, enumerate_sketches
from repro.synth.pool import BucketPool

#: The DSL of the benchmark's ``cubic_wide`` workload.
CUBIC_WIDE = with_budget(family("cubic"), max_depth=5, max_nodes=9)


def _record(sketch) -> str:
    return "|".join(
        (
            to_text(sketch.expr),
            ",".join(sorted(sketch.operators)),
            str(sketch.size),
            str(sketch.depth),
            str(sketch.hole_count),
        )
    )


def _digest(lines) -> tuple[int, str]:
    """(line count, sha256 of the newline-terminated lines)."""
    digest = hashlib.sha256()
    count = 0
    for line in lines:
        digest.update(line.encode() + b"\n")
        count += 1
    return count, digest.hexdigest()


def _sketch_digest(sketches) -> tuple[int, str]:
    return _digest(_record(sketch) for sketch in sketches)


def test_cubic_wide_draw_fills_the_same_buckets():
    """The first draw of ``cubic_wide``: 20,552 sketches generated,
    146 routed, bucket by bucket in the pool's key order."""
    pool = BucketPool(CUBIC_WIDE)
    pool.draw(2)
    assert pool.generated == 20_552
    drawn = [
        sketch for bucket in pool.buckets.values() for sketch in bucket.drawn
    ]
    assert _sketch_digest(drawn) == (
        146,
        "fd9e2938789a842900e02337ec235e7affcd44198e6e192c3eb331d3be6a43b8",
    )
    fill = (
        ",".join(sorted(key)) + ":" + str(len(bucket.drawn))
        for key, bucket in pool.buckets.items()
    )
    assert _digest(fill) == (
        256,
        "d26ae1a4537a0b5c411d464683840c1c0659f19f1bf1355331de31ee589439ac",
    )


@pytest.mark.parametrize(
    "name, expected",
    [
        (
            "reno",
            (
                1_173,
                "b52dfcece1efdeefd9b73f55d751ce466724dc42ca4a2d432b9808b18ea08df7",
            ),
        ),
        (
            "vegas",
            (
                5_527,
                "5df2f8382ce1cfab0ac873df6e62b781fea1fba87eadc329ab30c77eb56ee49f",
            ),
        ),
    ],
)
def test_full_enumeration_stream(name, expected):
    dsl = with_budget(family(name), max_depth=3, max_nodes=5)
    assert _sketch_digest(enumerate_sketches(dsl)) == expected


def test_cubic_wide_bucket_witnesses():
    """Every coherent key's witnesses, keys in ``coherent_op_sets`` order."""
    witnesses = (
        sketch
        for key in coherent_op_sets(CUBIC_WIDE)
        for sketch in bucket_witnesses(CUBIC_WIDE, key)
    )
    assert _sketch_digest(witnesses) == (
        264,
        "d526b525fbd68c6b50bb273b2a93b203d78c3084dc9bc43f2b602f7ce81125a5",
    )
