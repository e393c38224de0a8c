"""Sketch-enumeration tests: constraints, determinism, bucket semantics."""

import itertools

import pytest

from repro.dsl import RENO_DSL, VEGAS_DSL, ast, is_simplifiable, with_budget
from repro.dsl.typecheck import infer_unit
from repro.errors import EnumerationError
from repro.synth.enumerator import count_sketches, enumerate_sketches
from repro.units import BYTES

SMALL_RENO = with_budget(RENO_DSL, max_depth=3, max_nodes=5)


@pytest.fixture(scope="module")
def small_sketches():
    return list(enumerate_sketches(SMALL_RENO))


def test_yields_in_increasing_size(small_sketches):
    sizes = [sketch.size for sketch in small_sketches]
    assert sizes == sorted(sizes)


def test_budgets_respected(small_sketches):
    assert all(sketch.size <= 5 for sketch in small_sketches)
    assert all(sketch.depth <= 3 for sketch in small_sketches)


def test_no_duplicates(small_sketches):
    exprs = [sketch.expr for sketch in small_sketches]
    assert len(exprs) == len(set(exprs))


def test_all_unit_correct(small_sketches):
    for sketch in small_sketches:
        unit = infer_unit(sketch.expr)
        assert unit is None or unit == BYTES, str(sketch)


def test_none_simplifiable(small_sketches):
    for sketch in small_sketches:
        assert not is_simplifiable(sketch.expr), str(sketch)


def test_reno_sketch_present(small_sketches):
    """The paper's Reno result, cwnd + c * reno_inc, must be reachable."""
    from repro.dsl.parser import parse

    target = ast.rename_holes(parse("cwnd + c0 * reno_inc"))
    assert any(sketch.expr == target for sketch in small_sketches)


def test_bare_cwnd_identity_excluded(small_sketches):
    assert all(sketch.expr != ast.Signal("cwnd") for sketch in small_sketches)


def test_cwnd_minus_positive_excluded(small_sketches):
    from repro.dsl.parser import parse

    banned = ast.rename_holes(parse("cwnd - reno_inc"))
    assert all(sketch.expr != banned for sketch in small_sketches)


def test_commutative_canonicalization(small_sketches):
    """Only one operand order of a commutative pair is enumerated."""
    seen = set()
    for sketch in small_sketches:
        expr = sketch.expr
        if isinstance(expr, ast.BinOp) and expr.op in ("+", "*"):
            key = (expr.op, frozenset({repr(expr.left), repr(expr.right)}))
            assert key not in seen
            seen.add(key)


def test_deterministic_order():
    first = [str(s) for s in itertools.islice(enumerate_sketches(SMALL_RENO), 50)]
    second = [str(s) for s in itertools.islice(enumerate_sketches(SMALL_RENO), 50)]
    assert first == second


def test_allowed_ops_must_be_in_dsl():
    with pytest.raises(EnumerationError):
        list(enumerate_sketches(RENO_DSL, allowed_ops=frozenset({"cube"})))


def test_count_matches_enumeration(small_sketches):
    assert count_sketches(SMALL_RENO) == len(small_sketches)


def test_count_cap():
    assert count_sketches(SMALL_RENO, cap=10) == 10


def test_cubic_dsl_allows_cube():
    from repro.dsl import CUBIC_DSL

    key = frozenset({"cube", "+"})
    sketches = itertools.islice(
        (
            sketch
            for sketch in enumerate_sketches(
                with_budget(CUBIC_DSL, max_depth=3, max_nodes=4),
                allowed_ops=key,
            )
            if sketch.operators == key
        ),
        200,
    )
    assert any("cube" in str(sketch) for sketch in sketches)


def test_strict_units_prune_vs_disabled():
    from dataclasses import replace

    strict = with_budget(VEGAS_DSL, max_depth=2, max_nodes=3)
    loose = replace(strict, strict_units=False, name="loose")
    assert count_sketches(loose) > count_sketches(strict)


def test_leaf_pool_contents():
    from repro.synth.enumerator import leaf_pool
    from repro.units import BYTES

    leaves = leaf_pool(SMALL_RENO)
    names = {getattr(expr, "name", None) for expr, _ in leaves}
    assert {"cwnd", "mss", "acked_bytes", "time_since_loss", "reno_inc"} <= names
    holes = [expr for expr, _ in leaves if isinstance(expr, ast.Const)]
    assert len(holes) == 1 and holes[0].is_hole
    units = dict((getattr(e, "name", "hole"), u) for e, u in leaves)
    assert units["cwnd"] == BYTES
    assert units["hole"] is None


def test_every_enumerated_sketch_within_dsl_vocabulary(small_sketches):
    allowed_signals = set(SMALL_RENO.signals)
    allowed_macros = set(SMALL_RENO.macros)
    for sketch in small_sketches:
        assert ast.signals_used(sketch.expr) <= allowed_signals
        assert ast.macros_used(sketch.expr) <= allowed_macros


def test_depth_budget_independent_of_node_budget():
    from repro.dsl import RENO_DSL

    deep_narrow = count_sketches(RENO_DSL, max_nodes=5, max_depth=2)
    deep_wide = count_sketches(RENO_DSL, max_nodes=5, max_depth=4)
    assert deep_narrow < deep_wide
