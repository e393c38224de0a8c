"""Pre-defined macros used in Abagnale's DSLs (paper Table 1).

Each macro names a sub-expression that CCAs commonly use.  Encoding them
as single DSL leaves lets the enumerator reach useful handlers at much
smaller AST depth (paper §3.3): a macro counts as one node.

==================  ==========================================================
macro               expansion
==================  ==========================================================
``reno_inc``        ``acked_bytes * mss / cwnd`` — Reno's per-ack increment
``vegas_diff``      ``(rtt - min_rtt) * ack_rate / mss`` — estimated packets
                    queued at the bottleneck (Vegas's expected-vs-actual gap)
``htcp_diff``       ``(rtt - min_rtt) / max_rtt`` — H-TCP's RTT variation
``rtts_since_loss`` ``time_since_loss / rtt`` — loss age in RTTs (BBR pulses)
``ewma_rtt``        exponentially weighted moving average of the RTT signal;
                    provided as a *signal-level* macro (§3.3 mentions a
                    built-in EWMA operation)
==================  ==========================================================
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dsl.ast import BinOp, Macro, NumExpr, Signal
from repro.errors import DslError
from repro.units import BYTES, DIMENSIONLESS, SECONDS, Unit

__all__ = ["MacroDef", "MACROS", "macro_definition", "expand_macros"]


@dataclass(frozen=True)
class MacroDef:
    """A macro's metadata: its expansion, unit, and the signals it reads."""

    name: str
    expansion: NumExpr
    unit: Unit
    signals: frozenset[str]
    description: str


def _reno_inc() -> NumExpr:
    return BinOp(
        "/",
        BinOp("*", Signal("acked_bytes"), Signal("mss")),
        Signal("cwnd"),
    )


def _vegas_diff() -> NumExpr:
    return BinOp(
        "/",
        BinOp(
            "*",
            BinOp("-", Signal("rtt"), Signal("min_rtt")),
            Signal("ack_rate"),
        ),
        Signal("mss"),
    )


def _htcp_diff() -> NumExpr:
    return BinOp(
        "/",
        BinOp("-", Signal("rtt"), Signal("min_rtt")),
        Signal("max_rtt"),
    )


def _rtts_since_loss() -> NumExpr:
    return BinOp("/", Signal("time_since_loss"), Signal("rtt"))


#: Registry of every macro known to the library, keyed by name.
MACROS: dict[str, MacroDef] = {
    "reno_inc": MacroDef(
        name="reno_inc",
        expansion=_reno_inc(),
        unit=BYTES,
        signals=frozenset({"acked_bytes", "mss", "cwnd"}),
        description="Reno's cwnd increment of one MSS per RTT worth of ACKs",
    ),
    "vegas_diff": MacroDef(
        name="vegas_diff",
        expansion=_vegas_diff(),
        unit=DIMENSIONLESS,
        signals=frozenset({"rtt", "min_rtt", "ack_rate", "mss"}),
        description="Vegas's estimate of packets queued at the bottleneck",
    ),
    "htcp_diff": MacroDef(
        name="htcp_diff",
        expansion=_htcp_diff(),
        unit=DIMENSIONLESS,
        signals=frozenset({"rtt", "min_rtt", "max_rtt"}),
        description="H-TCP's normalized RTT variation",
    ),
    "rtts_since_loss": MacroDef(
        name="rtts_since_loss",
        expansion=_rtts_since_loss(),
        unit=DIMENSIONLESS,
        signals=frozenset({"time_since_loss", "rtt"}),
        description="time since the last loss event, in units of the RTT",
    ),
    # The EWMA macro reads a pre-smoothed signal supplied by the trace
    # environment rather than expanding to an in-DSL expression: an EWMA is
    # stateful, and the DSL itself is stateless per-ack (paper §3.3).
    "ewma_rtt": MacroDef(
        name="ewma_rtt",
        expansion=Signal("ewma_rtt"),
        unit=SECONDS,
        signals=frozenset({"ewma_rtt"}),
        description="exponentially weighted moving average of the RTT",
    ),
}


def macro_definition(name: str) -> MacroDef:
    """Look up a macro by name, raising :class:`DslError` if unknown."""
    try:
        return MACROS[name]
    except KeyError:
        raise DslError(f"unknown macro {name!r}") from None


def expand_macros(expr: NumExpr) -> NumExpr:
    """Recursively replace every :class:`Macro` leaf by its expansion."""
    from repro.dsl.ast import children, with_children

    if isinstance(expr, Macro):
        return expand_macros(macro_definition(expr.name).expansion)
    kids = children(expr)
    if not kids:
        return expr
    return with_children(expr, tuple(map(expand_macros, kids)))
