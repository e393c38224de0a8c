"""Shared classifier machinery: reference libraries and nearest-CCA votes.

Both classifier substitutes (Gordon-style and CCAnalyzer-style) follow
the same template the real tools do: build a library of reference
measurements of *known* CCAs under controlled probes, then label a target
flow by its nearest reference — with an "Unknown" verdict when nothing in
the library is close.  They differ in protocol (multiple test
connections + majority vote, vs. a single distance ranking) and in which
CCAs they know.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.classify.features import signature_distance, trace_signature
from repro.netsim.environments import Environment
from repro.trace.collect import CollectionConfig, collect_traces
from repro.trace.model import Trace

__all__ = [
    "ClassifierVerdict",
    "ReferenceLibrary",
    "PROBE_ENVIRONMENTS",
    "probe_config",
]

#: Probe environments shared by the reference library and target runs.
PROBE_ENVIRONMENTS: tuple[Environment, ...] = (
    Environment(bandwidth_mbps=5.0, rtt_ms=25.0),
    Environment(bandwidth_mbps=10.0, rtt_ms=50.0),
    Environment(bandwidth_mbps=15.0, rtt_ms=80.0),
)

#: Probe duration, seconds; long enough for several loss epochs.
PROBE_DURATION = 15.0


def probe_config() -> CollectionConfig:
    """Collection settings used for both reference and target probes."""
    return CollectionConfig(
        duration=PROBE_DURATION,
        environments=PROBE_ENVIRONMENTS,
        max_acks_per_trace=12_000,
    )


@dataclass(frozen=True)
class ClassifierVerdict:
    """The outcome of classifying one target.

    ``label`` is a CCA name, or ``"unknown"``.  ``closest`` always names
    the nearest known CCA (the parenthesized hint Table 3 reports for
    Unknown outputs).  ``votes`` maps candidate labels to the number of
    test connections that preferred them.
    """

    label: str
    closest: str
    distance: float
    votes: dict[str, int] = field(default_factory=dict)

    @property
    def is_unknown(self) -> bool:
        return self.label == "unknown"

    def render(self) -> str:
        """Table 3 presentation: 'Unknown (closest)' or the label."""
        if self.is_unknown:
            return f"Unknown ({self.closest})"
        return self.label


#: Reference signatures of each known CCA, one per probe environment,
#: keyed by CCA name.  They depend only on the CCA and the fixed
#: :func:`probe_config` (the probes are noise-free and the simulator is
#: deterministic), so every library in the process shares them: each
#: CCA is simulated on its first classified call, not at import, and
#: the arrays are read-only.
_SIGNATURES: dict[str, tuple[np.ndarray, ...]] = {}


def _reference_signatures(name: str) -> tuple[np.ndarray, ...]:
    """*name*'s signatures under the probe environments, built once."""
    signatures = _SIGNATURES.get(name)
    if signatures is None:
        signatures = tuple(
            trace_signature(trace)
            for trace in collect_traces(name, probe_config())
        )
        for signature in signatures:
            signature.setflags(write=False)
        _SIGNATURES[name] = signatures
    return signatures


class ReferenceLibrary:
    """Signatures of known CCAs under the probe environments."""

    def __init__(self, known_ccas: tuple[str, ...]):
        self.known_ccas = known_ccas

    def signatures(self) -> dict[str, tuple[np.ndarray, ...]]:
        """Each known CCA's reference signatures, in ``known_ccas`` order."""
        return {name: _reference_signatures(name) for name in self.known_ccas}

    def nearest(self, trace: Trace) -> tuple[str, float]:
        """Nearest known CCA to *trace* and the distance to it.

        The distance is the minimum over every reference signature of
        every known CCA, whichever probe environment it was measured
        under; on a tie the CCA listed first in ``known_ccas`` wins.
        """
        references = self.signatures()
        target = trace_signature(trace)
        best_name = self.known_ccas[0]
        best_distance = float("inf")
        for name, signatures in references.items():
            for signature in signatures:
                distance = signature_distance(target, signature)
                if distance < best_distance:
                    best_name, best_distance = name, distance
        return best_name, best_distance
