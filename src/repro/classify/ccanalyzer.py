"""CCAnalyzer-style classifier (Ware et al., SIGCOMM '24).

CCAnalyzer compares a target's behavior against its known CCAs with a
distance metric and can always report the *closest* known algorithms even
when the verdict is "Unknown" — which is how the paper picks sub-DSLs for
the student CCAs (§5.1).  Unlike Gordon it is nearly passive and works
for arbitrary (e.g. UDP) transports, which here simply means it accepts
any trace.  This substitute ranks all known CCAs by mean signature
distance across the probe connections and applies an Unknown threshold.
"""

from __future__ import annotations

from collections import defaultdict

from repro.classify.base import ClassifierVerdict, ReferenceLibrary
from repro.classify.features import signature_distance, trace_signature
from repro.trace.model import Trace

__all__ = ["CcaAnalyzer", "CCANALYZER_KNOWN_CCAS"]

#: CCAnalyzer knows the full kernel zoo.
CCANALYZER_KNOWN_CCAS: tuple[str, ...] = (
    "bbr",
    "bic",
    "cdg",
    "cubic",
    "highspeed",
    "htcp",
    "hybla",
    "illinois",
    "lp",
    "nv",
    "reno",
    "scalable",
    "vegas",
    "veno",
    "westwood",
    "yeah",
)

#: Mean distance above which the verdict is Unknown.
DISTANCE_THRESHOLD = 0.08


class CcaAnalyzer:
    """Distance-ranking classifier with closest-CCA reporting."""

    def __init__(
        self,
        known_ccas: tuple[str, ...] = CCANALYZER_KNOWN_CCAS,
        *,
        distance_threshold: float = DISTANCE_THRESHOLD,
    ):
        self.library = ReferenceLibrary(known_ccas)
        self.distance_threshold = distance_threshold

    def rank(self, traces: list[Trace]) -> list[tuple[str, float]]:
        """All known CCAs ranked by mean distance to *traces* (best first)."""
        references = self.library.signatures()
        totals: dict[str, list[float]] = defaultdict(list)
        for trace in traces:
            target = trace_signature(trace)
            for name, signatures in references.items():
                totals[name].append(
                    min(
                        signature_distance(target, signature)
                        for signature in signatures
                    )
                )
        means = {
            name: sum(values) / len(values) for name, values in totals.items()
        }
        return sorted(means.items(), key=lambda item: item[1])

    def classify(self, traces: list[Trace]) -> ClassifierVerdict:
        """Label *traces*, or return Unknown with the closest known CCA."""
        ranking = self.rank(traces)
        closest, distance = ranking[0]
        if distance <= self.distance_threshold:
            label = closest
        else:
            label = "unknown"
        return ClassifierVerdict(
            label=label,
            closest=closest,
            distance=distance,
            votes={name: 0 for name, _ in ranking[:3]},
        )
