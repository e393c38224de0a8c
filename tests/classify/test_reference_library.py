"""Reference signatures: built once per process, shared, read-only.

Every classifier reads its known CCAs' reference signatures from one
table in :mod:`repro.classify.base`.  These tests empty the table, count
``simulate`` calls per classify call, and check the verdicts against
libraries that build their own references, as each library once did.
"""

import os
import subprocess
import sys
from types import SimpleNamespace

import pytest

import repro
from repro.classify import base
from repro.classify.base import ReferenceLibrary, probe_config
from repro.classify.ccanalyzer import CCANALYZER_KNOWN_CCAS, CcaAnalyzer
from repro.classify.features import trace_signature
from repro.classify.gordon import GORDON_KNOWN_CCAS, GordonClassifier
from repro.netsim import simulator
from repro.trace.collect import CollectionConfig, collect_traces
from repro.trace.noise import NoiseModel

#: A known CCA (a confident verdict) and a foreign one (Unknown).
TARGETS = ("reno", "student4")


def _noisy_probe(cca_name):
    probes = probe_config()
    return collect_traces(
        cca_name,
        CollectionConfig(
            duration=probes.duration,
            environments=probes.environments,
            noise=NoiseModel(
                jitter_std=0.002, dropout=0.03, cwnd_error=0.03, seed=5
            ),
            max_acks_per_trace=probes.max_acks_per_trace,
        ),
    )


class _PrivateLibrary(ReferenceLibrary):
    """A library that holds references built for it alone."""

    def __init__(self, known_ccas, references):
        super().__init__(known_ccas)
        self.references = references

    def signatures(self):
        return {name: self.references[name] for name in self.known_ccas}


@pytest.fixture(scope="module")
def targets():
    return {name: _noisy_probe(name) for name in TARGETS}


@pytest.fixture(scope="module")
def shared(targets):
    """Classify from an empty table with ``simulate`` wrapped by a counter.

    ``counts`` holds the ``simulate`` calls of two fresh Gordon
    classifications and a following CCAnalyzer one; ``table`` is what
    they built.
    """
    calls = 0
    real_simulate = simulator.simulate

    def counting_simulate(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real_simulate(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(base, "_SIGNATURES", {})
        patch.setattr(simulator, "simulate", counting_simulate)
        counts = []
        classifiers = (GordonClassifier(), GordonClassifier(), CcaAnalyzer())
        for classifier in classifiers:
            before = calls
            classifier.classify(targets["reno"])
            counts.append(calls - before)
        return SimpleNamespace(
            counts=counts,
            table=dict(base._SIGNATURES),
            gordon={
                name: GordonClassifier().classify(traces)
                for name, traces in targets.items()
            },
            ranking={
                name: CcaAnalyzer().rank(traces)
                for name, traces in targets.items()
            },
            analyzer={
                name: CcaAnalyzer().classify(traces)
                for name, traces in targets.items()
            },
            simulated_after_build=calls - sum(counts),
        )


@pytest.fixture(scope="module")
def private_references():
    """Every known CCA's references, built without the shared table."""
    return {
        name: [
            trace_signature(trace)
            for trace in collect_traces(name, probe_config())
        ]
        for name in CCANALYZER_KNOWN_CCAS
    }


def test_each_reference_is_simulated_once_per_process(shared):
    # Gordon's 11 CCAs x 3 probes, then nothing, then the 5 CCAs only
    # CCAnalyzer knows x 3 probes.
    assert shared.counts == [33, 0, 15]
    assert shared.simulated_after_build == 0
    assert list(shared.table) == list(
        dict.fromkeys(GORDON_KNOWN_CCAS + CCANALYZER_KNOWN_CCAS)
    )


def test_shared_references_equal_a_private_build(shared, private_references):
    for name, signatures in shared.table.items():
        assert [signature.tobytes() for signature in signatures] == [
            signature.tobytes() for signature in private_references[name]
        ]


def test_verdicts_equal_those_of_a_private_build(
    shared, private_references, targets
):
    for name, traces in targets.items():
        gordon = GordonClassifier()
        gordon.library = _PrivateLibrary(GORDON_KNOWN_CCAS, private_references)
        analyzer = CcaAnalyzer()
        analyzer.library = _PrivateLibrary(
            CCANALYZER_KNOWN_CCAS, private_references
        )
        assert shared.gordon[name] == gordon.classify(traces)
        assert shared.ranking[name] == analyzer.rank(traces)
        assert shared.analyzer[name] == analyzer.classify(traces)
    assert shared.gordon["reno"].label == "reno"
    assert shared.gordon["student4"].is_unknown


def test_reference_signatures_are_read_only(shared):
    for signatures in shared.table.values():
        assert len(signatures) == len(probe_config().environments)
        for signature in signatures:
            assert not signature.flags.writeable
            with pytest.raises(ValueError):
                signature[0] = 0.0


def test_library_reads_references_in_known_order(shared):
    library = ReferenceLibrary(("vegas", "reno", "vegas"))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(base, "_SIGNATURES", dict(shared.table))
        references = library.signatures()
    assert list(references) == ["vegas", "reno"]
    assert references["reno"] is shared.table["reno"]


def test_importing_the_library_builds_nothing():
    source = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [source, env.get("PYTHONPATH")])
    )
    probe = (
        "import repro, repro.cli, repro.pipeline, repro.classify.base as b; "
        "print(len(b._SIGNATURES))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=env,
        check=True,
        timeout=120,
    )
    assert result.stdout.strip() == "0"
