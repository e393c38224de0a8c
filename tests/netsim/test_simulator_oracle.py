"""The single-flow simulator against the one-flow competition run.

``Simulator`` runs an optimized event core; ``MultiFlowSimulator`` keeps
the plain event loop (one heap event per action and per timer re-arm).
With one flow the two model the same sender, link and receiver, so they
must produce the same trace, field for field, and drop the same number
of segments.  The cases are the Gordon reference library's CCAs under
its probe environments, plus a shallow-buffer BBR run in which fast
recovery follows a timeout.
"""

import pytest

from repro.cca import make_cca
from repro.classify.base import PROBE_ENVIRONMENTS
from repro.classify.gordon import GORDON_KNOWN_CCAS
from repro.netsim import Environment, MultiFlowSimulator, Simulator

DURATION = 8.0

CASES = [
    (name, env) for name in GORDON_KNOWN_CCAS for env in PROBE_ENVIRONMENTS
] + [("bbr", Environment(bandwidth_mbps=5.0, rtt_ms=100.0, queue_bdp=0.5))]


def assert_same_records(ours: list, reference: list) -> None:
    """Fail at the first record where two record lists part."""
    for index, (mine, theirs) in enumerate(zip(ours, reference)):
        assert mine == theirs, f"record {index} of {len(reference)}"
    assert len(ours) == len(reference)


@pytest.mark.parametrize(
    ("cca_name", "env"),
    CASES,
    ids=[f"{name}-{env.label}-q{env.queue_bdp:g}" for name, env in CASES],
)
def test_simulator_matches_one_flow_competition(cca_name, env):
    single = Simulator(make_cca(cca_name), env, duration=DURATION)
    trace = single.run()
    multi = MultiFlowSimulator([make_cca(cca_name)], env, duration=DURATION)
    [reference] = multi.run()
    assert trace.acks
    assert_same_records(trace.acks, reference.acks)
    assert_same_records(trace.losses, reference.losses)
    assert single.queue.drops == multi.queue.drops
