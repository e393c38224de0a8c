"""Property test: the simulator equals the one-flow competition run.

Hypothesis draws any registered CCA and an environment well outside the
paper's testbed ranges.  Whole-number rates and delays make event times
collide exactly, so a timeout can share its instant with another event.
The pinned example is such a case: its trace matches only if the pending
timer entry fires under the live ``(time, order)`` key.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cca import cca_names, make_cca
from repro.netsim import Environment, MultiFlowSimulator, Simulator

from tests.netsim.test_simulator_oracle import assert_same_records

DURATION = 3.0


@given(
    cca_name=st.sampled_from(cca_names()),
    bandwidth=st.integers(min_value=2, max_value=20),
    rtt=st.integers(min_value=5, max_value=120),
    queue_bdp=st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0]),
    max_acks=st.none() | st.integers(min_value=50, max_value=2000),
)
@example(cca_name="reno", bandwidth=3, rtt=100, queue_bdp=0.25, max_acks=None)
@settings(max_examples=25, deadline=None)
def test_simulator_matches_one_flow_competition(
    cca_name, bandwidth, rtt, queue_bdp, max_acks
):
    env = Environment(
        bandwidth_mbps=bandwidth, rtt_ms=rtt, queue_bdp=queue_bdp
    )
    single = Simulator(
        make_cca(cca_name), env, duration=DURATION, max_acks=max_acks
    )
    trace = single.run()
    multi = MultiFlowSimulator([make_cca(cca_name)], env, duration=DURATION)
    [reference] = multi.run()
    if max_acks is not None and len(trace.acks) == max_acks:
        # Capped: the run stops after its max_acks-th ACK.
        assert_same_records(trace.acks, reference.acks[:max_acks])
        assert_same_records(
            trace.losses, reference.losses[: len(trace.losses)]
        )
    else:
        assert_same_records(trace.acks, reference.acks)
        assert_same_records(trace.losses, reference.losses)
        assert single.queue.drops == multi.queue.drops
