"""Multi-flow simulation: several CCAs sharing one bottleneck.

The paper's motivation (§2.1) is understanding how unknown CCAs affect
*fairness, utilization and latency* when they compete.  The single-flow
simulator collects synthesis traces; this module runs N senders through
one shared droptail queue so reproduced handlers can be studied in
competition (e.g. the BBR-vs-Reno share imbalance of Ware et al., which
the paper cites as prior analysis it wants to enable).

Each flow keeps private sender/receiver state (sequence spaces are
per-flow); the queue, link and event clock are shared.  Per-flow traces
come back in the same :class:`~repro.trace.model.Trace` format.

The event loop is deliberately plain (one heap event per action, one
timer event per re-arm): run with a single flow it produces exactly the
trace of :class:`~repro.netsim.simulator.Simulator`, whose faster event
core is tested against it.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable

from repro.cca.base import AckEvent, CongestionControl, LossEvent
from repro.errors import SimulationError
from repro.netsim.environments import Environment
from repro.netsim.queues import DropTailQueue
from repro.trace.model import AckLog, LossRecord, Trace

__all__ = ["MultiFlowSimulator", "simulate_competition", "fairness_report"]

MIN_RTO = 0.2
RTO_VAR_GAIN = 4.0


@dataclass(slots=True)
class _FlowPacket:
    flow: int
    seq: int
    size: int
    send_time: float
    retransmit: bool = False

    @property
    def end(self) -> int:
        return self.seq + self.size


@dataclass(order=True)
class _Event:
    time: float
    order: int
    action: Callable[[], None] = field(compare=False)


class _FlowState:
    """Sender + receiver state for one flow."""

    def __init__(self, cca: CongestionControl):
        self.cca = cca
        self.acks = AckLog()
        self.losses: list[LossRecord] = []
        self.snd_una = 0
        self.snd_nxt = 0
        self.dupacks = 0
        self.in_recovery = False
        self.recover_point = 0
        self.rtx_sent: set[int] = set()
        self.rcv_nxt = 0
        self.ooo: set[int] = set()
        self.srtt: float | None = None
        self.rttvar = 0.0
        self.timer_deadline: float | None = None


class MultiFlowSimulator:
    """N flows, one droptail bottleneck, per-flow traces."""

    def __init__(
        self,
        ccas: list[CongestionControl],
        env: Environment,
        *,
        duration: float = 30.0,
        start_times: list[float] | None = None,
    ):
        if not ccas:
            raise SimulationError("need at least one flow")
        for cca in ccas:
            if cca.mss != env.mss:
                raise SimulationError(
                    f"CCA mss ({cca.mss}) differs from environment ({env.mss})"
                )
        if start_times is not None and len(start_times) != len(ccas):
            raise SimulationError("one start time per flow required")
        self.env = env
        self.duration = duration
        self.now = 0.0
        self.start_times = start_times or [0.0] * len(ccas)
        self._events: list[_Event] = []
        self._order = itertools.count()
        self.queue = DropTailQueue(env.queue_capacity_bytes)
        self._link_busy = False
        self._rate = env.bandwidth_bytes_per_sec
        self._one_way = env.base_rtt_sec / 2.0
        self.flows = [_FlowState(cca) for cca in ccas]

    # -- event machinery ----------------------------------------------

    def _schedule(self, delay: float, action: Callable[[], None]) -> None:
        heapq.heappush(
            self._events, _Event(self.now + delay, next(self._order), action)
        )

    def run(self) -> list[Trace]:
        for index, start in enumerate(self.start_times):
            self._schedule(start, lambda i=index: self._start_flow(i))
        while self._events:
            event = heapq.heappop(self._events)
            if event.time > self.duration:
                break
            self.now = event.time
            event.action()
        env = self.env
        return [
            Trace.from_columns(
                flow.cca.name,
                env.label,
                env.mss,
                flow.acks.columns(),
                flow.losses,
                {"flow": float(index)},
            )
            for index, flow in enumerate(self.flows)
        ]

    def _start_flow(self, index: int) -> None:
        self._send_window(index)
        self._arm_timer(index)

    # -- sender ---------------------------------------------------------

    def _pipe(self, index: int) -> int:
        flow = self.flows[index]
        outstanding = flow.snd_nxt - flow.snd_una
        sacked = len(flow.ooo) * self.env.mss
        return max(outstanding - sacked, 0)

    def _send_window(self, index: int) -> None:
        flow = self.flows[index]
        mss = self.env.mss
        cap = float(self.env.max_cwnd_bytes)
        while self._pipe(index) + mss <= int(min(flow.cca.cwnd, cap)):
            self._transmit(
                _FlowPacket(index, flow.snd_nxt, mss, self.now)
            )
            flow.snd_nxt += mss

    def _transmit(self, packet: _FlowPacket) -> None:
        if not self.queue.offer(packet):  # type: ignore[arg-type]
            if packet.retransmit:
                self.flows[packet.flow].rtx_sent.discard(packet.seq)
            return
        if not self._link_busy:
            self._start_service()

    def _start_service(self) -> None:
        packet = self.queue.pop()
        self._link_busy = True
        self._schedule(
            packet.size / self._rate, lambda: self._finish_service(packet)
        )

    def _finish_service(self, packet) -> None:
        self._link_busy = False
        self._schedule(self._one_way, lambda: self._deliver(packet))
        if not self.queue.is_empty:
            self._start_service()

    # -- receiver + ACK path ---------------------------------------------

    def _deliver(self, packet: _FlowPacket) -> None:
        flow = self.flows[packet.flow]
        if packet.seq == flow.rcv_nxt:
            flow.rcv_nxt = packet.end
            while flow.rcv_nxt in flow.ooo:
                flow.ooo.discard(flow.rcv_nxt)
                flow.rcv_nxt += self.env.mss
        elif packet.seq > flow.rcv_nxt:
            flow.ooo.add(packet.seq)
        sample = None if packet.retransmit else packet.send_time
        ack_value = flow.rcv_nxt
        self._schedule(
            self._one_way,
            lambda: self._handle_ack(packet.flow, ack_value, sample),
        )

    def _handle_ack(
        self, index: int, ack: int, sent_at: float | None
    ) -> None:
        flow = self.flows[index]
        if ack > flow.snd_una:
            self._new_ack(index, ack, sent_at)
        else:
            self._dupack(index, ack)
        self._send_window(index)

    def _new_ack(self, index: int, ack: int, sent_at: float | None) -> None:
        flow = self.flows[index]
        acked = ack - flow.snd_una
        flow.snd_una = ack
        flow.rtx_sent = {seq for seq in flow.rtx_sent if seq >= ack}
        rtt = self.now - sent_at if sent_at is not None else None
        self._update_rto(flow, rtt)
        if flow.in_recovery:
            if ack >= flow.recover_point:
                flow.in_recovery = False
                flow.dupacks = 0
            else:
                self._retransmit_missing(index)
        else:
            flow.dupacks = 0
        flow.cca.on_ack(
            AckEvent(
                now=self.now,
                acked_bytes=acked,
                rtt_sample=rtt,
                inflight_bytes=flow.snd_nxt - flow.snd_una,
            )
        )
        flow.acks.append(
            self.now,
            ack,
            acked,
            rtt,
            min(flow.cca.cwnd, float(self.env.max_cwnd_bytes)),
            flow.snd_nxt - flow.snd_una,
            False,
        )
        self._arm_timer(index)

    def _dupack(self, index: int, ack: int) -> None:
        flow = self.flows[index]
        flow.dupacks += 1
        flow.acks.append(
            self.now,
            ack,
            0,
            None,
            min(flow.cca.cwnd, float(self.env.max_cwnd_bytes)),
            flow.snd_nxt - flow.snd_una,
            True,
        )
        if flow.dupacks == 3 and not flow.in_recovery:
            flow.in_recovery = True
            flow.recover_point = flow.snd_nxt
            flow.cca.on_loss(
                LossEvent(
                    now=self.now,
                    kind="dupack",
                    inflight_bytes=flow.snd_nxt - flow.snd_una,
                )
            )
            flow.losses.append(LossRecord(self.now, "dupack"))
            self._retransmit_missing(index)

    def _retransmit_missing(self, index: int, limit: int = 64) -> None:
        flow = self.flows[index]
        mss = self.env.mss
        sent = 0
        for seq in range(flow.snd_una, flow.snd_nxt, mss):
            if seq in flow.ooo or seq in flow.rtx_sent:
                continue
            flow.rtx_sent.add(seq)
            self._transmit(
                _FlowPacket(index, seq, mss, self.now, retransmit=True)
            )
            sent += 1
            if sent >= limit:
                break

    # -- timer -----------------------------------------------------------

    def _update_rto(self, flow: _FlowState, rtt: float | None) -> None:
        if rtt is None:
            return
        if flow.srtt is None:
            flow.srtt = rtt
            flow.rttvar = rtt / 2.0
        else:
            flow.rttvar += 0.25 * (abs(flow.srtt - rtt) - flow.rttvar)
            flow.srtt += 0.125 * (rtt - flow.srtt)

    def _rto(self, flow: _FlowState) -> float:
        if flow.srtt is None:
            return max(4 * self.env.base_rtt_sec, MIN_RTO)
        return max(flow.srtt + RTO_VAR_GAIN * flow.rttvar, MIN_RTO)

    def _arm_timer(self, index: int) -> None:
        flow = self.flows[index]
        deadline = self.now + self._rto(flow)
        flow.timer_deadline = deadline
        snapshot = flow.snd_una
        self._schedule(
            self._rto(flow),
            lambda: self._timer_fired(index, deadline, snapshot),
        )

    def _timer_fired(self, index: int, deadline: float, snapshot: int) -> None:
        flow = self.flows[index]
        if flow.timer_deadline != deadline:
            return
        if flow.snd_una == snapshot and flow.snd_nxt > flow.snd_una:
            flow.cca.on_loss(
                LossEvent(
                    now=self.now,
                    kind="timeout",
                    inflight_bytes=flow.snd_nxt - flow.snd_una,
                )
            )
            flow.losses.append(LossRecord(self.now, "timeout"))
            flow.in_recovery = False
            flow.dupacks = 0
            flow.rtx_sent.clear()
            flow.rtx_sent.add(flow.snd_una)
            self._transmit(
                _FlowPacket(
                    index, flow.snd_una, self.env.mss, self.now, retransmit=True
                )
            )
            self._send_window(index)
        self._arm_timer(index)


def simulate_competition(
    ccas: list[CongestionControl],
    env: Environment,
    *,
    duration: float = 30.0,
    start_times: list[float] | None = None,
) -> list[Trace]:
    """Run *ccas* in competition; return one trace per flow."""
    return MultiFlowSimulator(
        ccas, env, duration=duration, start_times=start_times
    ).run()


def fairness_report(
    traces: list[Trace], *, window: tuple[float, float] | None = None
) -> dict[str, float]:
    """Summarize a competition: per-flow goodput shares + Jain index.

    ``window`` restricts accounting to a time interval (e.g. the second
    half, once late-starting flows have converged).
    """
    rates: list[float] = []
    for trace in traces:
        rows = ~trace.dupack
        if window is not None:
            lo, hi = window
            rows &= (lo <= trace.time) & (trace.time <= hi)
        times, seqs = trace.time[rows], trace.ack_seq[rows]
        if len(times) < 2:
            rates.append(0.0)
            continue
        delivered = float(seqs[-1] - seqs[0])
        elapsed = float(times[-1] - times[0])
        rates.append(delivered / elapsed if elapsed > 0 else 0.0)
    total = sum(rates)
    shares = [rate / total if total > 0 else 0.0 for rate in rates]
    squares = sum(rate**2 for rate in rates)
    jain = (total**2) / (len(rates) * squares) if squares > 0 else 0.0
    report = {"jain_index": jain, "total_rate": total}
    for index, (trace, share) in enumerate(zip(traces, shares)):
        report[f"share_{index}_{trace.cca_name}"] = share
    return report
