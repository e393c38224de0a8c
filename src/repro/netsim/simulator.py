"""Discrete-event simulation of one flow over a droptail bottleneck.

This module is the substitute for the paper's virtual-network testbed
(§3.2): it runs a CCA over a configurable bottleneck (bandwidth, base
RTT, droptail buffer) and records the per-ACK trace a sender-side
measurement vantage point would see.

Topology::

    sender --> [droptail queue | bottleneck link] --> receiver
       ^                                                 |
       +------------------ ACK path (delay only) --------+

The sender implements cumulative ACKs, triple-dupack fast retransmit with
SACK-style recovery (on entering recovery the sender learns the exact set
of holes, as a kernel sender with SACK would, and repairs them without
waiting one RTT per hole), and an RFC 6298-style retransmission timer;
the attached :class:`~repro.cca.base.CongestionControl` decides the
window.
Losses happen only by queue overflow, which is what drives the sawtooth
and pulsing dynamics the synthesizer learns from.

The event core is tuned for speed without reordering any event (see
``docs/SIMULATOR.md``, "Event core"): the heap holds plain
``(time, order, function, arg)`` tuples, the retransmission timer keeps
one pending heap entry, and a burst that overflows the queue counts the
rest of its drops in one step.  Run with one flow,
:class:`~repro.netsim.multiflow.MultiFlowSimulator` is the reference it
is tested against.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable

from repro.cca.base import AckEvent, CongestionControl, LossEvent
from repro.errors import SimulationError
from repro.netsim.environments import Environment
from repro.netsim.packet import Ack, Packet
from repro.netsim.queues import DropTailQueue
from repro.trace.model import AckLog, LossRecord, Trace

__all__ = ["Simulator", "simulate"]

#: Minimum retransmission timeout, seconds (lowered from RFC 6298's 1 s so
#: short simulations recover quickly from full-window losses).
MIN_RTO = 0.2
#: RTT-variance multiplier in the RTO formula.
RTO_VAR_GAIN = 4.0


class Simulator:
    """One flow, one bottleneck, one CCA; produces a :class:`Trace`."""

    def __init__(
        self,
        cca: CongestionControl,
        env: Environment,
        *,
        duration: float = 30.0,
        max_acks: int | None = None,
    ):
        if cca.mss != env.mss:
            raise SimulationError(
                f"CCA mss ({cca.mss}) differs from environment mss ({env.mss})"
            )
        self.cca = cca
        self.env = env
        self.duration = duration
        self.max_acks = max_acks
        self.now = 0.0

        # Event queue of (time, order, function, arg), run as
        # ``function(self, arg)``; ``order`` is unique, so heap comparisons
        # never reach ``function``.  Plain functions, not bound methods:
        # the heap holds no reference back to the simulator, so a finished
        # run (and its trace, once the caller drops it) is freed at once
        # rather than whenever the cyclic garbage collector next runs.
        self._events: list[tuple[float, int, Callable[..., None], Any]] = []
        self._order = itertools.count()

        # Environment constants, read once instead of on every event.
        self._mss = env.mss
        self._cwnd_cap = float(env.max_cwnd_bytes)
        self._service_time = env.mss / env.bandwidth_bytes_per_sec
        self._one_way = env.base_rtt_sec / 2.0
        self._initial_rto = max(4 * env.base_rtt_sec, MIN_RTO)

        # Bottleneck.
        self.queue = DropTailQueue(env.queue_capacity_bytes)
        self._link_busy = False

        # Sender state.
        self.snd_una = 0  # first unacknowledged byte
        self.snd_nxt = 0  # next byte to send
        self._dupacks = 0
        self._in_recovery = False
        self._recover_point = 0
        self._rtx_sent: set[int] = set()
        self._srtt: float | None = None
        self._rttvar = 0.0

        # Retransmission timer (see _arm_timer): the live deadline, the
        # first arm of every deadline still ahead, as (order, snd_una),
        # and the key of the pending heap entry.
        self._timer_deadline = 0.0
        self._arms: dict[float, tuple[int, int]] = {}
        self._timer_entry: tuple[float, int] | None = None

        # Receiver state: next expected byte + out-of-order segment starts.
        self._rcv_nxt = 0
        self._ooo: set[int] = set()

        # Trace under construction, packed into columns when the run ends.
        self._acks = AckLog()
        self._losses: list[LossRecord] = []

    # ------------------------------------------------------------------
    # Event machinery
    # ------------------------------------------------------------------

    def _schedule(
        self, delay: float, function: Callable[..., None], arg: Any
    ) -> None:
        heapq.heappush(
            self._events, (self.now + delay, next(self._order), function, arg)
        )

    def run(self) -> Trace:
        """Run the flow to ``duration`` sim-seconds and return its trace."""
        self._send_window()
        self._arm_timer()
        events = self._events
        acked_times = self._acks.time
        max_acks = math.inf if self.max_acks is None else self.max_acks
        while events:
            time, _, function, arg = heapq.heappop(events)
            if time > self.duration or len(acked_times) >= max_acks:
                break
            self.now = time
            function(self, arg)
        env = self.env
        return Trace.from_columns(
            self.cca.name,
            env.label,
            env.mss,
            self._acks.columns(),
            self._losses,
            {
                "bandwidth_mbps": env.bandwidth_mbps,
                "rtt_ms": env.rtt_ms,
                "queue_bytes": env.queue_capacity_bytes,
            },
        )

    # ------------------------------------------------------------------
    # Sender
    # ------------------------------------------------------------------

    @property
    def effective_cwnd(self) -> float:
        """The CCA's window clamped by the sender's buffer (sndbuf)."""
        return min(self.cca.cwnd, self._cwnd_cap)

    def _send_window(self) -> None:
        """Transmit new segments while the window allows.

        The pipe is the SACK scoreboard's estimate of bytes in the
        network: outstanding bytes minus those the receiver holds
        out-of-order.  Dropped originals keep counting until repaired,
        which keeps the estimate conservative and avoids bursting a full
        window into an already-overflowing queue.  Every out-of-order
        segment lies between the receiver's next expected byte and
        ``snd_nxt``, so the pipe is never negative and each segment sent
        grows it by one MSS: the window admits ``count`` segments.
        """
        mss = self._mss
        pipe = self.snd_nxt - self.snd_una - len(self._ooo) * mss
        count = (int(self.effective_cwnd) - pipe) // mss
        for sent in range(count):
            seq = self.snd_nxt
            self.snd_nxt = seq + mss
            if not self._transmit(Packet(seq, mss, self.now)):
                # The queue is full and nothing leaves it before the burst
                # ends: the rest of the burst is tail-dropped too.
                rest = count - sent - 1
                self.queue.drops += rest
                self.snd_nxt += rest * mss
                return

    def _transmit(self, packet: Packet) -> bool:
        """Offer *packet* to the bottleneck; False on a tail drop.

        A tail drop surfaces later as dupacks or an RTO.  A queue that
        drops has a backlog, so the link is busy: nothing leaves the
        queue until the next event.
        """
        if not self.queue.offer(packet):
            return False
        if not self._link_busy:
            self._start_service()
        return True

    def _start_service(self) -> None:
        packet = self.queue.pop()
        self._link_busy = True
        self._schedule(self._service_time, Simulator._finish_service, packet)

    def _finish_service(self, packet: Packet) -> None:
        self._link_busy = False
        self._schedule(self._one_way, Simulator._deliver, packet)
        if not self.queue.is_empty:
            self._start_service()

    # ------------------------------------------------------------------
    # Receiver
    # ------------------------------------------------------------------

    def _deliver(self, packet: Packet) -> None:
        if packet.seq == self._rcv_nxt:
            self._rcv_nxt = packet.end
            # Absorb any buffered contiguous segments.
            while self._rcv_nxt in self._ooo:
                self._ooo.discard(self._rcv_nxt)
                self._rcv_nxt += self._mss
        elif packet.seq > self._rcv_nxt:
            self._ooo.add(packet.seq)
        # Duplicate (seq < rcv_nxt): pure ACK refresh.
        sample_time = None if packet.retransmit else packet.send_time
        ack = Ack(self._rcv_nxt, self.now, sample_time)
        self._schedule(self._one_way, Simulator._handle_ack, ack)

    # ------------------------------------------------------------------
    # ACK processing at the sender
    # ------------------------------------------------------------------

    def _handle_ack(self, ack: Ack) -> None:
        if ack.ack > self.snd_una:
            self._process_new_ack(ack)
        else:
            self._process_dupack(ack)
        self._send_window()

    def _process_new_ack(self, ack: Ack) -> None:
        acked = ack.ack - self.snd_una
        self.snd_una = ack.ack
        rtt_sample = (
            self.now - ack.for_send_time
            if ack.for_send_time is not None
            else None
        )
        self._update_rto(rtt_sample)
        if self._rtx_sent:
            self._rtx_sent = {seq for seq in self._rtx_sent if seq >= ack.ack}
        if self._in_recovery:
            if ack.ack >= self._recover_point:
                self._in_recovery = False
                self._dupacks = 0
            else:
                # Partial ACK: more holes remain; repair them (SACK view).
                self._retransmit_missing()
        else:
            self._dupacks = 0
        event = AckEvent(
            now=self.now,
            acked_bytes=acked,
            rtt_sample=rtt_sample,
            inflight_bytes=self.snd_nxt - self.snd_una,
        )
        self.cca.on_ack(event)
        self._acks.append(
            self.now,
            ack.ack,
            acked,
            rtt_sample,
            self.effective_cwnd,
            self.snd_nxt - self.snd_una,
            False,
        )
        self._arm_timer()

    def _process_dupack(self, ack: Ack) -> None:
        self._dupacks += 1
        self._acks.append(
            self.now,
            ack.ack,
            0,
            None,
            self.effective_cwnd,
            self.snd_nxt - self.snd_una,
            True,
        )
        if self._dupacks == 3 and not self._in_recovery:
            self._enter_recovery()

    def _enter_recovery(self) -> None:
        self._in_recovery = True
        self._recover_point = self.snd_nxt
        self.cca.on_loss(
            LossEvent(
                now=self.now,
                kind="dupack",
                inflight_bytes=self.snd_nxt - self.snd_una,
            )
        )
        self._losses.append(LossRecord(self.now, "dupack"))
        self._retransmit_missing()

    def _retransmit_head(self) -> None:
        if self._transmit(
            Packet(self.snd_una, self._mss, self.now, retransmit=True)
        ):
            self._rtx_sent.add(self.snd_una)

    def _retransmit_missing(self, limit: int = 64) -> None:
        """Retransmit every unrepaired hole (SACK-informed recovery).

        The sender consults the receiver's out-of-order set — the
        information SACK blocks would carry — and resends the segments the
        receiver is actually missing, at most *limit* per invocation.  A
        hole whose retransmission is dropped stays eligible for the next
        repair.
        """
        mss = self._mss
        ooo, rtx_sent = self._ooo, self._rtx_sent
        holes = list(
            itertools.islice(
                (
                    seq
                    for seq in range(self.snd_una, self.snd_nxt, mss)
                    if seq not in ooo and seq not in rtx_sent
                ),
                limit,
            )
        )
        for index, seq in enumerate(holes):
            if not self._transmit(Packet(seq, mss, self.now, retransmit=True)):
                # As in _send_window: the rest of the burst drops too.
                self.queue.drops += len(holes) - index - 1
                return
            rtx_sent.add(seq)

    # ------------------------------------------------------------------
    # Retransmission timer (RFC 6298, simplified)
    # ------------------------------------------------------------------

    def _update_rto(self, rtt_sample: float | None) -> None:
        if rtt_sample is None:
            return
        if self._srtt is None:
            self._srtt = rtt_sample
            self._rttvar = rtt_sample / 2.0
        else:
            self._rttvar += 0.25 * (abs(self._srtt - rtt_sample) - self._rttvar)
            self._srtt += 0.125 * (rtt_sample - self._srtt)

    def _rto(self) -> float:
        if self._srtt is None:
            return self._initial_rto
        return max(self._srtt + RTO_VAR_GAIN * self._rttvar, MIN_RTO)

    def _arm_timer(self) -> None:
        """Re-arm the RTO to fire at ``now + rto``.

        In the plain event loop (``MultiFlowSimulator``'s) each arm is a
        timer event keyed ``(deadline, order)`` that carries its
        ``snd_una`` snapshot, and a timer event acts only when its
        deadline is the latest arm's, so the first arm of the live
        deadline fires.  Instead of one heap entry per arm, one pending
        entry sits at or before that arm's key: it moves up to the live
        key when it pops early, and an arm whose key sorts before it
        pushes a new entry (the superseded one pops as a no-op).
        """
        order = next(self._order)
        deadline = self.now + self._rto()
        self._timer_deadline = deadline
        first, _ = self._arms.setdefault(deadline, (order, self.snd_una))
        if self._timer_entry is None or (deadline, first) < self._timer_entry:
            self._push_timer_entry(deadline, first)

    def _push_timer_entry(self, deadline: float, order: int) -> None:
        self._timer_entry = (deadline, order)
        heapq.heappush(
            self._events, (deadline, order, Simulator._timer_popped, order)
        )

    def _timer_popped(self, order: int) -> None:
        """A timer entry popped at ``(now, order)``."""
        now = self.now
        # Every arm from now on has a deadline past now.
        self._arms = {
            deadline: arm for deadline, arm in self._arms.items()
            if deadline >= now
        }
        deadline = self._timer_deadline
        first, snapshot = self._arms[deadline]
        if (now, order) == (deadline, first):
            self._timer_entry = None
            self._timer_fired(snapshot)
        elif (now, order) == self._timer_entry:
            self._push_timer_entry(deadline, first)

    def _timer_fired(self, una_snapshot: int) -> None:
        if self.snd_una == una_snapshot and self.snd_nxt > self.snd_una:
            # No progress for a full RTO with data outstanding: timeout.
            self.cca.on_loss(
                LossEvent(
                    now=self.now,
                    kind="timeout",
                    inflight_bytes=self.snd_nxt - self.snd_una,
                )
            )
            self._losses.append(LossRecord(self.now, "timeout"))
            self._in_recovery = False
            self._dupacks = 0
            self._rtx_sent.clear()
            self._retransmit_head()
            self._send_window()
        self._arm_timer()


def simulate(
    cca: CongestionControl,
    env: Environment,
    *,
    duration: float = 30.0,
    max_acks: int | None = None,
) -> Trace:
    """Convenience wrapper: build a :class:`Simulator`, run it, return the trace."""
    return Simulator(cca, env, duration=duration, max_acks=max_acks).run()
