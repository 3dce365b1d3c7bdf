"""Go-back-N ARQ schedule over a packetized wire.

:func:`compute_schedule` turns one bulk transfer into the exact
nanosecond schedule a go-back-N sender produces on a lossy wire: the
payload is framed into MTU packets, each packet attempt consumes wire
time, the loss oracle decides drops, a lost head discards the in-flight
window tail (which must be re-streamed), retransmits back off
exponentially, and a packet that exhausts its retransmission budget
raises the permanent :class:`~repro.faults.errors.LinkUnreachable`.

The function is **pure**: a deterministic map of ``(wire spec, netfault
spec, link name, transfer seq, nbytes, controller state)`` to a
:class:`TransferSchedule`.  The DES link calls it while holding the
wire and sleeps for ``schedule.wire_ns`` in one timeout, so packet
accounting never perturbs event ordering.

Bit-identity invariant (golden-tested): per-packet durations telescope
over cumulative byte boundaries —

    ``dur(k) = transfer_ns(cum_k) - transfer_ns(cum_{k-1})``

so at ``loss_rate == 0`` the packet durations sum to **exactly**
``transfer_ns(nbytes)``, the healthy bulk wire time, with no rounding
drift at any MTU.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from ..faults.errors import LinkUnreachable
from ..interconnect.links import LinkSpec
from .rate import AdaptiveRateController
from .spec import NetFaultSpec, PacketOracle

__all__ = ["PacketEvent", "TransferSchedule", "compute_schedule"]


@dataclass(frozen=True)
class PacketEvent:
    """One per-packet occurrence, at an offset into the wire phase."""

    t_ns: int  # start offset of the frame within the transfer
    dur_ns: int  # wire occupancy of the frame (0 for backoff rows)
    pkt_seq: int
    attempt: int
    event: str  # sent | delivered | lost | backoff | fallback | recovery
    size_bytes: int
    rate_level: str


@dataclass
class TransferSchedule:
    """The resolved timing + counters of one packetized transfer."""

    nbytes: int
    n_packets: int
    wire_ns: int  # total wire phase (excludes the per-request latency)
    packets_sent: int = 0
    packets_lost: int = 0
    retransmits: int = 0
    backoff_ns: int = 0
    wasted_ns: int = 0  # discarded in-flight window tails
    lost_frame_ns: int = 0  # wire time of the dropped frames themselves
    events: list[PacketEvent] = field(default_factory=list)

    @property
    def payload_ns(self) -> int:
        """Wire time that moved payload which was actually delivered."""
        return (
            self.wire_ns - self.wasted_ns - self.backoff_ns
            - self.lost_frame_ns
        )


@lru_cache(maxsize=64)
def _packets(
    wire: LinkSpec, mtu: int, nbytes: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Cumulative byte boundaries of a transfer's packets, and the
    healthy wire time to each: computed once per wire, MTU and size,
    since a fabric sends thousands of equal transfers."""
    n_packets = (nbytes + mtu - 1) // mtu
    cum = tuple(min(k * mtu, nbytes) for k in range(n_packets + 1))
    return cum, tuple(wire.transfer_ns(c) for c in cum)


def compute_schedule(
    wire: LinkSpec,
    nf: NetFaultSpec,
    oracle: PacketOracle,
    rate: AdaptiveRateController,
    link: str,
    transfer_seq: int,
    nbytes: int,
    record_events: bool = False,
) -> TransferSchedule:
    """Resolve one go-back-N transfer; raises LinkUnreachable on budget
    exhaustion (counters in the partial schedule are folded in by the
    caller before the raise propagates)."""
    cum, wire_at = _packets(wire, nf.mtu_bytes, nbytes)
    n_packets = len(cum) - 1
    sched = TransferSchedule(nbytes=nbytes, n_packets=n_packets, wire_ns=0)
    t = 0

    # every call is guarded by ``record_events``
    def emit(dur: int, pkt: int, attempt: int, event: str, size: int) -> None:
        sched.events.append(
            PacketEvent(t, dur, pkt, attempt, event, size, rate.level_name)
        )

    for k in range(1, n_packets + 1):
        pkt = k - 1
        size = cum[k] - cum[k - 1]
        base_dur = wire_at[k] - wire_at[k - 1]
        attempt = 0
        while True:
            dur = rate.stretch(base_dur)
            sched.packets_sent += 1
            if record_events:
                emit(dur, pkt, attempt, "sent", size)
            dropped = oracle.lost(link, transfer_seq, pkt, attempt)
            t += dur
            move = rate.on_outcome(dropped)
            if not dropped:
                if record_events:
                    emit(0, pkt, attempt, "delivered", size)
                    if move == "recovery":
                        emit(0, pkt, attempt, "recovery", 0)
                break
            sched.packets_lost += 1
            sched.lost_frame_ns += dur
            if record_events:
                emit(0, pkt, attempt, "lost", size)
                if move == "fallback":
                    emit(0, pkt, attempt, "fallback", 0)
            # go-back-N: the already-streamed window tail is discarded
            # and must be re-sent; charge its wire occupancy as waste
            inflight = min(nf.window_packets - 1, n_packets - k)
            if inflight:
                tail = rate.stretch(wire_at[k + inflight] - wire_at[k])
                t += tail
                sched.wasted_ns += tail
            attempt += 1
            if attempt > nf.max_retransmits:
                sched.wire_ns = t
                err = LinkUnreachable(
                    f"link {link}: packet {pkt} of transfer {transfer_seq} "
                    f"lost {attempt} times, exhausting the "
                    f"{nf.max_retransmits}-retransmit budget",
                    site=("netfault", link, transfer_seq, pkt),
                )
                err.schedule = sched  # partial counters for the caller
                raise err
            sched.retransmits += 1
            backoff = min(
                nf.backoff_cap_ns, nf.backoff_base_ns << (attempt - 1)
            )
            if backoff:
                if record_events:
                    emit(0, pkt, attempt, "backoff", 0)
                t += backoff
                sched.backoff_ns += backoff
    sched.wire_ns = t
    return sched
