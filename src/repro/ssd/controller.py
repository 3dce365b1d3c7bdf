"""SSD device front-end: closed-loop replay of command streams.

Ties together the FTL (address translation, GC) and the transaction
scheduler (timing), and models the two flow-control loops that govern
arrival times in the real stack:

* the **application window** — the OoC middleware keeps a small number
  of POSIX requests outstanding (DOoC's prefetch depth),
* the **kernel readahead / block-layer window** — a file system keeps
  at most ``readahead_bytes`` of block commands in flight per stream;
  this is the knob that separates a poorly tuned file system from a
  well tuned one (ext4 vs ext4-L) and that UFS removes entirely
  (application-managed I/O issues arbitrarily large requests).

Write barriers (journal commits) stall subsequent commands of the same
client until the barrier completes, reproducing the serialization cost
of journaling file systems.

Fault injection (``repro.faults``) attaches as a pure overlay via
:meth:`SSDevice.attach_faults`: injected die failures and ECC read
retries become latency penalties on the affected command's completion
(retry-with-backoff in the controller, exactly how real firmware
surfaces them), and the penalized completion flows through the same
flow-control windows.  With no model attached the replay is
bit-identical to the fault-free path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Optional, Sequence

from ..interconnect.host import HostPath
from ..nvm.bus import BusSpec
from .ftl import DeviceFTL
from .geometry import Geometry
from .metrics import RunMetrics, compute_metrics
from .queueing import reorder_die_round_robin
from .request import CommandGroup, DeviceCommand
from .scheduler import INFINITE_BUS, INFINITE_HOST, TransactionScheduler, TxnLog

__all__ = ["Dispatch", "ReplayResult", "SSDevice", "dispatch"]


@dataclass
class ReplayResult:
    """Outcome of replaying a command stream against one device."""

    log: TxnLog
    group_completions: list[int]
    metrics: RunMetrics
    ftl_stats: dict = field(default_factory=dict)
    #: the device-level block trace: one (t_ns, op, lba, nbytes, kind,
    #: client) tuple per command as it reached the device — Section
    #: 4.2's second capture level (see repro.trace.block)
    command_log: list[tuple] = field(default_factory=list)
    #: injected-fault roll-up (empty when no fault model was attached)
    fault_stats: dict = field(default_factory=dict)

    @property
    def makespan_ns(self) -> int:
        return self.metrics.makespan_ns


class SSDevice:
    """One simulated SSD with its FTL, buses and host attachment."""

    def __init__(
        self,
        geometry: Geometry,
        bus: BusSpec,
        host: HostPath,
        logical_bytes: int,
        readahead_bytes: Optional[int] = None,
        name: str = "ssd",
        overprovision: float = 0.125,
        command_overhead_ns: int = 5_000,
        queue_policy: str = "fifo",
    ):
        if queue_policy not in ("fifo", "paq"):
            raise ValueError(f"unknown queue policy {queue_policy!r}")
        self.geom = geometry
        self.bus = bus
        self.host = host
        self.name = name
        self.readahead_bytes = readahead_bytes
        self.ftl = DeviceFTL(geometry, logical_bytes, overprovision=overprovision)
        self.kind = geometry.kind
        #: device-resident FTL/firmware time per command; the paper's
        #: UFS hoists the FTL into the host and sets this to zero
        self.command_overhead_ns = command_overhead_ns
        #: "fifo" issues transactions in FTL order; "paq" reorders read
        #: batches die-round-robin (physically addressed queueing)
        self.queue_policy = queue_policy
        #: optional :class:`~repro.faults.device.DeviceFaultModel`
        self.fault_model = None
        #: optional :class:`~repro.obs.hist.LatencyRecorder` (unit "ns")
        #: fed each media command's simulated completion latency —
        #: arrival to (fault-penalized) completion.  Pure observation:
        #: ``None`` (the default) changes nothing, and recording reads
        #: only already-computed DES timestamps.  The lifetime sweep
        #: uses it for per-cell p99 latency.
        self.latency_recorder = None

    def unconstrain(self) -> None:
        """Switch to an infinite bus and host path, no command overhead.

        The Figs 7b/8b baseline: only the media and the request stream
        itself constrain a replay on the unconstrained device.
        """
        self.bus = INFINITE_BUS
        self.host = INFINITE_HOST
        self.command_overhead_ns = 0

    def attach_faults(self, model) -> None:
        """Overlay a device fault model onto subsequent replays."""
        self.fault_model = model

    def preload(self, nbytes: int) -> None:
        """Install the pre-loaded data set (Section 3.1 pre-staging)."""
        self.ftl.preload(nbytes)

    # ------------------------------------------------------------------
    def run(
        self,
        groups: Sequence[CommandGroup],
        posix_window: int = 2,
        start_ns: int = 0,
    ) -> ReplayResult:
        """Replay ``groups`` and return the full result.

        ``posix_window`` is the per-client number of POSIX requests the
        application keeps outstanding (DOoC prefetch depth >= 1).
        :func:`dispatch` decides which command goes next and when it
        arrives; this loop translates it, schedules its transactions
        and reports the completion back.
        """
        sched = TransactionScheduler(self.geom, self.bus, self.host)
        ftl = self.ftl
        paq = self.queue_policy == "paq"
        faults = self.fault_model
        commands = dispatch(
            groups,
            posix_window,
            start_ns,
            self.host.per_request_ns + self.command_overhead_ns,
            self.readahead_bytes,
        )

        req_id = 0
        command_log: list[tuple] = []
        try:  # only the generator raises StopIteration, when it is done
            cmd, client, cmd_arrival = next(commands)
            while True:
                command_log.append(
                    (cmd_arrival, cmd.op, cmd.lba, cmd.nbytes, cmd.kind, client)
                )
                txns = ftl.translate(cmd)
                if paq and txns:
                    txns = reorder_die_round_robin(txns, self.geom)
                if txns:
                    done = sched.submit(
                        txns, cmd_arrival, req_id, client=client, kind_label=cmd.kind
                    )
                    if faults is not None:
                        done = faults.on_command(
                            req_id, cmd.op, txns, done, self.geom.resource_ids
                        )
                    if self.latency_recorder is not None:
                        self.latency_recorder.record(done - cmd_arrival)
                else:  # trim / no-op
                    done = cmd_arrival
                req_id += 1
                cmd, client, cmd_arrival = commands.send(done)
        except StopIteration as stop:
            group_completions = stop.value

        log = sched.finish()
        return ReplayResult(
            log=log,
            group_completions=group_completions,
            metrics=compute_metrics(log, self.geom, self.kind),
            ftl_stats=dict(ftl.stats),
            command_log=command_log,
            fault_stats=faults.snapshot() if faults is not None else {},
        )


#: :func:`dispatch`'s protocol: yields ``(command, client, arrival)``,
#: is sent each command's completion, returns the group completions
Dispatch = Generator[tuple[DeviceCommand, int, int], int, list[int]]


def dispatch(
    groups: Sequence[CommandGroup],
    posix_window: int,
    start_ns: int,
    per_req_ns: int,
    readahead_bytes: Optional[int],
) -> Dispatch:
    """The controller's flow control, one command at a time.

    Yields every command of ``groups`` with its client and its arrival
    at the device, and must be sent the command's completion before it
    yields the next one; returns each group's completion.  Commands
    are dispatched globally in (approximate) time order across all
    in-flight groups and clients, so overlapping POSIX requests
    genuinely share the device — the list scheduler's non-backfilling
    resource timelines then see transactions in the order the device
    would.  A command arrives ``per_req_ns`` after it is issued.

    The generator holds all of its state, so any number of replays —
    :meth:`SSDevice.run`, or the batch backend's lockstep lanes — can
    drive it side by side.
    """
    if posix_window < 1:
        raise ValueError("posix_window must be >= 1")
    ra = readahead_bytes

    # per-client bookkeeping
    by_client: dict[int, list[tuple[int, CommandGroup]]] = {}
    for gidx, g in enumerate(groups):
        by_client.setdefault(g.client, []).append((gidx, g))
    next_to_activate: dict[int, int] = {c: 0 for c in by_client}
    completions: dict[int, list[Optional[int]]] = {
        c: [None] * len(lst) for c, lst in by_client.items()
    }
    barrier_t: dict[int, int] = {c: start_ns for c in by_client}
    group_completions: list[int] = [start_ns] * len(groups)
    active: list[_Stream] = []

    def activate(client: int) -> None:
        lst = by_client[client]
        comp = completions[client]
        while next_to_activate[client] < len(lst):
            k = next_to_activate[client]
            dep = start_ns
            if k >= posix_window:
                if comp[k - posix_window] is None:
                    break  # dependency not finalized yet
                dep = comp[k - posix_window]
            gidx, group = lst[k]
            cursor = max(start_ns, group.posix.t_issue_ns, barrier_t[client], dep)
            if not group.commands:
                comp[k] = cursor
                group_completions[gidx] = cursor
                next_to_activate[client] += 1
                continue
            active.append(_Stream(gidx, client, k, group, cursor))
            next_to_activate[client] += 1

    for c in by_client:
        activate(c)

    while active:
        # dispatch the command that would be issued earliest
        st = min(active, key=lambda s: s.cursor)
        cmd = st.cmds[st.idx]
        cursor = max(st.cursor, barrier_t[st.client])
        if ra is not None:
            while st.inflight and st.inflight_bytes + cmd.nbytes > ra:
                t_done, nb = st.inflight.pop(0)
                st.inflight_bytes -= nb
                if t_done > cursor:
                    cursor = t_done
        done = yield cmd, st.client, cursor + per_req_ns
        st.inflight.append((done, cmd.nbytes))
        st.inflight_bytes += cmd.nbytes
        if done > st.done:
            st.done = done
        st.cursor = cursor
        if cmd.barrier:
            st.cursor = max(st.cursor, done)
            barrier_t[st.client] = max(barrier_t[st.client], done)
        st.idx += 1
        if st.idx >= len(st.cmds):
            active.remove(st)
            completions[st.client][st.k] = st.done
            group_completions[st.gidx] = st.done
            activate(st.client)
    return group_completions


class _Stream:
    """One in-flight command group of :func:`dispatch`."""

    __slots__ = (
        "gidx", "client", "k", "cmds", "idx", "cursor",
        "inflight", "inflight_bytes", "done",
    )

    def __init__(self, gidx: int, client: int, k: int, group: CommandGroup, cursor: int):
        self.gidx = gidx
        self.client = client
        self.k = k  # per-client group index
        self.cmds = group.commands
        self.idx = 0
        self.cursor = cursor
        self.inflight: list[tuple[int, int]] = []
        self.inflight_bytes = 0
        self.done = cursor
