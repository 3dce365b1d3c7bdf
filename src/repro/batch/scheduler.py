"""Lockstep replay of planned cells.

Each planned cell's ``main`` lane, and its ``peak`` lane where asked,
becomes one :class:`~repro.ssd.scheduler.Lane` of a single
:func:`~repro.ssd.scheduler.lockstep` replay over the stacked bases of
:func:`~repro.batch.plan.stack_plans`.  A lane's commands come from the
controller's :func:`~repro.ssd.controller.dispatch` of the planned
command groups (:func:`planned_commands`), which records what it saw
in a :class:`CommandTrace`: the main lane's log is assembled from it,
and the peak lane reports its aggregate bandwidth from it without a
log.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence, cast

import numpy as np

from ..ssd.controller import dispatch
from ..ssd.request import CommandGroup
from ..ssd.scheduler import (
    INFINITE_HOST,
    KIND_CODES,
    Commands,
    Lane,
    TxnLog,
    assemble_log,
    lockstep,
)
from .plan import CellPlan, PlannedCommand

__all__ = ["CommandTrace", "planned_commands", "replay_plans"]


@dataclass
class CommandTrace:
    """What a planned lane's command source saw of its commands."""

    #: (req, client, kind code, arrival, lo, hi) per non-empty command
    meta: list[tuple[int, int, int, int, int, int]] = field(default_factory=list)
    #: latest completion of a non-empty command
    last_done: int = 0

    def aggregate_mb(self, nbytes: np.ndarray) -> float:
        """Aggregate bandwidth of the replay, as compute_metrics reports;
        ``nbytes`` are the lane's row payloads."""
        if not self.meta:
            return 0.0
        meta = np.asarray(self.meta, dtype=np.int64)
        data = meta[meta[:, 2] == KIND_CODES["data"]]
        total = np.concatenate([[0], np.cumsum(nbytes)])
        payload = int((total[data[:, 5]] - total[data[:, 4]]).sum())
        makespan = self.last_done - int(meta[:, 3].min())
        bw = payload * 1e9 / makespan if makespan > 0 else 0.0
        return bw / 1e6


def planned_commands(
    groups: Sequence[CommandGroup],
    posix_window: int,
    per_req_ns: int,
    readahead_bytes: Optional[int],
    trace: CommandTrace,
) -> Commands:
    """The controller's :func:`~repro.ssd.controller.dispatch` of
    planned command groups, as windows of the lane's rows."""
    commands = dispatch(groups, posix_window, 0, per_req_ns, readahead_bytes)
    try:  # only the dispatch generator raises StopIteration, when it is done
        cmd, client, arrival = next(commands)
        for req in itertools.count():
            lo, hi = cast(PlannedCommand, cmd).lo, cast(PlannedCommand, cmd).hi
            if hi > lo:
                trace.meta.append(
                    (req, client, KIND_CODES.get(cmd.kind, 0), arrival, lo, hi)
                )
            done = yield lo, hi, arrival
            if hi > lo and done > trace.last_done:
                trace.last_done = done
            cmd, client, arrival = commands.send(done)
    except StopIteration:
        return


def replay_plans(
    plans: Sequence[CellPlan], with_peak: Sequence[bool]
) -> tuple[list[TxnLog], list[Optional[float]]]:
    """Replay every plan's ``main`` lane, and its ``peak`` lane where
    ``with_peak`` says, all in lockstep.

    Returns the main lanes' logs and the peak lanes' aggregate
    bandwidth in MB/s (``None`` where not replayed).  The peak lane
    replays on the unconstrained interface
    (:meth:`~repro.ssd.controller.SSDevice.unconstrain`) without
    touching the device.
    """
    if not plans:
        return [], []
    bases = plans[0].stacked
    assert all(p.stacked is bases for p in plans), "plans of one stack_plans call"

    def lane(plan: CellPlan, link: int, per_req_ns: int, trace: CommandTrace) -> Lane:
        device = plan.path.device
        commands = planned_commands(
            plan.groups, plan.posix_window, per_req_ns, device.readahead_bytes, trace
        )
        return Lane(device.geom, link, plan.row0, plan.n, commands, record=link == 0)

    mains: list[tuple[Lane, CommandTrace]] = []
    peaks: list[Optional[tuple[Lane, CommandTrace]]] = []
    for plan, peak in zip(plans, with_peak):
        host, trace = plan.path.device.host, CommandTrace()
        overhead = plan.path.device.command_overhead_ns
        mains.append((lane(plan, 0, host.per_request_ns + overhead, trace), trace))
        # the unconstrained interface has no per-request or command overhead
        trace = CommandTrace()
        peaks.append(
            (lane(plan, 1, INFINITE_HOST.per_request_ns, trace), trace) if peak else None
        )
    lockstep(
        [bases["main"], bases["peak"]],
        [m for m, _ in mains] + [p for p, _ in filter(None, peaks)],
    )
    logs = [
        assemble_log(plan.lanes["main"], trace.meta, main.ends)
        for plan, (main, trace) in zip(plans, mains)
    ]
    peak_mb = [
        None if p is None else p[1].aggregate_mb(plan.nbytes)
        for plan, p in zip(plans, peaks)
    ]
    return logs, peak_mb
