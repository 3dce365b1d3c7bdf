"""Lockstep replay of planned cells.

Each planned cell's ``main`` lane, and its ``peak`` lane where asked,
becomes one :class:`~repro.ssd.scheduler.Lane` of a single
:func:`~repro.ssd.scheduler.lockstep` replay over the stacked inputs
of :func:`~repro.batch.plan.stack_plans`; a cell's two lanes read the
same rows on their own links.  A lane's commands come from the
controller's :func:`~repro.ssd.controller.dispatch` of the planned
command groups (:func:`planned_commands`), which records what it saw
in a :class:`CommandTrace`.  As a main lane finishes, the caller gets
what it needs to assemble the lane's log (:class:`MainReplay`) and may
measure and drop it on the spot; the peak lane reports its aggregate
bandwidth from its trace without a log.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence, TypeVar, cast

import numpy as np

from ..ssd.controller import dispatch
from ..ssd.request import CommandGroup
from ..ssd.scheduler import (
    INFINITE_HOST,
    KIND_CODES,
    Commands,
    Lane,
    lockstep,
)
from .plan import CellPlan, PlannedCommand

__all__ = ["CommandTrace", "MainReplay", "planned_commands", "replay_plans"]


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
        total = np.concatenate([[0], np.cumsum(nbytes, dtype=np.int64)])
        payload = int((total[data[:, 5]] - total[data[:, 4]]).sum())
        makespan = self.last_done - int(meta[:, 3].min())
        bw = payload * 1e9 / makespan if makespan > 0 else 0.0
        return bw / 1e6


class MainReplay(NamedTuple):
    """A replayed main lane: with the plan's main lane
    (:meth:`~repro.batch.plan.CellPlan.lane`), the arguments of
    :func:`~repro.ssd.scheduler.assemble_log` for its log."""

    plan: CellPlan
    #: the lane's :attr:`CommandTrace.meta`
    meta: list[tuple[int, int, int, int, int, int]]
    #: the lane's recorded cell, flash-bus, channel and host ends, the
    #: rows of its int64 ``(4, n)`` buffer
    ends: np.ndarray


T = TypeVar("T")


def _keep(main: MainReplay) -> MainReplay:
    return main


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
    plans: Sequence[CellPlan],
    with_peak: Sequence[bool],
    on_main: Callable[[MainReplay], T] = _keep,  # type: ignore[assignment]
) -> tuple[list[T], list[Optional[float]]]:
    """Replay every plan's ``main`` lane, and its ``peak`` lane where
    ``with_peak`` says, all in lockstep.

    As each main lane's commands run out, mid-lockstep, ``on_main`` is
    called with what :func:`~repro.ssd.scheduler.assemble_log` needs to
    build its log (:class:`MainReplay`); the replay then drops its own
    references to the lane's recorded ends and command trace, so a
    caller that assembles, measures and keeps only a summary frees each
    cell's ends while the other cells step on.  Returns ``on_main``'s
    results in plan order (the :class:`MainReplay` itself by default)
    and the peak lanes' aggregate bandwidth in MB/s (``None`` where not
    replayed).  The peak lane replays on the unconstrained interface
    (:meth:`~repro.ssd.controller.SSDevice.unconstrain`) without
    touching the device.
    """
    if not plans:
        return [], []
    inputs = plans[0].inputs  # every plan's: they come from one stack_plans call
    assert inputs is not None and all(p.inputs is inputs for p in plans)

    def lane(
        plan: CellPlan, name: str, per_req_ns: int, trace: CommandTrace,
        done: Optional[Callable[[np.ndarray], None]] = None,
    ) -> Lane:
        device = plan.path.device
        commands = planned_commands(
            plan.groups, plan.posix_window, per_req_ns, device.readahead_bytes, trace
        )
        return Lane(device.geom, plan.link(name), plan.row0, plan.n, commands, done)

    results: list[T] = [cast(T, None)] * len(plans)

    def finish(i: int, plan: CellPlan, trace: CommandTrace) -> Callable[[np.ndarray], None]:
        def done(ends: np.ndarray) -> None:
            results[i] = on_main(MainReplay(plan, trace.meta, ends))
            trace.meta = []

        return done

    mains: list[Lane] = []
    peaks: list[Optional[tuple[Lane, CommandTrace]]] = []
    for i, (plan, peak) in enumerate(zip(plans, with_peak)):
        device, trace = plan.path.device, CommandTrace()
        per_req_ns = device.host.per_request_ns + device.command_overhead_ns
        mains.append(lane(plan, "main", per_req_ns, trace, finish(i, plan, trace)))
        # the unconstrained interface has no per-request or command overhead
        trace = CommandTrace()
        peaks.append(
            (lane(plan, "peak", INFINITE_HOST.per_request_ns, trace), trace) if peak else None
        )
    lockstep(inputs, mains + [p for p, _ in filter(None, peaks)])
    peak_mb = [
        None if p is None else p[1].aggregate_mb(plan.nbytes)
        for plan, p in zip(plans, peaks)
    ]
    return results, peak_mb
