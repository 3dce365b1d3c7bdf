"""Lockstep replay: many lanes through one block-vectorized recurrence.

A *lane* is one replay of pre-passed READ rows: a planned cell's
``main`` or ``peak`` lane, whose commands come from the controller's
:func:`~repro.ssd.controller.dispatch`, or a pattern-peak lane, one
command of all its rows arriving at 0.  :func:`lockstep` advances
every lane one *block* per step — consecutive rows of one command
with no plane unit twice (:func:`~repro.ssd.scheduler.block_ends`) —
through :func:`~repro.ssd.scheduler.block_recurrence`, the lanes'
resource state side by side in one
:class:`~repro.ssd.scheduler.FlatResources`.  When a lane's command
ends, its completion goes back to the lane's command source, which
answers with the next command's rows and arrival.

Vectorizing pays only with width: once a step has fewer than
:data:`BREAK_EVEN_ROWS` rows, every remaining lane finishes on the
scalar :func:`~repro.ssd.scheduler.recurrence`.  Both kernels compute
the same int64 timeline, so the switch point never shows in a result.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Generator, Optional, Sequence, cast

import numpy as np

from ..ssd.controller import dispatch
from ..ssd.geometry import Geometry
from ..ssd.request import CommandGroup
from ..ssd.scheduler import (
    INFINITE_HOST,
    KIND_CODES,
    FlatResources,
    LaneCols,
    TxnLog,
    assemble_log,
    block_ends,
    block_recurrence,
    recurrence,
)
from .plan import CellPlan, PlannedCommand

__all__ = [
    "BREAK_EVEN_ROWS",
    "CommandTrace",
    "Commands",
    "Lane",
    "lockstep",
    "planned_commands",
    "replay_plans",
]

#: a step narrower than this many rows sends every remaining lane to
#: the scalar recurrence: below it the per-step numpy overhead costs
#: more than the rows' Python loop (measured break-even ~512 rows on a
#: 2-vCPU x86 host, for one cell's lanes and for the whole matrix)
BREAK_EVEN_ROWS = 512

#: a lane's command source: yields ``(lo, hi, arrival)`` windows of the
#: lane's rows and is sent each window's completion
Commands = Generator[tuple[int, int, int], int, None]


@dataclass
class Lane:
    """One replay that :func:`lockstep` steps."""

    geom: Geometry
    #: the base whose bus, host and command columns the lane reads
    link: int
    #: the lane's rows are ``lo:lo + n`` of the bases
    lo: int
    n: int
    commands: Commands
    #: keep the rows' interval ends (in replay order) in ``ends``; the
    #: commands of a recording lane must cover each of its rows once
    record: bool = False
    ends: list[np.ndarray] = field(default_factory=list)


def _next_window(commands: Commands, done: Optional[int]):
    """The source's next non-empty window after sending ``done``
    (``None`` starts it); an empty one completes at its arrival."""
    try:
        lo, hi, arrival = next(commands) if done is None else commands.send(done)
        while hi <= lo:
            lo, hi, arrival = commands.send(arrival)
    except StopIteration:
        return None
    return lo, hi, arrival


def lockstep(bases: Sequence[LaneCols], lanes: Sequence[Lane]) -> None:
    """Replay every lane to the end of its command source.

    ``bases`` share every column but ``fb``/``hb``/``cmd`` (the
    :func:`~repro.ssd.scheduler.prepass` lanes of one stream); lane
    rows must be READs.  A recording lane's ``ends`` become its rows'
    cell, flash-bus, channel and host ends in replay order.
    """
    static = bases[0]
    assert all(b.unit is static.unit and b.cell_ns is static.cell_ns for b in bases)
    lanes = sorted(lanes, key=lambda lane: lane.link)  # one base's rows together
    n_lanes = len(lanes)
    res = FlatResources([lane.geom for lane in lanes])
    link = np.array([lane.link for lane in lanes], dtype=np.int64)
    pos = np.zeros(n_lanes, dtype=np.int64)  # next row, in base rows
    hi = np.zeros(n_lanes, dtype=np.int64)  # current command's end
    arrival = np.zeros(n_lanes, dtype=np.int64)
    comp = np.zeros(n_lanes, dtype=np.int64)  # current command's completion

    rec = np.array([lane.record for lane in lanes], dtype=bool)
    sizes = np.array([lane.n if lane.record else 0 for lane in lanes], dtype=np.int64)
    log0 = np.cumsum(sizes) - sizes
    at = np.zeros(n_lanes, dtype=np.int64)  # rows recorded so far
    rec_cols = [np.empty(int(sizes.sum()), dtype=np.int64) for _ in range(4)]
    for k, lane in enumerate(lanes):
        if lane.record:
            lane.ends = [col[log0[k] : log0[k] + lane.n] for col in rec_cols]

    def start(k: int, window) -> bool:
        if window is None:
            return False
        lo, end, arr = window
        pos[k] = lanes[k].lo + lo
        hi[k] = lanes[k].lo + end
        arrival[k] = comp[k] = arr
        return True

    live = np.array(
        [k for k, lane in enumerate(lanes) if start(k, _next_window(lane.commands, None))],
        dtype=np.int64,
    )
    # a block holds at most one row per plane unit: decide on the bound
    # before building any block structure, so narrow batches pay nothing
    units = np.array([lane.geom.plane_units for lane in lanes], dtype=np.int64)
    if live.size and int(np.minimum(hi - pos, units)[live].sum()) >= BREAK_EVEN_ROWS:
        ends = block_ends(static.unit)
        while live.size:
            s = pos[live]
            e = np.minimum(ends[s], hi[live])
            rows = e - s
            width = int(rows.sum())
            if width < BREAK_EVEN_ROWS:
                break
            first = np.cumsum(rows) - rows
            steps = np.arange(width, dtype=np.int64)
            idx = np.repeat(s - first, rows) + steps
            if len(bases) == 1:
                fb, hb, cmd = static.fb[idx], static.hb[idx], static.cmd[idx]
            else:  # the bus, host and command columns, base by base
                bounds = np.append(first, width)
                cuts = bounds[np.searchsorted(link[live], np.arange(1, len(bases)))]
                parts = np.split(idx, cuts)
                fb, hb, cmd = (
                    np.concatenate([getattr(b, name)[p] for b, p in zip(bases, parts)])
                    for name in ("fb", "hb", "cmd")
                )
            c_end, f_end, s_end, h_end = block_recurrence(
                res,
                np.repeat(arrival[live], rows),
                live,
                rows,
                static.unit[idx],
                static.die[idx],
                static.pkg[idx],
                static.chan[idx],
                static.cell_ns[idx],
                fb,
                hb,
                cmd,
            )
            r = rec[live]
            if r.any():
                keep = np.repeat(r, rows)
                dest = (np.repeat(log0[live] + at[live] - first, rows) + steps)[keep]
                for col, val in zip(rec_cols, (c_end, f_end, s_end, h_end)):
                    col[dest] = val[keep]
                at[live] += rows
            comp[live] = np.maximum(comp[live], h_end[first + rows - 1])
            pos[live] = e
            ended = e == hi[live]
            if ended.any():
                alive = np.ones(live.size, dtype=bool)
                for j in np.flatnonzero(ended).tolist():
                    k = int(live[j])
                    alive[j] = start(k, _next_window(lanes[k].commands, int(comp[k])))
                live = live[alive]

    for k in live.tolist():
        _finish_scalar(bases[lanes[k].link], lanes[k], res.lane(k),
                       int(pos[k]), int(hi[k]), int(arrival[k]), int(comp[k]),
                       int(at[k]))


def _finish_scalar(
    base: LaneCols, lane: Lane, res, lo: int, hi: int, arrival: int, comp: int, at: int
) -> None:
    """Replay the rest of ``lane`` on the scalar recurrence.

    The lane's current command runs from base row ``lo`` on, with its
    completion so far ``comp``; ``at`` rows are recorded already.
    """
    cols = base.window(slice(lane.lo, lane.lo + lane.n)).lists()
    out = [[0] * (lane.n - at) for _ in range(8)] if lane.record else None
    k = 0
    lo -= lane.lo
    hi -= lane.lo
    while True:
        comp = max(comp, recurrence(cols, lo, hi, arrival, res, out, k))
        k += hi - lo
        window = _next_window(lane.commands, comp)
        if window is None:
            break
        lo, hi, arrival = window
        comp = arrival
    if out is not None:
        for col, vals in zip(lane.ends, out[1::2]):
            col[at : at + k] = vals[:k]


# ----------------------------------------------------------------------
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
