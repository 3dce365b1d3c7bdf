"""Plan a matrix cell into columnar transactions (cell x txn layout).

A *plan* is everything about a cell's replay that does not depend on
time: the command stream the file system emits for the workload trace,
the page-level transactions each command translates to under the
pre-staged identity mapping, and every per-transaction quantity without
a cross-transaction dependency (address decode, latency-ladder cell
times, bus/host transfer times, multi-plane grouping and the
command-sharing discount).

``plan_cell`` builds one cell's plan — or raises
:class:`BatchUnsupported` if the cell needs anything the static
translation cannot express (writes, trims, cold reads, fault models,
non-FIFO queueing).  ``stack_plans``
then concatenates all planned cells into one stacked int64 block and
runs the scheduler's own :func:`~repro.ssd.scheduler.prepass` over it
once, with each cell's device constants broadcast per row; each plan
receives per-cell views (``lanes``) that :mod:`repro.batch.scheduler`
replays in lockstep with every other planned cell.

Two lanes are materialized per cell from the same transaction columns:

* ``main`` — the configured bus/host/command-overhead constants,
* ``peak`` — the unconstrained interface
  (:data:`~repro.ssd.scheduler.INFINITE_BUS`,
  :data:`~repro.ssd.scheduler.INFINITE_HOST`, zero command overhead)
  of :func:`repro.experiments.runner._unconstrained_media_peak`,
  reusing the plan instead of re-translating the identical
  deterministic stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.architecture import StoragePath
from ..experiments.configs import ExpConfig, config_by_label
from ..nvm.kinds import NVMKind, kind_by_name
from ..ssd.ftl import plane_groups
from ..ssd.request import CommandGroup, DeviceCommand, OpCode
from ..ssd.scheduler import (
    INFINITE_BUS,
    INFINITE_HOST,
    LaneCols,
    Link,
    MediaConsts,
    prepass,
)
from ..trace.replay import _interleave

__all__ = [
    "BatchUnsupported",
    "CellPlan",
    "LaneCols",
    "PlannedCommand",
    "plan_cell",
    "stack_plans",
]


class BatchUnsupported(Exception):
    """The columnar plan cannot express this cell; use the scalar path."""


@dataclass(frozen=True)
class PlannedCommand(DeviceCommand):
    """A device command whose translation was fixed at plan time.

    ``lo:hi`` index the cell's transaction columns; the replay reads
    that window instead of translating, so the controller's dispatch
    runs unchanged.
    """

    lo: int = 0
    hi: int = 0


@dataclass
class CellPlan:
    """One cell's static replay plan plus its stacked-column views."""

    label: str
    kind_name: str
    config: ExpConfig
    kind: NVMKind
    path: StoragePath
    posix_window: int
    groups: list[CommandGroup]  # planned commands, clients interleaved
    n: int
    flat: np.ndarray
    nbytes: np.ndarray
    cmd_ord: np.ndarray  # row -> command ordinal within the cell
    group_ids: np.ndarray
    #: filled by :func:`stack_plans`: the ``main`` and ``peak`` lanes of
    #: every stacked row, this plan's rows ``row0:row0 + n`` of them,
    #: and views of just those rows
    stacked: dict[str, LaneCols] = field(default_factory=dict)
    row0: int = 0
    lanes: dict[str, LaneCols] = field(default_factory=dict)


def plan_cell(
    label: str,
    kind_name: str,
    workload,
    seed: int,
) -> CellPlan:
    """Statically translate one Table-2 cell, or raise BatchUnsupported."""
    config = config_by_label(label)
    kind = kind_by_name(kind_name)
    path = config.build(kind, workload.bytes_per_client, seed=seed)
    device = path.device
    if device.queue_policy != "fifo":
        raise BatchUnsupported(f"queue policy {device.queue_policy!r}")
    if device.fault_model is not None:
        raise BatchUnsupported("device fault model attached")
    geom = device.geom

    traces = workload.traces(path.clients)
    file_sizes: dict[int, int] = {}
    for t in traces:
        for fid, size in t.file_sizes().items():
            file_sizes[fid] = max(file_sizes.get(fid, 0), size)

    # mirror StoragePath.format_and_preload + DeviceFTL.preload checks;
    # the mapping itself is the identity striping, so no FTL state is
    # materialized (this is where the scalar path spends its preload)
    layout = path.fs.format(file_sizes)
    pb = geom.page_bytes
    need = max(layout.device_bytes, getattr(path.fs, "allocated_bytes", 0))
    if need > device.ftl.n_logical_pages * pb:
        raise BatchUnsupported("layout exceeds device logical space")
    npages = -(-need // pb)
    if npages > device.ftl.n_logical_pages:
        raise BatchUnsupported("preload exceeds logical space")

    per_client_groups = [
        [path.fs.translate(req, client=t.client) for req in t] for t in traces
    ]

    raw_cmds: list[DeviceCommand] = []
    for client_groups in per_client_groups:
        for g in client_groups:
            for c in g.commands:
                if c.op != "read":
                    raise BatchUnsupported(f"{c.op!r} command in stream")
                raw_cmds.append(c)

    n_cmds = len(raw_cmds)
    if n_cmds:
        lba = np.fromiter((c.lba for c in raw_cmds), dtype=np.int64, count=n_cmds)
        nb = np.fromiter((c.nbytes for c in raw_cmds), dtype=np.int64, count=n_cmds)
        first = lba // pb
        last = (lba + nb - 1) // pb
        npp = last - first + 1
        total = int(npp.sum())
        cmd_ord = np.repeat(np.arange(n_cmds, dtype=np.int64), npp)
        starts = np.cumsum(npp) - npp
        lpage = first[cmd_ord] + (np.arange(total, dtype=np.int64) - starts[cmd_ord])
        if total and int(lpage.max()) >= npages:
            # a read of never-preloaded space would cold-adopt a mapping
            # (FTL state mutation) on the scalar path
            raise BatchUnsupported("read outside the pre-staged extent")
        ends = lba + nb
        lo_b = np.maximum(lba[cmd_ord], lpage * pb)
        hi_b = np.minimum(ends[cmd_ord], (lpage + 1) * pb)
        nbytes = hi_b - lo_b
        flat = lpage  # identity striping: map[L] == L for preloaded pages
        # group-id values count in plan order rather than dispatch
        # order; only adjacency equality and sign are metric-visible
        group_ids, _ = plane_groups(
            flat, geom.plane_units, geom.planes_per_die, cmd=cmd_ord
        )
        bounds = np.r_[starts, total]
    else:
        cmd_ord = np.empty(0, dtype=np.int64)
        flat = np.empty(0, dtype=np.int64)
        nbytes = np.empty(0, dtype=np.int64)
        group_ids = np.empty(0, dtype=np.int64)
        bounds = np.zeros(1, dtype=np.int64)
        total = 0

    # rebuild the command groups around planned commands carrying their
    # row slices; group/flow-control structure is untouched
    planned_per_client: list[list[CommandGroup]] = []
    k = 0
    for client_groups in per_client_groups:
        out_groups = []
        for g in client_groups:
            cmds = []
            for c in g.commands:
                cmds.append(
                    PlannedCommand(
                        op=c.op,
                        lba=c.lba,
                        nbytes=c.nbytes,
                        kind=c.kind,
                        barrier=c.barrier,
                        lo=int(bounds[k]),
                        hi=int(bounds[k + 1]),
                    )
                )
                k += 1
            out_groups.append(CommandGroup(posix=g.posix, commands=cmds, client=g.client))
        planned_per_client.append(out_groups)
    groups = (
        planned_per_client[0]
        if len(planned_per_client) == 1
        else _interleave(planned_per_client)
    )

    return CellPlan(
        label=label,
        kind_name=kind_name,
        config=config,
        kind=kind,
        path=path,
        posix_window=workload.posix_window,
        groups=groups,
        n=total,
        flat=flat,
        nbytes=nbytes,
        cmd_ord=cmd_ord,
        group_ids=group_ids,
    )


def stack_plans(plans: list[CellPlan]) -> int:
    """Pre-pass every planned row of the matrix at once.

    Concatenates every planned cell into one (cell x txn) int64 block
    and runs :func:`~repro.ssd.scheduler.prepass` over it with each
    cell's geometry, ladders, bus and host broadcast per row.  Each
    plan receives ``main`` and ``peak`` lane views over its rows.
    Returns the stacked row count.
    """
    if not plans:
        return 0
    ns = np.array([p.n for p in plans], dtype=np.int64)
    total = int(ns.sum())
    cell = np.repeat(np.arange(len(plans), dtype=np.int64), ns)
    flat = np.concatenate([p.flat for p in plans])
    nbytes = np.concatenate([p.nbytes for p in plans])
    group = np.concatenate([p.group_ids for p in plans])
    # a multi-plane pair shares command cycles only within one command
    cmd_key = np.concatenate([p.cmd_ord + i * (1 << 32) for i, p in enumerate(plans)])

    devices = [p.path.device for p in plans]
    media = MediaConsts.stack(
        [MediaConsts.of(d.geom, p.kind) for d, p in zip(devices, plans)], cell
    )
    ppb = np.array([d.geom.pages_per_block for d in devices], dtype=np.int64)[cell]
    pib = (flat // media.U) % ppb
    op = np.full(total, OpCode.READ, dtype=np.int64)  # reads by plan construction
    main_link = Link.stack([Link.of(d.bus, d.host) for d in devices], cell)
    peak_link = Link.of(INFINITE_BUS, INFINITE_HOST)
    main, peak = prepass(
        media, (main_link, peak_link), op, flat, nbytes, group, pib, same_cmd=cmd_key
    )

    offsets = np.cumsum(ns) - ns
    stacked = {"main": main, "peak": peak}
    for p, off, n in zip(plans, offsets.tolist(), ns.tolist()):
        rows = slice(off, off + n)
        p.stacked = stacked
        p.row0 = off
        p.lanes = {name: lane.window(rows) for name, lane in stacked.items()}
    return total
