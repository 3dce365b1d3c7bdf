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
non-FIFO queueing).  ``stack_plans`` then runs the scheduler's own
:func:`~repro.ssd.scheduler.prepass` over each plan in turn, with that
cell's device constants as scalars, and copies only the columns the
lockstep replay reads (:class:`~repro.ssd.scheduler.StepCols`) into
stacked bases preallocated for every plan's rows.
:mod:`repro.batch.scheduler` replays every planned cell in lockstep
over those bases; the row columns the log also needs (op, flat, bytes,
group, page-in-block, plane) stay with the plan, and
:meth:`CellPlan.lane` joins the two for one cell when its log is
assembled.

The plan's row columns and the stacked bases are int32
(:data:`ROW_DTYPE`): ``plan_cell`` refuses a cell any of whose values
could outgrow it, and the replay widens to int64 wherever it sums, so
:meth:`CellPlan.lane` and the log it feeds stay int64.

Two links are pre-passed per cell from the same transaction columns
(:data:`LINKS`):

* ``main`` — the configured bus/host/command-overhead constants,
* ``peak`` — the unconstrained interface
  (:data:`~repro.ssd.scheduler.INFINITE_BUS`,
  :data:`~repro.ssd.scheduler.INFINITE_HOST`, zero command overhead)
  of :func:`repro.experiments.runner._unconstrained_media_peak`,
  reusing the plan instead of re-translating the identical
  deterministic stream.  Its bus, host and command columns are all
  zero, so its base stores none of them: one zero-stride column stands
  for all three.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional

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
    StepCols,
    prepass,
)
from ..trace.replay import _interleave

__all__ = [
    "BatchUnsupported",
    "CellPlan",
    "LINKS",
    "LaneCols",
    "PlannedCommand",
    "ROW_DTYPE",
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


#: the links :func:`stack_plans` pre-passes, in the order of its bases
#: (a lockstep :class:`~repro.ssd.scheduler.Lane`'s ``link``)
LINKS = ("main", "peak")
#: the stacked columns every link shares; the rest of
#: :class:`~repro.ssd.scheduler.StepCols` is per link
_SHARED_COLS = ("unit", "die", "pkg", "chan", "cell_ns")
_LINK_COLS = ("fb", "hb", "cmd")
#: dtype of a plan's row columns and of the stacked bases
ROW_DTYPE = np.int32
_ROW_MAX = int(np.iinfo(ROW_DTYPE).max)
#: the ``peak`` link: no bus, host or command time on any row
_PEAK_LINK = Link.of(INFINITE_BUS, INFINITE_HOST)


@dataclass
class CellPlan:
    """One cell's static replay plan, and its rows of the stacked bases."""

    label: str
    kind_name: str
    config: ExpConfig
    kind: NVMKind
    path: StoragePath
    posix_window: int
    groups: list[CommandGroup]  # planned commands, clients interleaved
    n: int
    #: the row columns, :data:`ROW_DTYPE`
    flat: np.ndarray
    nbytes: np.ndarray
    #: row -> command ordinal within the cell; only the pre-pass reads
    #: it, so :func:`stack_plans` drops it
    cmd_ord: Optional[np.ndarray]
    group_ids: np.ndarray
    #: filled by :func:`stack_plans`: one base per link of :data:`LINKS`,
    #: shared by every plan of the call, this plan's rows
    #: ``row0:row0 + n`` of them
    bases: list[StepCols] = field(default_factory=list)
    row0: int = 0

    def txns(self) -> tuple[np.ndarray, ...]:
        """The pre-pass inputs: op, flat, nbytes, group and page-in-block
        of every row (all reads, by plan construction)."""
        geom = self.path.device.geom
        pib = (self.flat // geom.plane_units) % geom.pages_per_block
        op = np.full(self.n, OpCode.READ, dtype=ROW_DTYPE)
        return op, self.flat, self.nbytes, self.group_ids, pib

    def lane(self, link: str) -> LaneCols:
        """Every pre-passed column of this cell on ``link``, int64: its
        rows of the stacked base, and the row columns rebuilt from the
        plan."""
        base = self.bases[LINKS.index(link)].window(
            slice(self.row0, self.row0 + self.n)
        )
        op, flat, nbytes, group, pib = self.txns()
        plane = base.unit % self.path.device.geom.planes_per_die
        cols = dict(
            vars(base), op=op, flat=flat, nbytes=nbytes, group=group, pib=pib,
            plane=plane,
        )
        return LaneCols(**{name: col.astype(np.int64) for name, col in cols.items()})


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
    pb = geom.page_bytes
    # the longest any row's cell, bus, host or command time can be: a
    # row moves at most one page
    link = Link.of(device.bus, device.host)
    row_ns = max(
        max(kind.read_ladder),
        int(pb * link.bus_ns_per_byte),
        int(pb * link.host_ns_per_byte),
        link.cmd_ns,
    )
    if row_ns > _ROW_MAX:
        raise BatchUnsupported(f"a row's {row_ns} ns exceed the int32 bases")

    traces = workload.traces(path.clients)
    file_sizes: dict[int, int] = {}
    for t in traces:
        for fid, size in t.file_sizes().items():
            file_sizes[fid] = max(file_sizes.get(fid, 0), size)

    # mirror StoragePath.format_and_preload + DeviceFTL.preload checks;
    # the mapping itself is the identity striping, so no FTL state is
    # materialized (this is where the scalar path spends its preload)
    layout = path.fs.format(file_sizes)
    need = max(layout.device_bytes, getattr(path.fs, "allocated_bytes", 0))
    if need > device.ftl.n_logical_pages * pb:
        raise BatchUnsupported("layout exceeds device logical space")
    npages = -(-need // pb)
    if npages > device.ftl.n_logical_pages:
        raise BatchUnsupported("preload exceeds logical space")
    if npages > _ROW_MAX:
        raise BatchUnsupported("page numbers exceed the int32 row columns")

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
        if total > _ROW_MAX:
            raise BatchUnsupported("row count exceeds the int32 row columns")
        cmd_ord = np.repeat(np.arange(n_cmds, dtype=ROW_DTYPE), npp)
        starts = np.cumsum(npp) - npp
        lpage = first[cmd_ord] + (np.arange(total, dtype=np.int64) - starts[cmd_ord])
        if total and int(lpage.max()) >= npages:
            # a read of never-preloaded space would cold-adopt a mapping
            # (FTL state mutation) on the scalar path
            raise BatchUnsupported("read outside the pre-staged extent")
        ends = lba + nb
        lo_b = np.maximum(lba[cmd_ord], lpage * pb)
        hi_b = np.minimum(ends[cmd_ord], (lpage + 1) * pb)
        nbytes = (hi_b - lo_b).astype(ROW_DTYPE)
        # group-id values count in plan order rather than dispatch
        # order; only adjacency equality and sign are metric-visible
        group_ids, _ = plane_groups(
            lpage, geom.plane_units, geom.planes_per_die, cmd=cmd_ord
        )
        group_ids = group_ids.astype(ROW_DTYPE)
        # identity striping: map[L] == L for preloaded pages
        flat = lpage.astype(ROW_DTYPE)
        bounds = np.r_[starts, total]
    else:
        cmd_ord = flat = nbytes = group_ids = np.empty(0, dtype=ROW_DTYPE)
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
    """Pre-pass every plan into the stacked bases the lockstep reads.

    Each plan is pre-passed on its own, with its device's constants as
    scalars, on every link of :data:`LINKS`; only the result's
    :class:`~repro.ssd.scheduler.StepCols` are copied, into
    :data:`ROW_DTYPE` columns preallocated for every plan's rows, so no
    whole-matrix temporary exists beside the bases.  The ``peak`` link's
    bus, host and command columns are one shared zero-stride column;
    each plan's pre-pass on it must be zero.  Each plan receives the
    bases and its first row in them, and drops its ``cmd_ord``.  Returns
    the stacked row count.
    """
    total = sum(p.n for p in plans)
    shared = {name: np.empty(total, dtype=ROW_DTYPE) for name in _SHARED_COLS}
    main = StepCols(
        **shared, **{name: np.empty(total, dtype=ROW_DTYPE) for name in _LINK_COLS}
    )
    zero = np.broadcast_to(np.zeros(1, dtype=ROW_DTYPE), (total,))
    peak = StepCols(**shared, **dict.fromkeys(_LINK_COLS, zero))
    bases = [main, peak]
    row0 = 0
    for p in plans:
        device = p.path.device
        cols, peak_cols = prepass(
            MediaConsts.of(device.geom, p.kind),
            (Link.of(device.bus, device.host), _PEAK_LINK),
            *p.txns(),
            # a multi-plane pair shares command cycles only within one
            # command
            same_cmd=p.cmd_ord,
        )
        if any(getattr(peak_cols, name).any() for name in _LINK_COLS):
            raise ValueError(f"{p.label}|{p.kind_name}: peak link pre-pass not zero")
        rows = slice(row0, row0 + p.n)
        for f in fields(StepCols):
            getattr(main, f.name)[rows] = getattr(cols, f.name)
        p.bases, p.row0, p.cmd_ord = bases, row0, None
        row0 += p.n
    return total
