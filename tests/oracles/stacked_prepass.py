"""The whole-matrix pre-pass as one call, device constants per row.

:func:`repro.batch.plan.stack_plans` pre-passes one planned cell at a
time with that cell's constants as scalars.  This oracle computes the
same columns the direct way over the whole matrix at once: every
cell's rows concatenated, each cell's geometry, latency ladders, bus
and host broadcast to one value per row, one decode, one ladder lookup
in the concatenated tables and one command-sharing mask keyed by
(cell, command).  Each plan's lanes (:meth:`CellPlan.lane`) must equal
its rows of this pre-pass column for column.  It holds a dozen per-row
constants and every column of the matrix at once, the transient the
per-cell pre-pass exists to avoid.  It widens the plans' int32 row
columns to int64 before any arithmetic, so its columns are int64
throughout and owe nothing to the planner's narrowing.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.batch.plan import CellPlan
from repro.ssd.request import OpCode
from repro.ssd.scheduler import INFINITE_BUS, INFINITE_HOST, LaneCols

__all__ = ["broadcast_prepass"]


def broadcast_prepass(plans: Sequence[CellPlan]) -> tuple[LaneCols, LaneCols]:
    """The ``main`` and ``peak`` lanes of every row of ``plans``, in plan
    order.  Reads the plans' ``cmd_ord``, so it runs before
    :func:`~repro.batch.plan.stack_plans` drops it."""
    ns = np.array([p.n for p in plans], dtype=np.int64)
    cell = np.repeat(np.arange(len(plans), dtype=np.int64), ns)
    devices = [p.path.device for p in plans]

    def per_row(values) -> np.ndarray:
        return np.asarray(list(values))[cell]

    U = per_row(d.geom.plane_units for d in devices)
    P = per_row(d.geom.planes_per_die for d in devices)
    C = per_row(d.geom.channels for d in devices)
    D = per_row(d.geom.dies_per_package for d in devices)
    K = per_row(d.geom.packages_per_channel for d in devices)
    ppb = per_row(d.geom.pages_per_block for d in devices)

    def stacked(name: str) -> np.ndarray:
        return np.concatenate([getattr(p, name) for p in plans]).astype(np.int64)

    flat = stacked("flat")
    nbytes = stacked("nbytes")
    group = stacked("group_ids")
    cmd_key = stacked("cmd_ord") + cell * (1 << 32)
    op = np.full(len(flat), OpCode.READ, dtype=np.int64)
    pib = (flat // U) % ppb

    u = flat % U
    plane = u % P
    rest = u // P
    chan = rest % C
    rest = rest // C
    pkg = rest // D + K * chan
    die = rest % D + D * pkg

    # (read ladder, program ladder, erase time) of every cell, one table;
    # a row reads its cell's entry for its op at ``pib`` modulo the length
    tables = [
        (p.kind.read_ladder, p.kind.program_ladder, (p.kind.erase_ns,)) for p in plans
    ]
    lat = np.asarray([t for parts in tables for part in parts for t in part], dtype=np.int64)
    lens = np.asarray([len(part) for parts in tables for part in parts], dtype=np.int64)
    bases = np.cumsum(lens) - lens
    key = cell * len(OpCode.NAMES) + op
    cell_ns = lat[bases[key] + pib % lens[key]]

    shared = np.zeros(len(op), dtype=bool)
    if len(op) > 1:
        shared[1:] = (
            (group[1:] >= 0) & (group[1:] == group[:-1]) & (cmd_key[1:] == cmd_key[:-1])
        )

    links = [
        (
            per_row(1e9 / d.bus.bytes_per_sec for d in devices),
            per_row(1e9 / d.host.bytes_per_sec for d in devices),
            per_row(d.bus.cmd_ns for d in devices),
        ),
        (
            1e9 / INFINITE_BUS.bytes_per_sec,
            1e9 / INFINITE_HOST.bytes_per_sec,
            INFINITE_BUS.cmd_ns,
        ),
    ]
    main, peak = (
        LaneCols(
            op=op, flat=flat, nbytes=nbytes, group=group, pib=pib, unit=u,
            plane=plane, chan=chan, pkg=pkg, die=die, cell_ns=cell_ns,
            fb=(nbytes * bus).astype(np.int64),
            hb=(nbytes * host).astype(np.int64),
            cmd=np.where(shared, 0, cmd_ns),
        )
        for bus, host, cmd_ns in links
    )
    return main, peak
