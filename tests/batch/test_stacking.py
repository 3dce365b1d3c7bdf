"""``stack_plans``: per-cell step inputs stacked for the lockstep.

* Every cell's lanes (:meth:`~repro.batch.plan.CellPlan.lane`) and its
  rows of the stacked inputs equal its rows of the whole-matrix
  broadcast pre-pass (:mod:`tests.oracles.stacked_prepass`) column for
  column, on every Table-2 cell — thirteen geometries and interfaces,
  four media; the log assembled from a lane is int64 and equals the
  one assembled from the lane widened to int64.
* The stacked inputs are three narrow columns — the plane unit
  (uint16), the cell time (int32) and a one-byte command-sharing flag —
  beside one stacked payload column the plans view; no link has a
  column of its own.
* Stacking a many-cell matrix allocates little beyond those columns:
  at most a small multiple of one cell's step inputs.
* A cell whose per-row nanoseconds could outgrow int32 is refused
  before it is stacked.
* A peak link with bus, host and command time, which the stacked
  inputs carry no column for, replays bit-identically to the scalar
  :func:`~repro.ssd.scheduler.recurrence` over the cell's pre-pass.
"""

from __future__ import annotations

import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest

import repro.batch.plan as plan_mod
import repro.ssd.scheduler as kernel_mod
from repro.batch.plan import LINKS, BatchUnsupported, plan_cell, stack_plans
from repro.batch.scheduler import CommandTrace, planned_commands, replay_plans
from repro.experiments.configs import TABLE2_CONFIGS
from repro.experiments.runner import Workload
from repro.interconnect import HostPath
from repro.nvm.kinds import KINDS, kind_by_name
from repro.ssd.scheduler import (
    INFINITE_HOST,
    LOG_COLUMNS,
    Lane,
    LaneCols,
    Link,
    MediaConsts,
    Resources,
    StepCols,
    assemble_log,
    lockstep,
    recurrence,
    step_cols,
)
from tests.oracles.stacked_prepass import broadcast_prepass

KiB = 1024
MiB = 1024 * KiB
TINY = Workload(panels=2, panel_bytes=256 * KiB)
SEED = 1013
CELLS = [(c.label, k.name) for c in TABLE2_CONFIGS for k in KINDS]
#: the stacked columns and their dtypes; ``nbytes`` is the plans' own
#: payload column, stacked once and viewed by every plan
STACKED = {"unit": np.uint16, "cell_ns": np.int32, "shared": np.bool_}
#: bytes a row adds to the stacking, beyond the payload
STACKED_BYTES_PER_ROW = 7


def _plans(workload):
    return [plan_cell(label, kind, workload, SEED) for label, kind in CELLS]


def test_cell_lanes_equal_the_broadcast_prepass():
    plans = _plans(TINY)
    want = broadcast_prepass(plans)
    assert stack_plans(plans) == len(want[0].op) == sum(p.n for p in plans)
    inputs = plans[0].inputs
    for p in plans:
        rows = slice(p.row0, p.row0 + p.n)
        # the stacked inputs, which every link shares
        for f in dataclasses.fields(StepCols):
            got = getattr(inputs, f.name)[rows]
            assert np.array_equal(got, getattr(want[0], f.name)[rows]), (
                p.label, p.kind_name, f.name,
            )
        for link, lane in zip(LINKS, want):
            got = p.lane(link)
            for f in dataclasses.fields(LaneCols):
                col = getattr(lane, f.name)[rows]
                assert np.array_equal(getattr(got, f.name), col), (
                    p.label, p.kind_name, link, f.name,
                )


def test_log_of_an_int32_lane_equals_the_widened_lanes():
    plans = _plans(TINY)
    stack_plans(plans)
    mains, _ = replay_plans(plans, [False] * len(plans))
    for p, main in zip(plans, mains):
        lane = p.lane("main")
        assert lane.flat.dtype == lane.nbytes.dtype == np.int32
        wide = LaneCols(**{
            f.name: getattr(lane, f.name).astype(np.int64)
            for f in dataclasses.fields(LaneCols)
        })
        got = assemble_log(lane, main.meta, main.ends)
        want = assemble_log(wide, main.meta, main.ends)
        for name in LOG_COLUMNS:
            assert got[name].dtype == np.int64, (p.label, name)
            assert np.array_equal(got[name], want[name]), (p.label, p.kind_name, name)


def test_stacked_inputs_are_three_narrow_columns():
    """What the lockstep reads of the matrix: a re-added column (a
    per-link time, a decoded id, a command key) or a widened one fails."""
    plans = _plans(TINY)
    total = stack_plans(plans)
    inputs = plans[0].inputs
    assert type(inputs) is StepCols and all(p.inputs is inputs for p in plans)
    assert [f.name for f in dataclasses.fields(StepCols)] == [*STACKED, "nbytes"]
    for name, dtype in {**STACKED, "nbytes": np.int32}.items():
        col = getattr(inputs, name)
        assert col.dtype == dtype and col.shape == (total,), name
        assert col.flags.c_contiguous and col.flags.owndata, name
    assert sum(np.dtype(d).itemsize for d in STACKED.values()) == STACKED_BYTES_PER_ROW
    # each plan's payloads are its rows of the stacked column, and the
    # plan keeps no other per-row column than the log needs
    for p in plans:
        assert p.nbytes.base is inputs.nbytes
        assert np.shares_memory(p.nbytes, inputs.nbytes[p.row0 : p.row0 + p.n])
        arrays = {k for k, v in vars(p).items() if isinstance(v, np.ndarray)}
        assert arrays == {"flat", "nbytes", "group_ids"}, (p.label, arrays)


def _step_bytes(plan) -> int:
    """Bytes of one cell's step inputs and the row columns they come from."""
    device = plan.path.device
    txns = plan.txns()
    cols = step_cols(MediaConsts.of(device.geom, plan.kind), *txns)
    arrays = {id(c): c for c in (*txns, *vars(cols).values())}
    return sum(c.nbytes for c in arrays.values())


def test_stacking_transient_is_one_cells_prepass():
    """Tracing ``stack_plans`` over the whole matrix: it keeps the three
    stacked columns and the stacked payloads, and its peak exceeds them
    by at most twice the largest cell's step inputs, so nothing of
    whole-matrix size is built beside them."""
    plans = _plans(Workload(panels=2, panel_bytes=2 * MiB))
    largest = max(_step_bytes(p) for p in plans)
    rows = [p.n for p in plans]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        stack_plans(plans)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    inputs = plans[0].inputs
    kept = sum(getattr(inputs, f.name).nbytes for f in dataclasses.fields(StepCols))
    # the matrix dwarfs its largest cell
    assert len(plans) == 52 and sum(rows) > 10 * max(rows)
    assert kept == sum(rows) * (STACKED_BYTES_PER_ROW + np.dtype(np.int32).itemsize)
    assert peak - before <= kept + 2 * largest, (peak - before, kept, largest)


def test_cell_whose_row_ns_outgrow_int32_is_refused(monkeypatch):
    """A read sense of 2**31 ns fits no int32 column: ``plan_cell``
    refuses the cell, which the batch backend then runs on the scalar
    path; one nanosecond less is planned and stacked."""
    slc = kind_by_name("SLC")

    def kind_sensing(ns):
        kind = dataclasses.replace(slc, read_ladder=(ns,) * len(slc.read_ladder))
        monkeypatch.setattr(plan_mod, "kind_by_name", lambda name: kind)

    kind_sensing(2**31)
    with pytest.raises(BatchUnsupported, match="int32"):
        plan_cell("CNL-EXT4", "SLC", TINY, SEED)
    kind_sensing(2**31 - 1)
    plan = plan_cell("CNL-EXT4", "SLC", TINY, SEED)
    stack_plans([plan])
    cell_ns = plan.inputs.cell_ns
    assert cell_ns.dtype == np.int32 and int(cell_ns.max()) == 2**31 - 1


def test_a_peak_link_with_bus_time_replays_like_the_recurrence(monkeypatch):
    """The stacked inputs have no bus, host or command column: a peak
    link that pays all three is derived per step, and the lane's
    interval ends and completion equal the scalar recurrence over the
    cell's pre-pass on that link, command by command."""
    plan = plan_cell("CNL-EXT4", "SLC", TINY, SEED)
    device = plan.path.device
    slow = HostPath(name="slow", bytes_per_sec=5e8, per_request_ns=0)
    monkeypatch.setattr(plan_mod, "_PEAK_LINK", Link.of(device.bus, slow))
    stack_plans([plan])
    cols = plan.lane("peak")
    assert cols.fb.any() and cols.hb.any() and cols.cmd.any()

    trace, got = CommandTrace(), []
    lane = Lane(
        device.geom, plan.link("peak"), plan.row0, plan.n,
        planned_commands(
            plan.groups, plan.posix_window, INFINITE_HOST.per_request_ns,
            device.readahead_bytes, trace,
        ),
        got.append,
    )
    with mock.patch.object(kernel_mod, "BREAK_EVEN_ROWS", 1):  # every row on the kernel
        lockstep(plan.inputs, [lane])

    res, lists = Resources(device.geom), cols.lists()
    out = [[0] * plan.n for _ in range(4)]
    at, last_done = 0, 0
    for _, _, _, arrival, lo, hi in trace.meta:
        last_done = max(last_done, recurrence(lists, lo, hi, arrival, res, out, at))
        at += hi - lo
    assert at == plan.n and last_done == trace.last_done
    (ends,) = got
    for end, want in zip(ends, out):
        assert np.array_equal(end, want)
    # the backend's peak lane reads the same link
    _, (peak_mb,) = replay_plans([plan], [True])
    assert peak_mb == trace.aggregate_mb(plan.nbytes)
