"""``stack_plans``: per-cell pre-pass into the lockstep's stacked bases.

* Every cell's lanes (:meth:`~repro.batch.plan.CellPlan.lane`) are
  int64 and equal its rows of the whole-matrix broadcast pre-pass
  (:mod:`tests.oracles.stacked_prepass`) column for column, on every
  Table-2 cell — thirteen geometries and interfaces, four media.
* The stacked bases hold only what the lockstep replay reads, as
  int32, and the ``peak`` link's all-zero bus, host and command columns
  are one zero-stride column.
* Stacking a many-cell matrix allocates little beyond the bases it
  returns: at most a small multiple of one cell's pre-pass.
* A cell whose per-row nanoseconds could outgrow int32 is refused
  before it is stacked.
"""

from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest

import repro.batch.plan as plan_mod
from repro.batch.plan import LINKS, BatchUnsupported, plan_cell, stack_plans
from repro.experiments.configs import TABLE2_CONFIGS
from repro.experiments.runner import Workload
from repro.nvm.kinds import KINDS, kind_by_name
from repro.ssd.scheduler import (
    INFINITE_BUS,
    INFINITE_HOST,
    LaneCols,
    Link,
    MediaConsts,
    StepCols,
    prepass,
)
from tests.oracles.stacked_prepass import broadcast_prepass

KiB = 1024
MiB = 1024 * KiB
TINY = Workload(panels=2, panel_bytes=256 * KiB)
SEED = 1013
CELLS = [(c.label, k.name) for c in TABLE2_CONFIGS for k in KINDS]


def _plans(workload):
    return [plan_cell(label, kind, workload, SEED) for label, kind in CELLS]


def test_cell_lanes_equal_the_broadcast_prepass():
    plans = _plans(TINY)
    want = broadcast_prepass(plans)
    assert stack_plans(plans) == len(want[0].op) == sum(p.n for p in plans)
    for p in plans:
        rows = slice(p.row0, p.row0 + p.n)
        for link, lane in zip(LINKS, want):
            got = p.lane(link)
            for f in dataclasses.fields(LaneCols):
                col = getattr(got, f.name)
                assert col.dtype == np.int64, (p.label, link, f.name)
                assert np.array_equal(col, getattr(lane, f.name)[rows]), (
                    p.label, p.kind_name, link, f.name,
                )


def test_bases_hold_only_what_the_lockstep_reads():
    plans = _plans(TINY)
    stack_plans(plans)
    bases = plans[0].bases
    assert len(bases) == len(LINKS)
    assert all(type(b) is StepCols and p.bases is bases for b in bases for p in plans)
    assert {f.name for f in dataclasses.fields(StepCols)} == {
        "unit", "die", "pkg", "chan", "cell_ns", "fb", "hb", "cmd",
    }
    main, peak = bases
    # the links share the decode and latency columns
    for name in ("unit", "die", "pkg", "chan", "cell_ns"):
        assert getattr(main, name) is getattr(peak, name)
    assert all(p.cmd_ord is None for p in plans)
    for base in bases:
        for f in dataclasses.fields(StepCols):
            assert getattr(base, f.name).dtype == np.int32, f.name
    # the unconstrained link stores no bus, host or command column
    zero = peak.fb
    assert peak.hb is zero and peak.cmd is zero
    assert zero.strides == (0,) and len(zero) == len(main.fb)
    assert not zero.any()
    assert {main.fb.strides, main.hb.strides, main.cmd.strides} == {(4,)}


def _prepass_bytes(plan) -> int:
    """Bytes of the columns one cell's pre-pass returns on both links."""
    device = plan.path.device
    lanes = prepass(
        MediaConsts.of(device.geom, plan.kind),
        (Link.of(device.bus, device.host), Link.of(INFINITE_BUS, INFINITE_HOST)),
        *plan.txns(),
        same_cmd=plan.cmd_ord,
    )
    cols = {id(c): c for lane in lanes for c in vars(lane).values()}
    return sum(c.nbytes for c in cols.values())


def _owned_bytes(col: np.ndarray) -> int:
    """Memory behind a column: one element for a zero-stride one."""
    return col.nbytes if col.strides[0] else col.itemsize


def test_stacking_transient_is_one_cells_prepass():
    """Tracing ``stack_plans`` over the whole matrix: its peak exceeds
    the bases it keeps by at most twice the largest cell's pre-pass, so
    nothing of whole-matrix size is built beside the bases."""
    plans = _plans(Workload(panels=2, panel_bytes=2 * MiB))
    largest = max(_prepass_bytes(p) for p in plans)
    rows = [p.n for p in plans]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        stack_plans(plans)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    cols = {id(c): c for base in plans[0].bases for c in vars(base).values()}
    kept = sum(_owned_bytes(c) for c in cols.values())
    # the matrix dwarfs its largest cell
    assert len(plans) == 52 and sum(rows) > 10 * max(rows)
    assert peak - before <= kept + 2 * largest, (peak - before, kept, largest)


def test_cell_whose_row_ns_outgrow_int32_is_refused(monkeypatch):
    """A read sense of 2**31 ns fits no int32 base: ``plan_cell`` refuses
    the cell, which the batch backend then runs on the scalar path; one
    nanosecond less is planned and stacked."""
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
    assert int(plan.lane("main").cell_ns.max()) == 2**31 - 1


def test_a_peak_link_with_bus_time_is_refused(monkeypatch):
    """The peak base has no bus, host or command column to store into:
    a plan whose peak pre-pass is not all zeros stops the stacking."""
    plan = plan_cell("CNL-EXT4", "SLC", TINY, SEED)
    device = plan.path.device
    monkeypatch.setattr(plan_mod, "_PEAK_LINK", Link.of(device.bus, INFINITE_HOST))
    with pytest.raises(ValueError, match="peak link"):
        stack_plans([plan])
