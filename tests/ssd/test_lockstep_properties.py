"""Property tests: the block kernel and the lockstep replay.

* :func:`~repro.ssd.scheduler.block_ends` finds each row's longest
  run of distinct plane units.
* :func:`~repro.ssd.scheduler.block_recurrence`, stepping several
  lanes of different geometries one block each, must give every READ
  row the interval ends the scalar
  :func:`~repro.ssd.scheduler.recurrence` gives it, and every command
  the same completion — on random streams with repeated pages,
  multi-plane pairs, commands longer than the device has plane units
  and arbitrary arrivals.  Merging two of the kernel's key segments
  must break that.  Given int32 columns, it sums in int64.
* :func:`~repro.ssd.scheduler.lockstep` over random multi-client
  command groups (posix windows, readahead limits, barriers, empty
  commands) on two interfaces at once must give each lane the log
  ``SSDevice.run`` gives it alone, wherever the narrow-step switch to
  the scalar recurrence falls; over int32 copies of its bases, as the
  batch planner stacks them, it must give what the int64 bases give.
"""

from __future__ import annotations

import dataclasses
import itertools
from unittest import mock

import numpy as np
from hypothesis import find, given, settings
from hypothesis import strategies as st

import repro.ssd.scheduler as kernel_mod
from repro.batch.plan import PlannedCommand
from repro.batch.scheduler import CommandTrace, planned_commands
from repro.interconnect import HostPath
from repro.nvm import DDR800, ONFI3_SDR400, PCM, SLC, TLC
from repro.nvm.bus import BusSpec
from repro.ssd import CommandGroup, Geometry, OpCode, PosixRequest, SSDevice
from repro.ssd.scheduler import (
    KIND_CODES,
    LOG_COLUMNS,
    FlatResources,
    Lane,
    LaneCols,
    Link,
    MediaConsts,
    Resources,
    StepCols,
    assemble_log,
    block_ends,
    block_recurrence,
    lockstep,
    prepass,
    recurrence,
)
from tests.oracles.planned_ftl import PlannedFTL

BUSES = (ONFI3_SDR400, DDR800, BusSpec(name="slow", mhz=50, ddr=False, cmd_ns=900))


@st.composite
def geometries(draw):
    return Geometry(
        kind=draw(st.sampled_from((SLC, TLC, PCM))),
        channels=draw(st.integers(1, 3)),
        packages_per_channel=draw(st.integers(1, 3)),
        dies_per_package=draw(st.integers(1, 2)),
        planes_per_die=draw(st.integers(1, 2)),
        blocks_per_plane=draw(st.integers(1, 4)),
    )


@st.composite
def links(draw):
    host = HostPath(
        name="h",
        bytes_per_sec=draw(st.sampled_from((5e7, 2e9, 1e12))),
        per_request_ns=draw(st.sampled_from((0, 1_500))),
    )
    return draw(st.sampled_from(BUSES)), host


@st.composite
def read_rows(draw, geom: Geometry, n: int):
    """``n`` READ rows (op, flat, nbytes, group, pib) over a page pool
    small enough to repeat plane units and pages; runs of rows share
    a group id, and ids repeat freely."""
    pool = draw(st.integers(0, 2 * geom.plane_units))
    rows = []
    while len(rows) < n:
        group = draw(st.sampled_from((-1, 0, 1, 2)))
        for _ in range(min(n - len(rows), draw(st.integers(1, 3)))):
            rows.append((
                OpCode.READ,
                draw(st.integers(0, pool)),
                draw(st.integers(1, geom.page_bytes)),
                group,
                draw(st.integers(0, 3 * geom.pages_per_block)),
            ))
    return np.asarray(rows, dtype=np.int64).reshape(n, 5)


@st.composite
def read_lanes(draw):
    """1-3 lanes: (geom, lane columns, command bounds, arrivals)."""
    lanes = []
    for _ in range(draw(st.integers(1, 3))):
        geom = draw(geometries())
        bus, host = draw(links())
        # up to three times the plane units: commands outgrow a block
        n = draw(st.integers(1, 3 * geom.plane_units + 4))
        rows = draw(read_rows(geom, n))
        cuts = draw(st.sets(st.integers(1, n - 1), max_size=6)) if n > 1 else set()
        bounds = [0, *sorted(cuts), n]
        cmd_of_row = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
        (cols,) = prepass(
            MediaConsts.of(geom, geom.kind), (Link.of(bus, host),), *rows.T,
            same_cmd=cmd_of_row,
        )
        arrivals = [draw(st.integers(0, 2_000_000)) for _ in bounds[1:]]
        lanes.append((geom, cols, bounds, arrivals))
    return lanes


def _scalar(geom, cols, bounds, arrivals):
    res = Resources(geom)
    n = bounds[-1]
    out = [[0] * n for _ in range(8)]
    lists = cols.lists()
    done = [
        recurrence(lists, lo, hi, arrival, res, out, lo)
        for lo, hi, arrival in zip(bounds[:-1], bounds[1:], arrivals)
    ]
    return [np.array(col, dtype=np.int64) for col in out[1::2]], done


def _stepped(lanes):
    """Every lane one block per step, all lanes in one kernel call."""
    res = FlatResources([geom for geom, *_ in lanes])
    block_end = [block_ends(cols.unit) for _, cols, *_ in lanes]
    ends = [np.zeros((4, cols.unit.size), dtype=np.int64) for _, cols, *_ in lanes]
    done = [[] for _ in lanes]
    cursor = [[0, 0, arrivals[0]] for *_, arrivals in lanes]  # command, row, completion
    while True:
        step = []
        for k, (geom, cols, bounds, arrivals) in enumerate(lanes):
            c, s, _ = cursor[k]
            if c < len(arrivals):
                step.append((k, s, min(int(block_end[k][s]), bounds[c + 1])))
        if not step:
            return ends, done
        idx = [np.arange(s, e) for _, s, e in step]
        col = lambda name: np.concatenate(  # noqa: E731
            [getattr(lanes[k][1], name)[i] for (k, _, _), i in zip(step, idx)]
        )
        out = block_recurrence(
            res,
            np.concatenate([np.full(e - s, lanes[k][3][cursor[k][0]]) for k, s, e in step]),
            np.array([k for k, _, _ in step]),
            np.array([e - s for _, s, e in step]),
            *(col(name) for name in
              ("unit", "die", "pkg", "chan", "cell_ns", "fb", "hb", "cmd")),
        )
        at = 0
        for k, s, e in step:
            ends[k][:, s:e] = [vals[at : at + e - s] for vals in out]
            at += e - s
            bounds, arrivals = lanes[k][2], lanes[k][3]
            cur = cursor[k]
            cur[1], cur[2] = e, max(cur[2], int(ends[k][3, e - 1]))
            if e == bounds[cur[0] + 1]:
                done[k].append(cur[2])
                cur[0] += 1
                if cur[0] < len(arrivals):
                    cur[2] = arrivals[cur[0]]


def _kernel_matches_recurrence(lanes) -> bool:
    ends, done = _stepped(lanes)
    for (geom, cols, bounds, arrivals), got, got_done in zip(lanes, ends, done):
        want, want_done = _scalar(geom, cols, bounds, arrivals)
        if got_done != want_done or not all(
            np.array_equal(g, w) for g, w in zip(got, want)
        ):
            return False
    return True


@given(units=st.lists(st.integers(0, 6), max_size=40))
def test_block_ends_are_the_longest_distinct_runs(units):
    def run_end(i):
        j = i
        while j < len(units) and units[j] not in units[i:j]:
            j += 1
        return j

    got = block_ends(np.asarray(units, dtype=np.int64)).tolist()
    assert got == [run_end(i) for i in range(len(units))]


@given(lanes=read_lanes())
@settings(max_examples=150, deadline=None)
def test_block_kernel_matches_recurrence(lanes):
    assert _kernel_matches_recurrence(lanes)


def test_block_kernel_sums_int32_columns_in_int64():
    """Every duration is 2**31 - 1: each end overflows an int32 sum, and
    the command cycles plus data beats of one row already do."""
    geom = Geometry(
        kind=SLC, channels=1, packages_per_channel=1, dies_per_package=1,
        planes_per_die=2, blocks_per_plane=1,
    )
    big = np.full(2, 2**31 - 1, dtype=np.int64)
    ids = np.zeros(2, dtype=np.int64)
    cols = dict(
        unit=np.arange(2), die=ids, pkg=ids, chan=ids,
        cell_ns=big, fb=big, hb=big, cmd=big,
    )

    def ends(dtype):
        return block_recurrence(
            FlatResources([geom]), np.zeros(2, dtype=np.int64), np.array([0]),
            np.array([2]), **{name: col.astype(dtype) for name, col in cols.items()},
        )

    want = ends(np.int64)
    assert int(want[3][-1]) > 2**33
    for got, w in zip(ends(np.int32), want):
        assert got.dtype == np.int64 and np.array_equal(got, w)


def test_dropping_a_segment_boundary_fails_the_property():
    """Planted mutation: the kernel's scan merges its last two keys."""
    scan = kernel_mod._scan

    def merged(x, b, k, free):
        change = np.flatnonzero(k[1:] != k[:-1])
        if change.size:
            k = k.copy()
            k[change[-1] + 1 :] = k[change[-1]]
        return scan(x, b, k, free)

    with mock.patch.object(kernel_mod, "_scan", merged):
        find(
            read_lanes(),
            lambda lanes: not _kernel_matches_recurrence(lanes),
            settings=settings(max_examples=300, database=None),
        )


# ----------------------------------------------------------------------
@st.composite
def planned_devices(draw):
    """1-3 devices of planned READ command groups, pre-passed device by
    device on two interfaces and stacked like
    :func:`repro.batch.plan.stack_plans` (the interfaces share the
    decode and latency columns)."""
    devices = []
    for d in range(draw(st.integers(1, 3))):
        geom = draw(geometries())
        groups, rows, cmd_ord = [], [], []
        for client in range(draw(st.integers(1, 2))):
            for g in range(draw(st.integers(1, 3))):
                cmds = []
                for _ in range(draw(st.integers(1, 3))):
                    n = draw(st.integers(0, geom.plane_units + 2))
                    lo = len(cmd_ord)
                    if n:
                        rows.append(draw(read_rows(geom, n)))
                        cmd_ord += [lo] * n  # one key per command
                    cmds.append(PlannedCommand(
                        op="read", lba=0,
                        nbytes=draw(st.integers(1, 8 * geom.page_bytes)),
                        kind=draw(st.sampled_from(sorted(KIND_CODES))),
                        barrier=draw(st.booleans()),
                        lo=lo, hi=lo + n,
                    ))
                posix = PosixRequest(
                    "read", client, 0, 1, t_issue_ns=draw(st.integers(0, 500_000))
                )
                groups.append(CommandGroup(posix=posix, commands=cmds, client=client))
        devices.append(dict(
            geom=geom,
            groups=groups,
            n=len(cmd_ord),
            rows=np.concatenate(rows) if rows else np.zeros((0, 5), dtype=np.int64),
            cmd_ord=np.asarray(cmd_ord, dtype=np.int64),
            links=[draw(links()), draw(links())],
            overhead=draw(st.sampled_from((0, 5_000))),
            readahead=draw(st.sampled_from((None, 4096, 65536))),
            window=draw(st.integers(1, 3)),
            record=[draw(st.booleans()), draw(st.booleans())],
        ))
    lanes = [
        prepass(
            MediaConsts.of(d["geom"], d["geom"].kind),
            [Link.of(*link) for link in d["links"]],
            *d.pop("rows").T,
            same_cmd=d.pop("cmd_ord"),
        )
        for d in devices
    ]

    def stacked(j, name):
        return np.concatenate([getattr(dev[j], name) for dev in lanes])

    shared = {name: stacked(0, name) for name in ("unit", "die", "pkg", "chan", "cell_ns")}
    bases = [
        LaneCols(**shared, **{
            f.name: stacked(j, f.name) for f in dataclasses.fields(LaneCols)
            if f.name not in shared
        })
        for j in (0, 1)
    ]
    return devices, bases


def _device_run(d, link, lane_cols):
    bus, host = d["links"][link]
    geom = d["geom"]
    device = SSDevice(
        geom, bus, host, logical_bytes=geom.capacity_bytes // 2,
        readahead_bytes=d["readahead"], command_overhead_ns=d["overhead"],
    )
    device.ftl = PlannedFTL(device.ftl.n_logical_pages, geom.page_bytes, lane_cols)
    return device.run(d["groups"], posix_window=d["window"]).log


class SwitchAt:
    """Stands in for ``BREAK_EVEN_ROWS``: the ``j``-th width check (the
    up-front one first) sends every remaining lane to the scalar path."""

    def __init__(self, j: int):
        self.j = j
        self.checks = 0

    def _switch(self) -> bool:
        self.checks += 1
        return self.checks > self.j

    def __le__(self, width) -> bool:  # ``width >= BREAK_EVEN_ROWS``
        return not self._switch()

    def __gt__(self, width) -> bool:  # ``width < BREAK_EVEN_ROWS``
        return self._switch()


def _planned_lanes(devices, offsets):
    """A fresh command trace and lockstep lane per device and link."""
    traces, lanes = {}, {}
    for (i, d), lo in zip(enumerate(devices), offsets):
        for link in (0, 1):
            bus, host = d["links"][link]
            trace = traces[i, link] = CommandTrace()
            lanes[i, link] = Lane(
                d["geom"], link, lo, d["n"],
                planned_commands(
                    d["groups"], d["window"], host.per_request_ns + d["overhead"],
                    d["readahead"], trace,
                ),
                record=d["record"][link],
            )
    return traces, lanes


@given(run=planned_devices())
@settings(max_examples=40, deadline=None)
def test_lockstep_matches_per_lane_device_runs(run):
    devices, bases = run
    offsets = np.cumsum([0] + [d["n"] for d in devices]).tolist()
    want = {
        (i, link): _device_run(d, link, bases[link].window(slice(lo, lo + d["n"])))
        for (i, d), lo in zip(enumerate(devices), offsets)
        for link in (0, 1)
    }
    for j in itertools.count():
        switch = SwitchAt(j)
        traces, lanes = _planned_lanes(devices, offsets)
        with mock.patch.object(kernel_mod, "BREAK_EVEN_ROWS", switch):
            lockstep(bases, list(lanes.values()))
        for (i, link), log in want.items():
            d, trace, lane = devices[i], traces[i, link], lanes[i, link]
            assert trace.last_done == (int(log["done"].max()) if len(log) else 0)
            if lane.record:
                got = assemble_log(
                    bases[link].window(slice(offsets[i], offsets[i] + d["n"])),
                    trace.meta, lane.ends,
                )
                for col in LOG_COLUMNS:
                    assert np.array_equal(got[col], log[col]), col
        if switch.checks <= j:  # this run never reached switch point j
            break


@given(run=planned_devices())
@settings(max_examples=40, deadline=None)
def test_lockstep_over_int32_bases_equals_int64_bases(run):
    """The batch planner stacks int32 bases: stepped by the block kernel
    throughout, or by the scalar recurrence throughout, every lane
    sees the commands, completions and int64 interval ends the int64
    bases give it."""
    devices, bases = run
    offsets = np.cumsum([0] + [d["n"] for d in devices]).tolist()
    shared = {
        name: getattr(bases[0], name).astype(np.int32)
        for name in ("unit", "die", "pkg", "chan", "cell_ns")
    }
    narrow = [
        StepCols(**shared, **{
            name: getattr(base, name).astype(np.int32) for name in ("fb", "hb", "cmd")
        })
        for base in bases
    ]
    for break_even in (1, 1 << 40):
        runs = []
        for cols in (bases, narrow):
            traces, lanes = _planned_lanes(devices, offsets)
            with mock.patch.object(kernel_mod, "BREAK_EVEN_ROWS", break_even):
                lockstep(cols, list(lanes.values()))
            runs.append({
                key: (traces[key].meta, traces[key].last_done, lane.ends)
                for key, lane in lanes.items()
            })
        wide, got = runs
        for key, (meta, last_done, ends) in got.items():
            assert (meta, last_done) == wide[key][:2], key
            assert len(ends) == len(wide[key][2])
            for g, w in zip(ends, wide[key][2]):
                assert g.dtype == np.int64 and np.array_equal(g, w), key
