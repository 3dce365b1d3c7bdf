"""Property tests: the block kernel and the lockstep replay.

* :func:`~repro.ssd.scheduler.block_ends` finds each row's longest
  run of distinct plane units, and over one plan's row range gives
  what it gives over the whole stack, clipped at the plan's end.
* The die, package and channel tables a lockstep step gathers from
  (:class:`~repro.ssd.scheduler.FlatResources`) equal
  :func:`~repro.ssd.scheduler.prepass`'s decode of every row, lane by
  lane, on random geometries.
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
  the scalar recurrence falls; over narrow copies of its inputs, as
  the batch planner stacks them (uint16 plane units, int32 cell times
  and payloads, a one-byte sharing flag), it must give what the int64
  inputs give.  A lane's ``done`` hook receives, once, its rows'
  interval ends.
"""

from __future__ import annotations

import dataclasses
import itertools
from unittest import mock

import numpy as np
from hypothesis import Phase, find, given, settings
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
    unit_ids,
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
        cols = prepass(
            MediaConsts.of(geom, geom.kind), Link.of(bus, host), *rows.T,
            same_cmd=cmd_of_row,
        )
        arrivals = [draw(st.integers(0, 2_000_000)) for _ in bounds[1:]]
        lanes.append((geom, cols, bounds, arrivals))
    return lanes


def _scalar(geom, cols, bounds, arrivals):
    res = Resources(geom)
    n = bounds[-1]
    out = [[0] * n for _ in range(4)]
    lists = cols.lists()
    done = [
        recurrence(lists, lo, hi, arrival, res, out, lo)
        for lo, hi, arrival in zip(bounds[:-1], bounds[1:], arrivals)
    ]
    return [np.array(col, dtype=np.int64) for col in out], done


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
            np.concatenate([np.full(e - s, k) for k, s, e in step]),
            *(col(name) for name in ("unit", "cell_ns", "fb", "hb", "cmd")),
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


@given(geoms=st.lists(geometries(), min_size=1, max_size=4), data=st.data())
def test_unit_tables_equal_the_prepass_decode(geoms, data):
    """Each lane's plane unit, offset by the lane's first unit, gathers
    the die, package and channel ``prepass`` decodes for it, offset by
    the lane's first die, package and channel."""
    res = FlatResources(geoms)
    sizes = [g.plane_units for g in geoms]
    assert len(res.die_of) == len(res.pkg_of) == len(res.chan_of) == sum(sizes)
    for k, geom in enumerate(geoms):
        flat = np.asarray(data.draw(
            st.lists(st.integers(0, geom.total_pages - 1), min_size=1, max_size=20)
        ))
        zeros = np.zeros_like(flat)
        lane = prepass(
            MediaConsts.of(geom, geom.kind), Link(0.0, 0.0, 0),
            zeros, flat, zeros, zeros - 1, zeros,
        )
        unit = lane.unit + res.unit0[k]
        for table, col, first in (
            (res.die_of, lane.die, res.die0[k]),
            (res.pkg_of, lane.pkg, res.pkg0[k]),
            (res.chan_of, lane.chan, res.chan0[k]),
        ):
            assert np.array_equal(table[unit], col + first)
        # the lane-local tables the scalar tail reads
        die, pkg, chan = unit_ids(geom)
        for table, col in ((die, lane.die), (pkg, lane.pkg), (chan, lane.chan)):
            assert table.dtype == np.int64 and np.array_equal(table[lane.unit], col)


@given(units=st.lists(st.integers(0, 6), max_size=40))
def test_block_ends_are_the_longest_distinct_runs(units):
    def run_end(i):
        j = i
        while j < len(units) and units[j] not in units[i:j]:
            j += 1
        return j

    got = block_ends(np.asarray(units, dtype=np.int64)).tolist()
    assert got == [run_end(i) for i in range(len(units))]


@given(
    units=st.lists(st.integers(0, 6), min_size=1, max_size=60).map(
        lambda u: np.asarray(u, dtype=np.uint16)
    ),
    cuts=st.sets(st.integers(0, 60), max_size=6),
)
def test_block_ends_per_plan_equal_the_clipped_whole_stack(units, cuts):
    """The lockstep runs :func:`block_ends` over each plan's row range of
    the stacked units, not over the whole stack: clipped at the plan's
    end, both give every row the same block end."""
    n = len(units)
    bounds = [0, *sorted(c for c in cuts if 0 < c < n), n]
    whole = block_ends(units)
    for lo, hi in zip(bounds, bounds[1:]):
        got = block_ends(units[lo:hi]) + lo
        assert got.tolist() == np.minimum(whole[lo:hi], hi).tolist()
    # the lockstep's own helper, over lanes of those ranges (two per
    # range, as a cell's main and peak lanes)
    lanes = [
        Lane(None, None, lo, hi - lo, iter(()))  # type: ignore[arg-type]
        for lo, hi in zip(bounds, bounds[1:]) for _ in range(2)
    ]
    stop = kernel_mod._lane_block_ends(units, lanes)
    for lo, hi in zip(bounds, bounds[1:]):
        assert np.minimum(stop[lo:hi], hi).tolist() == np.minimum(whole[lo:hi], hi).tolist()


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
    cols = dict(unit=np.arange(2), cell_ns=big, fb=big, hb=big, cmd=big)

    def ends(dtype):
        return block_recurrence(
            FlatResources([geom]), np.zeros(2, dtype=np.int64), np.zeros(2, dtype=np.int64),
            **{name: col.astype(dtype) for name, col in cols.items()},
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

    # any failing example will do: generate only, no shrinking
    with mock.patch.object(kernel_mod, "_scan", merged):
        find(
            read_lanes(),
            lambda lanes: not _kernel_matches_recurrence(lanes),
            settings=settings(max_examples=300, database=None, phases=(Phase.generate,)),
        )


# ----------------------------------------------------------------------
@st.composite
def planned_devices(draw):
    """1-3 devices of planned READ command groups, pre-passed device by
    device on two interfaces, each interface's lanes stacked device
    after device (the interfaces share all but the link times, which is
    what :class:`~repro.ssd.scheduler.StepCols` holds)."""
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
    lanes = []
    for d in devices:
        media = MediaConsts.of(d["geom"], d["geom"].kind)
        rows, cmd_ord = d.pop("rows"), d.pop("cmd_ord")
        lanes.append([
            prepass(media, Link.of(*link), *rows.T, same_cmd=cmd_ord)
            for link in d["links"]
        ])

    bases = [
        LaneCols(**{
            f.name: np.concatenate([getattr(dev[j], f.name) for dev in lanes])
            for f in dataclasses.fields(LaneCols)
        })
        for j in (0, 1)
    ]
    return devices, bases


def _window(cols: LaneCols, rows: slice) -> LaneCols:
    """Views of ``rows`` of every column of ``cols``."""
    return LaneCols(**{f.name: getattr(cols, f.name)[rows] for f in dataclasses.fields(cols)})


def _inputs(base: LaneCols) -> StepCols:
    """The lockstep's inputs of a stacked lane: what every link shares."""
    return StepCols(**{f.name: getattr(base, f.name) for f in dataclasses.fields(StepCols)})


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


def _planned_lanes(devices, offsets, every=False):
    """A fresh command trace and lockstep lane per device and link, and
    the ends each lane's ``done`` hook receives, a list per lane; a lane
    has a hook where its device's ``record`` flag says, or ``every``."""
    traces, lanes, ends = {}, {}, {}
    for (i, d), lo in zip(enumerate(devices), offsets):
        for link in (0, 1):
            bus, host = d["links"][link]
            trace = traces[i, link] = CommandTrace()
            hooked = every or d["record"][link]
            lanes[i, link] = Lane(
                d["geom"], Link.of(bus, host), lo, d["n"],
                planned_commands(
                    d["groups"], d["window"], host.per_request_ns + d["overhead"],
                    d["readahead"], trace,
                ),
                ends.setdefault((i, link), []).append if hooked else None,
            )
    return traces, lanes, ends


@given(run=planned_devices())
@settings(max_examples=40, deadline=None)
def test_lockstep_matches_per_lane_device_runs(run):
    devices, bases = run
    offsets = np.cumsum([0] + [d["n"] for d in devices]).tolist()
    want = {
        (i, link): _device_run(d, link, _window(bases[link], slice(lo, lo + d["n"])))
        for (i, d), lo in zip(enumerate(devices), offsets)
        for link in (0, 1)
    }
    for j in itertools.count():
        switch = SwitchAt(j)
        traces, lanes, ends = _planned_lanes(devices, offsets)
        with mock.patch.object(kernel_mod, "BREAK_EVEN_ROWS", switch):
            lockstep(_inputs(bases[0]), list(lanes.values()))
        for (i, link), log in want.items():
            d, trace = devices[i], traces[i, link]
            assert trace.last_done == (int(log["done"].max()) if len(log) else 0)
            if (i, link) in ends:
                (lane_ends,) = ends[i, link]
                got = assemble_log(
                    _window(bases[link], slice(offsets[i], offsets[i] + d["n"])),
                    trace.meta, lane_ends,
                )
                for col in LOG_COLUMNS:
                    assert np.array_equal(got[col], log[col]), col
        if switch.checks <= j:  # this run never reached switch point j
            break


@given(run=planned_devices(), block=st.booleans())
@settings(max_examples=40, deadline=None)
def test_done_hooks_receive_the_recorded_ends(run, block):
    """A lane's ``done`` hook runs once, as its commands run out, and
    receives its rows' cell, flash-bus, channel and host ends in replay
    order — the end columns of the log ``SSDevice.run`` gives the lane
    alone — whether it finishes in the block loop or on the scalar
    tail."""
    devices, bases = run
    offsets = np.cumsum([0] + [d["n"] for d in devices]).tolist()
    _, lanes, ends = _planned_lanes(devices, offsets, every=True)
    with mock.patch.object(kernel_mod, "BREAK_EVEN_ROWS", 1 if block else 1 << 40):
        lockstep(_inputs(bases[0]), list(lanes.values()))
    assert ends.keys() == lanes.keys()
    for (i, link), calls in ends.items():
        d, lo = devices[i], offsets[i]
        log = _device_run(d, link, _window(bases[link], slice(lo, lo + d["n"])))
        want = np.stack([log[c] for c in ("cell_end", "fb_end", "ch_end", "h_end")])
        (got,) = calls
        assert got.dtype == np.int64 and np.array_equal(got, want), (i, link)


@given(run=planned_devices())
@settings(max_examples=40, deadline=None)
def test_lockstep_over_narrow_inputs_equals_int64_inputs(run):
    """The batch planner stacks narrow inputs (uint16 plane units, int32
    cell times and payloads, a bool sharing flag): stepped by the block
    kernel throughout, or by the scalar recurrence throughout, every
    lane sees the commands, completions and int64 interval ends the
    int64 inputs give it."""
    devices, bases = run
    offsets = np.cumsum([0] + [d["n"] for d in devices]).tolist()
    wide = _inputs(bases[0])
    assert wide.unit.dtype == np.int64
    narrow = StepCols(
        unit=wide.unit.astype(np.uint16), cell_ns=wide.cell_ns.astype(np.int32),
        shared=wide.shared.astype(bool), nbytes=wide.nbytes.astype(np.int32),
    )
    for break_even in (1, 1 << 40):
        runs = []
        for cols in (wide, narrow):
            traces, lanes, ends = _planned_lanes(devices, offsets, every=True)
            with mock.patch.object(kernel_mod, "BREAK_EVEN_ROWS", break_even):
                lockstep(cols, list(lanes.values()))
            runs.append({
                key: (traces[key].meta, traces[key].last_done, ends[key][0])
                for key in lanes
            })
        want, got = runs
        for key, (meta, last_done, ends) in got.items():
            assert (meta, last_done) == want[key][:2], key
            assert len(ends) == len(want[key][2])
            for g, w in zip(ends, want[key][2]):
                assert g.dtype == np.int64 and np.array_equal(g, w), key
