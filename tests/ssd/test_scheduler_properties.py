"""Property tests: the one timing kernel against the scalar oracle.

Random small geometries and mixed READ/WRITE/ERASE streams (erases
with no payload, as the FTL emits them, or with some) with
multi-plane groups, arbitrary arrivals and arbitrary submit
boundaries:

* :class:`~repro.ssd.scheduler.TransactionScheduler` must give a log
  and completions bit-identical to the frozen
  :class:`~tests.oracles.reference_scheduler.ReferenceScheduler`;
* the same rows pre-passed once for the whole stream, keyed by command
  as a planner pre-passes its lane, must equal each command's own
  pre-pass window by window — so a planned lane replayed command by
  command (:class:`~tests.oracles.planned_ftl.PlannedFTL`) sees the
  planner's columns.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.interconnect import HostPath
from repro.nvm import DDR800, ONFI3_SDR400, PCM, SLC, TLC
from repro.nvm.bus import BusSpec
from repro.ssd import Geometry, OpCode
from repro.ssd.scheduler import (
    KIND_CODES,
    LOG_COLUMNS,
    Link,
    MediaConsts,
    LaneCols,
    TransactionScheduler,
    prepass,
)
from tests.oracles.reference_scheduler import ReferenceScheduler

BUSES = (ONFI3_SDR400, DDR800, BusSpec(name="slow", mhz=50, ddr=False, cmd_ns=900))


@st.composite
def streams(draw):
    """(geom, bus, host, commands); a command is (txns, arrival, client, label)."""
    geom = Geometry(
        kind=draw(st.sampled_from((SLC, TLC, PCM))),
        channels=draw(st.integers(1, 3)),
        packages_per_channel=draw(st.integers(1, 3)),
        dies_per_package=draw(st.integers(1, 2)),
        planes_per_die=draw(st.integers(1, 2)),
        blocks_per_plane=draw(st.integers(1, 4)),
    )
    host = HostPath(
        name="h",
        bytes_per_sec=draw(st.sampled_from((5e7, 2e9, 1e12))),
        per_request_ns=0,
    )
    # runs of rows; a run of >1 rows (or a lone row) may carry a group
    # id, and ids repeat freely so equal groups can meet across commands
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        group = draw(st.sampled_from((-1, 0, 1, 2)))
        for _ in range(draw(st.integers(1, 3))):
            op = draw(st.sampled_from((OpCode.READ, OpCode.WRITE, OpCode.ERASE)))
            # an erase moves no payload as DeviceFTL emits it, but the
            # kernel must not rely on that
            payload = st.integers(1, geom.page_bytes)
            if op == OpCode.ERASE:
                payload = st.one_of(st.just(0), payload)
            rows.append(
                (
                    op,
                    draw(st.integers(0, 4 * geom.total_pages)),
                    draw(payload),
                    group,
                    draw(st.integers(0, 3 * geom.pages_per_block)),
                )
            )
    rows = np.array(rows, dtype=np.int64)
    cuts = sorted(draw(st.lists(st.integers(0, len(rows)), max_size=8)))
    bounds = [0, *cuts, len(rows)]
    commands = [
        (
            rows[lo:hi],
            draw(st.integers(0, 2_000_000)),
            draw(st.integers(0, 2)),
            draw(st.sampled_from(sorted(KIND_CODES))),
        )
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]
    return geom, draw(st.sampled_from(BUSES)), host, commands


def _run_raw(sched, commands, order):
    done = [
        sched.submit(commands[c][0], commands[c][1], req_id=c,
                     client=commands[c][2], kind_label=commands[c][3])
        for c in order
    ]
    return sched.finish(), done


def _assert_same_log(a, b):
    assert len(a) == len(b)
    for col in LOG_COLUMNS:
        assert np.array_equal(a[col], b[col]), col


@given(run=streams())
@settings(max_examples=150, deadline=None)
def test_raw_submits_match_reference_oracle(run):
    geom, bus, host, commands = run
    order = range(len(commands))
    log, done = _run_raw(TransactionScheduler(geom, bus, host), commands, order)
    ref_log, ref_done = _run_raw(ReferenceScheduler(geom, bus, host), commands, order)
    assert done == ref_done
    _assert_same_log(log, ref_log)


@given(run=streams())
@settings(max_examples=150, deadline=None)
def test_prepassed_windows_match_raw_submits(run):
    geom, bus, host, commands = run
    media, link = MediaConsts.of(geom, geom.kind), Link.of(bus, host)
    cols = np.concatenate([txns for txns, *_ in commands]).T
    cmd_of_row = np.repeat(np.arange(len(commands)), [len(c[0]) for c in commands])
    lane = prepass(media, link, *cols, same_cmd=cmd_of_row)
    starts = np.cumsum([0] + [len(c[0]) for c in commands]).tolist()
    for c, (txns, *_) in enumerate(commands):
        if not len(txns):
            continue
        own = prepass(media, link, *txns.T)
        rows = slice(starts[c], starts[c + 1])
        for f in dataclasses.fields(LaneCols):
            assert np.array_equal(getattr(lane, f.name)[rows], getattr(own, f.name)), f.name
