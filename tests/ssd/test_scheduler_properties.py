"""Property tests: the one timing kernel against the scalar oracle.

Random small geometries and mixed READ/WRITE/ERASE streams with
multi-plane groups, arbitrary arrivals and arbitrary submit
boundaries, through both entries of
:class:`~repro.ssd.scheduler.TransactionScheduler`:

* raw transaction tuples must give a log and completions bit-identical
  to the frozen :class:`~tests.oracles.reference_scheduler.ReferenceScheduler`;
* the same rows pre-passed once for the whole stream and submitted as
  :class:`~repro.ssd.scheduler.TxnSlice` windows — in any order, as
  interleaved clients dispatch a planned lane — must give the same log
  as the raw-tuple entry.
"""

from __future__ import annotations

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
    TransactionScheduler,
    TxnSlice,
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
            rows.append(
                (
                    draw(st.sampled_from((OpCode.READ, OpCode.WRITE, OpCode.ERASE))),
                    draw(st.integers(0, 4 * geom.total_pages)),
                    draw(st.integers(1, geom.page_bytes)),
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


@given(run=streams(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_prepassed_windows_match_raw_submits(run, data):
    geom, bus, host, commands = run
    order = data.draw(st.permutations(range(len(commands))))
    cols = np.concatenate([txns for txns, *_ in commands]).T
    cmd_of_row = np.repeat(np.arange(len(commands)), [len(c[0]) for c in commands])
    (lane,) = prepass(
        MediaConsts.of(geom, geom.kind), (Link.of(bus, host),), *cols,
        same_cmd=cmd_of_row,
    )
    starts = np.cumsum([0] + [len(c[0]) for c in commands]).tolist()
    windows = [
        (TxnSlice(lane, starts[c], starts[c + 1]), *commands[c][1:])
        for c in range(len(commands))
    ]

    log, done = _run_raw(TransactionScheduler(geom, bus, host), commands, order)
    win_log, win_done = _run_raw(TransactionScheduler(geom, bus, host), windows, order)
    assert win_done == done
    _assert_same_log(win_log, log)
