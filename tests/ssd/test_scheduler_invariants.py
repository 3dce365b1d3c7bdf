"""Property tests: the scheduler never double-books a resource."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.interconnect import HostPath
from repro.nvm import ONFI3_SDR400, SLC, TLC
from repro.ssd import Geometry, OpCode, TransactionScheduler

HOST = HostPath(name="h", bytes_per_sec=2e9, per_request_ns=500)


def _no_overlap(starts, ends):
    """Intervals on one serial resource must not overlap."""
    order = np.argsort(starts, kind="stable")
    s, e = starts[order], ends[order]
    keep = e > s  # zero-length reservations can share an instant
    s, e = s[keep], e[keep]
    return np.all(s[1:] >= e[:-1])


def check_exclusivity(log, geom):
    """Assert mutual exclusion on every contended serial resource."""
    ops = log["op"]
    # channel bus: [ch_start, ch_end) exclusive per channel
    for c in np.unique(log["channel"]):
        m = log["channel"] == c
        assert _no_overlap(log["ch_start"][m], log["ch_end"][m]), f"channel {c}"
    # package bus: [fb_start, fb_end) exclusive per package
    for p in np.unique(log["package"]):
        m = (log["package"] == p) & (ops != OpCode.ERASE)
        if m.any():
            assert _no_overlap(log["fb_start"][m], log["fb_end"][m]), f"pkg {p}"
    # cell array: [cell_start, cell_end) exclusive per die
    for d in np.unique(log["die"]):
        m = log["die"] == d
        assert _no_overlap(log["cell_start"][m], log["cell_end"][m]), f"die {d}"
    # host path: [h_start, h_end) globally exclusive
    m = ops != OpCode.ERASE
    assert _no_overlap(log["h_start"][m], log["h_end"][m]), "host"


@st.composite
def txn_streams(draw):
    """Random mixed-op transaction batches with plausible groups."""
    geom = Geometry(
        kind=draw(st.sampled_from([SLC, TLC])),
        channels=2, packages_per_channel=2, dies_per_package=2,
        planes_per_die=2, blocks_per_plane=8,
    )
    n = draw(st.integers(1, 60))
    page = geom.page_bytes
    txns = []
    for i in range(n):
        op = draw(st.sampled_from([OpCode.READ, OpCode.WRITE, OpCode.ERASE]))
        flat = draw(st.integers(0, geom.total_pages - 1))
        nbytes = 0 if op == OpCode.ERASE else draw(st.integers(1, page))
        pib = (flat // geom.plane_units) % geom.pages_per_block
        txns.append((op, flat, nbytes, -1, pib))
    txns = np.array(txns, dtype=np.int64)
    batches = []
    i = 0
    while i < len(txns):
        size = draw(st.integers(1, 8))
        arrival = draw(st.integers(0, 10_000_000))
        batches.append((txns[i : i + size], arrival))
        i += size
    return geom, batches


class TestExclusivity:
    @given(txn_streams())
    @settings(max_examples=60, deadline=None)
    def test_no_resource_double_booking(self, stream):
        geom, batches = stream
        sched = TransactionScheduler(geom, ONFI3_SDR400, HOST)
        for req_id, (txns, arrival) in enumerate(batches):
            sched.submit(txns, arrival=arrival, req_id=req_id)
        log = sched.finish()
        check_exclusivity(log, geom)

    @given(txn_streams())
    @settings(max_examples=60, deadline=None)
    def test_causality(self, stream):
        """Every transaction's stages are causally ordered and nothing
        starts before its arrival."""
        geom, batches = stream
        sched = TransactionScheduler(geom, ONFI3_SDR400, HOST)
        for req_id, (txns, arrival) in enumerate(batches):
            sched.submit(txns, arrival=arrival, req_id=req_id)
        log = sched.finish()
        ops = log["op"]
        assert np.all(log["cell_start"] >= log["arrival"])
        assert np.all(log["done"] >= log["arrival"])
        r = ops == OpCode.READ
        assert np.all(log["cell_end"][r] <= log["fb_start"][r])
        assert np.all(log["fb_end"][r] <= log["ch_start"][r])
        assert np.all(log["ch_end"][r] <= log["h_start"][r])
        w = ops == OpCode.WRITE
        assert np.all(log["h_end"][w] <= log["ch_start"][w])
        assert np.all(log["ch_end"][w] <= log["fb_start"][w])
        assert np.all(log["fb_end"][w] <= log["cell_start"][w])

    @given(txn_streams())
    @settings(max_examples=30, deadline=None)
    def test_plane_register_held_until_drain(self, stream):
        """A plane unit never starts a new cell op while its register
        still holds undelivered data (dual-register discipline)."""
        geom, batches = stream
        sched = TransactionScheduler(geom, ONFI3_SDR400, HOST)
        for req_id, (txns, arrival) in enumerate(batches):
            sched.submit(txns, arrival=arrival, req_id=req_id)
        log = sched.finish()
        U = geom.plane_units
        units = log["flat"] % U
        for u in np.unique(units):
            m = units == u
            cells = np.column_stack([log["cell_start"][m], log["cell_end"][m]])
            drains = log["media_done"][m]
            order = np.argsort(cells[:, 0], kind="stable")
            cells, drains = cells[order], drains[order]
            # the next cell op on this unit starts no earlier than the
            # previous op's data drain
            assert np.all(cells[1:, 0] >= drains[:-1])
