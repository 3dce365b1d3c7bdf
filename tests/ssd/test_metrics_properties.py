"""Property tests: metric invariants under random transaction streams,
the metrics pass against the reference pass of
``tests/oracles/metrics.py``, field by field, and the recurrence-order
premise the metrics pass's coalescing gains from."""

from __future__ import annotations

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.ssd.scheduler as kernel_mod
from repro.interconnect import HostPath, bridged_pcie2
from repro.nvm import MLC, ONFI3_SDR400, SLC, TLC
from repro.ssd import (
    BREAKDOWN_KEYS,
    PAL_KEYS,
    CommandGroup,
    DeviceCommand,
    Geometry,
    OpCode,
    PosixRequest,
    SSDevice,
    TransactionScheduler,
    compute_metrics,
)
from repro.ssd.ftl import NBYTES, OP
from repro.ssd.metrics import compute_metrics_batch
from repro.ssd.scheduler import Lane, Link, MediaConsts, assemble_log, lockstep, prepass
from tests.oracles import metrics as oracle

OPS = (OpCode.READ, OpCode.WRITE, OpCode.ERASE)


@st.composite
def random_runs(draw):
    geom = Geometry(kind=draw(st.sampled_from((SLC, MLC, TLC))),
                    channels=draw(st.integers(1, 3)), packages_per_channel=2,
                    dies_per_package=2, planes_per_die=2, blocks_per_plane=8)
    host = HostPath(
        name="h",
        bytes_per_sec=draw(st.sampled_from([5e7, 1e9, 1e12])),
        per_request_ns=draw(st.integers(0, 100_000)),
    )
    n_clients = draw(st.integers(1, 3))
    ppb, units = geom.pages_per_block, geom.plane_units
    n_batches = draw(st.integers(1, 10))
    batches = []
    for _ in range(n_batches):
        n = draw(st.integers(1, 12))
        txns = []
        for _i in range(n):
            op = draw(st.sampled_from(OPS))
            group = draw(st.integers(-1, 2))
            if op == OpCode.ERASE:  # a whole block, no payload, as GC erases
                unit = draw(st.integers(0, units - 1))
                block = draw(st.integers(0, geom.blocks_per_plane - 1))
                txns.append((op, block * ppb * units + unit, 0, -1, 0))
                continue
            flat = draw(st.integers(0, geom.total_pages - 1))
            nbytes = draw(st.integers(1, geom.page_bytes))
            txns.append((op, flat, nbytes, group, (flat // units) % ppb))
        batches.append((np.array(txns, dtype=np.int64), draw(st.integers(0, 5_000_000)),
                        draw(st.integers(0, n_clients - 1))))
    return geom, host, batches


def _replay(geom, host, batches):
    sched = TransactionScheduler(geom, ONFI3_SDR400, host)
    for req_id, (txns, arrival, client) in enumerate(batches):
        sched.submit(txns, arrival=arrival, req_id=req_id, client=client)
    return sched.finish()


def _assert_fields_equal(got, want):
    for f in dataclasses.fields(want):
        assert getattr(got, f.name) == getattr(want, f.name), f.name


class TestMetricInvariants:
    @given(random_runs())
    @settings(max_examples=40, deadline=None)
    def test_all_invariants(self, run):
        geom, host, batches = run
        payload = sum(int(txns[:, NBYTES].sum()) for txns, _, _ in batches)
        log = _replay(geom, host, batches)
        m = compute_metrics(log, geom, geom.kind)

        # conservation
        assert m.payload_bytes == payload
        assert m.read_bytes + m.write_bytes == payload
        assert m.n_txns == len(log)

        # bounded rates and utilizations
        assert m.bandwidth_bytes_per_sec >= 0
        assert 0.0 <= m.channel_utilization <= 1.0
        assert 0.0 <= m.package_utilization <= 1.0

        # decompositions are proper partitions
        assert set(m.breakdown) == set(BREAKDOWN_KEYS)
        assert sum(m.breakdown.values()) == pytest.approx(1.0, abs=1e-9)
        assert all(v >= -1e-12 for v in m.breakdown.values())
        assert set(m.parallelism) == set(PAL_KEYS)
        # PAL classes weigh requests by bytes: an erase-only stream has none
        pal_total = 1.0 if payload else 0.0
        assert sum(m.parallelism.values()) == pytest.approx(pal_total, abs=1e-9)

        # the media ceiling is never below what was achieved
        assert m.pattern_peak_bytes_per_sec >= m.bandwidth_bytes_per_sec * 0.999
        assert m.remaining_bytes_per_sec >= 0.0

    @given(random_runs())
    @settings(max_examples=20, deadline=None)
    def test_makespan_covers_every_txn(self, run):
        geom, host, batches = run
        log = _replay(geom, host, batches)
        m = compute_metrics(log, geom, geom.kind)
        assert m.makespan_ns == int(log["done"].max() - log["arrival"].min())
        assert (log["done"] >= log["arrival"]).all()


class TestMatchesReferencePass:
    @given(random_runs())
    @settings(max_examples=60, deadline=None)
    def test_every_field_equals_the_oracle(self, run):
        geom, host, batches = run
        log = _replay(geom, host, batches)
        _assert_fields_equal(
            compute_metrics(log, geom, geom.kind),
            oracle.compute_metrics(log, geom, geom.kind),
        )

    @given(st.lists(random_runs(), min_size=2, max_size=4))
    @settings(max_examples=15, deadline=None)
    def test_lanes_of_different_geometries_equal_their_own_calls(self, runs):
        items = [(_replay(g, h, b), g, g.kind) for g, h, b in runs]
        for got, item in zip(compute_metrics_batch(items), items):
            _assert_fields_equal(got, compute_metrics(*item))

    @given(kind=st.sampled_from((SLC, MLC, TLC)), seed=st.integers(0, 2**16))
    @settings(max_examples=6, deadline=None)
    def test_full_device_under_overwrites(self, kind, seed):
        """A small device, preloaded full and overwritten at random: its
        logs carry GC copy-back and erase rows, and journal traffic."""
        geom = Geometry(kind=kind, channels=2, packages_per_channel=1,
                        dies_per_package=1, planes_per_die=2, blocks_per_plane=8)
        chunk = geom.pages_per_block // 8 * geom.page_bytes
        logical = int(geom.capacity_bytes * 0.8 * 0.95) // chunk * chunk
        device = SSDevice(geom, ONFI3_SDR400, bridged_pcie2(4),
                          logical_bytes=logical, overprovision=0.2)
        device.preload(logical)
        rng = np.random.default_rng(seed)
        saw_erase = False
        for _ in range(12):
            groups = []
            for client in range(2):
                for op in ("write", "write", "write", "read"):
                    off = int(rng.integers(0, logical // chunk)) * chunk
                    label = "journal" if rng.random() < 0.2 else "data"
                    groups.append(CommandGroup(
                        posix=PosixRequest(op, 0, off, chunk),
                        commands=[DeviceCommand(op, off, chunk, kind=label)],
                        client=client,
                    ))
            res = device.run(groups, posix_window=2)
            saw_erase |= bool((res.log["op"] == OpCode.ERASE).any())
            assert all(_in_recurrence_order(res.log).values())
            _assert_fields_equal(res.metrics,
                                 oracle.compute_metrics(res.log, geom, kind))
        assert device.ftl.stats["gc_runs"] > 0
        assert saw_erase


# ----------------------------------------------------------------------
def _lockstep_log(geom, host, batches):
    """The READ rows of ``batches``, one command per batch, replayed by
    the block kernel of :func:`~repro.ssd.scheduler.lockstep` (``None``
    when there are none)."""
    cmds = [
        (txns[txns[:, OP] == OpCode.READ], arrival, client)
        for txns, arrival, client in batches
    ]
    cmds = [c for c in cmds if len(c[0])]
    if not cmds:
        return None
    lens = [len(txns) for txns, _, _ in cmds]
    bounds = np.cumsum([0, *lens]).tolist()
    rows = np.concatenate([txns for txns, _, _ in cmds])
    (base,) = prepass(
        MediaConsts.of(geom, geom.kind), (Link.of(ONFI3_SDR400, host),), *rows.T,
        same_cmd=np.repeat(np.arange(len(cmds)), lens),
    )

    def commands():
        for lo, hi, (_, arrival, _) in zip(bounds, bounds[1:], cmds):
            yield lo, hi, arrival

    lane = Lane(geom, 0, 0, len(rows), commands(), record=True)
    with mock.patch.object(kernel_mod, "BREAK_EVEN_ROWS", 1):  # every row on the kernel
        lockstep([base], [lane])
    meta = [
        (req, client, 0, arrival, lo, hi)
        for req, ((_, arrival, client), lo, hi) in enumerate(zip(cmds, bounds, bounds[1:]))
    ]
    return assemble_log(base, meta, lane.ends)


#: each serial resource's interval family: (resource column, start, end);
#: ``None`` is the lane's one host link
SERIAL_FAMILIES = {
    "die cell": ("die", "cell_start", "cell_end"),
    "package flash bus": ("package", "fb_start", "fb_end"),
    "channel bus": ("channel", "ch_start", "ch_end"),
    "lane host": (None, "h_start", "h_end"),
}


def _in_recurrence_order(log) -> dict[str, bool]:
    """Which families come out disjoint and in row order per resource,
    and whether every request's rows are contiguous."""
    out = {}
    for name, (col, s_col, e_col) in SERIAL_FAMILIES.items():
        live = log[e_col] > log[s_col]
        key = np.zeros(len(log), dtype=np.int64) if col is None else log[col]
        ok = True
        for k in np.unique(key[live]):
            sel = live & (key == k)
            ok &= bool((log[s_col][sel][1:] >= log[e_col][sel][:-1]).all())
        out[name] = ok
    req = log["req"]
    out["request rows contiguous"] = len(np.unique(req)) == 1 + int(
        np.count_nonzero(req[1:] != req[:-1])
    )
    return out


class TestRecurrenceOrder:
    """The timing recurrence serializes each die's cell operations, each
    package's flash bus, each channel and the host link, and emits a
    request's rows together, so every family comes out disjoint and in
    row order: the metrics pass coalesces them before it sorts."""

    @given(random_runs())
    @settings(max_examples=60, deadline=None)
    def test_scheduler_logs(self, run):
        log = _replay(*run)
        assert _in_recurrence_order(log) == dict.fromkeys(
            [*SERIAL_FAMILIES, "request rows contiguous"], True
        )

    @given(random_runs())
    @settings(max_examples=40, deadline=None)
    def test_lockstep_logs(self, run):
        log = _lockstep_log(*run)
        if log is None:
            return
        assert _in_recurrence_order(log) == dict.fromkeys(
            [*SERIAL_FAMILIES, "request rows contiguous"], True
        )
        geom = run[0]
        _assert_fields_equal(
            compute_metrics(log, geom, geom.kind),
            oracle.compute_metrics(log, geom, geom.kind),
        )
