"""Reference metrics pass: per resource, per request, over interval sets.

The paper's metrics written out the direct way: for each channel,
package and block request, merge, intersect and subtract its busy
intervals with :mod:`.intervals` and measure what is left.
:func:`repro.ssd.metrics.compute_metrics` computes the same
:class:`~repro.ssd.metrics.RunMetrics` with one stacked segmented
sweep, and must equal this pass field by field on any log.  The
pattern peak comes from the scalar recurrence
(:func:`~repro.ssd.metrics.media_pattern_peak`), never from the
lockstep replay the production pass uses for all-READ logs.
"""

from __future__ import annotations

import numpy as np

from repro.nvm.kinds import NVMKind
from repro.ssd.geometry import Geometry
from repro.ssd.metrics import (
    BREAKDOWN_KEYS,
    PAL_KEYS,
    RunMetrics,
    media_pattern_peak,
)
from repro.ssd.request import OpCode
from repro.ssd.scheduler import TxnLog

from . import intervals as iv

__all__ = ["compute_metrics"]


def _client_bandwidth(log: TxnLog) -> dict[int, float]:
    """Per-client payload bandwidth (data transactions only)."""
    out: dict[int, float] = {}
    clients = log["client"]
    data_mask = log["kind_code"] == 0
    for c in np.unique(clients):
        m = (clients == c) & data_mask
        if not np.any(m):
            continue
        nbytes = int(log["nbytes"][m].sum())
        span = int(log["done"][m].max() - log["arrival"][m].min())
        out[int(c)] = nbytes * 1e9 / span if span > 0 else 0.0
    return out


def _inflight_intervals_by(log: TxnLog, column: str, count: int) -> list[np.ndarray]:
    """In-flight [arrival, media_done) intervals grouped by a resource.

    "In flight" counts a resource as engaged from command arrival to
    media completion — the sense in which GPFS striping keeps "more
    channels utilized simultaneously" (Section 4.5) even while the
    device is slow.
    """
    ids = log[column]
    starts = log["arrival"].astype(np.float64)
    ends = log["media_done"].astype(np.float64)
    out = []
    for r in range(count):
        m = ids == r
        out.append(np.column_stack([starts[m], ends[m]]) if np.any(m) else np.empty((0, 2)))
    return out


def _busy_intervals_by(log: TxnLog, column: str, count: int) -> list[np.ndarray]:
    """Actual media activity (cell + flash-bus) grouped by a resource.

    This is the paper's package-level utilization: packages "kept busy
    serving requests" counts sensing/programming and register movement,
    which is why ION-GPFS shows high channel engagement but low package
    utilization (Figures 9a vs 9b).
    """
    ids = log[column]
    cs = log["cell_start"].astype(np.float64)
    ce = log["cell_end"].astype(np.float64)
    fs_ = log["fb_start"].astype(np.float64)
    fe = log["fb_end"].astype(np.float64)
    out = []
    for r in range(count):
        m = ids == r
        if not np.any(m):
            out.append(np.empty((0, 2)))
            continue
        pairs = np.vstack(
            [np.column_stack([cs[m], ce[m]]), np.column_stack([fs_[m], fe[m]])]
        )
        out.append(pairs)
    return out


def _utilization(per_resource: list[np.ndarray], active: np.ndarray) -> float:
    denom = iv.measure(active)
    if denom <= 0:
        return 0.0
    busy = sum(iv.measure(iv.intersect(r, active)) for r in per_resource)
    return busy / (len(per_resource) * denom)


def _breakdown(log: TxnLog, geom: Geometry) -> dict[str, float]:
    """Six-way execution-time decomposition (Figure 10a/10c)."""
    n = len(log)
    if n == 0:
        return {k: 0.0 for k in BREAKDOWN_KEYS}
    ch_ids = log["channel"]
    ops = log["op"]
    arrival = log["arrival"].astype(np.float64)
    cs, ce = log["cell_start"].astype(np.float64), log["cell_end"].astype(np.float64)
    fs, fe = log["fb_start"].astype(np.float64), log["fb_end"].astype(np.float64)
    ss, se = log["ch_start"].astype(np.float64), log["ch_end"].astype(np.float64)
    hs, he = log["h_start"].astype(np.float64), log["h_end"].astype(np.float64)
    media_done = log["media_done"].astype(np.float64)

    # per-transaction waits, by op direction
    is_read = ops == OpCode.READ
    is_write = ops == OpCode.WRITE
    is_erase = ops == OpCode.ERASE
    cell_wait = np.zeros(n)
    chan_wait = np.zeros(n)
    cell_wait[is_read] = cs[is_read] - arrival[is_read]
    chan_wait[is_read] = (fs[is_read] - ce[is_read]) + (ss[is_read] - fe[is_read])
    cell_wait[is_write] = cs[is_write] - fe[is_write]
    chan_wait[is_write] = (ss[is_write] - he[is_write]) + (fs[is_write] - se[is_write])
    cell_wait[is_erase] = cs[is_erase] - arrival[is_erase]

    totals = dict.fromkeys(BREAKDOWN_KEYS, 0.0)
    for c in range(geom.channels):
        m = ch_ids == c
        if not np.any(m):
            continue
        cell_iv = np.column_stack([cs[m], ce[m]])
        fb_iv = np.column_stack([fs[m], fe[m]])
        chb_iv = np.column_stack([ss[m], se[m]])
        inflight = np.column_stack([arrival[m], media_done[m]])
        cell_u = iv.merge(cell_iv)
        fb_excl = iv.subtract(fb_iv, cell_u)
        busy_u = iv.union(cell_u, iv.merge(fb_iv))
        chb_excl = iv.subtract(chb_iv, busy_u)
        all_busy = iv.union(busy_u, iv.merge(chb_iv))
        wait_excl = iv.measure(iv.subtract(inflight, all_busy))

        totals["cell"] += iv.measure(cell_u)
        totals["flash_bus"] += iv.measure(fb_excl)
        totals["channel_bus"] += iv.measure(chb_excl)
        cw = float(cell_wait[m].sum())
        hw = float(chan_wait[m].sum())
        denom = cw + hw
        if denom > 0:
            totals["cell_contention"] += wait_excl * cw / denom
            totals["channel_contention"] += wait_excl * hw / denom

    # Non-overlapped DMA: per request, the host-path (PCIe/SATA/
    # network) movement of its data that its own media pipeline cannot
    # hide.  For ION configurations the network transfer takes as long
    # as (or longer than) the media work, which is why this category
    # dominates there (Section 4.5).
    reqs = log["req"]
    order = np.argsort(reqs, kind="stable")
    reqs_s = reqs[order]
    n_rows = len(reqs_s)
    bounds = np.flatnonzero(np.r_[True, reqs_s[1:] != reqs_s[:-1]])
    bounds = np.r_[bounds, n_rows]
    hs_s, he_s = hs[order], he[order]
    cs_s, ce_s = cs[order], ce[order]
    fs_s, fe_s = fs[order], fe[order]
    ss_s, se_s = ss[order], se[order]
    dma = 0.0
    for b0, b1 in zip(bounds[:-1], bounds[1:]):
        host_req = np.column_stack([hs_s[b0:b1], he_s[b0:b1]])
        media_req = np.vstack(
            [
                np.column_stack([cs_s[b0:b1], ce_s[b0:b1]]),
                np.column_stack([fs_s[b0:b1], fe_s[b0:b1]]),
                np.column_stack([ss_s[b0:b1], se_s[b0:b1]]),
            ]
        )
        dma += iv.measure(iv.subtract(host_req, media_req))
    totals["non_overlapped_dma"] = dma

    grand = sum(totals.values())
    if grand <= 0:
        return {k: 0.0 for k in BREAKDOWN_KEYS}
    return {k: v / grand for k, v in totals.items()}


def _parallelism(log: TxnLog, geom: Geometry) -> dict[str, float]:
    """PAL1-4 decomposition per block request, weighted by bytes."""
    n = len(log)
    if n == 0:
        return {k: 0.0 for k in PAL_KEYS}
    reqs = log["req"]
    order = np.argsort(reqs, kind="stable")
    reqs_s = reqs[order]
    chans = log["channel"][order]
    dies = log["die"][order]
    groups = log["group"][order]
    nbytes = log["nbytes"][order]
    boundaries = np.flatnonzero(np.r_[True, reqs_s[1:] != reqs_s[:-1]])
    boundaries = np.r_[boundaries, n]
    weights = dict.fromkeys(PAL_KEYS, 0.0)
    for b0, b1 in zip(boundaries[:-1], boundaries[1:]):
        ch = chans[b0:b1]
        di = dies[b0:b1]
        gr = groups[b0:b1]
        w = float(nbytes[b0:b1].sum())
        n_ch = len(np.unique(ch))
        n_di = len(np.unique(di))
        interleave = n_di > n_ch  # some channel drives more than one die
        multiplane = bool(np.any(gr >= 0))
        if interleave and multiplane:
            key = "PAL4"
        elif multiplane:
            key = "PAL3"
        elif interleave:
            key = "PAL2"
        else:
            key = "PAL1"
        weights[key] += w
    total = sum(weights.values())
    if total <= 0:
        return {k: 0.0 for k in PAL_KEYS}
    return {k: v / total for k, v in weights.items()}


def compute_metrics(log: TxnLog, geom: Geometry, kind: NVMKind) -> RunMetrics:
    """Every paper metric of a finished transaction log, resource by
    resource and request by request."""
    n = len(log)
    if n == 0:
        return RunMetrics(0, 0, 0.0)
    data_mask = log["kind_code"] == 0
    payload = int(log["nbytes"][data_mask].sum())
    makespan = int(log["done"].max() - log["arrival"].min())
    bw = payload * 1e9 / makespan if makespan > 0 else 0.0
    peak = media_pattern_peak(log, geom, kind)

    # utilization over the device-active window
    inflight_all = np.column_stack(
        [log["arrival"].astype(np.float64), log["media_done"].astype(np.float64)]
    )
    active = iv.merge(inflight_all)
    chan_iv = _inflight_intervals_by(log, "channel", geom.channels)
    pkg_iv = _busy_intervals_by(log, "package", geom.packages)

    ops = log["op"]
    reads = ops == OpCode.READ
    writes = ops == OpCode.WRITE
    metrics = RunMetrics(
        payload_bytes=payload,
        makespan_ns=makespan,
        bandwidth_bytes_per_sec=bw,
        client_bandwidth=_client_bandwidth(log),
        pattern_peak_bytes_per_sec=peak,
        remaining_bytes_per_sec=max(0.0, peak - bw),
        channel_utilization=_utilization(chan_iv, active),
        package_utilization=_utilization(pkg_iv, active),
        breakdown=_breakdown(log, geom),
        parallelism=_parallelism(log, geom),
        n_txns=n,
        n_requests=int(len(np.unique(log["req"]))),
        read_bytes=int(log["nbytes"][reads].sum()),
        write_bytes=int(log["nbytes"][writes].sum()),
        overhead_bytes=int(log["nbytes"][~data_mask].sum()),
    )
    return metrics
