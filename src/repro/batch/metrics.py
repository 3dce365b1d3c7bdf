"""Stacked metrics: every paper metric for many lanes in one sweep.

Mirrors :func:`repro.ssd.metrics.compute_metrics` exactly, but where
the scalar pass loops over resources and requests per cell, this pass
concatenates the finished transaction logs of all lanes (cells) and
computes the interval families once, keyed by dense (lane, resource)
and (lane, request) ids via :mod:`repro.batch.segments`.

Bit-identity argument, per quantity:

* union measures are exact int64 throughout; the scalar path's
  ``subtract``-based exclusive measures become differences of union
  measures (each subtrahend family lies inside its minuend family),
* per-channel wait sums are float64 sums of exact integers far below
  2**53, so ``bincount`` equals the scalar ``ndarray.sum`` exactly,
* the only *inexact* float arithmetic in the scalar pass — the
  contention split, the breakdown normalization, bandwidth division
  and utilization ratios — is replayed here operation-for-operation in
  the same order (channels ascending, BREAKDOWN_KEYS order),
* the pattern peak re-schedules every lane's rows in one lockstep
  replay (:func:`pattern_peak_from_log`), whose block kernel is
  bit-identical to the recurrence of the scalar pass's
  :func:`repro.ssd.metrics.media_pattern_peak`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..nvm.kinds import NVMKind
from ..ssd.geometry import Geometry
from ..ssd.metrics import (
    BREAKDOWN_KEYS,
    PAL_KEYS,
    RunMetrics,
    _client_bandwidth,
)
from ..ssd.metrics import media_pattern_peak
from ..ssd.request import OpCode
from ..ssd.scheduler import (
    INFINITE_BUS,
    INFINITE_HOST,
    Link,
    MediaConsts,
    TxnLog,
    prepass,
)
from .scheduler import Commands, Lane, lockstep
from .segments import distinct_count, measure_sorted, sorted_filter, union_measure

__all__ = ["compute_metrics_batch", "pattern_peak_from_log"]


def _open_loop(n: int, done: list[int]) -> Commands:
    """One command of all ``n`` rows arriving at 0; its completion
    lands in ``done``."""
    done.append((yield 0, n, 0))


def pattern_peak_from_log(
    items: Sequence[tuple[TxnLog, Geometry, NVMKind]],
) -> list[float]:
    """:func:`~repro.ssd.metrics.media_pattern_peak` of every lane.

    Each log's rows, pre-passed for the infinite interface, become one
    open-loop lane of a single :func:`~repro.batch.scheduler.lockstep`
    replay.  A log holding anything but READs takes the scalar
    function.
    """
    peaks = [0.0] * len(items)
    stepped = []
    for i, (log, geom, kind) in enumerate(items):
        if len(log) == 0:
            continue
        if bool((log["op"] == OpCode.READ).all()):
            stepped.append(i)
        else:
            peaks[i] = media_pattern_peak(log, geom, kind)
    if not stepped:
        return peaks
    logs = [items[i][0] for i in stepped]
    lens = np.array([len(log) for log in logs], dtype=np.int64)
    cell = np.repeat(np.arange(len(logs), dtype=np.int64), lens)
    media = MediaConsts.stack(
        [MediaConsts.of(items[i][1], items[i][2]) for i in stepped], cell
    )
    (base,) = prepass(
        media,
        (Link.of(INFINITE_BUS, INFINITE_HOST),),
        *(np.concatenate([log[name] for log in logs])
          for name in ("op", "flat", "nbytes", "group", "pib")),
        same_cmd=cell,
    )
    done: list[list[int]] = [[] for _ in logs]
    offsets = (np.cumsum(lens) - lens).tolist()
    lockstep([base], [
        Lane(items[i][1], 0, off, len(log), _open_loop(len(log), out))
        for i, log, off, out in zip(stepped, logs, offsets, done)
    ])
    for i, log, (end,) in zip(stepped, logs, done):
        payload = int(log["nbytes"][log["kind_code"] == 0].sum())
        peaks[i] = payload * 1e9 / end if end > 0 else 0.0
    return peaks


def compute_metrics_batch(
    items: list[tuple[TxnLog, Geometry, NVMKind]],
) -> list[RunMetrics]:
    """Derive :class:`RunMetrics` for every (log, geom, kind) lane."""
    n_lanes = len(items)
    if n_lanes == 0:
        return []
    logs = [it[0] for it in items]
    lens = np.array([len(log) for log in logs], dtype=np.int64)
    total = int(lens.sum())
    if total == 0:
        return [RunMetrics(0, 0, 0.0) for _ in items]
    pattern_peaks = pattern_peak_from_log(items)

    def cat(name: str) -> np.ndarray:
        return np.concatenate([log[name] for log in logs if len(log)])

    lane_row = np.repeat(np.arange(n_lanes, dtype=np.int64), lens)
    chan = cat("channel")
    pkg = cat("package")
    die = cat("die")
    req = cat("req")
    nbytes = cat("nbytes")
    group = cat("group")
    op = cat("op")
    arrival = cat("arrival")
    cs, ce = cat("cell_start"), cat("cell_end")
    fs, fe = cat("fb_start"), cat("fb_end")
    ss, se = cat("ch_start"), cat("ch_end")
    hs, he = cat("h_start"), cat("h_end")
    md = cat("media_done")

    # dense (lane, resource) and (lane, request) keys
    c_max = max(g.channels for _, g, _ in items)
    p_max = max(g.packages for _, g, _ in items)
    lane_chan = lane_row * c_max + chan
    lane_pkg = lane_row * p_max + pkg
    n_ch_keys = n_lanes * c_max
    n_pk_keys = n_lanes * p_max
    req_counts = np.array(
        [int(log["req"].max()) + 1 if len(log) else 0 for log in logs],
        dtype=np.int64,
    )
    req_base = np.cumsum(req_counts) - req_counts
    lane_req = req + np.repeat(req_base, lens)
    n_req_keys = int(req_counts.sum())

    # union-measure families (all exact int64).  Nested families reuse
    # the outermost family's sort: a sorted subset stays sorted, so the
    # 2-way and 1-way channel families (and the 3-way request family)
    # are boolean filters over the already-sorted superset rows.
    two = lambda a, b: np.concatenate([a, b])  # noqa: E731
    lc3 = np.concatenate([lane_chan, lane_chan, lane_chan])
    ids3, k3, s3, e3 = sorted_filter(
        lc3, np.concatenate([cs, fs, ss]), np.concatenate([ce, fe, se])
    )
    m_cell_fb_chb = measure_sorted(k3, s3, e3, n_ch_keys)
    sub = ids3 < 2 * total  # cell + fb rows
    m_cell_fb = measure_sorted(k3[sub], s3[sub], e3[sub], n_ch_keys)
    sub = ids3 < total  # cell rows only
    m_cell = measure_sorted(k3[sub], s3[sub], e3[sub], n_ch_keys)
    m_inflight = union_measure(lane_chan, arrival, md, n_ch_keys)
    m_active = union_measure(lane_row, arrival, md, n_lanes)
    m_pkg_busy = union_measure(
        two(lane_pkg, lane_pkg), two(cs, fs), two(ce, fe), n_pk_keys
    )
    lr3 = np.concatenate([lane_req, lane_req, lane_req])
    ids4, k4, s4, e4 = sorted_filter(
        np.concatenate([lane_req, lr3]),
        np.concatenate([hs, cs, fs, ss]),
        np.concatenate([he, ce, fe, se]),
    )
    m_host_media_req = measure_sorted(k4, s4, e4, n_req_keys)
    sub = ids4 >= total  # media rows (host rows lead the concat)
    m_media_req = measure_sorted(k4[sub], s4[sub], e4[sub], n_req_keys)
    dma_req = m_host_media_req - m_media_req

    # per-transaction waits by op direction (exact integer values)
    is_read = op == OpCode.READ
    is_write = op == OpCode.WRITE
    is_erase = op == OpCode.ERASE
    cell_wait = np.zeros(total, dtype=np.int64)
    chan_wait = np.zeros(total, dtype=np.int64)
    cell_wait[is_read] = cs[is_read] - arrival[is_read]
    chan_wait[is_read] = (fs[is_read] - ce[is_read]) + (ss[is_read] - fe[is_read])
    cell_wait[is_write] = cs[is_write] - fe[is_write]
    chan_wait[is_write] = (ss[is_write] - he[is_write]) + (fs[is_write] - se[is_write])
    cell_wait[is_erase] = cs[is_erase] - arrival[is_erase]
    cw_ch = np.bincount(lane_chan, weights=cell_wait, minlength=n_ch_keys)
    hw_ch = np.bincount(lane_chan, weights=chan_wait, minlength=n_ch_keys)
    count_ch = np.bincount(lane_chan, minlength=n_ch_keys)

    lane_of_req = np.repeat(np.arange(n_lanes, dtype=np.int64), req_counts)
    dma_lane = np.bincount(lane_of_req, weights=dma_req, minlength=n_lanes)

    # parallelism ingredients, per (lane, request)
    n_chans_req = distinct_count(lane_req, chan, n_req_keys)
    n_dies_req = distinct_count(lane_req, die, n_req_keys)
    mp_req = (
        np.bincount(lane_req, weights=(group >= 0).astype(np.int64),
                    minlength=n_req_keys)
        > 0
    )
    w_req = np.bincount(lane_req, weights=nbytes, minlength=n_req_keys)
    rows_req = np.bincount(lane_req, minlength=n_req_keys)

    out: list[RunMetrics] = []
    for i, (log, geom, kind) in enumerate(items):
        n = len(log)
        if n == 0:
            out.append(RunMetrics(0, 0, 0.0))
            continue
        data_mask = log["kind_code"] == 0
        payload = int(log["nbytes"][data_mask].sum())
        makespan = int(log["done"].max() - log["arrival"].min())
        bw = payload * 1e9 / makespan if makespan > 0 else 0.0
        peak = pattern_peaks[i]

        # utilization over the lane's device-active window; resource
        # intervals lie inside the active window, so the scalar's
        # intersect-with-active is the identity
        denom = float(m_active[i])
        ch_count = geom.channels
        pk_count = geom.packages
        if denom <= 0:
            chan_util = 0.0
            pkg_util = 0.0
        else:
            busy_ch = float(m_inflight[i * c_max : i * c_max + ch_count].sum())
            chan_util = busy_ch / (ch_count * denom)
            busy_pk = float(m_pkg_busy[i * p_max : i * p_max + pk_count].sum())
            pkg_util = busy_pk / (pk_count * denom)

        # six-way breakdown: channels ascending, then the same
        # contention split and normalization as the scalar pass
        totals = dict.fromkeys(BREAKDOWN_KEYS, 0.0)
        for c in range(ch_count):
            key = i * c_max + c
            if count_ch[key] == 0:
                continue
            totals["cell"] += float(m_cell[key])
            totals["flash_bus"] += float(m_cell_fb[key] - m_cell[key])
            totals["channel_bus"] += float(m_cell_fb_chb[key] - m_cell_fb[key])
            wait_excl = float(m_inflight[key] - m_cell_fb_chb[key])
            cw = float(cw_ch[key])
            hw = float(hw_ch[key])
            d = cw + hw
            if d > 0:
                totals["cell_contention"] += wait_excl * cw / d
                totals["channel_contention"] += wait_excl * hw / d
        totals["non_overlapped_dma"] = float(dma_lane[i])
        grand = sum(totals.values())
        if grand <= 0:
            breakdown = {k: 0.0 for k in BREAKDOWN_KEYS}
        else:
            breakdown = {k: v / grand for k, v in totals.items()}

        # PAL1-4 class per request, weighted by bytes
        r0 = int(req_base[i])
        r1 = r0 + int(req_counts[i])
        present = rows_req[r0:r1] > 0
        inter = n_dies_req[r0:r1] > n_chans_req[r0:r1]
        mp = mp_req[r0:r1]
        pal_idx = np.where(
            inter & mp, 3, np.where(mp, 2, np.where(inter, 1, 0))
        )
        sums = np.bincount(pal_idx[present], weights=w_req[r0:r1][present],
                           minlength=4)
        weights = {k: float(sums[j]) for j, k in enumerate(PAL_KEYS)}
        w_total = sum(weights.values())
        if w_total <= 0:
            parallelism = {k: 0.0 for k in PAL_KEYS}
        else:
            parallelism = {k: v / w_total for k, v in weights.items()}

        reads = log["op"] == OpCode.READ
        writes = log["op"] == OpCode.WRITE
        out.append(
            RunMetrics(
                payload_bytes=payload,
                makespan_ns=makespan,
                bandwidth_bytes_per_sec=bw,
                client_bandwidth=_client_bandwidth(log),
                pattern_peak_bytes_per_sec=peak,
                remaining_bytes_per_sec=max(0.0, peak - bw),
                channel_utilization=chan_util,
                package_utilization=pkg_util,
                breakdown=breakdown,
                parallelism=parallelism,
                n_txns=n,
                n_requests=int(len(np.unique(log["req"]))),
                read_bytes=int(log["nbytes"][reads].sum()),
                write_bytes=int(log["nbytes"][writes].sum()),
                overhead_bytes=int(log["nbytes"][~data_mask].sum()),
            )
        )
    return out
