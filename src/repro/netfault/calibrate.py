"""Packetized ION co-simulation: the fabric-degradation calibrator.

The Table-2 experiment matrix reaches the ION analytically
(:func:`repro.core.architecture.make_ion_device` builds a calibrated
GPFS host path), so fabric loss cannot be injected there directly.
This module runs the explicit DES pipeline of
:func:`repro.cluster.ion.simulate_ion_service` — clients, NSD threads,
SSD, shared IB port (:func:`repro.cluster.ion.ion_pipeline`) — with
the port swapped for a
:class:`~repro.netfault.link.PacketLink`, and reports the **delivered
bandwidth factor**: degraded aggregate bandwidth over the healthy run's.

That factor is exactly 1.0 at ``loss_rate == 0`` (the packet link is
bit-identical to the bulk wire) and scales the analytic ION path's GPFS
client efficiency in the exhibit, so the CNL-vs-ION gap can be re-drawn
under fabric degradation without forking the experiment pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from ..cluster.ion import IonServiceConfig, ion_pipeline, simulate_ion_service
from ..faults.errors import LinkUnreachable
from .link import PacketLink
from .spec import NetFaultSpec
from .stats import NetStatsRecorder

__all__ = ["FabricCalibration", "simulate_packet_ion", "calibrate_fabric"]


@dataclass
class FabricCalibration:
    """Outcome of one lossy-fabric calibration run."""

    loss_rate: float
    healthy_mb: float  # per-client MB/s of the loss-free co-sim
    degraded_mb: float  # per-client MB/s under the netfault regime
    delivered_factor: float  # degraded / healthy, 1.0 when healthy
    unreachable: bool  # the ARQ budget was exhausted (typed, no hang)
    link: dict  # PacketLink.snapshot() of the degraded run


def simulate_packet_ion(
    cfg: IonServiceConfig = IonServiceConfig(),
    netfault: Optional[NetFaultSpec] = None,
    fault_model=None,
    stats: Optional[NetStatsRecorder] = None,
):
    """The CN<->ION pipeline of :func:`simulate_ion_service`, but with
    the shared IB port packetized.  Returns ``(report, link)``; raises
    :class:`~repro.faults.errors.LinkUnreachable` out of the DES when
    the retransmission budget is exhausted."""
    spec = NetFaultSpec() if netfault is None else netfault
    return ion_pipeline(
        cfg,
        lambda sim, wire: PacketLink(
            sim, wire, spec, name="ib-port", fault_model=fault_model, stats=stats
        ),
    )


@lru_cache(maxsize=16)
def _healthy_mb(cfg: IonServiceConfig) -> float:
    """Per-client MB/s of the loss-free bulk-wire co-sim: the same for
    every loss rate and seed, so run once per (frozen) configuration."""
    return simulate_ion_service(cfg).per_client_mb


def calibrate_fabric(
    loss_rate: float,
    net_seed: int = 0,
    mtu_bytes: int = 4096,
    cfg: IonServiceConfig = IonServiceConfig(),
    stats: Optional[NetStatsRecorder] = None,
) -> FabricCalibration:
    """Delivered-bandwidth factor of the GPFS fabric at one loss rate.

    The healthy baseline comes from the stock bulk-wire co-sim (which
    the loss-0 packet path matches bit-for-bit); the degraded number
    from the packetized run; the baseline runs once per ``cfg``.  Budget
    exhaustion is caught and reported as ``unreachable`` with factor
    0.0 — typed, never a hang.
    """
    healthy_mb = _healthy_mb(cfg)
    spec = NetFaultSpec(seed=net_seed, loss_rate=loss_rate,
                        mtu_bytes=mtu_bytes)
    try:
        degraded, port = simulate_packet_ion(cfg, spec, stats=stats)
    except LinkUnreachable:
        return FabricCalibration(
            loss_rate=loss_rate, healthy_mb=healthy_mb, degraded_mb=0.0,
            delivered_factor=0.0, unreachable=True, link={},
        )
    degraded_mb = degraded.per_client_mb
    factor = degraded_mb / healthy_mb if healthy_mb > 0 else 0.0
    if loss_rate == 0.0:
        factor = 1.0  # bit-identical by construction; avoid fp wobble
    return FabricCalibration(
        loss_rate=loss_rate, healthy_mb=healthy_mb, degraded_mb=degraded_mb,
        delivered_factor=min(1.0, factor), unreachable=False,
        link=port.snapshot(),
    )
