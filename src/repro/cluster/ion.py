"""ION GPFS service co-simulation (Figure 2a, from first principles).

The experiment harness models the CN-to-ION path analytically
(:func:`repro.interconnect.network_path`).  This module builds the same
path out of DES processes — compute-node clients issuing GPFS RPCs, a
shared InfiniBand port, NSD service threads, and the ION's SSD served
at its pattern rate — so the analytic calibration can be checked
against an explicit queueing simulation.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable

from ..interconnect.links import INFINIBAND_QDR_4X, LinkSpec
from ..sim import Resource, Simulator
from .network import SharedLink

__all__ = [
    "IonServiceConfig",
    "IonServiceReport",
    "ion_pipeline",
    "simulate_ion_service",
]

KiB = 1024
MiB = 1024 * 1024


@dataclass(frozen=True)
class IonServiceConfig:
    """Shape of one ION serving OoC compute nodes over GPFS."""

    clients: int = 2
    bytes_per_client: int = 64 * MiB
    rpc_bytes: int = 128 * KiB  # GPFS sub-block service unit
    rpc_overhead_ns: int = 60_000  # client+server software stack per RPC
    nsd_threads: int = 8  # concurrent service threads per ION
    ssd_bytes_per_sec: float = 2.2e9  # device rate under the GPFS pattern
    link: LinkSpec = INFINIBAND_QDR_4X
    #: payload efficiency of the GPFS transport on the wire (IPoIB /
    #: verbs framing beyond the link's own packetization)
    transport_efficiency: float = 0.50
    client_window: int = 16  # outstanding RPCs per client (prefetch)


@dataclass
class IonServiceReport:
    """Outcome of the co-simulation."""

    per_client_bytes_per_sec: dict[int, float] = field(default_factory=dict)
    aggregate_bytes_per_sec: float = 0.0
    link_utilization: float = 0.0
    makespan_ns: int = 0

    @property
    def per_client_mb(self) -> float:
        if not self.per_client_bytes_per_sec:
            return 0.0
        vals = list(self.per_client_bytes_per_sec.values())
        return sum(vals) / len(vals) / 1e6


def simulate_ion_service(cfg: IonServiceConfig = IonServiceConfig()) -> IonServiceReport:
    """Run the CN<->ION request/response pipeline to completion."""
    report, _ = ion_pipeline(
        cfg, lambda sim, wire: SharedLink(sim, wire, name="ib-port")
    )
    return report


def ion_pipeline(
    cfg: IonServiceConfig, port: Callable[[Simulator, LinkSpec], SharedLink]
) -> tuple[IonServiceReport, SharedLink]:
    """Run the CN<->ION pipeline over the shared IB port that ``port``
    builds from the simulator and the wire (the link scaled to the
    transport's payload efficiency).  Returns the report and the port."""
    if cfg.clients < 1 or cfg.bytes_per_client < cfg.rpc_bytes:
        raise ValueError("need at least one client and one RPC of data")
    sim = Simulator()
    wire = dataclasses.replace(
        cfg.link,
        packet_efficiency=cfg.link.packet_efficiency * cfg.transport_efficiency,
    )
    link = port(sim, wire)
    nsd = Resource(sim, capacity=cfg.nsd_threads, name="nsd-threads")
    ssd = Resource(sim, capacity=1, name="ion-ssd")
    ssd_ns_per_rpc = int(cfg.rpc_bytes * 1e9 / cfg.ssd_bytes_per_sec)
    finish: dict[int, int] = {}

    def rpc(client: int):
        """One GPFS read RPC: request -> service thread -> SSD -> reply."""
        yield sim.timeout(cfg.rpc_overhead_ns)
        yield nsd.acquire()
        try:
            yield ssd.acquire()
            try:
                yield sim.timeout(ssd_ns_per_rpc)
            finally:
                ssd.release()
            yield from link.transfer(cfg.rpc_bytes)
        finally:
            nsd.release()

    def client_proc(client: int):
        n_rpcs = cfg.bytes_per_client // cfg.rpc_bytes
        outstanding = []
        for _i in range(n_rpcs):
            while len(outstanding) >= cfg.client_window:
                done = outstanding.pop(0)
                if not done.triggered:
                    yield done
            outstanding.append(sim.process(rpc(client)))
        for p in outstanding:
            if not p.triggered:
                yield p
        finish[client] = sim.now

    for c in range(cfg.clients):
        sim.process(client_proc(c))
    end = sim.run()

    report = IonServiceReport(makespan_ns=end)
    for c, t in finish.items():
        report.per_client_bytes_per_sec[c] = (
            cfg.bytes_per_client * 1e9 / t if t > 0 else 0.0
        )
    report.aggregate_bytes_per_sec = (
        cfg.clients * cfg.bytes_per_client * 1e9 / end if end > 0 else 0.0
    )
    report.link_utilization = link.utilization(end)
    return report, link
