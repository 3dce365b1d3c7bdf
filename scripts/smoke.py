#!/usr/bin/env python3
"""CI smoke test: every scenario driven end to end, the way a user would.

1. **Exhibit** — a matrix exhibit through the CLI with ``--trace`` and
   ``--stats-dir``; the stats CSV has one row per cell.
2. **Lifetime** — an aged sweep (age 0 baseline + age 0.9) with
   ``--trace``, ``--prom`` and ``-o``; the Prometheus export carries
   every lifetime gauge family with age/policy labels, and the aged
   row degrades: fault probability rises from zero, blocks retire and
   the tail latency grows at 90% of rated lifetime.
3. **Netfault** — a two-rate loss sweep with ``--trace``, ``--prom``,
   ``--stats-dir`` and ``-o``; the export carries the netfault families
   and the absorbed per-link counters; the shipped job trace replays at
   speed 0; the delivered factor is 1.0 at loss 0, monotone in the loss
   rate, and a saturating rate is a typed ``unreachable``, never a hang.
4. Every trace renders with ``python -m repro obs report`` and passes
   the >= 95% simulated-time coverage gate.
5. **Service** — the real TCP service runs one job and its Prometheus
   ``{"op": "metrics"}`` endpoint exposes the required series.

Exit code 0 on success; any failure raises and exits non-zero.

Usage:
    PYTHONPATH=src python scripts/smoke.py [--scale 0.2]
"""

from __future__ import annotations

import argparse
import asyncio
import csv
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Prometheus families each sweep's export must expose
LIFETIME_FAMILIES = (
    "repro_lifetime_bandwidth_mb",
    "repro_lifetime_p99_latency_ms",
    "repro_lifetime_waf",
    "repro_lifetime_wear_spread",
    "repro_lifetime_retired_blocks",
    "repro_lifetime_read_fault_p",
    "repro_lifetime_faults_injected",
)
NETFAULT_FAMILIES = (
    "repro_netfault_delivered_factor",
    "repro_netfault_unreachable",
    "repro_netfault_bandwidth_mb",
    "repro_netfault_link_packets_sent",
    "repro_netfault_link_packets_lost",
    "repro_netfault_link_retransmits",
)
#: series the service's Prometheus endpoint must expose after one job
SERVICE_SERIES = (
    "repro_service_completed",
    "repro_service_cache_hits",
    "repro_service_engine_cells",
    "repro_service_latency_p99_s",
)


def say(msg: str) -> None:
    print(f"smoke: {msg}")


def run_cli(args: list[str]) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{SRC}{os.pathsep}" + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, env=env, cwd=ROOT,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"smoke: `repro {' '.join(args)}` failed")
    return proc.stdout


def check_trace(trace: Path, layer: str) -> str:
    """The trace renders, passes the coverage gate, names ``layer``."""
    report = run_cli(["obs", "report", str(trace), "--require-coverage", "0.95"])
    assert "simulated time" in report and "wall time" in report
    assert layer in report, f"{layer!r} rows missing from the obs report"
    return report


def check_prom(prom: Path, families, *needles: str) -> None:
    text = prom.read_text()
    for name in (*families, *needles):
        assert name in text, f"missing {name!r} in the Prometheus export"


def smoke_exhibit(tmp: Path, scale: float) -> None:
    trace, stats_dir = tmp / "exhibit.jsonl", tmp / "stats"
    out = run_cli(["figure7", "--scale", str(scale),
                   "--trace", str(trace), "--stats-dir", str(stats_dir)])
    assert "[trace:" in out, "CLI must print the trace footer"
    assert "[stats:" in out, "CLI must print the stats footer"
    report = check_trace(trace, "cell")
    # the wall domain has a non-empty per-layer breakdown too
    assert any(layer in report for layer in ("cli", "engine", "scheduler")), (
        "wall-domain layer rows missing"
    )
    rows = list(csv.DictReader((stats_dir / "stats.csv").open()))
    cell_rows = [r for r in rows if r["event"] == "cell"]
    assert cell_rows, "stats.csv must have per-cell rows"
    assert all(r["label"] and r["kind"] for r in cell_rows)
    say(f"exhibit CLI + trace + stats.csv OK ({len(cell_rows)} cell rows)")


def smoke_lifetime(tmp: Path, scale: float) -> None:
    trace, prom, out_dir = tmp / "lifetime.jsonl", tmp / "lifetime.prom", tmp / "lt"
    out = run_cli(["lifetime", "--scale", str(scale),
                   "--labels", "CNL-UFS", "--kinds", "TLC", "--ages", "0,0.9",
                   "--trace", str(trace), "--prom", str(prom), "-o", str(out_dir)])
    assert "Device lifetime sweep" in out, "CLI must print the sweep table"
    assert "[lifetime: 2 cells" in out, "expected the 2-cell footer"
    assert "[trace:" in out, "CLI must print the trace footer"
    assert (out_dir / "lifetime.txt").exists(), "-o must write lifetime.txt"
    check_trace(trace, "cell")
    check_prom(prom, LIFETIME_FAMILIES, 'age="0.90"', 'policy="dynamic"')
    say("lifetime CLI + trace + Prometheus export OK")

    from repro.experiments import Cell, Workload, run_cell
    from repro.lifetime import WearPolicy

    workload = Workload(
        panels=max(2, int(round(12 * scale))), panel_bytes=8 * (1 << 20)
    )
    fresh, aged = (
        run_cell(Cell("CNL-UFS", "TLC", workload, age=age,
                      policy=WearPolicy(kind="dynamic")))
        for age in (0.0, 0.9)
    )
    assert fresh.read_fault_p == 0.0 and fresh.retired_blocks == 0
    assert aged.read_fault_p > 0.0, "aged device must see ECC retries"
    assert aged.retired_blocks > 0, "90% age must retire blocks"
    assert aged.p99_latency_ms > fresh.p99_latency_ms, (
        "retries must show up in tail latency"
    )
    say(f"lifetime degradation OK (retired={aged.retired_blocks}, "
        f"p99 {fresh.p99_latency_ms:.3f} -> {aged.p99_latency_ms:.3f} ms)")


def smoke_netfault(tmp: Path, scale: float) -> None:
    trace, prom, out_dir = tmp / "netfault.jsonl", tmp / "netfault.prom", tmp / "nf"
    stats = tmp / "net"
    out = run_cli(["netfault", "--scale", str(scale), "--loss-rates", "0,0.05",
                   "--labels", "CNL-UFS,ION-GPFS", "--kinds", "SLC",
                   "--trace", str(trace), "--prom", str(prom),
                   "--stats-dir", str(stats), "-o", str(out_dir)])
    assert "CNL vs ION under fabric degradation" in out, \
        "CLI must print the sweep table"
    assert "[netfault: 4 cells" in out, "expected the 4-cell footer"
    assert "[trace:" in out, "CLI must print the trace footer"
    assert (out_dir / "netfault.txt").exists(), "-o must write netfault.txt"
    net_csv = stats / "net_stats.csv"
    assert net_csv.exists(), "--stats-dir must write net_stats.csv"
    assert net_csv.read_text().startswith("t_ns,link,"), "CSV header missing"
    check_trace(trace, "net")
    check_prom(prom, NETFAULT_FAMILIES, 'loss_rate="0.05"',
               'repro_netfault_delivered_factor{loss_rate="0"} 1.0')
    say("netfault CLI + trace + Prometheus export OK")

    out = run_cli(["netfault", "--replay", str(ROOT / "examples/trace_replay.jsonl"),
                   "--speed", "0", "--cache-dir", str(tmp / "cache")])
    assert "trace replay: 5 jobs" in out, "sample trace must replay 5 jobs"
    assert "0 failed" in out, "no job in the sample trace may fail"
    say("netfault trace replay OK")

    from repro.cluster.ion import IonServiceConfig
    from repro.netfault import calibrate_fabric

    cfg = IonServiceConfig(bytes_per_client=8 * (1 << 20))
    factors = [
        calibrate_fabric(rate, cfg=cfg).delivered_factor
        for rate in (0.0, 0.05, 0.2)
    ]
    assert factors[0] == 1.0, "loss 0 must be bit-identical to healthy"
    assert factors == sorted(factors, reverse=True), (
        f"delivered factor must be monotone in loss rate: {factors}"
    )
    assert factors[1] < 1.0, "5% loss must cost delivered bandwidth"
    saturated = calibrate_fabric(0.98, cfg=cfg)
    assert saturated.unreachable, (
        "a saturating loss rate must surface as typed unreachability"
    )
    assert saturated.delivered_factor == 0.0
    say(f"netfault degradation OK (factors={factors}, saturated -> unreachable)")


async def smoke_service_metrics() -> None:
    from repro.experiments import Workload
    from repro.service import (
        CellJob,
        ServiceClient,
        ServiceServer,
        SimulationService,
    )

    service = SimulationService(queue_limit=8, max_concurrency=1)
    server = ServiceServer(service, "127.0.0.1", 0)
    host, port = await server.start()
    try:
        client = await ServiceClient.connect(host, port)
        try:
            await client.submit(
                CellJob(
                    label="CNL-EXT4", kind="TLC",
                    workload=Workload(panels=2, panel_bytes=64 * 1024),
                    trace_id="smoke",
                ).to_dict()
            )
            text = await client.metrics()
        finally:
            await client.close()
    finally:
        await server.close()

    assert text.strip(), "Prometheus exposition must be non-empty"
    for series in SERVICE_SERIES:
        assert series in text, f"missing Prometheus series {series}"
    assert "# TYPE repro_service_completed counter" in text
    say(f"service Prometheus endpoint OK ({len(text.splitlines())} lines)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.2,
                        help="workload scale for the CLI runs (default 0.2)")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as tmp:
        smoke_exhibit(Path(tmp), args.scale)
        smoke_lifetime(Path(tmp), args.scale)
        smoke_netfault(Path(tmp), args.scale)
    asyncio.run(smoke_service_metrics())
    say("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
