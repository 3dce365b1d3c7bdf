"""Command-line reproduction harness.

Usage::

    python -m repro list                    # available exhibits
    python -m repro figure7                 # regenerate one exhibit
    python -m repro all                     # regenerate everything
    python -m repro headline                # the headline claims
    python -m repro figure7 --scale 0.5     # smaller workload
    python -m repro all -o results/         # write exhibits to a dir
    python -m repro all --workers 8         # parallel matrix cells
    python -m repro all --cache-dir ~/.cache/repro   # reuse across runs
    python -m repro figure7 --faults        # deterministic fault injection
    python -m repro serve --port 8077       # simulation-as-a-service
    python -m repro lint                    # determinism/invariant analyzer
    python -m repro flow                    # whole-program dataflow analyzer
    python -m repro table2 --trace t.jsonl  # record an obs trace
    python -m repro obs report t.jsonl      # per-layer time breakdown
    python -m repro lifetime                # aged-device capacity sweep
    python -m repro lifetime --ages 0,0.9 --policy static --prom m.txt
    python -m repro netfault                # lossy-fabric degradation sweep
    python -m repro netfault --loss-rates 0,0.05 --stats-dir stats/
    python -m repro netfault --replay examples/trace_replay.jsonl

Each exhibit prints the same rows/series the paper plots; ``--out``
additionally writes one text file per exhibit.  The matrix exhibits
(figures 7-10, headline) share one :class:`MatrixEngine`: ``--workers``
fans independent (config, kind) cells out over a process pool
(``--workers 0`` auto-detects), and an in-memory result cache dedupes
the cells the figures have in common; ``--cache-dir`` persists it.

``--faults`` overlays the default chaos regime
(:meth:`repro.faults.FaultSpec.default_chaos`) on every matrix cell:
seeded, deterministic device read-retries and die failures (plus pool
worker chaos), recovered automatically and reported in a fault footer.
``--fault-seed`` (or the ``REPRO_FAULT_SEED`` env var) pins the seed so
two runs inject byte-identical faults.

Options the commands share (``--scale``, ``--workers``,
``--cache-dir``, ``--trace``, ``-o``, ``--faults``/``--fault-seed``,
``--backend``, ``--stats-dir``, ``--labels``/``--kinds``, ``--prom``)
are declared once, in argparse parent parsers; comma-separated axes
(``--labels``, ``--kinds``, ``--ages``, ``--loss-rates``) are parsed
once, a malformed one being a usage error (exit 2).

``serve`` starts the long-running JSON-lines TCP service
(:mod:`repro.service`): typed cell/matrix/figure/headline jobs, bounded
admission queue with backpressure, in-flight coalescing, streaming
progress and a ``status`` metrics endpoint.  Talk to it with
:class:`repro.service.ServiceClient` (see
``examples/service_quickstart.py``).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from .experiments import (
    MatrixEngine,
    ResultCache,
    Workload,
    anticache_experiment,
    compute_headline,
    figure1,
    figure6,
    figure7,
    figure8,
    figure9,
    figure10,
    table1,
    table2,
)

MiB = 1024 * 1024


def _workload(scale: float, stream: str = "eigensolver") -> Workload:
    return Workload(
        panels=max(2, int(round(12 * scale))),
        panel_bytes=8 * MiB,
        # the checkpoint stream needs several double-buffered rewrites
        # per region before GC churn separates the leveling policies
        iterations=4 if stream == "checkpoint" else 1,
        stream=stream,
    )


def _exhibits(scale: float, engine: MatrixEngine):
    w = _workload(scale)
    return {
        "figure1": lambda: figure1().text,
        "table1": lambda: table1().text,
        "table2": lambda: table2().text,
        "figure6": lambda: figure6().text,
        "figure7": lambda: figure7(w, engine=engine).text,
        "figure8": lambda: figure8(w, engine=engine).text,
        "figure9": lambda: figure9(w, engine=engine).text,
        "figure10": lambda: figure10(w, engine=engine).text,
        "headline": lambda: compute_headline(w, engine=engine).render(),
        "anticache": lambda: anticache_experiment().render(),
    }


# -- shared options ------------------------------------------------------
# Each option is declared once, in the parent parser of the commands
# that share it.


def _axis(cast=str):
    """argparse type for a comma-separated axis; a bad item is a usage error."""

    def parse(text: str) -> tuple:
        try:
            return tuple(cast(s.strip()) for s in text.split(",") if s.strip())
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"not a comma-separated list of numbers: {text!r}"
            ) from None

    parse.__name__ = "list"
    return parse


def _parent(*options: tuple[tuple, dict]) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(add_help=False)
    for flags, kwargs in options:
        parser.add_argument(*flags, **kwargs)
    return parser


_ENGINE = _parent(
    (("--workers",), dict(
        type=int, default=1,
        help="cell worker processes (0 = auto-detect, default 1)",
    )),
    (("--cache-dir",), dict(
        type=Path, default=None,
        help="persist cell results on disk (default: in-memory only)",
    )),
)
_RUN = _parent(
    (("--scale",), dict(
        type=float, default=1.0,
        help="workload scale factor (default 1.0 = 96 MiB/client)",
    )),
    (("--trace",), dict(
        type=Path, default=None, metavar="PATH",
        help="record an observability trace (JSON lines) to PATH; "
        "inspect with 'python -m repro obs report PATH'",
    )),
    (("-o", "--out"), dict(
        type=Path, default=None,
        help="directory to write exhibit text files into",
    )),
)
_FAULTS = _parent(
    (("--faults",), dict(
        action="store_true",
        help="inject the default seeded chaos regime into every cell "
        "(lifetime: under the age-coupled rates)",
    )),
    (("--fault-seed",), dict(
        type=int, default=None,
        help="fault-injection seed (default: $REPRO_FAULT_SEED or 0); "
        "implies --faults",
    )),
)
_BACKEND = _parent(
    (("--backend",), dict(
        choices=("batch", "scalar"), default="batch",
        help="matrix-cell execution backend: the columnar batch kernel "
        "(default, bit-identical to scalar) or the frozen scalar reference",
    )),
)
_STATS = _parent(
    (("--stats-dir",), dict(
        type=Path, default=None, metavar="DIR",
        help="write stats under DIR: per-job/per-cell stats.csv, or the "
        "per-packet net_stats.csv for netfault",
    )),
)
_AXES = _parent(
    (("--labels",), dict(
        type=_axis(), default=None,
        help="comma-separated config labels (default: lifetime, the "
        "device sweep + ION-GPFS; netfault, all Table-2 rows)",
    )),
    (("--kinds",), dict(
        type=_axis(), default=None,
        help="comma-separated NVM kinds (default: SLC,MLC,TLC,PCM)",
    )),
)
_PROM = _parent(
    (("--prom",), dict(
        type=Path, default=None, metavar="PATH",
        help="write the sweep's metrics in Prometheus text format to PATH",
    )),
)


def _parser(prog: str, description: str, *parents) -> argparse.ArgumentParser:
    return argparse.ArgumentParser(
        prog=prog, description=description, parents=list(parents)
    )


def _cache(parser: argparse.ArgumentParser, args) -> ResultCache:
    try:
        return ResultCache(args.cache_dir)
    except NotADirectoryError as exc:
        parser.error(f"--cache-dir: {exc}")


def _stats(args):
    """The per-job/per-cell ``stats.csv`` recorder ``--stats-dir`` asks for."""
    if args.stats_dir is None:
        return None
    from .obs import CsvStatsRecorder

    return CsvStatsRecorder(args.stats_dir)


def _fault_spec(args):
    if not (args.faults or args.fault_seed is not None):
        return None
    from .faults import FaultSpec

    fault_seed = args.fault_seed
    if fault_seed is None:
        fault_seed = int(os.environ.get("REPRO_FAULT_SEED", "0"))
    return FaultSpec.default_chaos(fault_seed)


def _engine(args, cache: ResultCache, **kwargs) -> MatrixEngine:
    return MatrixEngine(
        workers=None if args.workers == 0 else args.workers,
        cache=cache,
        backend=getattr(args, "backend", "batch"),
        **kwargs,
    )


def _install_tracer(args):
    if args.trace is None:
        return None
    from . import obs

    return obs.install(obs.Tracer())


def _write_trace(args, tracer) -> None:
    if tracer is None:
        return
    from . import obs

    n_spans = obs.write_jsonl(tracer, args.trace)
    obs.uninstall()
    print(
        f"[trace: {n_spans} spans -> {args.trace}; "
        f"view with 'python -m repro obs report {args.trace}']"
    )


def _run_sweep(args, name: str, sweep, footer) -> int:
    """Run one sweep subcommand end to end.

    Runs ``sweep()`` under the optional tracer, prints its text and
    ``footer(report, seconds)`` lines, then writes ``-o``, ``--prom``
    and the trace.  A bad label, kind or axis value exits 2.
    """
    tracer = _install_tracer(args)
    t0 = time.time()
    try:
        report = sweep()
    except (KeyError, ValueError) as exc:
        if tracer is not None:
            from . import obs

            obs.uninstall()
        print(f"{name} sweep: {exc}", file=sys.stderr)
        return 2
    print(report.text)
    for line in footer(report, time.time() - t0):
        print(line)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / f"{name}.txt").write_text(report.text + "\n")
    if args.prom is not None:
        from .obs.export import prometheus_text
        from .obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        report.publish(registry)
        args.prom.write_text(prometheus_text(registry))
        print(f"[metrics -> {args.prom}]")
    _write_trace(args, tracer)
    return 0


# -- subcommands -----------------------------------------------------------


def _serve_main(argv: list[str]) -> int:
    """``python -m repro serve``: run the simulation service."""
    import asyncio

    parser = _parser(
        "python -m repro serve",
        "Serve simulation jobs over a JSON-lines TCP endpoint.",
        _ENGINE, _STATS,
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=8077, help="bind port (0 = ephemeral)"
    )
    parser.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        help="admission queue bound; beyond it jobs are rejected (default 64)",
    )
    parser.add_argument(
        "--max-concurrency",
        type=int,
        default=4,
        help="jobs executing simultaneously (default 4)",
    )
    args = parser.parse_args(argv)

    from .experiments.parallel import detect_workers
    from .service import ServiceServer, SimulationService

    cache = _cache(parser, args)
    stats = _stats(args)

    async def _run() -> None:
        service = SimulationService(
            workers_per_job=detect_workers() if args.workers == 0 else args.workers,
            cache=cache,
            queue_limit=args.queue_limit,
            max_concurrency=args.max_concurrency,
            stats=stats,
        )
        server = ServiceServer(service, args.host, args.port)
        host, port = await server.start()
        print(
            f"repro service on {host}:{port} "
            f"(queue={args.queue_limit}, concurrency={args.max_concurrency}, "
            f"workers/job={service.executor.workers_per_job})",
            flush=True,
        )
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            print("draining in-flight jobs...", flush=True)
            await server.close()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    return 0


def _lifetime_main(argv: list[str]) -> int:
    """``python -m repro lifetime``: the aged-device capacity sweep."""
    parser = _parser(
        "python -m repro lifetime",
        "Sweep config x NVM kind x device age: bandwidth, p99 latency, "
        "write amplification and wear spread on devices fast-forwarded to "
        "a fraction of rated lifetime.",
        _RUN, _ENGINE, _FAULTS, _AXES, _PROM,
    )
    parser.add_argument(
        "--ages",
        type=_axis(float),
        default=None,
        help="comma-separated lifetime fractions in [0,1) (default: 0,0.5,0.9)",
    )
    parser.add_argument(
        "--policy",
        choices=("none", "dynamic", "static"),
        default="dynamic",
        help="wear-leveling policy (default dynamic)",
    )
    parser.add_argument(
        "--workload",
        choices=("eigensolver", "checkpoint"),
        default="eigensolver",
        help="request stream: the read-dominated eigensolver sweep "
        "(default) or the write-heavy double-buffered checkpoint stream "
        "that separates wear-leveling policies at exhibit scale",
    )
    args = parser.parse_args(argv)

    from .lifetime import (
        DEFAULT_AGES,
        LIFETIME_KINDS,
        LIFETIME_LABELS,
        WearPolicy,
        lifetime_sweep,
    )

    engine = _engine(args, _cache(parser, args))

    def sweep():
        return lifetime_sweep(
            args.labels or LIFETIME_LABELS,
            kinds=args.kinds or LIFETIME_KINDS,
            ages=args.ages or DEFAULT_AGES,
            policy=WearPolicy(kind=args.policy),
            workload=_workload(args.scale, stream=args.workload),
            base_faults=_fault_spec(args),
            engine=engine,
        )

    return _run_sweep(
        args, "lifetime", sweep,
        lambda report, secs: [
            f"[lifetime: {len(report.results)} cells, {secs:.1f}s]"
        ],
    )


def _netfault_main(argv: list[str]) -> int:
    """``python -m repro netfault``: the lossy-fabric exhibit + replay."""
    parser = _parser(
        "python -m repro netfault",
        "Sweep packet-loss rate x config x NVM kind over the packetized "
        "go-back-N fabric and re-plot the CNL-vs-ION gap; or replay a "
        "recorded job trace against the simulation service.",
        _RUN, _ENGINE, _BACKEND, _STATS, _AXES, _PROM,
    )
    parser.add_argument(
        "--loss-rates",
        type=_axis(float),
        default="0,0.01,0.05,0.2",
        help="comma-separated per-packet loss rates in [0,1] "
        "(default 0,0.01,0.05,0.2)",
    )
    parser.add_argument(
        "--net-seed",
        type=int,
        default=0,
        help="per-packet loss-oracle seed (default 0)",
    )
    parser.add_argument(
        "--mtu",
        type=int,
        default=4096,
        help="frame payload size in bytes (default 4096)",
    )
    parser.add_argument(
        "--replay",
        type=Path,
        default=None,
        metavar="TRACE",
        help="replay a recorded JSONL job trace (jobs with "
        "arrival_offset_s) against an in-process service instead of "
        "sweeping loss rates",
    )
    parser.add_argument(
        "--speed",
        type=float,
        default=1.0,
        help="replay clock multiplier (2 = twice as fast, 0 = all at "
        "once; default 1)",
    )
    args = parser.parse_args(argv)

    if args.replay is not None:
        from .netfault.replay import run_replay
        from .service.jobs import JobValidationError

        try:
            replayed = run_replay(
                args.replay,
                workers=max(1, args.workers),
                speed=args.speed,
                cache_dir=args.cache_dir,
            )
        except (OSError, JobValidationError) as exc:
            print(f"netfault replay: {exc}", file=sys.stderr)
            return 2
        print(replayed.text())
        return 0 if replayed.failed == 0 else 1

    from .netfault.exhibit import netfault_exhibit
    from .netfault.stats import NetStatsRecorder

    engine = _engine(args, _cache(parser, args))
    stats = NetStatsRecorder(args.stats_dir)

    def sweep():
        return netfault_exhibit(
            _workload(args.scale),
            engine=engine,
            loss_rates=args.loss_rates,
            labels=args.labels,
            kinds=args.kinds,
            net_seed=args.net_seed,
            mtu_bytes=args.mtu,
            stats=stats,
        )

    def footer(report, secs):
        yield (
            f"[netfault: {len(report.results)} cells over "
            f"{len(report.loss_rates)} loss rates, {secs:.1f}s]"
        )
        if args.stats_dir is not None:
            s = stats.summary()
            yield (
                f"[net stats: {s['packets_sent']} packets "
                f"({s['packets_lost']} lost, {s['retransmits']} retransmits) "
                f"-> {args.stats_dir}/net_stats.csv]"
            )
        stats.close()

    return _run_sweep(args, "netfault", sweep, footer)


def _delegate(module: str):
    """A subcommand whose parser lives in ``module`` (imported lazily)."""

    def run(argv: list[str]) -> int:
        from importlib import import_module

        return import_module(module, __package__).main(argv)

    return run


_SUBCOMMANDS = {
    "serve": _serve_main,
    "lifetime": _lifetime_main,
    "netfault": _netfault_main,
    "lint": _delegate(".lint.cli"),
    "flow": _delegate(".flow.cli"),
    "obs": _delegate(".obs.report"),
}


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in _SUBCOMMANDS:
        return _SUBCOMMANDS[argv[0]](argv[1:])
    parser = _parser(
        "python -m repro",
        "Regenerate the paper's tables and figures from the simulation.",
        _RUN, _ENGINE, _BACKEND, _FAULTS, _STATS,
    )
    parser.add_argument(
        "exhibit",
        help="exhibit name, 'all', 'list', or 'serve'",
    )
    args = parser.parse_args(argv)

    cache = _cache(parser, args)
    faults = _fault_spec(args)
    tracer = _install_tracer(args)
    stats = _stats(args)
    engine = _engine(args, cache, faults=faults, stats=stats)
    exhibits = _exhibits(args.scale, engine)
    if args.exhibit == "list":
        print("\n".join(exhibits))
        print("lifetime  (subcommand: python -m repro lifetime --help)")
        print("netfault  (subcommand: python -m repro netfault --help)")
        return 0
    names = list(exhibits) if args.exhibit == "all" else [args.exhibit]
    unknown = [n for n in names if n not in exhibits]
    if unknown:
        print(f"unknown exhibit(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(exhibits)}", file=sys.stderr)
        return 2

    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
    for name in names:
        t0 = time.time()
        if tracer is not None:
            with tracer.wall_span("cli", name):
                text = exhibits[name]()
        else:
            text = exhibits[name]()
        elapsed = time.time() - t0
        print(text)
        print(f"[{name}: {elapsed:.1f}s]\n")
        if args.out is not None:
            (args.out / f"{name}.txt").write_text(text + "\n")
    if engine.timings:
        cached = sum(1 for t in engine.timings if t.cached)
        print(
            f"[matrix engine: {len(engine.timings)} cells ({cached} cached), "
            f"{engine.total_seconds:.1f}s cell time, {engine.workers} workers]"
        )
        if engine.batch_stats["batch_cells"]:
            print(
                f"[batch kernel: {engine.batch_stats['batch_cells']} cells "
                f"columnar, {engine.batch_stats['fallback_cells']} scalar "
                f"fallbacks, {engine.batch_stats['batch_seconds']:.1f}s]"
            )
        cstats = engine.cache_stats()
        if cstats is not None and (cstats["hits"] or cstats["misses"]):
            print(
                f"[result cache: {cstats['hits']} hits "
                f"({cstats['memory_hits']} mem / {cstats['disk_hits']} disk), "
                f"{cstats['misses']} misses, {cstats['puts']} puts, "
                f"hit ratio {cstats['hit_ratio']:.0%}]"
            )
    if faults is not None:
        fs = engine.fault_stats
        print(
            f"[fault injection: seed {faults.seed}, "
            f"{fs['faults_injected']} device faults "
            f"({fs['device_retries']} retries), "
            f"{fs['worker_crashes']} worker crashes, "
            f"{fs['cell_timeouts']} cell timeouts, "
            f"{fs['cell_retries']} cells retried — all recovered]"
        )
    _write_trace(args, tracer)
    if stats is not None:
        s = stats.summary()
        stats.close()
        print(
            f"[stats: {s['cells']} cell rows ({s['cells_cached']} cached), "
            f"{s['jobs']} job rows -> {args.stats_dir}/stats.csv]"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
