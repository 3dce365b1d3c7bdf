"""The benchmark's four workloads.

Each workload generates its inputs from the seed once, then runs any
number of identical *passes*.  ``setup_pass`` puts the program into the
state a fresh process would see (untimed set-up); ``run_pass`` is the
timed work and returns a digest of every output it produced, so the
runner can check that passes agree with each other and with the
recorded digests.  README.md says why each workload exists.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
import os
import random
import shutil
import tarfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

import repro.lifetime
from repro.experiments import DEFAULT_WORKLOAD, TABLE2_CONFIGS, MatrixEngine, ResultCache
from repro.experiments import Workload as SimWorkload
from repro.experiments.runner import _workload_traces
from repro.interconnect import bridged_pcie2
from repro.lifetime import AgingSpec, WearFTL, WearPolicy
from repro.lint import runner as lint_runner
from repro.lint.baseline import Baseline
from repro.lint.context import LintConfig
from repro.nvm import ONFI3_SDR400, SLC
from repro.nvm.endurance import wear_report
from repro.nvm.kinds import KINDS
from repro.service import CellJob, MatrixJob, NetfaultJob, SimulationService
from repro.service.jobs import LifetimeJob
from repro.ssd import CommandGroup, DeviceCommand, Geometry, PosixRequest, SSDevice

MiB = 1024 * 1024
KIND_NAMES = tuple(k.name for k in KINDS)
LABELS = tuple(c.label for c in TABLE2_CONFIGS)

#: the paper's headline: CNL-NATIVE-16 over ION-GPFS, averaged over media
HEADLINE_RATIO = 10.3


def digest(obj) -> str:
    """Short SHA-256 of ``obj`` as canonical JSON."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_plain)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _plain(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    if dataclasses.is_dataclass(obj):
        return dataclasses.asdict(obj)
    raise TypeError(f"cannot digest {type(obj).__name__}")


def headline_error_pct(bandwidth: dict[tuple[str, str], float]) -> float:
    """|mean over media of NATIVE-16/ION bandwidth - 10.3| / 10.3, in %."""
    ratios = [
        bandwidth[("CNL-NATIVE-16", k)] / bandwidth[("ION-GPFS", k)]
        for k in KIND_NAMES
    ]
    mean = sum(ratios) / len(ratios)
    return abs(mean - HEADLINE_RATIO) / HEADLINE_RATIO * 100.0


def headline_cells_error_pct(seed: int) -> float:
    """The headline error from only the eight cells it needs."""
    cells = [(label, k) for label in ("CNL-NATIVE-16", "ION-GPFS") for k in KIND_NAMES]
    results = MatrixEngine(workers=1).run_cells(
        cells, DEFAULT_WORKLOAD, seed, with_remaining=False
    )
    return headline_error_pct({c: r.bandwidth_mb for c, r in results.items()})


@dataclass
class PassResult:
    """Everything one timed pass produced."""

    #: operation id -> digest of that operation's outputs
    ops: dict[str, str]
    #: host seconds per operation, submit to result
    latencies: list[float]
    #: when each operation started (``time.perf_counter``), if known, so
    #: its latency can be scaled by the host speed around it
    starts: Optional[list[float]] = None
    #: per-layer counts read from the program after the pass
    counters: dict[str, float] = field(default_factory=dict)
    #: guards that found the workload doing nothing it should
    guard_failures: list[str] = field(default_factory=list)
    #: the headline error, when the pass computed the cells it needs
    headline_error_pct: Optional[float] = None


class BenchWorkload:
    name = ""
    #: fewest passes a run makes, whatever ``--seconds`` says
    min_passes = 2

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.root = root

    def setup_pass(self) -> None:
        raise NotImplementedError

    def run_pass(self, tracer=None) -> PassResult:
        raise NotImplementedError

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
class Table2(BenchWorkload):
    """The full 13 x 4 matrix at exhibit scale, peak lane included."""

    name = "table2"

    def __init__(self, seed: int, root: Path):
        super().__init__(seed, root)
        cells = [(label, k) for label in LABELS for k in KIND_NAMES]
        random.Random(seed).shuffle(cells)  # the order must not matter
        self.cells = cells
        self.engine: Optional[MatrixEngine] = None

    def setup_pass(self) -> None:
        _workload_traces.cache_clear()  # a fresh process has no traces yet
        self.engine = MatrixEngine(workers=1)

    def run_pass(self, tracer=None) -> PassResult:
        engine = self.engine
        results = engine.run_cells(self.cells, DEFAULT_WORKLOAD, self.seed, True)
        batch = engine.summary()["batch"]
        out = PassResult(
            ops={f"{l}|{k}": digest(r) for (l, k), r in results.items()},
            latencies=[t.seconds for t in engine.timings],
            counters={
                "batch.cells": batch["batch_cells"],
                "batch.fallback_cells": batch["fallback_cells"],
            },
            headline_error_pct=headline_error_pct(
                {c: r.bandwidth_mb for c, r in results.items()}
            ),
        )
        if batch["fallback_cells"]:
            out.guard_failures.append(
                f"{batch['fallback_cells']} cells fell back to the scalar path"
            )
        return out


# ----------------------------------------------------------------------
class GcOverwrite(BenchWorkload):
    """Random 256 KiB overwrites, one read in three, on a full aged device.

    The device is the GC-pressure exhibit's SLC geometry at 12%
    over-provisioning.  A static wear-leveling FTL is adopted *before*
    preload (adopting it after would drop the preloaded map) and aged to
    half its life.  Set-up then writes until garbage collection runs and
    one batch past it, so the timed bursts see the steady write cliff,
    not the free space a fresh device starts with.  The device and the
    warm-up are the same for every seed; the seed draws the timed stream.
    Each burst is one ``SSDevice.run`` call and one operation.
    """

    name = "gc_overwrite"
    OVERPROVISION = 0.12
    CHUNK = 256 * 1024
    AGE = 0.5
    DEVICE_SEED = 1013
    #: the GC work of a pass depends on the seeded offsets: 34 bursts
    #: moved 41-47k pages across seeds 1-10, so a pass has twice that
    #: many.  Two passes pool the 100 bursts the p90 needs.
    BURSTS = 68
    min_passes = 2
    #: requests per burst and how many of them read: one in three.  Six
    #: requests smooth the per-burst GC count enough for a steady median.
    PER_BURST = 6
    READS_PER_BURST = 2
    WARMUP_BATCH = 8

    def __init__(self, seed: int, root: Path):
        super().__init__(seed, root)
        self.geom = Geometry(
            kind=SLC, channels=4, packages_per_channel=4,
            dies_per_package=2, planes_per_die=2, blocks_per_plane=24,
        )
        self.logical = int(
            self.geom.capacity_bytes * (1.0 - self.OVERPROVISION) * 0.95
        )
        rng = np.random.default_rng(seed)
        ops = ["read"] * self.READS_PER_BURST
        ops += ["write"] * (self.PER_BURST - self.READS_PER_BURST)
        self.bursts = []
        for _ in range(self.BURSTS):
            rng.shuffle(ops)
            self.bursts.append([self._request(op, rng) for op in ops])
        self.device: Optional[SSDevice] = None
        self.warm_stats: dict = {}

    def _request(self, op: str, rng) -> CommandGroup:
        off = int(rng.integers(0, self.logical // self.CHUNK)) * self.CHUNK
        return CommandGroup(
            posix=PosixRequest(op, 0, off, self.CHUNK),
            commands=[DeviceCommand(op, off, self.CHUNK)],
        )

    def setup_pass(self) -> None:
        device = SSDevice(
            geometry=self.geom, bus=ONFI3_SDR400, host=bridged_pcie2(8),
            logical_bytes=self.logical, overprovision=self.OVERPROVISION,
        )
        device.ftl = WearFTL.adopt(device.ftl, WearPolicy(kind="static"))
        repro.lifetime.install_age(
            device.ftl, AgingSpec(age_fraction=self.AGE, seed=self.DEVICE_SEED)
        )
        device.preload(self.logical)
        rng = np.random.default_rng(self.DEVICE_SEED)
        gc_batches = 0
        while gc_batches < 2:
            batch = [self._request("write", rng) for _ in range(self.WARMUP_BATCH)]
            device.run(batch, posix_window=4)
            gc_batches += device.ftl.stats["gc_runs"] > 0
        self.device = device
        self.warm_stats = dict(device.ftl.stats)

    def run_pass(self, tracer=None) -> PassResult:
        device = self.device
        ops: dict[str, str] = {}
        latencies: list[float] = []
        starts: list[float] = []
        sim_ns = 0
        for i, groups in enumerate(self.bursts):
            t0 = time.perf_counter()
            res = device.run(groups, posix_window=4)
            latencies.append(time.perf_counter() - t0)
            starts.append(t0)
            ops[f"burst{i}"] = digest(res.metrics)
            sim_ns += res.metrics.makespan_ns
        wear = wear_report(device.ftl)
        ops["final"] = digest({"ftl": device.ftl.stats, "wear": wear})
        stats = {k: v - self.warm_stats[k] for k, v in device.ftl.stats.items()}
        out = PassResult(
            ops=ops,
            latencies=latencies,
            starts=starts,
            counters={
                "ssd.gc_runs": stats["gc_runs"],
                "ssd.gc_moved_pages": stats["gc_moved_pages"],
                "ssd.host_writes_pages": stats["host_writes_pages"],
                "ssd.waf": 1.0 + (stats["gc_moved_pages"] + stats["wl_moved_pages"])
                / max(1, stats["host_writes_pages"]),
                "ssd.sim_makespan_ns": sim_ns,
                "lifetime.wl_moved_pages": stats["wl_moved_pages"],
            },
        )
        if not stats["gc_runs"]:
            out.guard_failures.append("no garbage collection ran")
        if not stats["wl_moved_pages"]:
            out.guard_failures.append("static wear leveling moved no pages")
        return out


# ----------------------------------------------------------------------
class ServiceMixed(BenchWorkload):
    """Two closed-loop clients against an in-process simulation service.

    Jobs come in rounds: both clients wait at a barrier, submit one job
    each and wait for its result.  The rounds make the mix repeatable:
    a repeat always names a cell finished in an earlier round (a cache
    hit), and a twin round submits one fresh job from both clients at
    once (the second submission coalesces onto the first).  An
    open-loop prototype varied ~50% on p90 between identical runs.
    """

    name = "service_mixed"
    CLIENTS = 2
    #: one executor thread: two jobs computing at once slow each other by
    #: however the shared host splits its CPUs at that moment, which
    #: doubled the run-to-run spread of p90; one at a time, the second
    #: client's job waits in the admission queue instead
    EXECUTORS = 1
    ROUNDS = 52
    TWIN_ROUNDS = (4, 12, 20, 28, 36, 44)
    #: job mix of the rounds after the first (two fresh cells) that are
    #: not twins.  The counts are exact and the fresh cells are the 52
    #: Table-2 cells once each, so a seed changes simulation seeds and
    #: the parameters of the other jobs, not the amount of work.
    MIX = {"repeat": 26, "matrix": 10, "netfault": 5, "lifetime": 5, "fresh": 44}
    #: lifetime jobs per wear policy
    POLICIES = ("dynamic",) * 3 + ("static",) * 2
    LAYOUT_SEED = 0
    #: a pass is one run through the job list, which already has the
    #: hundred jobs the p90 needs
    min_passes = 1
    SMALL = SimWorkload(panels=2, panel_bytes=8 * MiB)

    def __init__(self, seed: int, root: Path):
        super().__init__(seed, root)
        rng = random.Random(seed)
        sim_seeds = (seed, seed + 1, seed + 2)
        # which job kind, and which Table-2 cells and wear policy, each
        # client submits in each round is one fixed layout: a job's
        # latency depends on what it simulates and what runs beside it,
        # so a seeded layout moved p90 by 30% between seeds.  The seed
        # draws the simulation and network-loss seeds and which finished
        # job a repeat names.
        layout = random.Random(self.LAYOUT_SEED)
        cells = [(l, k) for l in LABELS for k in KIND_NAMES]
        layout.shuffle(cells)
        fresh = [(l, k, rng.choice(sim_seeds)) for l, k in cells]
        slots = [kind for kind, n in self.MIX.items() for _ in range(n)]
        layout.shuffle(slots)
        policies = list(self.POLICIES)
        layout.shuffle(policies)
        finished: list[CellJob] = []

        def make(slot: str, other=None):
            if slot == "repeat":
                # never the other client's job: equal jobs in one round
                # would race the cache against the coalescer
                return rng.choice([j for j in finished if j != other])
            if slot == "matrix":
                return MatrixJob(
                    labels=tuple(layout.sample(LABELS, 2)),
                    kinds=tuple(layout.sample(KIND_NAMES, 2)),
                    workload=self.SMALL, seed=rng.choice(sim_seeds),
                )
            if slot == "netfault":
                return NetfaultJob(
                    loss_rates=(0.05,),
                    labels=("ION-GPFS", layout.choice(LABELS[1:])),
                    kinds=(layout.choice(KIND_NAMES),),
                    workload=self.SMALL, seed=rng.choice(sim_seeds),
                    net_seed=rng.randrange(1000),
                )
            if slot == "lifetime":
                return LifetimeJob(
                    labels=(layout.choice(LABELS[1:]),),
                    kinds=(layout.choice(KIND_NAMES),),
                    ages=(0.5,),
                    wear_policy=policies.pop(),
                    workload=self.SMALL, seed=rng.choice(sim_seeds),
                )
            label, kind, s = fresh.pop()
            return CellJob(label=label, kind=kind, seed=s)

        self.rounds: list[tuple] = []
        for r in range(self.ROUNDS):
            if r == 0:
                pair = (make("fresh"), make("fresh"))
            elif r in self.TWIN_ROUNDS:
                job = make("fresh")
                pair = (job, job)
            else:
                first = make(slots.pop())
                pair = (first, make(slots.pop(), first))
            self.rounds.append(pair)
            finished.extend(
                j for j in dict.fromkeys(pair)
                if isinstance(j, CellJob) and j not in finished
            )
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self.service: Optional[SimulationService] = None

    def setup_pass(self) -> None:
        _workload_traces.cache_clear()
        self.loop = asyncio.new_event_loop()
        self.service = SimulationService(
            workers_per_job=1, cache=ResultCache(), max_concurrency=self.EXECUTORS
        )
        self.loop.run_until_complete(self.service.start())

    async def _drive(self) -> dict:
        service = self.service
        barrier = asyncio.Barrier(self.CLIENTS)
        done: dict = {}

        async def client(i: int) -> None:
            for r, pair in enumerate(self.rounds):
                await barrier.wait()
                t0 = time.perf_counter()
                handle = service.submit(pair[i])
                payload = await handle.result()
                done[(r, i)] = (time.perf_counter() - t0, handle.coalesced, payload, t0)

        await asyncio.gather(*(client(i) for i in range(self.CLIENTS)))
        return done

    def run_pass(self, tracer=None) -> PassResult:
        try:
            done = self.loop.run_until_complete(self._drive())
        finally:
            self.loop.run_until_complete(self.service.shutdown())
            self.loop.close()
        service = self.service
        ops = {f"r{r}c{i}": digest(p) for (r, i), (_, _, p, _) in sorted(done.items())}
        cache = service.cache.stats()
        m = service.metrics
        batch = service.executor.engine_summary()["batch"]
        out = PassResult(
            ops=ops,
            latencies=[lat for lat, _, _, _ in done.values()],
            starts=[t0 for _, _, _, t0 in done.values()],
            counters={
                "experiments.cache_hits": cache["hits"],
                "experiments.cache_misses": cache["misses"],
                "experiments.cache_hit_ratio": cache["hit_ratio"],
                "service.coalesced_frac": m.coalesced / m.submitted,
                "service.rejected": sum(m.rejected.values()),
                "batch.cells": batch.get("batch_cells", 0),
                "batch.fallback_cells": batch.get("fallback_cells", 0),
            },
        )
        if tracer is not None:
            leaders = sum(
                lat for lat, coalesced, _, _ in done.values() if not coalesced
            )
            out.counters["service.queue_wait_s"] = (
                leaders - tracer.total_s.get("service.execute", 0.0)
            )
        # a repeated job must get back exactly what was computed first
        first: dict = {}
        for (r, i), (_, _, payload, _) in sorted(done.items()):
            key = self.rounds[r][i].key()
            if first.setdefault(key, ops[f"r{r}c{i}"]) != ops[f"r{r}c{i}"]:
                out.guard_failures.append(f"job r{r}c{i} disagrees with its first run")
        if not cache["hits"]:
            out.guard_failures.append("no job was served from the result cache")
        if not m.coalesced:
            out.guard_failures.append("no job coalesced onto an in-flight twin")
        return out


# ----------------------------------------------------------------------
class LintTree(BenchWorkload):
    """``lint_paths`` with every rule, FLOW included, over a fixed tree.

    The corpus is the ``src/repro`` tree and lint baseline of a pinned
    revision, shipped as a tarball so that edits to ``src/`` never change
    what is linted.  The seed only shuffles the order the files are
    passed in, which must not change the findings.
    """

    name = "lint_tree"
    #: host speed on a shared machine swings ~20% within seconds; a
    #: pass is ~6 s, so the median needs several
    min_passes = 3
    CORPUS = "perfbench/corpus/lint-corpus-969383c.tar.xz"

    def __init__(self, seed: int, root: Path):
        super().__init__(seed, root)
        self.workdir = root / "perfbench" / ".work" / f"lint-{os.getpid()}"
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        with tarfile.open(root / self.CORPUS) as tar:
            tar.extractall(self.workdir, filter="data")
        files = sorted(
            p.relative_to(self.workdir).as_posix()
            for p in (self.workdir / "src" / "repro").rglob("*.py")
        )
        random.Random(seed).shuffle(files)
        self.files = [Path(f) for f in files]
        self.config = LintConfig(
            schema_fingerprint_path=(
                self.workdir / "src/repro/lint/schema_fingerprint.json"
            )
        )
        self.baseline: Optional[Baseline] = None

    def setup_pass(self) -> None:
        self.baseline = Baseline.load(self.workdir / "lint-baseline.json")

    def run_pass(self, tracer=None) -> PassResult:
        cwd = os.getcwd()
        # baseline entries name files relative to the tree root
        os.chdir(self.workdir)
        t0 = time.perf_counter()
        try:
            result = lint_runner.lint_paths(self.files, self.config, self.baseline)
        finally:
            elapsed = time.perf_counter() - t0
            os.chdir(cwd)
        outputs = {
            "files_scanned": result.files_scanned,
            "suppressed": result.suppressed,
            "findings": [f.to_dict() for f in result.findings],
            "baselined": [f.to_dict() for f in result.baselined],
            "stale": [e.to_dict() for e in result.stale_entries],
            "unjustified": [e.to_dict() for e in result.unjustified_entries],
        }
        return PassResult(
            ops={"tree": digest(outputs)},
            latencies=[elapsed],
            starts=[t0],
            counters={
                "lint.files": result.files_scanned,
                "lint.findings": len(result.findings) + len(result.baselined),
            },
        )

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        parent = self.workdir.parent
        if parent.exists() and not any(parent.iterdir()):
            parent.rmdir()


WORKLOADS = {w.name: w for w in (Table2, GcOverwrite, ServiceMixed, LintTree)}
