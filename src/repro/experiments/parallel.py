"""Parallel, cached, supervised execution engine for experiment cells.

Every exhibit (Figures 7-10, the headline claims, the lifetime and
netfault sweeps) reduces to running independent
:class:`~repro.experiments.runner.Cell` objects — Table-2 ``(config,
NVM kind)`` cells, some with an overlay.  :class:`MatrixEngine` is the
single entry point:
it fans cells out over a :class:`~concurrent.futures.ProcessPoolExecutor`
(each cell is seeded and deterministic, so execution order is
irrelevant to the results), consults a :class:`ResultCache` before
computing anything, and records per-cell wall-clock timings.

The pool is **supervised**: a cell whose worker dies mid-computation
(``BrokenProcessPool``) or exceeds ``cell_timeout_s`` is resubmitted on
a fresh pool with exponential backoff, up to ``max_retries`` extra
attempts; only then does the typed failure
(:class:`~repro.faults.errors.RetriesExhausted`) surface.  Completed
cells checkpoint through the attached cache as they finish, so a
mid-matrix crash never loses finished work.  An optional
:class:`~repro.faults.plan.FaultSpec` threads device-fault injection
into each cell and (via its worker-chaos rates) lets the chaos tests
kill or hang workers deterministically.

``workers=1`` bypasses the pool entirely and runs the exact serial
path (``run_cell`` in-process); ``workers=None`` auto-detects from
``REPRO_WORKERS`` or the CPU count.  Parallel results are identical to
serial results field-for-field — enforced by
``tests/experiments/test_parallel_engine.py`` and, under injected
worker crashes, by ``tests/faults/test_engine_chaos.py``.

Two execution backends share this engine:

* ``backend="batch"`` (default) — plain cells the columnar kernel
  (:mod:`repro.batch`) can express are planned, stacked and simulated
  in one numpy pass in-process; only the cells it refuses, every
  overlaid cell (faults, aging, a derated fabric) and every cell of a
  chaos run take the scalar path below.  Batch results are
  bit-identical to scalar results (golden-tested).
* ``backend="scalar"`` — the frozen reference path: every cell runs
  ``run_cell``.

On a single-CPU host a process pool is pure overhead (0.83x measured),
so a fault-free run degrades ``workers > 1`` to serial and records the
decision in :meth:`MatrixEngine.summary` under ``"pool"``; fault
injection keeps the pool, because worker chaos needs workers to strike.
"""

from __future__ import annotations

import os
import time
import warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Hashable, Iterable, Optional, Sequence

from ..obs import trace as obs
from .cache import ResultCache
from .runner import DEFAULT_WORKLOAD, Cell, CellResult, Workload, run_cell

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..faults.plan import FaultSpec
    from ..obs.export import CsvStatsRecorder

__all__ = ["MatrixEngine", "CellTiming", "detect_workers"]

#: a cell as callers name it: a :class:`Cell`, or a ``(label, kind)``
#: tuple filled in from the ``run_cells`` arguments
CellRef = Hashable

#: bound on an injected "hang" — long enough to trip any sane cell
#: timeout, short enough that a broken teardown can't wedge a test run
_CHAOS_HANG_S = 60.0


def detect_workers() -> int:
    """Worker count: ``REPRO_WORKERS`` env override, else CPU count.

    A malformed override — non-integer, zero or negative — is clamped
    to a safe value with a warning rather than aborting the run (or
    silently spawning a zero-worker pool): the env var is set far from
    where it's read.
    """
    env = os.environ.get("REPRO_WORKERS")
    if env:
        try:
            n = int(env)
        except ValueError:
            warnings.warn(
                f"ignoring non-integer REPRO_WORKERS={env!r}; "
                "falling back to CPU count",
                RuntimeWarning,
                stacklevel=2,
            )
        else:
            if n < 1:
                warnings.warn(
                    f"REPRO_WORKERS={env!r} is not a positive integer; "
                    "clamping to 1 worker",
                    RuntimeWarning,
                    stacklevel=2,
                )
                return 1
            return n
    return os.cpu_count() or 1


@dataclass(frozen=True)
class CellTiming:
    """Wall-clock record of one executed (or cache-served) cell."""

    label: str
    kind: str
    seconds: float
    cached: bool


def _compute_cell(
    cell: Cell,
    chaos: Optional["FaultSpec"] = None,
    attempt: int = 0,
    trace: bool = False,
) -> tuple[CellResult, Optional[float], float, Optional[list]]:
    """Worker-side cell execution; returns the peak for cache sharing.

    When ``chaos`` carries worker-chaos rates, the plan may order this
    process to die or stall — deterministically, and only on a cell's
    first attempt — before any work happens, exercising the supervisor.

    ``trace=True`` (the coordinator had a tracer installed) collects
    this cell's sim-domain spans in a worker-local tracer and ships
    them back as plain tuples — the only span representation that
    crosses the pool boundary.
    """
    if chaos is not None and chaos.injects_worker_faults:
        strike = chaos.plan().worker_chaos(cell.label, cell.kind, attempt)
        if strike == "crash":
            os._exit(13)  # no cleanup: simulate a hard worker death
        elif strike == "hang":
            time.sleep(_CHAOS_HANG_S)

    worker_tr = None
    if trace:
        worker_tr = obs.install(obs.Tracer(trace_id=f"cell:{cell.tag}"))
    scratch = ResultCache()  # in-memory; captures the peak run_cell computes
    t0 = time.perf_counter()
    try:
        result = run_cell(cell, cache=scratch)
    finally:
        if trace:
            obs.uninstall()
    seconds = time.perf_counter() - t0
    peak = scratch.get_peak(cell, _count=False)
    spans = worker_tr.to_tuples() if worker_tr is not None else None
    return result, peak, seconds, spans


def _abandon_pool(pool: ProcessPoolExecutor) -> None:
    """Tear down a pool whose workers may be hung or already dead.

    ``shutdown(wait=False)`` alone leaves a hung worker sleeping until
    interpreter exit (where the stdlib's atexit handler would join it
    forever), so the worker processes are terminated outright.
    """
    pool.shutdown(wait=False, cancel_futures=True)
    procs = getattr(pool, "_processes", None) or {}
    for proc in list(procs.values()):
        try:
            proc.terminate()
        except Exception:
            pass


class MatrixEngine:
    """Parallel, cached, supervised runner for experiment-matrix cells.

    ``progress``, when given, is called after every finished cell as
    ``progress(done, total, (label, kind), seconds, cached)`` from the
    coordinating process (overlaid cells report their plain pair too).

    ``faults`` (a :class:`~repro.faults.plan.FaultSpec`) overlays
    deterministic fault injection: its device faults ride every cell
    named by a ``(label, kind)`` tuple, its worker chaos strikes the
    pool itself.  ``max_retries`` bounds the
    extra attempts a crashed or timed-out cell gets; ``retry_backoff_s``
    seeds the exponential backoff between supervision rounds;
    ``cell_timeout_s`` is the per-round wall-clock budget after which
    still-running cells are declared hung and resubmitted.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        progress: Optional[
            Callable[[int, int, tuple[str, str], float, bool], None]
        ] = None,
        faults: Optional["FaultSpec"] = None,
        max_retries: int = 2,
        retry_backoff_s: float = 0.1,
        cell_timeout_s: Optional[float] = None,
        backend: str = "batch",
        stats: Optional["CsvStatsRecorder"] = None,
    ):
        if backend not in ("batch", "scalar"):
            raise ValueError(f"unknown backend {backend!r}")
        self.workers = detect_workers() if workers is None else max(1, int(workers))
        self.cache = cache
        self.progress = progress
        self.stats = stats  # optional per-cell CSV recorder (repro.obs)
        self.faults = faults
        self.max_retries = max(0, int(max_retries))
        self.retry_backoff_s = max(0.0, float(retry_backoff_s))
        self.cell_timeout_s = cell_timeout_s
        self.backend = backend
        self.timings: list[CellTiming] = []
        #: supervision + injected-fault roll-up (see :meth:`summary`)
        self.fault_stats: dict[str, int] = {
            "worker_crashes": 0,
            "cell_timeouts": 0,
            "cell_retries": 0,
            "faults_injected": 0,
            "device_retries": 0,
        }
        #: columnar-kernel roll-up: cells it ran vs cells it refused
        self.batch_stats: dict[str, float] = {
            "batch_cells": 0,
            "fallback_cells": 0,
            "batch_seconds": 0.0,
        }
        #: (label, kind) -> BatchUnsupported reason for refused cells
        #: (last run)
        self.batch_fallbacks: dict[tuple[str, str], str] = {}
        #: last pool sizing decision (see :meth:`_effective_workers`)
        self.pool_decision: Optional[dict] = None

    # ------------------------------------------------------------------
    def run_cells(
        self,
        cells: Sequence[CellRef],
        workload: Workload = DEFAULT_WORKLOAD,
        seed: int = 1013,
        with_remaining: bool = True,
    ) -> dict:
        """Run distinct cells; returns results keyed as the cells were given.

        A cell is a :class:`Cell`, or a ``(label, kind)`` tuple standing
        for ``Cell(label, kind, workload, seed, with_remaining,
        faults=self.faults)``.  Cache hits are served without computing;
        plain cells go to the batch kernel; the rest run on the scalar
        path, fanned out over the supervised process pool (or inline for
        ``workers=1``).
        """
        chaos = self.faults
        if chaos is not None and not chaos.enabled:
            chaos = None
        refs = list(dict.fromkeys(cells))  # dedupe, preserve order
        spec = {
            ref: ref if isinstance(ref, Cell) else Cell(
                *ref, workload, seed, with_remaining, faults=chaos
            )
            for ref in refs
        }
        total = len(refs)
        results: dict = {}
        done = 0
        tr = obs.tracer()

        def finish(
            ref: CellRef, result: CellResult, seconds: float, cached: bool = False
        ) -> None:
            nonlocal done
            cell = spec[ref]
            results[ref] = result
            if not cached and self.cache is not None:
                self.cache.put_cell(cell, result)
            faults = getattr(result, "faults", None)
            if faults:
                self.fault_stats["faults_injected"] += faults.get(
                    "faults_injected", 0
                )
                self.fault_stats["device_retries"] += faults.get("retries", 0)
            done += 1
            self.timings.append(CellTiming(cell.label, cell.kind, seconds, cached))
            if self.stats is not None:
                metrics = getattr(result, "metrics", None)
                self.stats.on_cell(
                    cell.label, cell.kind, seconds,
                    sim_ns=metrics.makespan_ns if metrics is not None else None,
                    cached=cached,
                )
            if self.progress is not None:
                self.progress(
                    done, total, (cell.label, cell.kind), seconds, cached
                )

        todo: list[CellRef] = []
        scan_t0 = time.perf_counter()
        for ref in refs:
            hit = self.cache.get_cell(spec[ref]) if self.cache is not None else None
            if hit is not None:
                finish(ref, hit, 0.0, cached=True)
            else:
                todo.append(ref)
        if tr is not None and total:
            tr.wall_event(
                "cache", "scan", time.perf_counter() - scan_t0,
                cells=total, hits=done,
            )

        # columnar batch kernel: runs in-process, before any pool forms,
        # on plain cells only.  Overlaid cells skip it before any path is
        # built — fault models mutate completions mid-replay, aging swaps
        # the FTL, a derate rebuilds the fabric: none of it fits the
        # static plan — and so does every cell of a chaos run, whose
        # worker strikes need the pool.
        if todo and self.backend == "batch" and chaos is None:
            todo = self._run_batch(todo, spec, finish)

        n_workers = self._effective_workers(len(todo), chaos) if todo else 0
        if n_workers <= 1:
            for ref in todo:
                cell = spec[ref]
                t0 = time.perf_counter()
                result = run_cell(cell, cache=self.cache)
                seconds = time.perf_counter() - t0
                if tr is not None:
                    tr.wall_event("device", cell.tag, seconds)
                finish(ref, result, seconds)
        elif todo:
            self._run_supervised(todo, spec, chaos, finish, n_workers)

        return {ref: results[ref] for ref in refs}

    # ------------------------------------------------------------------
    def _run_batch(
        self,
        todo: list[CellRef],
        spec: dict,
        finish: Callable[[CellRef, CellResult, float], None],
    ) -> list[CellRef]:
        """Run the plain cells of ``todo`` on the columnar kernel.

        Cells sharing a (workload, seed, with_remaining) run as one
        stacked batch; returns the cells left for the scalar path.
        """
        from contextlib import nullcontext

        from ..batch import run_cells_batch

        groups: dict[tuple, list[CellRef]] = {}
        for ref in todo:
            cell = spec[ref]
            if not cell.overlaid:
                shape = (cell.workload, cell.seed, cell.with_remaining)
                groups.setdefault(shape, []).append(ref)
        if not groups:
            return todo
        tr = obs.tracer()
        self.batch_fallbacks = {}
        ran: set = set()
        for (workload, seed, with_remaining), refs in groups.items():
            pairs = {(spec[ref].label, spec[ref].kind): ref for ref in refs}
            span = (
                tr.wall_span("engine", "batch", cells=len(pairs))
                if tr is not None else nullcontext()
            )
            t0 = time.perf_counter()
            with span:
                batch_results, batch_report = run_cells_batch(
                    list(pairs), workload, seed, with_remaining, cache=self.cache
                )
            self.batch_stats["batch_cells"] += len(batch_results)
            self.batch_stats["fallback_cells"] += len(batch_report.fallback)
            self.batch_stats["batch_seconds"] += time.perf_counter() - t0
            self.batch_fallbacks.update(batch_report.fallback)
            for pair, ref in pairs.items():
                if pair in batch_results:
                    ran.add(ref)
                    finish(
                        ref, batch_results[pair],
                        batch_report.seconds.get(pair, 0.0),
                    )
        return [ref for ref in todo if ref not in ran]

    # ------------------------------------------------------------------
    def _effective_workers(self, n_todo: int, faults: Optional["FaultSpec"]) -> int:
        """Pool sizing with the 1-CPU degrade; records the decision.

        A process pool on a single-CPU host is pure serialization plus
        pickling overhead (BENCH_matrix measured 0.83x vs serial), so a
        fault-free run degrades to the in-process serial path.  Worker
        fault injection keeps the pool regardless: chaos needs worker
        processes to crash.
        """
        cpus = os.cpu_count() or 1
        n = min(self.workers, n_todo)
        decision = {
            "requested_workers": self.workers,
            "cpu_count": cpus,
            "effective_workers": n,
            "degraded": False,
            "reason": None,
        }
        if n > 1 and cpus == 1:
            if faults is None:
                decision["effective_workers"] = 1
                decision["degraded"] = True
                decision["reason"] = (
                    "1-CPU host: pool overhead exceeds parallel gain"
                )
                n = 1
            else:
                decision["reason"] = (
                    "1-CPU host, but fault injection needs the worker pool"
                )
        self.pool_decision = decision
        return n

    # ------------------------------------------------------------------
    def _run_supervised(
        self,
        todo: list[CellRef],
        spec: dict,
        chaos: Optional["FaultSpec"],
        finish: Callable[[CellRef, CellResult, float], None],
        n_workers: Optional[int] = None,
    ) -> None:
        """Pool fan-out with crash/hang supervision and retry rounds.

        Each round submits the outstanding cells to a fresh pool.  A
        worker death breaks the whole pool (every unfinished future
        raises ``BrokenProcessPool``), so the round's survivors are
        harvested and the casualties resubmitted next round; a round
        that outlives ``cell_timeout_s`` has its stragglers declared
        hung and likewise resubmitted.  Finished cells checkpoint into
        the cache immediately — a later crash cannot lose them.
        """
        from ..faults.errors import CellTimeout, RetriesExhausted, WorkerCrash

        if n_workers is None:
            n_workers = self.workers
        tr = obs.tracer()
        attempts: dict[CellRef, int] = {ref: 0 for ref in todo}
        round_no = 0

        def record_failure(ref: CellRef, why: str, retry: list[CellRef]) -> None:
            attempts[ref] += 1
            counter = "worker_crashes" if why == "crash" else "cell_timeouts"
            self.fault_stats[counter] += 1
            cell = spec[ref]
            if attempts[ref] > self.max_retries:
                cause_cls = WorkerCrash if why == "crash" else CellTimeout
                site = ("engine", cell.label, cell.kind)
                raise RetriesExhausted(
                    f"cell {cell.tag} failed {attempts[ref]} times "
                    f"(last: {why}); retry budget {self.max_retries} spent",
                    site=site,
                ) from cause_cls(f"cell {cell.tag} {why}", site=site)
            self.fault_stats["cell_retries"] += 1
            retry.append(ref)

        while todo:
            if round_no > 0 and self.retry_backoff_s > 0:
                time.sleep(self.retry_backoff_s * 2 ** (round_no - 1))
            round_no += 1
            retry: list[CellRef] = []
            pool = ProcessPoolExecutor(
                max_workers=min(n_workers, len(todo))
            )
            degraded = False  # pool broken or deadline blown this round
            try:
                futures = {
                    pool.submit(
                        _compute_cell, spec[ref], chaos, attempts[ref],
                        tr is not None,
                    ): ref
                    for ref in todo
                }
                handled: set = set()
                pending = set(futures)
                deadline = (
                    None if self.cell_timeout_s is None
                    else time.monotonic() + self.cell_timeout_s
                )
                while pending:
                    timeout = (
                        None if deadline is None
                        else max(0.0, deadline - time.monotonic())
                    )
                    finished, pending = wait(
                        pending, timeout=timeout, return_when=FIRST_COMPLETED
                    )
                    if not finished:  # deadline blown: stragglers are hung
                        degraded = True
                        for fut in pending:
                            record_failure(futures[fut], "timeout", retry)
                        break
                    for fut in finished:
                        ref = futures[fut]
                        try:
                            result, peak, seconds, spans = fut.result()
                        except BrokenProcessPool:
                            degraded = True
                            continue  # casualties collected below
                        handled.add(fut)
                        cell = spec[ref]
                        if tr is not None:
                            if spans:
                                tr.ingest(spans)
                            tr.wall_event(
                                "pool", cell.tag, seconds, round=round_no,
                            )
                        if self.cache is not None and peak is not None:
                            self.cache.put_peak(cell, peak)
                        finish(ref, result, seconds)
                    if degraded:
                        # the pool is broken: every unhandled cell of this
                        # round died with it and goes to the next round
                        for fut, ref in futures.items():
                            if fut not in handled and ref not in retry:
                                record_failure(ref, "crash", retry)
                        break
            finally:
                if degraded:
                    _abandon_pool(pool)
                else:
                    pool.shutdown(wait=True)
            todo = retry

    # ------------------------------------------------------------------
    def run_matrix(
        self,
        labels: Iterable[str],
        kinds: Iterable,
        workload: Workload = DEFAULT_WORKLOAD,
        seed: int = 1013,
        with_remaining: bool = True,
    ) -> dict:
        """Run a (config x kind) grid; keys are (label, kind_name)."""
        kind_names = [k if isinstance(k, str) else k.name for k in kinds]
        cells = [(label, kn) for label in labels for kn in kind_names]
        return self.run_cells(cells, workload, seed, with_remaining)

    # ------------------------------------------------------------------
    def map(self, fn: Callable, items: Sequence) -> list:
        """Order-preserving parallel map for independent, picklable work.

        Used by the sensitivity sweep, whose units are knob cases rather
        than matrix cells.  Serial for ``workers=1``.
        """
        items = list(items)
        if self.workers <= 1 or len(items) <= 1:
            return [fn(item) for item in items]
        n_workers = self._effective_workers(len(items), None)
        if n_workers <= 1:
            return [fn(item) for item in items]
        with ProcessPoolExecutor(max_workers=min(n_workers, len(items))) as pool:
            return list(pool.map(fn, items, chunksize=1))

    # ------------------------------------------------------------------
    @property
    def total_seconds(self) -> float:
        return sum(t.seconds for t in self.timings)

    def reset_timings(self) -> None:
        self.timings.clear()

    def cache_stats(self) -> Optional[dict]:
        """The attached :class:`ResultCache`'s counters, or ``None``."""
        return self.cache.stats() if self.cache is not None else None

    def summary(self) -> dict:
        """Timing + cache + fault + backend roll-up for status lines."""
        cached = sum(1 for t in self.timings if t.cached)
        return {
            "cells": len(self.timings),
            "cached_cells": cached,
            "cell_seconds": self.total_seconds,
            "workers": self.workers,
            "cache": self.cache_stats(),
            "faults": dict(self.fault_stats),
            "backend": self.backend,
            "batch": dict(self.batch_stats),
            #: the last pool sizing decision (None: no pool was needed)
            "pool": dict(self.pool_decision) if self.pool_decision else None,
        }
