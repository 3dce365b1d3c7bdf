#!/usr/bin/env python
"""DetSan — the determinism sanitizer (dynamic counterpart to `repro flow`).

`python -m repro flow` proves statically that no wall-clock, hash- or
pid-dependent, or unpicklable value *flows* into a sim-domain result;
DetSan checks the same properties dynamically: it runs a small Table-2
slice plus two overlaid cells (an aged device under dynamic wear
leveling, a derated ION fabric) in one engine call under adversarial
perturbations and byte-compares the canonical JSON of every cell
result and the full sim-domain span tree against an unperturbed base
run.

Perturbation axes (each its own subprocess, since PYTHONHASHSEED only
takes effect at interpreter start):

* ``PYTHONHASHSEED`` 1 and 12345 — flushes out set/dict-iteration-order
  coupling (the dynamic face of FLOW002),
* ``REPRO_SIM_TIEBREAK=lifo`` — reverses DES same-timestamp event
  ordering via the :class:`repro.sim.Simulator` tie-break hook; any
  divergence means a model depended on scheduling accidents rather
  than simulated time,
* ``--workers 2`` — fans cells over a process pool (the dynamic face
  of FLOW003: results must not depend on which process computed them),
* ``--backend scalar`` — the frozen scalar reference vs the columnar
  batch kernel (claimed bit-identical; DetSan enforces it),
* ``--split-batch`` — every cell in its own engine call, so the batch
  kernel's lockstep replay never steps its lanes beside another
  cell's: any leak between lanes through the shared resource-state
  arrays (or a step-width-dependent result) shows as a diff.

Exit codes: 0 all variants byte-identical, 1 divergence (diff printed),
2 usage/runtime error.

``--self-test`` checks the detector itself: a deliberately tie-order
coupled DES model must diverge under ``lifo``, and a clean model must
not.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"

#: default slice: one DES-backed ION config + one CNL config, 2 kinds.
DEFAULT_LABELS = "ION-GPFS,CNL-EXT4"
DEFAULT_KINDS = "MLC,PCM"

#: result fields that are *provenance*, not results: they legitimately
#: differ across variants and are excluded from the canonical payload
_PROVENANCE = frozenset({"backend", "metrics", "faults"})


# ---------------------------------------------------------------------------
# payload: runs in each subprocess, prints canonical JSON to stdout
# ---------------------------------------------------------------------------

def canonical_payload(
    labels: list[str],
    kinds: list[str],
    scale: float,
    workers: int,
    backend: str,
    split_batch: bool = False,
) -> str:
    """Run the slice and render results + sim span tree canonically.

    The Table-2 replay itself runs on the resource-timeline scheduler,
    not the DES engine, so the payload also runs the CN<->ION DES
    co-simulation (shared link + NSD-thread + SSD contention across
    clients) — that is what the ``tiebreak-lifo`` axis actually bites
    on.
    """
    import dataclasses

    from repro import obs
    from repro.cluster import IonServiceConfig, simulate_ion_service
    from repro.experiments import Cell, MatrixEngine, Workload
    from repro.lifetime import WearPolicy

    MiB = 1024 * 1024
    workload = Workload(
        panels=max(2, int(round(4 * scale))), panel_bytes=2 * MiB
    )
    grid = [Cell(label, kind, workload) for label in labels for kind in kinds]
    grid += [
        Cell("CNL-UFS", "TLC", workload, age=0.5,
             policy=WearPolicy(kind="dynamic")),
        Cell("ION-GPFS", "MLC", workload, with_remaining=False, derate=0.5),
    ]
    tracer = obs.install(obs.Tracer())
    try:
        engine = MatrixEngine(workers=workers, backend=backend)
        if split_batch:
            results = {}
            for cell in grid:
                results.update(engine.run_cells([cell]))
        else:
            results = engine.run_cells(grid)
    finally:
        obs.uninstall()

    cells = {
        cell.tag: {
            f.name: getattr(r, f.name)
            for f in dataclasses.fields(r)
            if f.name not in _PROVENANCE
        }
        for cell, r in results.items()
    }
    spans = sorted(
        (s.to_dict() for s in tracer.spans if s.domain == obs.SIM),
        key=lambda d: json.dumps(d, sort_keys=True),
    )

    ion = simulate_ion_service(
        IonServiceConfig(clients=4, bytes_per_client=8 * MiB)
    )
    ion_report = {
        "per_client_bytes_per_sec": {
            str(c): v for c, v in ion.per_client_bytes_per_sec.items()
        },
        "aggregate_bytes_per_sec": ion.aggregate_bytes_per_sec,
        "link_utilization": ion.link_utilization,
        "makespan_ns": ion.makespan_ns,
    }
    payload = {"cells": cells, "ion_des": ion_report, "sim_spans": spans}
    return json.dumps(payload, indent=1, sort_keys=True)


# ---------------------------------------------------------------------------
# driver: one subprocess per perturbation axis, byte-compare stdout
# ---------------------------------------------------------------------------

def _variants(workers: int) -> list[tuple[str, dict, list[str]]]:
    """(name, extra env, extra argv) per perturbation."""
    return [
        ("base", {}, []),
        ("hashseed-1", {"PYTHONHASHSEED": "1"}, []),
        ("hashseed-12345", {"PYTHONHASHSEED": "12345"}, []),
        ("tiebreak-lifo", {"REPRO_SIM_TIEBREAK": "lifo"}, []),
        (f"workers-{workers}", {}, ["--workers", str(workers)]),
        ("backend-scalar", {}, ["--backend", "scalar"]),
        ("batch-split", {}, ["--split-batch"]),
    ]


def _run_variant(args, env_extra: dict, argv_extra: list[str]) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.setdefault("PYTHONHASHSEED", "0")
    env.pop("REPRO_SIM_TIEBREAK", None)
    env.update(env_extra)
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--emit",
        "--labels", args.labels,
        "--kinds", args.kinds,
        "--scale", str(args.scale),
        "--workers", "1",  # argparse keeps the last occurrence:
    ] + argv_extra  # the pool variant overrides with its own --workers
    proc = subprocess.run(
        cmd, capture_output=True, text=True, env=env, cwd=str(REPO)
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"variant subprocess failed (exit {proc.returncode}):\n"
            + proc.stderr
        )
    return proc.stdout


def _diff(base: str, other: str, name: str) -> str:
    lines = difflib.unified_diff(
        base.splitlines(keepends=True),
        other.splitlines(keepends=True),
        fromfile="base",
        tofile=name,
        n=2,
    )
    head = list(lines)[:40]
    return "".join(head)


def run_sanitizer(args) -> int:
    base = None
    failures = []
    for name, env_extra, argv_extra in _variants(args.workers):
        sys.stderr.write(f"detsan: running variant {name} ...\n")
        out = _run_variant(args, env_extra, argv_extra)
        if name == "base":
            base = out
            n_cells = len(json.loads(out)["cells"])
            n_spans = len(json.loads(out)["sim_spans"])
            sys.stderr.write(
                f"detsan: base payload: {n_cells} cells, "
                f"{n_spans} sim spans, {len(out)} bytes\n"
            )
            continue
        if out == base:
            sys.stderr.write(f"detsan: {name}: identical\n")
        else:
            failures.append(name)
            sys.stderr.write(f"detsan: {name}: DIVERGED\n")
            sys.stderr.write(_diff(base, out, name) + "\n")
    if failures:
        print(f"detsan: FAIL — divergent variants: {', '.join(failures)}")
        return 1
    print(
        "detsan: OK — results and sim span trees byte-identical across "
        "hash seeds, DES tie order, worker counts, backends and batch splits"
    )
    return 0


# ---------------------------------------------------------------------------
# self-test: the detector must catch a planted tie-order race
# ---------------------------------------------------------------------------

def _des_trace(model, tie_break: str) -> str:
    """Canonical JSON of one in-process DES run under ``tie_break``."""
    from repro.sim import Simulator

    sim = Simulator(tie_break=tie_break)
    out: list = []
    model(sim, out)
    sim.run()
    return json.dumps(out, sort_keys=True)


def _racy_model(sim, out) -> None:
    """Planted bug: result records *arrival order* of simultaneous events.

    Four workers finish at the same simulated instant; the model reports
    the order their completion callbacks ran — pure tie-order coupling,
    invisible to any single run.
    """
    def worker(tag: str, warmup: int):
        yield sim.timeout(warmup)
        yield sim.timeout(10 - warmup)  # all complete at t=10
        out.append(tag)

    for i, tag in enumerate("abcd"):
        sim.process(worker(tag, i + 1))


def _healthy_model(sim, out) -> None:
    """Same shape, but the result depends only on simulated time."""
    done: dict[str, int] = {}

    def worker(tag: str, warmup: int):
        yield sim.timeout(warmup)
        yield sim.timeout(10 - warmup)
        done[tag] = sim.now

    def reporter():
        yield sim.timeout(20)
        out.extend(sorted(done.items()))

    for i, tag in enumerate("abcd"):
        sim.process(worker(tag, i + 1))
    sim.process(reporter())


def run_self_test() -> int:
    sys.path.insert(0, str(SRC))
    ok = True

    racy_fifo = _des_trace(_racy_model, "fifo")
    racy_lifo = _des_trace(_racy_model, "lifo")
    if racy_fifo == racy_lifo:
        print(
            "detsan self-test: FAIL — the planted tie-order race was "
            "NOT detected (fifo and lifo traces identical)"
        )
        ok = False
    else:
        print(
            f"detsan self-test: planted race detected "
            f"(fifo={racy_fifo} lifo={racy_lifo})"
        )

    healthy_fifo = _des_trace(_healthy_model, "fifo")
    healthy_lifo = _des_trace(_healthy_model, "lifo")
    if healthy_fifo != healthy_lifo:
        print(
            "detsan self-test: FAIL — the healthy model diverged under "
            "lifo tie-breaking (false positive)"
        )
        ok = False
    else:
        print("detsan self-test: healthy model stable under lifo")

    print(f"detsan self-test: {'OK' if ok else 'FAIL'}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="scripts/detsan.py",
        description="Determinism sanitizer: byte-compares a Table-2 "
        "slice across hash seeds, DES tie order, worker counts, "
        "backends and batch splits.",
    )
    parser.add_argument("--labels", default=DEFAULT_LABELS)
    parser.add_argument("--kinds", default=DEFAULT_KINDS)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="worker count for the pool variant (default 2)",
    )
    parser.add_argument(
        "--backend",
        choices=("batch", "scalar"),
        default="batch",
        help="(payload mode) engine backend",
    )
    parser.add_argument(
        "--split-batch",
        action="store_true",
        help="(payload mode) run every cell in its own engine call",
    )
    parser.add_argument(
        "--emit",
        action="store_true",
        help="internal: print the canonical payload for this interpreter",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="verify the detector catches a planted tie-order race",
    )
    args = parser.parse_args(argv)

    if args.self_test:
        return run_self_test()

    labels = [s.strip() for s in args.labels.split(",") if s.strip()]
    kinds = [s.strip() for s in args.kinds.split(",") if s.strip()]
    if args.emit:
        sys.stdout.write(
            canonical_payload(
                labels, kinds, args.scale, args.workers, args.backend,
                args.split_batch,
            )
        )
        return 0
    try:
        return run_sanitizer(args)
    except RuntimeError as exc:
        print(f"detsan: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
