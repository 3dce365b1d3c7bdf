"""Run one benchmark workload and print its metrics as JSON.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload table2 --seed 1013 --seconds 20 --trace 0

The run repeats the workload's timed pass until ``--seconds`` of timed
work (and at least the workload's minimum number of passes) are done.
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics.  Every pass's outputs are digested and compared
with the run's first pass, and on the recorded seed with
``digests.json``.  The last line of standard output is the result
object; the exit status is 0 only when every output checked out.

Every host time reported is scaled to a reference host speed measured
in-process while it runs; ``hostspeed.py`` says how.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NoReturn  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
from hostspeed import HostSpeed, pin_to_current_cpu  # noqa: E402

#: slices timed since the run started; see hostspeed.py
HOST = HostSpeed()

#: settings that change what the program computes or how fast; results
#: are only comparable between runs made without them
REFUSED_ENV = ("REPRO_WORKERS", "REPRO_FTL_DEBUG", "REPRO_SIM_TIEBREAK", "REPRO_FAULT_SEED")

#: the metric names and units every run reports
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

DEFAULT_SEED = 1013
#: set-up is measured in this process and in this many fresh ones, and
#: the median reported: import time alone varies ~10% run to run
EXTRA_SETUP_SAMPLES = 2
#: an operation's latency is scaled by the slices taken from this long
#: before it starts to this long after it ends: ~10 slices for a short one
LATENCY_PAD_S = 0.5
#: stop starting new passes past this many seconds, to end well within
#: the three minutes a run may take
DEADLINE_S = 150.0


def _fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    sys.path.insert(0, str(SRC))
    try:
        import numpy
        import repro
    except ImportError as exc:
        _fail(f"cannot import the program from {SRC}: {exc}")
    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        _fail(f"imported repro from {repro.__file__}, not from {SRC}")
    return numpy


def _git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "none"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def fingerprint(numpy) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_revision": _git_revision(),
        "src_sha256": _source_digest(),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup_sample(args) -> float:
    """Seconds a fresh process takes from its first statement to ready."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-only",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def setup_only(args) -> None:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, ROOT)
    try:
        workload.setup_pass()
        ready = time.perf_counter()
        print((ready - T0) * HOST.factor(T0, ready))
    finally:
        workload.close()


def run(args) -> tuple[dict, dict]:
    from layers import LayerTracer
    from stats import median, tail_percentile
    from workloads import WORKLOADS, digest, headline_cells_error_pct

    workload = WORKLOADS[args.workload](args.seed, ROOT)
    tracer = LayerTracer() if args.trace else None

    passes = []  # (traced, wall_s, PassResult), host-speed scaled
    raw_walls = []  # the untraced passes' wall_s as measured
    factors = []  # each pass's host-speed factor
    timed = 0.0
    try:
        # a traced run needs an untraced and a traced pass at least
        min_passes = max(workload.min_passes, 2 if tracer is not None else 1)
        while len(passes) < min_passes or timed < args.seconds:
            if passes and time.perf_counter() - T0 > DEADLINE_S:
                break
            traced = tracer is not None and len(passes) % 2 == 1
            setup_layers: dict = {}
            if traced:
                tracer.install()
            try:
                t0 = time.perf_counter()
                workload.setup_pass()
                t1 = time.perf_counter()
                if traced:
                    setup_layers = dict(tracer.self_s)
                    tracer.reset()
                result = workload.run_pass(tracer if traced else None)
                t2 = time.perf_counter()
            finally:
                if traced:
                    tracer.remove()
            f = HOST.factor(t1, t2)
            wall_s = (t2 - t1) * f
            if result.starts is None:
                result.latencies = [x * f for x in result.latencies]
            else:
                result.latencies = [
                    x * HOST.factor(t - LATENCY_PAD_S, t + x + LATENCY_PAD_S)
                    for t, x in zip(result.starts, result.latencies)
                ]
            if traced:
                result.counters.update(_layer_values(tracer, t2 - t1))
                result.counters = {
                    k: v * f if k.endswith("_s") else v
                    for k, v in result.counters.items()
                }
                result.counters["lifetime.install_age_s"] = setup_layers.get(
                    "lifetime.install_age", 0.0
                ) * HOST.factor(t0, t1)
                tracer.reset()
            else:
                raw_walls.append(t2 - t1)
            if not passes:
                ready = t1  # imports, inputs and the first pass's set-up
            passes.append((traced, wall_s, result))
            factors.append(f)
            timed += t2 - t1
    finally:
        HOST.stop()
        workload.close()

    reference = passes[0][2].ops
    attempted = failed = 0
    problems: list[str] = []
    recorded = _recorded(args.workload, args.seed)
    for _, _, result in passes:
        attempted += len(result.ops)
        bad = {op for op, d in result.ops.items() if reference.get(op) != d}
        if recorded is not None:
            bad |= {op for op, d in result.ops.items() if recorded.get(op) != d}
            bad |= set(recorded) - set(result.ops)
        failed += len(bad)
        if bad:
            problems.append(f"{len(bad)} outputs differ, e.g. {sorted(bad)[:3]}")
        problems.extend(result.guard_failures)

    untraced = [p for p in passes if not p[0]]
    if args.trace:
        traced = [p for p in passes if p[0]]
        metrics = _per_layer(traced, untraced, median)
        metrics["bench.host_speed"] = (median(factors), "ratio")
        metrics["bench.raw_wall_s"] = (median(raw_walls), "s")
    else:
        rss = _peak_rss_mb()  # before the headline cells add their own
        walls = [p[1] for p in untraced]
        latencies = [x for p in untraced for x in p[2].latencies]
        p90, p90_used = tail_percentile(latencies, 90)
        headline = passes[0][2].headline_error_pct
        if headline is None:
            headline = headline_cells_error_pct(args.seed)
        setups = [(ready - T0) * HOST.factor(T0, ready)]
        setups += [_setup_sample(args) for _ in range(EXTRA_SETUP_SAMPLES)]
        metrics = {
            "setup_s": (median(setups), "s"),
            "wall_s": (median(walls), "s"),
            "peak_rss_mb": (rss, "MB"),
            "jobs_per_s": (len(latencies) / sum(walls), "1/s"),
            "job_p50_s": (median(latencies), "s"),
            "job_p90_s": (p90, "s"),
            "headline_error_pct": (headline, "%"),
        }
        units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        if {n: u for n, (_, u) in metrics.items()} != units:
            raise RuntimeError("end-to-end metrics disagree with BENCHMARK.json")
        if p90_used != 90:
            print(
                f"perfbench: {len(latencies)} operations; job_p90_s reports "
                f"p{p90_used:.1f}, the highest percentile with ten samples beyond it "
                "(p100: the maximum, as no percentile has)",
                file=sys.stderr,
            )
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(passes),
        "traced_passes": sum(1 for p in passes if p[0]),
        "host_speed": median(factors),
        "raw_wall_s": median(raw_walls),
        "digest": digest(reference),
        "ops": reference,
        "problems": problems,
    }
    out = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    return out, info


def _layer_values(tracer, wall_s: float) -> dict:
    s = tracer.self_s
    return {
        "fs.translate_s": s.get("fs.translate", 0.0),
        "batch.plan_s": s.get("batch.plan", 0.0),
        "batch.stack_s": s.get("batch.stack", 0.0),
        "batch.metrics_s": s.get("batch.metrics", 0.0),
        "batch.pattern_peak_s": s.get("batch.pattern_peak", 0.0),
        "batch.stacked_rows": tracer.counts.get("batch.stacked_rows", 0),
        "ssd.run_s": tracer.total_s.get("ssd.run", 0.0),
        "ssd.controller_self_s": s.get("ssd.run", 0.0),
        "ssd.schedule_s": s.get("ssd.schedule", 0.0),
        "ssd.translate_s": s.get("ssd.translate", 0.0),
        "ssd.metrics_s": s.get("ssd.metrics", 0.0),
        "ssd.txns": tracer.counts.get("ssd.txns", 0),
        "trace.replay_s": s.get("trace.replay", 0.0),
        "netfault.exhibit_s": s.get("netfault.exhibit", 0.0),
        "experiments.engine_s": s.get("experiments.engine", 0.0),
        "experiments.cache_get_s": s.get("experiments.cache_get", 0.0),
        "experiments.cache_put_s": s.get("experiments.cache_put", 0.0),
        "service.execute_s": s.get("service.execute", 0.0),
        "lint.rules_s": s.get("lint.paths", 0.0),
        "flow.analysis_s": s.get("flow.analysis", 0.0),
        "bench.layer_coverage_frac": sum(s.values()) / wall_s,
    }


def _per_layer(traced, untraced, median) -> dict:
    """Per-pass means over the traced passes; a layer a workload never
    enters reads 0."""
    metrics = {}
    for spec in SPEC["per_layer"]:
        values = [p[2].counters.get(spec["name"], 0) for p in traced]
        metrics[spec["name"]] = (sum(values) / len(values), spec["unit"])
    overhead = median([p[1] for p in traced]) / median([p[1] for p in untraced]) - 1.0
    metrics["bench.trace_overhead_frac"] = (overhead, "ratio")
    return metrics


def _recorded(workload: str, seed: int):
    table = json.loads((HERE / "digests.json").read_text())
    entry = table.get(workload)
    if entry is None or entry["seed"] != seed:
        return None
    return entry["ops"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    pin_to_current_cpu()
    HOST.start()
    refused = [name for name in REFUSED_ENV if os.environ.get(name)]
    if refused:
        _fail(f"refusing to run with {', '.join(refused)} set")
    numpy = _import_program()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    if args.setup_only:
        try:
            setup_only(args)
        finally:
            HOST.stop()
        return 0
    out, info = run(args)
    print(json.dumps({"fingerprint": fingerprint(numpy)}))
    print(json.dumps({"outputs": info}))
    for problem in info["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
