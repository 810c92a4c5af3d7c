"""Run one workload: measure, check, print every metric, emit the JSON line.

Untraced (``--trace 0``): repeat the workload from a fresh build until
``--seconds`` of host time is used (at least twice), require every
repeat's simulated figures to agree exactly, and report the end-to-end
metrics: simulated ones from the repeat (identical in all), host ones
as the median over repeats, in reference seconds
(:mod:`perfbench.hostspeed`).

Traced (``--trace 1``): one untraced repeat, then one with every
layer's entry points wrapped (:mod:`perfbench.layers`).  The two must
agree on every simulated figure.  Reports the per-layer metrics plus
the tracing overhead, and writes the spans once, at the end.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import time
from pathlib import Path
from typing import Dict, List

from perfbench import layers, selftest, workloads
from perfbench.hostspeed import HostClock
from perfbench.trace import Tracer

# Two repeats feed the determinism gate; host time is their median.
MIN_REPEATS = 2
MAX_REPEATS = 9
# Serve set-up is cheap (20-110 ms per repeat), so it is timed over and
# over, for about this long before each repeat and once more after the
# last.  Each sample builds the clusters for at least SETUP_SAMPLE_S, so
# that a sample is long against timer and scheduler noise.  Paper-cells
# set-up (about 10 s for its 15 cells) is timed in every repeat.
SERVE_SETUP_SLICE_S = 1.0
SETUP_SAMPLE_S = 0.1
# Untraced serve runs rescale host time to the reference loop about
# every this many seconds (serve-replicated-failover is one 10 s run).
# A traced repeat does not: the loop would count in the layer times.
SEGMENT_S = 1.0
OUT_DIR = ".perfbench_out"
GENERATOR_NOTE = (
    "open loop: arrival instants are drawn in simulated time, so the "
    "generator is never behind schedule (lateness 0 by construction); "
    "latency runs from each request's due time to its ack"
)


def load_spec(root: Path) -> dict:
    with open(root / "BENCHMARK.json") as spec_file:
        return json.load(spec_file)


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sim_mismatch(first: workloads.Repeat, other: workloads.Repeat) -> bool:
    return first.sim != other.sim or first.metrics != other.metrics


def serve_setup_samples(name: str, seed: int, clock: HostClock) -> List[float]:
    """Set-up of a serve workload in reference seconds, sampled for one slice."""
    setups: List[float] = []
    start = time.perf_counter()
    while len(setups) < 2 or time.perf_counter() - start < SERVE_SETUP_SLICE_S:
        gc.collect()
        setups.append(workloads.serve_setup_s(name, seed, clock, SETUP_SAMPLE_S))
    return setups


def measured_run(name: str, seed: int, seconds: float):
    """Untraced repeats within the time budget; returns (metrics, notes, ...)."""
    serve = name != "paper-cells"
    clock = HostClock(SEGMENT_S)
    setups: List[float] = []
    if serve:
        workloads.serve_setup_s(name, seed, clock)  # warm-up build, not kept
    start = time.perf_counter()
    repeats: List[workloads.Repeat] = []
    durations: List[float] = []
    while True:
        if serve:
            setups += serve_setup_samples(name, seed, clock)
        began = time.perf_counter()
        repeats.append(workloads.run_repeat(name, seed, clock))
        durations.append(time.perf_counter() - began)
        if len(repeats) < MIN_REPEATS:
            continue
        projected = time.perf_counter() + statistics.median(durations)
        if projected - start > seconds or len(repeats) >= MAX_REPEATS:
            break
    if serve:
        setups += serve_setup_samples(name, seed, clock)
    else:
        setups = [r.setup_s for r in repeats]
    first = repeats[0]
    failures = list(first.failures)
    for index, other in enumerate(repeats[1:], start=2):
        if sim_mismatch(first, other):
            failures.append(f"repeat {index} differs from repeat 1 in simulated figures")
    metrics = dict(first.metrics)
    samples = dict(first.samples)
    walls = [r.wall_s for r in repeats]
    raw_walls = [r.raw_wall_s for r in repeats]
    metrics["wall_s"] = statistics.median(walls)
    samples["wall_s"] = (
        f"reference s, median of {len(walls)} repeats"
        f" (raw {min(raw_walls):.3f}-{max(raw_walls):.3f} s)"
    )
    metrics["setup_s"] = statistics.median(setups)
    samples["setup_s"] = f"reference s, median of {len(setups)} timed set-ups"
    metrics["peak_rss_mb"] = peak_rss_mb()
    samples["peak_rss_mb"] = "ru_maxrss of the workload's process"
    return metrics, samples, first, failures


def traced_run(name: str, seed: int, root: Path):
    """One untraced and one traced repeat; per-layer metrics and overhead."""
    gc.collect()
    base = workloads.run_repeat(name, seed, HostClock(SEGMENT_S))
    gc.collect()
    tracer = Tracer()
    recovery = layers.install(tracer)
    try:
        traced = workloads.run_repeat(name, seed, HostClock(), traced=True)
    finally:
        tracer.close()
    failures = list(base.failures) + list(traced.failures)
    if sim_mismatch(base, traced):
        failures.append("traced run differs from the untraced run in simulated figures")
    metrics = layers.per_layer_metrics(tracer, recovery, traced.layers)
    metrics["trace.overhead_s"] = traced.wall_s - base.wall_s
    spans_path = root / OUT_DIR / f"spans-{name}-seed{seed}.jsonl"
    tracer.write_spans(spans_path)
    samples = {
        "trace.overhead_s": (
            f"reference s: traced {traced.wall_s:.3f} - untraced {base.wall_s:.3f};"
            f" {len(tracer.spans)} spans kept, {tracer.dropped} dropped,"
            f" in {spans_path.relative_to(root)}"
        )
    }
    return metrics, samples, base, failures


def main(args, root: Path) -> int:
    spec = load_spec(root)
    kind = "per_layer" if args.trace else "end_to_end"
    wanted = {m["name"]: m["unit"] for m in spec[kind]}
    failures = [f"self-test: {f}" for f in selftest.run_all()]
    if args.trace:
        metrics, samples, repeat, run_failures = traced_run(args.workload, args.seed, root)
    else:
        metrics, samples, repeat, run_failures = measured_run(
            args.workload, args.seed, args.seconds
        )
    failures += run_failures
    missing = sorted(set(wanted) - set(metrics))
    if missing:
        failures.append(f"metrics not produced: {', '.join(missing)}")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    if not args.trace and args.workload != "paper-cells":
        print(f"  note: {GENERATOR_NOTE}")
    for metric in spec[kind]:
        value = metrics.get(metric["name"], float("nan"))
        note = samples.get(metric["name"], "")
        print(f"  {metric['name']:42s} {value:>18.6f} {metric['unit']:10s} {note}")
    for failure in failures:
        print(f"  FAIL {failure}")
    result: Dict[str, object] = {
        "correct": not failures,
        "attempted": repeat.attempted,
        "failed": repeat.lost,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in wanted.items()
            if name in metrics
        },
    }
    print(json.dumps(result))
    return 0 if not failures else 1
