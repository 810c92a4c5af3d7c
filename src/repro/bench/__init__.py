"""Wall-clock benchmarking of the experiment harness itself.

``python -m repro.bench`` times every cell of the figure matrix and
writes ``BENCH_harness.json`` so the harness's own performance is
tracked from PR to PR (the simulator's speed bounds every future PR's
iteration loop).  See :func:`bench_matrix` for the report layout and
:func:`check_against_baseline` for the CI regression gate.
"""

from __future__ import annotations

import json
import pathlib
import platform
import sys
from typing import List, Optional, Sequence, Tuple

from repro.harness import diskcache, parallel

SCHEMA_VERSION = 1


def bench_matrix(
    scale: str = "smoke",
    jobs: int = 1,
    *,
    seed: int = 7,
    use_cache: bool = True,
) -> dict:
    """Time the full matrix; returns the BENCH_harness.json payload."""
    diskcache.stats.reset()
    specs = parallel.matrix_specs(scale, seed=seed)
    report = parallel.run_matrix(specs, jobs=jobs, use_cache=use_cache)
    cells = {}
    for timing in sorted(report.timings, key=lambda t: t.name):
        result = report.results[timing.name]
        cells[timing.name] = {
            "seconds": round(timing.seconds, 4),
            "source": timing.source,
            "throughput_tx_per_ms": result.throughput_tx_per_ms,
            "transactions": result.transactions,
        }
    return {
        "schema": SCHEMA_VERSION,
        "scale": scale,
        "jobs": report.jobs,
        "python": platform.python_version(),
        "code_fingerprint": diskcache.code_fingerprint(),
        "total_matrix_s": round(report.total_s, 4),
        "cells_computed": report.computed,
        "cells_from_cache": report.cache_hits,
        "disk_cache": {
            "hits": diskcache.stats.hits,
            "misses": diskcache.stats.misses,
            "stores": diskcache.stats.stores,
            "degraded": diskcache.stats.degraded,
        },
        "cells": cells,
    }


def bench_crashtest(
    *,
    sample: int = 200,
    seed: int = 7,
    schemes: Optional[Sequence[str]] = None,
) -> dict:
    """Time the crash-point sweep cold vs snapshot-incremental.

    Runs the default sweep twice in this process — once with
    ``REPRO_SNAPSHOT_DISABLE=1`` (the quadratic rerun-from-scratch
    "before" path) and once with snapshots enabled (the checkpointed
    "after" path) — and reports wall time and boundaries/second per
    scheme for both.  The ``cells`` block is shaped like the harness
    benchmark's so :func:`check_against_baseline` gates regressions on
    either mode the same way.
    """
    import os
    import time

    from repro.crashtest import SWEEP_SCHEMES, sweep_scheme

    names = list(schemes or SWEEP_SCHEMES.values())
    saved = os.environ.get("REPRO_SNAPSHOT_DISABLE")
    modes = {}
    cells = {}
    try:
        for mode in ("cold", "incremental"):
            if mode == "cold":
                os.environ["REPRO_SNAPSHOT_DISABLE"] = "1"
            else:
                os.environ.pop("REPRO_SNAPSHOT_DISABLE", None)
            per_scheme = {}
            total_s = 0.0
            total_boundaries = 0
            for name in names:
                t0 = time.perf_counter()
                result = sweep_scheme(name, sample=sample, seed=seed)
                elapsed = time.perf_counter() - t0
                boundaries = len(result.cases)
                per_scheme[name] = {
                    "seconds": round(elapsed, 4),
                    "boundaries": boundaries,
                    "boundaries_per_s": round(boundaries / elapsed, 1),
                }
                cells[f"{mode}/{name}"] = {
                    "seconds": round(elapsed, 4),
                    "source": "computed",
                    "boundaries": boundaries,
                }
                total_s += elapsed
                total_boundaries += boundaries
            modes[mode] = {
                "seconds": round(total_s, 4),
                "boundaries": total_boundaries,
                "boundaries_per_s": round(total_boundaries / total_s, 1),
                "per_scheme": per_scheme,
            }
    finally:
        if saved is None:
            os.environ.pop("REPRO_SNAPSHOT_DISABLE", None)
        else:
            os.environ["REPRO_SNAPSHOT_DISABLE"] = saved
    return {
        "schema": SCHEMA_VERSION,
        "sample": sample,
        "seed": seed,
        "python": platform.python_version(),
        "speedup": round(
            modes["cold"]["seconds"] / modes["incremental"]["seconds"], 2
        ),
        "modes": modes,
        "cells": cells,
    }


def bench_serve(
    *,
    seed: int = 7,
    schemes: Optional[Sequence[str]] = None,
    rate_per_s: float = 60_000.0,
    duration_ms: float = 10.0,
) -> dict:
    """Time the serving layer per scheme, failover, and replication cost.

    Each scheme serves the same deterministic open-loop trace through a
    4-shard cluster; the ``failover`` cell additionally kills a shard
    mid-traffic and rides through recovery.  The replication-cost cells
    (``hoop-r1``, ``hoop-r2``) rerun the hoop trace with synchronous
    redo shipping to 1 and 2 backups — req/s and p99 versus R is the
    price of the durability upgrade — and ``hoop-r1-failover`` destroys
    the primary mid-batch and rides through promotion + rejoin.  Every
    cell reports wall seconds (gated by :func:`check_against_baseline`
    like the other benchmarks) alongside the simulated serving metrics
    — sustained requests/s and p99 latency — so scheme-level serving
    regressions are visible even when wall time is not the symptom.
    Any acknowledged-write loss or replica divergence turns up in
    ``oracle_failures`` and fails the gate outright.
    """
    import time

    from repro.serve import ServeConfig, run_serve

    names = list(schemes or ("hoop", "opt-redo", "opt-undo", "lad"))
    cells = {}
    failures: List[str] = []
    base = ServeConfig(
        shards=4,
        clients=8,
        rate_per_s=rate_per_s,
        duration_ms=duration_ms,
        seed=seed,
    )
    runs = [(name, base.replace(scheme=name)) for name in names]
    runs.append(
        (
            "failover",
            base.replace(
                kill_shard=1, kill_at_ms=duration_ms * 0.4
            ),
        )
    )
    runs.extend(
        (f"hoop-r{r}", base.replace(replicas=r)) for r in (1, 2)
    )
    runs.append(
        (
            "hoop-r1-failover",
            base.replace(
                replicas=1,
                kill_primary_at_ms=duration_ms * 0.4,
                torn_kill=True,
            ),
        )
    )
    for cell_name, cfg in runs:
        t0 = time.perf_counter()
        report = run_serve(cfg)
        elapsed = time.perf_counter() - t0
        cell = {
            "seconds": round(elapsed, 4),
            "source": "computed",
            "requests_per_s": round(report.requests_per_s, 1),
            "p99_latency_ns": report.latency["p99"],
            "acked": report.acked_puts + report.acked_gets,
            "kills": report.kills,
        }
        if cfg.replicas:
            cell["replicas"] = cfg.replicas
            cell["promotions"] = report.promotions
        cells[f"serve/{cell_name}"] = cell
        failures.extend(report.oracle_failures)
    return {
        "schema": SCHEMA_VERSION,
        "seed": seed,
        "rate_per_s": rate_per_s,
        "duration_ms": duration_ms,
        "python": platform.python_version(),
        "oracle_failures": failures,
        "cells": cells,
    }


def write_report(payload: dict, out_path: pathlib.Path) -> None:
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def check_against_baseline(
    payload: dict,
    baseline_path: pathlib.Path,
    *,
    factor: float = 2.0,
    min_seconds: float = 0.05,
) -> List[str]:
    """Compare per-cell times against a committed baseline.

    Returns a list of human-readable regression messages (empty = pass).
    Only *computed* cells are compared — a cache hit is never a
    regression — and cells faster than ``min_seconds`` in the baseline
    are skipped (pure noise at that granularity).
    """
    baseline = json.loads(baseline_path.read_text())
    problems = []
    for name, base_cell in baseline.get("cells", {}).items():
        base_s = base_cell.get("seconds", 0.0)
        if base_s < min_seconds:
            continue
        current = payload["cells"].get(name)
        if current is None:
            problems.append(f"{name}: missing from current run")
            continue
        if current["source"] != "computed":
            continue
        if current["seconds"] > base_s * factor:
            problems.append(
                f"{name}: {current['seconds']:.2f}s vs baseline"
                f" {base_s:.2f}s (>{factor:.0f}x)"
            )
    return problems
