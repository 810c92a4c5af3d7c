"""The four benchmark workloads and how one repeat of each is measured.

A *repeat* runs a workload's whole simulated schedule once from a fresh
build.  Its simulated figures are a pure function of the seed, so two
repeats must agree exactly; its host figures (set-up and measured-phase
seconds) are what the run takes on the host at hand, in reference seconds
(:mod:`perfbench.hostspeed`).

Serve workloads go through the public ``run_serve(cfg, telemetry=hub)``
hook with the in-process engine.  :class:`RawHub` keeps every value
``record``-ed under ``shardN/request_latency_ns`` (and the queue-depth
and batch-size samples), so percentiles are exact, never a histogram
bucket bound.  The ``paper-cells`` workload calls
``repro.harness.experiments.run_cell`` itself, with the cell cache off,
and times the workload's set-up apart from its measured run.
"""

from __future__ import annotations

import gc
import hashlib
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.harness import experiments
from repro.serve import ServeConfig, run_serve
from repro.serve.batcher import BatchScheduler
from repro.serve.cluster import ServeCluster
from repro.telemetry.hub import Telemetry
from repro.txn.system import MemorySystem
from repro.txn.transaction import Transaction
from repro.workloads.driver import WorkloadDriver

from perfbench import stats
from perfbench.hostspeed import HostClock

# -- fixed workload parameters (reasons in perfbench/README.md) ----------------

# p99 latency limit, simulated: above a full batch's commit on a loaded
# shard, below the 50 µs batch-wait deadline a lone request can hit.
SLO_US = 20.0

SERVE_COMMON = dict(
    scheme="hoop",
    zipf_theta=0.9,
    read_fraction=0.25,
    value_bytes=64,
    keyspace=4096,
)

# serve-steady pools this many short runs, each on its own sub-seed: the
# seed also places keys on shards (the router hash), and one placement's
# hot-shard imbalance moved a single run's p99 by ~12 % between seeds.
# 1.25 ms keeps one periodic HOOP GC pass (period 1 ms) in every run.
STEADY_RUNS = 10
STEADY = dict(shards=4, rate_per_s=4e6, duration_ms=1.25)
FAILOVER = dict(
    shards=4,
    replicas=1,
    rate_per_s=1e6,
    duration_ms=10.0,
    torn_kill=True,
)
FAILOVER_KILL_SHARE = 0.4
SATURATION_RATES = (2e6, 4e6, 5e6, 6e6, 8e6)
SATURATION_RUNG_MS = 1.0

CELL_WORKLOADS = ("ycsb", "tpcc", "queue")
CELL_SCHEMES = ("hoop", "opt-redo", "opt-undo", "osp", "lad")
CELL_SCALE = "default"


class RawHub(Telemetry):
    """A telemetry hub that also keeps raw per-shard samples.

    Only the three per-request sample streams are kept raw; everything
    else flows into the normal histograms unchanged, so the run and its
    report are exactly those of a plain hub.
    """

    __slots__ = ("raw",)
    KEPT = ("/request_latency_ns", "/queue_depth", "/batch_size")

    def __init__(self) -> None:
        super().__init__()
        self.raw: Dict[str, List[float]] = {}

    def record(self, name: str, value: float) -> None:
        if name.endswith(self.KEPT):
            self.raw.setdefault(name, []).append(value)
        super().record(name, value)

    def samples(self, suffix: str) -> List[float]:
        """Every shard's raw samples for one stream, in shard order."""
        merged: List[float] = []
        for name in sorted(self.raw):
            if name.endswith(suffix):
                merged.extend(self.raw[name])
        return merged


class ServeProbe:
    """Wraps public serve entry points for the length of one repeat.

    * ``ServeCluster.run``: ``run_serve`` builds its cluster (set-up) and
      then calls ``run`` (the measured phase, final oracle sweep
      included).  The wrapper times ``run`` on ``clock`` and keeps the
      cluster, whose machines' statistics are read after the run.
    * ``BatchScheduler.take``: keeps every request a batch carries.  The
      hub's latency record holds only the value; the request also holds
      its arrival instant, which the drain window below needs.  Each
      batch also ticks ``clock``, which may end a timing segment there.
    """

    def __init__(self, clock: HostClock) -> None:
        self.wall_s = self.raw_wall_s = 0.0
        self.cluster = None
        self.batched: Dict[int, object] = {}
        self._run = ServeCluster.__dict__["run"]
        self._take = BatchScheduler.__dict__["take"]
        probe = self

        def run(cluster, engine=None):
            probe.cluster = cluster
            clock.start()
            try:
                return probe._run(cluster, engine)
            finally:
                probe.wall_s, probe.raw_wall_s = clock.stop()

        def take(scheduler, queue):
            batch = probe._take(scheduler, queue)
            clock.tick()
            for request in batch:
                probe.batched[id(request)] = request
            return batch

        ServeCluster.run = run
        BatchScheduler.take = take

    def close(self) -> None:
        ServeCluster.run = self._run
        BatchScheduler.take = self._take


class TxCapture:
    """Keeps the transactions a memory system opens, per system.

    Wraps ``MemorySystem.transaction``; after a run each kept
    transaction carries its simulated ``begin_ns``/``end_ns``, the
    critical-path latency of Fig. 7b.  With ``count_bytes`` it also
    wraps ``Transaction.store``/``store_u64`` to tally each transaction's
    payload bytes (``user_bytes``), the base of the write-amplification
    ratio; that costs host time on every store, so only traced runs ask
    for it.
    """

    def __init__(self, *, count_bytes: bool = False) -> None:
        self.by_system: Dict[int, list] = {}
        self._original = MemorySystem.__dict__["transaction"]
        self._store = Transaction.__dict__["store"]
        self._store_u64 = Transaction.__dict__["store_u64"]
        capture = self

        def transaction(system, core=0):
            tx = capture._original(system, core)
            capture.by_system.setdefault(id(system), []).append(tx)
            return tx

        def store(tx, addr, data):
            tx.user_bytes = getattr(tx, "user_bytes", 0) + len(data)
            return capture._store(tx, addr, data)

        def store_u64(tx, addr, value):
            tx.user_bytes = getattr(tx, "user_bytes", 0) + 8
            return capture._store_u64(tx, addr, value)

        MemorySystem.transaction = transaction
        if count_bytes:
            Transaction.store = store
            Transaction.store_u64 = store_u64

    def take(self, system) -> list:
        return self.by_system.pop(id(system), [])

    def close(self) -> None:
        MemorySystem.transaction = self._original
        Transaction.store = self._store
        Transaction.store_u64 = self._store_u64


@dataclass
class Repeat:
    """One repeat's outcome.

    ``sim`` holds every simulated figure (compared exactly across
    repeats and against the traced run); ``metrics`` the simulated
    end-to-end metrics; ``layers`` per-layer counts read from the stats
    objects; ``failures`` any broken correctness check.  ``wall_s`` is
    the measured phase in reference seconds, ``raw_wall_s`` in raw
    ones.  ``setup_s`` is the set-up of paper-cells, which every repeat
    builds afresh; serve set-up is sampled apart
    (``perfbench.bench.serve_setup_samples``).
    """

    sim: dict
    metrics: Dict[str, float]
    samples: Dict[str, str]
    layers: Dict[str, float]
    wall_s: float
    raw_wall_s: float
    attempted: int
    lost: int
    setup_s: Optional[float] = None
    failures: List[str] = field(default_factory=list)


def digest(values) -> str:
    """Exact fingerprint of a sequence of floats (repr round-trips)."""
    return hashlib.sha256(repr(list(values)).encode()).hexdigest()[:16]


def machine_stats(systems) -> Dict[str, float]:
    """Per-layer counts summed over simulated machines, from their stats."""
    totals = dict.fromkeys(
        (
            "nvm.bytes_written",
            "nvm.bytes_read",
            "nvm.writes",
            "memctrl.retries",
            "memhier.llc_misses",
            "memhier.llc_accesses",
            "schemes.tx_stores",
            "core.gc.passes",
            "core.gc.words_scanned",
            "core.gc.words_migrated",
            "core.mapping.hits",
            "core.mapping.misses",
            "core.parallel_reads",
            "core.oop_buffer.flushes",
        ),
        0,
    )
    for system in systems:
        device = system.device.stats
        totals["nvm.bytes_written"] += device.bytes_written
        totals["nvm.bytes_read"] += device.bytes_read
        totals["nvm.writes"] += device.writes
        scheme = system.scheme
        totals["memctrl.retries"] += scheme.port.stats.read_retries
        hierarchy = system.hierarchy.stats
        totals["memhier.llc_misses"] += hierarchy.llc_misses
        totals["memhier.llc_accesses"] += hierarchy.llc_accesses
        totals["schemes.tx_stores"] += scheme.stats.tx_stores
        controller = getattr(scheme, "controller", None)
        if controller is not None:
            gc = controller.gc.stats
            totals["core.gc.passes"] += gc.passes
            totals["core.gc.words_scanned"] += gc.words_scanned
            totals["core.gc.words_migrated"] += gc.words_migrated
            hoop = controller.stats
            totals["core.mapping.hits"] += hoop.mapping_hits_on_miss
            totals["core.mapping.misses"] += hoop.mapping_misses_on_miss
            totals["core.parallel_reads"] += hoop.parallel_reads
            totals["core.oop_buffer.flushes"] += controller.buffer.stats.slices_written
    return totals


def latency_metrics(latencies_ns: List[float], out: dict, samples: dict) -> None:
    """Exact p50 / p99 / p999 (or the highest supported tail) in µs."""
    summary = stats.summarize(latencies_ns)
    n = summary["count"]
    out["lat_p50_us"] = summary["p50_us"]
    out["lat_p99_us"] = summary["p99_us"]
    out["lat_p999_us"] = summary["tail_us"]
    samples["lat_p50_us"] = f"n={n}"
    samples["lat_p99_us"] = f"n={n}"
    samples["lat_p999_us"] = (
        f"n={n}, q={summary['tail_q']:.4f}, {summary['tail_beyond']} beyond"
    )


# -- serve workloads -----------------------------------------------------------


@dataclass
class ServeRun:
    """What one ``run_serve`` call leaves for the metrics and checks.

    ``latencies`` are every ack's latency as the hub recorded it;
    ``window`` those of requests that arrived before the drain window
    (see :func:`serve_once`).  Machine statistics are read right after
    the run, so the machines themselves are not kept.  ``wall_s`` is the
    measured phase in reference seconds, ``raw_wall_s`` in raw ones.
    """

    cfg: ServeConfig
    report: object
    latencies: List[float]
    window: List[float]
    queue_depths: List[float]
    batch_sizes: List[float]
    capture_agrees: bool
    machines: Dict[str, float]
    epochs: int
    wall_s: float
    raw_wall_s: float

    @property
    def refused(self) -> int:
        return sum(self.report.rejected.values())

    @property
    def failed(self) -> int:
        """Refused or shed: offered requests that got a typed refusal."""
        return self.refused + self.report.shed_on_failover

    @property
    def acked(self) -> int:
        return self.report.acked_puts + self.report.acked_gets


def serve_once(cfg: ServeConfig, probe: ServeProbe) -> ServeRun:
    """Run one serve config in-process and keep what the metrics need."""
    hub = RawHub()
    probe.batched = {}
    report = run_serve(cfg, telemetry=hub)
    cluster, probe.cluster = probe.cluster, None
    systems = [
        replica.system
        for _, group in sorted(cluster.groups.items())
        for replica in group.replicas
    ]
    acked = [r for r in probe.batched.values() if r.completion_ns > 0.0]
    probe.batched = {}
    latencies = hub.samples("/request_latency_ns")
    # Latency percentiles leave out requests that arrived in the last
    # batch-wait interval: once arrivals stop, the last partial batch of
    # every shard waits out the deadline, an end-of-run artefact that
    # alone set serve-steady's p999.
    cutoff_ns = (cfg.duration_ms - cfg.batch_wait_us * 1e-3) * 1e6
    return ServeRun(
        cfg=cfg,
        report=report,
        latencies=latencies,
        window=[r.latency_ns for r in acked if r.arrival_ns <= cutoff_ns],
        queue_depths=hub.samples("/queue_depth"),
        batch_sizes=hub.samples("/batch_size"),
        capture_agrees=sorted(r.latency_ns for r in acked) == sorted(latencies),
        machines=machine_stats(systems),
        epochs=cluster.epochs,
        wall_s=probe.wall_s,
        raw_wall_s=probe.raw_wall_s,
    )


def serve_checks(run: ServeRun) -> List[str]:
    """Correctness of one serve run: oracle, replicas, accounting."""
    report = run.report
    failures = [f"oracle: {failure}" for failure in report.oracle_failures]
    if not report.oracle_verifications:
        failures.append("oracle: no verification pass ran")
    if run.cfg.replicas and not report.divergence_checks:
        failures.append("replicas: no divergence check ran")
    if report.admitted + run.refused != report.offered:
        failures.append(
            f"accounting: admitted {report.admitted} + refused {run.refused}"
            f" != offered {report.offered}"
        )
    if run.acked + report.shed_on_failover != report.admitted:
        failures.append(
            f"accounting: acked {run.acked} + shed {report.shed_on_failover}"
            f" != admitted {report.admitted}"
        )
    if len(run.latencies) != run.acked:
        failures.append(
            f"latency capture: {len(run.latencies)} samples for {run.acked} acks"
        )
    if not run.capture_agrees:
        failures.append("latency capture: batched requests disagree with the hub")
    if run.latencies and min(run.latencies) <= 0:
        failures.append("latency capture: a non-positive latency")
    return failures


def serve_sim(run: ServeRun) -> dict:
    """Every simulated figure of one serve run, for exact comparison."""
    return {
        "report": run.report.to_dict(),
        "latencies": digest(run.latencies),
        "window": digest(run.window),
        "queue_depths": digest(run.queue_depths),
        "batch_sizes": digest(run.batch_sizes),
        "machines": run.machines,
        "epochs": run.epochs,
    }


def serve_layers(runs: List[ServeRun]) -> Dict[str, float]:
    """Per-layer counts over one repeat's serve runs."""
    layers = {key: sum(run.machines[key] for run in runs) for key in runs[0].machines}
    depths = sorted(d for run in runs for d in run.queue_depths)
    sizes = [b for run in runs for b in run.batch_sizes]
    layers.update(
        {
            "serve.engine.rounds": sum(run.epochs for run in runs),
            "serve.admission.admitted": sum(run.report.admitted for run in runs),
            "serve.admission.queue_depth_p99": stats.percentile(depths, 0.99),
            "serve.batcher.batches": sum(run.report.batches for run in runs),
            "serve.batcher.fill_ratio": sum(sizes) / len(sizes) / runs[0].cfg.batch_size,
            "serve.replica.records_shipped": sum(
                run.report.replication.get("records_shipped", 0.0) for run in runs
            ),
            "serve.oracle.verifications": sum(
                run.report.oracle_verifications for run in runs
            ),
            "serve.acked_puts": sum(run.report.acked_puts for run in runs),
            "txn.user_bytes": sum(
                run.report.acked_puts * run.cfg.value_bytes for run in runs
            ),
            "txn.committed": sum(run.report.committed_transactions for run in runs),
        }
    )
    for kind in ("queue_full", "shard_recovering", "failing_over"):
        layers[f"serve.admission.refused.{kind}"] = sum(
            run.report.rejected.get(kind, 0) for run in runs
        )
    return layers


def slo_rungs(runs: List[ServeRun]):
    """``(offered_rate, offered, misses)`` per offered rate, ascending.

    Runs at one nominal rate (the sub-runs of serve-steady) pool into one
    rung.  Misses count every refusal and every ack later than the SLO.
    """
    pooled: Dict[float, List[ServeRun]] = {}
    for run in runs:
        pooled.setdefault(run.cfg.rate_per_s, []).append(run)
    rungs = []
    for group in pooled.values():
        offered = sum(run.report.offered for run in group)
        seconds = sum(run.cfg.duration_ms for run in group) * 1e-3
        misses = sum(
            stats.slo_misses(run.latencies, run.failed, SLO_US * 1e3) for run in group
        )
        rungs.append((offered / seconds, offered, misses))
    return sorted(rungs)


def repeat_from_serve(runs: List[ServeRun], tail_runs: List[ServeRun]) -> Repeat:
    """Metrics, checks and counts of one serve repeat.

    Goodput and the latency percentiles pool ``tail_runs``; throughput,
    traffic and refusals sum over every run.
    """
    metrics: Dict[str, float] = {}
    samples: Dict[str, str] = {}
    acked = sum(run.acked for run in tail_runs)
    makespan_s = sum(run.report.makespan_ns for run in tail_runs) * 1e-9
    metrics["goodput_rps"] = acked / makespan_s
    samples["goodput_rps"] = f"{acked} acked / {makespan_s * 1e3:.4f} ms"
    window = [v for run in tail_runs for v in run.window]
    latency_metrics(window, metrics, samples)
    drained = sum(len(run.latencies) - len(run.window) for run in tail_runs)
    samples["lat_p50_us"] += f" ({drained} acks in the drain window left out)"
    rungs = slo_rungs(runs)
    metrics["max_rps_at_slo"] = stats.max_rate_at_slo(rungs)
    samples["max_rps_at_slo"] = "; ".join(
        f"{rate / 1e6:.3f}M: {misses}/{offered} miss {SLO_US:g} us"
        for rate, offered, misses in rungs
    )
    offered = sum(run.report.offered for run in runs)
    failed = sum(run.failed for run in runs)
    metrics["acked_frac"] = (offered - failed) / offered
    samples["acked_frac"] = f"{offered - failed}/{offered} offered"
    committed = sum(run.report.committed_transactions for run in runs)
    sim_ms = sum(run.report.makespan_ns for run in runs) * 1e-6
    metrics["sim_tx_per_ms"] = committed / sim_ms
    samples["sim_tx_per_ms"] = f"{committed} tx / {sim_ms:.4f} ms"
    written = sum(run.machines["nvm.bytes_written"] for run in runs)
    metrics["nvm_bytes_per_tx"] = written / committed
    samples["nvm_bytes_per_tx"] = f"{written} B / {committed} tx"
    failures: List[str] = []
    for run in runs:
        failures.extend(serve_checks(run))
    answered = sum(run.acked + run.failed for run in runs)
    return Repeat(
        sim={f"run{i}": serve_sim(run) for i, run in enumerate(runs)},
        metrics=metrics,
        samples=samples,
        layers=serve_layers(runs),
        wall_s=sum(run.wall_s for run in runs),
        raw_wall_s=sum(run.raw_wall_s for run in runs),
        attempted=offered,
        lost=offered - answered,
        failures=failures,
    )


def serve_configs(name: str, seed: int) -> List[ServeConfig]:
    """The serve configs one repeat of a serve workload runs, in order."""
    if name == "serve-steady":
        # Sub-seeds seed*N .. seed*N+N-1: disjoint for distinct seeds.
        return [
            ServeConfig(seed=seed * STEADY_RUNS + i, **SERVE_COMMON, **STEADY)
            for i in range(STEADY_RUNS)
        ]
    if name == "serve-replicated-failover":
        kill_ms = FAILOVER["duration_ms"] * FAILOVER_KILL_SHARE
        params = [dict(FAILOVER, kill_primary_at_ms=kill_ms)]
    else:
        params = [
            dict(shards=1, rate_per_s=rate, duration_ms=SATURATION_RUNG_MS)
            for rate in SATURATION_RATES
        ]
    return [ServeConfig(seed=seed, **SERVE_COMMON, **p) for p in params]


def run_serve_workload(name: str, seed: int, clock: HostClock) -> Repeat:
    probe = ServeProbe(clock)
    runs: List[ServeRun] = []
    try:
        for cfg in serve_configs(name, seed):
            gc.collect()
            runs.append(serve_once(cfg, probe))
    finally:
        probe.close()
    # The saturation ladder reports the tail of its overloaded top rung;
    # the other workloads pool every run.
    tail_runs = runs[-1:] if name == "serve-saturation" else runs
    repeat = repeat_from_serve(runs, tail_runs)
    if name == "serve-replicated-failover" and runs[0].report.promotions < 1:
        repeat.failures.append("failover: the primary kill caused no promotion")
    return repeat


def serve_setup_s(name: str, seed: int, clock: HostClock, min_s: float = 0.0) -> float:
    """Reference seconds to build one repeat's clusters, as ``run_serve`` does.

    Builds them again and again for at least ``min_s`` and returns the
    mean time of one build.
    """
    configs = serve_configs(name, seed)
    builds = 0
    start = time.perf_counter()
    clock.start()
    while True:
        for cfg in configs:
            ServeCluster(cfg, telemetry=RawHub())
        builds += 1
        if time.perf_counter() - start >= min_s:
            return clock.stop()[0] / builds


# -- paper cells -----------------------------------------------------------------


class CellProbe:
    """Splits each ``run_cell`` call into its set-up and measured phase.

    ``run_cell`` builds the machine and calls ``WorkloadDriver.run``,
    which sets the workload up and then runs it.  The wrapper sets the
    workload up itself, exactly as ``run`` would, notes the instant
    between the two phases, drops the set-up's transactions from the
    capture, and calls ``run`` with ``setup=False``.  It also keeps the
    machine, whose statistics are read after the cell.

    The caller starts ``clock`` before ``run_cell``; the probe stops it
    at the end of set-up (``setup_s``) and times the measured phase on it
    (``wall_s``, ``raw_wall_s``), all in the clock's units.
    """

    def __init__(self, capture: TxCapture, clock: HostClock) -> None:
        self.setup_s = self.wall_s = self.raw_wall_s = 0.0
        self.system = None
        self._run = WorkloadDriver.__dict__["run"]
        probe = self

        def run(driver, workload, transactions, *, setup=True, **kwargs):
            if setup:
                workload.setup(core=0)
            probe.setup_s = clock.stop()[0]
            capture.take(driver.system)
            clock.start()
            try:
                return probe._run(driver, workload, transactions, setup=False, **kwargs)
            finally:
                probe.wall_s, probe.raw_wall_s = clock.stop()
                probe.system = driver.system

        WorkloadDriver.run = run

    def close(self) -> None:
        WorkloadDriver.run = self._run


def run_paper_cells(seed: int, clock: HostClock, traced: bool) -> Repeat:
    """Every (workload, scheme) cell at ``default`` scale, computed afresh.

    Each cell is ``experiments.run_cell(..., use_cache=False)``: built,
    set up and run from scratch, never served from a cache.
    """
    preset = experiments.get_scale(CELL_SCALE)
    capture = TxCapture(count_bytes=traced)
    probe = CellProbe(capture, clock)
    latencies: List[float] = []
    rates: List[float] = []
    per_tx_bytes: List[float] = []
    results: Dict[str, dict] = {}
    layers: Dict[str, float] = {}
    failures: List[str] = []
    setup_s = wall_s = raw_wall_s = 0.0
    total_tx = 0
    total_ns = 0.0
    user_bytes = 0
    slo_met_tx = 0
    try:
        for workload in CELL_WORKLOADS:
            for scheme in CELL_SCHEMES:
                label = f"{workload}/{scheme}"
                probe.system = None
                gc.collect()
                clock.start()
                result = experiments.run_cell(
                    scheme, workload, CELL_SCALE, seed=seed, use_cache=False
                )
                system = probe.system
                if system is None:
                    failures.append(f"paper-cells: {label} was not computed in this run")
                    continue
                setup_s += probe.setup_s
                wall_s += probe.wall_s
                raw_wall_s += probe.raw_wall_s
                opened = capture.take(system)
                if result.transactions != preset.transactions or len(opened) != (
                    preset.warmup + preset.transactions
                ):
                    failures.append(
                        f"paper-cells: {label} committed {result.transactions}"
                        f" measured tx, opened {len(opened)}"
                    )
                measured = [tx.latency_ns for tx in opened[preset.warmup:]]
                user_bytes += sum(
                    getattr(tx, "user_bytes", 0) for tx in opened[preset.warmup:]
                )
                latencies.extend(measured)
                slo_met_tx += sum(1 for v in measured if v <= SLO_US * 1e3)
                rates.append(result.throughput_tx_per_ms)
                per_tx_bytes.append(result.bytes_per_tx)
                total_tx += result.transactions
                total_ns += result.makespan_ns
                results[label] = dict(vars(result), latencies=digest(measured))
                for key, value in machine_stats([system]).items():
                    layers[key] = layers.get(key, 0) + value
    finally:
        probe.close()
        capture.close()
    cells = len(CELL_WORKLOADS) * len(CELL_SCHEMES)
    metrics: Dict[str, float] = {}
    samples: Dict[str, str] = {}
    total_s = total_ns * 1e-9
    metrics["goodput_rps"] = total_tx / total_s
    samples["goodput_rps"] = f"{total_tx} tx / {total_s * 1e3:.4f} ms, {len(results)} cells"
    latency_metrics(latencies, metrics, samples)
    metrics["max_rps_at_slo"] = slo_met_tx / total_s
    samples["max_rps_at_slo"] = (
        f"closed loop: {slo_met_tx}/{total_tx} tx within {SLO_US:g} us"
    )
    attempted = (preset.warmup + preset.transactions) * cells
    metrics["acked_frac"] = total_tx / (preset.transactions * cells)
    samples["acked_frac"] = f"{total_tx}/{preset.transactions * cells} tx"
    metrics["sim_tx_per_ms"] = statistics.geometric_mean(rates)
    samples["sim_tx_per_ms"] = f"geomean of {len(rates)} cells"
    metrics["nvm_bytes_per_tx"] = statistics.geometric_mean(per_tx_bytes)
    samples["nvm_bytes_per_tx"] = f"geomean of {len(per_tx_bytes)} cells"
    layers["txn.committed"] = total_tx
    layers["txn.user_bytes"] = user_bytes
    return Repeat(
        sim={"cells": results},
        metrics=metrics,
        samples=samples,
        layers=layers,
        wall_s=wall_s,
        raw_wall_s=raw_wall_s,
        attempted=attempted,
        lost=attempted - total_tx - preset.warmup * len(results),
        setup_s=setup_s,
        failures=failures,
    )


def run_repeat(name: str, seed: int, clock: HostClock, *, traced: bool = False) -> Repeat:
    """One repeat of a named workload, from a fresh build.

    ``traced`` asks for the counts only a traced run pays for.
    """
    if name == "paper-cells":
        return run_paper_cells(seed, clock, traced)
    return run_serve_workload(name, seed, clock)
