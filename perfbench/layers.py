"""Which entry points make up each layer, and the per-layer metrics.

Layers are named after the program's modules.  :func:`install` wraps
each layer's public entry points on a :class:`~perfbench.trace.Tracer`;
:func:`per_layer_metrics` turns the tracer's host times plus the
repeat's stats-object counts into the metrics ``BENCHMARK.json`` lists
under ``per_layer``.  Every metric is printed on every workload; a layer
a workload never enters reads 0.
"""

from __future__ import annotations

from typing import Dict

import repro.serve.replica as replica_module
import repro.snapshot as snapshot_module
from repro.core.gc import GarbageCollector
from repro.serve.admission import AdmissionController
from repro.serve.batcher import BatchScheduler
from repro.serve.client import ArrivalStream
from repro.serve.cluster import ServeCluster
from repro.serve.oracle import AckOracle
from repro.serve.replica import ReplicationGroup
from repro.serve.router import ConsistentHashRouter
from repro.serve.shard import ShardExecutor
from repro.telemetry.hub import Telemetry
from repro.txn.system import MemorySystem
from repro.txn.transaction import Transaction
from repro.workloads.driver import QueueWorkload, WorkloadDriver
from repro.workloads.tpcc import TPCCNewOrderWorkload
from repro.workloads.ycsb import YCSBWorkload

from perfbench.trace import Tracer
from perfbench.workloads import RawHub


def _request_of(args) -> str:
    request = args[1]
    return f"c{request.client}.{request.seq}"


class SimRecovery:
    """Sums the simulated recovery time ``MemorySystem.recover`` reports."""

    def __init__(self) -> None:
        self.ns = 0.0

    def __call__(self, report) -> None:
        self.ns += getattr(report, "elapsed_ns", 0.0) or 0.0


def install(tracer: Tracer) -> SimRecovery:
    """Wrap every layer's entry points; returns the recovery-time sink."""
    wrap = tracer.wrap
    wrap(ServeCluster, "run", "serve.engine")
    wrap(ArrivalStream, "take_until", "serve.engine")
    wrap(ConsistentHashRouter, "shard_for", "serve.router")
    wrap(ShardExecutor, "advance_to", "serve.shard")
    wrap(AdmissionController, "admit", "serve.admission", request_id=_request_of)
    wrap(BatchScheduler, "take", "serve.batcher")
    for entry in ("commit_and_ship", "promote", "catch_up", "live_projections"):
        wrap(ReplicationGroup, entry, "serve.replica")
    wrap(ShardExecutor, "final_verify", "serve.oracle")
    wrap(AckOracle, "record_ack", "serve.oracle")
    recovery = SimRecovery()
    for entry in ("run_batch", "load", "crash"):
        wrap(MemorySystem, entry, "txn")
    wrap(MemorySystem, "recover", "txn", after=recovery)
    # The workload drivers open transactions themselves rather than call
    # run_batch, so the transaction's own data plane and commit are
    # entry points too.
    for entry in ("__enter__", "__exit__", "store", "load", "store_u64", "load_u64"):
        wrap(Transaction, entry, "txn")
    wrap(GarbageCollector, "run", "core.gc")
    # ``clone_state`` is imported by name into the replica module, so
    # both bindings are wrapped (one tracer entry each).
    wrap(snapshot_module, "clone_state", "snapshot")
    wrap(replica_module, "clone_state", "snapshot")
    wrap(snapshot_module, "capture", "snapshot")
    wrap(RawHub, "record", "telemetry")
    wrap(Telemetry, "emit", "telemetry")
    wrap(Telemetry, "sample", "telemetry")
    for workload in (QueueWorkload, YCSBWorkload, TPCCNewOrderWorkload):
        wrap(workload, "setup", "workloads")
    wrap(WorkloadDriver, "run", "workloads")
    return recovery


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(
    tracer: Tracer, recovery: SimRecovery, layers: Dict[str, float]
) -> Dict[str, float]:
    """Per-layer metrics of one traced repeat.

    ``layers`` are the repeat's counts from the stats objects
    (:func:`perfbench.workloads.machine_stats` and friends).
    """
    calls = tracer.entry_calls
    incl = tracer.entry_inclusive_s
    own = tracer.layer_self_s
    batches = layers.get("serve.batcher.batches", 0)
    user_bytes = layers.get("txn.user_bytes", 0)
    telemetry_calls = sum(
        calls("telemetry", entry) for entry in ("record", "emit", "sample")
    )
    clones = calls("snapshot", "clone_state")
    return {
        "serve.engine.self_s": own("serve.engine"),
        "serve.engine.rounds": layers.get("serve.engine.rounds", 0),
        "serve.router.calls": calls("serve.router", "shard_for"),
        "serve.router.self_s": own("serve.router"),
        "serve.shard.self_s": own("serve.shard"),
        "serve.shard.self_s_per_batch": _ratio(own("serve.shard"), batches),
        "serve.admission.admitted": layers.get("serve.admission.admitted", 0),
        "serve.admission.refused.queue_full": layers.get(
            "serve.admission.refused.queue_full", 0
        ),
        "serve.admission.refused.shard_recovering": layers.get(
            "serve.admission.refused.shard_recovering", 0
        ),
        "serve.admission.refused.failing_over": layers.get(
            "serve.admission.refused.failing_over", 0
        ),
        "serve.admission.queue_depth_p99": layers.get(
            "serve.admission.queue_depth_p99", 0
        ),
        "serve.admission.self_s": own("serve.admission"),
        "serve.batcher.batches": batches,
        "serve.batcher.fill_ratio": layers.get("serve.batcher.fill_ratio", 0.0),
        "serve.replica.self_s": own("serve.replica"),
        "serve.replica.records_shipped": layers.get(
            "serve.replica.records_shipped", 0
        ),
        "serve.replica.nvm_stores_per_put": _ratio(
            layers.get("nvm.writes", 0), layers.get("serve.acked_puts", 0)
        ),
        "serve.replica.catch_up_s": incl("serve.replica", "catch_up"),
        "serve.oracle.verify_s": incl("serve.oracle", "final_verify"),
        "serve.oracle.self_s": own("serve.oracle"),
        "serve.oracle.verifications": layers.get("serve.oracle.verifications", 0),
        "txn.self_s": own("txn"),
        "txn.committed": layers.get("txn.committed", 0),
        "txn.recover_s": incl("txn", "recover"),
        "txn.recover_sim_ns": recovery.ns,
        "memhier.llc_miss_ratio": _ratio(
            layers["memhier.llc_misses"], layers["memhier.llc_accesses"]
        ),
        "memhier.llc_misses": layers["memhier.llc_misses"],
        "core.gc.passes": layers["core.gc.passes"],
        "core.gc.self_s": own("core.gc"),
        "core.gc.reduction": _ratio(
            layers["core.gc.words_scanned"] - layers["core.gc.words_migrated"],
            layers["core.gc.words_scanned"],
        ),
        "core.mapping.hit_ratio": _ratio(
            layers["core.mapping.hits"],
            layers["core.mapping.hits"] + layers["core.mapping.misses"],
        ),
        "core.parallel_reads": layers["core.parallel_reads"],
        "core.oop_buffer.flushes": layers["core.oop_buffer.flushes"],
        "schemes.tx_stores": layers["schemes.tx_stores"],
        "nvm.bytes_written": layers["nvm.bytes_written"],
        "nvm.bytes_read": layers["nvm.bytes_read"],
        "nvm.write_amp": _ratio(layers["nvm.bytes_written"], user_bytes),
        "memctrl.retries": layers["memctrl.retries"],
        "snapshot.clones": clones,
        "snapshot.clone_s": incl("snapshot", "clone_state"),
        "telemetry.calls": telemetry_calls,
        "telemetry.self_s": own("telemetry"),
        "workloads.setup_s": incl("workloads", "setup"),
        "workloads.run_s": incl("workloads", "run"),
    }
