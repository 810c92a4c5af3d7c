"""The sharded serving cluster: coordinator over shard executors.

One :class:`ServeCluster` owns N replication groups (each a
:class:`~repro.serve.replica.ReplicationGroup`: one primary plus R
backups, every replica a full :class:`~repro.txn.system.MemorySystem`
running the configured persistence scheme on a fault-injectable NVM
device, run untraced), the consistent-hash router, open-loop clients,
and — per shard — a :class:`~repro.serve.shard.ShardExecutor`
bundling the shard's admission queue, batch policy, acked-write
oracle, and failover state machines.  Everything runs in *simulated*
time and a run is a pure function of the config and seed.  The
cluster's telemetry hub holds serve data only: the per-shard latency,
queue-depth and batch-size histograms, the replication-lag series, and
the admission and failover events.

The cluster does not pop individual events; :meth:`ServeCluster.run`
drives lock-step *epochs*: each round it computes the next global event
horizon — the min over every shard's next-event clock and the next
client arrival — plus one epoch quantum, routes the arrivals due by
that horizon (in the canonical ``(arrival_ns, client_id)`` order of
:class:`~repro.serve.client.ArrivalStream`), and advances every shard
executor to the horizon in shard order.  Because shards share nothing
and each shard's internal event order is a total order independent of
epoch boundaries, the quantum never changes a byte of the report.

Failover semantics (armed deadline power cuts, crash/recover/verify,
lease-expiry promotion, rejoin catch-up, divergence fingerprints) live
in :class:`~repro.serve.shard.ShardExecutor`, and so does every count
a report sums: the cluster keeps no aggregate of its own.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.common.errors import ConfigError
from repro.serve.client import ArrivalStream, make_clients
from repro.serve.replica import ReplicationGroup
from repro.serve.router import ConsistentHashRouter
from repro.serve.shard import ShardExecutor
from repro.telemetry.hub import Telemetry

# Default lock-step quantum past each global horizon, simulated µs.
EPOCH_US = 1000.0


class ServeCluster:
    """N shard executors behind a router, advanced in lock-step epochs."""

    def __init__(self, cfg, *, telemetry=None) -> None:
        self.cfg = cfg
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        shard_ids = list(range(cfg.shards))
        self.router = ConsistentHashRouter(shard_ids, seed=cfg.seed)
        partition = self.router.partition(cfg.keyspace)
        # One executor per shard, indexed by shard id: list order is the
        # canonical shard order every sum and merge follows.
        self.executors: List[ShardExecutor] = [
            ShardExecutor(
                cfg,
                ReplicationGroup(
                    shard_id,
                    scheme=cfg.scheme,
                    keys=partition[shard_id],
                    value_bytes=cfg.value_bytes,
                    seed=cfg.seed,
                    replicas=cfg.replicas,
                    recovery_threads=cfg.recovery_threads,
                    lease_ns=cfg.lease_us * 1e3,
                    apply_every=cfg.apply_every,
                ),
                telemetry=self.telemetry,
            )
            for shard_id in shard_ids
        ]
        self.epochs = 0

    # -- structure ------------------------------------------------------------

    @property
    def groups(self) -> Dict[int, ReplicationGroup]:
        """The replication groups by shard id (through the executors)."""
        return {
            executor.shard_id: executor.group for executor in self.executors
        }

    # -- the run --------------------------------------------------------------

    def run(self, epoch_us: Optional[float] = None) -> None:
        """Drive the whole open-loop run to completion (queues drained).

        Each round advances every shard to the global horizon plus one
        quantum of ``epoch_us`` simulated µs (default :data:`EPOCH_US`);
        the quantum sets how many rounds a run takes, never its result.
        """
        quantum_ns = (EPOCH_US if epoch_us is None else epoch_us) * 1e3
        if quantum_ns <= 0:
            raise ConfigError("epoch_us must be positive")
        cfg = self.cfg
        clients = make_clients(
            cfg.clients,
            aggregate_rate_per_s=cfg.rate_per_s,
            duration_ns=cfg.duration_ms * 1e6,
            keyspace=cfg.keyspace,
            value_bytes=cfg.value_bytes,
            read_fraction=cfg.read_fraction,
            zipf_theta=cfg.zipf_theta,
            seed=cfg.seed,
        )
        stream = ArrivalStream(clients, self.router)
        executors = self.executors
        for executor in executors:
            executor.arm_kills()
        epochs = 0
        while True:
            floor_ns = min(
                stream.peek_ns(),
                min(executor.next_event_ns() for executor in executors),
            )
            if floor_ns == math.inf:
                break  # no arrivals left, every shard heap drained
            horizon = floor_ns + quantum_ns
            for request in stream.take_until(horizon):
                executors[request.shard].submit(request)
            epochs += 1
            for executor in executors:
                executor.advance_to(horizon)
        self.epochs = epochs
        if cfg.verify_final:
            for executor in executors:
                executor.final_verify()
