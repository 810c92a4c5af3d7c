"""The sharded serving cluster: coordinator over shard executors.

One :class:`ServeCluster` owns N replication groups (each a
:class:`~repro.serve.replica.ReplicationGroup`: one primary plus R
backups, every replica a full :class:`~repro.txn.system.MemorySystem`
running the configured persistence scheme on a fault-injectable NVM
device), the consistent-hash router, open-loop clients, and — per
shard — a :class:`~repro.serve.shard.ShardExecutor` bundling the
shard's admission queue, batch policy, acked-write oracle slice, and
failover state machines.  Everything runs in *simulated* time and a
run is a pure function of the config and seed.

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
lease-expiry promotion, rejoin catch-up, divergence fingerprints) are
unchanged from PR 8 and live in :class:`~repro.serve.shard.ShardExecutor`;
the legacy ``UP``/``RECOVERING`` names remain part of the telemetry
and report vocabulary.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.common.errors import ConfigError
from repro.serve.client import ArrivalStream, make_clients
from repro.serve.replica import (
    GROUP_RECOVERING,
    GROUP_UP,
    ReplicationGroup,
)
from repro.serve.router import ConsistentHashRouter
from repro.serve.shard import ShardExecutor
from repro.telemetry.hub import Telemetry

# Legacy shard lifecycle names (PR 7); group states superseded them but
# the strings are part of the telemetry/report vocabulary.
UP = GROUP_UP
RECOVERING = GROUP_RECOVERING

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
        self.executors: Dict[int, ShardExecutor] = {
            shard_id: ShardExecutor(
                cfg,
                ReplicationGroup(
                    shard_id,
                    scheme=cfg.scheme,
                    keys=partition[shard_id],
                    value_bytes=cfg.value_bytes,
                    seed=cfg.seed,
                    telemetry=self.telemetry,
                    replicas=cfg.replicas,
                    recovery_threads=cfg.recovery_threads,
                    lease_ns=cfg.lease_us * 1e3,
                    apply_every=cfg.apply_every,
                ),
                telemetry=self.telemetry,
            )
            for shard_id in shard_ids
        }
        self.epochs = 0

    # -- structure ------------------------------------------------------------

    @property
    def groups(self) -> Dict[int, ReplicationGroup]:
        """The replication groups by shard id (through the executors)."""
        return {
            shard_id: executor.group
            for shard_id, executor in self.executors.items()
        }

    def sorted_executors(self) -> List[ShardExecutor]:
        """Executors in shard-id order — the canonical merge order."""
        return [self.executors[sid] for sid in sorted(self.executors)]

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
        executors = self.sorted_executors()
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
            arrivals: Dict[int, list] = {}
            for request in stream.take_until(horizon):
                arrivals.setdefault(request.shard, []).append(request)
            epochs += 1
            for executor in executors:
                for request in arrivals.get(executor.shard_id, ()):
                    executor.submit(request)
                executor.advance_to(horizon)
        self.epochs = epochs
        if cfg.verify_final:
            for executor in executors:
                executor.final_verify()

    # -- aggregates (summed over executors in shard order) ---------------------

    def _sum(self, attribute: str) -> int:
        return sum(
            getattr(executor, attribute)
            for executor in self.sorted_executors()
        )

    @property
    def offered(self) -> int:
        """Requests offered across all shards."""
        return self._sum("offered")

    @property
    def admitted(self) -> int:
        """Requests admitted across all shards."""
        return self._sum("admitted")

    @property
    def acked_puts(self) -> int:
        """Acknowledged PUTs across all shards."""
        return self._sum("acked_puts")

    @property
    def acked_gets(self) -> int:
        """Acknowledged GETs across all shards."""
        return self._sum("acked_gets")

    @property
    def retried(self) -> int:
        """Requests requeued after a failed batch, across all shards."""
        return self._sum("retried")

    @property
    def shed_on_failover(self) -> int:
        """In-flight requests shed during failover, across all shards."""
        return self._sum("shed_on_failover")

    @property
    def batches(self) -> int:
        """Batches executed across all shards."""
        return self._sum("batches")

    @property
    def primary_kills(self) -> int:
        """Primary power cuts across all shards."""
        return self._sum("primary_kills")

    @property
    def backup_kills(self) -> int:
        """Backup power cuts across all shards."""
        return self._sum("backup_kills")

    @property
    def divergence_checks(self) -> int:
        """Divergence-oracle passes across all shards."""
        return self._sum("divergence_checks")

    @property
    def oracle_acked_puts(self) -> int:
        """Acked words recorded by the oracle, across all shards."""
        return sum(
            executor.oracle.acked_puts
            for executor in self.sorted_executors()
        )

    @property
    def oracle_verifications(self) -> int:
        """Oracle verification passes across all shards."""
        return sum(
            executor.oracle.verifications
            for executor in self.sorted_executors()
        )

    @property
    def oracle_failures(self) -> List[str]:
        """Every shard's oracle failures, concatenated in shard order."""
        failures: List[str] = []
        for executor in self.sorted_executors():
            failures.extend(executor.oracle_failures)
        return failures

    @property
    def last_completion_ns(self) -> float:
        """The latest acknowledgement instant across all shards."""
        executors = self.sorted_executors()
        if not executors:
            return 0.0
        return max(executor.last_completion_ns for executor in executors)

    @property
    def rejections(self) -> Dict[str, int]:
        """Admission rejections by kind, summed in shard order."""
        merged: Dict[str, int] = {}
        for executor in self.sorted_executors():
            for kind, count in executor.admission.rejections.items():
                merged[kind] = merged.get(kind, 0) + count
        return merged

    def queue_depth(self, shard_id: int) -> int:
        """One shard's current admission-queue depth."""
        return self.executors[shard_id].admission.depth(shard_id)
