"""``repro.serve`` — a sharded transactional KV serving layer.

The serving subsystem fronts N independent simulated NVM machines
(one :class:`~repro.txn.system.MemorySystem` per shard, each running a
persistence scheme from :mod:`repro.schemes`) with the pieces a real
storage service needs:

* :mod:`~repro.serve.router` — consistent-hash request routing;
* :mod:`~repro.serve.client` — open-loop Poisson load generation with
  deterministic per-client RNG streams;
* :mod:`~repro.serve.admission` — bounded queues, backpressure, typed
  retryable rejections;
* :mod:`~repro.serve.batcher` — size-or-deadline batching of same-shard
  requests into single failure-atomic transactions;
* :mod:`~repro.serve.oracle` — the acked-write durability oracle
  (an acknowledgement is a promise; crashes may not break it);
* :mod:`~repro.serve.replica` — replication groups: synchronous
  word-granular redo shipping to R backups, deterministic lease/epoch
  promotion, rejoin catch-up, and the divergence fingerprint oracle;
* :mod:`~repro.serve.shard` — the shard executor: one shard's
  deterministic event loop (admission, batching, mid-traffic
  primary/backup kills, crash/recover/promote failover);
* :mod:`~repro.serve.cluster` — the coordinator and the run's only
  driver: N shard executors advanced in-process in lock-step
  simulated-time epochs.

Run it: ``python -m repro.serve --shards 4 --kill-shard 1``, or with
replication: ``python -m repro.serve --replicas 1
--kill-primary-at-ms 6``.  Everything is simulated time — a run is a
pure function of its :class:`ServeConfig`, bit-identical across
replays, harness parallelism, and epoch quanta.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional

from repro.common.errors import ConfigError
from repro.serve.cluster import ServeCluster
from repro.telemetry.hub import Telemetry
from repro.telemetry.metrics import Log2Histogram

# Schemes the serving layer accepts: every persistence scheme, but not
# ``native`` — a serving ack is a durability promise, and native makes
# none (the final crash+recover sweep would always report loss).
SERVABLE_SCHEMES = (
    "hoop",
    "hoop-mc",
    "opt-redo",
    "opt-undo",
    "osp",
    "lsm",
    "lad",
    "logregion",
)


@dataclass(frozen=True)
class ServeConfig:
    """Everything that determines a serving run (and nothing else)."""

    shards: int = 4
    scheme: str = "hoop"
    clients: int = 8
    rate_per_s: float = 100_000.0
    duration_ms: float = 20.0
    keyspace: int = 4096
    value_bytes: int = 64
    read_fraction: float = 0.25
    zipf_theta: float = 0.9
    batch_size: int = 8
    batch_wait_us: float = 50.0
    queue_depth: int = 64
    kill_shard: Optional[int] = None
    kill_at_ms: Optional[float] = None
    torn_kill: bool = False
    recovery_threads: int = 2
    recovery_floor_ns: float = 10_000.0
    verify_final: bool = True
    seed: int = 7
    # Replication (0 = the PR 7 single-machine shard, bit-identical).
    replicas: int = 0
    lease_us: float = 250.0
    apply_every: int = 4
    kill_primary_at_ms: Optional[float] = None
    kill_backup_at_ms: Optional[float] = None
    double_kill_at_ms: Optional[float] = None

    def __post_init__(self) -> None:
        """Reject configs that cannot serve honestly."""
        if self.shards <= 0:
            raise ConfigError("need at least one shard")
        if not 0 <= self.replicas <= 4:
            raise ConfigError(
                "replicas must be in [0, 4] — every backup is a full "
                "simulated machine"
            )
        if self.replicas == 0:
            for flag in ("kill_backup_at_ms", "double_kill_at_ms"):
                if getattr(self, flag) is not None:
                    raise ConfigError(
                        f"{flag} requires at least one backup "
                        "(--replicas >= 1)"
                    )
        if self.double_kill_at_ms is not None and (
            self.kill_primary_at_ms is None
        ):
            raise ConfigError(
                "double_kill_at_ms arms the *promoted* primary — it "
                "needs a first kill (kill_primary_at_ms)"
            )
        if self.lease_us < 0:
            raise ConfigError("lease_us must be nonnegative")
        if self.apply_every < 1:
            raise ConfigError("apply_every must be at least 1")
        if self.scheme not in SERVABLE_SCHEMES:
            raise ConfigError(
                f"scheme {self.scheme!r} cannot back a serving layer "
                f"(no durability contract); choose one of "
                f"{', '.join(SERVABLE_SCHEMES)}"
            )
        if self.value_bytes <= 0 or self.value_bytes % 8:
            raise ConfigError(
                "value_bytes must be a positive multiple of 8 "
                "(the oracle verifies at word granularity)"
            )
        if self.keyspace <= 0:
            raise ConfigError("keyspace must be positive")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ConfigError("read_fraction must be within [0, 1]")
        # The deeper layers check these too, but only once the run is
        # under way; the messages are theirs.
        if not 0.0 < self.zipf_theta < 1.0:
            raise ConfigError("theta must be in (0, 1)")
        if self.clients <= 0:
            raise ConfigError("need at least one client")
        if self.rate_per_s <= 0:
            raise ConfigError("client rate must be positive")
        if self.duration_ms <= 0:
            raise ConfigError("duration must be positive")
        if self.batch_size <= 0:
            raise ConfigError("batch size must be positive")
        if self.queue_depth <= 0:
            raise ConfigError("queue depth must be positive")
        if self.batch_wait_us < 0:
            raise ConfigError("batch wait must be non-negative")
        if self.recovery_threads < 1:
            raise ConfigError("recovery needs at least one thread")
        if self.kill_shard is not None and not (
            0 <= self.kill_shard < self.shards
        ):
            raise ConfigError(
                f"kill_shard {self.kill_shard} out of range "
                f"[0, {self.shards})"
            )

    def replace(self, **overrides) -> "ServeConfig":
        """A copy with the given fields replaced (re-validated)."""
        return replace(self, **overrides)


@dataclass
class ServeReport:
    """The deterministic outcome of one serving run."""

    scheme: str
    shards: int
    offered: int
    admitted: int
    rejected: Dict[str, int]
    retried: int
    shed_on_failover: int
    acked_puts: int
    acked_gets: int
    batches: int
    kills: int
    recoveries: int
    oracle_acked_puts: int
    oracle_verifications: int
    oracle_failures: List[str]
    committed_transactions: int
    makespan_ns: float
    requests_per_s: float
    transactions_per_s: float
    latency: Dict[str, float]
    per_shard: Dict[str, dict] = field(default_factory=dict)
    # Replication (defaulted so pre-replication report payloads still
    # round-trip through ``ServeReport(**payload)``).
    replicas: int = 0
    promotions: int = 0
    rejoins: int = 0
    backup_kills: int = 0
    divergence_checks: int = 0
    replication: Dict[str, float] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        """Did every acknowledged write survive every crash?"""
        return not self.oracle_failures

    def to_dict(self) -> dict:
        """JSON-serializable form (used by the bench and the CLI)."""
        return asdict(self)


def run_serve(
    cfg: ServeConfig,
    *,
    telemetry: Optional[Telemetry] = None,
) -> ServeReport:
    """Build a cluster from ``cfg``, run it to completion, report.

    Pass a :class:`~repro.telemetry.hub.Telemetry` hub to keep it (for
    Perfetto export of the serve track); otherwise the cluster makes
    its own, and the report carries the latency digests either way.
    """
    cluster = ServeCluster(cfg, telemetry=telemetry)
    cluster.run()
    hub = cluster.telemetry
    makespan = cluster.last_completion_ns
    acked = cluster.acked_puts + cluster.acked_gets
    committed = sum(
        replica.system.committed_transactions
        for group in cluster.groups.values()
        for replica in group.replicas
    )
    # The report's latency digest merges the per-shard single-writer
    # histograms in shard order, so its float total and mean are the
    # same whatever epoch quantum drove the run.
    latency = Log2Histogram()
    per_shard = {}
    for shard_id, group in sorted(cluster.groups.items()):
        shard_hist = hub.hist(f"shard{shard_id}/request_latency_ns")
        latency.merge(shard_hist)
        per_shard[str(shard_id)] = {
            "acked": group.acked,
            "kills": group.kills,
            "recoveries": group.recoveries,
            "queue_depth": cluster.queue_depth(shard_id),
            "latency": shard_hist.summary(),
            "epoch": group.epoch,
            "primary": group.primary_index,
        }
    replication: Dict[str, float] = {}
    if cfg.replicas > 0:
        replication = {
            "records_shipped": float(
                sum(
                    max(r.shipped_seq for r in g.replicas)
                    for g in cluster.groups.values()
                )
            ),
            "records_reconciled": float(
                sum(g.reconciled_records for g in cluster.groups.values())
            ),
        }
    return ServeReport(
        scheme=cfg.scheme,
        shards=cfg.shards,
        offered=cluster.offered,
        admitted=cluster.admitted,
        rejected=dict(sorted(cluster.rejections.items())),
        retried=cluster.retried,
        shed_on_failover=cluster.shed_on_failover,
        acked_puts=cluster.acked_puts,
        acked_gets=cluster.acked_gets,
        batches=cluster.batches,
        kills=sum(g.kills for g in cluster.groups.values()),
        recoveries=sum(g.recoveries for g in cluster.groups.values()),
        oracle_acked_puts=cluster.oracle_acked_puts,
        oracle_verifications=cluster.oracle_verifications,
        oracle_failures=list(cluster.oracle_failures),
        committed_transactions=committed,
        makespan_ns=makespan,
        requests_per_s=(acked * 1e9 / makespan) if makespan > 0 else 0.0,
        transactions_per_s=(
            (committed * 1e9 / makespan) if makespan > 0 else 0.0
        ),
        latency=latency.summary(),
        per_shard=per_shard,
        replicas=cfg.replicas,
        promotions=sum(g.promotions for g in cluster.groups.values()),
        rejoins=sum(g.rejoins for g in cluster.groups.values()),
        backup_kills=cluster.backup_kills,
        divergence_checks=cluster.divergence_checks,
        replication=replication,
    )


# -- snapshot declarations ----------------------------------------------------
# Frozen config: every executor's copy is the same immutable object.
ServeConfig.__snapshot_state__ = "__shared__"


__all__ = [
    "SERVABLE_SCHEMES",
    "ServeConfig",
    "ServeReport",
    "run_serve",
]
