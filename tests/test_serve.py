"""The serving layer: routing, admission, batching, failover, oracle."""

import hashlib
import json
import re

import pytest

from repro.common import rng as rng_util
from repro.common.errors import ConfigError
from repro.serve import SERVABLE_SCHEMES, ServeConfig, ServeReport, run_serve
from repro.serve.admission import (
    AdmissionController,
    FailoverRejection,
    QueueFullRejection,
    RetryableRejection,
    ShardRecoveringRejection,
)
from repro.serve.batcher import BatchScheduler
from repro.serve.client import OP_GET, OP_PUT, OpenLoopClient, make_clients
from repro.serve.cluster import EPOCH_US, ServeCluster
from repro.serve.router import ConsistentHashRouter, stable_hash
from repro.serve.shard import ShardExecutor
from repro.telemetry.hub import NULL_TELEMETRY, Telemetry


def tiny_cfg(**overrides):
    base = dict(
        shards=2,
        clients=3,
        rate_per_s=30_000.0,
        duration_ms=4.0,
        keyspace=512,
        seed=13,
    )
    base.update(overrides)
    return ServeConfig(**base)


class TestRouter:
    def test_stable_hash_is_process_stable(self):
        # A fixed expectation pins the function across runs/processes —
        # Python's salted hash() would fail this (that is the point).
        assert stable_hash(0, "shard", 1, 2) == stable_hash(0, "shard", 1, 2)
        a = ConsistentHashRouter([0, 1, 2], seed=5)
        b = ConsistentHashRouter([0, 1, 2], seed=5)
        assert [a.shard_for(k) for k in range(500)] == [
            b.shard_for(k) for k in range(500)
        ]

    def test_reasonable_balance(self):
        router = ConsistentHashRouter(list(range(4)), seed=1)
        counts = {s: 0 for s in range(4)}
        for key in range(8000):
            counts[router.shard_for(key)] += 1
        for count in counts.values():
            assert 0.5 * 2000 < count < 2.0 * 2000

    def test_minimal_remap_on_shard_add(self):
        before = ConsistentHashRouter(list(range(4)), seed=2)
        after = ConsistentHashRouter(list(range(5)), seed=2)
        keys = range(4000)
        moved = sum(
            1 for k in keys if before.shard_for(k) != after.shard_for(k)
        )
        # Consistent hashing moves ~1/5 of keys to the new shard; a
        # modulo router would move ~4/5.
        assert moved / 4000 < 0.40

    def test_partition_covers_keyspace_exactly(self):
        router = ConsistentHashRouter([0, 1, 2], seed=3)
        partition = router.partition(300)
        seen = sorted(k for keys in partition.values() for k in keys)
        assert seen == list(range(300))
        for shard, keys in partition.items():
            assert all(router.shard_for(k) == shard for k in keys)


class TestAdmission:
    def _request(self, shard, seq=0):
        from repro.serve.client import Request

        return Request(
            key=seq, op=OP_PUT, value=b"x" * 8, client=0, seq=seq,
            arrival_ns=float(seq), shard=shard,
        )

    def test_bounded_queue_and_typed_rejections(self):
        ctl = AdmissionController(queue_depth=2)
        ctl.admit(self._request(0, 0), recovering=False, retry_after_ns=5.0)
        ctl.admit(self._request(0, 1), recovering=False, retry_after_ns=5.0)
        with pytest.raises(QueueFullRejection) as info:
            ctl.admit(self._request(0, 2), recovering=False,
                      retry_after_ns=7.0)
        assert isinstance(info.value, RetryableRejection)
        assert info.value.retry_after_ns == 7.0
        assert info.value.shard == 0
        with pytest.raises(ShardRecoveringRejection):
            ctl.admit(self._request(0, 3), recovering=True,
                      retry_after_ns=9.0)
        assert ctl.rejections == {"queue_full": 1, "shard_recovering": 1}
        assert ctl.depth() == 2

    def test_failing_over_rejection_is_typed_and_wins(self):
        ctl = AdmissionController(queue_depth=1)
        ctl.admit(self._request(0, 0), recovering=False, retry_after_ns=1.0)
        with pytest.raises(FailoverRejection) as info:
            ctl.admit(self._request(0, 1), recovering=True,
                      retry_after_ns=4.0, failing_over=True)
        assert isinstance(info.value, RetryableRejection)
        assert info.value.retry_after_ns == 4.0
        assert ctl.rejections == {"failing_over": 1}

    def test_recovering_shard_still_queues_when_room(self):
        ctl = AdmissionController(queue_depth=4)
        ctl.admit(self._request(0), recovering=True, retry_after_ns=1.0)
        assert ctl.depth() == 1

    def test_requeue_front_restores_fifo_order(self):
        ctl = AdmissionController(queue_depth=8)
        batch = [self._request(0, i) for i in range(3)]
        ctl.admit(self._request(0, 9), recovering=False, retry_after_ns=0.0)
        fitted = ctl.requeue_front(batch)
        assert fitted == 3
        assert [r.seq for r in ctl.queue] == [0, 1, 2, 9]
        assert all(r.retries == 1 for r in batch)

    def test_requeue_front_never_overflows(self):
        ctl = AdmissionController(queue_depth=2)
        ctl.admit(self._request(0, 9), recovering=False, retry_after_ns=0.0)
        fitted = ctl.requeue_front([self._request(0, i) for i in range(3)])
        assert fitted == 1
        assert ctl.depth() == 2


class TestBatcher:
    def _queue(self, arrivals):
        from collections import deque

        from repro.serve.client import Request

        return deque(
            Request(key=i, op=OP_PUT, value=b"x" * 8, client=0, seq=i,
                    arrival_ns=t, shard=0)
            for i, t in enumerate(arrivals)
        )

    def test_full_batch_fires_immediately(self):
        sched = BatchScheduler(batch_size=3, batch_wait_ns=1e6)
        queue = self._queue([10.0, 11.0, 12.0])
        assert sched.ready(queue, now_ns=12.0)

    def test_partial_batch_waits_for_head_deadline(self):
        sched = BatchScheduler(batch_size=8, batch_wait_ns=100.0)
        queue = self._queue([10.0, 50.0])
        assert not sched.ready(queue, now_ns=90.0)
        assert sched.deadline_ns(queue) == 110.0
        assert sched.ready(queue, now_ns=110.0)

    def test_take_is_fifo_and_bounded(self):
        sched = BatchScheduler(batch_size=2, batch_wait_ns=0.0)
        queue = self._queue([1.0, 2.0, 3.0])
        batch = sched.take(queue)
        assert [r.seq for r in batch] == [0, 1]
        assert len(queue) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            BatchScheduler(batch_size=0, batch_wait_ns=1.0)
        with pytest.raises(ValueError):
            BatchScheduler(batch_size=1, batch_wait_ns=-1.0)


class TestClients:
    def test_replay_is_bit_identical(self):
        def trace():
            client = OpenLoopClient(
                3, rate_per_s=50_000, duration_ns=2e6, keyspace=256,
                value_bytes=16, read_fraction=0.3, seed=21,
            )
            return [
                (r.key, r.op, r.value, r.arrival_ns) for r in client
            ]

        assert trace() == trace()

    def test_clients_draw_independent_streams(self):
        clients = make_clients(
            4, aggregate_rate_per_s=80_000, duration_ns=2e6,
            keyspace=256, value_bytes=16, read_fraction=0.0,
            zipf_theta=0.9, seed=5,
        )
        traces = {
            cid: tuple(r.arrival_ns for r in client)
            for cid, client in clients.items()
        }
        # No two clients share an arrival timeline (per-client derived
        # seeds), yet each is reproducible from (seed, client_id) alone.
        values = list(traces.values())
        assert len(set(values)) == len(values)
        solo = OpenLoopClient(
            2, rate_per_s=20_000, duration_ns=2e6, keyspace=256,
            value_bytes=16, seed=5,
        )
        assert tuple(r.arrival_ns for r in solo) == traces[2]

    def test_arrivals_monotone_and_bounded(self):
        client = OpenLoopClient(
            0, rate_per_s=100_000, duration_ns=1e6, keyspace=64,
            value_bytes=8, seed=1,
        )
        times = [r.arrival_ns for r in client]
        assert times == sorted(times)
        assert all(0 < t <= 1e6 for t in times)
        assert client.next_request() is None  # stays exhausted

    def test_validation(self):
        with pytest.raises(ValueError):
            OpenLoopClient(0, rate_per_s=0, duration_ns=1e6,
                           keyspace=8, value_bytes=8)
        with pytest.raises(ValueError):
            make_clients(0, aggregate_rate_per_s=1e3, duration_ns=1e6,
                         keyspace=8, value_bytes=8, read_fraction=0.0,
                         zipf_theta=0.9, seed=0)


# Fields that used to pass ServeConfig and then fail mid-run, with the
# message the deeper layer raises.
BAD_FIELDS = [
    ("zipf_theta", 0.0, "theta must be in (0, 1)"),
    ("zipf_theta", 1.0, "theta must be in (0, 1)"),
    ("clients", 0, "need at least one client"),
    ("rate_per_s", 0.0, "client rate must be positive"),
    ("rate_per_s", -1.0, "client rate must be positive"),
    ("duration_ms", 0.0, "duration must be positive"),
    ("batch_size", 0, "batch size must be positive"),
    ("queue_depth", 0, "queue depth must be positive"),
    ("batch_wait_us", -1.0, "batch wait must be non-negative"),
    ("recovery_threads", 0, "recovery needs at least one thread"),
]


class TestConfig:
    def test_rejects_native(self):
        with pytest.raises(ConfigError):
            tiny_cfg(scheme="native")

    def test_rejects_unaligned_values(self):
        with pytest.raises(ConfigError):
            tiny_cfg(value_bytes=12)

    def test_rejects_out_of_range_kill_shard(self):
        with pytest.raises(ConfigError):
            tiny_cfg(kill_shard=2)

    def test_replace_revalidates(self):
        cfg = tiny_cfg()
        with pytest.raises(ConfigError):
            cfg.replace(shards=0)

    @pytest.mark.parametrize(
        "field, value, message",
        BAD_FIELDS,
        ids=[f"{field}={value}" for field, value, _ in BAD_FIELDS],
    )
    def test_rejects_out_of_range_fields_up_front(self, field, value, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            tiny_cfg(**{field: value})


class TestEndToEnd:
    def test_run_is_deterministic(self):
        cfg = tiny_cfg()
        a = run_serve(cfg).to_dict()
        b = run_serve(cfg).to_dict()
        assert a == b
        json.dumps(a)  # report must be JSON-serializable

    def test_clean_run_acks_everything_offered(self):
        report = run_serve(tiny_cfg(read_fraction=0.2))
        assert report.offered > 0
        assert report.admitted == report.offered  # modest load, no kills
        assert report.acked_puts + report.acked_gets == report.admitted
        assert report.clean
        assert report.oracle_verifications == 2  # final sweep per shard
        assert report.latency["count"] == report.admitted
        assert report.makespan_ns > 0
        assert report.requests_per_s > 0

    def test_batching_amortizes_commits(self):
        report = run_serve(tiny_cfg(read_fraction=0.0, batch_size=8))
        assert report.batches < report.acked_puts
        assert report.committed_transactions == report.batches

    @pytest.mark.parametrize("scheme", sorted(SERVABLE_SCHEMES))
    def test_failover_loses_no_acked_write(self, scheme):
        report = run_serve(
            tiny_cfg(scheme=scheme, kill_shard=1, kill_at_ms=1.5)
        )
        assert report.kills == 1
        assert report.recoveries == 1
        assert report.clean, report.oracle_failures
        assert report.per_shard["1"]["kills"] == 1

    def test_torn_failover_loses_no_acked_write(self):
        report = run_serve(
            tiny_cfg(kill_shard=0, kill_at_ms=1.5, torn_kill=True)
        )
        assert report.kills == 1
        assert report.clean, report.oracle_failures

    def test_failed_batch_is_retried_or_shed_never_acked_twice(self):
        report = run_serve(tiny_cfg(kill_shard=1, kill_at_ms=1.5))
        # The in-flight batch was requeued (or shed if no room), and
        # every admitted request is accounted for exactly once.
        accounted = (
            report.acked_puts + report.acked_gets + report.shed_on_failover
        )
        assert accounted == report.admitted
        assert report.retried >= 0

    def test_overload_triggers_backpressure(self):
        report = run_serve(
            tiny_cfg(
                shards=1, clients=2, rate_per_s=2_000_000.0,
                duration_ms=1.0, queue_depth=4, batch_size=2,
            )
        )
        assert report.rejected.get("queue_full", 0) > 0
        assert report.admitted < report.offered
        assert report.clean  # backpressure never breaks the ack promise

    def test_rejections_during_failover_are_typed(self):
        # A long lease holds the group FAILING_OVER; the tiny queue
        # overflows while the promotion is pending.
        report = run_serve(
            tiny_cfg(
                replicas=1, kill_primary_at_ms=1.0, lease_us=3000.0,
                queue_depth=2, rate_per_s=120_000.0,
            )
        )
        assert report.promotions == 1
        assert report.rejected.get("failing_over", 0) > 0
        assert report.clean

    def test_rejections_during_recovery_are_typed(self):
        report = run_serve(
            tiny_cfg(
                kill_shard=1, kill_at_ms=1.0, queue_depth=2,
                rate_per_s=120_000.0,
            )
        )
        assert report.kills == 1
        # The recovering shard's tiny queue overflows while it is down.
        assert report.rejected.get("shard_recovering", 0) > 0
        assert report.clean

    def test_report_round_trips_to_dict(self):
        report = run_serve(tiny_cfg())
        payload = report.to_dict()
        clone = ServeReport(**payload)
        assert clone.to_dict() == payload


class TestEpochDriver:
    @staticmethod
    def _run(cfg, epoch_us, monkeypatch):
        """One run_serve report with the cluster driven at ``epoch_us``."""
        original = ServeCluster.run
        clusters = []

        def run(cluster, _epoch_us=None):
            clusters.append(cluster)
            original(cluster, epoch_us=epoch_us)

        monkeypatch.setattr(ServeCluster, "run", run)
        payload = run_serve(cfg).to_dict()
        monkeypatch.setattr(ServeCluster, "run", original)
        return payload, clusters[0].epochs

    def test_epoch_quantum_does_not_change_the_result(self, monkeypatch):
        # Epoch boundaries partition each shard's event order without
        # reordering it — any quantum must yield the same bytes, on a
        # clean run, under overload refusals, across a replicated
        # primary kill, and across a backup kill plus a second kill of
        # the promoted primary (rejoin paths).
        cases = (
            ({}, None),
            (
                dict(
                    shards=1, queue_depth=4, batch_size=2,
                    rate_per_s=4_000_000.0, duration_ms=1.0,
                ),
                lambda p: p["rejected"].get("queue_full", 0) > 0,
            ),
            (
                dict(replicas=1, kill_primary_at_ms=2.0, duration_ms=6.0),
                lambda p: p["promotions"] == 1,
            ),
            (
                dict(
                    replicas=2, kill_backup_at_ms=0.5,
                    kill_primary_at_ms=1.5, double_kill_at_ms=3.0,
                    duration_ms=6.0,
                ),
                lambda p: p["backup_kills"] == 1 and p["promotions"] == 2
                and p["rejoins"] >= 1,
            ),
        )
        for overrides, exercised in cases:
            cfg = tiny_cfg(**{"shards": 4, **overrides})
            runs = {
                epoch_us: self._run(cfg, epoch_us, monkeypatch)
                for epoch_us in (100.0, 1000.0, 5000.0)
            }
            payloads = [payload for payload, _ in runs.values()]
            assert payloads[0] == payloads[1] == payloads[2]
            assert payloads[0]["oracle_failures"] == []
            if exercised is not None:
                assert exercised(payloads[0]), payloads[0]
            # ...while the quantum really did change how the run was cut.
            assert runs[100.0][1] > runs[5000.0][1]

    def test_default_quantum_is_the_module_constant(self, monkeypatch):
        cfg = tiny_cfg()
        cluster = ServeCluster(cfg)
        cluster.run()
        _, epochs = self._run(cfg, EPOCH_US, monkeypatch)
        assert cluster.epochs == epochs

    def test_rejects_nonpositive_quantum(self):
        with pytest.raises(ConfigError):
            ServeCluster(tiny_cfg()).run(epoch_us=0.0)


class TestShardEventLoop:
    def test_submit_rejects_an_out_of_order_arrival(self):
        from repro.serve.client import Request

        executor = ServeCluster(tiny_cfg(shards=1)).executors[0]

        def request(seq, arrival_ns):
            return Request(key=seq, op=OP_PUT, value=b"x" * 8, client=0,
                           seq=seq, arrival_ns=arrival_ns, shard=0)

        executor.submit(request(0, 20.0))
        executor.submit(request(1, 20.0))  # a tie is in order
        with pytest.raises(ValueError):
            executor.submit(request(2, 10.0))
        assert executor.next_event_ns() == 20.0

    @pytest.mark.parametrize("scheme", ["hoop", "opt-redo"])
    def test_overload_makes_no_wake_storm(self, scheme, monkeypatch):
        # Counts, not timings: each arrival pumps once, each batch
        # requests at most two wakes (busy-until, then the next
        # deadline), and a pending wake instant is never queued twice.
        pumps = 0
        original_pump = ShardExecutor._pump
        original_advance = ShardExecutor.advance_to

        def pump(executor):
            nonlocal pumps
            pumps += 1
            original_pump(executor)

        def advance_to(executor, horizon_ns):
            original_advance(executor, horizon_ns)
            wakes = executor._wakes
            assert len(wakes) == len(executor._pending_wakes)
            assert set(wakes) == executor._pending_wakes

        monkeypatch.setattr(ShardExecutor, "_pump", pump)
        monkeypatch.setattr(ShardExecutor, "advance_to", advance_to)
        report = run_serve(
            ServeConfig(
                shards=1, scheme=scheme, rate_per_s=8_000_000.0,
                duration_ms=0.5, seed=7,
            )
        )
        assert report.clean
        assert report.offered > 1000 and report.batches > 100
        assert pumps <= report.offered + 2 * report.batches + 16


# A small replicated run with a torn primary kill: 1 promotion, 1 rejoin.
REPLICATED_KILL = dict(
    shards=4, replicas=1, kill_primary_at_ms=2.0, torn_kill=True,
    duration_ms=5.0,
)
# The event kinds ShardExecutor emits; nothing else belongs on the hub.
SERVE_EVENT_KINDS = frozenset({
    "serve_reject", "shard_kill", "failover_begin", "shard_recovering",
    "backup_kill", "promotion", "shard_recovered", "rejoin_begin",
    "rejoin_complete",
})


class TestServeTelemetry:
    def test_hub_holds_only_serve_data(self):
        hub = Telemetry()
        cluster = ServeCluster(ServeConfig(**REPLICATED_KILL), telemetry=hub)
        cluster.run()
        for group in cluster.groups.values():
            for replica in group.replicas:
                assert replica.system.telemetry is NULL_TELEMETRY
        assert sum(g.promotions for g in cluster.groups.values()) == 1
        assert sum(g.rejoins for g in cluster.groups.values()) == 1
        assert hub.dropped_events == 0
        kinds = hub.event_counts()
        assert set(kinds) <= SERVE_EVENT_KINDS, kinds
        assert kinds["promotion"] == 1 and kinds["rejoin_complete"] == 1
        assert hub.histograms
        assert all(name.startswith("shard") for name in hub.histograms)
        assert hub.counters == {}
        assert all(
            name.endswith("/replication_lag") for name in hub.named_series
        )


# SHA-256 of ``json.dumps(run_serve(cfg).to_dict(), sort_keys=True)``.
# Runs are deterministic, so these pin simulated results across
# commits; a change that alters them on purpose updates the literal
# and says why in CHANGES.md.
PINNED_REPORTS = [
    (
        REPLICATED_KILL,
        "b04f6390af8d18d9776bd38460afe67c317e7e81c675a57d3f568a8db4143bd9",
    ),
    (
        dict(shards=1, scheme="opt-redo", rate_per_s=8_000_000.0,
             duration_ms=0.5, queue_depth=4),
        "daeb816d720710708cbd2643cb48fb92c6c1c6d9e52bd753c5a2c2b8745a8b66",
    ),
]


class TestReportPin:
    @pytest.mark.parametrize(
        "fields,digest", PINNED_REPORTS, ids=["replicated-kill", "overload"]
    )
    def test_report_bytes_are_pinned(self, fields, digest):
        payload = json.dumps(
            run_serve(ServeConfig(**fields)).to_dict(), sort_keys=True
        )
        assert hashlib.sha256(payload.encode()).hexdigest() == digest


class TestRunBatchSurface:
    def test_run_batch_commits_atomically(self):
        from repro import MemorySystem, SystemConfig

        system = MemorySystem(SystemConfig.small(), scheme="hoop")
        base = system.allocate(64)
        stores = [(base + 8 * i, bytes([i]) * 8) for i in range(4)]
        tx = system.run_batch(stores)
        assert tx.stores == 4
        assert tx.end_ns > tx.begin_ns
        assert system.committed_transactions == 1
        for addr, data in stores:
            assert system.load(addr, 8) == data

    def test_run_batch_annotates_power_loss_with_issued_prefix(self):
        from repro.common.config import FaultConfig, SystemConfig
        from repro.common.errors import PowerLossError
        from repro.txn.system import MemorySystem

        config = SystemConfig.small().replace(
            faults=FaultConfig(enabled=True, seed=3)
        )
        # opt-undo persists a log entry per touched line, so
        # line-apart stores under a small write budget die mid-batch
        # (hoop would buffer until tx_end and the prefix would
        # legitimately be the whole batch).
        system = MemorySystem(config, scheme="opt-undo")
        base = system.allocate(64 * 32)
        stores = [(base + 64 * i, bytes([i + 1]) * 8) for i in range(32)]
        system.device.injector.arm_power_loss(after_writes=4)
        with pytest.raises(PowerLossError) as info:
            system.run_batch(stores)
        issued = info.value.issued_stores
        assert 0 < len(issued) < len(stores)
        assert issued == stores[: len(issued)]

    def test_run_batch_exports_its_write_set_and_redo_words(self):
        from repro import MemorySystem, SystemConfig

        system = MemorySystem(SystemConfig.small(), scheme="hoop")
        base = system.allocate(64)
        stores = [(base, b"\xab" * 16), (base + 16, b"\xcd" * 8)]
        tx = system.run_batch(stores)
        assert tx.write_set == stores
        words = MemorySystem.redo_words(tx.write_set)
        assert words == [
            (base, b"\xab" * 8),
            (base + 8, b"\xab" * 8),
            (base + 16, b"\xcd" * 8),
        ]
        with pytest.raises(ValueError):
            MemorySystem.redo_words([(base + 1, b"x" * 8)])


class TestSeedDiscipline:
    def test_shard_fault_seeds_are_derived_not_shared(self):
        seeds = {
            rng_util.derive(7, "shard", shard, "faults")
            for shard in range(8)
        }
        assert len(seeds) == 8
