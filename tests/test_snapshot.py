"""Snapshot capture/restore correctness and incremental-replay equivalence.

The snapshot engine's hard gate: a system restored from a snapshot and
run forward must be *bit-identical* to one that never stopped — same
NVM content fingerprint, same device counters, same sanitizer verdicts.
These tests pin that gate for every registry scheme, exercise the
fault-injector countdown (a snapshot captured mid-fault must replay the
same remaining-writes budget, torn-word RNG included), cover the
boundary-exactly-at-a-checkpoint edge (zero residual budget), and check
that the incremental crash sweep, the oracle's crash phase, and the
fuzzer's prefix-replay cache all match their cold-rerun counterparts.
"""

import dataclasses

import pytest

from repro import FaultConfig, crashtest, snapshot
from repro.check import fuzz
from repro.check.oracle import build_system, run_check_matrix
from repro.check.sanitizer import PersistOrderSanitizer
from repro.check.trace import generate_trace
from repro.common.errors import PowerLossError
from repro.faults.injector import FaultyNVMDevice
from repro.schemes import ALL_SCHEME_NAMES
from repro.snapshot import capture, clone_state


def _apply(system, addrs, txns):
    """Replay trace transactions against pre-allocated slot addresses."""
    for txn in txns:
        with system.transaction(txn.core) as tx:
            for store in txn.stores:
                tx.store(
                    addrs[store.slot] + 8 * store.offset,
                    store.value.to_bytes(8, "little"),
                )


def _state(system):
    """Everything the bit-identity gate compares."""
    stats = system.device.stats
    return (
        system.device.content_fingerprint(),
        (stats.reads, stats.writes, stats.bytes_read, stats.bytes_written),
        list(system.check.violations),
    )


class TestCaptureRestoreProperty:
    """capture -> mutate -> restore -> run == cold run, per scheme."""

    @pytest.mark.parametrize("scheme", ALL_SCHEME_NAMES)
    def test_restore_then_run_matches_cold(self, scheme):
        trace = generate_trace(21, transactions=12, slots=6)
        half = len(trace.txns) // 2

        cold = build_system(scheme, checker=PersistOrderSanitizer())
        cold_addrs = [cold.allocate(64) for _ in range(trace.slots)]
        _apply(cold, cold_addrs, trace.txns)
        want = _state(cold)

        live = build_system(scheme, checker=PersistOrderSanitizer())
        addrs = [live.allocate(64) for _ in range(trace.slots)]
        assert addrs == cold_addrs  # heap allocation is deterministic
        _apply(live, addrs, trace.txns[:half])
        snap = capture(live, txn_index=half)
        assert snap.writes == live.device.stats.writes
        # Mutate the live system well past the capture point; none of
        # it may leak into the snapshot (NVM pages are shared
        # copy-on-write between the live system and the snapshot).
        _apply(live, addrs, trace.txns[half:])
        _apply(live, addrs, trace.txns[:3])

        restored = snap.restore()
        _apply(restored, addrs, trace.txns[half:])
        assert _state(restored) == want

    def test_one_snapshot_seeds_independent_replays(self):
        trace = generate_trace(4, transactions=8, slots=4)
        system = build_system("hoop", checker=PersistOrderSanitizer())
        addrs = [system.allocate(64) for _ in range(trace.slots)]
        _apply(system, addrs, trace.txns[:4])
        snap = capture(system)
        first = snap.restore()
        _apply(first, addrs, trace.txns[4:])
        second = snap.restore()
        _apply(second, addrs, trace.txns[4:])
        assert _state(first) == _state(second)

    def test_every_repro_class_declares_snapshot_state(self):
        snapshot.reset_unregistered()
        trace = generate_trace(5, transactions=4, slots=4)
        for scheme in ALL_SCHEME_NAMES:
            system = build_system(scheme, checker=PersistOrderSanitizer())
            addrs = [system.allocate(64) for _ in range(trace.slots)]
            _apply(system, addrs, trace.txns)
            capture(system)
        assert snapshot.unregistered_classes() == frozenset()


class TestMidFaultCountdown:
    """Snapshots of an armed injector replay the exact same countdown."""

    @staticmethod
    def _device(budget, *, torn=False, seed=3):
        return FaultyNVMDevice(
            faults=FaultConfig(
                enabled=True,
                seed=seed,
                power_loss_after_write=budget,
                torn=torn,
            )
        )

    @staticmethod
    def _write_until_dead(device, start, limit=64):
        for index in range(start, limit):
            try:
                device.write(64 * index, bytes([index % 251 + 1]) * 64)
            except PowerLossError:
                return index
        raise AssertionError("power-loss budget never expired")

    def test_clone_mid_fault_replays_remaining_budget(self):
        # Budget 10: writes 0..9 succeed, write 10 is the fatal one.
        # Cloning after 6 writes must carry the residual budget of 4
        # AND the injector's RNG position, so the torn-word subset of
        # the fatal write matches too (checked via the fingerprint).
        device = self._device(10, torn=True)
        for index in range(6):
            device.write(64 * index, bytes([index + 1]) * 64)
        twin = clone_state(device)
        assert self._write_until_dead(device, 6) == 10
        assert self._write_until_dead(twin, 6) == 10
        assert device.content_fingerprint() == twin.content_fingerprint()
        # Both stay dead until power is restored.
        for dev in (device, twin):
            with pytest.raises(PowerLossError):
                dev.write(0, b"\x07" * 64)

    def test_clone_after_restore_power_stays_disarmed(self):
        device = self._device(3)
        self._write_until_dead(device, 0)
        device.restore_power()
        twin = clone_state(device)
        for index in range(20):
            twin.write(64 * index, b"\x07" * 64)
        assert not twin.injector.power_lost

    def test_rearm_zero_residual_kills_next_write(self):
        # The boundary-exactly-at-a-checkpoint case: the sweep restores
        # the checkpoint and rearms with residual 0 — the very next
        # timed write must be the fatal one.
        device = FaultyNVMDevice(faults=FaultConfig(enabled=True, seed=5))
        for index in range(5):
            device.write(64 * index, b"\x01" * 64)
        twin = clone_state(device)
        twin.rearm(
            dataclasses.replace(
                device.faults, power_loss_after_write=0
            )
        )
        with pytest.raises(PowerLossError):
            twin.write(0, b"\x02" * 64)
        # The live device was never armed and keeps accepting writes.
        device.write(0, b"\x03" * 64)


class TestIncrementalSweepEquivalence:
    """The checkpointed sweep's verdicts are bit-identical to cold."""

    KWARGS = dict(seed=11, transactions=12, addresses=6, sample=0)

    @staticmethod
    def _verdicts(result):
        return (
            result.total_writes,
            [
                (c.boundary, c.torn, c.failure, c.fingerprint, c.committed)
                for c in result.cases
            ],
        )

    def test_exhaustive_sweep_matches_cold(self, monkeypatch):
        monkeypatch.setenv("REPRO_SNAPSHOT_DISABLE", "1")
        cold = crashtest.sweep_scheme("hoop", **self.KWARGS)
        monkeypatch.delenv("REPRO_SNAPSHOT_DISABLE")
        incremental = crashtest.sweep_scheme(
            "hoop", cadence=2, **self.KWARGS
        )
        assert self._verdicts(incremental) == self._verdicts(cold)
        assert not incremental.failures

    def test_exhaustive_sweep_covers_checkpoint_boundaries(self):
        # The exhaustive sweep above includes every write boundary, so
        # proving some boundary coincides with a checkpoint's write
        # count shows the zero-residual edge was exercised end to end.
        total, _txns, chain = crashtest._probe_and_checkpoint(
            "hoop",
            seed=self.KWARGS["seed"],
            transactions=self.KWARGS["transactions"],
            addresses=self.KWARGS["addresses"],
            cadence=2,
        )
        assert len(chain) > 1
        exact = [
            boundary
            for boundary in range(1, total + 1)
            if (cp := chain.nearest(boundary)) and cp.writes == boundary
        ]
        assert exact, "no boundary landed exactly on a checkpoint"

    def test_oracle_matrix_matches_cold(self, monkeypatch):
        kwargs = dict(seed=7, transactions=10, slots=6, crash_sample=5)
        monkeypatch.setenv("REPRO_SNAPSHOT_DISABLE", "1")
        cold = run_check_matrix(["hoop", "opt-undo"], **kwargs)
        monkeypatch.delenv("REPRO_SNAPSHOT_DISABLE")
        incremental = run_check_matrix(["hoop", "opt-undo"], **kwargs)
        assert incremental.render() == cold.render()
        assert cold.ok and incremental.ok


class TestTraceReplayCache:
    """The fuzzer's prefix cache returns the cold path's verdicts."""

    def test_cached_violations_match_cold(self):
        trace = generate_trace(9, transactions=8, slots=5)
        for scheme in ("hoop", "mutant-redo"):
            cold = fuzz.trace_violations(scheme, trace)
            cache = fuzz.make_replay_cache(scheme, trace.slots)
            cached = fuzz.trace_violations(scheme, trace, cache=cache)
            unrecorded = fuzz.trace_violations(
                scheme, trace, cache=cache, record=False
            )
            assert cached == cold
            assert unrecorded == cold

    def test_prefix_reuse_skips_replayed_transactions(self):
        trace = generate_trace(9, transactions=8, slots=5)
        cache = fuzz.make_replay_cache("hoop", trace.slots)
        cache.replay(trace.txns)
        replayed = cache.replayed_txns
        assert replayed == len(trace.txns)
        # Identical replay: full prefix hit, nothing re-executed.
        cache.replay(trace.txns)
        assert cache.replayed_txns == replayed
        # Dropping txn 4 (a ddmin candidate) shares the 4-txn prefix
        # and only executes the 3 transactions after the cut.
        cache.replay(trace.txns[:4] + trace.txns[5:])
        assert cache.replayed_txns == replayed + 3


class TestEnvKnobs:
    def test_snapshot_disable_values(self, monkeypatch):
        monkeypatch.delenv("REPRO_SNAPSHOT_DISABLE", raising=False)
        assert snapshot.snapshots_enabled()
        for value in ("1", "true"):
            monkeypatch.setenv("REPRO_SNAPSHOT_DISABLE", value)
            assert not snapshot.snapshots_enabled()

    def test_cadence_override(self, monkeypatch):
        monkeypatch.delenv("REPRO_SNAPSHOT_CADENCE", raising=False)
        assert snapshot.checkpoint_cadence(8) == 8
        monkeypatch.setenv("REPRO_SNAPSHOT_CADENCE", "3")
        assert snapshot.checkpoint_cadence(8) == 3
        for bogus in ("0", "-2", "nope"):
            monkeypatch.setenv("REPRO_SNAPSHOT_CADENCE", bogus)
            assert snapshot.checkpoint_cadence(8) == 8


class TestCloneRoundTrip:
    """clone_state: a mid-traffic replication group copies whole."""

    def _mid_traffic_group(self):
        from repro.serve.replica import ReplicationGroup
        from repro.telemetry.hub import Telemetry

        group = ReplicationGroup(
            0,
            scheme="hoop",
            keys=list(range(16)),
            value_bytes=64,
            seed=21,
            telemetry=Telemetry(),
            replicas=2,
            apply_every=4,
        )
        # 5 shipped entries with apply_every=4 leaves every backup one
        # unapplied tail entry past its last applied batch.
        for i in range(5):
            addr = group.primary.addr_of(i % 16)
            group.commit_and_ship([(addr, bytes([i + 1]) * 64)])
        return group

    def test_mid_traffic_group_round_trips_and_continues(self):
        group = self._mid_traffic_group()
        backup = group.backups()[0]
        assert backup.tail, "setup must leave an unapplied backup tail"
        # Pending fault arming must survive the clone: a deadline cut on
        # the primary and a nested recovery budget on one backup (both
        # far enough out that the continuation below never trips them —
        # a tripped budget tears the ship mid-batch by design).
        group.primary.system.device.injector.arm_power_loss_at(1e12)
        backup.system.device.injector.arm_recovery_fault(after_ops=500)

        snapshot.reset_unregistered()
        clone = clone_state(group)
        assert snapshot.unregistered_classes() == frozenset()

        cb = clone.backups()[0]
        assert cb.system is not backup.system
        primary_injector = clone.primary.system.device.injector
        assert primary_injector is not group.primary.system.device.injector
        assert primary_injector._deadline_ns == 1e12
        assert cb.shipped_seq == backup.shipped_seq
        assert cb.applied_seq == backup.applied_seq
        assert cb.tail == backup.tail
        assert cb.system.device.injector.pending_nested_fault
        for mine, theirs in zip(group.replicas, clone.replicas):
            assert theirs.fingerprint() == mine.fingerprint()

        # Both copies must continue bit-identically.
        for i in range(3):
            addr = group.primary.addr_of(i)
            stores = [(addr, bytes([0x40 + i]) * 64)]
            ours = group.commit_and_ship(stores)
            theirs = clone.commit_and_ship(
                [(clone.primary.addr_of(i), bytes([0x40 + i]) * 64)]
            )
            assert theirs.ack_ns == ours.ack_ns
        assert {
            i: r.fingerprint() for i, r in enumerate(clone.replicas)
        } == {i: r.fingerprint() for i, r in enumerate(group.replicas)}
