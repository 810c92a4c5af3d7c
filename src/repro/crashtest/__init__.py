"""Systematic crash-consistency sweep across all persistence schemes.

The paper's core robustness claim (§III-E/F, Fig. 11) is that HOOP
survives a power failure at *any* instant — including mid-GC and
mid-recovery.  This module tests the claim mechanically, for HOOP *and*
every baseline, instead of at a handful of hand-picked points:

1. a **probe run** executes a seeded random transactional workload with
   the fault device armed but no fault scheduled, counting the total
   number of timed NVM writes ``W``;
2. the sweep replays the identical workload once per chosen boundary
   ``k`` (all of ``1..W`` in exhaustive mode, a seeded sample in CI
   mode) with power loss injected after the ``k``-th write — torn or
   clean cut — then crashes, recovers, and verifies **atomic
   durability**: every committed transaction fully visible, the
   in-flight transaction all-or-nothing;
3. every failing case is written as a minimal repro artifact (scheme +
   workload parameters + fault plan JSON) that ``--replay`` re-runs
   exactly.

Determinism: workload generation, fault plans, and boundary sampling
all derive from explicit seeds, so a sweep is byte-reproducible and an
artifact replays to the identical failure or pass.

The crash-case engine here is shared with the nested sweep
(:mod:`repro.crashtest.nested`) and the differential oracle
(:mod:`repro.check.oracle`): a workload is a
:class:`~repro.check.trace.Trace`, :func:`replay` is the one loop that
runs it, and :class:`CrashCases` probes a trace once and reproduces the
machine at any crash boundary, from the nearest checkpoint or cold.

CLI: ``python -m repro.crashtest --schemes all --sample 200 --seed 7``.
"""

from __future__ import annotations

import argparse
import random
from dataclasses import dataclass, field
from dataclasses import replace as _dc_replace
from typing import Dict, List, Optional, Tuple

from repro.check.trace import (
    SLOT_BYTES,
    WORDS_PER_SLOT,
    Trace,
    TraceStore,
    TraceTxn,
)
from repro.common.config import FaultConfig, SystemConfig
from repro.common.errors import PowerLossError
from repro.faults.plan import CrashArtifact, save_artifact
from repro.snapshot import capture, snapshots_enabled
from repro.snapshot.replay import Checkpoint, CheckpointChain
from repro.txn.system import MemorySystem

# The sweep's scheme vocabulary.  Keys are the CLI names (the paper's
# shorthand); values are registry names in repro.schemes.
SWEEP_SCHEMES: Dict[str, str] = {
    "hoop": "hoop",
    "undo": "opt-undo",
    "redo": "opt-redo",
    "osp": "osp",
    "lad": "lad",
    "lsm": "lsm",
    "logregion": "logregion",
}

_ZERO_WORD = bytes(8)


def resolve_schemes(
    spec: str, vocabulary: Dict[str, str] = SWEEP_SCHEMES
) -> List[str]:
    """Expand a ``--schemes`` argument to registry names."""
    if spec == "all":
        return list(vocabulary.values())
    names = [
        vocabulary.get(token.strip(), token.strip())
        for token in spec.split(",")
        if token.strip()
    ]
    if not names:
        raise ValueError("no schemes selected")
    return names


def require_at_least(floor: int, **sizes: int) -> None:
    """Raise ``ValueError`` naming the first of ``sizes`` below ``floor``."""
    for name, value in sizes.items():
        if value < floor:
            raise ValueError(f"{name} must be at least {floor}, got {value}")


def at_least(floor: int):
    """An argparse ``type`` for integers of at least ``floor``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < floor:
            raise argparse.ArgumentTypeError(
                f"must be at least {floor}, got {value}"
            )
        return value

    return parse


@dataclass
class RunOutcome:
    """One trace replay, up to its end or to the power cut."""

    slot_addrs: List[int]
    oracle: Dict[int, bytes]  # committed word -> value
    staged: Dict[int, bytes]  # in-flight transaction's words (may be {})
    power_lost: bool
    checkpoints: CheckpointChain = field(default_factory=CheckpointChain)


@dataclass
class CaseResult:
    """One verified crash/recovery case."""

    boundary: Optional[int]
    torn: bool
    failure: Optional[str]
    fingerprint: str
    committed: int


@dataclass
class SweepResult:
    scheme: str
    total_writes: int
    boundaries: List[int] = field(default_factory=list)
    cases: List[CaseResult] = field(default_factory=list)

    @property
    def failures(self) -> List[CaseResult]:
        return [c for c in self.cases if c.failure]


def _build_system(scheme: str, faults: FaultConfig) -> MemorySystem:
    config = SystemConfig.small().replace(faults=faults)
    return MemorySystem(config, scheme=scheme)


def workload_trace(seed: int, *, transactions: int, addresses: int) -> Trace:
    """The sweep's seeded random workload as a replayable :class:`Trace`.

    Per transaction the RNG draws the core, the store count, then slot,
    word and value per store.  ``randrange(addresses)`` draws exactly
    what ``choice`` over the allocated addresses drew, so the slots
    resolve to the same addresses the workload has always stored to.
    """
    require_at_least(1, transactions=transactions, addresses=addresses)
    rng = random.Random(seed)
    cores = SystemConfig.small().num_cores
    txns = []
    for _ in range(transactions):
        core = rng.randrange(cores)
        stores = tuple(
            TraceStore(
                rng.randrange(addresses),
                rng.randrange(WORDS_PER_SLOT),
                rng.getrandbits(64),
            )
            for _ in range(rng.randint(1, 6))
        )
        txns.append(TraceTxn(core, stores))
    return Trace(seed=seed, slots=addresses, cores=cores, txns=tuple(txns))


def replay(
    system: MemorySystem,
    trace: Trace,
    *,
    slot_addrs: Optional[List[int]] = None,
    start: int = 0,
    oracle: Optional[Dict[int, bytes]] = None,
    cadence: int = 0,
) -> RunOutcome:
    """Replay ``trace.txns[start:]`` on ``system`` until done or power loss.

    The one loop that turns workload stores into transactions.  The
    oracle (seeded from ``oracle``) tracks words of transactions whose
    ``with`` block exited (commit returned); ``staged`` holds the one
    transaction that was open — or mid-commit, or whose post-commit GC
    tick died — when the power failed, and the verifier decides which
    side of the commit point it landed on.  ``slot_addrs`` defaults to
    fresh heap allocations (deterministic, so equal on every system).
    A nonzero ``cadence`` lays a checkpoint before every
    ``cadence``-th transaction, carrying the oracle at that point.
    """
    if slot_addrs is None:
        slot_addrs = [system.allocate(SLOT_BYTES) for _ in range(trace.slots)]
    committed = dict(oracle or {})
    checkpoints = CheckpointChain()
    staged: Dict[int, bytes] = {}
    try:
        for index in range(start, len(trace.txns)):
            if cadence and index % cadence == 0:
                checkpoints.add(
                    Checkpoint(
                        index,
                        system.device.stats.writes,
                        capture(system, txn_index=index),
                        dict(committed),
                    )
                )
            txn = trace.txns[index]
            staged = {}
            with system.transaction(txn.core) as tx:
                for store in txn.stores:
                    addr = slot_addrs[store.slot] + 8 * store.offset
                    value = store.value.to_bytes(8, "little")
                    tx.store(addr, value)
                    staged[addr] = value
            committed.update(staged)
    except PowerLossError:
        return RunOutcome(slot_addrs, committed, staged, True, checkpoints)
    return RunOutcome(slot_addrs, committed, {}, False, checkpoints)


def verify_atomic_durability(
    system: MemorySystem,
    oracle: Dict[int, bytes],
    staged: Dict[int, bytes],
) -> Optional[str]:
    """Check recovered NVM against the oracle; returns a failure message.

    Contract: every committed word durable; the in-flight transaction
    (if any) either fully applied or fully discarded — judged over the
    words whose staged value actually differs from the pre-crash
    committed value, since identical values are unobservable.
    """
    # Line-cached durable reads: the oracle's words cluster on a few
    # cache lines, so one 64-byte peek serves eight word checks.
    # Nothing writes between the checks, so the cache cannot go stale.
    peek = system.device.peek
    lines: Dict[int, bytes] = {}

    def durable_word(addr: int) -> bytes:
        base = addr & ~63
        buf = lines.get(base)
        if buf is None:
            buf = peek(base, 64)
            lines[base] = buf
        offset = addr - base
        return buf[offset : offset + 8]

    changed = {
        addr: value
        for addr, value in staged.items()
        if oracle.get(addr, _ZERO_WORD) != value
    }
    applied = [
        addr
        for addr, value in changed.items()
        if durable_word(addr) == value
    ]
    if changed and 0 < len(applied) < len(changed):
        return (
            f"in-flight transaction torn: {len(applied)}/{len(changed)} "
            f"of its words durable (e.g. {applied[0]:#x})"
        )
    inflight_committed = bool(changed) and len(applied) == len(changed)
    stale = []
    for addr, value in oracle.items():
        expect = value
        if inflight_committed and addr in staged:
            expect = staged[addr]
        if durable_word(addr) != expect:
            stale.append(addr)
    if stale:
        return (
            f"{len(stale)} committed words lost/stale after recovery "
            f"(e.g. {stale[0]:#x})"
        )
    return None


def crash_plan(seed: int, boundary: int, torn: bool) -> FaultConfig:
    """Fault plan of the forward crash case at write ``boundary``.

    Power is lost after that write, torn or clean, and the injector is
    seeded with ``seed ^ (boundary << 8)``.
    """
    return FaultConfig(
        enabled=True,
        seed=seed ^ (boundary << 8),
        power_loss_after_write=boundary,
        torn=torn,
    )


class CrashCases:
    """The crash cases of one scheme on one workload trace.

    :meth:`probe` runs the trace fault-free on the fault device (so
    write counting matches the armed runs write for write) and returns
    the timed-write count, the boundary population; with snapshots on
    it also lays a checkpoint every ``cadence`` transactions.
    :meth:`crashed_at` then reproduces the machine just after the trace
    ran under a fault plan: restored from the nearest checkpoint at or
    before the cut with the *residual* write budget re-armed (zero
    means the very next write dies), or rerun cold when no checkpoint
    precedes the cut (no probe, ``REPRO_SNAPSHOT_DISABLE=1``, or a plan
    without a power cut).  Both paths give the same system and outcome.
    """

    def __init__(self, scheme: str, trace: Trace) -> None:
        self.scheme = scheme
        self.trace = trace
        self.checkpoints = CheckpointChain()
        self._slot_addrs: Optional[List[int]] = None

    def probe(self, *, seed: int, cadence: int) -> int:
        """Fault-free run; returns its timed-write count."""
        system = _build_system(
            self.scheme, FaultConfig(enabled=True, seed=seed)
        )
        outcome = replay(
            system, self.trace, cadence=cadence if snapshots_enabled() else 0
        )
        assert not outcome.power_lost
        self.checkpoints = outcome.checkpoints
        self._slot_addrs = outcome.slot_addrs
        return system.device.stats.writes

    def crashed_at(
        self, faults: FaultConfig
    ) -> Tuple[MemorySystem, RunOutcome]:
        """The system after the trace ran under ``faults``, not yet crashed."""
        boundary = faults.power_loss_after_write
        checkpoint = (
            None if boundary is None else self.checkpoints.nearest(boundary)
        )
        if checkpoint is None:
            system = _build_system(self.scheme, faults)
            return system, replay(system, self.trace)
        system = checkpoint.snapshot.restore()
        # A fresh injector: its PRNG matches the cold one bit for bit
        # because nothing draws from it before the cut.
        system.device.rearm(
            _dc_replace(
                faults, power_loss_after_write=boundary - checkpoint.writes
            )
        )
        return system, replay(
            system,
            self.trace,
            slot_addrs=self._slot_addrs,
            start=checkpoint.txn_index,
            oracle=checkpoint.oracle,
        )

    def run(
        self, faults: FaultConfig, recovery_threads: int = 2
    ) -> CaseResult:
        """One full case: run under ``faults``, crash, recover, verify."""
        system, outcome = self.crashed_at(faults)
        system.crash()
        report = system.recover(threads=recovery_threads)
        failure = verify_atomic_durability(
            system, outcome.oracle, outcome.staged
        )
        return CaseResult(
            boundary=faults.power_loss_after_write,
            torn=faults.torn,
            failure=failure,
            fingerprint=system.device.content_fingerprint(),
            committed=getattr(
                report, "committed_transactions", len(outcome.oracle)
            ),
        )


def run_case(
    scheme: str,
    faults: FaultConfig,
    *,
    seed: int,
    transactions: int,
    addresses: int,
    recovery_threads: int = 2,
) -> CaseResult:
    """One full cold cycle: workload under faults, crash, recover, verify."""
    trace = workload_trace(
        seed, transactions=transactions, addresses=addresses
    )
    return CrashCases(scheme, trace).run(faults, recovery_threads)


def choose_boundaries(
    total_writes: int, sample: int, seed: int
) -> List[int]:
    """Deterministic boundary choice: exhaustive or seeded sample.

    ``sample=0`` (or a sample at least the population size) sweeps
    every boundary.  A sample always includes the first and last write
    — the cheapest and most commit-adjacent crash points.
    """
    population = list(range(1, total_writes + 1))
    if sample <= 0 or sample >= len(population):
        return population
    rng = random.Random(seed)
    chosen = set(rng.sample(population, sample))
    chosen.add(1)
    chosen.add(total_writes)
    return sorted(chosen)


def _torn_for(boundary: int, mode: str) -> bool:
    if mode == "always":
        return True
    if mode == "never":
        return False
    return boundary % 2 == 1  # alternate


def sweep_scheme(
    scheme: str,
    *,
    seed: int = 7,
    transactions: int = 80,
    addresses: int = 12,
    sample: int = 0,
    torn_mode: str = "alternate",
    recovery_threads: int = 2,
    artifact_dir: Optional[str] = None,
    cadence: Optional[int] = None,
    progress=None,
) -> SweepResult:
    """Sweep one scheme across crash boundaries; returns all cases.

    By default the sweep is *incremental*: the probe run lays a
    snapshot checkpoint every ``cadence`` transactions (default
    ``transactions // 20``) and each boundary replays only from the
    nearest checkpoint.  ``REPRO_SNAPSHOT_DISABLE=1`` falls back to a
    cold rerun per boundary; per-boundary verdicts are bit-identical
    either way.
    """
    require_at_least(0, sample=sample)
    trace = workload_trace(
        seed, transactions=transactions, addresses=addresses
    )
    cases = CrashCases(scheme, trace)
    total = cases.probe(
        seed=seed, cadence=cadence or max(1, transactions // 20)
    )
    boundaries = choose_boundaries(total, sample, seed)
    result = SweepResult(
        scheme=scheme, total_writes=total, boundaries=boundaries
    )
    for boundary in boundaries:
        faults = crash_plan(seed, boundary, _torn_for(boundary, torn_mode))
        case = cases.run(faults, recovery_threads)
        result.cases.append(case)
        if case.failure and artifact_dir:
            artifact = CrashArtifact(
                scheme=scheme,
                faults=faults,
                workload_seed=seed,
                transactions=transactions,
                addresses=addresses,
                recovery_threads=recovery_threads,
                failure=case.failure,
                fingerprint=case.fingerprint,
            )
            path = save_artifact(
                artifact,
                f"{artifact_dir}/crash_{scheme}_w{boundary}"
                f"{'_torn' if faults.torn else ''}.json",
            )
            if progress:
                progress(f"  artifact written: {path}")
        if progress and case.failure:
            progress(
                f"  FAIL {scheme} @write {boundary}"
                f"{' torn' if case.torn else ''}: {case.failure}"
            )
    return result


def replay_artifact(artifact: CrashArtifact) -> CaseResult:
    """Re-run one saved case exactly; the caller compares outcomes."""
    return run_case(
        artifact.scheme,
        artifact.faults,
        seed=artifact.workload_seed,
        transactions=artifact.transactions,
        addresses=artifact.addresses,
        recovery_threads=artifact.recovery_threads,
    )
