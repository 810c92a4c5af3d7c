"""Checkpoint chains and prefix-replay caches built on snapshots.

Two consumers turn :mod:`repro.snapshot` captures into incremental
replay:

* the **crash-point sweep** (:mod:`repro.crashtest`), the nested
  sweep and the oracle's crash-convergence phase
  (:mod:`repro.check.oracle`), all through
  :class:`repro.crashtest.CrashCases`, lay periodic
  :class:`Checkpoint` objects during a single probe run and start each
  boundary replay from :meth:`CheckpointChain.nearest` — the latest
  checkpoint at or below the boundary's write count — instead of
  re-executing the whole workload prefix;
* the fuzzer's delta-debugging shrinker (:mod:`repro.check.fuzz`)
  replays hundreds of near-identical transaction lists; a
  :class:`TraceReplayCache` memoizes a snapshot per replayed prefix so
  each ddmin candidate only executes the transactions after its longest
  already-seen prefix.

Checkpoints are keyed by the device's cumulative *timed-write* count,
which is the same clock crash boundaries are expressed in: a boundary
``b`` means the ``b``-th successful write is the last one, so a replay
from a checkpoint taken after ``w <= b`` writes arms a residual budget
of ``b - w`` (zero residual = the very next write dies, the
boundary-exactly-at-a-checkpoint case).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.snapshot import Snapshot, clone_state


class Checkpoint:
    """One mid-workload snapshot plus its replay bookkeeping.

    ``txn_index`` is the workload transaction the checkpoint *precedes*;
    ``writes`` the device's timed-write count at capture; ``oracle`` the
    committed word->value model at that point (copied, so later workload
    progress cannot mutate it).
    """

    __slots__ = ("txn_index", "writes", "snapshot", "oracle")

    def __init__(
        self,
        txn_index: int,
        writes: int,
        snapshot: Snapshot,
        oracle: Dict[int, bytes],
    ) -> None:
        self.txn_index = txn_index
        self.writes = writes
        self.snapshot = snapshot
        self.oracle = oracle


class CheckpointChain:
    """Checkpoints in capture order, searchable by write count."""

    __slots__ = ("_checkpoints", "_writes")

    def __init__(self) -> None:
        self._checkpoints: List[Checkpoint] = []
        self._writes: List[int] = []

    def add(self, checkpoint: Checkpoint) -> None:
        """Append a checkpoint (write counts must be nondecreasing)."""
        if self._writes and checkpoint.writes < self._writes[-1]:
            raise ValueError(
                "checkpoints must be added in write order: "
                f"{checkpoint.writes} < {self._writes[-1]}"
            )
        self._checkpoints.append(checkpoint)
        self._writes.append(checkpoint.writes)

    def nearest(self, boundary_writes: int) -> Optional[Checkpoint]:
        """Latest checkpoint with ``writes <= boundary_writes``.

        Returns ``None`` when even the first checkpoint is past the
        boundary (possible only if system construction itself issued
        timed writes); callers fall back to a cold run.
        """
        index = bisect_right(self._writes, boundary_writes) - 1
        if index < 0:
            return None
        return self._checkpoints[index]

    def __len__(self) -> int:
        return len(self._checkpoints)


class TraceReplayCache:
    """Snapshot-per-prefix cache for repeated transaction-list replays.

    Built for ddmin: every shrink candidate is some sublist of the
    original transactions, and candidates tried consecutively share long
    prefixes.  ``replay(txns)`` restores the snapshot of the longest
    cached prefix of ``txns``, applies only the remaining transactions
    (capturing each new prefix along the way), and returns the resulting
    state object.

    ``build()`` creates a fresh state (any snapshot-clonable object —
    the fuzzer uses a dict holding the system and its slot addresses);
    ``apply(state, txn)`` executes one transaction against it.  Keys are
    tuples of the transaction objects themselves, which must be hashable
    (the frozen :class:`~repro.check.trace.TraceTxn` records are).

    The cache is LRU-bounded at ``limit`` snapshots; the empty prefix is
    pinned so a fresh system never has to be rebuilt.
    """

    def __init__(
        self,
        build: Callable[[], Any],
        apply: Callable[[Any, Any], None],
        *,
        limit: int = 256,
    ) -> None:
        if limit < 1:
            raise ValueError("cache needs room for at least one snapshot")
        self._build = build
        self._apply = apply
        self._limit = limit
        self._snapshots: "OrderedDict[Tuple, Snapshot]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.replayed_txns = 0

    def _put(self, key: Tuple, snapshot: Snapshot) -> None:
        self._snapshots[key] = snapshot
        self._snapshots.move_to_end(key)
        while len(self._snapshots) > self._limit:
            for candidate in self._snapshots:
                if candidate != ():  # keep the base system pinned
                    del self._snapshots[candidate]
                    break
            else:
                break

    def replay(self, txns, *, record: bool = True) -> Any:
        """State after executing ``txns``, reusing the longest prefix.

        ``record=False`` still restores from the best cached prefix but
        does not snapshot the new prefixes it executes — the right mode
        for one-off scoring runs (e.g. fresh fuzz iterations) whose
        prefixes no later replay will share; capturing a snapshot per
        transaction would cost more than it saves there.
        """
        txns = tuple(txns)
        state = None
        start = 0
        for length in range(len(txns), -1, -1):
            snapshot = self._snapshots.get(txns[:length])
            if snapshot is not None:
                self._snapshots.move_to_end(txns[:length])
                state = snapshot.restore()
                start = length
                self.hits += 1
                break
        if state is None:
            self.misses += 1
            state = self._build()
            self._put((), Snapshot(clone_state(state)))
        for index in range(start, len(txns)):
            self._apply(state, txns[index])
            self.replayed_txns += 1
            if record:
                self._put(txns[: index + 1], Snapshot(clone_state(state)))
        return state
