"""The telemetry hub: typed, simulated-time-stamped structured events.

One :class:`Telemetry` instance observes one simulated machine.  Emitters
(the scheme base, HOOP controller, GC, commit log, eviction buffer,
memory port, fault injector) hold a reference and guard every emission
with a single ``if telemetry.enabled:`` check.  **When telemetry is off
the reference is the shared** :data:`NULL_TELEMETRY` **singleton**, whose
``enabled`` is a class-level ``False`` — the disabled hot-path cost is
exactly that one attribute check, and a telemetry-off simulation is
bit-identical to one built before this package existed (telemetry only
observes; it never advances a clock or touches device content).

Event taxonomy (``kind`` strings, greppable in the JSONL export):

===================  ==============================================
``txn_begin``        transaction opened (core track)
``txn_commit``       commit durable; payload carries latency_ns
``gc_start/gc_end``  one GC pass; end payload: scanned/migrated/
                     reclaimed/txs, stamped at the pass horizon
``ondemand_gc``      SRAM/region pressure forced GC onto the
                     store critical path
``oop_evict``        GC parked a migrated line in the eviction buffer
``commit_log_append`` address-slice entry recorded (committed flag)
``mapping_insert``   store-side mapping-table update
``mapping_evict``    GC pruned a migrated mapping entry
``port_stall``       a synchronous NVM write stalled longer than
                     :data:`STALL_EVENT_NS`
``power_cut``/``torn_write``/``read_fault``/``block_remap``
                     fault-injection instants (``faults`` track)
``crash``            power failure instant (global)
===================  ==============================================

Ordering contract: events are appended in emission order.  Within one
track, *start/instant* timestamps are nondecreasing for a
single-threaded run; ``*_end`` events are stamped at their async
completion horizon and may overlap the next pass.  Exporters sort by
timestamp, so consumers always see a time-ordered stream.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.telemetry.metrics import EpochSeries, Log2Histogram

# A sync NVM write that stalls at least this long becomes a visible
# ``port_stall`` event (shorter stalls only feed the histogram).
STALL_EVENT_NS = 1000.0

# One recorded event: (ts_ns, kind, track, payload-or-None).
Event = Tuple[float, str, str, Optional[dict]]


class NullTelemetry:
    """The do-nothing hub every component holds when telemetry is off.

    A shared singleton (:data:`NULL_TELEMETRY`): constructing systems
    never allocates per-system telemetry state while disabled.
    """

    __slots__ = ()
    enabled = False

    def emit(self, ts_ns, kind, track="sim", payload=None) -> None:
        pass

    def count(self, name, n=1) -> None:
        pass

    def record(self, name, value) -> None:
        pass

    def sample(self, name, ts_ns, value=1.0) -> None:
        pass

    def add_write_traffic(self, ts_ns, nbytes) -> None:
        pass

    def on_commit(self, core, tx_id, begin_ns, end_ns) -> None:
        pass

    def reset_metrics(self) -> None:
        pass

    def summary(self) -> dict:
        return {}


NULL_TELEMETRY = NullTelemetry()


class Telemetry(NullTelemetry):
    """Structured-event hub plus streaming metric sinks."""

    __slots__ = (
        "events",
        "max_events",
        "dropped_events",
        "counters",
        "histograms",
        "commit_series",
        "write_traffic_series",
        "named_series",
    )
    enabled = True

    def __init__(
        self,
        *,
        max_events: int = 500_000,
        epoch_ns: float = 1e6,
        max_epochs: int = 2048,
    ) -> None:
        self.events: List[Event] = []
        self.max_events = max_events
        self.dropped_events = 0
        self.counters: Dict[str, float] = {}
        self.histograms: Dict[str, Log2Histogram] = {}
        # Committed transactions and NVM bytes written per simulated epoch
        # (throughput and write-traffic time-series).
        self.commit_series = EpochSeries(epoch_ns, max_epochs)
        self.write_traffic_series = EpochSeries(epoch_ns, max_epochs)
        # Caller-named epoch series (e.g. per-shard admitted-request
        # rates from repro.serve), created on first sample().
        self.named_series: Dict[str, EpochSeries] = {}

    # -- events ---------------------------------------------------------------

    def emit(
        self,
        ts_ns: float,
        kind: str,
        track: str = "sim",
        payload: Optional[dict] = None,
    ) -> None:
        """Record one structured event (bounded; drops are counted)."""
        if len(self.events) >= self.max_events:
            self.dropped_events += 1
            return
        self.events.append((ts_ns, kind, track, payload))

    # -- counters & histograms ------------------------------------------------

    def count(self, name: str, n: float = 1) -> None:
        """Add ``n`` to the named counter (created at zero)."""
        self.counters[name] = self.counters.get(name, 0) + n

    def hist(self, name: str) -> Log2Histogram:
        """Get-or-create the named latency histogram."""
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = Log2Histogram()
            self.histograms[name] = histogram
        return histogram

    def record(self, name: str, value: float) -> None:
        """Fold one sample into the named histogram."""
        self.hist(name).record(value)

    def series(self, name: str) -> EpochSeries:
        """Get-or-create a named epoch series (same budget as commits)."""
        series = self.named_series.get(name)
        if series is None:
            series = EpochSeries(
                self.commit_series.epoch_ns, self.commit_series.max_epochs
            )
            self.named_series[name] = series
        return series

    def sample(self, name: str, ts_ns: float, value: float = 1.0) -> None:
        """Fold ``value`` into the named series' epoch at ``ts_ns``."""
        self.series(name).add(ts_ns, value)

    # -- composite hooks ------------------------------------------------------

    def on_commit(
        self, core: int, tx_id: int, begin_ns: float, end_ns: float
    ) -> None:
        """One durable commit: event + latency histogram + epoch series."""
        latency = end_ns - begin_ns
        self.hist("commit_latency_ns").record(latency)
        self.commit_series.add(end_ns)
        self.emit(
            end_ns,
            "txn_commit",
            f"core{core}",
            {"tx": tx_id, "latency_ns": latency},
        )

    def add_write_traffic(self, ts_ns: float, nbytes: int) -> None:
        self.write_traffic_series.add(ts_ns, nbytes)

    # -- lifecycle ------------------------------------------------------------

    def reset_metrics(self) -> None:
        """Zero histograms/counters/series at a measurement boundary.

        The event timeline is deliberately kept: traces should show the
        warm-up too, while the summary metrics describe only the
        measured window (mirroring ``reset_measurement`` semantics).
        """
        self.counters = {}
        self.histograms = {}
        self.commit_series = EpochSeries(
            self.commit_series.epoch_ns, self.commit_series.max_epochs
        )
        self.write_traffic_series = EpochSeries(
            self.write_traffic_series.epoch_ns,
            self.write_traffic_series.max_epochs,
        )
        self.named_series = {}

    # -- summaries ------------------------------------------------------------

    def event_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for _, kind, _, _ in self.events:
            counts[kind] = counts.get(kind, 0) + 1
        return counts

    def tracks(self) -> List[str]:
        """Track names in order of first appearance."""
        seen: Dict[str, None] = {}
        for _, _, track, _ in self.events:
            if track not in seen:
                seen[track] = None
        return list(seen)

    def summary(self) -> dict:
        """The JSON-serializable aggregate carried into ``RunResult``."""
        return {
            "events": {
                "total": len(self.events),
                "dropped": self.dropped_events,
                "by_kind": self.event_counts(),
            },
            "counters": dict(self.counters),
            "histograms": {
                name: histogram.summary()
                for name, histogram in sorted(self.histograms.items())
            },
            "series": {
                "commits": self.commit_series.summary(),
                "write_bytes": self.write_traffic_series.summary(),
                **{
                    name: series.summary()
                    for name, series in sorted(self.named_series.items())
                },
            },
        }


# -- snapshot declarations ----------------------------------------------------
# Telemetry is observational by contract: snapshots share the hub (events
# from replays land on the live hub) rather than cloning event buffers.
NullTelemetry.__snapshot_state__ = "__shared__"
Telemetry.__snapshot_state__ = "__shared__"
