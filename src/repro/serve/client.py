"""Open-loop clients: Poisson arrivals over simulated time.

The load generator is *open-loop*: request arrival instants are drawn
from a Poisson process (exponential inter-arrival gaps at the client's
share of the aggregate rate) independent of how fast the cluster is
serving — the standard model for internet-facing traffic, and the one
that actually exercises queueing, batching, and backpressure (a
closed-loop client would politely slow down exactly when the system
gets interesting).

Seed discipline: every client derives its own independent RNG streams
(arrivals, keys, ops, values) via :func:`repro.common.rng.derive` from
``(seed, "client", client_id, label)``.  No stream is shared between
clients, so the request timeline is a pure function of the config —
bit-identical no matter how runs are interleaved or parallelized, the
same discipline the harness result cache relies on.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.common import rng as rng_util
from repro.workloads.zipfian import ZipfianGenerator

OP_PUT = "put"
OP_GET = "get"


@dataclass(slots=True)
class Request:
    """One client request travelling through the serving layer.

    ``slots=True`` because requests are the hottest allocation in a
    serving run (one per arrival, plus queue/batch/ack traversals):
    dropping the per-instance ``__dict__`` cuts a request from ~216 to
    ~168 traced bytes (two allocations to one) and measurably trims
    allocator time at high offered rates (numbers in
    ``docs/internals.md``).
    """

    key: int
    op: str
    value: Optional[bytes]
    client: int
    seq: int
    arrival_ns: float
    # Stamped by the cluster as the request progresses.
    shard: int = -1
    retries: int = 0
    completion_ns: float = field(default=0.0)

    @property
    def latency_ns(self) -> float:
        """Arrival to acknowledgement (0 until acked)."""
        if self.completion_ns <= 0.0:
            return 0.0
        return self.completion_ns - self.arrival_ns


class OpenLoopClient:
    """One client: an iterator of requests with Poisson arrival times."""

    __slots__ = (
        "client_id",
        "rate_per_ns",
        "duration_ns",
        "value_bytes",
        "read_fraction",
        "_arrival_rng",
        "_op_rng",
        "_value_rng",
        "_keys",
        "_clock_ns",
        "_seq",
    )

    def __init__(
        self,
        client_id: int,
        *,
        rate_per_s: float,
        duration_ns: float,
        keyspace: int,
        value_bytes: int,
        read_fraction: float = 0.0,
        zipf_theta: float = 0.9,
        seed: int = 0,
    ) -> None:
        if rate_per_s <= 0:
            raise ValueError("client rate must be positive")
        if duration_ns <= 0:
            raise ValueError("duration must be positive")
        self.client_id = client_id
        self.rate_per_ns = rate_per_s / 1e9
        self.duration_ns = duration_ns
        self.value_bytes = value_bytes
        self.read_fraction = read_fraction
        self._arrival_rng = rng_util.make_rng(
            rng_util.derive(seed, "client", client_id, "arrivals")
        )
        self._op_rng = rng_util.make_rng(
            rng_util.derive(seed, "client", client_id, "ops")
        )
        self._value_rng = rng_util.make_rng(
            rng_util.derive(seed, "client", client_id, "values")
        )
        self._keys = ZipfianGenerator(
            keyspace,
            theta=zipf_theta,
            rng=rng_util.make_rng(
                rng_util.derive(seed, "client", client_id, "keys")
            ),
        )
        self._clock_ns = 0.0
        self._seq = 0

    def next_request(self) -> Optional[Request]:
        """The client's next request, or None once the run is over."""
        self._clock_ns += self._arrival_rng.expovariate(self.rate_per_ns)
        if self._clock_ns > self.duration_ns:
            return None
        is_get = (
            self.read_fraction > 0.0
            and self._op_rng.random() < self.read_fraction
        )
        key = self._keys.next_scrambled()
        value = (
            None
            if is_get
            else rng_util.random_bytes(self._value_rng, self.value_bytes)
        )
        request = Request(
            key=key,
            op=OP_GET if is_get else OP_PUT,
            value=value,
            client=self.client_id,
            seq=self._seq,
            arrival_ns=self._clock_ns,
        )
        self._seq += 1
        return request

    def __iter__(self) -> Iterator[Request]:
        """Drain the client's whole timeline (mainly for tests)."""
        while True:
            request = self.next_request()
            if request is None:
                return
            yield request


class ArrivalStream:
    """Every client's requests merged into one canonical routed timeline.

    The stream defines the *global arrival order* — ``(arrival_ns,
    client_id)`` — and stamps each request's shard as it is popped, so
    every epoch quantum yields byte-identical per-shard request
    sequences: the cluster's driver pulls from one ArrivalStream and
    hands requests to shard executors in this order.  (Two clients
    never tie in practice — arrival instants are continuous
    exponentials — but the client-id tiebreak makes even that case
    deterministic.)
    """

    __slots__ = ("_clients", "_router", "_heap")

    def __init__(self, clients: Dict[int, "OpenLoopClient"], router) -> None:
        self._clients = clients
        self._router = router
        self._heap: List[tuple] = []
        for client_id, client in sorted(clients.items()):
            request = client.next_request()
            if request is not None:
                heapq.heappush(
                    self._heap, (request.arrival_ns, client_id, request)
                )

    def peek_ns(self) -> float:
        """The next arrival instant (``inf`` once every client is done)."""
        return self._heap[0][0] if self._heap else math.inf

    def take_until(self, horizon_ns: float) -> List[Request]:
        """Pop, route, and return every arrival at or before the horizon."""
        taken: List[Request] = []
        heap = self._heap
        while heap and heap[0][0] <= horizon_ns:
            _, client_id, request = heapq.heappop(heap)
            request.shard = self._router.shard_for(request.key)
            taken.append(request)
            nxt = self._clients[client_id].next_request()
            if nxt is not None:
                heapq.heappush(heap, (nxt.arrival_ns, client_id, nxt))
        return taken


def make_clients(
    count: int,
    *,
    aggregate_rate_per_s: float,
    duration_ns: float,
    keyspace: int,
    value_bytes: int,
    read_fraction: float,
    zipf_theta: float,
    seed: int,
) -> Dict[int, OpenLoopClient]:
    """Build ``count`` clients splitting the aggregate offered rate."""
    if count <= 0:
        raise ValueError("need at least one client")
    per_client = aggregate_rate_per_s / count
    return {
        client_id: OpenLoopClient(
            client_id,
            rate_per_s=per_client,
            duration_ns=duration_ns,
            keyspace=keyspace,
            value_bytes=value_bytes,
            read_fraction=read_fraction,
            zipf_theta=zipf_theta,
            seed=seed,
        )
        for client_id in range(count)
    }


# -- snapshot declarations ----------------------------------------------------
# Requests are scalar-only records (bytes values are immutable), clients
# are plain attribute bags with RNG streams the clone engine knows how
# to fork.
Request.__snapshot_state__ = "__atoms__"
OpenLoopClient.__snapshot_state__ = "__all__"
