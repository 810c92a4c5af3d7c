"""Host seconds scaled to a fixed host speed ("reference seconds").

On a shared 2-vCPU Xeon VM, host speed changed by up to 2x in spells
of a second to minutes: a fixed pure-Python loop, timed back to back,
took anywhere from 18 to 37 ms.  The simulator slows with it, so raw
host seconds of two runs of the same code differ by whichever spells
each run met.  The *ratio* of a piece of simulator work to such a loop
timed right next to it stayed within about 10 % over those spells
(one cluster build: 10-20 ms raw, 0.51-0.62x the loop).

So every host time the benchmark reports is measured as raw seconds and
then scaled by ``REFERENCE_S / loop``, where ``loop`` is the mean of the
reference loop timed just before and just after the piece, or after
each segment of about a second of a longer piece.  The result
reads as seconds on a host where the loop takes ``REFERENCE_S``.  It
still moves one for one with the program's own cost; raw seconds are
printed beside it.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Optional, Tuple

# Seconds the reference loop takes at a typical speed of the VM above
# (20-40 ms), so that reference seconds read close to raw ones.
REFERENCE_S = 0.030
LOOP_ITERATIONS = 15_000
LOOP_TIMINGS = 3


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def _loop() -> int:
    """Interpreter work of the simulator's kind: objects, dicts, attributes."""
    table = {}
    total = 0
    for i in range(LOOP_ITERATIONS):
        table[i & 4095] = _Item(i, i * 3)
        probe = table.get((i * 7) & 4095)
        if probe is not None:
            total += probe.value - probe.key
    return total


def loop_s() -> float:
    """Seconds the reference loop takes now (median of a few timings)."""
    timings: List[float] = []
    for _ in range(LOOP_TIMINGS):
        start = time.perf_counter()
        _loop()
        timings.append(time.perf_counter() - start)
    return statistics.median(timings) * LOOP_TIMINGS


class HostClock:
    """Times pieces of work in raw and in reference seconds.

    :meth:`start` and :meth:`stop` bracket a piece.  The piece is cut
    into segments: one ends at :meth:`stop`, and, for a clock made with
    ``segment_s``, at the first :meth:`tick` after the segment has lasted
    that long.  At the end of each segment the reference loop is timed,
    and the segment is scaled by the mean of the loop timings at its two
    ends.  The loop's own time is left out of the piece.
    """

    def __init__(self, segment_s: Optional[float] = None) -> None:
        self.segment_s = segment_s
        self._before = loop_s()
        self._mark = 0.0
        self._raw = self._scaled = 0.0

    def start(self) -> None:
        self._raw = self._scaled = 0.0
        self._mark = time.perf_counter()

    def tick(self) -> None:
        """End the segment if it has lasted ``segment_s``; call it often."""
        if self.segment_s is not None and time.perf_counter() - self._mark >= self.segment_s:
            self._segment()

    def stop(self) -> Tuple[float, float]:
        """The piece's (reference seconds, raw seconds)."""
        self._segment()
        return self._scaled, self._raw

    def _segment(self) -> None:
        raw = time.perf_counter() - self._mark
        after = loop_s()
        self._raw += raw
        self._scaled += raw * 2.0 * REFERENCE_S / (self._before + after)
        self._before = after
        self._mark = time.perf_counter()
