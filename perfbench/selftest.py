"""Self-tests the benchmark runs before every measurement.

They check the benchmark's own arithmetic, not the program: exact
percentiles against a brute-force definition, refusals counting as SLO
misses, and that the probe splitting ``run_cell`` into set-up and run
leaves its result unchanged.  Each returns a list of failure messages
(empty = pass).
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List

from repro.harness import experiments

from perfbench import stats
from perfbench.hostspeed import HostClock
from perfbench.workloads import CELL_SCHEMES, CellProbe, TxCapture


def check_percentiles() -> List[str]:
    """Nearest-rank percentiles equal a brute-force search over sorted values."""
    failures = []
    rng = random.Random(20200530)
    for n in list(range(1, 60)) + [999, 1000, 1001, 10_009, 10_010]:
        values = [rng.choice((rng.random(), float(rng.randint(0, 9)))) for _ in range(n)]
        ordered = sorted(values)
        for text in ("0.5", "0.9", "0.99", "0.999", "1"):
            exact = Fraction(text)
            # Brute force: the smallest sample with at least q*n samples
            # <= it, counting ties by a plain scan (no rank arithmetic).
            expected = next(
                v
                for i, v in enumerate(ordered)
                if (i == n - 1 or ordered[i + 1] != v) and i + 1 >= exact * n
            )
            got = stats.percentile(ordered, float(text))
            if got != expected:
                failures.append(f"percentile q={text} n={n}: {got} != {expected}")
        tail_q = stats.tail_quantile(n)
        beyond = n - stats.rank(tail_q, n)
        if n > stats.MIN_TAIL_SAMPLES and beyond < stats.MIN_TAIL_SAMPLES:
            failures.append(f"tail quantile n={n}: only {beyond} samples beyond")
        if n >= 10_010 and tail_q != 0.999:
            failures.append(f"tail quantile n={n}: {tail_q} instead of p999")
    return failures


def check_slo_refusals() -> List[str]:
    """A refused request counts as an SLO miss in ``max_rps_at_slo``."""
    failures = []
    fast = [1_000.0] * 99
    if stats.slo_misses(fast, refused=1, slo_ns=20_000.0) != 1:
        failures.append("a refusal was not counted as a miss")
    if not stats.meets_slo(100, 1):
        failures.append("1 miss in 100 should meet a p99 SLO")
    if stats.meets_slo(100, 2):
        failures.append("2 misses in 100 should fail a p99 SLO")
    # Every ack is fast on both rungs, but the upper rung refuses 5 %:
    # it must fail, so the knee lies strictly below it.
    upper_misses = stats.slo_misses([1_000.0] * 950, refused=50, slo_ns=20_000.0)
    rungs = [(1e6, 1000, 0), (2e6, 1000, upper_misses)]
    knee = stats.max_rate_at_slo(rungs)
    if not 1e6 <= knee < 2e6:
        failures.append(f"refusals ignored: knee {knee} not below the refusing rung")
    if stats.max_rate_at_slo([(1e6, 1000, 0), (2e6, 1000, 0)]) != 2e6:
        failures.append("a ladder that always meets the SLO must report its top rung")
    return failures


def check_cell_probe() -> List[str]:
    """``run_cell`` gives the same result with and without :class:`CellProbe`.

    Checked on the cheap smoke-scale ``queue`` cell of every scheme.
    """
    failures = []
    for scheme in CELL_SCHEMES:
        plain = experiments.run_cell(scheme, "queue", "smoke", seed=7, use_cache=False)
        capture = TxCapture()
        clock = HostClock()
        probe = CellProbe(capture, clock)
        try:
            clock.start()
            probed = experiments.run_cell(
                scheme, "queue", "smoke", seed=7, use_cache=False
            )
        finally:
            probe.close()
            capture.close()
        if vars(plain) != vars(probed) or probe.system is None:
            failures.append(f"cell probe changes run_cell ({scheme}/queue)")
    return failures


def run_all() -> List[str]:
    return check_percentiles() + check_slo_refusals() + check_cell_probe()
