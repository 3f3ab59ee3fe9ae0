"""Host speed probes.

The benchmark shares its host with other tenants, whose load slows
every process on it by up to 2x in bursts lasting seconds.  Each
request is therefore paired with probes of the host's speed, and its
host-corrected time is its measured time scaled by reference / probe:
what it would have taken at the probes' reference speed.

Two kinds of work respond differently to that load, so there are two
probes.  Computing in Python is paired with a fixed loop timed just
before and after the request (and every half second during a child
process).  Starting a process and importing the engine from disk is
paired with starting a bare interpreter, which shares no code with the
engine.  A CLI request's time up to the start of dlschubert.cli.main,
and after its end, is scaled by the second; the rest by the first.
"""

from __future__ import annotations

import sys
import time

# the probes' least times on an idle 2-core Intel Xeon sandbox (2.1 GHz,
# Python 3.11); only ratios between runs on one host matter
PROBE_REF_S = 0.58e-3
SPAWN_REF_S = 7.5e-3
SPAWN_ARGV = (sys.executable, "-S", "-c", "pass")


def probe() -> float:
    """Least of three timings of a fixed loop of the engine's staple
    operations, dict updates on tuple keys and products of growing
    integers (binomial coefficients); the least drops a probe that the
    scheduler preempted."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        acc: dict[tuple[int, int], int] = {}
        for i in range(2000):
            key = (i % 97, i % 13)
            acc[key] = acc.get(key, 0) + i * 3
        binom = 1
        for i in range(1, 400):
            binom = binom * (1200 - i) // i
        best = min(best, time.perf_counter() - start)
    return best


def corrected(seconds: float, probe_s: float, startup_s: float = 0.0,
              spawn_s: float | None = None) -> float:
    """Host-corrected time of a request that took `seconds`, of which
    `startup_s` went to starting its process (probed by `spawn_s`) and
    the rest to computing (probed by `probe_s`)."""
    out = (seconds - startup_s) * PROBE_REF_S / probe_s
    if startup_s:
        out += startup_s * SPAWN_REF_S / spawn_s
    return out
