"""Wall times adjusted for the speed of a shared host.

The benchmark's host lends it CPUs that other machines share, and their
speed changes by up to twofold within seconds and drifts over minutes
(README.md, "Steadiness").  Every timed call therefore sits between two
runs of a fixed probe, and its wall time is scaled by REFERENCE_S over
the mean of those two probe times: the result is the time the call would
have taken had the probe taken REFERENCE_S.  The probe is the
benchmark's own code, so no change to the program can move it.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from collections import defaultdict

import numpy as np

# The probe's time on the reference machine when it is quiet (its 10th
# percentile there), so that adjusted times read close to quiet wall times.
REFERENCE_S = 0.0065

# The probe mixes the kinds of work the program does, in about equal
# parts: interpreter loops, JSON parsing, grouping into dicts of tuples,
# and a small least-squares solve.
_LINES = [
    json.dumps({
        "ts_ms": 60_000 * i, "level_pct": 100 - i % 100, "voltage_mv": 3850 + i % 7, "temp_dc": 250,
        "charge_uah": 4_000_000 - 997 * i, "status": "Discharging", "health": "Good",
        "apps": [f"app{i * 7 % 100:03d}", f"app{i * 13 % 100:03d}"],
    })
    for i in range(600)
]
_A = np.random.default_rng(0).standard_normal((400, 60))
_B = np.ones(400)


def probe() -> float:
    """Wall time of one fixed piece of work, in seconds.

    The garbage collector is off while it runs, so that what the program
    left on the heap cannot change the probe's work.
    """
    gc.disable()
    start = time.perf_counter()
    total = 0
    for i in range(35_000):
        total += i * i % 7
    rows = [json.loads(line) for line in _LINES]
    groups: dict[tuple, list] = {}
    for row in rows:
        groups.setdefault(tuple(row["apps"]), []).append((row["ts_ms"], row["level_pct"]))
    for _ in range(2):
        np.linalg.lstsq(_A, _B, rcond=None)
    elapsed = time.perf_counter() - start
    gc.enable()
    return elapsed


class Scaler:
    """Samples of named metrics, raw and adjusted, with a probe after each batch.

    `add` takes the samples timed since the previous probe (or since the
    Scaler was made), runs the next probe and scales the samples by
    REFERENCE_S over the mean of the two probes around them.
    """

    def __init__(self):
        self.last_probe = probe()
        self.probes = [self.last_probe]
        self.raw: dict[str, list[float]] = defaultdict(list)
        self.adjusted: dict[str, list[float]] = defaultdict(list)

    def reprobe(self) -> None:
        """Probe afresh, so that untimed work since the last probe does not count."""
        self.last_probe = probe()
        self.probes.append(self.last_probe)

    def add(self, name: str, samples: list[float]) -> None:
        after = probe()
        factor = 2 * REFERENCE_S / (self.last_probe + after)
        self.raw[name] += samples
        self.adjusted[name] += [s * factor for s in samples]
        self.last_probe = after
        self.probes.append(after)

    def median(self, name: str) -> float:
        return statistics.median(self.adjusted[name])

    def raw_median(self, name: str) -> float:
        return statistics.median(self.raw[name])
