"""Wall times scaled to a fixed machine speed.

The benchmark shares a few cores of a host with other work, and the speed
it gets moves by up to about 40% between stretches that last from seconds
to minutes.  A run of some tens of seconds can fall wholly in a slow or a
fast stretch, so medians taken within one run cannot remove it.

So a short fixed probe, which calls no mollikit code, is timed at the start
of a run and then at least PROBE_EVERY_S seconds apart between the
measured calls.  It is made of the parts a workload names, each a kind of
work that the workload's operation or set-up does and that the slow
stretches slow down about as much as they slow that work:

* ``python``: a Python loop of float additions (interpreter-bound work);
* ``gather``: a random gather from an array larger than a core's L2 cache;
* ``sampling``: a frozen numpy copy of the shape of the sampling loop, a
  bilinear interpolation of a 128^2 grid at 96^2 points shifted by each of
  8 offsets, with running sum, minimum and maximum.

Each probe times each part three times and keeps, per part, the median
over its time at the reference speed, REFERENCE_S: 1 at the reference
speed, 1.3 on a stretch that runs the part 1.3 times slower.  A time is
divided by the median over the run's probes of the mean of these ratios
over the parts that mirror it (``factor(parts)`` is the inverse), which
gives seconds at the reference speed, about that of the fast stretches on
the machine in the README.  A change to mollikit moves the measured calls
and not the probe, so it moves the scaled times in full.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# each part's time at the reference speed
REFERENCE_S = {"python": 0.0017, "gather": 0.0022, "sampling": 0.0037}
# least wall time between two probes
PROBE_EVERY_S = 0.5

_RNG = np.random.default_rng(0)
_LARGE = _RNG.standard_normal(1 << 21)  # 16 MiB
_INDEX = _RNG.integers(0, 1 << 21, 1 << 18)
_GRID = _RNG.standard_normal((128, 128))
_AXIS = np.linspace(0.2, 0.8, 96)
_POINTS = np.stack(np.meshgrid(_AXIS, _AXIS, indexing="ij"), -1).reshape(-1, 2)
_STEPS = _RNG.uniform(0.01, 0.1, len(_POINTS))[:, None]
_OFFSETS = _RNG.uniform(-1.0, 1.0, (8, 2))


def _python() -> float:
    s = 0.0
    for i in range(30000):
        s += i * 0.5
    return s


def _gather() -> float:
    return float((_LARGE[_INDEX] * 2.0 + _LARGE[: 1 << 18])[0])


def _sampling() -> float:
    h = 1.0 / 127
    acc = np.zeros(len(_POINTS))
    lo = np.full(len(_POINTS), np.inf)
    hi = np.full(len(_POINTS), -np.inf)
    for z in _OFFSETS:
        p = _POINTS - _STEPS * z
        idx, frac = [], []
        for axis in range(2):
            t = p[:, axis] / h
            i0 = np.clip(np.floor(t).astype(np.int64), 0, 126)
            idx.append(i0)
            frac.append(t - i0)
        c = [_GRID[idx[0] + i, idx[1] + j] for i in (0, 1) for j in (0, 1)]
        c = [c[0] + frac[1] * (c[1] - c[0]), c[2] + frac[1] * (c[3] - c[2])]
        v = c[0] + frac[0] * (c[1] - c[0])
        acc += 0.125 * v
        np.minimum(lo, v, out=lo)
        np.maximum(hi, v, out=hi)
    return float(acc[0] + lo[0] + hi[0])


PARTS = {"python": _python, "gather": _gather, "sampling": _sampling}


def probe(parts) -> dict[str, float]:
    """The machine's slowness now, per part: 1 at the reference speed."""
    ratios = {}
    for name in parts:
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            PARTS[name]()
            times.append(time.perf_counter() - t0)
        ratios[name] = statistics.median(times) / REFERENCE_S[name]
    return ratios


class Clock:
    """Times calls, and probes the machine's speed between them."""

    def __init__(self, parts):
        self.parts = tuple(dict.fromkeys(parts))
        self.probes = [probe(self.parts)]
        self.last = time.perf_counter()

    def tick(self) -> None:
        """Probe, unless the last probe was less than PROBE_EVERY_S ago."""
        if time.perf_counter() - self.last >= PROBE_EVERY_S:
            self.probes.append(probe(self.parts))
            self.last = time.perf_counter()

    def call(self, fn, *args, **kwargs):
        """Run ``fn``, then tick; returns (its result, its wall seconds)."""
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        dt = time.perf_counter() - t0
        self.tick()
        return result, dt

    def slowness(self, parts) -> float:
        """Median over the probes of the mean ratio of ``parts``."""
        return statistics.median(statistics.fmean(p[n] for n in parts) for p in self.probes)

    def factor(self, parts) -> float:
        """What the run's wall times of work mirrored by ``parts`` are
        multiplied by."""
        return 1.0 / self.slowness(parts)
