"""A fixed calibration loop that measures how fast the machine runs now.

On the shared VMs this benchmark runs on, the speed of one vCPU swings by a
third or more within seconds and drifts by up to 1.7x for minutes at a
time, so a raw time says as much about the neighbours as about pcflow.
``calibrate`` times a fixed piece of work of the kinds pcflow does:
interpreted scalar code, which tracks these swings best, and numpy on
curve-sized arrays.  While the speed swung, the per-operation correlation
between the loop's slowdowns and an operation's was 0.7-0.87 on all four
workloads.  ``run.py`` times the loop before and after each operation and
divides the operation's time by it.  The loop belongs to the benchmark, so
no pcflow change can alter it.
"""

from __future__ import annotations

import time

import numpy as np

# A scaled time is the time the work would take on a machine where
# ``calibrate()`` takes REFERENCE_S.  That is about the loop's time on a
# 2-vCPU VM (Intel Xeon, Python 3.11, numpy 2.4) in its fast phases, where
# scaled and wall times about agree; the constant only sets the unit.
REFERENCE_S = 0.04

_THETA = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)


def _scalar(reps: int = 250_000) -> float:
    s = 0.0
    for i in range(reps):
        s += (i * 0.5) % 7.0
    return s


def _small_arrays(reps: int = 250) -> float:
    n = _THETA.size
    h = 1.0 + 0.1 * np.cos(3.0 * _THETA)
    for _ in range(reps):
        d2 = np.roll(h, 1) - 2.0 * h + np.roll(h, -1)
        k = 1.0 / np.maximum(h + d2 * (n / (2.0 * np.pi)) ** 2, 1e-3)
        h = h - 1e-7 * k * k
        x = np.stack([h * np.cos(_THETA), h * np.sin(_THETA)], axis=1)
        float(x[0] @ x[1])
    return float(h[0])


def calibrate() -> float:
    """Seconds the fixed calibration work takes now."""
    t0 = time.perf_counter()
    _scalar()
    _small_arrays()
    return time.perf_counter() - t0
