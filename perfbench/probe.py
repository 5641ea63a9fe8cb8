"""Host-speed probe: a fixed numpy-and-Python workload, timed between operations.

On a shared host the same code runs at different speeds from one ten
seconds to the next (a busy neighbour on the same physical core, cache
and memory contention).  The benchmark times this probe between its
operations and scales the run's times by NOMINAL_PROBE_S / (mean probe
time of the run), so a slow spell of the host shows in the probe and is
divided out.  The probe mixes what the program spends its time on:
numpy calls on tiny arrays driven from a Python loop, where interpreter
and call overhead dominate, and projections and gathers over tens of
thousands of points.  It imports nothing from linecalib, so a change to
the program cannot move it.
"""
from __future__ import annotations

import time

import numpy as np

# Median probe time on the reference host (2-core shared x86 VM,
# Python 3.11.7, numpy 2.4.6); see perfbench/README.md.
NOMINAL_PROBE_S = 0.0800


class Probe:
    """One fixed unit of work; `measure()` returns its wall time in seconds."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20210309)
        self._pts = rng.normal(size=(20000, 3)) * 10.0 + np.array([0.0, 0.0, 30.0])
        self._grid = rng.random((240, 640))
        a = 0.1
        self._R = np.array(
            [[np.cos(a), -np.sin(a), 0.0], [np.sin(a), np.cos(a), 0.0], [0.0, 0.0, 1.0]]
        )
        self._small = rng.normal(size=(64, 3))
        self.checksum = 0.0

    def _small_numpy(self) -> float:
        acc = 0.0
        R = self._R
        for row in self._small:
            for _ in range(24):
                v = R @ row
                w = np.cross(v, row)
                acc += float(np.linalg.norm(w))
        return acc

    def _medium_numpy(self) -> float:
        g = self._grid
        h, w = g.shape
        acc = 0.0
        for k in range(24):
            p = self._pts @ self._R.T + np.array([0.1 * k, 0.0, 0.0])
            u = 300.0 * p[:, 0] / p[:, 2] + w / 2
            v = 300.0 * p[:, 1] / p[:, 2] + h / 2
            ok = (u >= 0) & (u < w - 1) & (v >= 0) & (v < h - 1)
            iu = np.where(ok, u, 0.0).astype(int)
            iv = np.where(ok, v, 0.0).astype(int)
            acc += float(np.where(ok, g[iv, iu], 0.0).sum())
            acc += float(np.bincount(iu, minlength=w).max())
        return acc

    def measure(self) -> float:
        t0 = time.perf_counter()
        self.checksum += self._small_numpy() + self._medium_numpy()
        return time.perf_counter() - t0


def host_factor(probe_times) -> float:
    """NOMINAL_PROBE_S over the mean of the probe times: above 1 on a fast
    spell, below 1 on a slow one."""
    return NOMINAL_PROBE_S * len(probe_times) / sum(probe_times)
