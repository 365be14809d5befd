"""Timing at a reference machine speed.

The benchmark's host is shared: the same pass of the same code runs up
to about 1.8x slower for seconds to minutes at a time, and CPU time tracks
wall time, so the slowdown is the processor's, not the program's. A
`SpeedClock` runs a small fixed probe kernel on a wall-clock timer
(SIGALRM) while the program works, so the probe samples the same slow
and fast phases the program goes through. The program's time is the
wall time minus the probe's, and it is scaled by how much slower the
probe ran than its reference time:

    scaled_s = (wall_s - probe_s) * reference_s / mean(probe samples)

Each workload has a probe of the same character as its hot loop
(Python-level tree growing, im2col convolutions, Jacobi stencils),
because a slowdown hits interpreter-bound, BLAS-bound and memory-bound
code by different amounts. The probes are frozen copies of that kind
of work, not calls into mebench, so a change to the program never
changes the probe. Reference times are rough probe times on the 2-vCPU
VM the baseline was recorded on, so a scaled second is near a wall
second there; only ratios between runs of the same benchmark code carry
meaning.

Import this module only after the BLAS thread count has been pinned.
"""

from __future__ import annotations

import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import correlate

PERIOD_S = 0.025  # one probe sample per 25 ms of wall time

_RNG = np.random.default_rng(0)

# Jacobi step of a Horn-Schunck-style solver on a 64 px level.
_AVG = np.array([[1.0, 2.0, 1.0], [2.0, 0.0, 2.0], [1.0, 2.0, 1.0]]) / 12.0
_FX, _FY, _FT = (_RNG.random((64, 64)) for _ in range(3))
_DENOM = 1.0 + _FX * _FX + _FY * _FY


def jacobi_probe() -> None:
    du = np.zeros((64, 64))
    dv = np.zeros((64, 64))
    for _ in range(2):
        du_bar = correlate(du, _AVG, mode="nearest")
        dv_bar = correlate(dv, _AVG, mode="nearest")
        shared = (_FX * du_bar + _FY * dv_bar + _FT) / _DENOM
        du = du_bar - _FX * shared
        dv = dv_bar - _FY * shared


# im2col 3x3 convolution, forward and both backward einsums, batch 2.
_X = _RNG.random((2, 8, 18, 18))
_W = _RNG.random((16, 72))


def conv_probe() -> None:
    cols = np.empty((2, 8, 3, 3, 16, 16))
    for i in range(3):
        for j in range(3):
            cols[:, :, i, j] = _X[:, :, i : i + 16, j : j + 16]
    cols = cols.reshape(2, 72, 256)
    grad = (_W @ cols) * 0.5
    np.einsum("bfl,bcl->fc", grad, cols)
    np.einsum("fc,bfl->bcl", _W, grad)


# Growing one small CART tree: Gini split scans, masks, recursion and a
# per-node feature draw, the mix of small numpy calls a random forest makes.
_CART_X = _RNG.random((20, 6))
_CART_Y = (_RNG.random(20) * 2).astype(np.int64)


def _gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return 1.0 - float((p * p).sum())


def _grow(x: np.ndarray, y: np.ndarray, rng, depth: int) -> None:
    if depth >= 2 or y.size < 4 or _gini(np.bincount(y, minlength=2)) == 0.0:
        return
    n = y.size
    best = None
    for feature in np.sort(rng.choice(x.shape[1], size=2, replace=False)):
        values = x[:, feature]
        order = np.argsort(values, kind="stable")
        ordered = values[order]
        onehot = np.zeros((n, 2), dtype=np.int64)
        onehot[np.arange(n), y[order]] = 1
        prefix = np.cumsum(onehot, axis=0)
        for i in np.nonzero(ordered[:-1] < ordered[1:])[0]:
            left = prefix[i]
            impurity = ((i + 1) * _gini(left) + (n - i - 1) * _gini(prefix[-1] - left)) / n
            if best is None or impurity < best[0]:
                best = (impurity, int(feature), 0.5 * (ordered[i] + ordered[i + 1]))
    if best is not None:
        mask = x[:, best[1]] < best[2]
        _grow(x[mask], y[mask], rng, depth + 1)
        _grow(x[~mask], y[~mask], rng, depth + 1)


def cart_probe() -> None:
    _grow(_CART_X, _CART_Y, np.random.default_rng(1), 0)


@dataclass(frozen=True)
class Probe:
    kernel: object     # () -> None
    reference_s: float  # roughly the kernel's time between program slices on the reference machine


PROBES = {
    "jacobi": Probe(jacobi_probe, 0.00042),
    "conv": Probe(conv_probe, 0.00110),
    "cart": Probe(cart_probe, 0.00160),
}


@dataclass
class Timing:
    wall_s: float     # wall time of the call, probe included
    program_s: float  # wall time minus the probe's samples
    speed: float      # reference time over mean probe time; < 1 on a slow phase
    samples: int

    @property
    def scaled_s(self) -> float:
        return self.program_s * self.speed


class SpeedClock:
    """Times one call while the probe samples machine speed on a timer."""

    def __init__(self, probe: Probe):
        self.probe = probe
        self._samples: list[float] = []
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a tick that lands inside the probe is dropped
            return
        self._busy = True
        try:
            t = time.perf_counter()
            self.probe.kernel()
            self._samples.append(time.perf_counter() - t)
        finally:
            self._busy = False

    def time(self, fn, *args):
        """(fn(*args), Timing). The timer is always stopped and the old handler restored."""
        self._samples = []
        previous = signal.signal(signal.SIGALRM, self._tick)
        t = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            out = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            wall = time.perf_counter() - t
            signal.signal(signal.SIGALRM, previous)
        program = wall - sum(self._samples)
        if not self._samples:  # a call shorter than one period: sample once after it
            self._tick(signal.SIGALRM, None)
        speed = self.probe.reference_s / statistics.fmean(self._samples)
        return out, Timing(wall, program, speed, len(self._samples))
