"""Self-tests for the reference-speed clock.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import signal
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.speed import PROBES, Probe, SpeedClock  # noqa: E402


def _busy(seconds: float) -> int:
    end = time.perf_counter() + seconds
    n = 0
    while time.perf_counter() < end:
        n += 1
    return n


@pytest.mark.parametrize("name", sorted(PROBES))
def test_probe_samples_the_call_and_scales_program_time(name):
    out, timing = SpeedClock(PROBES[name]).time(_busy, 0.2)
    assert out > 0
    assert timing.samples >= 2
    assert 0.0 < timing.program_s < timing.wall_s
    assert timing.speed > 0.0
    assert timing.scaled_s == pytest.approx(timing.program_s * timing.speed)


def test_clock_stops_its_timer_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    SpeedClock(PROBES["jacobi"]).time(_busy, 0.05)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before


def test_clock_cleans_up_when_the_call_raises():
    before = signal.getsignal(signal.SIGALRM)

    def boom():
        _busy(0.05)
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError):
        SpeedClock(PROBES["jacobi"]).time(boom)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before


def test_call_shorter_than_one_period_is_still_scaled():
    out, timing = SpeedClock(Probe(lambda: None, 1e-6)).time(lambda: 7)
    assert out == 7
    assert timing.samples == 1
    assert timing.program_s == timing.wall_s

