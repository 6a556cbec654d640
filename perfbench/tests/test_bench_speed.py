"""Reference seconds divide out the kernel's speed and nothing else."""

import signal
import time

import pytest

import speed
from speed import REF_UNIT_S, Speedometer


def _meter(samples):
    meter = Speedometer()
    meter.samples = list(samples)
    return meter


def test_span_subtracts_the_samples_inside_and_scales_by_the_nearest_mean():
    meter = _meter([0.009, 0.002, 0.001, 0.003, 0.002, 0.009])
    ref, work = meter.seconds(1.004, 2, 4)
    assert work == pytest.approx(1.0)
    assert ref == pytest.approx(1.0 * REF_UNIT_S / 0.002)


def test_short_span_uses_the_samples_right_before_and_after():
    meter = _meter([0.009, 0.001, 0.003, 0.009])
    ref, work = meter.seconds(0.01, 2, 2)
    assert work == 0.01
    assert ref == pytest.approx(0.01 * REF_UNIT_S / 0.002)


def test_a_slower_machine_reads_the_same_and_a_slower_program_reads_slower():
    base, _ = _meter([0.002, 0.002]).seconds(0.5, 1, 1)
    slow_machine, _ = _meter([0.004, 0.004]).seconds(1.0, 1, 1)
    slow_program, _ = _meter([0.002, 0.002]).seconds(1.0, 1, 1)
    assert slow_machine == pytest.approx(base)
    assert slow_program == pytest.approx(2 * base)


def test_speedometer_samples_while_active_and_restores_the_signal_state():
    before = signal.getsignal(signal.SIGALRM)
    with Speedometer(period=0.01) as meter:
        meter.sample()
        first = meter.mark()
        start = time.perf_counter()
        while time.perf_counter() - start < 0.2:
            sum(i * i for i in range(1000))
        wall = time.perf_counter() - start
        last = meter.mark()
        meter.sample()
    assert last - first >= 3
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    ref, work = meter.seconds(wall, first, last)
    assert 0 < work < wall and ref > 0


def test_bracket_returns_the_call_result():
    ref, wall, unit, result = speed.bracket(sum, range(10))
    assert result == 45 and unit > 0 and ref == pytest.approx(wall * REF_UNIT_S / unit)
