"""Tests of the benchmark's speed correction.

    python3 -m pytest perfbench/test_speed.py
"""

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import speed  # noqa: E402


def test_each_step_is_scaled_by_the_samples_around_and_during_it():
    ref = speed.REFERENCE_S
    probes = [[ref, ref], [ref, ref], [2.0 * ref, 2.0 * ref]]
    # step 0 ran at reference speed; step 1 saw samples at 1x, 2x and 3x
    got = speed.to_reference([1.0, 3.0], probes, [[], [3.0 * ref]])
    assert got == pytest.approx([1.0, 3.0 / (9.0 / 5.0)])
    assert speed.to_reference([1.0, 3.0], probes) == pytest.approx([1.0, 2.0])


def test_a_missing_probe_is_refused():
    with pytest.raises(ValueError):
        speed.to_reference([1.0, 1.0], [[0.01], [0.01]])


def test_sampling_runs_during_the_block_and_stops_after_it():
    with speed.sampling() as samples:
        end = time.perf_counter() + 10 * speed.INTERVAL_S
        while time.perf_counter() < end:
            pass
    assert len(samples) >= 2
    taken = len(samples)
    time.sleep(3 * speed.INTERVAL_S)
    assert len(samples) == taken
