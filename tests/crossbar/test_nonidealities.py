"""Tests of stuck-fault injection."""

import numpy as np
import pytest

from repro.crossbar import apply_stuck_faults


class TestStuckFaults:
    def test_zero_fraction_no_faults(self):
        g = np.full((10, 10), 5e-6)
        faulty, mask = apply_stuck_faults(g, 0.0, 1e-7, 25e-6, seed=0)
        assert not mask.any()
        assert np.array_equal(faulty, g)

    def test_fraction_approximately_respected(self):
        g = np.full((100, 100), 5e-6)
        _, mask = apply_stuck_faults(g, 0.1, 1e-7, 25e-6, seed=1)
        assert mask.mean() == pytest.approx(0.1, abs=0.02)

    def test_low_mode_sticks_to_g_min(self):
        g = np.full((50, 50), 5e-6)
        faulty, mask = apply_stuck_faults(g, 0.2, 1e-7, 25e-6, mode="low", seed=2)
        assert np.all(faulty[mask] == 1e-7)

    def test_high_mode_sticks_to_g_max(self):
        g = np.full((50, 50), 5e-6)
        faulty, mask = apply_stuck_faults(g, 0.2, 1e-7, 25e-6, mode="high", seed=3)
        assert np.all(faulty[mask] == 25e-6)

    def test_both_mode_mixes(self):
        g = np.full((60, 60), 5e-6)
        faulty, mask = apply_stuck_faults(g, 0.3, 1e-7, 25e-6, mode="both", seed=4)
        values = set(np.unique(faulty[mask]))
        assert values == {1e-7, 25e-6}

    def test_original_not_modified(self):
        g = np.full((10, 10), 5e-6)
        apply_stuck_faults(g, 0.5, 1e-7, 25e-6, seed=5)
        assert np.all(g == 5e-6)

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            apply_stuck_faults(np.ones((2, 2)), 0.1, 0, 1, mode="weird")
