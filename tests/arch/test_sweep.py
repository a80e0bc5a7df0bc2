"""Tests of the Figs. 3-4 sweeps, including the published anchors."""

import numpy as np
import pytest

from repro.arch import miss_rate_sweep, offload_sweep


class TestSweepStructure:
    def test_grid_shapes(self):
        sweep = miss_rate_sweep(0.6, np.linspace(0, 1, 4), np.linspace(0, 1, 3))
        assert sweep.conventional_delay_norm.shape == (4, 3)
        assert sweep.cim_energy_norm.shape == (4, 3)

    def test_cim_plane_normalized_to_one_at_origin(self):
        sweep = miss_rate_sweep(0.6)
        assert sweep.cim_delay_norm[0, 0] == pytest.approx(1.0)
        assert sweep.cim_energy_norm[0, 0] == pytest.approx(1.0)

    def test_rows_flatten_full_grid(self):
        sweep = miss_rate_sweep(0.3, np.linspace(0, 1, 3), np.linspace(0, 1, 3))
        rows = sweep.rows()
        assert len(rows) == 9
        assert rows[0][:2] == (0.0, 0.0)


class TestFig3Anchors:
    """Fig. 3: normalized delay planes for X = 30/60/90 %."""

    def test_x30_conventional_peak_near_published(self):
        sweep = miss_rate_sweep(0.3)
        assert sweep.conventional_delay_norm.max() == pytest.approx(1.5, rel=0.25)

    def test_x30_cim_slower_at_low_miss(self):
        """"the CIM could be even worse than conventional ... when the
        percentage of accelerated instruction is low (e.g., 30%)"."""
        sweep = miss_rate_sweep(0.3)
        assert sweep.cim_ever_slower
        assert sweep.speedup[0, 0] < 1.0

    def test_x60_conventional_peak_near_published(self):
        sweep = miss_rate_sweep(0.6)
        assert sweep.conventional_delay_norm.max() == pytest.approx(4.0, rel=0.45)

    def test_x90_speedup_reaches_tens(self):
        """"the speed up reaches up to 35x for the considered case"."""
        sweep = miss_rate_sweep(0.9)
        assert 20.0 <= sweep.max_speedup <= 40.0

    def test_speedup_grows_with_x(self):
        peaks = [miss_rate_sweep(x).max_speedup for x in (0.3, 0.6, 0.9)]
        assert peaks[0] < peaks[1] < peaks[2]

    def test_speedup_grows_with_miss_rates(self):
        sweep = miss_rate_sweep(0.9)
        assert sweep.speedup[-1, -1] == sweep.speedup.max()


class TestFig4Anchors:
    """Fig. 4: normalized energy planes."""

    def test_cim_energy_always_lower(self):
        """"the energy consumption of the CIM architecture is always
        lower, irrespective of the cache miss rates"."""
        for x in (0.3, 0.6, 0.9):
            assert not miss_rate_sweep(x).cim_ever_costlier

    def test_x30_energy_gain_near_six(self):
        """"In case 30% of the instructions are accelerated, the
        conventional architecture consumes 6x more energy"."""
        sweep = miss_rate_sweep(0.3)
        assert sweep.max_energy_gain == pytest.approx(6.0, rel=0.25)

    def test_x90_energy_gain_two_orders(self):
        """"This grows up to two orders of magnitude in case 90% ..."""
        sweep = miss_rate_sweep(0.9)
        assert 70.0 <= sweep.max_energy_gain <= 250.0

    def test_energy_gain_grows_with_x(self):
        gains = [miss_rate_sweep(x).max_energy_gain for x in (0.3, 0.6, 0.9)]
        assert gains[0] < gains[1] < gains[2]


class TestOffloadSweep:
    def test_rows_and_monotonicity(self):
        rows = offload_sweep(np.linspace(0.1, 0.9, 9), m1=0.8, m2=0.8)
        speedups = [row["speedup"] for row in rows]
        assert len(rows) == 9
        assert speedups == sorted(speedups)

    def test_thirty_percent_already_pays_off(self):
        """Sec. II.C cites that >= 30% of a database app can be
        accelerated; at realistic (high) miss rates that already wins."""
        (row,) = offload_sweep([0.3], m1=0.8, m2=0.8)
        assert row["speedup"] > 1.0
        assert row["energy_gain"] > 1.0


class TestBankedOffload:
    def test_k1_reproduces_the_serial_row(self):
        from repro.arch import banked_offload_rows

        (serial,) = banked_offload_rows(bank_counts=(1,))
        (row,) = offload_sweep([0.6], m1=0.8, m2=0.8)
        assert serial["speedup"] == row["speedup"]
        assert serial["energy_gain"] == row["energy_gain"]
        assert serial["cim_delay_ns"] == row["cim_delay_ns"]
        assert serial["cim_energy_pj"] == row["cim_energy_pj"]

    def test_speedup_monotone_in_banks(self):
        from repro.arch import banked_offload_rows

        rows = banked_offload_rows(bank_counts=(1, 4, 16, 64))
        speedups = [row["speedup"] for row in rows]
        assert speedups == sorted(speedups)
        assert speedups[-1] > speedups[0]
        # static energy charged over a shorter delay: gain also grows
        gains = [row["energy_gain"] for row in rows]
        assert gains == sorted(gains)

    def test_validation(self):
        from repro.arch import banked_offload_rows

        for bad in (0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="bank counts"):
                banked_offload_rows(bank_counts=(bad,))
