"""Tests of the neighbourhood access-traffic model."""

import pytest

from repro.imaging import NeighborhoodAccessModel


class TestConventional:
    def test_access_count(self):
        model = NeighborhoodAccessModel()
        report = model.conventional(10, 10, radius=3)
        assert report.accesses == 100 * 49

    def test_energy_scales_with_accesses(self):
        model = NeighborhoodAccessModel()
        small = model.conventional(10, 10, 3)
        large = model.conventional(20, 10, 3)
        assert large.energy_j == pytest.approx(2 * small.energy_j)

    def test_per_pixel(self):
        model = NeighborhoodAccessModel()
        report = model.conventional(8, 8, 3)
        accesses, _ = report.per_pixel(64)
        assert accesses == 49


class TestCim:
    def test_activation_count_is_rows_per_window(self):
        model = NeighborhoodAccessModel()
        report = model.cim(10, 10, radius=3)
        assert report.accesses == 100 * 7

    def test_cim_beats_conventional_energy(self):
        """Sec. III.A: the modified address decoder gathers a window in
        (2r+1) activations instead of (2r+1)^2 word accesses."""
        model = NeighborhoodAccessModel()
        for radius in (3, 4, 5):
            conv = model.conventional(64, 64, radius)
            cim = model.cim(64, 64, radius)
            assert cim.energy_j < conv.energy_j

    def test_gain_grows_with_window(self):
        model = NeighborhoodAccessModel()
        rows = model.comparison_rows(64, 64, radii=(3, 4, 5))
        gains = [row["energy_gain"] for row in rows]
        assert gains == sorted(gains)
        assert [row["window"] for row in rows] == [7, 9, 11]


class TestValidation:
    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            NeighborhoodAccessModel().conventional(8, 8, 0)

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            NeighborhoodAccessModel().cim(0, 8, 3)

    def test_rejects_bad_pixel_count(self):
        report = NeighborhoodAccessModel().conventional(8, 8, 3)
        with pytest.raises(ValueError):
            report.per_pixel(0)

    def test_rejects_bad_model_params(self):
        with pytest.raises(ValueError):
            NeighborhoodAccessModel(bits_per_pixel=0)
        with pytest.raises(ValueError):
            NeighborhoodAccessModel(sram_access_energy_pj=0.0)

    def test_rejects_negative_overhead_energies(self):
        """issue_overhead_pj / cim_bit_sense_energy_pj may be zero but
        never negative (a negative term silently inflates the gain)."""
        with pytest.raises(ValueError, match="issue_overhead_pj"):
            NeighborhoodAccessModel(issue_overhead_pj=-1.0)
        with pytest.raises(ValueError, match="cim_bit_sense_energy_pj"):
            NeighborhoodAccessModel(cim_bit_sense_energy_pj=-0.01)

    def test_zero_overhead_energies_allowed(self):
        model = NeighborhoodAccessModel(
            issue_overhead_pj=0.0, cim_bit_sense_energy_pj=0.0
        )
        assert model.conventional(8, 8, 3).energy_j > 0
        assert model.cim(8, 8, 3).energy_j > 0


class TestCimBurst:
    def test_burst_one_reproduces_per_pixel_exactly(self):
        """The row-burst path at burst size 1 is the per-pixel decoder,
        joule for joule and access for access."""
        model = NeighborhoodAccessModel()
        for radius in (1, 3, 5):
            per_pixel = model.cim(10, 13, radius)
            burst = model.cim_burst(10, 13, radius, burst=1)
            assert burst.accesses == per_pixel.accesses
            assert burst.energy_j == per_pixel.energy_j
            assert burst.time_s == per_pixel.time_s

    def test_activations_amortize_over_the_burst(self):
        model = NeighborhoodAccessModel()
        report = model.cim_burst(10, 16, radius=3, burst=4)
        # 4 groups per image row, 7 window rows per group
        assert report.accesses == 10 * 4 * 7

    def test_ragged_final_burst(self):
        """Width not divisible by the burst: the tail group is narrower
        and senses fewer union pixels."""
        model = NeighborhoodAccessModel()
        report = model.cim_burst(1, 10, radius=1, burst=4)
        # groups of widths 4, 4, 2 -> 3 activation groups x 3 window rows
        assert report.accesses == 3 * 3
        # union rows span (2r + width_g): 6 + 6 + 4 pixels per window row
        expected_bits = 3 * (6 + 6 + 4) * model.bits_per_pixel
        expected = (
            report.accesses * model.cim_activation_energy_pj
            + expected_bits * model.cim_bit_sense_energy_pj
        ) * 1e-12
        assert report.energy_j == pytest.approx(expected)

    def test_energy_monotone_in_burst_size(self):
        model = NeighborhoodAccessModel()
        energies = [
            model.cim_burst(32, 32, radius=4, burst=b).energy_j
            for b in (1, 2, 4, 8, 32)
        ]
        assert energies == sorted(energies, reverse=True)
        assert energies[-1] < energies[0]

    def test_burst_beats_per_pixel_and_conventional(self):
        model = NeighborhoodAccessModel()
        conv = model.conventional(64, 64, 4)
        per_pixel = model.cim(64, 64, 4)
        burst = model.cim_burst(64, 64, 4, burst=8)
        assert burst.energy_j < per_pixel.energy_j < conv.energy_j
        assert burst.time_s < per_pixel.time_s

    def test_validation(self):
        model = NeighborhoodAccessModel()
        for bad in (0, 2.5, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="burst"):
                model.cim_burst(8, 8, 3, burst=bad)
        with pytest.raises(ValueError):
            model.cim_burst(0, 8, 3, burst=2)
