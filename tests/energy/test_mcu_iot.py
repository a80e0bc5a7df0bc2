"""Tests of the MCU model and the Fig. 7(b) comparison."""

import pytest

from repro.energy import (
    CimInferenceCost,
    CortexM0Model,
    iot_batch_rows,
    iot_energy_rows,
)


class TestCortexM0:
    def test_operating_points(self):
        assert CortexM0Model.sub_threshold().pj_per_cycle == pytest.approx(10.0)
        assert CortexM0Model.nominal().pj_per_cycle == pytest.approx(100.0)

    def test_fc_layer_cycles(self):
        model = CortexM0Model(pj_per_cycle=10.0, cycles_per_mac=5.0,
                              overhead_cycles_per_neuron=20.0)
        assert model.fc_layer_cycles(32, 32) == 32 * 32 * 5 + 32 * 20

    def test_energy_scales_quadratically(self):
        model = CortexM0Model.sub_threshold()
        small = model.fc_layer_energy_j(64, 64)
        big = model.fc_layer_energy_j(128, 128)
        assert big / small == pytest.approx(4.0, rel=0.05)

    def test_network_energy_sums_layers(self):
        model = CortexM0Model.nominal()
        chain = model.network_energy_j([32, 64, 8])
        manual = model.fc_layer_energy_j(32, 64) + model.fc_layer_energy_j(64, 8)
        assert chain == pytest.approx(manual)

    def test_rejects_short_chain(self):
        with pytest.raises(ValueError):
            CortexM0Model.nominal().network_energy_j([32])

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            CortexM0Model.nominal().fc_layer_cycles(0, 5)


class TestCimInferenceCost:
    @pytest.mark.parametrize(
        "build, match",
        [
            (
                lambda: CortexM0Model(
                    pj_per_cycle=10.0, overhead_cycles_per_neuron=-1.0
                ),
                "overhead_cycles_per_neuron",
            ),
            (lambda: CimInferenceCost(dac_energy_fraction=-0.1), "dac_energy_fraction"),
            (lambda: CimInferenceCost().fc_layer_energy_j(0, 4), "layer dimensions"),
            (lambda: CimInferenceCost().network_energy_j([8]), "input and an output"),
        ],
        ids=["m0_overhead", "dac_fraction", "layer_dims", "short_chain"],
    )
    def test_rejects_bad_values(self, build, match):
        with pytest.raises(ValueError, match=match):
            build()

    def test_cell_read_energy_20fj(self):
        assert CimInferenceCost().cell_read_energy_j == pytest.approx(20e-15)

    def test_layer_energy_components(self):
        cost = CimInferenceCost()
        energy = cost.fc_layer_energy_j(32, 32)
        devices = 32 * 32 * cost.cell_read_energy_j
        assert energy > devices  # converters add on top

    def test_network_energy(self):
        cost = CimInferenceCost()
        chain = cost.network_energy_j([16, 16, 4])
        manual = cost.fc_layer_energy_j(16, 16) + cost.fc_layer_energy_j(16, 4)
        assert chain == pytest.approx(manual)


class TestFig7bSeries:
    def test_row_structure(self):
        rows = iot_energy_rows()
        assert [int(r["dimension"]) for r in rows] == [32, 64, 128, 256, 512]

    def test_ordering_cim_wins_everywhere(self):
        """Fig. 7b: the CIM series sits orders of magnitude below both
        M0 operating points at every dimension."""
        for row in iot_energy_rows():
            assert row["cim_4bit_adc_j"] < row["sub_vth_m0_j"] < row["vnom_m0_j"]

    def test_m0_points_are_decade_apart(self):
        for row in iot_energy_rows():
            assert row["vnom_m0_j"] / row["sub_vth_m0_j"] == pytest.approx(10.0)

    def test_axis_range_matches_figure(self):
        """Fig. 7b spans ~1e-11 .. ~1e-3 J across N = 32..512."""
        rows = iot_energy_rows()
        assert rows[0]["cim_4bit_adc_j"] < 1e-10
        assert rows[-1]["vnom_m0_j"] > 1e-5

    def test_cim_gain_three_orders_at_large_n(self):
        row = iot_energy_rows()[-1]
        gain = row["sub_vth_m0_j"] / row["cim_4bit_adc_j"]
        assert gain > 1e3


class TestBatchedInference:
    def test_batch_energy_linear_and_schedule_invariant(self):
        cost = CimInferenceCost()
        single = cost.fc_layer_energy_j(64, 64)
        assert cost.fc_layer_batch_energy_j(64, 64, 8) == pytest.approx(8 * single)
        assert cost.fc_layer_batch_energy_j(64, 64, 8, "parallel") == pytest.approx(
            cost.fc_layer_batch_energy_j(64, 64, 8, "serial")
        )

    def test_batch_latency_serial_linear_parallel_flat(self):
        cost = CimInferenceCost()
        assert cost.fc_layer_batch_latency_s(16, "serial") == pytest.approx(
            16 * cost.read_pulse_s
        )
        assert cost.fc_layer_batch_latency_s(16, "parallel") == pytest.approx(
            cost.read_pulse_s
        )

    def test_batch_validation(self):
        cost = CimInferenceCost()
        with pytest.raises(ValueError):
            cost.fc_layer_batch_energy_j(8, 8, 0)
        with pytest.raises(ValueError):
            cost.fc_layer_batch_latency_s(4, "warp")

    def test_batch_rows_structure_and_gain_flat(self):
        """The MCU has no batch amortization, so the per-sample energy
        gain is batch-invariant while parallel latency stays flat."""
        rows = iot_batch_rows(dimension=128, batches=(1, 8, 64))
        assert [int(r["batch"]) for r in rows] == [1, 8, 64]
        gains = [r["energy_gain"] for r in rows]
        assert gains[0] == pytest.approx(gains[1]) == pytest.approx(gains[2])
        assert rows[-1]["cim_serial_latency_s"] == pytest.approx(
            64 * rows[0]["cim_serial_latency_s"]
        )
        assert rows[-1]["cim_parallel_latency_s"] == pytest.approx(
            rows[0]["cim_parallel_latency_s"]
        )

    def test_batch_rows_validation(self):
        with pytest.raises(ValueError):
            iot_batch_rows(dimension=0)
