"""Tests of the crossbar cost model against the Sec. III.B.3 anchors."""

import numpy as np
import pytest

from repro.crossbar import CrossbarOperator, FleetMaintenance, ShardedOperator
from repro.energy import AdcModel, CrossbarCostModel, FpgaMvmDesign
from repro.energy.crossbar_cost import REQUIRED_STATS_KEYS
from repro.serving import FleetServer, VirtualClock


class TestPaperAnchors:
    def test_device_power_210mw(self):
        """1024^2 devices at 1 uA / 0.2 V -> ~0.21 W."""
        assert CrossbarCostModel().device_power_w == pytest.approx(0.21, rel=0.01)

    def test_adc_power_12_3mw(self):
        """"12 mW/GSps, thus 12.3 mW for 1024 reads per microsecond"."""
        assert CrossbarCostModel().adc_power_w == pytest.approx(12.3e-3, rel=0.01)

    def test_total_power_222mw(self):
        assert CrossbarCostModel().total_power_w == pytest.approx(0.222, rel=0.01)

    def test_energy_per_mvm_222nj(self):
        assert CrossbarCostModel().mvm_energy_j == pytest.approx(222e-9, rel=0.01)

    def test_area_0_332mm2(self):
        """25F^2 cells at F = 90 nm plus 8 ADCs of 50x300 um."""
        assert CrossbarCostModel().total_area_mm2 == pytest.approx(0.332, rel=0.01)

    def test_120x_power_advantage_over_fpga(self):
        advantage = CrossbarCostModel().power_advantage_over(
            FpgaMvmDesign().dynamic_power_w
        )
        assert advantage == pytest.approx(120.0, rel=0.02)

    def test_80x_energy_advantage_over_fpga(self):
        advantage = CrossbarCostModel().energy_advantage_over(
            FpgaMvmDesign().mvm_energy_j()
        )
        assert advantage == pytest.approx(80.0, rel=0.02)


class TestScaling:
    def test_power_scales_with_array(self):
        small = CrossbarCostModel(rows=256, cols=256)
        assert small.device_power_w == pytest.approx(0.21 / 16, rel=0.01)

    def test_energy_for_reads(self):
        model = CrossbarCostModel()
        assert model.energy_for_reads_j(10) == pytest.approx(10 * model.mvm_energy_j)
        with pytest.raises(ValueError):
            model.energy_for_reads_j(-1)

    def test_comparisons_reject_nonpositive(self):
        with pytest.raises(ValueError):
            CrossbarCostModel().power_advantage_over(0.0)

    @pytest.mark.parametrize("field", ["rows", "cols", "n_adcs"])
    def test_rejects_empty_array(self, field):
        with pytest.raises(ValueError, match="rows, cols and n_adcs"):
            CrossbarCostModel(**{field: 0})


class TestBatchSchedules:
    def test_serial_b1_reproduces_the_mvm_anchor(self):
        """The serial schedule at B = 1 is exactly today's 222 nJ MVM."""
        model = CrossbarCostModel()
        assert model.matmat_energy_j(1, "serial") == pytest.approx(model.mvm_energy_j)
        assert model.matmat_energy_j(1, "serial") == pytest.approx(222e-9, rel=0.01)
        assert model.matmat_latency_s(1, "serial") == model.cycle_time_s

    @pytest.mark.parametrize("schedule", ["serial", "parallel"])
    def test_energy_monotone_in_batch(self, schedule):
        model = CrossbarCostModel()
        energies = [model.matmat_energy_j(b, schedule) for b in (1, 2, 8, 64)]
        assert energies == sorted(energies)
        assert energies[0] < energies[-1]

    def test_schedules_spend_equal_energy(self):
        """Walden conversion energy is rate-independent, so the two
        schedules trade latency/area, not energy."""
        model = CrossbarCostModel()
        for batch in (1, 8, 64):
            assert model.matmat_energy_j(batch, "serial") == pytest.approx(
                model.matmat_energy_j(batch, "parallel")
            )

    def test_serial_latency_linear_parallel_flat(self):
        model = CrossbarCostModel()
        assert model.matmat_latency_s(64, "serial") == pytest.approx(
            64 * model.cycle_time_s
        )
        assert model.matmat_latency_s(64, "parallel") == pytest.approx(
            model.cycle_time_s
        )

    def test_parallel_banks_scale_area_and_peak_power(self):
        model = CrossbarCostModel()
        serial = model.batch_readout(16, "serial")
        parallel = model.batch_readout(16, "parallel")
        assert serial.adc_banks == 1
        assert serial.array_copies == 1
        assert parallel.adc_banks == 16
        assert parallel.array_copies == 16
        assert parallel.adc_area_m2 == pytest.approx(16 * serial.adc_area_m2)
        # concurrency needs replicated arrays, not just converter banks
        assert parallel.array_area_m2 == pytest.approx(16 * model.array_area_m2)
        assert serial.total_area_m2 == pytest.approx(model.total_area_m2)
        assert parallel.total_area_m2 == pytest.approx(16 * model.total_area_m2)
        assert serial.peak_power_w == pytest.approx(model.total_power_w)
        assert parallel.peak_power_w == pytest.approx(16 * model.total_power_w)

    def test_report_consistency(self):
        report = CrossbarCostModel().batch_readout(8, "serial")
        assert report.energy_j == pytest.approx(
            report.device_energy_j + report.adc_energy_j
        )
        assert report.energy_per_mvm_j == pytest.approx(report.energy_j / 8)
        assert report.throughput_mvm_per_s == pytest.approx(8 / report.latency_s)

    def test_rejects_bad_batch_and_schedule(self):
        model = CrossbarCostModel()
        with pytest.raises(ValueError):
            model.matmat_energy_j(0)
        with pytest.raises(ValueError):
            model.matmat_latency_s(4, "simultaneous")
        with pytest.raises(ValueError):
            model.batch_readout(-1)
        with pytest.raises(ValueError):
            model.batch_readout(2.5)  # fractional converter banks

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_rejects_non_finite_batch(self, bad):
        model = CrossbarCostModel()
        with pytest.raises(ValueError, match="batch"):
            model.batch_readout(bad)
        with pytest.raises(ValueError, match="batch"):
            model.matmat_energy_j(bad)

    def test_integral_float_batch_accepted(self):
        report = CrossbarCostModel().batch_readout(4.0, "parallel")
        assert report.adc_banks == 4 and isinstance(report.adc_banks, int)

    def test_rejects_bad_new_fields(self):
        with pytest.raises(ValueError):
            CrossbarCostModel(devices_per_cell=0)
        with pytest.raises(ValueError):
            CrossbarCostModel(dac_energy_fraction=-0.1)

    def test_differential_pairs_double_device_power(self):
        single = CrossbarCostModel(rows=64, cols=64)
        differential = CrossbarCostModel(rows=64, cols=64, devices_per_cell=2)
        assert differential.device_power_w == pytest.approx(2 * single.device_power_w)


class TestCounterDrivenEnergy:
    def test_conversion_energy_charges_per_conversion(self):
        model = CrossbarCostModel()
        per_adc = model.adc.energy_per_conversion_j
        assert model.conversion_energy_j(0, 100) == pytest.approx(100 * per_adc)
        assert model.conversion_energy_j(100, 0) == pytest.approx(
            100 * model.dac_energy_fraction * per_adc
        )
        with pytest.raises(ValueError):
            model.conversion_energy_j(-1, 0)

    def test_energy_from_stats_uses_real_counters(self):
        """A batched matmat is priced from the conversions the operator
        actually performed (zero columns skipped), not assumed cycles."""
        rng = np.random.default_rng(0)
        matrix = rng.standard_normal((12, 20))
        operator = CrossbarOperator(matrix, seed=1)
        x_block = rng.standard_normal((20, 5))
        x_block[:, 2] = 0.0  # skipped column: converters never fire
        operator.matmat(x_block)

        model = CrossbarCostModel(rows=20, cols=12)
        report = model.energy_from_stats(operator.stats)
        per_adc = model.adc.energy_per_conversion_j
        assert operator.stats["adc_conversions"] == 4 * 12
        assert report["adc_energy_j"] == pytest.approx(4 * 12 * per_adc)
        assert report["dac_energy_j"] == pytest.approx(
            4 * 20 * model.dac_energy_fraction * per_adc
        )
        # the skipped zero column dissipated nothing: 4 live of 5 reads
        assert report["n_reads"] == 5
        assert report["n_live_reads"] == 4
        assert report["device_energy_j"] == pytest.approx(
            4 * model.device_read_energy_j
        )
        assert report["total_energy_j"] == pytest.approx(
            report["device_energy_j"]
            + report["adc_energy_j"]
            + report["dac_energy_j"]
        )

    def test_energy_from_stats_falls_back_without_live_counters(self):
        model = CrossbarCostModel()
        report = model.energy_from_stats(
            {
                "n_matvec": 3,
                "n_rmatvec": 2,
                "dac_conversions": 0,
                "adc_conversions": 0,
            }
        )
        assert report["n_live_reads"] == 5
        assert report["device_energy_j"] == pytest.approx(
            5 * model.device_read_energy_j
        )

    @pytest.mark.parametrize("missing", REQUIRED_STATS_KEYS)
    def test_energy_from_stats_requires_each_key(self, missing):
        stats = {key: 0 for key in REQUIRED_STATS_KEYS if key != missing}
        with pytest.raises(KeyError, match=missing):
            CrossbarCostModel().energy_from_stats(stats)

    def test_fresh_ledgers_carry_exactly_the_required_keys(self, small_matrix):
        fleet = ShardedOperator.from_matrix(
            small_matrix, n_shards=2, batch_window=4, seed=1
        )
        policy = FleetMaintenance(
            fleet, recalibrate_after_s=1.0, attach=False, seed=2
        )
        server = FleetServer(fleet, VirtualClock())
        zero = {key: 0 for key in REQUIRED_STATS_KEYS}
        assert policy.stats == zero
        assert server.tenant_stats("anyone") == zero
        assert CrossbarCostModel().energy_from_stats(zero)["total_energy_j"] == 0.0

    def test_energy_from_stats_validates(self):
        model = CrossbarCostModel()
        with pytest.raises(KeyError):
            model.energy_from_stats({"n_matvec": 1})
        with pytest.raises(ValueError):
            model.energy_from_stats(
                {
                    "n_matvec": -1,
                    "n_rmatvec": 0,
                    "dac_conversions": 0,
                    "adc_conversions": 0,
                }
            )


class TestAdcModel:
    def test_reference_energy_12pj(self):
        assert AdcModel().energy_per_conversion_j == pytest.approx(12e-12)

    def test_walden_scaling(self):
        assert AdcModel(bits=4).energy_per_conversion_j == pytest.approx(
            12e-12 / 16
        )
        assert AdcModel(bits=10).energy_per_conversion_j == pytest.approx(
            12e-12 * 4
        )

    def test_power_at_gsps(self):
        assert AdcModel().power_w(1e9) == pytest.approx(12e-3)

    def test_area(self):
        assert AdcModel().area_m2 == pytest.approx(50e-6 * 300e-6)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            AdcModel().power_w(0.0)

    @pytest.mark.parametrize("field", ["bits", "reference_bits"])
    def test_rejects_zero_bit_resolution(self, field):
        with pytest.raises(ValueError, match="resolutions"):
            AdcModel(**{field: 0})


class TestBankedReadout:
    """The banks=k continuum between the serial/parallel endpoints."""

    def test_latency_is_ceil_b_over_k_cycles(self):
        model = CrossbarCostModel()
        assert model.matmat_latency_s(64, banks=16) == pytest.approx(
            4 * model.cycle_time_s
        )
        assert model.matmat_latency_s(7, banks=2) == pytest.approx(
            4 * model.cycle_time_s  # ragged: ceil(7 / 2)
        )
        assert model.readout_mux_depth(64, banks=16) == 4
        assert model.readout_mux_depth(7, banks=2) == 4

    def test_area_and_peak_power_scale_with_banks(self):
        model = CrossbarCostModel()
        report = model.batch_readout(64, banks=8)
        assert report.adc_banks == 8 and report.array_copies == 8
        assert report.adc_area_m2 == pytest.approx(8 * model.adc_area_m2)
        assert report.array_area_m2 == pytest.approx(8 * model.array_area_m2)
        assert report.peak_power_w == pytest.approx(8 * model.total_power_w)
        assert report.schedule == "banked"

    def test_energy_is_bank_invariant_without_mux_overhead(self):
        model = CrossbarCostModel()
        energies = {
            k: model.matmat_energy_j(64, banks=k) for k in (1, 4, 16, 64)
        }
        assert len(set(energies.values())) == 1

    def test_mux_tree_charges_per_level(self):
        model = CrossbarCostModel(
            mux_energy_per_level_fraction=0.05, mux_area_per_level_fraction=0.10
        )
        report = model.batch_readout(64, banks=16)  # depth 4 -> 3 levels
        per_vector_adc = model.adc_power_w * model.cycle_time_s
        assert report.mux_depth == 4
        assert report.mux_energy_j == pytest.approx(64 * 3 * 0.05 * per_vector_adc)
        assert report.mux_area_m2 == pytest.approx(16 * 3 * 0.10 * model.adc_area_m2)
        assert report.energy_j == pytest.approx(
            report.device_energy_j + report.adc_energy_j + report.mux_energy_j
        )
        assert report.total_area_m2 == pytest.approx(
            report.array_area_m2 + report.adc_area_m2 + report.mux_area_m2
        )
        # fully parallel banks have depth 1: no mux, even when charged
        assert model.batch_readout(64, banks=64).mux_energy_j == 0.0

    def test_mux_overhead_interpolates_between_endpoints(self):
        """With a charged mux, deeper time-multiplexing costs more
        energy — monotone in depth."""
        model = CrossbarCostModel(mux_energy_per_level_fraction=0.05)
        energies = [model.matmat_energy_j(64, banks=k) for k in (64, 16, 4, 1)]
        assert energies == sorted(energies)

    def test_converter_banks_and_per_vector_latency(self):
        model = CrossbarCostModel()
        assert model.converter_banks(64) == 1
        assert model.converter_banks(64, "parallel") == 64
        assert model.converter_banks(64, banks=16) == 16
        report = model.batch_readout(64, banks=16)
        assert report.latency_per_mvm_s == pytest.approx(report.latency_s / 64)

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_rejects_non_finite_banks(self, bad):
        with pytest.raises(ValueError, match="banks"):
            CrossbarCostModel().batch_readout(8, banks=bad)

    def test_validation(self):
        model = CrossbarCostModel()
        with pytest.raises(ValueError, match="banks"):
            model.batch_readout(8, banks=0)
        with pytest.raises(ValueError, match="banks"):
            model.batch_readout(8, banks=9)
        with pytest.raises(ValueError, match="banks"):
            model.batch_readout(8, banks=2.5)
        with pytest.raises(ValueError, match="either schedule or banks"):
            model.batch_readout(8, "serial", banks=2)
        with pytest.raises(ValueError):
            CrossbarCostModel(mux_energy_per_level_fraction=-0.1)
        with pytest.raises(ValueError):
            CrossbarCostModel(mux_area_per_level_fraction=-0.1)


class TestShardedReadoutRows:
    def test_single_shard_endpoints_reproduce_schedules(self):
        from repro.energy import sharded_readout_rows

        model = CrossbarCostModel()
        rows = sharded_readout_rows(64, shard_counts=(1,), bank_counts=(1, 64),
                                    model=model)
        serial = model.batch_readout(64, "serial")
        parallel = model.batch_readout(64, "parallel")
        assert rows[0]["latency_s"] == serial.latency_s
        assert rows[0]["energy_j"] == serial.energy_j
        assert rows[0]["total_area_m2"] == serial.total_area_m2
        assert rows[1]["latency_s"] == parallel.latency_s
        assert rows[1]["energy_j"] == parallel.energy_j

    def test_shards_cut_latency_and_multiply_silicon(self):
        from repro.energy import sharded_readout_rows

        rows = sharded_readout_rows(64, shard_counts=(1, 2, 4),
                                    bank_counts=(1,))
        latencies = [row["latency_s"] for row in rows]
        areas = [row["total_area_m2"] for row in rows]
        energies = [row["energy_j"] for row in rows]
        assert latencies == sorted(latencies, reverse=True)
        assert areas == sorted(areas)
        # energy is schedule-invariant: the same 64 vectors are read
        assert energies[0] == pytest.approx(energies[1]) == pytest.approx(
            energies[2]
        )

    def test_ragged_split_and_bank_capping(self):
        from repro.energy import sharded_readout_rows

        model = CrossbarCostModel()
        (row,) = sharded_readout_rows(7, shard_counts=(3,), bank_counts=(4,),
                                      model=model)
        # shares are 3, 2, 2; banks capped at each share
        assert row["latency_cycles"] == 1.0
        assert row["energy_j"] == pytest.approx(7 * model.mvm_energy_j)
        # the row reports both the requested and the engaged bank count
        assert row["banks"] == 4.0
        assert row["banks_effective"] == 3.0

    def test_idle_shards_are_reported_not_priced(self):
        """More shards than batch columns: the surplus shards sit idle;
        the row says so and prices only the engaged arrays."""
        from repro.energy import sharded_readout_rows

        model = CrossbarCostModel()
        (row,) = sharded_readout_rows(2, shard_counts=(4,), bank_counts=(1,),
                                      model=model)
        assert row["shards"] == 4.0
        assert row["shards_active"] == 2.0
        # two engaged single-bank shards' silicon, not four
        assert row["total_area_m2"] == pytest.approx(2 * model.total_area_m2)

    def test_validation(self):
        from repro.energy import sharded_readout_rows

        for bad in (0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="batch"):
                sharded_readout_rows(bad)
            with pytest.raises(ValueError, match="shard counts"):
                sharded_readout_rows(8, shard_counts=(bad,))
            with pytest.raises(ValueError, match="bank counts"):
                sharded_readout_rows(8, bank_counts=(bad,))

    def test_window_aware_shares_follow_round_robin_dispatch(self):
        """With batch_window set, the sweep prices the scheduler's real
        round-robin window assignment, not an idealized even split."""
        from repro.energy import sharded_readout_rows

        model = CrossbarCostModel()
        # batch 8, window 3 -> widths [3, 3, 2]; 2 shards get 5 and 3
        (row,) = sharded_readout_rows(
            8, shard_counts=(2,), bank_counts=(1,), model=model, batch_window=3
        )
        assert row["latency_cycles"] == 5.0  # slowest shard, not ceil(8/2)
        (even,) = sharded_readout_rows(
            8, shard_counts=(2,), bank_counts=(1,), model=model
        )
        assert even["latency_cycles"] == 4.0
        for bad in (0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="batch_window"):
                sharded_readout_rows(8, batch_window=bad)


class TestMaintenanceBilling:
    """Counter-driven calibration/programming pricing: conservative at
    zero (bit-for-bit), monotone in every counter."""

    BASE = {
        "n_matvec": 10,
        "n_rmatvec": 8,
        "n_live_matvec": 9,
        "n_live_rmatvec": 8,
        "dac_conversions": 123,
        "adc_conversions": 456,
    }

    def test_zero_counters_reproduce_legacy_totals_bitwise(self):
        """A stats dict without the maintenance keys and one carrying
        them at zero must price identically — and exactly as the
        pre-maintenance formula did."""
        model = CrossbarCostModel(rows=32, cols=16, devices_per_cell=2)
        legacy = model.energy_from_stats(self.BASE)
        zeroed = model.energy_from_stats(
            {**self.BASE, "n_calibration_probes": 0, "n_program_pulses": 0}
        )
        assert legacy == zeroed
        assert legacy["calibration_energy_j"] == 0.0
        assert legacy["programming_energy_j"] == 0.0
        assert legacy["maintenance_energy_j"] == 0.0
        per_adc = model.adc.energy_per_conversion_j
        expected = (
            17 * model.device_read_energy_j
            + 456 * per_adc
            + 123 * model.dac_energy_fraction * per_adc
        )
        assert legacy["total_energy_j"] == expected  # bit-for-bit

    @pytest.mark.parametrize(
        "key",
        [
            "n_live_matvec",
            "n_live_rmatvec",
            "dac_conversions",
            "adc_conversions",
            "n_calibration_probes",
            "n_program_pulses",
        ],
    )
    @pytest.mark.parametrize("bump", [1, 7, 1000])
    def test_total_energy_monotone_in_every_counter(self, key, bump):
        model = CrossbarCostModel(rows=32, cols=16, devices_per_cell=2)
        base = {**self.BASE, "n_calibration_probes": 3, "n_program_pulses": 40}
        bumped = dict(base)
        bumped[key] = bumped.get(key, 0) + bump
        if key == "n_live_matvec":
            bumped["n_matvec"] = bumped["n_matvec"] + bump  # keep live <= total
        if key == "n_live_rmatvec":
            bumped["n_rmatvec"] = bumped["n_rmatvec"] + bump
        before = model.energy_from_stats(base)["total_energy_j"]
        after = model.energy_from_stats(bumped)["total_energy_j"]
        assert after > before

    def test_maintenance_terms_price_per_event(self):
        model = CrossbarCostModel()
        priced = model.energy_from_stats(
            {**self.BASE, "n_calibration_probes": 5, "n_program_pulses": 1000}
        )
        assert priced["calibration_energy_j"] == pytest.approx(
            5 * model.calibration_probe_energy_j
        )
        assert priced["programming_energy_j"] == pytest.approx(
            1000 * model.program_pulse_energy_j
        )
        assert priced["maintenance_energy_j"] == pytest.approx(
            priced["calibration_energy_j"] + priced["programming_energy_j"]
        )
        assert priced["total_energy_j"] == pytest.approx(
            priced["device_energy_j"]
            + priced["adc_energy_j"]
            + priced["dac_energy_j"]
            + priced["maintenance_energy_j"]
        )

    def test_rejects_negative_maintenance_fields_and_counters(self):
        with pytest.raises(ValueError, match="program_pulse_energy_j"):
            CrossbarCostModel(program_pulse_energy_j=-1e-12)
        with pytest.raises(ValueError, match="calibration_probe_energy_j"):
            CrossbarCostModel(calibration_probe_energy_j=-1e-9)
        with pytest.raises(ValueError, match="n_program_pulses"):
            CrossbarCostModel().energy_from_stats(
                {**self.BASE, "n_program_pulses": -1}
            )

    def test_operator_maintenance_counters_price_through(self):
        """A real calibrate + reprogram session bills probes and pulses
        end-to-end through the operator's own stats."""
        rng = np.random.default_rng(0)
        operator = CrossbarOperator(rng.standard_normal((8, 10)), seed=1)
        operator.advance_time(1e6)
        operator.calibrate(n_probes=4, seed=2)
        operator.reprogram()
        model = CrossbarCostModel(rows=8, cols=10, devices_per_cell=2)
        priced = model.energy_from_stats(operator.stats)
        assert priced["calibration_energy_j"] == pytest.approx(
            4 * model.calibration_probe_energy_j
        )
        # 8x10 coefficients, differential pairs, 5 verify rounds
        assert operator.stats["n_program_pulses"] == 2 * 80 * 5
        assert priced["programming_energy_j"] == pytest.approx(
            800 * model.program_pulse_energy_j
        )


class TestScheduleAwarePricing:
    """``sharded_readout_rows(loads=...)``: price the dispatch that
    actually happened."""

    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("batch", [4, 7, 8, 12])
    @pytest.mark.parametrize("banks", [1, 2, 4])
    def test_balanced_loads_equal_even_split_grid(self, shards, batch, banks):
        """When the real dispatch happens to be balanced, pricing from
        loads is bit-for-bit the even-split price."""
        from repro.energy import sharded_readout_rows

        model = CrossbarCostModel(rows=32, cols=16)
        base, extra = divmod(batch, shards)
        loads = tuple(
            base + (1 if i < extra else 0) for i in range(shards)
        )
        from_loads = sharded_readout_rows(
            batch, bank_counts=(banks,), model=model, loads=loads
        )
        even = sharded_readout_rows(
            batch, shard_counts=(shards,), bank_counts=(banks,), model=model
        )
        assert from_loads == even

    @pytest.mark.parametrize(
        "shards,window,batch", [(2, 3, 8), (3, 5, 4), (4, 2, 7), (2, 4, 8)]
    )
    def test_real_fleet_loads_reproduce_window_pricing(
        self, shards, window, batch, rng
    ):
        """An all-live batch dispatched round-robin produces loads that
        price exactly like the window-aware hypothetical — the two
        views of the same schedule agree, ragged windows included."""
        from repro.crossbar import ShardedOperator
        from repro.energy import sharded_readout_rows

        matrix = rng.standard_normal((6, 9))
        fleet = ShardedOperator.from_matrix(
            matrix, n_shards=shards, batch_window=window, backend="exact"
        )
        fleet.matmat(np.ones((9, batch)))
        model = CrossbarCostModel(rows=9, cols=6)
        from_loads = sharded_readout_rows(
            batch, bank_counts=(1, 2), model=model, loads=fleet.loads
        )
        hypothetical = sharded_readout_rows(
            batch,
            shard_counts=(shards,),
            bank_counts=(1, 2),
            model=model,
            batch_window=window,
        )
        assert from_loads == hypothetical

    def test_skewed_loads_price_the_true_straggler(self):
        """A greedy dispatch that landed 6/2 prices a 6-cycle serial
        fleet readout, where the even split would claim 4."""
        from repro.energy import sharded_readout_rows

        model = CrossbarCostModel()
        (row,) = sharded_readout_rows(
            8, bank_counts=(1,), model=model, loads=(6, 2)
        )
        assert row["latency_cycles"] == 6.0
        assert row["energy_j"] == pytest.approx(8 * model.mvm_energy_j)

    def test_idle_shards_in_loads_are_reported_not_priced(self):
        from repro.energy import sharded_readout_rows

        model = CrossbarCostModel()
        (row,) = sharded_readout_rows(
            8, bank_counts=(1,), model=model, loads=(5, 0, 3)
        )
        assert row["shards"] == 3.0
        assert row["shards_active"] == 2.0
        assert row["total_area_m2"] == pytest.approx(2 * model.total_area_m2)

    def test_dead_columns_make_loads_cheaper_than_even_split(self):
        """loads counts *active* columns: a batch padded with dead
        columns prices below the all-live hypothetical."""
        from repro.energy import sharded_readout_rows

        model = CrossbarCostModel()
        (from_loads,) = sharded_readout_rows(
            8, bank_counts=(1,), model=model, loads=(3, 3)
        )
        (even,) = sharded_readout_rows(
            8, shard_counts=(2,), bank_counts=(1,), model=model
        )
        assert from_loads["energy_j"] < even["energy_j"]

    def test_loads_validation(self):
        from repro.energy import sharded_readout_rows

        with pytest.raises(ValueError, match="not both"):
            sharded_readout_rows(8, loads=(4, 4), batch_window=3)
        with pytest.raises(ValueError, match="shard_counts"):
            sharded_readout_rows(8, loads=(4, 4), shard_counts=(2, 3))
        with pytest.raises(ValueError, match="at least one shard"):
            sharded_readout_rows(8, loads=())
        for bad in (-1, 2.5, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="loads must be an integer >= 0"):
                sharded_readout_rows(8, loads=(4, bad))
        with pytest.raises(ValueError, match="active column"):
            sharded_readout_rows(8, loads=(0, 0))
        with pytest.raises(ValueError, match="more than the batch"):
            sharded_readout_rows(8, loads=(6, 6))
