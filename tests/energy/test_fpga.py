"""Tests of the Table I FPGA model against the published numbers."""

import pytest

from repro.energy import FpgaMvmDesign


class TestTableIAnchors:
    def test_dot_product_cycles(self):
        """"The time to compute one dot-product is equal to the vector
        size divided by 8, plus 5 cycles" -> 133 cycles for 1024."""
        assert FpgaMvmDesign().dot_product_cycles(1024) == 133

    def test_mvm_latency_665ns(self):
        assert FpgaMvmDesign().mvm_latency_s() == pytest.approx(665e-9)

    def test_mvm_energy_17_7uj(self):
        assert FpgaMvmDesign().mvm_energy_j() == pytest.approx(17.7e-6, rel=0.01)

    def test_resource_report(self):
        design = FpgaMvmDesign()
        assert design.luts == 307_908
        assert design.flipflops == 180_368
        assert design.block_rams == 1024
        assert design.static_power_w == pytest.approx(4.04)


class TestScaling:
    def test_rows_beyond_units_serialize(self):
        design = FpgaMvmDesign()
        assert design.mvm_cycles(2048, 1024) == 2 * design.mvm_cycles(1024, 1024)

    def test_small_vector_pipeline_floor(self):
        design = FpgaMvmDesign()
        assert design.dot_product_cycles(1) == 1 + design.pipeline_depth

    def test_ceil_division_of_lanes(self):
        design = FpgaMvmDesign()
        assert design.dot_product_cycles(9) == 2 + design.pipeline_depth

    @pytest.mark.parametrize("bad", [0, -5])
    def test_rejects_bad_vector_size(self, bad):
        with pytest.raises(ValueError):
            FpgaMvmDesign().dot_product_cycles(bad)

    @pytest.mark.parametrize("field", ["n_units", "lanes"])
    def test_rejects_empty_design(self, field):
        with pytest.raises(ValueError, match="n_units and lanes"):
            FpgaMvmDesign(**{field: 0})

    def test_rejects_bad_rows(self):
        with pytest.raises(ValueError):
            FpgaMvmDesign().mvm_cycles(0, 1024)


class TestBatchedMatmat:
    def test_batch_of_one_equals_mvm(self):
        design = FpgaMvmDesign()
        assert design.matmat_cycles(1) == design.mvm_cycles(1024, 1024)
        assert design.matmat_latency_s(1) == pytest.approx(design.mvm_latency_s())
        assert design.matmat_energy_j(1) == pytest.approx(design.mvm_energy_j())

    def test_pipeline_drain_amortizes_across_batch(self):
        """Back-to-back vectors keep the MAC pipelines full, so a batch
        is cheaper than B standalone MVMs — but only by the drain."""
        design = FpgaMvmDesign()
        batch = 64
        batched = design.matmat_cycles(batch)
        looped = batch * design.mvm_cycles(1024, 1024)
        assert batched < looped
        assert looped - batched == (batch - 1) * design.pipeline_depth

    def test_energy_grows_monotonically(self):
        design = FpgaMvmDesign()
        energies = [design.matmat_energy_j(b) for b in (1, 4, 16, 64)]
        assert energies == sorted(energies)

    @pytest.mark.parametrize("field", ["rows", "vector_size"])
    def test_rejects_empty_operand(self, field):
        with pytest.raises(ValueError, match=f"{field} must be"):
            FpgaMvmDesign().matmat_cycles(4, **{field: 0})

    @pytest.mark.parametrize("bad", [0, float("inf"), float("nan")])
    def test_rejects_bad_batch(self, bad):
        with pytest.raises(ValueError, match="batch"):
            FpgaMvmDesign().matmat_cycles(bad)
