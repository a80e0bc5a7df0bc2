"""Tests of the CIM accelerator facade."""

import numpy as np
import pytest

from repro import CimAccelerator
from repro.devices import PcmDevice


@pytest.fixture
def accelerator():
    return CimAccelerator(analog_device=PcmDevice.ideal(), dac_bits=None,
                          adc_bits=None, seed=0)


class TestRegions:
    def test_store_and_list(self, accelerator, rng):
        accelerator.store_bits("db", rng.integers(0, 2, (3, 32), dtype=np.uint8))
        accelerator.store_matrix("A", rng.standard_normal((4, 6)))
        assert accelerator.regions == {"db": "bits", "A": "matrix"}

    def test_duplicate_name_rejected(self, accelerator, rng):
        accelerator.store_bits("x", rng.integers(0, 2, (2, 8), dtype=np.uint8))
        with pytest.raises(ValueError, match="already exists"):
            accelerator.store_matrix("x", np.eye(2))

    def test_unknown_region(self, accelerator):
        with pytest.raises(KeyError):
            accelerator.bit_region("nope")
        with pytest.raises(KeyError):
            accelerator.matrix_region("nope")

    def test_scratch_rows_provisioned(self, accelerator, rng):
        engine = accelerator.store_bits(
            "db", rng.integers(0, 2, (3, 16), dtype=np.uint8), scratch_rows=2
        )
        assert engine.n_rows == 5

    def test_bit_matrix_must_be_2d(self, accelerator):
        with pytest.raises(ValueError):
            accelerator.store_bits("bad", np.zeros(8, dtype=np.uint8))

    def test_negative_scratch_rows_rejected(self, accelerator):
        with pytest.raises(ValueError, match="scratch_rows"):
            accelerator.store_bits(
                "bad", np.zeros((2, 8), dtype=np.uint8), scratch_rows=-1
            )
        assert accelerator.regions == {}


class TestCompute:
    def test_bitwise_through_facade(self, accelerator, rng):
        bits = rng.integers(0, 2, (2, 64), dtype=np.uint8)
        accelerator.store_bits("db", bits)
        result = accelerator.bitwise("db", "xor", [0, 1])
        assert np.array_equal(result, bits[0] ^ bits[1])

    def test_matvec_through_facade(self, accelerator, rng):
        matrix = rng.standard_normal((8, 12))
        accelerator.store_matrix("A", matrix)
        x = rng.standard_normal(12)
        assert np.allclose(accelerator.matvec("A", x), matrix @ x, atol=1e-9)

    def test_rmatvec_through_facade(self, accelerator, rng):
        matrix = rng.standard_normal((8, 12))
        accelerator.store_matrix("A", matrix)
        z = rng.standard_normal(8)
        assert np.allclose(accelerator.rmatvec("A", z), matrix.T @ z, atol=1e-9)

    def test_stats_per_region(self, accelerator, rng):
        accelerator.store_bits("db", rng.integers(0, 2, (2, 8), dtype=np.uint8))
        accelerator.store_matrix("A", np.eye(3))
        accelerator.bitwise("db", "or", [0, 1])
        accelerator.matvec("A", np.ones(3))
        stats = accelerator.stats
        assert stats["db"]["n_ops"] == 1
        assert stats["A"]["n_matvec"] == 1
