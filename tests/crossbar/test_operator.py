"""Tests of the high-level crossbar operator."""

import numpy as np
import pytest

from repro.crossbar import CrossbarOperator, DenseOperator
from repro.devices import PcmDevice


def relative_error(estimate, reference):
    return np.linalg.norm(estimate - reference) / np.linalg.norm(reference)


class TestDenseOperator:
    def test_matvec_rmatvec(self, small_matrix, rng):
        op = DenseOperator(small_matrix)
        x = rng.standard_normal(small_matrix.shape[1])
        z = rng.standard_normal(small_matrix.shape[0])
        assert np.allclose(op.matvec(x), small_matrix @ x)
        assert np.allclose(op.rmatvec(z), small_matrix.T @ z)
        assert op.n_matvec == 1 and op.n_rmatvec == 1

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            DenseOperator(np.ones(4))

    def test_matmat_rmatmat(self, small_matrix, rng):
        op = DenseOperator(small_matrix)
        x_block = rng.standard_normal((small_matrix.shape[1], 3))
        z_block = rng.standard_normal((small_matrix.shape[0], 4))
        assert np.allclose(op.matmat(x_block), small_matrix @ x_block)
        assert np.allclose(op.rmatmat(z_block), small_matrix.T @ z_block)
        # one logical read per input vector, as on the crossbar
        assert op.n_matvec == 3 and op.n_rmatvec == 4
        assert op.stats == {"n_matvec": 3, "n_rmatvec": 4}

    def test_matmat_validation(self, small_matrix):
        op = DenseOperator(small_matrix)
        m, n = small_matrix.shape
        with pytest.raises(ValueError):
            op.matmat(np.zeros(n))  # 1-D belongs to matvec
        with pytest.raises(ValueError):
            op.matmat(np.zeros((m, 2)))  # wrong feature dimension
        with pytest.raises(ValueError):
            op.rmatmat(np.zeros((n, 2)))

    def test_vector_products_reject_blocks_before_counting(self):
        """``matvec``/``rmatvec`` take one vector, as on the crossbar: a
        block used to come back as an ``(m, B)`` product counted as one
        read."""
        op = DenseOperator(np.arange(12.0).reshape(3, 4))
        for read, bad in (
            (op.matvec, np.ones((4, 2))),
            (op.matvec, np.ones(3)),
            (op.rmatvec, np.ones((3, 2))),
            (op.rmatvec, np.ones(4)),
        ):
            with pytest.raises(ValueError, match="shape"):
                read(bad)
        assert op.stats == {"n_matvec": 0, "n_rmatvec": 0}

    def test_empty_batch_returns_empty_and_counts_nothing(self, small_matrix):
        """B = 0 is a legal degenerate fleet: empty result, zero reads."""
        op = DenseOperator(small_matrix)
        m, n = small_matrix.shape
        assert op.matmat(np.zeros((n, 0))).shape == (m, 0)
        assert op.rmatmat(np.zeros((m, 0))).shape == (n, 0)
        assert op.stats == {"n_matvec": 0, "n_rmatvec": 0}


class TestIdealCrossbar:
    def test_matvec_exact_with_ideal_device(self, small_matrix, rng):
        op = CrossbarOperator(
            small_matrix, device=PcmDevice.ideal(), dac_bits=None, adc_bits=None, seed=0
        )
        x = rng.standard_normal(small_matrix.shape[1])
        assert relative_error(op.matvec(x), small_matrix @ x) < 1e-10

    def test_rmatvec_exact_with_ideal_device(self, small_matrix, rng):
        op = CrossbarOperator(
            small_matrix, device=PcmDevice.ideal(), dac_bits=None, adc_bits=None, seed=0
        )
        z = rng.standard_normal(small_matrix.shape[0])
        assert relative_error(op.rmatvec(z), small_matrix.T @ z) < 1e-10

    def test_zero_vector_returns_zero(self, small_matrix):
        op = CrossbarOperator(small_matrix, device=PcmDevice.ideal(), seed=0)
        assert np.array_equal(op.matvec(np.zeros(small_matrix.shape[1])), np.zeros(small_matrix.shape[0]))

    def test_linearity_in_scale(self, small_matrix, rng):
        """Per-call input normalization must preserve scaling."""
        op = CrossbarOperator(
            small_matrix, device=PcmDevice.ideal(), dac_bits=None, adc_bits=None, seed=0
        )
        x = rng.standard_normal(small_matrix.shape[1])
        assert np.allclose(op.matvec(3.0 * x), 3.0 * op.matvec(x), rtol=1e-9)


class TestRealisticCrossbar:
    def test_error_within_pcm_regime(self, rng):
        matrix = rng.standard_normal((64, 96))
        op = CrossbarOperator(matrix, seed=1)
        x = rng.standard_normal(96)
        err = relative_error(op.matvec(x), matrix @ x)
        assert err < 0.15  # PCM MVM literature reports a few percent

    def test_tiling_matches_untiled(self, rng):
        matrix = rng.standard_normal((40, 56))
        x = rng.standard_normal(56)
        whole = CrossbarOperator(
            matrix, device=PcmDevice.ideal(), dac_bits=None, adc_bits=None, seed=0
        )
        tiled = CrossbarOperator(
            matrix,
            device=PcmDevice.ideal(),
            dac_bits=None,
            adc_bits=None,
            tile_shape=(16, 16),
            seed=0,
        )
        # stored as A.T: ceil(56/16) row blocks x ceil(40/16) col blocks
        assert tiled.n_tiles == 12
        assert np.allclose(whole.matvec(x), tiled.matvec(x), atol=1e-9)

    def test_more_adc_bits_less_error(self, rng):
        matrix = rng.standard_normal((32, 48))
        x = rng.standard_normal(48)
        device = PcmDevice.ideal()
        errs = {}
        for bits in (4, 8):
            op = CrossbarOperator(matrix, device=device, dac_bits=None, adc_bits=bits, seed=2)
            errs[bits] = relative_error(op.matvec(x), matrix @ x)
        assert errs[8] < errs[4]

    def test_drift_degrades_accuracy(self, rng):
        matrix = rng.standard_normal((32, 32))
        x = rng.standard_normal(32)
        op = CrossbarOperator(
            matrix,
            device=PcmDevice(prog_noise_sigma=0.0, read_noise_sigma=0.0),
            dac_bits=None,
            adc_bits=None,
            seed=3,
        )
        fresh = relative_error(op.matvec(x), matrix @ x)
        op.advance_time(1e6)
        aged = relative_error(op.matvec(x), matrix @ x)
        assert aged > fresh

    def test_stats_counters(self, small_matrix, rng):
        op = CrossbarOperator(small_matrix, seed=4)
        op.matvec(rng.standard_normal(small_matrix.shape[1]))
        op.rmatvec(rng.standard_normal(small_matrix.shape[0]))
        stats = op.stats
        assert stats["n_matvec"] == 1
        assert stats["n_rmatvec"] == 1
        assert stats["adc_conversions"] > 0
        assert stats["n_devices"] == 2 * small_matrix.size

    def test_shape_validation(self, small_matrix):
        op = CrossbarOperator(small_matrix, seed=5)
        with pytest.raises(ValueError):
            op.matvec(np.zeros(small_matrix.shape[0]))
        with pytest.raises(ValueError):
            op.rmatvec(np.zeros(small_matrix.shape[1]))

    def test_rejects_infinite_read_voltage(self, small_matrix):
        with pytest.raises(ValueError, match="v_max"):
            CrossbarOperator(small_matrix, v_read=float("inf"))

    def test_rejects_non_2d_matrix(self):
        with pytest.raises(ValueError, match="2-D"):
            CrossbarOperator(np.ones(4))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_matrix_before_programming(self, small_matrix, bad):
        matrix = small_matrix.copy()
        matrix[0, 1] = bad
        rng = np.random.default_rng(7)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="matrix must be finite"):
            CrossbarOperator(matrix, tile_shape=(4, 4), seed=rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize(
        "widths", [{"adc_bits": 1100}, {"dac_bits": 33}, {"adc_bits": 33}]
    )
    def test_rejects_too_wide_converters_before_programming(self, widths):
        """Regression: ``adc_bits=1100`` constructed, then the first read
        raised ``OverflowError`` after counting one read and four DAC and
        four ADC conversions."""
        rng = np.random.default_rng(7)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="bits must be <= 32"):
            CrossbarOperator(np.ones((4, 4)), seed=rng, **widths)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize(
        "tile_shape", [(2.5, 4), (4,), (4, 4, 4), (0, 4), (4, float("nan"))]
    )
    def test_rejects_bad_tile_shape(self, small_matrix, tile_shape):
        with pytest.raises(ValueError, match="tile_shape"):
            CrossbarOperator(small_matrix, tile_shape=tile_shape)

    def test_integral_float_tile_shape_tiles_like_ints(self, rng):
        matrix = rng.standard_normal((20, 24))
        x = rng.standard_normal(24)
        tiled = CrossbarOperator(
            matrix, device=PcmDevice.ideal(), tile_shape=(8.0, 8.0), seed=0
        )
        reference = CrossbarOperator(
            matrix, device=PcmDevice.ideal(), tile_shape=(8, 8), seed=0
        )
        assert tiled.n_tiles == reference.n_tiles == 9
        np.testing.assert_array_equal(tiled.matvec(x), reference.matvec(x))

    def test_statistical_full_scale_clips_the_worst_case_line(self, rng):
        # The ADC range is four times the largest line L2 norm.  On long
        # lines the worst-case current (the L1 norm) is ~sqrt(400) times
        # the L2 norm, far past that range.
        matrix = rng.standard_normal((4, 400))
        line = int(np.argmax(np.abs(matrix).sum(axis=1)))
        x = np.sign(matrix[line])  # drives that line to its largest current
        exact = (matrix @ x)[line]
        operator = CrossbarOperator(
            matrix, device=PcmDevice.ideal(), adc_bits=12, seed=0
        )
        assert operator.matvec(x)[line] < 0.5 * exact  # clipped


class TestReadPeriphery:
    """The digital steps around the analog read: one finiteness check
    per product, and the accumulator's ``0.0 + code`` on every operator."""

    @pytest.mark.parametrize("product", ["matvec", "rmatvec", "matmat", "rmatmat"])
    def test_each_product_checks_its_input_once(self, monkeypatch, product):
        checks = []

        def counting_check(name, array):
            checks.append(name)
            return array

        monkeypatch.setattr("repro.crossbar.operator.check_finite", counting_check)
        operator = CrossbarOperator(np.ones((3, 5)), seed=0)
        lines = 5 if product in ("matvec", "matmat") else 3
        shape = (lines,) if product.endswith("vec") else (lines, 2)
        getattr(operator, product)(np.ones(shape))
        assert len(checks) == 1

    @pytest.mark.parametrize("tile_shape", [(2, 2), (1, 2)], ids=["one", "two"])
    def test_a_negative_zero_code_reads_positive_zero(self, tile_shape):
        # Output line 1 carries a current far under half an LSB below
        # zero, which the ADC codes as -0.0.
        matrix = np.array([[1.0, 0.5], [-1e-4, 0.0]])
        operator = CrossbarOperator(
            matrix, device=PcmDevice.ideal(), tile_shape=tile_shape, seed=0
        )
        x = np.array([1.0, 0.0])
        pair = operator._tiles[(0, 0)]
        voltages = operator.dac.to_voltages(operator._normalize_block(x[:, None])[0])
        rows = voltages[: pair.positive.rows]
        codes = operator.adc_columns.quantize(pair.column_currents(rows, 0.0))
        assert np.signbit(codes[1, 0]) and codes[1, 0] == 0.0
        for out in (operator.matvec(x), operator.matmat(np.stack([x, 2 * x], 1))):
            assert out[0].all() and not np.signbit(out[1]).any() and not out[1].any()


class TestVerifyReads:
    def test_reprogram_verify_measures_the_rewrite(self, small_matrix):
        op = CrossbarOperator(small_matrix, device=PcmDevice.ideal(), seed=0)
        op.advance_time(1e5)
        op.reprogram(verify_probes=4, verify_seed=1)
        assert 0.0 <= op.last_reprogram_error < 0.05
        # the verify read bills like calibration probes
        assert op.n_calibration_probes == 4
        assert op.n_matvec == 4
        assert op.n_calibrations == 0
        op.reprogram()
        assert op.last_reprogram_error is None

    @pytest.mark.parametrize("probe", ["calibrate", "read_error"])
    def test_integral_float_probe_counts_probe_like_ints(self, small_matrix, probe):
        twins = [
            CrossbarOperator(small_matrix, device=PcmDevice.ideal(), seed=0)
            for _ in range(2)
        ]
        first = getattr(twins[0], probe)(n_probes=4.0, seed=1)
        second = getattr(twins[1], probe)(n_probes=4, seed=1)
        assert first == second
        assert twins[0].n_calibration_probes == twins[1].n_calibration_probes == 4

    def test_probes_need_a_signal(self, small_matrix):
        op = CrossbarOperator(small_matrix, seed=0)
        for bad in (0, 2.5, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="n_probes"):
                op.read_error(n_probes=bad)
        zero = CrossbarOperator(np.zeros((4, 6)), device=PcmDevice.ideal(), seed=0)
        with pytest.raises(RuntimeError, match="no reference signal"):
            zero.read_error(n_probes=2, seed=1)
        with pytest.raises(RuntimeError, match="no signal"):
            zero.calibrate(n_probes=2, seed=1)
        # a failed fit keeps the old gain and counts no probes
        assert zero.gain == 1.0
        assert (zero.n_calibrations, zero.n_calibration_probes) == (0, 0)

    @pytest.mark.parametrize(
        "device", [PcmDevice(), PcmDevice.ideal()], ids=["noisy", "ideal"]
    )
    def test_calibrating_a_zero_reference_reads_and_bills_nothing(self, device):
        """Regression: on the noisy device the fit returned gain 0.0,
        error 0.0 and counted a calibration; on the ideal one it billed
        3 matvecs and 18 DAC and 12 ADC conversions before it raised."""
        zero = CrossbarOperator(np.zeros((4, 6)), device=device, seed=1)
        before = zero.stats
        with pytest.raises(RuntimeError, match="reference has no signal"):
            zero.calibrate(n_probes=3, seed=2)
        assert zero.stats == before
        assert zero.gain == 1.0
        assert zero.last_calibration_error is None

    def test_an_all_zero_observation_fails_the_fit_after_the_read(
        self, small_matrix, monkeypatch
    ):
        op = CrossbarOperator(small_matrix, device=PcmDevice.ideal(), seed=0)
        m = small_matrix.shape[0]
        monkeypatch.setattr(op, "matmat", lambda block: np.zeros((m, block.shape[1])))
        with pytest.raises(RuntimeError, match="probes produced no signal"):
            op.calibrate(n_probes=3, seed=2)
        assert op.gain == 1.0
        assert (op.n_calibrations, op.n_calibration_probes) == (0, 0)
        assert op.last_calibration_error is None

    def test_a_zero_reference_is_rejected_before_any_probe_read(self):
        """The reference ``A @ probes`` is known before the read, so a
        matrix that gives no reference signal bills nothing."""
        zero = CrossbarOperator(np.zeros((4, 6)), seed=1)
        before = zero.stats
        with pytest.raises(RuntimeError, match="no reference signal"):
            zero.read_error(n_probes=3, seed=2)
        assert zero.stats == before
        assert zero.n_live_matvec == 0
