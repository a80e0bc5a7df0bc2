"""Tests of iterative program-and-verify."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest

from repro.crossbar import (
    CrossbarArray,
    CrossbarOperator,
    DifferentialCoding,
    ShardedOperator,
    program_and_verify,
)
from repro.crossbar.programming import BLOCK_DEVICES
from repro.devices import PcmDevice


def reference_read(device, conductance, rng):
    """``PcmDevice.read`` as one allocation per step: a ``rng.normal``
    noise matrix, ``1 + noise``, the product and the clip."""
    conductance = np.asarray(conductance, dtype=float)
    if device.read_noise_sigma == 0.0:
        return conductance.copy()
    noise = rng.normal(0.0, device.read_noise_sigma, size=conductance.shape)
    return np.clip(conductance * (1.0 + noise), 0.0, None)


def reference_program_and_verify(device, target, iterations, gain, rng):
    """``program_and_verify`` with a new array for every step of every
    round: returns ``(conductance, rms_error_history)``."""
    target = device.clip(target)
    pulse_sigma = device.prog_noise_sigma * device.g_max
    conductance = np.full_like(target, device.g_min)
    history = []
    for _ in range(iterations):
        observed = reference_read(device, conductance, rng)
        error = target - observed
        correction = gain * error
        if pulse_sigma > 0.0:
            correction = correction + rng.normal(0.0, pulse_sigma, size=target.shape)
        conductance = device.clip(conductance + correction)
        residual = conductance - target
        history.append(float(np.sqrt(np.mean(residual**2))) / device.g_max)
    return conductance, history


def coded_member(rows=20, cols=12):
    """The G+ targets of a ``cols x rows`` matrix coded as a crossbar
    stores it (``A.T``): an F-order ``(rows, cols)`` array."""
    matrix = np.random.default_rng(30).standard_normal((cols, rows))
    g_pos, _ = DifferentialCoding(PcmDevice()).encode(matrix.T)
    assert g_pos.flags.f_contiguous and not g_pos.flags.c_contiguous
    return g_pos


TARGETS = {
    "f_order_coded_member": coded_member,
    "c_order_target": lambda: np.ascontiguousarray(coded_member()),
    "strided_slice": lambda: coded_member()[1::3, 2::2],
    "vector": lambda: coded_member()[:, 0].copy(),
}
DEVICES = {
    "noisy": PcmDevice(),
    "read_noise_free": PcmDevice(read_noise_sigma=0.0),
    "program_noise_free": PcmDevice(prog_noise_sigma=0.0),
}


def assert_same_array(actual, expected):
    """Equal values bit for bit, in the same memory layout."""
    np.testing.assert_array_equal(actual, expected, strict=True)
    assert actual.strides == expected.strides


class TestProgramAndVerify:
    def test_ideal_device_converges_exactly(self):
        device = PcmDevice.ideal()
        target = np.linspace(device.g_min, device.g_max, 10)
        report = program_and_verify(device, target, iterations=3)
        assert np.allclose(report.conductance, target)
        assert report.final_rms_error == pytest.approx(0.0, abs=1e-12)

    def test_error_history_length(self):
        report = program_and_verify(PcmDevice(), np.full(8, 1e-5), iterations=4, seed=0)
        assert report.iterations == 4
        assert len(report.rms_error_history) == 4

    def test_error_decreases_over_iterations_with_partial_gain(self):
        """With gain < 1 the verify loop converges gradually."""
        device = PcmDevice(prog_noise_sigma=0.002)
        target = np.full(2000, 12e-6)
        report = program_and_verify(device, target, iterations=6, gain=0.5, seed=1)
        assert report.rms_error_history[-1] < report.rms_error_history[0] / 2

    def test_residual_limited_by_pulse_noise(self):
        device = PcmDevice(prog_noise_sigma=0.01, read_noise_sigma=0.0)
        target = np.full(4000, 12e-6)
        report = program_and_verify(device, target, iterations=8, seed=2)
        # Residual floor ~ one pulse error = 1% of g_max.
        assert report.final_rms_error == pytest.approx(0.01, rel=0.3)

    def test_targets_clipped_to_window(self):
        device = PcmDevice.ideal()
        report = program_and_verify(device, np.array([1.0]), iterations=2)
        assert report.conductance[0] == pytest.approx(device.g_max)

    @pytest.mark.parametrize("bad_kwargs", [{"iterations": 0}, {"gain": 0.0}, {"gain": 1.5}])
    def test_rejects_bad_parameters(self, bad_kwargs):
        with pytest.raises(ValueError):
            program_and_verify(PcmDevice(), np.array([1e-6]), **bad_kwargs)

    def test_report_without_iterations_rejects_final_error(self):
        from repro.crossbar.programming import ProgrammingReport

        report = ProgrammingReport(conductance=np.zeros(2))
        with pytest.raises(ValueError):
            _ = report.final_rms_error


class TestPulseAccounting:
    def test_n_pulses_is_one_per_device_per_round(self):
        device = PcmDevice()
        report = program_and_verify(
            device, np.full((3, 5), 5e-6), iterations=4, seed=0
        )
        assert report.n_pulses == 4 * 15


class TestInPlaceRounds:
    """The in-place rounds and read give the per-step reference's
    conductances, layout, error history and generator state bit for
    bit."""

    @pytest.mark.parametrize("gain", [1.0, 0.5])
    @pytest.mark.parametrize("device", list(DEVICES))
    @pytest.mark.parametrize("target", list(TARGETS))
    def test_session_matches_per_step_reference(self, target, device, gain):
        device, target = DEVICES[device], TARGETS[target]()
        rng, twin = np.random.default_rng(31), np.random.default_rng(31)
        report = program_and_verify(device, target, iterations=4, gain=gain, seed=rng)
        conductance, history = reference_program_and_verify(
            device, target, 4, gain, twin
        )
        assert_same_array(report.conductance, conductance)
        assert report.rms_error_history == history
        assert rng.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("device", list(DEVICES))
    @pytest.mark.parametrize("target", list(TARGETS))
    def test_read_matches_per_step_reference(self, target, device):
        device, target = DEVICES[device], TARGETS[target]()
        rng, twin = np.random.default_rng(32), np.random.default_rng(32)
        assert_same_array(
            device.read(target, seed=rng), reference_read(device, target, twin)
        )
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_array_programs_through_the_same_rounds(self):
        """A crossbar member programmed from an F-order coded target
        holds the reference session's C-order conductances."""
        target = coded_member()
        array = CrossbarArray(target, seed=np.random.default_rng(33))
        conductance, _ = reference_program_and_verify(
            array.device, target, 5, 1.0, np.random.default_rng(33)
        )
        assert_same_array(array._g_programmed, conductance)
        assert array._g_programmed.flags.c_contiguous


# Device counts against the session's block size: under one block,
# exactly one block, and three blocks and a ragged tail of 640 devices.
BLOCK_SIZES = {
    "under_one_block": (20, 12),
    "one_block": (128, BLOCK_DEVICES // 128),
    "ragged_blocks": (128, 3 * BLOCK_DEVICES // 128 + 5),
}
LAYOUTS = {
    "f_order": lambda rows, cols: coded_member(rows, cols),
    # every second row of a coded member twice as tall: no axis contiguous
    "strided": lambda rows, cols: coded_member(2 * rows, cols)[::2],
}


class TestBlockRounds:
    """Rounds run block-wise over a C-order copy of the target and still
    give the whole-array per-step reference's conductances, layout,
    error history and generator state, bit for bit, at every block
    count."""

    @pytest.mark.parametrize("device", list(DEVICES))
    @pytest.mark.parametrize("layout", list(LAYOUTS))
    @pytest.mark.parametrize("size", list(BLOCK_SIZES))
    def test_session_matches_per_step_reference(self, size, layout, device):
        device, target = DEVICES[device], LAYOUTS[layout](*BLOCK_SIZES[size])
        assert not target.flags.c_contiguous
        rng, twin = np.random.default_rng(36), np.random.default_rng(36)
        report = program_and_verify(device, target, iterations=3, gain=0.5, seed=rng)
        conductance, history = reference_program_and_verify(
            device, target, 3, 0.5, twin
        )
        assert_same_array(report.conductance, conductance)
        assert report.rms_error_history == history
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_the_block_sizes_span_the_cases(self):
        sizes = {name: rows * cols for name, (rows, cols) in BLOCK_SIZES.items()}
        assert sizes["under_one_block"] < BLOCK_DEVICES == sizes["one_block"]
        assert sizes["ragged_blocks"] % BLOCK_DEVICES
        assert sizes["ragged_blocks"] // BLOCK_DEVICES == 3

    def test_a_1024x512_session_allocates_under_13_mb(self):
        """The C-order target copy, the conductances and the residual
        (4 MB each) and two block buffers: 12.25 MB.  Whole-array rounds
        on an F-order member peaked at 20 MB."""
        target = coded_member(1024, 512)
        tracemalloc.start()
        try:
            program_and_verify(PcmDevice(), target, seed=37)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 13 << 20


class TestRejectsBadInputsBeforeAnyDraw:
    """A non-finite target or a non-integer iteration count raises
    ``ValueError`` naming it, and leaves the generator untouched."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_target(self, bad):
        rng = np.random.default_rng(34)
        state = rng.bit_generator.state
        target = np.full((2, 3), 5e-6)
        target[1, 2] = bad
        with pytest.raises(ValueError, match="target must be finite"):
            program_and_verify(PcmDevice(), target, seed=rng)
        with pytest.raises(ValueError, match="finite|non-negative"):
            CrossbarArray(target, seed=rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize(
        "iterations", [2.5, np.nan, np.inf, 0, -1, "3", True, np.True_]
    )
    def test_non_integer_iterations(self, iterations):
        rng = np.random.default_rng(35)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="iterations must be an integer"):
            program_and_verify(
                PcmDevice(), np.full(4, 5e-6), iterations=iterations, seed=rng
            )
        assert rng.bit_generator.state == state

    def test_integral_float_iterations_run_that_many_rounds(self):
        report = program_and_verify(PcmDevice(), np.full(4, 5e-6), iterations=3.0, seed=0)
        assert report.iterations == 3

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0,)])
    def test_empty_target(self, shape):
        """An empty target used to run its rounds over no devices and
        report an all-NaN error history, with a RuntimeWarning per round."""
        rng = np.random.default_rng(38)
        state = rng.bit_generator.state
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(
                f"target must hold at least one device, got shape {shape}"
            )):
                program_and_verify(PcmDevice(), np.zeros(shape), seed=rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
    def test_empty_array_and_operator(self, shape):
        rng = np.random.default_rng(39)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=re.escape(
            f"target_conductance must hold at least one device, got shape {shape}"
        )):
            CrossbarArray(np.zeros(shape), seed=rng)
        with pytest.raises(ValueError, match=re.escape(
            f"matrix must hold at least one coefficient, got shape {shape}"
        )):
            CrossbarOperator(np.zeros(shape), seed=rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("parallelism", ["serial", "threads"])
    def test_empty_fleet_matrix(self, parallelism):
        with pytest.raises(ValueError, match="matrix must hold at least one"):
            ShardedOperator.from_matrix(
                np.zeros((0, 3)), n_shards=2, batch_window=2,
                parallelism=parallelism, stream="per_shard", seed=40,
            )
