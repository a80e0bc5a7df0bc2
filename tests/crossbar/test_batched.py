"""Equivalence suite for the batched MVM pipeline (``matmat``/``rmatmat``).

A block read must mean the same as its columns read one at a time:
every column of ``matmat(X)`` is one peak-normalized analog read, zero
columns never touch the hardware, tile partial sums accumulate
digitally after the ADC, and conversion counters equal ``B`` looped
calls.  With deterministic reads (``read_noise_sigma=0``) block and
looped reads agree to rounding on freshly programmed twins.  With read
noise, the output-referred read model must reproduce the mean and
variance of a per-device Monte Carlo built on ``PcmDevice.read``, for
one array and for a differential tile pair read as one Gaussian.
"""

import math
import tracemalloc

import numpy as np
import pytest

from repro.core import CimAccelerator
from repro.crossbar import CrossbarArray, CrossbarOperator
from repro.crossbar.array import line_currents
from repro.crossbar.operator import _TilePair
from repro.devices import PcmDevice
from repro.workloads import gaussian_measurement_matrix


def make_twins(matrix, **kwargs):
    """Two identically-seeded operators (identical programming draws)."""
    seed = kwargs.pop("seed", 0)
    return (
        CrossbarOperator(matrix, seed=seed, **kwargs),
        CrossbarOperator(matrix, seed=seed, **kwargs),
    )


def looped_matvec(operator, x_block):
    return np.stack(
        [operator.matvec(x_block[:, i]) for i in range(x_block.shape[1])], axis=1
    )


def looped_rmatvec(operator, z_block):
    return np.stack(
        [operator.rmatvec(z_block[:, i]) for i in range(z_block.shape[1])], axis=1
    )


def drifted(member, age_seconds):
    """A tile-pair member's programmed conductances drifted to an age."""
    return member.device.drifted(member._g_programmed, age_seconds)


def noisy_pair_entry(g_pos, g_neg):
    """A fresh noisy pair's read entry formed as the read forms it: the
    mean ``G+ - G-`` subtracted in float64 and rounded once to float32,
    the power summed from float32 squares."""
    mean = (g_pos - g_neg).astype(np.float32)
    return mean, np.square(g_pos, dtype=np.float32) + np.square(g_neg, dtype=np.float32)


EPS32 = float(np.finfo(np.float32).eps)
# An aged noisy pair drifts in float32: bounds against the float64 law of
# ``PcmDevice.drifted``, in eps(float32).  Measured on 256x256 pairs from
# 0.05 s to 1e8 s: at most 2.3 per drifted conductance (relative), 2.6
# per mean element (of G+ + G-) and 5.1 for the power (relative) with
# numpy's AVX2 and AVX-512 float32 exp, and 1.7, 1.7 and 3.3 on its
# baseline path.  The exact bits of float32 exp differ between CPUs; an
# exp within 4 ulps keeps the three under about 6, 7 and 13.
DRIFT_EPS, MEAN_EPS, POWER_EPS = 8, 8, 16


def assert_aged_entry_within_the_drifted_law(entry, pair, age):
    """An aged noisy pair's read entry against the float64 law: a float32
    mean and power of the members' shape, each mean element within
    ``MEAN_EPS * eps32 * (G+ + G-)`` of ``G+ - G-`` and the power within
    ``POWER_EPS * eps32`` of ``G+**2 + G-**2`` relative, both members
    drifted through ``PcmDevice.drifted``."""
    mean, power = entry
    g_pos, g_neg = drifted(pair.positive, age), drifted(pair.negative, age)
    assert mean.dtype == power.dtype == np.float32
    assert mean.shape == power.shape == g_pos.shape
    assert np.all(np.abs(mean - (g_pos - g_neg)) <= MEAN_EPS * EPS32 * (g_pos + g_neg))
    law_power = g_pos**2 + g_neg**2
    assert np.all(np.abs(power - law_power) <= POWER_EPS * EPS32 * law_power)


DETERMINISTIC_DEVICES = [
    PcmDevice.ideal(),
    PcmDevice(read_noise_sigma=0.0),  # programming noise, deterministic reads
]


class TestExactEquivalence:
    """Deterministic reads: batched output is bitwise the looped output."""

    @pytest.mark.parametrize("shape", [(12, 20), (40, 56)])
    @pytest.mark.parametrize("tile_shape", [(1024, 1024), (16, 16)])
    @pytest.mark.parametrize("bits", [(8, 8), (None, None)])
    @pytest.mark.parametrize("device", DETERMINISTIC_DEVICES)
    def test_matmat_matches_looped_matvec(self, rng, shape, tile_shape, bits, device):
        matrix = rng.standard_normal(shape)
        dac_bits, adc_bits = bits
        batched, looped = make_twins(
            matrix,
            device=device,
            dac_bits=dac_bits,
            adc_bits=adc_bits,
            tile_shape=tile_shape,
        )
        x_block = rng.standard_normal((shape[1], 5))
        np.testing.assert_allclose(
            batched.matmat(x_block), looped_matvec(looped, x_block), atol=1e-12
        )

    @pytest.mark.parametrize("tile_shape", [(1024, 1024), (16, 16)])
    @pytest.mark.parametrize("device", DETERMINISTIC_DEVICES)
    def test_rmatmat_matches_looped_rmatvec(self, rng, tile_shape, device):
        matrix = rng.standard_normal((40, 56))
        batched, looped = make_twins(matrix, device=device, tile_shape=tile_shape)
        z_block = rng.standard_normal((40, 5))
        np.testing.assert_allclose(
            batched.rmatmat(z_block), looped_rmatvec(looped, z_block), atol=1e-12
        )

    def test_multi_tile_grid_is_actually_forced(self, rng):
        matrix = rng.standard_normal((40, 56))
        operator = CrossbarOperator(matrix, tile_shape=(16, 16), seed=0)
        assert operator.n_tiles == 12  # stored as A.T: ceil(56/16) x ceil(40/16)

    def test_batch_of_one_equals_matvec(self, rng, small_matrix):
        batched, looped = make_twins(small_matrix, device=PcmDevice(read_noise_sigma=0.0))
        x = rng.standard_normal(small_matrix.shape[1])
        np.testing.assert_allclose(
            batched.matmat(x[:, None])[:, 0], looped.matvec(x), atol=1e-12
        )

    def test_equivalence_survives_drift(self, rng):
        matrix = rng.standard_normal((24, 24))
        batched, looped = make_twins(matrix, device=PcmDevice(read_noise_sigma=0.0))
        batched.advance_time(1e5)
        looped.advance_time(1e5)
        x_block = rng.standard_normal((24, 4))
        np.testing.assert_allclose(
            batched.matmat(x_block), looped_matvec(looped, x_block), atol=1e-12
        )

    def test_zero_columns_return_zero_and_skip_hardware(self, rng, small_matrix):
        operator = CrossbarOperator(small_matrix, seed=0)
        m, n = small_matrix.shape
        x_block = rng.standard_normal((n, 4))
        x_block[:, 1] = 0.0
        before = operator.stats
        result = operator.matmat(x_block)
        after = operator.stats
        assert np.array_equal(result[:, 1], np.zeros(m))
        assert (result[:, [0, 2, 3]] != 0).any()
        # only the three live columns were converted
        assert after["dac_conversions"] - before["dac_conversions"] == 3 * n
        assert after["adc_conversions"] - before["adc_conversions"] == 3 * m
        assert after["n_matvec"] - before["n_matvec"] == 4

    def test_all_zero_batch_never_touches_converters(self, small_matrix):
        operator = CrossbarOperator(small_matrix, seed=0)
        result = operator.matmat(np.zeros((small_matrix.shape[1], 3)))
        assert np.array_equal(result, np.zeros((small_matrix.shape[0], 3)))
        assert operator.stats["dac_conversions"] == 0
        assert operator.stats["adc_conversions"] == 0
        assert operator.stats["n_matvec"] == 3


class TestNoisyStatisticalEquivalence:
    """With read noise every column is its own noisy read event, and a
    one-column read follows the law of the per-device physics."""

    def test_matmat_error_within_pcm_regime(self, rng):
        matrix = rng.standard_normal((64, 96))
        operator = CrossbarOperator(matrix, seed=1)
        x_block = rng.standard_normal((96, 8))
        exact = matrix @ x_block
        result = operator.matmat(x_block)
        errors = np.linalg.norm(result - exact, axis=0) / np.linalg.norm(exact, axis=0)
        assert errors.max() < 0.15

    def test_noise_varies_across_batch_columns(self, rng):
        """Each column is a separate read event with fresh fluctuations."""
        matrix = rng.standard_normal((32, 32))
        operator = CrossbarOperator(
            matrix, device=PcmDevice(prog_noise_sigma=0.0), dac_bits=None, adc_bits=None, seed=2
        )
        x = rng.standard_normal(32)
        result = operator.matmat(np.stack([x, x], axis=1))
        assert not np.array_equal(result[:, 0], result[:, 1])

    # One-column reads against a per-device Monte Carlo.  The
    # output-referred model samples each line current from its exact
    # Gaussian law instead of drawing every device's fluctuation.  The
    # reference draws every device through ``PcmDevice.read`` (the
    # physical per-device model, clip included) and sums the currents,
    # so the two sample means and variances must agree within sampling
    # error, in both read directions.  An array reads its programmed
    # state.  A tile pair reads its difference current as one Gaussian,
    # fresh and drifted to the age it is read at; its reference reads
    # both members' drifted conductances device by device and subtracts.

    READS = 4000
    SIGMA = 0.05

    def device(self):
        return PcmDevice(prog_noise_sigma=0.0, read_noise_sigma=self.SIGMA)

    def conductances(self, seed):
        return np.random.default_rng(seed).uniform(1e-6, 25e-6, (12, 9))

    def make_array(self):
        return CrossbarArray(self.conductances(0), device=self.device(), seed=3)

    def make_pair(self):
        return _TilePair(
            self.conductances(0),
            self.conductances(5),
            device=self.device(),
            rng=np.random.default_rng(3),
        )

    def monte_carlo(self, g_now, voltages, transpose, mc_rng):
        """One per-device read of ``g_now``: every device drawn."""
        g_read = self.device().read(g_now, seed=mc_rng)
        return g_read @ voltages if transpose else voltages @ g_read

    def assert_same_law(self, model, reference, g_mean, g_power, voltages, transpose):
        """Model reads match the Monte Carlo and the analytic line law
        ``N(sum V G_mean, sigma^2 sum V^2 G_power)``."""
        mean_se = np.sqrt((model.var(axis=0) + reference.var(axis=0)) / self.READS)
        assert np.all(np.abs(model.mean(axis=0) - reference.mean(axis=0)) < 5 * mean_se)
        # the ratio of two sample variances over N Gaussian reads has a
        # relative standard error of about sqrt(4 / N) ~ 3 %: allow five
        ratio = model.var(axis=0) / reference.var(axis=0)
        assert np.all(np.abs(ratio - 1.0) < 5 * np.sqrt(4.0 / self.READS))
        drive = voltages[None, :] if transpose else voltages[:, None]
        axis = 1 if transpose else 0
        expected_var = self.SIGMA**2 * (g_power * drive**2).sum(axis=axis)
        np.testing.assert_allclose(
            model.mean(axis=0),
            (g_mean * drive).sum(axis=axis),
            atol=5 * float(np.sqrt(expected_var.max() / self.READS)),
        )
        np.testing.assert_allclose(model.var(axis=0), expected_var, rtol=0.15)

    @pytest.mark.parametrize("transpose", [False, True])
    def test_mean_and_variance_match_per_device_monte_carlo(self, transpose):
        array = self.make_array()
        lines = array.cols if transpose else array.rows
        voltages = np.random.default_rng(1).uniform(-0.2, 0.2, lines)
        read = array.mvm_t if transpose else array.mvm
        model = np.stack([read(voltages) for _ in range(self.READS)])

        g_now = array._g_programmed
        mc_rng = np.random.default_rng(2)
        reference = np.stack(
            [
                self.monte_carlo(g_now, voltages, transpose, mc_rng)
                for _ in range(self.READS)
            ]
        )
        self.assert_same_law(model, reference, g_now, g_now**2, voltages, transpose)

    @pytest.mark.parametrize("age_seconds", [0.0, 1e6])
    @pytest.mark.parametrize("transpose", [False, True])
    def test_pair_read_matches_difference_of_member_monte_carlos(
        self, age_seconds, transpose
    ):
        pair = self.make_pair()
        lines = pair.positive.cols if transpose else pair.positive.rows
        voltages = np.random.default_rng(1).uniform(-0.2, 0.2, lines)
        read = pair.row_currents if transpose else pair.column_currents
        model = np.stack(
            [read(voltages[:, None], age_seconds)[:, 0] for _ in range(self.READS)]
        )

        g_pos = drifted(pair.positive, age_seconds)
        g_neg = drifted(pair.negative, age_seconds)
        mc_rng = np.random.default_rng(2)
        reference = np.stack(
            [
                self.monte_carlo(g_pos, voltages, transpose, mc_rng)
                - self.monte_carlo(g_neg, voltages, transpose, mc_rng)
                for _ in range(self.READS)
            ]
        )
        self.assert_same_law(
            model, reference, g_pos - g_neg, g_pos**2 + g_neg**2, voltages, transpose
        )

    def test_one_column_read_draws_one_normal_per_line(self):
        """A 1-D read consumes the stream exactly like a one-column block."""
        vector_read, block_read = self.make_array(), self.make_array()
        voltages = np.random.default_rng(4).uniform(0.0, 0.2, vector_read.rows)
        for _ in range(3):
            np.testing.assert_array_equal(
                vector_read.mvm(voltages), block_read.mvm(voltages[:, None])[:, 0]
            )
        assert vector_read.n_col_reads == block_read.n_col_reads == 3

    def test_one_column_pair_read_draws_one_normal_per_line(self):
        """A pair read draws one normal per output line and column, for
        the difference current, and none per member.  The expected
        currents follow the float64 law, both members drifted through
        ``PcmDevice.drifted``.  The read drifts, subtracts and squares in
        float32 and runs both products on the float32 block, so each
        current may move by ``(lines + POWER_EPS) * eps(float32)`` times
        its mean scale ``(G+ + G-)^T |v|`` plus its noise term
        ``sigma * sqrt((G+**2 + G-**2)^T v**2) * |z|``: about 3e-6 of
        them, where a misplaced draw moves it by the noise term itself."""
        pair = self.make_pair()
        twin = np.random.default_rng()
        twin.bit_generator.state = pair._rng.bit_generator.state
        voltages = np.random.default_rng(4).uniform(-0.2, 0.2, pair.positive.rows)
        g_pos, g_neg = drifted(pair.positive, 1e6), drifted(pair.negative, 1e6)
        mean_current = (g_pos - g_neg).T @ voltages
        noise_std = self.SIGMA * np.sqrt((g_pos**2 + g_neg**2).T @ voltages**2)
        scale = (g_pos + g_neg).T @ np.abs(voltages)
        tolerance = (pair.positive.rows + POWER_EPS) * EPS32
        for _ in range(3):
            normals = twin.standard_normal(pair.positive.cols)
            currents = pair.column_currents(voltages[:, None], 1e6)[:, 0]
            expected = mean_current + noise_std * normals
            bound = tolerance * (scale + noise_std * np.abs(normals))
            assert np.all(np.abs(currents - expected) <= bound)
        assert pair._rng.standard_normal() == twin.standard_normal()


class TestDriftExponentCache:
    """Each member of a noisy pair caches its drift exponents ``-nu(G)``
    and its programmed conductances in float32, per read epoch.  An aged
    entry stays within the float32 bounds of the float64 law of
    ``PcmDevice.drifted``, a new age reuses the cached arrays, a member
    state change rebuilds that member's, and a pair that never ages
    holds none."""

    def make_operator(self, **device_kwargs):
        matrix = np.random.default_rng(40).standard_normal((6, 10))
        return CrossbarOperator(matrix, device=PcmDevice(**device_kwargs), seed=41)

    @staticmethod
    def block():
        return np.random.default_rng(42).uniform(-0.2, 0.2, (10, 3))

    def test_new_ages_reuse_the_exponents(self):
        pair = self.make_operator()._tiles[(0, 0)]
        cached = None
        for age in (1e3, 1e6, 2.5e7):
            pair.column_currents(self.block(), age)
            assert_aged_entry_within_the_drifted_law(pair._read_cache, pair, age)
            # (read epoch, float32 -nu(G), float32 G) per member
            current = [array for entry in pair._drift_cache for array in entry[1:]]
            assert all(array.dtype == np.float32 for array in current)
            cached = cached or current
            assert all(a is b for a, b in zip(current, cached))

    MEMBER_CHANGES = {
        "reprogram": lambda member: member.reprogram(),
        "stuck_faults": lambda member: member.inject_stuck_faults(0.3, seed=43),
    }

    @pytest.mark.parametrize("change", list(MEMBER_CHANGES))
    def test_member_change_between_reads_at_one_age(self, change):
        operator = self.make_operator()
        operator.advance_time(1e4)
        pair = operator._tiles[(0, 0)]
        pair.column_currents(self.block(), operator.age_seconds)
        positive, negative = pair._drift_cache
        self.MEMBER_CHANGES[change](pair.positive)
        pair.column_currents(self.block(), operator.age_seconds)
        assert_aged_entry_within_the_drifted_law(
            pair._read_cache, pair, operator.age_seconds
        )
        assert pair._drift_cache[0] is not positive
        assert pair._drift_cache[0][0] == pair.positive._read_epoch
        assert pair._drift_cache[1] is negative

    @pytest.mark.parametrize("age", [0.05, 1.46, 3.3, 1e6])
    def test_each_drifted_conductance_within_a_few_eps_of_the_device_law(self, age):
        """On the serve_drift shard (A 256x256, default device), each
        member's float32 ``G * exp(-nu(G) * log((t0 + t) / t0))`` lies
        within ``DRIFT_EPS * eps(float32)`` of ``PcmDevice.drifted``,
        relative, and the entry built from them within its bounds."""
        matrix = gaussian_measurement_matrix(256, 256, seed=44)
        pair = CrossbarOperator(matrix, seed=45)._tiles[(0, 0)]
        entry = pair._read_entry(age)
        assert_aged_entry_within_the_drifted_law(entry, pair, age)
        log_time = np.float32(math.log(pair.positive.device.drift_time_factor(age)))
        for index, member in enumerate((pair.positive, pair.negative)):
            law = drifted(member, age)
            drifted32 = pair._drifted32(index, member, log_time)
            assert drifted32.dtype == np.float32
            assert np.all(np.abs(drifted32 - law) <= DRIFT_EPS * EPS32 * law)

    @pytest.mark.parametrize("drift_nu, age", [(0.031, 0.0), (0.0, 1e6)])
    def test_a_pair_that_never_drifts_holds_no_exponents(self, drift_nu, age):
        operator = self.make_operator(drift_nu=drift_nu)
        operator.advance_time(age)
        operator.matmat(self.block())
        operator.rmatmat(np.ones((6, 2)))
        assert operator._tiles[(0, 0)]._drift_cache == [None, None]


class _ConstantNormals:
    """A generator stand-in whose every standard normal is ``value``."""

    def __init__(self, value):
        self.value = value

    def standard_normal(self, shape):
        return np.full(shape, self.value)


PAIR_AGE = 1e6


def make_reader(kind, shape, sigma):
    """A fresh array or differential tile pair with ``shape`` devices."""
    g = np.random.default_rng(20).uniform(1e-6, 25e-6, (2, *shape))
    device = PcmDevice(read_noise_sigma=sigma)
    if kind == "array":
        return CrossbarArray(g[0], device=device, seed=21)
    return _TilePair(g[0], g[1], device=device, rng=np.random.default_rng(21))


def traced_peak(call):
    """Peak traced allocation of ``call()`` in bytes, above what was
    allocated before it."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - before


def block_read(reader, block, axis):
    """One block read along ``axis``; a pair reads at ``PAIR_AGE``."""
    if isinstance(reader, CrossbarArray):
        return (reader.mvm, reader.mvm_t)[axis](block)
    return (reader.column_currents, reader.row_currents)[axis](block, PAIR_AGE)


def float64_law(reader):
    """The read law in float64: the mean ``G`` (``G+ - G-``) and the
    noise power ``G**2`` (``G+**2 + G-**2``)."""
    if isinstance(reader, CrossbarArray):
        g = reader._g_programmed
        return g, g**2
    g_pos, g_neg = drifted(reader.positive, PAIR_AGE), drifted(reader.negative, PAIR_AGE)
    return g_pos - g_neg, g_pos**2 + g_neg**2


def mean_currents(mean, power, block, axis):
    """The float32 mean product of a noisy read, as the read forms it:
    ``line_currents`` with every standard normal 0."""
    return line_currents(mean, power, block, axis, 1.0, _ConstantNormals(0.0))


class TestReadPrecision:
    """The precision contract of ``line_currents``: a noisy read caches
    its mean and its noise power in float32, runs both GEMMs on the
    float32 voltage block and returns float64 currents; a noise-free
    device caches a float64 mean and no power, and reads it exactly."""

    @pytest.mark.parametrize("kind", ["array", "pair"])
    def test_noisy_read_caches_float32_mean_and_power(self, kind):
        """An array rounds its float64 mean once; a pair read at
        ``PAIR_AGE`` drifts in float32, within the bounds of
        ``assert_aged_entry_within_the_drifted_law``."""
        reader = make_reader(kind, (12, 9), sigma=0.05)
        currents = block_read(reader, np.full((12, 2), 0.1), axis=0)
        mean, power = reader._read_cache
        if kind == "array":
            law, _ = float64_law(reader)
            np.testing.assert_array_equal(mean, law.astype(np.float32), strict=True)
        else:
            assert_aged_entry_within_the_drifted_law((mean, power), reader, PAIR_AGE)
        assert power.dtype == np.float32
        assert power.shape == mean.shape
        assert currents.dtype == np.float64
        # the programmed state stays float64; only the read cache is float32
        members = [reader] if kind == "array" else [reader.positive, reader.negative]
        assert all(member._g_programmed.dtype == np.float64 for member in members)

    @pytest.mark.parametrize("kind", ["array", "pair"])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_noise_free_read_caches_no_power_and_returns_the_mean(self, kind, axis):
        reader = make_reader(kind, (12, 9), sigma=0.0)
        block = np.random.default_rng(22).uniform(-0.2, 0.2, ((12, 9)[axis], 3))
        currents = block_read(reader, block, axis)
        mean, power = reader._read_cache
        assert power is None
        assert mean.dtype == np.float64
        np.testing.assert_array_equal(currents, (mean.T if axis == 0 else mean) @ block)

    @pytest.mark.parametrize("kind", ["array", "pair"])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_float32_noise_std_of_a_1024_line_read(self, kind, axis):
        """The noise std of a 1024-line read agrees with the float64
        law within ``lines * eps(float32)``."""
        lines = 1024
        reader = make_reader(kind, (lines, 8) if axis == 0 else (8, lines), sigma=0.05)
        block = np.random.default_rng(23).uniform(-0.2, 0.2, (lines, 4))
        block_read(reader, block, axis)
        mean, power = reader._read_cache
        # zero mean, unit sigma and unit normals: the read returns its std
        std = line_currents(
            np.zeros_like(mean), power, block, axis, 1.0, _ConstantNormals(1.0)
        )
        _, law = float64_law(reader)
        reference = np.sqrt((law.T if axis == 0 else law) @ block**2)
        assert std.dtype == np.float64
        np.testing.assert_allclose(std, reference, rtol=lines * np.finfo(np.float32).eps)

    @pytest.mark.parametrize("kind", ["array", "pair"])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_float32_mean_product_of_a_1024_line_read(self, kind, axis):
        """``|I32 - I64| <= lines * eps(float32) * |G|^T |v|`` for every
        current: rounding ``G`` and ``v`` once and accumulating in float32
        each stay inside the standard bound of a float32 dot product."""
        lines = 1024
        reader = make_reader(kind, (lines, 8) if axis == 0 else (8, lines), sigma=0.05)
        block = np.random.default_rng(24).uniform(-0.2, 0.2, (lines, 4))
        block_read(reader, block, axis)
        currents = mean_currents(*reader._read_cache, block, axis)
        law, _ = float64_law(reader)
        law = law.T if axis == 0 else law
        bound = lines * np.finfo(np.float32).eps * (np.abs(law) @ np.abs(block))
        assert currents.dtype == np.float64
        assert np.all(np.abs(currents - law @ block) <= bound)

    @staticmethod
    def assert_no_adc_code_moves(matrix, seed, age):
        """On a single-tile operator of ``matrix`` at ``age``, on 16
        DAC-quantized probes per direction: the float32 read moves each
        noise-free current by under 1e-3 of its own read-noise std and
        1e-4 of one ADC step against the float64 law, and changes no
        code."""
        operator = CrossbarOperator(matrix, seed=seed)
        operator.advance_time(age)
        pair = operator._tiles[(0, 0)]
        entry = pair._read_entry(operator.age_seconds)
        g_pos = drifted(pair.positive, operator.age_seconds)
        g_neg = drifted(pair.negative, operator.age_seconds)
        sigma = operator.device.read_noise_sigma
        probes = np.random.default_rng(seed + 1)
        mean, power = g_pos - g_neg, g_pos**2 + g_neg**2
        for axis, adc in ((0, operator.adc_columns), (1, operator.adc_rows)):
            lines = g_pos.shape[axis]
            normalized, _ = operator._normalize_block(probes.standard_normal((lines, 16)))
            voltages = operator.dac.to_voltages(normalized)
            float32_currents = mean_currents(*entry, voltages, axis)
            float64_currents = (mean.T if axis == 0 else mean) @ voltages
            shift = np.abs(float32_currents - float64_currents)
            std = sigma * np.sqrt((power.T if axis == 0 else power) @ voltages**2)
            assert (shift / std).max() < 1e-3
            assert shift.max() < 1e-4 * adc.lsb
            np.testing.assert_array_equal(
                adc.quantize(float32_currents), adc.quantize(float64_currents)
            )

    @pytest.mark.parametrize("age", [0.0, 1e6])
    def test_float32_mean_moves_no_adc_code_at_cs_single_shape(self, age):
        """The one-signal AMP operator (A 512x1024, one 1024x512 tile
        pair, default device and 8-bit converters), fresh and drifted."""
        matrix = gaussian_measurement_matrix(512, 1024, seed=30)
        self.assert_no_adc_code_moves(matrix, 31, age)

    @pytest.mark.parametrize("age", [0.05, 1.46, 3.3])
    def test_float32_drift_moves_no_adc_code_at_serve_drift_shape(self, age):
        """The serve_drift shard (A 256x256, one 256x256 tile pair), at
        ages its fleet reads at, where the entry drifts in float32.  The
        shifts measured 3.7e-5 of an ADC step at most.  Over 1024 probes
        per direction the float32 read flipped 3 codes in 1.6 million
        conversions against the float64 law, and the float64 re-drift
        rounded once to float32 flipped 1; these 16 probes flip none."""
        matrix = gaussian_measurement_matrix(256, 256, seed=30)
        self.assert_no_adc_code_moves(matrix, 31, age)

    @pytest.mark.parametrize("kind", ["array", "pair"])
    def test_a_warm_one_column_read_copies_no_matrix(self, kind):
        """A warm noisy read of a ``(1024, 1)`` block at 1024x512 peaks
        under 1 MB of traced allocation.  A float32 mean multiplied by
        float64 voltages would be upcast into a 4.2 MB float64 copy on
        every read, with results still inside every tolerance."""
        reader = make_reader(kind, (1024, 512), sigma=0.05)
        block = np.random.default_rng(26).uniform(-0.2, 0.2, (1024, 1))
        block_read(reader, block, axis=0)  # builds the read cache
        assert traced_peak(lambda: block_read(reader, block, axis=0)) < 1 << 20

    def test_a_warm_block_read_converts_in_place(self):
        """A warm noisy ``matmat`` of a ``(1024, 64)`` block at 1024x512
        peaks under 2.2 MiB of traced allocation: normalize, the DAC and
        the ADC each allocate one block and work in place on it (1.94 MiB
        measured).  With a new array for every clip, round and scale the
        same read peaked at 2.50 MiB."""
        matrix = gaussian_measurement_matrix(512, 1024, seed=30)
        operator = CrossbarOperator(matrix, seed=31)
        block = np.random.default_rng(27).standard_normal((1024, 64))
        operator.matmat(block)  # builds the read cache
        assert traced_peak(lambda: operator.matmat(block)) < 2.2 * (1 << 20)

    def test_an_aged_rebuild_makes_no_float64_member_array(self):
        """Rebuilding a warm 256x256 noisy pair's entry at a new age
        peaks under 1 MB of traced allocation: the two float32 drifted
        members and the float32 mean (768 KB).  The float64 re-drift
        peaked at 1.8 MB, and a float64 member array (512 KB) on the
        way to a float32 drift lifts the peak past 1 MB."""
        reader = make_reader("pair", (256, 256), sigma=0.01)
        reader._read_entry(1.0)  # builds the members' float32 drift cache
        assert traced_peak(lambda: reader._read_entry(2.0)) < 1 << 20

    def test_a_fresh_pair_rounds_the_float64_difference_once(self):
        """Age 0 keeps the float64 mean rounded once, bit for bit, and
        the power summed from float32 squares."""
        reader = make_reader("pair", (12, 9), sigma=0.05)
        reader.column_currents(np.full((12, 2), 0.1), 0.0)
        expected = noisy_pair_entry(
            reader.positive._g_programmed, reader.negative._g_programmed
        )
        for cached, fresh in zip(reader._read_cache, expected):
            np.testing.assert_array_equal(cached, fresh, strict=True)
        assert reader._drift_cache == [None, None]


class TestTilePairReads:
    """The pair's cached ``G+ - G-`` and ``G+**2 + G-**2`` track the age
    it is read at and every state change of either member, and both
    members count every read."""

    def make_operator(self):
        matrix = np.random.default_rng(6).standard_normal((6, 10))
        # programming noise keeps reprogramming visible; reads are exact
        return CrossbarOperator(
            matrix,
            device=PcmDevice(read_noise_sigma=0.0),
            dac_bits=None,
            adc_bits=None,
            seed=8,
        )

    @staticmethod
    def expected_product(operator, block, axis):
        """``gain * (G+ - G-)`` applied to ``block``, from both members'
        programmed conductances drifted to the operator's age."""
        pair = operator._tiles[(0, 0)]
        age = operator.age_seconds
        diff = drifted(pair.positive, age) - drifted(pair.negative, age)
        product = diff.T @ block if axis == 0 else diff @ block
        return operator.gain * product / operator._scale

    MUTATIONS = {
        "advance_time": lambda op: op.advance_time(1e5),
        "reprogram": lambda op: op.reprogram(),
        "member_reprogram": lambda op: op._tiles[(0, 0)].negative.reprogram(),
        "operator_stuck_faults": lambda op: op.inject_stuck_faults(0.3, seed=1),
        "member_stuck_faults": lambda op: op._tiles[(0, 0)].positive.inject_stuck_faults(
            0.3, seed=1
        ),
    }

    @pytest.mark.parametrize("mutation", list(MUTATIONS))
    def test_read_after_state_change_uses_fresh_conductances(self, mutation):
        operator = self.make_operator()
        rng = np.random.default_rng(9)
        x_block = rng.standard_normal((10, 3))
        z_block = rng.standard_normal((6, 3))
        operator.advance_time(1e3)
        before = operator.matmat(x_block), operator.rmatmat(z_block)  # fill caches
        self.MUTATIONS[mutation](operator)
        after = operator.matmat(x_block), operator.rmatmat(z_block)
        assert not np.allclose(after[0], before[0], rtol=1e-6)
        np.testing.assert_allclose(
            after[0], self.expected_product(operator, x_block, 0), rtol=1e-10
        )
        np.testing.assert_allclose(
            after[1], self.expected_product(operator, z_block, 1), rtol=1e-10
        )

    def test_both_members_count_every_read_column(self, rng):
        pair = self.make_operator()._tiles[(0, 0)]
        pair.column_currents(rng.uniform(-0.2, 0.2, (10, 4)), 0.0)
        pair.row_currents(rng.uniform(-0.2, 0.2, (6, 2)), 0.0)
        pair.row_currents(rng.uniform(-0.2, 0.2, (6, 1)), 1e3)
        for member in (pair.positive, pair.negative):
            assert member.n_col_reads == 4
            assert member.n_row_reads == 3

    def test_each_new_age_rebuilds_the_entry_with_its_drifted_law(self):
        """Reading at age a, then b, then a again builds a fresh entry
        each time, and each read sees the law drifted to its own age."""
        pair = self.make_operator()._tiles[(0, 0)]
        block = np.random.default_rng(10).uniform(-0.2, 0.2, (10, 3))
        entries = []
        for age in (1e3, 1e6, 1e3):
            currents = pair.column_currents(block, age)
            entries.append(pair._read_cache)
            diff = drifted(pair.positive, age) - drifted(pair.negative, age)
            np.testing.assert_allclose(currents, diff.T @ block, rtol=1e-12)
        assert entries[0] is not entries[1] and entries[1] is not entries[2]
        assert not np.allclose(entries[0][0], entries[1][0], rtol=1e-6)
        np.testing.assert_array_equal(entries[0][0], entries[2][0])

    def test_a_noise_free_pair_drifts_by_the_device_law_bit_for_bit(self):
        """A noise-free pair drifts each member through
        ``PcmDevice.drifted`` in float64 and caches nothing else."""
        operator = self.make_operator()
        operator.advance_time(1e6)
        operator.matmat(np.random.default_rng(15).uniform(-1.0, 1.0, (10, 2)))
        pair = operator._tiles[(0, 0)]
        mean, power = pair._read_cache
        law = drifted(pair.positive, 1e6) - drifted(pair.negative, 1e6)
        np.testing.assert_array_equal(mean, law, strict=True)
        assert power is None
        assert pair._drift_cache == [None, None]

    def test_ageing_leaves_the_member_arrays_alone(self):
        """The operator's age is the only clock: ageing it moves no
        member's read epoch, so no member cache is dropped."""
        matrix = np.random.default_rng(13).standard_normal((20, 24))
        operator = CrossbarOperator(matrix, tile_shape=(8, 8), seed=14)
        members = [
            member
            for pair in operator._tiles.values()
            for member in (pair.positive, pair.negative)
        ]
        epochs = [member._read_epoch for member in members]
        operator.advance_time(1e5)
        assert operator.age_seconds == 1e5
        assert [member._read_epoch for member in members] == epochs
        assert not any(hasattr(member, "age_seconds") for member in members)

    def test_a_zero_tick_keeps_the_cached_entry(self):
        operator = self.make_operator()
        pair = operator._tiles[(0, 0)]
        rng = np.random.default_rng(11)
        operator.advance_time(1e3)
        pair.column_currents(rng.uniform(-0.2, 0.2, (10, 2)), operator.age_seconds)
        entry = pair._read_cache
        operator.advance_time(0.0)
        pair.row_currents(rng.uniform(-0.2, 0.2, (6, 2)), operator.age_seconds)
        assert pair._read_cache is entry
        operator.advance_time(1.0)
        pair.row_currents(rng.uniform(-0.2, 0.2, (6, 2)), operator.age_seconds)
        assert pair._read_cache is not entry

    @pytest.mark.parametrize(
        "mutation", ["reprogram", "operator_stuck_faults", "member_stuck_faults"]
    )
    def test_state_changes_invalidate_the_entry_at_one_age(self, mutation):
        """Reprogramming and stuck faults move a member's read epoch, so
        the next read at the same age rebuilds the entry."""
        operator = self.make_operator()
        pair = operator._tiles[(0, 0)]
        block = np.random.default_rng(12).uniform(-0.2, 0.2, (10, 2))
        pair.column_currents(block, 0.0)
        entry = pair._read_cache
        self.MUTATIONS[mutation](operator)
        assert operator.age_seconds == 0.0
        currents = pair.column_currents(block, 0.0)
        assert pair._read_cache is not entry
        diff = pair.positive._g_programmed - pair.negative._g_programmed
        np.testing.assert_allclose(currents, diff.T @ block, rtol=1e-12)


class TestCounterEquivalence:
    """``matmat`` on B vectors must count exactly like B looped calls."""

    COUNTER_KEYS = (
        "n_matvec",
        "n_rmatvec",
        "n_live_matvec",
        "n_live_rmatvec",
        "dac_conversions",
        "adc_conversions",
    )

    @pytest.mark.parametrize("tile_shape", [(1024, 1024), (16, 16)])
    def test_matmat_counters_equal_looped(self, rng, tile_shape):
        matrix = rng.standard_normal((40, 56))
        batched, looped = make_twins(matrix, tile_shape=tile_shape)
        x_block = rng.standard_normal((56, 6))
        x_block[:, 2] = 0.0  # a zero vector must be skipped identically
        batched.matmat(x_block)
        looped_matvec(looped, x_block)
        for key in self.COUNTER_KEYS:
            assert batched.stats[key] == looped.stats[key], key

    @pytest.mark.parametrize("tile_shape", [(1024, 1024), (16, 16)])
    def test_rmatmat_counters_equal_looped(self, rng, tile_shape):
        matrix = rng.standard_normal((40, 56))
        batched, looped = make_twins(matrix, tile_shape=tile_shape)
        z_block = rng.standard_normal((40, 6))
        z_block[:, 4] = 0.0
        batched.rmatmat(z_block)
        looped_rmatvec(looped, z_block)
        for key in self.COUNTER_KEYS:
            assert batched.stats[key] == looped.stats[key], key


class TestValidation:
    def test_matmat_rejects_bad_shapes(self, small_matrix):
        operator = CrossbarOperator(small_matrix, seed=0)
        m, n = small_matrix.shape
        with pytest.raises(ValueError):
            operator.matmat(np.zeros((m, 3)))  # wrong feature dimension
        with pytest.raises(ValueError):
            operator.matmat(np.zeros(n))  # 1-D input belongs to matvec
        with pytest.raises(ValueError):
            operator.rmatmat(np.zeros((n, 3)))

    def test_empty_batch_bills_zero_conversions(self, small_matrix):
        """A B = 0 matmat/rmatmat is a no-op on the hardware: empty
        result blocks, no logical reads, no DAC/ADC conversions."""
        operator = CrossbarOperator(small_matrix, seed=0)
        m, n = small_matrix.shape
        assert operator.matmat(np.zeros((n, 0))).shape == (m, 0)
        assert operator.rmatmat(np.zeros((m, 0))).shape == (n, 0)
        stats = operator.stats
        assert stats["n_matvec"] == 0 and stats["n_rmatvec"] == 0
        assert stats["n_live_matvec"] == 0 and stats["n_live_rmatvec"] == 0
        assert stats["dac_conversions"] == 0 and stats["adc_conversions"] == 0

    def test_all_zero_block_bills_zero_conversions(self, small_matrix):
        """Zero columns are counted as logical reads but never reach
        the converters, so a fully zero block dissipates nothing."""
        operator = CrossbarOperator(small_matrix, seed=0)
        m, n = small_matrix.shape
        result = operator.matmat(np.zeros((n, 4)))
        assert np.array_equal(result, np.zeros((m, 4)))
        stats = operator.stats
        assert stats["n_matvec"] == 4
        assert stats["n_live_matvec"] == 0
        assert stats["dac_conversions"] == 0 and stats["adc_conversions"] == 0


class TestBatchedCalibration:
    def test_calibrate_recovers_drift_with_batched_probes(self, rng):
        matrix = rng.standard_normal((40, 40))
        operator = CrossbarOperator(
            matrix,
            device=PcmDevice(prog_noise_sigma=0.0, read_noise_sigma=0.0),
            dac_bits=None,
            adc_bits=None,
            seed=0,
        )
        operator.advance_time(1e6)
        x = rng.standard_normal(40)
        exact = matrix @ x
        before = np.linalg.norm(operator.matvec(x) - exact) / np.linalg.norm(exact)
        gain = operator.calibrate(n_probes=8, seed=1)
        after = np.linalg.norm(operator.matvec(x) - exact) / np.linalg.norm(exact)
        assert gain > 1.0
        assert after < 0.5 * before

    def test_calibrate_counts_one_matvec_per_probe(self, rng, small_matrix):
        operator = CrossbarOperator(small_matrix, seed=0)
        operator.calibrate(n_probes=8, seed=1)
        assert operator.stats["n_matvec"] == 8


class TestAcceleratorBatch:
    def test_matmat_matches_region_operator(self, rng, small_matrix):
        """The facade must delegate verbatim: with a deterministic
        device, twin accelerators give bitwise-equal blocks whether
        called through the facade or the region operator directly."""
        facade = CimAccelerator(analog_device=PcmDevice.ideal(), seed=0)
        facade.store_matrix("w", small_matrix)
        direct = CimAccelerator(analog_device=PcmDevice.ideal(), seed=0)
        direct.store_matrix("w", small_matrix)
        x_block = rng.standard_normal((small_matrix.shape[1], 4))
        result = facade.matmat("w", x_block)
        expected = direct.matrix_region("w").matmat(x_block)
        assert result.shape == (small_matrix.shape[0], 4)
        np.testing.assert_allclose(result, expected, atol=1e-12)

    def test_rmatmat_shape(self, rng, small_matrix):
        accelerator = CimAccelerator(seed=0)
        accelerator.store_matrix("w", small_matrix)
        z_block = rng.standard_normal((small_matrix.shape[0], 3))
        assert accelerator.rmatmat("w", z_block).shape == (small_matrix.shape[1], 3)

    def test_batch_validation_messages(self, small_matrix):
        accelerator = CimAccelerator(seed=0)
        accelerator.store_matrix("w", small_matrix)
        m, n = small_matrix.shape
        with pytest.raises(ValueError, match="2-D"):
            accelerator.matmat("w", np.zeros(n))
        with pytest.raises(ValueError, match="rows"):
            accelerator.matmat("w", np.zeros((n + 1, 2)))
        with pytest.raises(KeyError):
            accelerator.matmat("missing", np.zeros((n, 1)))
        # an empty batch passes through and bills nothing
        assert accelerator.matmat("w", np.zeros((n, 0))).shape == (m, 0)
        assert accelerator.stats["w"]["dac_conversions"] == 0
