"""Golden regression for fixed-seed analog MVM outputs.

``matvec``/``rmatvec`` consume the operator's RNG stream in a pinned
order: programming draws at construction, then, per call, one
output-referred read-noise draw per tile pair (one normal per output
line of the pair's difference current, as a one-column block read).  Refactors are required
to leave this stream untouched: if an implementation change reorders or
re-shapes any draw, every downstream figure in the paper reproduction
silently shifts.  These goldens (default PCM device, 8/8-bit
converters) catch that.

Tolerance note: values are compared loosely enough (``rtol=1e-7``) to
survive BLAS summation-order differences across platforms, but far
tighter than the percent-level shifts an RNG-order change produces.
"""

import numpy as np
import pytest

from repro.crossbar import CrossbarArray, CrossbarOperator
from repro.devices import PcmDevice

GOLDEN_MATVEC_FIRST = np.array(
    [
        -0.8192297915520271,
        4.300956405648142,
        2.0480744788800678,
        3.0721117183201017,
        4.915378749312163,
        -0.40961489577601357,
    ]
)

# Second call on the same operator: the read-noise stream has advanced,
# so this pins the *order* of per-call draws, not just the first one
# (one output differs from the first call by one ADC step).
GOLDEN_MATVEC_SECOND = np.array(
    [
        -0.8192297915520271,
        4.300956405648142,
        2.2528819267680746,
        3.0721117183201017,
        4.915378749312163,
        -0.40961489577601357,
    ]
)

# Third call, transpose direction: pins the shared stream across
# matvec and rmatvec.
GOLDEN_RMATVEC_THIRD = np.array(
    [
        -0.6271995285688061,
        0.7167994612214927,
        0.5375995959161196,
        -2.5983980469279113,
        0.0,
        -1.791998653053732,
        0.0,
        0.6271995285688061,
        -1.4335989224429855,
        0.08959993265268659,
    ]
)

# Calibration probes are one batched read (output-referred noise, one
# draw per output element per probe); these pin the fitted gain and the
# first post-calibrate matvec, so the calibrate-then-read stream is
# guarded against further reorderings.
GOLDEN_CALIBRATED_GAIN = 1.1569645207486825
GOLDEN_MATVEC_CALIBRATED = np.array(
    [
        -0.9478198031660342,
        4.265189114247153,
        2.1325945571235767,
        3.0804143602896112,
        4.739099015830171,
        -0.4739099015830171,
    ]
)

# A multi-tile grid consumes the stream tile by tile; this pins the
# per-tile draw order (3 row spans x 2 col spans for a (6, 10) matrix
# stored transposed with 4x4 tiles).
GOLDEN_MATVEC_TILED = np.array(
    [
        -0.8192297915520274,
        4.0961489577601355,
        2.252881926768075,
        3.276919166208108,
        4.915378749312163,
        -0.4096148957760135,
    ]
)


# Drift-trajectory pins: the default device's amorphous/crystalline
# exponent interpolation over six equispaced states spanning the full
# conductance window, at two ages.  The fully crystalline state
# (g_max) must not drift at all; the near-g_min state drifts with the
# full exponent.  These values are pure (RNG-free) device physics.
GOLDEN_DRIFT_LEVELS = np.linspace(0.1e-6, 25e-6, 6)
GOLDEN_DRIFTED_1E3 = np.array(
    [
        8.072100188541932e-08,
        4.280090452205959e-06,
        8.84687532254117e-06,
        1.3805192082395416e-05,
        1.918056437596782e-05,
        2.5e-05,
    ]
)
GOLDEN_DRIFTED_1E6 = np.array(
    [
        6.516283738603728e-08,
        3.606315359108282e-06,
        7.780329190458862e-06,
        1.26720778079773e-05,
        1.837655380293331e-05,
        2.5e-05,
    ]
)

# Effective array conductances after programming (seeded draws) plus
# 1e6 s of drift — pins the composition of the program-and-verify RNG
# stream with the drift law, so a refactor of either cannot silently
# shift every aged-fleet figure.
GOLDEN_G_EFFECTIVE_ROW0 = np.array(
    [
        1.3303374892455503e-05,
        2.394791411152579e-05,
        1.567710723977101e-05,
        1.2128875378826626e-05,
    ]
)
GOLDEN_G_EFFECTIVE_ROW2 = np.array(
    [
        1.1065421216218277e-05,
        2.1410002630726786e-05,
        5.949508882271122e-06,
        1.6370798546674464e-06,
    ]
)


def fixed_inputs():
    matrix = np.random.default_rng(2024).standard_normal((6, 10))
    x = np.random.default_rng(99).standard_normal(10)
    z = np.random.default_rng(7).standard_normal(6)
    return matrix, x, z


def fixed_target_conductance():
    matrix, _, _ = fixed_inputs()
    block = np.abs(matrix[:4, :4])
    return block / block.max() * 25e-6


class TestGoldenMatvec:
    def test_fixed_seed_outputs_are_pinned(self):
        matrix, x, z = fixed_inputs()
        operator = CrossbarOperator(matrix, seed=7)
        np.testing.assert_allclose(
            operator.matvec(x), GOLDEN_MATVEC_FIRST, rtol=1e-7, atol=1e-12
        )
        np.testing.assert_allclose(
            operator.matvec(x), GOLDEN_MATVEC_SECOND, rtol=1e-7, atol=1e-12
        )
        np.testing.assert_allclose(
            operator.rmatvec(z), GOLDEN_RMATVEC_THIRD, rtol=1e-7, atol=1e-12
        )

    def test_fixed_seed_tiled_outputs_are_pinned(self):
        matrix, x, _ = fixed_inputs()
        operator = CrossbarOperator(matrix, tile_shape=(4, 4), seed=11)
        np.testing.assert_allclose(
            operator.matvec(x), GOLDEN_MATVEC_TILED, rtol=1e-7, atol=1e-12
        )

    def test_fixed_seed_calibrated_outputs_are_pinned(self):
        matrix, x, _ = fixed_inputs()
        operator = CrossbarOperator(matrix, seed=7)
        operator.advance_time(1e5)
        gain = operator.calibrate(n_probes=4, seed=3)
        assert gain == pytest.approx(GOLDEN_CALIBRATED_GAIN, rel=1e-7)
        np.testing.assert_allclose(
            operator.matvec(x), GOLDEN_MATVEC_CALIBRATED, rtol=1e-7, atol=1e-12
        )

    def test_fixed_drift_trajectories_are_pinned(self):
        """``PcmDevice.drifted`` is pure arithmetic: pin the
        state-dependent exponent interpolation at two ages."""
        device = PcmDevice()
        np.testing.assert_allclose(
            device.drifted(GOLDEN_DRIFT_LEVELS, 1e3),
            GOLDEN_DRIFTED_1E3,
            rtol=1e-12,
        )
        np.testing.assert_allclose(
            device.drifted(GOLDEN_DRIFT_LEVELS, 1e6),
            GOLDEN_DRIFTED_1E6,
            rtol=1e-12,
        )
        # endpoints of the physics: crystalline g_max pinned in place,
        # and drift only ever decays
        assert device.drifted(GOLDEN_DRIFT_LEVELS, 1e6)[-1] == 25e-6
        assert (device.drifted(GOLDEN_DRIFT_LEVELS, 1e6)
                <= GOLDEN_DRIFT_LEVELS).all()

    def test_fixed_seed_aged_g_effective_is_pinned(self):
        """Programming draws (seeded) composed with 1e6 s of drift."""
        array = CrossbarArray(fixed_target_conductance(), seed=7)
        aged = array.device.drifted(array._g_programmed, 1e6)
        np.testing.assert_allclose(
            aged[0], GOLDEN_G_EFFECTIVE_ROW0, rtol=1e-12
        )
        np.testing.assert_allclose(
            aged[2], GOLDEN_G_EFFECTIVE_ROW2, rtol=1e-12
        )
        # a fresh twin presents exactly its programmed state
        fresh = CrossbarArray(fixed_target_conductance(), seed=7)
        assert np.array_equal(
            fresh.device.drifted(fresh._g_programmed, 0.0), fresh._g_programmed
        )

    def test_goldens_are_in_the_plausible_range(self):
        """Guard the goldens themselves: they must sit within the PCM
        error regime of the exact products, so a regenerated golden
        can't silently encode a broken implementation."""
        matrix, x, z = fixed_inputs()
        exact = matrix @ x
        for golden in (GOLDEN_MATVEC_FIRST, GOLDEN_MATVEC_SECOND, GOLDEN_MATVEC_TILED):
            err = np.linalg.norm(golden - exact) / np.linalg.norm(exact)
            assert err < 0.15
        exact_t = matrix.T @ z
        err = np.linalg.norm(GOLDEN_RMATVEC_THIRD - exact_t) / np.linalg.norm(exact_t)
        assert err < 0.15
