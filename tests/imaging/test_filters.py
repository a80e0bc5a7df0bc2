"""Tests of the guided and bilateral filters (Fig. 5 behaviour)."""

import numpy as np
import pytest

from repro.imaging import bilateral_filter, box_filter, guided_filter
from repro.workloads.images import add_gaussian_noise, edge_texture_image, step_edge_image


def edge_contrast(image):
    """Mean intensity jump across the central vertical edge."""
    width = image.shape[1]
    left = image[:, width // 2 - 2]
    right = image[:, width // 2 + 1]
    return float(np.mean(right - left))


def texture_energy(image):
    """High-frequency energy away from the edge."""
    region = image[:, : image.shape[1] // 2 - 4]
    return float(np.var(region))


class TestGuidedFilter:
    def test_constant_image_fixed_point(self):
        image = np.full((16, 16), 0.5)
        assert np.allclose(guided_filter(image, radius=3, eps=1e-3), 0.5)

    def test_large_eps_approaches_box_filter(self, rng):
        """With eps >> var(I) the linear model degenerates to a mean."""
        image = rng.random((24, 24))
        smoothed = guided_filter(image, radius=3, eps=1e4)
        boxed = box_filter(box_filter(image, 3), 3)
        assert np.allclose(smoothed, boxed, atol=1e-2)

    def test_edge_preserving_smoothing(self):
        """The Fig. 5 behaviour: texture removed, edge kept."""
        noisy = add_gaussian_noise(edge_texture_image(48, 48, seed=0), 0.04, seed=1)
        filtered = guided_filter(noisy, radius=4, eps=0.02)
        assert texture_energy(filtered) < 0.3 * texture_energy(noisy)
        assert edge_contrast(filtered) > 0.7 * edge_contrast(noisy)

    def test_cross_filtering_uses_guidance_edges(self):
        """Filtering noise with a clean guide transfers the guide's edge."""
        guide = step_edge_image(32, 32)
        rng = np.random.default_rng(2)
        target = guide + 0.1 * rng.standard_normal(guide.shape)
        out = guided_filter(guide, target, radius=4, eps=1e-4)
        assert edge_contrast(out) > 0.5

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            guided_filter(np.zeros((4, 4)), np.zeros((4, 5)))

    def test_guidance_must_be_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            guided_filter(np.zeros(16))

    @pytest.mark.parametrize("bad", [{"radius": 0}, {"eps": 0.0}])
    def test_parameter_validation(self, bad):
        with pytest.raises(ValueError):
            guided_filter(np.zeros((8, 8)), **bad)


class TestBilateralFilter:
    def test_constant_image_fixed_point(self):
        image = np.full((12, 12), 0.3)
        assert np.allclose(bilateral_filter(image, radius=2), 0.3)

    def test_edge_preserving_smoothing(self):
        noisy = add_gaussian_noise(edge_texture_image(48, 48, seed=3), 0.04, seed=4)
        filtered = bilateral_filter(noisy, radius=4, sigma_spatial=2.5, sigma_range=0.15)
        assert texture_energy(filtered) < 0.5 * texture_energy(noisy)
        assert edge_contrast(filtered) > 0.7 * edge_contrast(noisy)

    def test_large_sigma_range_becomes_gaussian_blur(self):
        """With sigma_range -> inf the range kernel is flat and the edge
        blurs much more than with a tight range kernel."""
        image = step_edge_image(24, 24)
        tight = bilateral_filter(image, radius=4, sigma_range=0.05)
        loose = bilateral_filter(image, radius=4, sigma_range=50.0)
        assert edge_contrast(loose) < edge_contrast(tight)

    def test_image_must_be_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            bilateral_filter(np.zeros((2, 8, 8)))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            bilateral_filter(np.zeros((8, 8)), radius=0)
        with pytest.raises(ValueError):
            bilateral_filter(np.zeros((8, 8)), sigma_range=0.0)

    def test_guided_and_bilateral_agree_on_smooth_regions(self):
        """Both edge-preserving filters should produce similar output on
        a noisy flat region (Fig. 5 shows them as alternatives)."""
        rng = np.random.default_rng(5)
        flat = 0.5 + 0.05 * rng.standard_normal((24, 24))
        g = guided_filter(flat, radius=3, eps=0.01)
        b = bilateral_filter(flat, radius=3, sigma_range=0.2)
        assert np.mean(np.abs(g - b)) < 0.02
