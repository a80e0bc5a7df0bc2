"""Tests of the bitmap index."""

import numpy as np
import pytest

from repro.analytics import BitmapIndex


@pytest.fixture
def index():
    idx = BitmapIndex(n_entries=6, entry_labels=list("abcdef"))
    idx.add_bin("low", np.array([1, 1, 0, 0, 0, 0]))
    idx.add_bin("high", np.array([0, 0, 1, 1, 1, 1]))
    return idx


class TestConstruction:
    def test_basic_properties(self, index):
        assert index.n_bins == 2
        assert index.labels == ["low", "high"]

    def test_duplicate_label_rejected(self, index):
        with pytest.raises(ValueError, match="already exists"):
            index.add_bin("low", np.zeros(6))

    def test_wrong_mask_shape_rejected(self, index):
        with pytest.raises(ValueError):
            index.add_bin("bad", np.zeros(5))

    def test_label_count_must_match(self):
        with pytest.raises(ValueError):
            BitmapIndex(n_entries=3, entry_labels=["a"])

    def test_needs_at_least_one_entry(self):
        with pytest.raises(ValueError, match="n_entries"):
            BitmapIndex(n_entries=0)

    def test_boolean_masks_coerced_to_uint8(self, index):
        row = index.row("low")
        assert row.dtype == np.uint8


class TestEqualityBins:
    def test_one_bin_per_value(self):
        idx = BitmapIndex(n_entries=5)
        labels = idx.add_equality_bins("color", np.array(["r", "g", "r", "b", "g"]))
        assert len(labels) == 3
        assert np.array_equal(idx.row("color=r"), [1, 0, 1, 0, 0])

    def test_value_column_shape_validated(self):
        idx = BitmapIndex(n_entries=4)
        with pytest.raises(ValueError, match="values must have shape"):
            idx.add_equality_bins("v", np.array([1, 2, 3]))
        assert idx.n_bins == 0

    def test_bins_partition_entries(self):
        values = np.array([3, 1, 4, 1, 5, 9, 2, 6])
        idx = BitmapIndex(n_entries=8)
        idx.add_equality_bins("v", values)
        assert np.array_equal(idx.as_matrix().sum(axis=0), np.ones(8))


class TestRangeBins:
    def test_half_open_ranges(self):
        idx = BitmapIndex(n_entries=4)
        idx.add_range_bins("q", np.array([1, 24, 23, 50]), [1, 24, 51])
        assert np.array_equal(idx.row("q=[1,24)"), [1, 0, 1, 0])
        assert np.array_equal(idx.row("q=[24,51)"), [0, 1, 0, 1])

    def test_rejects_unsorted_edges(self):
        idx = BitmapIndex(n_entries=2)
        with pytest.raises(ValueError, match="ascending"):
            idx.add_range_bins("q", np.array([1, 2]), [5, 1])

    def test_rejects_single_edge(self):
        idx = BitmapIndex(n_entries=2)
        with pytest.raises(ValueError):
            idx.add_range_bins("q", np.array([1, 2]), [5])


class TestAccess:
    def test_row_is_a_copy(self, index):
        row = index.row("low")
        row[:] = 0
        assert index.row("low").sum() == 2

    def test_unknown_label(self, index):
        with pytest.raises(KeyError):
            index.row("missing")
        with pytest.raises(KeyError):
            index.row_address("missing")

    def test_as_matrix(self, index):
        matrix = index.as_matrix()
        assert matrix.shape == (2, 6)

    def test_empty_index_matrix_rejected(self):
        with pytest.raises(ValueError):
            BitmapIndex(n_entries=3).as_matrix()

    def test_entries_matching(self, index):
        assert index.entries_matching(np.array([1, 0, 0, 0, 0, 1])) == ["a", "f"]

    def test_entries_matching_requires_labels(self):
        idx = BitmapIndex(n_entries=2)
        with pytest.raises(ValueError):
            idx.entries_matching(np.array([1, 0]))
