import numpy as np
import pytest
from hypothesis import given, strategies as st

from dinsat.envi import open_envi, write_envi
from dinsat.errors import ConfigError, ShapeError
from dinsat.types import (
    DatasetSplit,
    HyperCube,
    Spectrum,
    WavelengthGrid,
    percent_mse,
    split_dataset,
)


class TestWavelengthGrid:
    def test_rejects_decreasing(self):
        with pytest.raises(ShapeError):
            WavelengthGrid(np.array([500.0, 450.0]))

    def test_rejects_nonpositive(self):
        with pytest.raises(ShapeError):
            WavelengthGrid(np.array([0.0, 500.0]))

    def test_linear_factory(self):
        grid = WavelengthGrid.linear(126)
        assert grid.n_bands == 126
        assert grid.wavelengths_nm[0] == 450.0
        assert grid.wavelengths_nm[-1] == 2500.0


class TestSplitDataset:
    def test_145_sample_reference_counts(self):
        split = split_dataset(145, (0.24, 0.06, 0.70), seed=0)
        assert (len(split.train), len(split.val), len(split.test)) == (35, 9, 101)

    def test_degenerate_all_train(self):
        split = split_dataset(10, (1.0, 0.0, 0.0), seed=3)
        assert sorted(split.train) == list(range(10))
        assert split.val == () and split.test == ()

    def test_deterministic(self):
        a = split_dataset(50, (0.5, 0.2, 0.3), seed=42)
        b = split_dataset(50, (0.5, 0.2, 0.3), seed=42)
        assert a == b

    def test_empty_mandatory_split_rejected(self):
        with pytest.raises(ConfigError):
            split_dataset(100, (0.99, 0.001, 0.0), seed=0)

    @pytest.mark.parametrize("n,fractions,seed", [(7, (0.5, 0.4, 0.09), 0), (3, (0.5, 0.5, 0.0), 1)])
    def test_rounding_past_the_sample_count_rejected(self, n, fractions, seed):
        # 4 + 3 + 1 of 7 and 2 + 2 of 3: a split would come back short.
        with pytest.raises(ConfigError, match="more than the"):
            split_dataset(n, fractions, seed)

    def test_fraction_sum_checked(self):
        with pytest.raises(ConfigError):
            split_dataset(10, (0.8, 0.3, 0.3), seed=0)

    @pytest.mark.parametrize("fractions", [(np.nan, 0.1, 0.1), (0.5, np.inf, 0.1), (0.5, 0.1, -np.inf)])
    def test_non_finite_fraction_rejected(self, fractions):
        with pytest.raises(ConfigError, match="split_fractions must be finite"):
            split_dataset(10, fractions, seed=0)

    @given(
        # n >= 9 keeps round(0.06 * n) >= 1 so the val split is never empty
        n=st.integers(min_value=9, max_value=400),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_disjointness_property(self, n, seed):
        split = split_dataset(n, (0.24, 0.06, 0.70), seed=seed)
        train, val, test = set(split.train), set(split.val), set(split.test)
        assert not (train & val) and not (train & test) and not (val & test)
        assert (train | val | test) <= set(range(n))

    def test_disjointness_enforced_on_type(self):
        with pytest.raises(ConfigError):
            DatasetSplit((0, 1), (1, 2), (3,))


class TestPercentMse:
    def test_identity_is_zero(self):
        s = np.array([0.1, 0.5, 0.9])
        assert percent_mse(s, s) == 0.0

    def test_constant_offset(self):
        ref = np.array([0.1, 0.2, 0.3, 0.4])
        assert percent_mse(ref + 0.1, ref) == pytest.approx(1.0, abs=1e-12)

    def test_unit_swap(self):
        assert percent_mse(np.array([0.0, 1.0]), np.array([1.0, 0.0])) == pytest.approx(100.0)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            percent_mse(np.zeros(3), np.zeros(4))

    @given(
        st.lists(st.floats(min_value=-2, max_value=2), min_size=2, max_size=20),
        st.lists(st.floats(min_value=-2, max_value=2), min_size=2, max_size=20),
    )
    def test_nonnegative_zero_iff_equal(self, a, b):
        n = min(len(a), len(b))
        pa, pb = np.array(a[:n]), np.array(b[:n])
        value = percent_mse(pa, pb)
        assert value >= 0.0
        if np.array_equal(pa, pb):
            assert value == 0.0
        elif np.max(np.abs(pa - pb)) > 1e-6:
            assert value > 0.0


class TestSpectrumInvariants:
    def test_nonfinite_rejected(self):
        with pytest.raises(ShapeError):
            Spectrum(np.array([1.0, np.nan]))


class TestHyperCubeInvariants:
    @staticmethod
    def layouts(data):
        """``data`` in C order and as a view of a band-sequential copy."""
        return [data, np.ascontiguousarray(data.transpose(2, 0, 1)).transpose(1, 2, 0)]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_rejected(self, bad):
        data = np.ones((3, 4, 2))
        data[2, 1, 1] = bad
        for layout in self.layouts(data):
            with pytest.raises(ShapeError, match="^cube data must be finite$"):
                HyperCube(WavelengthGrid.linear(2), layout)

    def test_negative_rejected(self):
        data = np.ones((3, 4, 2))
        data[1, 3, 0] = -1e-300
        for layout in self.layouts(data):
            with pytest.raises(ShapeError, match="^cube radiance must be nonnegative$"):
                HyperCube(WavelengthGrid.linear(2), layout)

    def test_nonfinite_reported_before_negative(self):
        data = np.ones((3, 4, 2))
        data[0, 0, 0], data[2, 3, 1] = -1.0, np.nan
        for layout in self.layouts(data):
            with pytest.raises(ShapeError, match="must be finite"):
                HyperCube(WavelengthGrid.linear(2), layout)

    def test_band_sequential_view_kept(self):
        data = self.layouts(np.ones((3, 4, 2)))[1]
        assert HyperCube(WavelengthGrid.linear(2), data).data is data

    def test_zero_rows_accepted(self):
        assert HyperCube(WavelengthGrid.linear(2), np.empty((0, 4, 2))).rows == 0


class TestHyperCubePixels:
    @pytest.mark.parametrize("coords", [[(3, 0)], [(0, 4)], [(0, 0), (-1, 2)]])
    def test_outside_pixel_rejected(self, tmp_path, coords):
        cube = HyperCube(WavelengthGrid.linear(2), np.zeros((3, 4, 2)))
        write_envi(cube, tmp_path / "c.hdr")
        with pytest.raises(ShapeError, match="outside the 3 x 4 cube"):
            open_envi(tmp_path / "c.hdr").extrema_and_pixels(coords)
