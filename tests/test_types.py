import numpy as np
import pytest
from hypothesis import given, strategies as st

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

    def test_fraction_sum_checked(self):
        with pytest.raises(ConfigError):
            split_dataset(10, (0.8, 0.3, 0.3), seed=0)

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
        s = Spectrum(np.array([0.1, 0.5, 0.9]), "reflectance")
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


class TestHyperCubePixels:
    def test_rows_in_coordinate_order(self):
        data = np.random.default_rng(1).uniform(0, 1, (3, 4, 2))
        cube = HyperCube(WavelengthGrid.linear(2), data)
        out = cube.pixels([(2, 3), (0, 0), (2, 3)])
        np.testing.assert_array_equal(out, data[[2, 0, 2], [3, 0, 3]])
        np.testing.assert_array_equal(out[1], cube.pixel(0, 0).values)

    @pytest.mark.parametrize("coords", [[(3, 0)], [(0, 4)], [(0, 0), (-1, 2)]])
    def test_outside_pixel_rejected(self, coords):
        cube = HyperCube(WavelengthGrid.linear(2), np.zeros((3, 4, 2)))
        with pytest.raises(ShapeError, match="outside the 3 x 4 cube"):
            cube.pixels(coords)
