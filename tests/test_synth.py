import numpy as np
import pytest

from dinsat.correction import correct_pixel
from dinsat.envi import open_envi, write_envi
from dinsat.errors import ConfigError
from dinsat.ode import SolverConfig
from dinsat.synth import SynthSpec, sample_pixels, synth_scene

SMALL = dict(rows=8, cols=8, n_bands=30)


class TestSpecValidation:
    def test_center_outside_grid_rejected(self):
        with pytest.raises(ConfigError):
            SynthSpec(absorption_bands=((3000.0, 40.0, 1.0),))

    def test_negative_depth_rejected(self):
        with pytest.raises(ConfigError):
            SynthSpec(absorption_bands=((940.0, 40.0, -1.0),))

    def test_single_material_rejected(self):
        with pytest.raises(ConfigError):
            SynthSpec(n_materials=1)


class TestSynthScene:
    def test_transparent_atmosphere_is_identity(self):
        spec = SynthSpec(
            **SMALL,
            absorption_bands=(),
            baseline_alpha=0.0,
            dark_level=0.0,
            illumination=1.0,
            noise_std=0.0,
        )
        cube, truth = synth_scene(spec, seed=4)
        np.testing.assert_allclose(cube.data, truth.rho, atol=1e-15)

    def test_deterministic(self):
        spec = SynthSpec(**SMALL, noise_std=0.03)
        a, _ = synth_scene(spec, seed=11)
        b, _ = synth_scene(spec, seed=11)
        np.testing.assert_array_equal(a.data, b.data)

    def test_noise_free_analytic_round_trip(self):
        # The generator uses closed-form physics; the solver-based correction
        # must still undo it to within its own discretization error. At the
        # deepest feature (alpha ~ 2.3) the two-pass RK4 truncation error is
        # ~2*alpha^5/(120*steps^4), so 64 steps are needed to reach 1e-6.
        spec = SynthSpec(**SMALL)
        cube, truth = synth_scene(spec, seed=2)
        cfg = SolverConfig("rk4", 64)
        for r, c in [(0, 1), (3, 3), (7, 5)]:
            rho = correct_pixel(truth.profile, truth.norm, cube.pixel(r, c), cfg)
            assert np.max(np.abs(rho.values - truth.rho[r, c])) < 1e-6

    def test_radiance_dominates_dark_offset_at_zero_noise(self):
        spec = SynthSpec(**SMALL)
        cube, truth = synth_scene(spec, seed=9)
        assert np.all(cube.data >= truth.norm.c - 1e-12)

    def test_calibration_panels(self):
        _, truth = synth_scene(SynthSpec(**SMALL), seed=1)
        np.testing.assert_array_equal(truth.rho[0, 0], 0.0)
        np.testing.assert_array_equal(truth.rho[0, 1], 1.0)

    def test_transmittance_minima_at_band_centers(self):
        spec = SynthSpec(n_bands=126)
        _, truth = synth_scene(spec, seed=0)
        wl = truth.grid.wavelengths_nm
        trans = np.exp(-truth.alpha)
        for center, width, _depth in spec.absorption_bands:
            lo, hi = center - 3 * width, center + 3 * width
            window = np.flatnonzero((wl >= lo) & (wl <= hi))
            local_min = window[np.argmin(trans[window])]
            nearest = int(np.argmin(np.abs(wl - center)))
            assert abs(local_min - nearest) <= 1


class TestSamplePixels:
    def test_distinct_and_in_bounds(self):
        cube, truth = synth_scene(SynthSpec(**SMALL), seed=5)
        coords, _, _ = sample_pixels(cube, truth, 20, seed=3)
        assert coords.shape == (20, 2)
        coords = {(r, c) for r, c in coords.tolist()}
        assert len(coords) == 20
        assert all(0 <= r < 8 and 0 <= c < 8 for r, c in coords)

    def test_truth_pairing(self):
        cube, truth = synth_scene(SynthSpec(**SMALL), seed=5)
        coords, l4, rho = sample_pixels(cube, truth, 5, seed=0)
        for (r, c), l4_row, rho_row in zip(coords, l4, rho):
            np.testing.assert_array_equal(rho_row, truth.rho[r, c])
            np.testing.assert_array_equal(l4_row, cube.data[r, c])

    def test_oversampling_rejected(self):
        cube, truth = synth_scene(SynthSpec(**SMALL), seed=5)
        with pytest.raises(ConfigError):
            sample_pixels(cube, truth, 65, seed=0)

    @pytest.mark.parametrize("interleave", ["bsq", "bil", "bip"])
    def test_envi_cube_matches_in_memory_cube(self, tmp_path, interleave):
        cube, _ = synth_scene(SynthSpec(**SMALL), seed=5)
        write_envi(cube, tmp_path / "scene.hdr", interleave=interleave, data_type=5)
        coords, l4, rho = sample_pixels(cube, None, 20, seed=3)
        envi_coords, envi_l4, _ = sample_pixels(open_envi(tmp_path / "scene.hdr"), None, 20, seed=3)
        assert rho is None
        np.testing.assert_array_equal(envi_coords, coords)
        np.testing.assert_array_equal(envi_l4, l4)
