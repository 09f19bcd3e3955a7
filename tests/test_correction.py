from dataclasses import replace

import numpy as np
import pytest

from dinsat.correction import (
    EPS_T,
    MASK_DENOM_FLOORED,
    MASK_RHO_OUT_OF_RANGE,
    RHO_RANGE_TOL,
    SceneNormalization,
    correct_batch,
    estimate_normalization,
    simulate_values,
)
from dinsat.errors import ConfigError, EmptyInputError, NumericError, ShapeError
from dinsat.ode import SolverConfig
from dinsat.synth import SynthSpec, synth_scene
from dinsat.training import TrainConfig, train
from dinsat.transmission import LinearProfile, NonlinearProfile

from oracles import linear_profile, sample_pixels

CFG = SolverConfig("rk4", 16)


def identity_model(n):
    return LinearProfile(np.full(n, -40.0), CFG)


class TestNormalizationEstimates:
    def test_dark_offset_per_band_min(self):
        np.testing.assert_allclose(
            estimate_normalization(np.array([[1.0, 2.0], [3.0, 0.5]])).c, [1.0, 0.5]
        )

    def test_dark_offset_single_pixel(self):
        np.testing.assert_allclose(estimate_normalization(np.array([[0.4, 0.2]])).c, [0.4, 0.2])

    def test_dark_offset_degenerate_scene(self):
        pixels = np.array([[0.7, 0.3]] * 4)
        norm = estimate_normalization(pixels)
        np.testing.assert_allclose(norm.c, [0.7, 0.3])
        np.testing.assert_allclose((pixels[0] - norm.c) / norm.m, 0.0)

    def test_dark_offset_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            estimate_normalization(np.empty((0, 2)))

    def test_scale_direct(self):
        assert estimate_normalization(np.array([[1.0, 2.0], [3.0, 0.5]])).m == 2.0

    def test_scale_degenerate_is_one(self):
        assert estimate_normalization(np.array([[0.7, 0.3]])).m == 1.0

    def test_scale_homogeneity(self):
        pixels = np.array([[1.0, 2.0], [3.0, 0.5]])
        scaled = pixels * 10.0
        assert estimate_normalization(scaled).m == pytest.approx(
            10.0 * estimate_normalization(pixels).m
        )

    def test_normalization_bounds_scene(self):
        rng = np.random.default_rng(0)
        pixels = np.stack([rng.uniform(0, 5, 6) for _ in range(30)])
        norm = estimate_normalization(pixels)
        z = (pixels - norm.c) / norm.m
        assert z.min() >= 0.0
        assert z.max() <= 1.0 + 1e-9

    def test_cube_matches_stacked_pixels_bit_for_bit(self):
        cube, _ = synth_scene(SynthSpec(rows=9, cols=7, n_bands=16, noise_std=0.05), seed=11)
        # The per-pixel reference: stack every pixel, then reduce as one matrix.
        stacked = np.stack([cube.data[r, c] for r in range(cube.rows) for c in range(cube.cols)])
        c_ref = stacked.min(axis=0)
        m_ref = float((stacked - c_ref).max())
        norm = estimate_normalization(cube.data)
        np.testing.assert_array_equal(norm.c, c_ref)
        assert norm.m == m_ref


class TestCorrectPixel:
    def test_identity_model(self):
        n = 4
        norm = SceneNormalization.identity(n)
        l4 = np.array([0.1, 0.4, 0.9, 0.0])
        out, _ = correct_batch(identity_model(n), norm, l4)
        np.testing.assert_allclose(out, l4, atol=1e-12)

    def test_linear_ln2_analytic(self):
        n = 5
        model = linear_profile(np.full(n, np.log(2.0)))
        norm = SceneNormalization.identity(n)
        out, _ = correct_batch(model, norm, np.full(n, 0.1))
        np.testing.assert_allclose(out, 0.4, rtol=1e-6)

    def test_dark_pixel_zero(self):
        c = np.array([0.3, 0.1])
        norm = SceneNormalization(c, 2.0)
        out, _ = correct_batch(identity_model(2), norm, c)
        np.testing.assert_allclose(out, 0.0)

    def test_quality_mask_marks_out_of_range(self):
        model = linear_profile(np.array([2.0, 0.01]))
        norm = SceneNormalization.identity(2)
        rho, mask = correct_batch(model, norm, np.array([[1.0, 0.2]]))
        assert rho[0, 0] > 1.0  # strong absorption inflates the estimate
        assert mask[0, 0] & MASK_RHO_OUT_OF_RANGE
        assert mask[0, 1] == 0


def bsq_rows(values):
    """The (rows, cols, bands) ``values`` laid out band-sequentially: each row is not C-ordered."""
    return np.ascontiguousarray(np.transpose(values, (2, 0, 1))).transpose(1, 2, 0)


class TestCorrectBatchOut:
    """``out=(rho, mask)`` writes what the allocating call returns, cast to the out dtypes."""

    # One Euler step multiplies by 1 - alpha: T(1) is 1 in band 0, 1e-7
    # (floored) in band 1, and -0.5 in band 2, whose reflectance is negative.
    EULER_1 = SolverConfig("euler", 1)

    def linear_case(self):
        model = LinearProfile(np.concatenate([[-40.0], linear_profile([1.0 - 1e-7, 1.5]).params]),
                              self.EULER_1)
        t1 = model.t1
        assert t1[0] == 1.0 and 0 < t1[1] < EPS_T and t1[2] == -0.5
        # rho is z in band 0 and -z / 0.5 / EPS_T in band 2: values on both
        # sides of 1 + RHO_RANGE_TOL and of -RHO_RANGE_TOL.
        hi = 1.0 + RHO_RANGE_TOL
        band0 = [0.5, hi, np.nextafter(hi, 2.0), np.nextafter(hi, 0.0), 2.0, 0.0]
        band2 = np.array([0.5, 1 + 1e-9, 1 - 1e-9, 2.0, 0.0, 1.5]) * (0.5 * EPS_T * RHO_RANGE_TOL)
        rows = np.stack([band0, np.linspace(0.0, 1.0, 6), band2], axis=-1)  # (6 px, 3 bands)
        return model, np.stack([rows, rows[::-1]])  # (2 rows, 6 cols, 3 bands)

    @pytest.mark.parametrize("layout", ["C", "bsq"])
    def test_out_equals_the_allocating_call_cast(self, layout):
        # A linear T^-1 is an exact division, in float64 either way; a
        # stepped one runs in float32 here (TestFloat32Solve).
        model, cube = self.linear_case()
        norm = SceneNormalization(np.zeros(cube.shape[-1]), 1.0)
        cube = cube if layout == "C" else bsq_rows(cube)
        for row in cube:
            assert row.flags.c_contiguous == (layout == "C")
            before = row.copy()
            rho_ref, mask_ref = correct_batch(model, norm, row)
            assert (rho_ref.dtype, mask_ref.dtype) == (np.float64, np.uint8)
            rho, mask = np.empty_like(row, dtype=np.float32), np.empty_like(row, dtype=np.uint16)
            returned = correct_batch(model, norm, row, out=(rho, mask))
            assert returned[0] is rho and returned[1] is mask
            np.testing.assert_array_equal(rho.view(np.uint32), rho_ref.astype(np.float32).view(np.uint32))
            np.testing.assert_array_equal(mask, mask_ref.astype(np.uint16))
            np.testing.assert_array_equal(row, before)

    def test_linear_case_sets_each_bit_where_expected(self):
        model, cube = self.linear_case()
        rho, mask = correct_batch(model, SceneNormalization(np.zeros(3), 1.0), cube[0])
        floored, out = MASK_DENOM_FLOORED, MASK_RHO_OUT_OF_RANGE
        np.testing.assert_array_equal(mask[:, 0], [0, 0, out, 0, out, 0])
        np.testing.assert_array_equal(mask[:, 1], floored | np.where(rho[:, 1] > 1.0 + RHO_RANGE_TOL, out, 0))
        np.testing.assert_array_equal(mask[:, 2], floored | np.array([0, out, 0, out, 0, out]))
        # The range bit comes from the float64 reflectance: in float32 the two
        # values beside -RHO_RANGE_TOL are one value.
        assert np.float32(rho[1, 2]) == np.float32(rho[2, 2])

    def test_reflectance_beyond_float32_is_numeric_error_naming_the_bands(self):
        # Euler with alpha one ulp from 16: T(1) is tiny but not 0, so the
        # reflectance is finite in float64 and beyond float32's range.
        model = replace(linear_profile([0.5, np.nextafter(16.0, 17.0), np.nextafter(16.0, 0.0)]),
                        solver=SolverConfig("euler", 16))
        norm = SceneNormalization.identity(3)
        row = np.full((4, 3), 0.5)
        rho_ref, _ = correct_batch(model, norm, row)
        assert np.isfinite(rho_ref).all() and (np.abs(rho_ref[:, 1:]) > np.finfo(np.float32).max).all()
        rho, mask = np.empty_like(row, dtype=np.float32), np.empty_like(row, dtype=np.uint16)
        with pytest.raises(NumericError, match=r"float32's range in band\(s\) 1, 2$"):
            correct_batch(model, norm, row, out=(rho, mask))


def float32_ulps(a, b):
    """|a - b| per element of two float32 arrays, in units in the last place: the float32 steps between them."""
    def ordered(x):
        bits = x.view(np.int32).astype(np.int64)
        return np.where(bits < 0, -(bits & 0x7FFFFFFF), bits)
    return np.abs(ordered(a) - ordered(b))


@pytest.fixture(scope="module")
def trained_nonlinear():
    """A nonlinear profile trained as the benchmark trains one (126 bands, 40 epochs), with its scene and norm."""
    cube, truth = synth_scene(SynthSpec(rows=16, cols=16, noise_std=0.01), seed=2)
    _, l4, rho = sample_pixels(cube, truth, 64, seed=0)
    norm = estimate_normalization(cube.data)
    run = train(TrainConfig(model_kind="nonlinear", max_epochs=40, patience=40), l4, norm, rho)
    return run.model, norm, cube.data


class TestFloat32Solve:
    """A float32 ``out`` has a stepped T^-1 solved in float32: within a few ulps of the float64 call cast.

    Measured over 20 or more scenes or draws of 256 to 1,024 px each, the
    float32 result was at most 8 float32 ulps from the float64 one cast for
    the trained profile, the initial weights and the weights x 3 (bound 16,
    a margin of 2x), and 11 to 417 ulps over 38 draws of the weights x 10
    and their inputs (bound 1024, a margin of 2.4x): that network is
    ill-conditioned, and its float64 round trip T(T^-1(z)) itself misses z
    by up to 5e-4 on five such draws. No mask bit changed in any of them.
    The data here give 7, 8, 7 and 14 ulps.
    """

    @pytest.fixture(params=["trained", 1, 3, 10])
    def case(self, request, trained_nonlinear):
        if request.param == "trained":
            return (*trained_nonlinear, 16)
        model = NonlinearProfile.initialize(126, np.random.default_rng(0))
        model = NonlinearProfile(model.params * request.param, 126)
        cube = np.random.default_rng(0).uniform(0.0, 1.0, (8, 64, 126))
        return model, SceneNormalization.identity(126), cube, 1024 if request.param == 10 else 16

    @pytest.mark.parametrize("layout", ["C", "bsq"])
    def test_within_the_ulp_bound_of_the_float64_call_cast(self, case, layout):
        model, norm, cube, bound = case
        cube = cube if layout == "C" else bsq_rows(cube)
        worst = 0
        for row in cube:
            before = row.copy()
            rho_ref, mask_ref = correct_batch(model, norm, row)
            assert (rho_ref.dtype, mask_ref.dtype) == (np.float64, np.uint8)
            rho, mask = np.empty_like(row, dtype=np.float32), np.empty_like(row, dtype=np.uint16)
            returned = correct_batch(model, norm, row, out=(rho, mask))
            assert returned[0] is rho and returned[1] is mask
            worst = max(worst, float32_ulps(rho, rho_ref.astype(np.float32)).max())
            np.testing.assert_array_equal(mask, mask_ref.astype(np.uint16))
            np.testing.assert_array_equal(row, before)
        assert 0 < worst <= bound  # 0 would mean the solve ran in float64

    def test_a_float64_out_keeps_the_float64_solve(self, trained_nonlinear):
        model, norm, cube = trained_nonlinear
        rho_ref, _ = correct_batch(model, norm, cube[0])
        rho, mask = np.empty_like(cube[0]), np.empty_like(cube[0], dtype=np.uint16)
        correct_batch(model, norm, cube[0], out=(rho, mask))
        np.testing.assert_array_equal(rho, rho_ref)


class TestSimulate:
    def test_identity_model(self):
        n = 3
        rho = np.array([0.2, 0.5, 0.8])
        out = simulate_values(identity_model(n), SceneNormalization.identity(n), rho)
        np.testing.assert_allclose(out, rho, atol=1e-12)

    def test_dark_target_gives_offset(self):
        c = np.array([0.12, 0.05])
        norm = SceneNormalization(c, 3.0)
        model = linear_profile(np.array([0.5, 1.5]))
        out = simulate_values(model, norm, np.zeros(2))
        np.testing.assert_allclose(out, c)

    def test_negative_reflectance_rejected(self):
        rho = np.array([[0.2, 0.3], [0.1, -0.5]])
        with pytest.raises(ConfigError, match="reflectance must be nonnegative"):
            simulate_values(identity_model(2), SceneNormalization.identity(2), rho)

    def test_round_trip_linear(self):
        rng = np.random.default_rng(1)
        n = 126
        model = linear_profile(rng.uniform(0.05, 2.5, n))
        norm = SceneNormalization(rng.uniform(0, 0.1, n), 1.7)
        for _ in range(5):
            rho = rng.uniform(0, 1, n)
            l4 = simulate_values(model, norm, rho)
            back, _ = correct_batch(model, norm, l4)
            assert np.max(np.abs(back - rho)) < 1e-6

    def test_round_trip_other_direction(self):
        rng = np.random.default_rng(2)
        n = 20
        model = linear_profile(rng.uniform(0.1, 1.5, n))
        norm = SceneNormalization(rng.uniform(0, 0.05, n), 1.0)
        l4 = norm.c + rng.uniform(0, 0.5, n)
        rho, _ = correct_batch(model, norm, l4)
        again = simulate_values(model, norm, rho)
        assert np.max(np.abs(again - l4)) < 1e-6


class TestBandMismatch:
    """An array whose band count is not the model's is rejected, not broadcast."""

    def models(self):
        return linear_profile(np.full(5, 0.5)), NonlinearProfile.initialize(5, np.random.default_rng(4))

    def test_correct_batch_rejects_a_norm_of_other_bands(self):
        norm = SceneNormalization(np.array([0.3]), 1.0)
        with pytest.raises(ShapeError):
            correct_batch(LinearProfile(np.zeros(5)), norm, np.full((2, 5), 0.5))

    @pytest.mark.parametrize("shape", [(1,), (2, 1)])
    def test_simulate_rejects_reflectance_of_other_bands(self, shape):
        for model in self.models():
            with pytest.raises(ShapeError):
                simulate_values(model, SceneNormalization.identity(5), np.full(shape, 0.5))

    def test_simulate_rejects_a_norm_of_other_bands(self):
        for model in self.models():
            with pytest.raises(ShapeError):
                simulate_values(model, SceneNormalization.identity(1), np.full(5, 0.5))


class TestSceneProperties:
    def test_rescaling_invariance(self):
        rng = np.random.default_rng(3)
        n = 8
        model = linear_profile(rng.uniform(0.2, 1.0, n))
        pixels = np.stack([rng.uniform(0.1, 2.0, n) for _ in range(12)])
        norm = estimate_normalization(pixels)
        rho_base, _ = correct_batch(model, norm, pixels[0])

        k = 7.5
        scaled = pixels * k
        norm_k = estimate_normalization(scaled)
        rho_scaled, _ = correct_batch(model, norm_k, scaled[0])
        np.testing.assert_allclose(rho_scaled, rho_base, rtol=1e-9, atol=1e-12)

    def test_monotonicity_in_radiance(self):
        n = 4
        model = linear_profile(np.full(n, 0.8))
        norm = SceneNormalization(np.zeros(n), 2.0)
        base = np.array([0.5, 0.5, 0.5, 0.5])
        lo, _ = correct_batch(model, norm, base)
        bumped = base.copy()
        bumped[2] += 0.3
        hi, _ = correct_batch(model, norm, bumped)
        assert hi[2] > lo[2]
        np.testing.assert_allclose(np.delete(hi, 2), np.delete(lo, 2))
