import gc

import numpy as np
import pytest
from scipy.optimize import brentq

from dinsat import autodiff as ad
from dinsat.correction import EPS_T, SceneNormalization, correct_batch, normalized_radiance
from dinsat.errors import ConfigError, InvalidDatasetError, ShapeError
from dinsat.ode import SolverConfig, ode_solve
from dinsat.synth import SynthSpec, sample_pixels, synth_scene
from dinsat.training import (
    TrainConfig,
    _supervised_head,
    _unsupervised_head,
    ensemble,
    evaluate,
    supervised_loss,
    supervised_loss_terms,
    train,
    unsupervised_loss,
    unsupervised_loss_terms,
)
from dinsat.transmission import LinearProfile, NonlinearProfile, softplus_inverse, transmittance_spectrum
from dinsat.types import Spectrum

CFG = SolverConfig("rk4", 16)


def identity_model(n):
    return LinearProfile(np.full(n, -40.0))


def rows(*pixels):
    """An (n, bands) array with one row per pixel."""
    return np.array(pixels, dtype=float)


H_CS = 1e-30


def complex_step(f, x):
    """Gradient of a real-analytic scalar f at real x: Im f(x + ih e_k) / h per k.

    No difference is taken, so there is no cancellation: exact to rounding.
    """
    x = np.asarray(x, float)
    grad = np.empty_like(x)
    for k in range(x.size):
        xc = x.astype(complex)
        xc.flat[k] += 1j * H_CS
        grad.flat[k] = f(xc).imag / H_CS
    return grad


def discrete_transmittance_alpha(target, cfg):
    """Absorption rate whose *discrete* RK4 transmittance equals `target` exactly."""
    def gap(a):
        return ode_solve(lambda L: -(a * L), np.array([1.0]), cfg)[0] - target

    return brentq(gap, 1e-6, 10.0, xtol=1e-15, rtol=8.9e-16)


class TestSupervisedLoss:
    def test_perfect_fit_is_zero(self):
        # Identity model + identity norm: rho_hat equals l4 exactly.
        n = 4
        l4 = rho = rows([0.1, 0.4, 0.9, 0.2])
        loss = supervised_loss(identity_model(n), SceneNormalization.identity(n), l4, rho, CFG)
        assert float(ad.value_of(loss)) == 0.0

    def test_constant_offset_unit_value(self):
        # rho_hat = rho + 0.1 everywhere: L_MSE = 0.01 and the FD term, which
        # only sees band-to-band differences, annihilates the constant offset.
        rho = rows([0.1, 0.5, 0.3, 0.8])
        loss, parts = supervised_loss_terms(
            identity_model(4), SceneNormalization.identity(4), rho + 0.1, rho, CFG, fd_weight=1.0
        )
        assert parts["mse"] == pytest.approx(0.01, abs=1e-12)
        assert parts["fd"] == pytest.approx(0.0, abs=1e-12)
        assert float(ad.value_of(loss)) == pytest.approx(0.01, abs=1e-12)

    def test_swapped_bands_unit_value(self):
        # One pixel, two bands, rho=[0,1], rho_hat=[1,0]:
        # L_MSE = (1+1)/2 = 1, L_FD = ((-1)-(1))^2 = 4, total 5.
        loss = supervised_loss(
            identity_model(2), SceneNormalization.identity(2), rows([1.0, 0.0]), rows([0.0, 1.0]), CFG
        )
        assert float(ad.value_of(loss)) == pytest.approx(5.0, abs=1e-12)

    def test_fd_invariant_to_per_pixel_constants(self):
        rng = np.random.default_rng(0)
        # Keep l4 positive so the negative-radiance clamp never engages.
        rho = rng.uniform(0.3, 0.9, (3, 6))
        shifts = rng.uniform(-0.2, 0.2, 3)[:, None]
        norm = SceneNormalization.identity(6)
        _, parts_a = supervised_loss_terms(identity_model(6), norm, rho, rho * 0.9, CFG, 1.0)
        _, parts_b = supervised_loss_terms(
            identity_model(6), norm, rho + shifts, rho * 0.9 + shifts, CFG, 1.0
        )
        assert parts_b["fd"] == pytest.approx(parts_a["fd"], abs=1e-12)


class TestUnsupervisedLoss:
    def test_constant_case_unit_value(self):
        # rho_hat = 0.5 flat and T(1) = 0.7: 0.01*0.5 + 0.01*0.7 + 0 = 0.012.
        # The rate is solved so the *discrete* transmittance is exactly 0.7.
        alpha = discrete_transmittance_alpha(0.7, CFG)
        model = LinearProfile(softplus_inverse(np.full(2, alpha)))
        f = ode_solve(lambda L: -(model.alpha * L), np.ones(2), CFG)
        loss = unsupervised_loss(model, SceneNormalization.identity(2), rows(0.5 * f * f), CFG)
        assert float(ad.value_of(loss)) == pytest.approx(0.012, abs=1e-12)

    def test_flat_spectrum_has_zero_fd(self):
        _, parts = unsupervised_loss_terms(
            identity_model(3), SceneNormalization.identity(3), rows([0.3, 0.3, 0.3]), CFG,
            1e-2, 1e-2, 1.0,
        )
        assert parts["fd"] == 0.0

    def test_all_zero_weights(self):
        loss = unsupervised_loss(
            identity_model(2), SceneNormalization.identity(2), rows([0.2, 0.9]), CFG,
            rho_weight=0.0, transmission_weight=0.0, slope_weight=0.0,
        )
        assert float(ad.value_of(loss)) == 0.0


class TestLossGradients:
    @pytest.mark.parametrize("mode", ["supervised", "unsupervised"])
    @pytest.mark.parametrize("kind", ["linear", "nonlinear"])
    def test_matches_finite_differences(self, mode, kind):
        rng = np.random.default_rng(3)
        n = 4
        cfg = SolverConfig("rk4", 8)
        norm = SceneNormalization(rng.uniform(0, 0.05, n), 1.3)
        pairs = [(norm.c + rng.uniform(0.1, 1.0, n), rng.uniform(0, 1, n)) for _ in range(2)]
        l4, rho = rows(*(p[0] for p in pairs)), rows(*(p[1] for p in pairs))
        if kind == "linear":
            model = LinearProfile.initialize(n, rng)
        else:
            model = NonlinearProfile.initialize(n, rng)

        def loss_fn(params):
            if mode == "supervised":
                return supervised_loss(model, norm, l4, rho, cfg, 1.0, params)
            return unsupervised_loss(model, norm, l4, cfg, params=params)

        p0 = model.params.copy()
        tape = ad.Tape()
        pvar = tape.leaf(p0)
        ad.backward(loss_fn(pvar))
        fd = ad.finite_difference(
            lambda v: float(ad.value_of(loss_fn(ad.Tape().leaf(v)))), p0.copy()
        )
        denom = np.maximum(np.abs(fd), 1e-7)
        assert np.max(np.abs(pvar.grad - fd) / denom) < 1e-3

    def test_linear_unsupervised_tape_is_small(self):
        # The linear transmission factor is one closed-form node, so the tape
        # does not grow with the solver's step count or stage count.
        rng = np.random.default_rng(4)
        n = 126
        norm = SceneNormalization(rng.uniform(0, 0.05, n), 1.3)
        l4 = rows(*(norm.c + rng.uniform(0.1, 1.0, n) for _ in range(8)))
        model = LinearProfile.initialize(n, rng)
        tape = ad.Tape()
        ad.backward(unsupervised_loss(model, norm, l4, CFG, params=tape.leaf(model.params)))
        assert len(tape.nodes) == 4  # leaf, T(1), T^-1, loss head

    def test_nonlinear_supervised_tape_is_small(self):
        # Each traced solve is one node whose VJP sweeps its stages, so the
        # tape does not grow with the step or stage count.
        rng = np.random.default_rng(5)
        n = 126
        norm = SceneNormalization(rng.uniform(0, 0.05, n), 1.3)
        pairs = [(norm.c + rng.uniform(0.1, 1.0, n), rng.uniform(0, 1, n)) for _ in range(8)]
        l4, rho = rows(*(p[0] for p in pairs)), rows(*(p[1] for p in pairs))
        model = NonlinearProfile.initialize(n, rng)
        tape = ad.Tape()
        ad.backward(supervised_loss(model, norm, l4, rho, CFG, params=tape.leaf(model.params)))
        assert len(tape.nodes) == 4  # leaf, T(1) solve, T^-1 solve, loss head


class TestLossHeads:
    """The one-node loss heads against a plain-numpy reference and complex step."""

    WEIGHTS = {"fd_weight": 0.7, "rho_weight": 0.03, "transmission_weight": 0.05, "slope_weight": 0.9}
    FLOORED = 2  # the linear model's band with T(1) < EPS_T

    def problem(self, kind):
        rng = np.random.default_rng(21)
        n = 6
        norm = SceneNormalization(rng.uniform(0, 0.05, n), 1.3)
        l4 = norm.c + rng.uniform(0.1, 1.0, (3, n))
        rho = rng.uniform(0, 1, (3, n))
        if kind == "linear":
            raw = LinearProfile.initialize(n, rng).raw
            # alpha = 16 at RK4_16 gives T(1) = 0.375^16 = 1.5e-7, under the
            # floor; a z of about 1e-13 keeps that band's rho_hat near 1.
            raw[self.FLOORED] = softplus_inverse(np.array(16.0))
            l4[:, self.FLOORED] = norm.c[self.FLOORED] + norm.m * rng.uniform(0.5, 1.5, 3) * 1e-13
            model = LinearProfile(raw)
            assert model.t1(model.params, CFG)[self.FLOORED] < EPS_T
        else:
            model = NonlinearProfile.initialize(n, rng)
        return model, norm, l4, rho

    def head(self, mode, model, norm, l4, rho, params, solver=CFG):
        w = self.WEIGHTS
        if mode == "supervised":
            return supervised_loss(model, norm, l4, rho, solver, w["fd_weight"], params)
        return unsupervised_loss(model, norm, l4, solver, w["rho_weight"], w["transmission_weight"],
                                 w["slope_weight"], params)

    def reference(self, mode, l2, t1, rho):
        """The loss of (T^-1(z), T(1)) in numpy, complex-safe for complex step.

        The floor is np.where on the real part and |s| is s * sign(Re s): on
        real input they compute what np.maximum and np.abs do.
        """
        w = self.WEIGHTS
        rho_hat = l2 / np.where(t1.real > EPS_T, t1, EPS_T)
        slope = rho_hat[:, 1:] - rho_hat[:, :-1]
        if mode == "supervised":
            err = rho_hat - rho
            diff_err = slope - (rho[:, 1:] - rho[:, :-1])
            return (err * err).mean() + w["fd_weight"] * (diff_err * diff_err).mean()
        return (w["rho_weight"] * rho_hat.mean() + w["transmission_weight"] * t1.mean()
                + w["slope_weight"] * (slope * np.sign(slope.real)).mean())

    def value_and_grad(self, loss_fn, params):
        tape = ad.Tape()
        pvar = tape.leaf(params)
        loss = loss_fn(pvar)
        ad.backward(loss)
        return float(ad.value_of(loss)), pvar.grad

    def head_cotangents(self, mode, l2, t1, rho):
        """The head's cotangents of (T^-1(z), T(1)), fed to it as two leaves."""
        w = self.WEIGHTS
        tape = ad.Tape()
        l2_leaf, t1_leaf = tape.leaf(l2), tape.leaf(t1)
        if mode == "supervised":
            loss, _ = _supervised_head(l2_leaf, t1_leaf, rho, w["fd_weight"])
        else:
            loss, _ = _unsupervised_head(l2_leaf, t1_leaf, w["rho_weight"], w["transmission_weight"],
                                         w["slope_weight"])
        ad.backward(loss)
        return l2_leaf.grad, t1_leaf.grad

    @pytest.mark.parametrize("mode", ["supervised", "unsupervised"])
    @pytest.mark.parametrize("kind", ["linear", "nonlinear"])
    def test_loss_is_bit_identical_and_gradient_matches(self, mode, kind):
        model, norm, l4, rho = self.problem(kind)
        args = (mode, model, norm, l4, rho)
        t1 = model.t1(model.params, CFG)
        l2 = model.inverse(model.params, normalized_radiance(norm, l4), CFG, transmittance=t1)
        ref_loss = self.reference(mode, l2, t1, rho)
        loss, grad = self.value_and_grad(lambda p: self.head(*args, p), model.params)
        assert loss == ref_loss
        assert float(self.head(*args, model.params)) == ref_loss  # untraced too

        g_l2, g_t1 = self.head_cotangents(mode, l2, t1, rho)
        cs_l2 = complex_step(lambda x: self.reference(mode, x, t1, rho), l2)
        cs_t1 = complex_step(lambda x: self.reference(mode, l2, x, rho), t1)
        np.testing.assert_allclose(g_l2, cs_l2, rtol=1e-12, atol=0)
        np.testing.assert_allclose(g_t1, cs_t1, rtol=1e-12, atol=0)
        if kind == "linear":
            # The floor passes no gradient to its band's T(1), but T^-1 does.
            assert grad[self.FLOORED] != 0.0

    @pytest.mark.parametrize("mode", ["supervised", "unsupervised"])
    def test_linear_loss_matches_complex_step(self, mode):
        # The whole linear loss w.r.t. raw, against the test's own complex
        # T(1) = P(-log1p(exp(raw)) h)^n, with one band past RK4_16's monotone
        # limit (alpha = 40, T(1) = 9.8e-4).
        rng = np.random.default_rng(3)
        n = 10
        norm = SceneNormalization(rng.uniform(0, 0.05, n), 1.3)
        l4 = norm.c + rng.uniform(0.1, 1.0, (7, n))
        rho = rng.uniform(0, 1, (7, n))
        raw = LinearProfile.initialize(n, rng).raw
        raw[4] = softplus_inverse(np.array(40.0))
        model = LinearProfile(raw)
        z = normalized_radiance(norm, l4)
        h = (CFG.x_end - CFG.x0) / CFG.steps

        def reference(r):
            s = -np.log1p(np.exp(r)) * h
            t1 = (1 + s + s**2 / 2 + s**3 / 6 + s**4 / 24) ** CFG.steps
            return self.reference(mode, z / t1, t1, rho)

        _, grad = self.value_and_grad(lambda p: self.head(mode, model, norm, l4, rho, p), raw)
        np.testing.assert_allclose(grad, complex_step(reference, raw), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("mode", ["supervised", "unsupervised"])
    @pytest.mark.parametrize("kind", ["linear", "nonlinear"])
    def test_gradient_matches_finite_differences(self, mode, kind):
        model, norm, l4, rho = self.problem(kind)
        cfg = CFG if kind == "linear" else SolverConfig("rk4", 8)
        _, grad = self.value_and_grad(lambda p: self.head(mode, model, norm, l4, rho, p, cfg), model.params)
        fd = ad.finite_difference(
            lambda v: float(ad.value_of(self.head(mode, model, norm, l4, rho, v, cfg))), model.params.copy()
        )
        denom = np.maximum(np.abs(fd), 1e-7)
        assert np.max(np.abs(grad - fd) / denom) < 1e-3


def tiny_scene():
    spec = SynthSpec(rows=12, cols=12, n_bands=16, noise_std=0.0,
                     absorption_bands=((1200.0, 300.0, 0.8),))
    return synth_scene(spec, seed=7)


class TestTrain:
    def test_empty_training_split_rejected(self):
        with pytest.raises(InvalidDatasetError):
            train(TrainConfig(mode="unsupervised", max_epochs=1), [], SceneNormalization.identity(2))

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be nonnegative"):
            TrainConfig(seed=-1)

    def test_supervised_requires_truth(self):
        l4 = np.tile([0.2, 0.4], (20, 1))
        with pytest.raises(InvalidDatasetError):
            train(TrainConfig(max_epochs=1), l4, SceneNormalization.identity(2))

    def test_identical_seeds_identical_histories(self):
        cube, truth = tiny_scene()
        _, l4, rho = sample_pixels(cube, truth, 30, seed=1)
        config = TrainConfig(max_epochs=12, solver=SolverConfig("rk4", 8), seed=5)
        a = train(config, l4, truth.norm, rho)
        b = train(config, l4, truth.norm, rho)
        assert a.history == b.history
        np.testing.assert_array_equal(a.params, b.params)

    def test_best_so_far_train_loss_monotone(self):
        cube, truth = tiny_scene()
        _, l4, rho = sample_pixels(cube, truth, 30, seed=2)
        run = train(
            TrainConfig(max_epochs=60, solver=SolverConfig("rk4", 8), seed=0),
            l4,
            truth.norm,
            rho,
        )
        best = np.minimum.accumulate([h["train_loss"] for h in run.history])
        assert np.all(np.diff(best) <= 0)

    def test_supervised_recovers_alpha(self):
        # Known linear scene, truth norm: alpha per band within 5% wherever
        # the true transmittance exceeds 0.05.
        cube, truth = tiny_scene()
        _, l4, rho = sample_pixels(cube, truth, 40, seed=3)
        config = TrainConfig(max_epochs=3000, solver=SolverConfig("rk4", 8), seed=1)
        run = train(config, l4, truth.norm, rho)
        alpha_hat = run.model(cube.n_bands).alpha
        visible = np.exp(-truth.alpha) > 0.05
        rel = np.abs(alpha_hat - truth.alpha) / truth.alpha
        assert run.converged
        assert np.max(rel[visible]) < 0.05

    def test_epoch_tapes_are_released(self):
        # With the cyclic GC off, a tape still holding its nodes would stay
        # alive; train must free each epoch's tape by reference counting.
        cube, truth = tiny_scene()
        _, l4, rho = sample_pixels(cube, truth, 20, seed=5)
        config = TrainConfig(
            model_kind="nonlinear", max_epochs=5, solver=SolverConfig("rk4", 4), seed=0
        )

        def live_tapes():
            return sum(isinstance(o, ad.Tape) for o in gc.get_objects())

        gc.collect()
        gc.disable()
        try:
            before = live_tapes()
            run = train(config, l4, truth.norm, rho)
            after = live_tapes()
        finally:
            gc.enable()
        assert run.epochs == 5
        assert after == before

    def test_unsupervised_loss_drops_ten_percent(self):
        cube, truth = tiny_scene()
        _, l4, _ = sample_pixels(cube, truth, 40, seed=4, with_truth=False)
        config = TrainConfig(
            mode="unsupervised", max_epochs=50, solver=SolverConfig("rk4", 8), seed=0
        )
        run = train(config, l4, truth.norm)
        losses = [h["train_loss"] for h in run.history]
        assert min(losses) <= 0.9 * losses[0]


class TestEnsemble:
    def test_single_run_aggregates_match(self):
        cube, truth = tiny_scene()
        _, l4, rho = sample_pixels(cube, truth, 30, seed=5)
        config = TrainConfig(max_epochs=20, solver=SolverConfig("rk4", 8), seed=2)
        result = ensemble(config, l4, truth.norm, n_runs=1, rho=rho)
        assert len(result.completed) == 1
        np.testing.assert_array_equal(result.transmittance_std, 0.0)
        np.testing.assert_array_equal(result.roi_reflectance_std, 0.0)

    def test_deterministic_aggregates(self):
        cube, truth = tiny_scene()
        _, l4, rho = sample_pixels(cube, truth, 30, seed=5)
        config = TrainConfig(max_epochs=10, solver=SolverConfig("rk4", 8), seed=2)
        a = ensemble(config, l4, truth.norm, n_runs=2, rho=rho)
        b = ensemble(config, l4, truth.norm, n_runs=2, rho=rho)
        np.testing.assert_array_equal(a.transmittance_mean, b.transmittance_mean)
        np.testing.assert_array_equal(a.roi_reflectance_mean, b.roi_reflectance_mean)

    def test_process_parallel_matches_serial(self):
        cube, truth = tiny_scene()
        _, l4, rho = sample_pixels(cube, truth, 30, seed=5)
        config = TrainConfig(max_epochs=8, solver=SolverConfig("rk4", 8), seed=2)
        serial = ensemble(config, l4, truth.norm, n_runs=2, rho=rho, workers=1)
        parallel = ensemble(config, l4, truth.norm, n_runs=2, rho=rho, workers=2)
        np.testing.assert_array_equal(
            serial.transmittance_mean, parallel.transmittance_mean
        )

    def test_members_keep_their_transmittance_and_roi_reflectance(self):
        # What `dinsat train` writes to each run record, as it computed it before.
        cube, truth = tiny_scene()
        _, l4, _ = sample_pixels(cube, truth, 30, seed=5, with_truth=False)
        config = TrainConfig(mode="unsupervised", max_epochs=6, solver=SolverConfig("rk4", 8), seed=2)
        result = ensemble(config, l4, truth.norm, n_runs=2)
        for run, t1, roi in zip(result.runs, result.transmittances, result.roi_reflectances):
            model = run.model(cube.n_bands)
            np.testing.assert_array_equal(t1, transmittance_spectrum(model, config.solver).values)
            rho_hat, _ = correct_batch(model, truth.norm, l4, config.solver)
            np.testing.assert_array_equal(roi, rho_hat.mean(axis=0))
        np.testing.assert_array_equal(result.transmittance_mean, np.mean(result.transmittances, axis=0))
        np.testing.assert_array_equal(result.roi_reflectance_std, np.std(result.roi_reflectances, axis=0))

    def test_zero_runs_rejected(self):
        with pytest.raises(ConfigError):
            ensemble(TrainConfig(), [], SceneNormalization.identity(2), n_runs=0)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_all_members_failing_raise_the_first_category_with_every_reason(self, workers):
        # Three pixels: the val fraction 0.1 rounds to zero samples in every member.
        config = TrainConfig(mode="unsupervised", max_epochs=2, split_fractions=(0.5, 0.1, 0.4))
        l4 = np.random.default_rng(0).uniform(0.1, 0.9, (3, 4))
        with pytest.raises(ConfigError) as info:
            ensemble(config, l4, SceneNormalization.identity(4), n_runs=2, workers=workers)
        assert str(info.value) == (
            "all ensemble members failed: "
            "run 0: val fraction is positive but rounds to zero samples; "
            "run 1: val fraction is positive but rounds to zero samples"
        )



class TestEvaluate:
    def test_truth_model_near_zero_error(self):
        cube, truth = tiny_scene()
        _, l4, rho = sample_pixels(cube, truth, 25, seed=6)
        metrics = evaluate(truth.profile, truth.norm, l4, SolverConfig("rk4", 64), rho=rho)
        assert metrics["reflectance_percent_mse"] < 0.01

    def test_identity_model_strictly_worse(self):
        cube, truth = tiny_scene()
        _, l4, rho = sample_pixels(cube, truth, 25, seed=6)
        cfg = SolverConfig("rk4", 16)
        good = evaluate(truth.profile, truth.norm, l4, cfg, rho=rho)
        bad = evaluate(identity_model(cube.n_bands), truth.norm, l4, cfg, rho=rho)
        assert bad["reflectance_percent_mse"] > good["reflectance_percent_mse"]

    def test_missing_inputs_warn(self):
        cube, truth = tiny_scene()
        _, l4, rho = sample_pixels(cube, truth, 5, seed=0, with_truth=False)
        metrics = evaluate(truth.profile, truth.norm, l4, SolverConfig("rk4", 8), rho=rho)
        assert "reflectance_percent_mse" not in metrics
        assert metrics["warnings"]

    def test_radiance_direction_metric(self):
        cube, truth = tiny_scene()
        # A homogeneous ROI: every sample is the same pixel, the library
        # spectrum is its true reflectance, so simulation must match closely.
        l4 = cube.pixels([(4, 4)] * 3)
        library = Spectrum(truth.rho[4, 4], "reflectance")
        metrics = evaluate(
            truth.profile, truth.norm, l4, SolverConfig("rk4", 64), library=library
        )
        assert metrics["radiance_percent_mse"] < 0.01


class TestPixelArrayChecks:
    """train and evaluate reject malformed (n, bands) pixel arrays up front."""

    @staticmethod
    def bad_inputs(case):
        l4 = np.full((6, 3), 0.5)
        rho = np.full((6, 3), 0.4)
        if case == "nan-l4":
            l4[2, 1] = np.nan
        elif case == "inf-rho":
            rho[0, 0] = np.inf
        elif case == "neg-inf-rho":
            rho[5, 2] = -np.inf
        elif case == "shape-mismatch":
            rho = rho[:, :2]
        elif case == "1d-l4":
            l4, rho = l4[0], None
        return l4, rho

    CASES = ["nan-l4", "inf-rho", "neg-inf-rho", "shape-mismatch", "1d-l4"]

    @pytest.mark.parametrize("case", CASES)
    def test_train_rejects(self, case):
        l4, rho = self.bad_inputs(case)
        with pytest.raises(ShapeError):
            train(TrainConfig(max_epochs=1), l4, SceneNormalization.identity(3), rho)

    @pytest.mark.parametrize("case", CASES)
    def test_evaluate_rejects(self, case):
        l4, rho = self.bad_inputs(case)
        with pytest.raises(ShapeError):
            evaluate(identity_model(3), SceneNormalization.identity(3), l4, CFG, rho=rho)
