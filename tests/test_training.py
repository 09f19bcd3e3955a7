import gc
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq

from dinsat import training
from dinsat.correction import (
    EPS_T,
    SceneNormalization,
    correct_batch,
    estimate_normalization,
    normalized_radiance,
    simulate_values,
)
from dinsat.errors import ConfigError, EmptyInputError, InvalidDatasetError, NumericError, ShapeError
from dinsat.ode import SolverConfig, ode_solve
from dinsat.synth import SynthSpec, synth_scene
from dinsat.training import (
    TrainConfig,
    TrainRun,
    _loss_terms,
    _supervised_head,
    _unsupervised_head,
    ensemble,
    evaluate_regions,
    loss,
    train,
)
from dinsat.transmission import LinearProfile, NonlinearProfile, softplus_inverse
from dinsat.types import split_dataset

from oracles import (
    complex_step,
    finite_difference,
    linear_alpha,
    linear_profile,
    linear_rate,
    sample_pixels,
    solve_direction,
)

CFG = SolverConfig("rk4", 16)


def identity_model(n):
    return LinearProfile(np.full(n, -40.0), CFG)


def rows(*pixels):
    """An (n, bands) array with one row per pixel."""
    return np.array(pixels, dtype=float)


def forward_loss(model, norm, l4, rho=None, **config):
    """``loss`` of ``config``'s mode and weights over the normalized ``l4``."""
    return loss(TrainConfig(solver=CFG, **config), model, normalized_radiance(norm, l4), rho)


def loss_components(model, norm, l4, rho=None, **config):
    """The components of the training loss of ``config``'s mode at the model's parameters."""
    config = TrainConfig(solver=CFG, **config)
    return _loss_terms(config, model, normalized_radiance(norm, l4), rho)[1]


def discrete_transmittance_alpha(target, cfg):
    """Absorption rate whose *discrete* RK4 transmittance equals `target` exactly."""
    def gap(a):
        return ode_solve(linear_rate(a), np.array([1.0]), cfg)[0] - target

    return brentq(gap, 1e-6, 10.0, xtol=1e-15, rtol=8.9e-16)


class TestSupervisedLoss:
    def test_perfect_fit_is_zero(self):
        # Identity model + identity norm: rho_hat equals l4 exactly.
        n = 4
        l4 = rho = rows([0.1, 0.4, 0.9, 0.2])
        loss = forward_loss(identity_model(n), SceneNormalization.identity(n), l4, rho)
        assert loss == 0.0

    def test_constant_offset_unit_value(self):
        # rho_hat = rho + 0.1 everywhere: L_MSE = 0.01 and the FD term, which
        # only sees band-to-band differences, annihilates the constant offset.
        rho = rows([0.1, 0.5, 0.3, 0.8])
        norm = SceneNormalization.identity(4)
        loss = forward_loss(identity_model(4), norm, rho + 0.1, rho, fd_weight=1.0)
        parts = loss_components(identity_model(4), norm, rho + 0.1, rho, fd_weight=1.0)
        assert parts["mse"] == pytest.approx(0.01, abs=1e-12)
        assert parts["fd"] == pytest.approx(0.0, abs=1e-12)
        assert loss == pytest.approx(0.01, abs=1e-12)

    def test_swapped_bands_unit_value(self):
        # One pixel, two bands, rho=[0,1], rho_hat=[1,0]:
        # L_MSE = (1+1)/2 = 1, L_FD = ((-1)-(1))^2 = 4, total 5.
        loss = forward_loss(
            identity_model(2), SceneNormalization.identity(2), rows([1.0, 0.0]), rows([0.0, 1.0])
        )
        assert loss == pytest.approx(5.0, abs=1e-12)

    def test_fd_invariant_to_per_pixel_constants(self):
        rng = np.random.default_rng(0)
        # Keep l4 positive so the negative-radiance clamp never engages.
        rho = rng.uniform(0.3, 0.9, (3, 6))
        shifts = rng.uniform(-0.2, 0.2, 3)[:, None]
        norm = SceneNormalization.identity(6)
        parts_a = loss_components(identity_model(6), norm, rho, rho * 0.9, fd_weight=1.0)
        parts_b = loss_components(identity_model(6), norm, rho + shifts, rho * 0.9 + shifts, fd_weight=1.0)
        assert parts_b["fd"] == pytest.approx(parts_a["fd"], abs=1e-12)

    def test_no_pixels_or_no_truth_rejected(self):
        norm = SceneNormalization.identity(2)
        with pytest.raises(EmptyInputError):
            forward_loss(identity_model(2), norm, np.empty((0, 2)), np.empty((0, 2)))
        with pytest.raises(InvalidDatasetError):
            forward_loss(identity_model(2), norm, rows([0.2, 0.9]))


class TestUnsupervisedLoss:
    def test_constant_case_unit_value(self):
        # rho_hat = 0.5 flat and T(1) = 0.7: 0.01*0.5 + 0.01*0.7 + 0 = 0.012.
        # The rate is solved so the *discrete* transmittance is exactly 0.7.
        alpha = discrete_transmittance_alpha(0.7, CFG)
        model = LinearProfile(softplus_inverse(np.full(2, alpha)), CFG)
        f = ode_solve(linear_rate(linear_alpha(model)), np.ones(2), CFG)
        loss = forward_loss(model, SceneNormalization.identity(2), rows(0.5 * f * f), mode="unsupervised")
        assert loss == pytest.approx(0.012, abs=1e-12)

    def test_flat_spectrum_has_zero_fd(self):
        parts = loss_components(
            identity_model(3), SceneNormalization.identity(3), rows([0.3, 0.3, 0.3]), mode="unsupervised",
            rho_weight=1e-2, transmission_weight=1e-2, slope_weight=1.0,
        )
        assert parts["fd"] == 0.0

    def test_all_zero_weights(self):
        loss = forward_loss(
            identity_model(2), SceneNormalization.identity(2), rows([0.2, 0.9]), mode="unsupervised",
            rho_weight=0.0, transmission_weight=0.0, slope_weight=0.0,
        )
        assert loss == 0.0


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
        model = replace(model, solver=cfg)
        config = TrainConfig(mode=mode, fd_weight=1.0, solver=cfg)
        z = normalized_radiance(norm, l4)

        def loss_fn(params):
            return loss(config, model.with_params(params), z, rho)

        p0 = model.params.copy()
        _, _, grad = _loss_terms(config, model, z, rho)
        fd = finite_difference(loss_fn, p0.copy())
        denom = np.maximum(np.abs(fd), 1e-7)
        assert np.max(np.abs(grad - fd) / denom) < 1e-3


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
            raw = LinearProfile.initialize(n, rng).params.copy()
            # alpha = 16 at RK4_16 gives T(1) = 0.375^16 = 1.5e-7, under the
            # floor; a z of about 1e-13 keeps that band's rho_hat near 1.
            raw[self.FLOORED] = softplus_inverse(np.array(16.0))
            l4[:, self.FLOORED] = norm.c[self.FLOORED] + norm.m * rng.uniform(0.5, 1.5, 3) * 1e-13
            model = LinearProfile(raw)
            assert model.t1[self.FLOORED] < EPS_T
        else:
            model = NonlinearProfile.initialize(n, rng)
        return model, norm, l4, rho

    def head(self, mode, model, norm, l4, rho):
        config = TrainConfig(mode=mode, solver=model.solver, **self.WEIGHTS)
        return loss(config, model, normalized_radiance(norm, l4), rho)

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

    def value_and_grad(self, mode, model, norm, l4, rho):
        """The training loss and its gradient, as ``train`` computes them."""
        config = TrainConfig(mode=mode, solver=model.solver, **self.WEIGHTS)
        loss, _, grad = _loss_terms(config, model, normalized_radiance(norm, l4), rho)
        return loss, grad

    def head_cotangents(self, mode, l2, t1, rho):
        """The head's cotangents of (T^-1(z), T(1))."""
        w = self.WEIGHTS
        if mode == "supervised":
            _, _, vjp = _supervised_head(l2, t1, rho, w["fd_weight"])
        else:
            _, _, vjp = _unsupervised_head(l2, t1, w["rho_weight"], w["transmission_weight"],
                                           w["slope_weight"])
        return vjp()

    @pytest.mark.parametrize("mode", ["supervised", "unsupervised"])
    @pytest.mark.parametrize("kind", ["linear", "nonlinear"])
    def test_loss_is_bit_identical_and_gradient_matches(self, mode, kind):
        model, norm, l4, rho = self.problem(kind)
        args = (mode, model, norm, l4, rho)
        t1, l2 = model.t1_and_inverse(normalized_radiance(norm, l4))
        ref_loss = self.reference(mode, l2, t1, rho)
        loss, grad = self.value_and_grad(*args)
        assert loss == ref_loss
        assert self.head(*args) == ref_loss  # the exported loss too

        g_l2, g_t1 = self.head_cotangents(mode, l2, t1, rho)
        cs_l2 = complex_step(lambda x: self.reference(mode, x, t1, rho), l2)
        cs_t1 = complex_step(lambda x: self.reference(mode, l2, x, rho), t1)
        np.testing.assert_allclose(g_l2, cs_l2, rtol=1e-12, atol=0)
        np.testing.assert_allclose(g_t1, cs_t1, rtol=1e-12, atol=0)
        if kind == "linear":
            # The floor passes no gradient to its band's T(1), but T^-1 does.
            assert grad[self.FLOORED] != 0.0

    @pytest.mark.parametrize("mode", ["supervised", "unsupervised"])
    def test_nonlinear_loss_matches_complex_step(self, mode):
        # The whole nonlinear loss of one [1; z] solve w.r.t. every parameter,
        # against complex step through that same mixed-direction solve.
        model, norm, l4, rho = self.problem("nonlinear")
        z = normalized_radiance(norm, l4)

        def reference(params):
            t1, l2 = model.with_params(params).t1_and_inverse(z)
            return self.reference(mode, l2, t1, rho)

        _, grad = self.value_and_grad(mode, model, norm, l4, rho)
        np.testing.assert_allclose(grad, complex_step(reference, model.params), rtol=1e-12, atol=0)

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
        raw = LinearProfile.initialize(n, rng).params.copy()
        raw[4] = softplus_inverse(np.array(40.0))
        model = LinearProfile(raw)
        z = normalized_radiance(norm, l4)
        h = (CFG.x_end - CFG.x0) / CFG.steps

        def reference(r):
            s = -np.log1p(np.exp(r)) * h
            t1 = (1 + s + s**2 / 2 + s**3 / 6 + s**4 / 24) ** CFG.steps
            return self.reference(mode, z / t1, t1, rho)

        _, grad = self.value_and_grad(mode, model, norm, l4, rho)
        np.testing.assert_allclose(grad, complex_step(reference, raw), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("mode", ["supervised", "unsupervised"])
    @pytest.mark.parametrize("kind", ["linear", "nonlinear"])
    def test_gradient_matches_finite_differences(self, mode, kind):
        model, norm, l4, rho = self.problem(kind)
        model = replace(model, solver=CFG if kind == "linear" else SolverConfig("rk4", 8))
        _, grad = self.value_and_grad(mode, model, norm, l4, rho)
        fd = finite_difference(lambda v: self.head(mode, model.with_params(v), norm, l4, rho), model.params.copy())
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

    @pytest.mark.parametrize("field,value", [
        ("lr", np.nan), ("lr", np.inf), ("lr", 0.0),
        ("fd_weight", np.nan), ("rho_weight", np.inf), ("transmission_weight", np.nan), ("slope_weight", -1.0),
        ("rel_tol", np.nan), ("rel_tol", 1.0), ("rel_tol", 2.0), ("rel_tol", -1e-3),
        ("split_fractions", (np.nan, 0.1, 0.1)), ("split_fractions", (0.5, -0.2, 0.5)),
        ("split_fractions", (0.9, 0.5, 0.5)),
    ])
    def test_non_finite_or_out_of_range_value_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must"):
            TrainConfig(**{field: value})

    def test_supervised_requires_truth(self):
        l4 = np.tile([0.2, 0.4], (20, 1))
        with pytest.raises(InvalidDatasetError):
            train(TrainConfig(max_epochs=1), l4, SceneNormalization.identity(2))

    def test_zero_transmittance_band_names_its_epoch(self, monkeypatch):
        # Euler with alpha h = 1 gives T(1) = 0 in band 1 of the starting model.
        monkeypatch.setattr(training, "build_model",
                            lambda config, n_bands: replace(linear_profile([0.5, 16.0]),
                                                                  solver=config.solver))
        config = TrainConfig(mode="unsupervised", max_epochs=3, solver=SolverConfig("euler", 16))
        with pytest.raises(NumericError, match=r"^epoch 0: linear T\(1\) is 0 in band\(s\) 1;"):
            train(config, np.tile([0.2, 0.4], (20, 1)), SceneNormalization.identity(2))

    @pytest.mark.parametrize("mode,epoch", [("supervised", 0), ("unsupervised", 1)])
    def test_diverged_solve_names_its_epoch(self, monkeypatch, mode, epoch):
        # Adam steps to params * 1e3, whose reverse solve over x_end = 40
        # diverges: supervised in epoch 0's validation loss of the stepped
        # model, unsupervised (no validation rows) in epoch 1's training loss.
        monkeypatch.setattr(training, "adam_step", lambda state, params, grad: params * 1e3)
        l4, rho, norm = early_stopping_scene()
        config = TrainConfig(mode=mode, model_kind="nonlinear", solver=SolverConfig(x_end=40.0))
        with pytest.raises(NumericError, match=rf"^epoch {epoch}: state diverged \(>1e\+12\) at integration step 11$"):
            train(config, l4, norm, rho if mode == "supervised" else None)

    def test_epoch_runs_one_stacked_solve_and_its_adjoint_and_one_validation_solve(self, monkeypatch):
        # T(1) and T^-1(z) are one [1; z] solve: solve_vjp for the training
        # loss, a mixed ode_solve for the validation loss. The kept model's
        # T(1) and the correction of all of l4 after the loop add a forward
        # and a reverse plain solve.
        import dinsat.transmission as transmission

        calls = {}
        for name in ("ode_solve", "solve_vjp"):
            def counted(*args, _inner=getattr(transmission, name), _name=name, **kwargs):
                key = solve_direction(kwargs.get("reverse", False)) if _name == "ode_solve" else _name
                calls[key] = calls.get(key, 0) + 1
                return _inner(*args, **kwargs)
            monkeypatch.setattr(transmission, name, counted)
        cube, truth = tiny_scene()
        _, l4, rho = sample_pixels(cube, truth, 30, seed=1)
        config = TrainConfig(model_kind="nonlinear", max_epochs=3, patience=3, solver=SolverConfig("rk4", 4))
        run = train(config, l4, truth.norm, rho)
        assert run.epochs == 3 and all("val_loss" in record for record in run.history)
        assert calls == {"solve_vjp": 3, "mixed": 3, "forward": 1, "reverse": 1}

    @pytest.mark.parametrize("mode,kind", [("supervised", "nonlinear"), ("unsupervised", "linear")])
    def test_run_holds_its_roi_reflectance_and_epoch_count(self, mode, kind):
        cube, truth = tiny_scene()
        _, l4, rho = sample_pixels(cube, truth if mode == "supervised" else None, 30, seed=1)
        config = TrainConfig(mode=mode, model_kind=kind, max_epochs=4, solver=SolverConfig("rk4", 8))
        run = train(config, l4, truth.norm, rho)
        np.testing.assert_array_equal(run.roi_reflectance, correct_batch(run.model, truth.norm, l4)[0].mean(axis=0))
        assert run.epochs == len(run.history) == 4

    def test_identical_seeds_identical_histories(self):
        cube, truth = tiny_scene()
        _, l4, rho = sample_pixels(cube, truth, 30, seed=1)
        config = TrainConfig(max_epochs=12, solver=SolverConfig("rk4", 8), seed=5)
        a = train(config, l4, truth.norm, rho)
        b = train(config, l4, truth.norm, rho)
        assert a.history == b.history
        np.testing.assert_array_equal(a.model.params, b.model.params)

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
        alpha_hat = linear_alpha(run.model)
        visible = np.exp(-truth.alpha) > 0.05
        rel = np.abs(alpha_hat - truth.alpha) / truth.alpha
        assert run.converged
        assert np.max(rel[visible]) < 0.05

    def test_epoch_tapes_are_released(self):
        # Each epoch's pullback closures form no reference cycle: with the
        # cyclic GC off, training leaves nothing for it to collect.
        cube, truth = tiny_scene()
        _, l4, rho = sample_pixels(cube, truth, 20, seed=5)
        config = TrainConfig(
            model_kind="nonlinear", max_epochs=5, solver=SolverConfig("rk4", 4), seed=0
        )
        gc.collect()
        gc.disable()
        try:
            run = train(config, l4, truth.norm, rho)
            garbage = gc.collect()
        finally:
            gc.enable()
        assert run.epochs == 5
        assert garbage == 0

    def test_unsupervised_loss_drops_ten_percent(self):
        cube, truth = tiny_scene()
        _, l4, _ = sample_pixels(cube, None, 40, seed=4)
        config = TrainConfig(
            mode="unsupervised", max_epochs=50, solver=SolverConfig("rk4", 8), seed=0
        )
        run = train(config, l4, truth.norm)
        losses = [h["train_loss"] for h in run.history]
        assert min(losses) <= 0.9 * losses[0]


def early_stopping_scene():
    """Every pixel of a noisy 16x16x8 scene, its truth reflectance, and the cube's estimated (C, m)."""
    cube, truth = synth_scene(SynthSpec(rows=16, cols=16, n_bands=8, noise_std=0.02), seed=1)
    return cube.data.reshape(-1, 8), truth.rho.reshape(-1, 8), estimate_normalization(cube.data)


def monitored_loss(config, run, l4, rho, norm):
    """(loss of ``run.model`` over the monitored split, the monitored history column)."""
    picked, column = (run.split.val, "val_loss") if len(run.split.val) else (run.split.train, "train_loss")
    picked = list(picked)
    kept = loss(config, run.model, normalized_radiance(norm, l4)[picked],
                None if config.mode == "unsupervised" else rho[picked])
    return kept, [record[column] for record in run.history]


class TestEarlyStopping:
    """The monitor is the validation loss where the split has validation rows and
    the training loss otherwise, and the kept model is the one it was measured on."""

    @pytest.mark.parametrize("mode,kind,fractions", [
        ("unsupervised", "linear", None), ("unsupervised", "nonlinear", None),
        ("supervised", "linear", None), ("supervised", "nonlinear", None),
        ("unsupervised", "linear", (0.6, 0.2, 0.2)),
    ])
    @pytest.mark.parametrize("rel_tol", [0.0, 1e-4])
    def test_kept_model_has_the_least_monitored_loss(self, mode, kind, fractions, rel_tol):
        # The kept model is the argmin for any rel_tol, which only sets what resets
        # the patience count; at rel_tol = 0 every decrease does.
        l4, rho, norm = early_stopping_scene()
        config = TrainConfig(mode=mode, model_kind=kind, lr=0.2, patience=5, rel_tol=rel_tol, max_epochs=40,
                             split_fractions=fractions)
        run = train(config, l4, norm, rho if mode == "supervised" else None)
        kept, monitored = monitored_loss(config, run, l4, rho, norm)
        assert kept == min(monitored)
        assert all(("val_loss" in record) == (len(run.split.val) > 0) for record in run.history)
        if kind == "linear" and rel_tol == 0:
            # Each linear run stops early: the kept model is `patience` epochs old.
            assert run.converged and run.epochs < config.max_epochs
            assert kept == monitored[-config.patience - 1]

    def test_unsupervised_run_that_stops_early_keeps_the_unstepped_model(self):
        # The model one Adam step past the best has a training loss of 0.11914 here.
        l4, rho, norm = early_stopping_scene()
        config = TrainConfig(mode="unsupervised", lr=0.2, patience=5)
        run = train(config, l4, norm)
        kept, monitored = monitored_loss(config, run, l4, rho, norm)
        assert (run.converged, run.epochs) == (True, 20)
        assert kept == min(monitored) == pytest.approx(0.11031, abs=1e-5)


def trained_runs(members):
    return [r for r in members if isinstance(r, TrainRun)]


class TestEnsemble:
    def test_deterministic_aggregates(self):
        cube, truth = tiny_scene()
        _, l4, rho = sample_pixels(cube, truth, 30, seed=5)
        config = TrainConfig(max_epochs=10, solver=SolverConfig("rk4", 8), seed=2)
        a = trained_runs(ensemble(config, l4, truth.norm, n_runs=2, rho=rho))
        b = trained_runs(ensemble(config, l4, truth.norm, n_runs=2, rho=rho))
        np.testing.assert_array_equal([r.model.t1 for r in a], [r.model.t1 for r in b])
        np.testing.assert_array_equal([r.roi_reflectance for r in a], [r.roi_reflectance for r in b])

    @pytest.mark.parametrize("reshuffle", [False, True])
    def test_reshuffle_redraws_each_members_split(self, reshuffle):
        cube, truth = tiny_scene()
        _, l4, rho = sample_pixels(cube, truth, 30, seed=5)
        config = TrainConfig(max_epochs=2, solver=SolverConfig("rk4", 8), seed=2)
        runs = trained_runs(ensemble(config, l4, truth.norm, n_runs=3, rho=rho, reshuffle=reshuffle))
        base = split_dataset(len(l4), config.fractions, config.seed)
        assert [run.config.seed for run in runs] == [2, 3, 4]
        assert runs[0].split == base
        if reshuffle:
            assert runs[1].split != runs[0].split
        else:
            assert all(run.split == base for run in runs)

    def test_members_keep_their_transmittance_and_roi_reflectance(self):
        # What `dinsat train` writes to each run record, as it computed it before.
        cube, truth = tiny_scene()
        _, l4, _ = sample_pixels(cube, None, 30, seed=5)
        config = TrainConfig(mode="unsupervised", max_epochs=6, solver=SolverConfig("rk4", 8), seed=2)
        for run in trained_runs(ensemble(config, l4, truth.norm, n_runs=2)):
            model = run.model
            assert model.solver == config.solver
            rho_hat, _ = correct_batch(model, truth.norm, l4)
            np.testing.assert_array_equal(run.roi_reflectance, rho_hat.mean(axis=0))

    def test_failed_member_is_its_error_in_member_order(self, monkeypatch):
        real_train = training.train
        failure = NumericError("injected failure")

        def train_failing_member_1(config, *args, **kwargs):
            if config.seed == 5 + 1:
                raise failure
            return real_train(config, *args, **kwargs)

        monkeypatch.setattr(training, "train", train_failing_member_1)
        cube, truth = tiny_scene()
        _, l4, _ = sample_pixels(cube, None, 30, seed=5)
        config = TrainConfig(mode="unsupervised", max_epochs=2, solver=SolverConfig("rk4", 8), seed=5)
        members = ensemble(config, l4, truth.norm, n_runs=3)
        assert [type(m) for m in members] == [TrainRun, NumericError, TrainRun]
        assert members[1] is failure
        assert (members[0].config.seed, members[2].config.seed) == (5, 7)

    def test_member_whose_roi_correction_raises_is_its_failure(self, monkeypatch):
        real_correct_batch = training.correct_batch
        calls = []

        def correct_batch_failing_call_1(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise NumericError("injected failure")
            return real_correct_batch(*args, **kwargs)

        monkeypatch.setattr(training, "correct_batch", correct_batch_failing_call_1)
        cube, truth = tiny_scene()
        _, l4, _ = sample_pixels(cube, None, 30, seed=5)
        config = TrainConfig(mode="unsupervised", max_epochs=2, solver=SolverConfig("rk4", 8))
        members = ensemble(config, l4, truth.norm, n_runs=2)
        assert isinstance(members[0], TrainRun) and str(members[1]) == "injected failure"

    def test_zero_runs_rejected(self):
        with pytest.raises(ConfigError):
            ensemble(TrainConfig(), [], SceneNormalization.identity(2), n_runs=0)

    def test_all_members_failing_raise_the_first_category_with_every_reason(self):
        # Three pixels: the val fraction 0.1 rounds to zero samples in every member.
        config = TrainConfig(mode="unsupervised", max_epochs=2, split_fractions=(0.5, 0.1, 0.4))
        l4 = np.random.default_rng(0).uniform(0.1, 0.9, (3, 4))
        with pytest.raises(ConfigError) as info:
            ensemble(config, l4, SceneNormalization.identity(4), n_runs=2)
        assert str(info.value) == (
            "all ensemble members failed: "
            "run 0: val fraction is positive but rounds to zero samples; "
            "run 1: val fraction is positive but rounds to zero samples"
        )

    def test_every_member_failing_raises_one_error_naming_each(self, monkeypatch):
        errors = [NumericError("diverged"), ShapeError("bad shape"), NumericError("diverged again")]

        def train_failing(config, *args, **kwargs):
            raise errors[config.seed]

        monkeypatch.setattr(training, "train", train_failing)
        l4 = np.random.default_rng(0).uniform(0.1, 0.9, (10, 4))
        with pytest.raises(NumericError) as info:
            ensemble(TrainConfig(mode="unsupervised"), l4, SceneNormalization.identity(4), n_runs=3)
        assert str(info.value) == (
            "all ensemble members failed: run 0: diverged; run 1: bad shape; run 2: diverged again"
        )



class TestEvaluate:
    def test_truth_model_near_zero_error(self):
        cube, truth = tiny_scene()
        _, l4, rho = sample_pixels(cube, truth, 25, seed=6)
        model = replace(linear_profile(truth.alpha), solver=SolverConfig("rk4", 64))
        metrics = evaluate_regions(model, truth.norm, [(l4, rho)])[0]
        assert metrics["reflectance_percent_mse"] < 0.01

    def test_identity_model_strictly_worse(self):
        cube, truth = tiny_scene()
        _, l4, rho = sample_pixels(cube, truth, 25, seed=6)
        cfg = SolverConfig("rk4", 16)
        good = evaluate_regions(replace(linear_profile(truth.alpha), solver=cfg), truth.norm, [(l4, rho)])[0]
        bad = evaluate_regions(replace(identity_model(cube.n_bands), solver=cfg), truth.norm, [(l4, rho)])[0]
        assert bad["reflectance_percent_mse"] > good["reflectance_percent_mse"]

    def test_missing_inputs_warn(self):
        cube, truth = tiny_scene()
        _, l4, rho = sample_pixels(cube, None, 5, seed=0)
        model = replace(linear_profile(truth.alpha), solver=SolverConfig("rk4", 8))
        metrics = evaluate_regions(model, truth.norm, [(l4, rho)])[0]
        assert "reflectance_percent_mse" not in metrics
        assert metrics["warnings"]

    def test_radiance_direction_metric(self):
        cube, truth = tiny_scene()
        # A homogeneous ROI: every sample is the same pixel, the library
        # spectrum is its true reflectance, so simulation must match closely.
        l4 = cube.data[[4, 4, 4], [4, 4, 4]]
        model = replace(linear_profile(truth.alpha), solver=SolverConfig("rk4", 64))
        library_radiance = simulate_values(model, truth.norm, truth.rho[4, 4])
        metrics = evaluate_regions(model, truth.norm, [(l4, None)], library_radiance)[0]
        assert metrics["radiance_percent_mse"] < 0.01


class TestPixelArrayChecks:
    """train and evaluate_regions reject malformed (n, bands) pixel arrays up front."""

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
            evaluate_regions(identity_model(3), SceneNormalization.identity(3), [(l4, rho)])

    def test_norm_of_other_bands_rejected(self):
        l4, rho = np.full((40, 3), 0.5), np.full((40, 3), 0.4)
        norm = SceneNormalization.identity(1)
        with pytest.raises(ShapeError):
            train(TrainConfig(max_epochs=1), l4, norm, rho)
        with pytest.raises(ShapeError):
            evaluate_regions(identity_model(3), norm, [(l4, rho)])
