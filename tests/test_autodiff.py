"""The package's hand-written reverse mode, piece by piece.

The training gradient is one explicit pullback chain: each profile's
``inverse_vjp`` gives T(1), T^-1(z) and a pullback to the parameters, and
``training._loss_terms`` feeds it the loss head's cotangents. These tests
check that chain's primitives, the oracles the other tests check it with
(central differences and complex step), the numpy logistic, the MLP layers
and Adam.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import expit

from dinsat.correction import SceneNormalization
from dinsat.errors import ConfigError, NumericError, ShapeError
from dinsat.mlp import MlpLayout, glorot_init, logistic
from dinsat.ode import SolverConfig
from dinsat.optim import AdamState, adam_step
from dinsat.training import TrainConfig, _loss_terms, train
from dinsat.transmission import LinearProfile, NonlinearProfile

from oracles import H_CS, complex_step, finite_difference, mlp_forward

CFG = SolverConfig("rk4", 8)


def profiles(n):
    rng = np.random.default_rng(30)
    return [replace(LinearProfile.initialize(n, rng), solver=CFG),
            replace(NonlinearProfile.initialize(n, rng), solver=CFG)]


class TestPrimitiveOps:
    """The chain's primitives: each profile's inverse_vjp, and the epoch around it."""

    def test_nonfinite_forward_rejected(self):
        # z / T(1) overflows to inf, so the epoch's loss is not finite: the
        # epoch fails with NumericError (CLI exit 4) before any backward work.
        config = TrainConfig(mode="unsupervised", max_epochs=1)
        l4 = np.full((4, 3), 1.5e308)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match="^epoch 0: non-finite training loss$"):
                train(config, l4, SceneNormalization.identity(3))

    def test_untraced_node_returns_value(self):
        # The values inverse_vjp returns are t1_and_inverse's, bit for bit.
        z = np.random.default_rng(31).uniform(0, 1, (3, 5))
        for model in profiles(5):
            t1, l2, _ = model.inverse_vjp(z)
            ref_t1, ref_l2 = model.t1_and_inverse(z)
            np.testing.assert_array_equal(t1, ref_t1)
            np.testing.assert_array_equal(l2, ref_l2)


def _logistic_warnings_as_errors(x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return logistic(x)


class TestLogistic:
    """The package's numpy logistic against scipy's expit as the oracle."""

    X = np.concatenate([np.linspace(-1000.0, 1000.0, 200_001), [-745.0, -709.0, 709.0, 745.0]])

    def test_matches_expit(self):
        out = _logistic_warnings_as_errors(self.X)
        ref = expit(self.X)
        assert np.all(np.abs(out - ref) <= 1e-15 * np.abs(ref))

    def test_saturates_exactly(self):
        out = _logistic_warnings_as_errors(np.array([-1000.0, 1000.0]))
        assert out[0] == 0.0
        assert out[1] == 1.0

    def test_nan_stays_nan(self):
        out = _logistic_warnings_as_errors(np.array([np.nan, 0.0]))
        assert np.isnan(out[0])
        assert out[1] == 0.5

    def test_complex_step_gives_the_derivative(self):
        # Complex input stays complex, so Im s(x + ih) / h is s'(x) = s(x) s(-x).
        x = np.linspace(-30.0, 30.0, 61)
        expected = logistic(x) * logistic(-x)
        np.testing.assert_allclose(logistic(x + 1j * H_CS).imag / H_CS, expected, rtol=1e-12, atol=0)


class TestBackward:
    """The oracles on closed forms, and the pullback chain of a training epoch."""

    ORACLES = (finite_difference, complex_step)

    def test_square(self):
        for oracle in self.ORACLES:
            grad = oracle(lambda x: np.sum(x * x), np.array([3.0]))
            assert grad[0] == pytest.approx(6.0, rel=1e-9)

    def test_product_rule(self):
        for oracle in self.ORACLES:
            grad = oracle(lambda v: v[0] * v[1], np.array([2.0, 5.0]))
            np.testing.assert_allclose(grad, [5.0, 2.0], rtol=1e-9)

    def test_nonscalar_output_rejected(self):
        for oracle in self.ORACLES:
            with pytest.raises(TypeError):
                oracle(lambda x: 2.0 * x, np.zeros(3))

    def test_unreached_leaf_gets_zero(self):
        # With every unsupervised weight zero the loss reaches no parameter,
        # and the pullback adds nothing: the gradient is exactly zero.
        z = np.random.default_rng(32).uniform(0.1, 1, (3, 4))
        config = TrainConfig(mode="unsupervised", rho_weight=0.0, transmission_weight=0.0,
                             slope_weight=0.0, solver=CFG)
        for model in profiles(4):
            loss, _, grad = _loss_terms(config, model, z, None)
            assert loss == 0.0
            np.testing.assert_array_equal(grad, np.zeros_like(model.params))

    def test_fd_oracle_random_scalar_functions(self):
        # A chain with elementwise maps, a many-input step and an input shared
        # by three maps, pulled back by hand as the package does: the gradient
        # must match central differences.
        rng = np.random.default_rng(7)
        mat = rng.uniform(-1.0, 1.0, (3, 9))

        def forward(x):
            a, b, c = logistic(x), np.logaddexp(0.0, x), np.exp(0.3 * x)
            d = 1.5 + mat.T @ (mat @ b)
            return (a * b + c / d).mean(), (a, b, c, d)

        def pullback(x, a, b, c, d):
            g = np.full(9, 1.0 / 9)
            g_a, g_b, g_c = g * b, g * a - mat.T @ (mat @ (g * c / d**2)), g / d
            return g_a * a * (1.0 - a) + g_b * logistic(x) + g_c * 0.3 * c

        for _ in range(100):
            x0 = rng.uniform(-2.0, 2.0, 9)
            grad = pullback(x0, *forward(x0)[1])
            fd = finite_difference(lambda v: forward(v)[0], x0.copy())
            denom = np.maximum(np.abs(fd), 1e-6)
            assert np.max(np.abs(grad - fd) / denom) < 1e-4

    def test_deterministic_forward(self):
        rng = np.random.default_rng(0)
        model = replace(NonlinearProfile.initialize(5, rng), solver=CFG)
        z, rho = rng.uniform(0.1, 1, (4, 5)), rng.uniform(0, 1, (4, 5))

        def run():
            loss, _, grad = _loss_terms(TrainConfig(solver=CFG), model, z, rho)
            return loss, grad.tobytes()

        assert run() == run()


class TestMlp:
    def test_zero_params_zero_output(self):
        layout = MlpLayout((4, 12, 3), ("sigmoid", "linear"))
        out = mlp_forward(np.zeros(layout.n_params), layout, np.ones(4))
        np.testing.assert_allclose(out, np.zeros(3))

    def test_autoencoder_shapes(self):
        rng = np.random.default_rng(1)
        enc = MlpLayout((126, 12, 3), ("sigmoid", "linear"))
        dec = MlpLayout((3, 12, 126), ("sigmoid", "linear"))
        x = rng.uniform(0, 1, 126)
        z = mlp_forward(glorot_init(enc, rng), enc, x)
        y = mlp_forward(glorot_init(dec, rng), dec, z)
        assert z.shape == (3,)
        assert y.shape == (126,)

    def test_single_linear_layer_is_affine(self):
        layout = MlpLayout((2, 3), ("linear",))
        w = np.arange(6.0).reshape(2, 3)
        b = np.array([1.0, -1.0, 0.5])
        params = np.concatenate([w.ravel(), b])
        v = np.array([2.0, -1.0])
        np.testing.assert_allclose(mlp_forward(params, layout, v), v @ w + b)

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(2)
        layout = MlpLayout((5, 12, 4), ("sigmoid", "linear"))
        params = glorot_init(layout, rng)
        batch = rng.uniform(-1, 1, (3, 5))
        out = mlp_forward(params, layout, batch)
        for i in range(3):
            np.testing.assert_allclose(out[i], mlp_forward(params, layout, batch[i]))

    def test_sigmoid_hidden_bounded(self):
        rng = np.random.default_rng(3)
        layout = MlpLayout((6, 12, 6), ("sigmoid", "linear"))
        params = glorot_init(layout, rng)
        big = rng.uniform(-100, 100, (20, 6))
        out = mlp_forward(params, layout, big)
        assert np.all(np.isfinite(out))
        # linear output of a bounded hidden layer: |out| <= sum|W| + |b|
        assert np.max(np.abs(out)) < np.sum(np.abs(params)) + 1.0

    def test_dimension_mismatch(self):
        layout = MlpLayout((4, 12, 3), ("sigmoid", "linear"))
        with pytest.raises(ShapeError):
            mlp_forward(np.zeros(layout.n_params), layout, np.ones(5))


class TestAdam:
    def test_first_step_is_signed_lr(self):
        state = AdamState(lr=0.01)
        g = np.array([0.5, -2.0, 1e-3])
        new = adam_step(state, np.zeros(3), g)
        np.testing.assert_allclose(new, -0.01 * np.sign(g), rtol=1e-4)

    def test_zero_gradient_fixed_point(self):
        state = AdamState(lr=0.05)
        params = np.array([1.0, -2.0])
        for _ in range(10):
            params = adam_step(state, params, np.zeros(2))
        np.testing.assert_allclose(params, [1.0, -2.0])

    def test_constant_gradient_drift(self):
        # With a constant gradient, bias-corrected Adam moves ~lr per step.
        state = AdamState(lr=0.01)
        params = np.zeros(1)
        g = np.array([0.37])
        reference = np.zeros(1)
        m = v = 0.0
        for t in range(1, 201):
            m = 0.9 * m + 0.1 * g[0]
            v = 0.999 * v + 0.001 * g[0] ** 2
            reference[0] -= 0.01 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
            params = adam_step(state, params, g)
        np.testing.assert_allclose(params, reference, rtol=1e-12)
        assert params[0] == pytest.approx(-200 * 0.01, rel=1e-3)

    def test_nonfinite_gradient_aborts(self):
        state = AdamState()
        with pytest.raises(NumericError):
            adam_step(state, np.zeros(2), np.array([1.0, np.inf]))
        assert state.t == 0

    @pytest.mark.parametrize("lr", [np.nan, np.inf, 0.0, -0.01])
    def test_non_finite_or_non_positive_lr_rejected(self, lr):
        with pytest.raises(ConfigError, match="^learning rate must be positive and finite"):
            AdamState(lr=lr)
