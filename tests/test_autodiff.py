import warnings

import numpy as np
import pytest
from scipy.special import expit

from dinsat import autodiff as ad
from dinsat.errors import ContractError, NumericError, ShapeError
from dinsat.mlp import MlpLayout, glorot_init, mlp_forward
from dinsat.optim import AdamState, adam_step


def _grad_of(build, x0):
    tape = ad.Tape()
    x = tape.leaf(x0)
    out = build(x)
    ad.backward(out)
    return ad.value_of(out), x.grad


class TestPrimitiveOps:
    def test_shape_mismatch(self):
        tape = ad.Tape()
        a = tape.leaf(np.zeros(3))
        with pytest.raises(ShapeError):
            ad.add(a, np.zeros(4))

    def test_nonfinite_forward_rejected(self):
        tape = ad.Tape()
        x = tape.leaf(np.array([1e200]))
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            x * x

    def test_cross_tape_operands_rejected(self):
        a = ad.Tape().leaf(np.zeros(2))
        b = ad.Tape().leaf(np.zeros(2))
        with pytest.raises(ContractError):
            ad.add(a, b)


def _logistic_warnings_as_errors(x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return ad.logistic(x)


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

    def test_in_place_equals_fresh(self):
        x = self.X.copy()
        out = ad.logistic(x, out=x)
        assert out is x
        np.testing.assert_array_equal(x, ad.logistic(self.X))


class TestBackward:
    def test_square(self):
        _, grad = _grad_of(lambda x: ad.sum(x * x), np.array([3.0]))
        assert grad[0] == pytest.approx(6.0)

    def test_product_rule(self):
        tape = ad.Tape()
        x = tape.leaf(np.array([2.0]))
        y = tape.leaf(np.array([5.0]))
        ad.backward(ad.sum(x * y))
        assert (x.grad[0], y.grad[0]) == (5.0, 2.0)

    def test_nonscalar_output_rejected(self):
        tape = ad.Tape()
        x = tape.leaf(np.zeros(3))
        with pytest.raises(ContractError):
            ad.backward(x * 2.0)

    def test_unreached_leaf_gets_zero(self):
        tape = ad.Tape()
        x = tape.leaf(np.array([1.0]))
        y = tape.leaf(np.array([4.0]))
        ad.backward(ad.sum(x * 3.0))
        assert y.grad[0] == 0.0

    def test_repeated_array_index_accumulates(self):
        tape = ad.Tape()
        x = tape.leaf(np.array([1.0, 2.0, 3.0]))
        ad.backward(ad.sum(x[[0, 0, 2]]))
        np.testing.assert_array_equal(x.grad, [2.0, 0.0, 1.0])

    def test_slice_gradient(self):
        tape = ad.Tape()
        x = tape.leaf(np.arange(12.0).reshape(3, 4))
        ad.backward(ad.sum(x[1:, :-1] * np.array([1.0, 2.0, 3.0])))
        np.testing.assert_array_equal(x.grad, [[0, 0, 0, 0], [1, 2, 3, 0], [1, 2, 3, 0]])

    def test_fd_oracle_random_scalar_functions(self):
        # Every primitive participates; gradient must match central differences.
        rng = np.random.default_rng(7)
        mat = rng.uniform(-1.0, 1.0, (3, 3))

        def build(x):
            a = ad.elementwise(x[0:3], ad.logistic, lambda x, s: s * (1.0 - s))
            b = ad.softplus(x[3:6])
            c = ad.elementwise(x[6:9] * 0.3, np.exp, lambda x, e: e)
            d = ad.absolute(x[0:3] - x[6:9])
            v = x[[0, 4, 8]]
            m = ad.node(mat @ v.value, (v,), lambda g: (mat.T @ g,))
            mix = a * b + c / (1.5 + ad.softplus(d)) + m
            return ad.mean(mix) + ad.sum(ad.clip_min(x, 0.1)) * 0.01

        for _ in range(100):
            x0 = rng.uniform(-2.0, 2.0, 9)
            # keep away from the clip kink where the derivative jumps
            x0[np.abs(x0 - 0.1) < 1e-3] += 0.01
            tape = ad.Tape()
            x = tape.leaf(x0)
            ad.backward(build(x))
            fd = ad.finite_difference(
                lambda v: float(ad.value_of(build(ad.Tape().leaf(v)))), x0.copy()
            )
            denom = np.maximum(np.abs(fd), 1e-6)
            assert np.max(np.abs(x.grad - fd) / denom) < 1e-4

    def test_deterministic_forward(self):
        rng = np.random.default_rng(0)
        x0 = rng.uniform(-1, 1, 5)

        def run():
            tape = ad.Tape()
            x = tape.leaf(x0)
            return ad.value_of(ad.mean(ad.softplus(x * x) / (1.0 + ad.absolute(x))))

        assert run() == run()


class TestMlp:
    def test_zero_params_zero_output(self):
        layout = MlpLayout.one_hidden(4, 12, 3)
        out = mlp_forward(np.zeros(layout.n_params), layout, np.ones(4))
        np.testing.assert_allclose(out, np.zeros(3))

    def test_autoencoder_shapes(self):
        rng = np.random.default_rng(1)
        enc = MlpLayout.one_hidden(126, 12, 3)
        dec = MlpLayout.one_hidden(3, 12, 126)
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
        layout = MlpLayout.one_hidden(5, 12, 4)
        params = glorot_init(layout, rng)
        batch = rng.uniform(-1, 1, (3, 5))
        out = mlp_forward(params, layout, batch)
        for i in range(3):
            np.testing.assert_allclose(out[i], mlp_forward(params, layout, batch[i]))

    def test_sigmoid_hidden_bounded(self):
        rng = np.random.default_rng(3)
        layout = MlpLayout.one_hidden(6, 12, 6)
        params = glorot_init(layout, rng)
        big = rng.uniform(-100, 100, (20, 6))
        out = mlp_forward(params, layout, big)
        assert np.all(np.isfinite(out))
        # linear output of a bounded hidden layer: |out| <= sum|W| + |b|
        assert np.max(np.abs(out)) < np.sum(np.abs(params)) + 1.0

    def test_dimension_mismatch(self):
        layout = MlpLayout.one_hidden(4, 12, 3)
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
