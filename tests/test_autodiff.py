import warnings

import numpy as np
import pytest
from scipy.special import expit

from dinsat import autodiff as ad
from dinsat.errors import ContractError, NumericError, ShapeError
from dinsat.mlp import MlpLayout, glorot_init, mlp_forward
from dinsat.optim import AdamState, adam_step


# Traced arithmetic in these tests is ad.node or ad.elementwise with the VJP
# written out, as in the package.


def square(x):
    return ad.elementwise(x, lambda v: v * v, lambda v, _: 2.0 * v)


def scale(x, c):
    return ad.elementwise(x, lambda v: c * v, lambda v, _: c)


def product(a, b):
    av, bv = ad.value_of(a), ad.value_of(b)
    return ad.node(av * bv, (a, b), lambda g: (g * bv, g * av))


def total(x):
    return ad.node(ad.value_of(x).sum(), (x,), lambda g: (np.full(np.shape(ad.value_of(x)), g),))


def _grad_of(build, x0):
    tape = ad.Tape()
    x = tape.leaf(x0)
    out = build(x)
    ad.backward(out)
    return ad.value_of(out), x.grad


class TestPrimitiveOps:
    def test_nonfinite_forward_rejected(self):
        tape = ad.Tape()
        x = tape.leaf(np.array([1e200]))
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            square(x)

    def test_cross_tape_operands_rejected(self):
        a = ad.Tape().leaf(np.zeros(2))
        b = ad.Tape().leaf(np.zeros(2))
        with pytest.raises(ContractError):
            product(a, b)

    @pytest.mark.parametrize("op", [
        lambda x, v: x * v, lambda x, v: v * x, lambda x, v: x + v, lambda x, v: v - x,
        lambda x, v: x / 2.0, lambda x, v: np.float64(2.0) * x, lambda x, v: x[0],
    ])
    def test_var_has_no_arithmetic(self, op):
        # With no operators on Var and __array_ufunc__ = None, numpy neither
        # builds an object array nor loops over the Var: the expression fails.
        x = ad.Tape().leaf(np.ones(3))
        with pytest.raises(TypeError):
            op(x, np.ones(3))

    def test_untraced_node_returns_value(self):
        value = np.arange(3.0)
        assert ad.node(value, (np.ones(3),), lambda g: (g,)) is value


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
        _, grad = _grad_of(lambda x: total(square(x)), np.array([3.0]))
        assert grad[0] == pytest.approx(6.0)

    def test_product_rule(self):
        tape = ad.Tape()
        x = tape.leaf(np.array([2.0]))
        y = tape.leaf(np.array([5.0]))
        ad.backward(total(product(x, y)))
        assert (x.grad[0], y.grad[0]) == (5.0, 2.0)

    def test_nonscalar_output_rejected(self):
        tape = ad.Tape()
        x = tape.leaf(np.zeros(3))
        with pytest.raises(ContractError):
            ad.backward(scale(x, 2.0))

    def test_unreached_leaf_gets_zero(self):
        tape = ad.Tape()
        x = tape.leaf(np.array([1.0]))
        y = tape.leaf(np.array([4.0]))
        ad.backward(total(scale(x, 3.0)))
        assert y.grad[0] == 0.0

    def test_fd_oracle_random_scalar_functions(self):
        # Elementwise nodes, a many-input node and a shared input feeding
        # several nodes: the gradient must match central differences.
        rng = np.random.default_rng(7)
        mat = rng.uniform(-1.0, 1.0, (3, 9))

        def build(x):
            a = ad.elementwise(x, ad.logistic, lambda v, s: s * (1.0 - s))
            b = ad.elementwise(x, lambda v: np.logaddexp(0.0, v), lambda v, _: ad.logistic(v))
            c = ad.elementwise(scale(x, 0.3), np.exp, lambda v, e: e)
            av, bv, cv = (ad.value_of(t) for t in (a, b, c))
            mix = ad.node(
                av * bv + cv / (1.5 + mat.T @ (mat @ bv)),
                (a, b, c),
                lambda g: (
                    g * bv,
                    g * av - mat.T @ (mat @ (g * cv / (1.5 + mat.T @ (mat @ bv)) ** 2)),
                    g / (1.5 + mat.T @ (mat @ bv)),
                ),
            )
            return ad.node(ad.value_of(mix).mean(), (mix,), lambda g: (np.full(9, g / 9),))

        for _ in range(100):
            x0 = rng.uniform(-2.0, 2.0, 9)
            tape = ad.Tape()
            x = tape.leaf(x0)
            ad.backward(build(x))
            fd = ad.finite_difference(lambda v: float(build(v)), x0.copy())
            denom = np.maximum(np.abs(fd), 1e-6)
            assert np.max(np.abs(x.grad - fd) / denom) < 1e-4

    def test_deterministic_forward(self):
        rng = np.random.default_rng(0)
        x0 = rng.uniform(-1, 1, 5)

        def run():
            tape = ad.Tape()
            x = tape.leaf(x0)
            y = ad.elementwise(square(x), lambda v: np.logaddexp(0.0, v), lambda v, _: ad.logistic(v))
            return ad.value_of(total(product(y, 1.0 / (1.0 + np.abs(x0)))))

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
