import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import expit

from dinsat import autodiff as ad
from dinsat.correction import SceneNormalization
from dinsat.errors import ContractError, NumericError, ShapeError
from dinsat.mlp import mlp_forward
from dinsat.ode import SolverConfig, ode_solve
from dinsat.training import supervised_loss
from dinsat.transmission import (
    LinearProfile,
    NonlinearProfile,
    invert_transmit,
    linear_factor,
    rhs_values,
    softplus_inverse,
    transmit,
    transmittance_spectrum,
    transmittance_values,
)
from dinsat.types import Spectrum

CFG = SolverConfig("rk4", 16)


def linear(alpha):
    return LinearProfile.from_alpha(np.asarray(alpha, float))


def product(a, b):
    """a * b as one node, for (..., n) a and (n,) b."""
    av, bv = ad.value_of(a), ad.value_of(b)
    return ad.node(av * bv, (a, b), lambda g: (g * bv, (g * av).reshape(-1, bv.size).sum(axis=0)))


def weighted_sum(weights, x):
    """sum(weights * x) as one node."""
    return ad.node(np.sum(weights * ad.value_of(x)), (x,), lambda g: (g * weights,))


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


def complex_linear_factor(raw, cfg):
    """P(-log1p(exp(raw)) h)^n in complex arithmetic: the test's own closed form."""
    poly = {"euler": lambda z: 1 + z, "rk4": lambda z: 1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24}
    h = (cfg.x_end - cfg.x0) / cfg.steps
    return poly[cfg.method](-np.log1p(np.exp(raw)) * h) ** cfg.steps


class TestLinearRhs:
    def test_zero_absorption_limit(self):
        profile = LinearProfile(np.full(3, -40.0))
        out = rhs_values(np.array([1.0, 2.0, 3.0]), profile)
        assert np.max(np.abs(out)) < 1e-15

    def test_definition(self):
        out = rhs_values(np.array([1.0, 1.0]), linear([1.0, 2.0]))
        np.testing.assert_allclose(out, [-1.0, -2.0], rtol=1e-8)

    def test_origin_fixed_point(self):
        out = rhs_values(np.zeros(4), linear([0.3, 1.0, 2.0, 0.1]))
        np.testing.assert_allclose(out, np.zeros(4))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            rhs_values(np.zeros(5), linear([1.0, 2.0]))

    def test_softplus_inverse_round_trip(self):
        alpha = np.array([1e-3, 0.5, 2.0, 8.0])
        np.testing.assert_allclose(linear(alpha).alpha, alpha, rtol=1e-9)


class TestNonlinearRhs:
    def test_zero_input_fixed_point(self):
        rng = np.random.default_rng(0)
        profile = NonlinearProfile.initialize(6, rng)
        np.testing.assert_allclose(rhs_values(np.zeros(6), profile), np.zeros(6))

    def test_sign_construction(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            profile = NonlinearProfile.initialize(8, rng)
            L = rng.uniform(0, 2, 8)
            assert np.all(rhs_values(L, profile) <= 0)

    def test_zero_params_half_decay(self):
        profile = NonlinearProfile(np.zeros(NonlinearProfile.initialize(4, np.random.default_rng(0)).params.size), 4)
        L = np.array([0.2, 0.4, 0.8, 1.6])
        np.testing.assert_allclose(rhs_values(L, profile), -0.5 * L, rtol=1e-12)


class TestNonlinearFusedRhs:
    """The fused right-hand side against mlp_forward and finite differences."""

    @pytest.mark.parametrize("shape", [(5,), (3, 5)])
    def test_forward_bit_identical_to_mlp_composition(self, shape):
        rng = np.random.default_rng(9)
        profile = NonlinearProfile.initialize(5, rng)
        L = rng.uniform(0, 2, shape)
        n_enc = profile.encoder_layout.n_params
        z = mlp_forward(profile.params[:n_enc], profile.encoder_layout, L)
        d = mlp_forward(profile.params[n_enc:], profile.decoder_layout, z)
        np.testing.assert_array_equal(rhs_values(L, profile), -(expit(d) * L))

    @pytest.mark.parametrize("shape", [(5,), (3, 5)])
    def test_vjp_matches_finite_differences(self, shape):
        rng = np.random.default_rng(10)
        profile = NonlinearProfile.initialize(5, rng)
        L0 = rng.uniform(0, 2, shape)
        weights = rng.uniform(-1.0, 1.0, shape)

        def objective(params, L):
            return float(np.sum(weights * profile.rhs_from(params)(L)))

        value, vjp = profile.rhs_from(profile.params).value_and_vjp(L0.copy())
        np.testing.assert_array_equal(value, rhs_values(L0, profile))
        g_L, g_p = vjp(weights)
        fd_p = ad.finite_difference(lambda p: objective(p, L0), profile.params.copy())
        fd_L = ad.finite_difference(lambda L: objective(profile.params, L), L0.copy())
        np.testing.assert_allclose(g_p, fd_p, rtol=1e-6, atol=1e-9)
        np.testing.assert_allclose(g_L, fd_L, rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_untraced_operators_equal_traced_values(self, method):
        # Untraced, the solver and the rhs work in place on ndarrays; traced,
        # they record tape nodes. Both must compute the same bits.
        rng = np.random.default_rng(13)
        profile = NonlinearProfile.initialize(6, rng)
        L = rng.uniform(0, 2, (4, 6))
        cfg = SolverConfig(method, 8)
        leaf = ad.Tape().leaf(profile.params.copy())
        for op in (profile.forward, profile.inverse):
            traced = op(leaf, L, cfg)
            assert isinstance(traced, ad.Var)
            np.testing.assert_array_equal(op(profile.params, L, cfg), traced.value)

    def test_untraced_rhs_is_plain(self):
        profile = NonlinearProfile.initialize(5, np.random.default_rng(11))
        out = profile.rhs_from(profile.params)(np.ones((2, 5)))
        assert type(out) is np.ndarray

    def test_cross_tape_operands_rejected(self):
        profile = NonlinearProfile.initialize(5, np.random.default_rng(12))
        params = ad.Tape().leaf(profile.params)
        with pytest.raises(ContractError):
            ode_solve(profile.rhs_from(params), ad.Tape().leaf(np.ones(5)), CFG)


class TestNonlinearFusedSolve:
    """A traced nonlinear solve is one tape node with the discrete adjoint as its VJP."""

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    @pytest.mark.parametrize("direction", ["forward", "inverse"])
    @pytest.mark.parametrize("shape", [(5,), (3, 5)])
    def test_gradients_match_finite_differences(self, method, direction, shape):
        # L = rho * T(1), as in simulate_values: a traced state built from the
        # params, plus a second leaf of its own.
        rng = np.random.default_rng(14)
        profile = NonlinearProfile.initialize(5, rng)
        cfg = SolverConfig(method, 4)
        rho0 = rng.uniform(0.1, 1.0, shape)
        weights = rng.uniform(-1.0, 1.0, shape)
        op = getattr(profile, direction)

        def objective(params, rho):
            return weighted_sum(weights, op(params, product(rho, profile.t1(params, cfg)), cfg))

        tape = ad.Tape()
        p_leaf = tape.leaf(profile.params.copy())
        rho_leaf = tape.leaf(rho0.copy())
        ad.backward(objective(p_leaf, rho_leaf))
        fd_p = ad.finite_difference(lambda p: float(objective(p, rho0)), profile.params.copy())
        fd_rho = ad.finite_difference(lambda r: float(objective(profile.params, r)), rho0.copy())
        np.testing.assert_allclose(p_leaf.grad, fd_p, rtol=1e-6, atol=1e-9)
        np.testing.assert_allclose(rho_leaf.grad, fd_rho, rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_solve_is_one_node(self, method):
        profile = NonlinearProfile.initialize(5, np.random.default_rng(15))
        tape = ad.Tape()
        leaf = tape.leaf(profile.params.copy())
        out = profile.forward(leaf, np.ones((2, 5)), SolverConfig(method, 16))
        assert tape.nodes == [leaf, out]

    @pytest.mark.parametrize("direction,L,match", [
        ("forward", np.array([[0.5, np.nan, 0.5, 0.5]]), "non-finite state at integration step 0"),
        # Zero weights give a decay of exactly 1/2: backward in x the state grows
        # by e^(x/2) and crosses the overflow guard part-way through.
        ("inverse", np.full(4, 9e11), r"state diverged \(>1e\+12\) at integration step [1-9]"),
    ])
    def test_traced_errors_equal_untraced(self, direction, L, match):
        n_params = NonlinearProfile.initialize(4, np.random.default_rng(0)).params.size
        profile = NonlinearProfile(np.zeros(n_params), 4)
        op = getattr(profile, direction)
        with pytest.raises(NumericError, match=match) as untraced:
            op(profile.params, L, CFG)
        with pytest.raises(NumericError) as traced:
            op(ad.Tape().leaf(profile.params.copy()), L, CFG)
        assert str(traced.value) == str(untraced.value)

    def test_supervised_tape_size_independent_of_steps(self):
        rng = np.random.default_rng(16)
        n = 126
        norm = SceneNormalization(rng.uniform(0, 0.05, n), 1.3)
        l4 = norm.c + rng.uniform(0.1, 1.0, (8, n))
        rho = rng.uniform(0, 1, (8, n))
        model = NonlinearProfile.initialize(n, rng)
        counts = []
        for steps in (4, 16):
            tape = ad.Tape()
            loss = supervised_loss(
                model, norm, l4, rho, SolverConfig("rk4", steps), params=tape.leaf(model.params)
            )
            ad.backward(loss)
            counts.append(len(tape.nodes))
        assert counts[0] == counts[1] <= 40


class TestTransmit:
    def test_linear_half(self):
        out = transmit(linear(np.full(5, np.log(2.0))), np.ones(5), CFG)
        np.testing.assert_allclose(out, 0.5, atol=1e-8)

    def test_zero_fixed_point(self):
        rng = np.random.default_rng(2)
        for model in (linear(rng.uniform(0, 3, 4)), NonlinearProfile.initialize(4, rng)):
            np.testing.assert_allclose(transmit(model, np.zeros(4), CFG), np.zeros(4))

    def test_zero_absorption_identity(self):
        profile = LinearProfile(np.full(3, -40.0))
        L = np.array([0.1, 0.5, 0.9])
        np.testing.assert_allclose(transmit(profile, L, CFG), L, atol=1e-12)

    def test_spectrum_wrapper_preserves_unit(self):
        out = transmit(linear([1.0, 1.0]), Spectrum(np.array([1.0, 2.0]), "radiance"), CFG)
        assert isinstance(out, Spectrum)
        assert out.unit == "radiance"


class TestInvertTransmit:
    def test_linear_doubling(self):
        out = invert_transmit(linear(np.full(4, np.log(2.0))), 0.5 * np.ones(4), CFG)
        np.testing.assert_allclose(out, 1.0, atol=1e-6)

    def test_linear_round_trip_tight(self):
        rng = np.random.default_rng(3)
        model = linear(rng.uniform(0, 5, 126))
        L = rng.uniform(0, 1, 126)
        back = invert_transmit(model, transmit(model, L, CFG), CFG)
        assert np.max(np.abs(back - L)) < 1e-9

    def test_nonlinear_round_trip(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            model = NonlinearProfile.initialize(126, rng)
            L = rng.uniform(0, 1, 126)
            back = invert_transmit(model, transmit(model, L, CFG), CFG)
            assert np.max(np.abs(back - L)) < 1e-4

    def test_output_dominates_input(self):
        rng = np.random.default_rng(5)
        model = linear(rng.uniform(0, 2, 8))
        L = rng.uniform(0, 1, 8)
        assert np.all(invert_transmit(model, L, CFG) >= L)


class TestTransmittanceSpectrum:
    def test_zero_absorption(self):
        profile = LinearProfile(np.full(3, -40.0))
        np.testing.assert_allclose(transmittance_spectrum(profile, CFG).values, 1.0, atol=1e-12)

    def test_unit_rate(self):
        out = transmittance_spectrum(linear(np.ones(6)), CFG)
        assert out.unit == "transmittance"
        np.testing.assert_allclose(out.values, np.exp(-1.0), atol=1e-7)

    def test_nonlinear_zero_init(self):
        n_params = NonlinearProfile.initialize(5, np.random.default_rng(0)).params.size
        profile = NonlinearProfile(np.zeros(n_params), 5)
        out = transmittance_spectrum(profile, CFG)
        np.testing.assert_allclose(out.values, np.exp(-0.5), atol=1e-2)
        assert np.all((out.values > 0) & (out.values <= 1))


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_dissipativity(self, seed):
        rng = np.random.default_rng(seed)
        L = rng.uniform(0, 2, 12)
        lin = linear(rng.uniform(0.01, 5, 12))
        non = NonlinearProfile.initialize(12, rng)
        for model in (lin, non):
            out = transmit(model, L, CFG)
            assert np.all(out >= -1e-12)
            assert np.all(out <= L + 1e-12)

    def test_monotonicity_in_alpha(self):
        rng = np.random.default_rng(6)
        alpha = rng.uniform(0.1, 3, 10)
        bigger = alpha + rng.uniform(0, 2, 10)
        L = rng.uniform(0, 1, 10)
        assert np.all(transmit(linear(bigger), L, CFG) <= transmit(linear(alpha), L, CFG) + 1e-12)

    def test_linear_homogeneity(self):
        rng = np.random.default_rng(7)
        model = linear(rng.uniform(0, 3, 9))
        L = rng.uniform(0, 1, 9)
        for c in (0.0, 0.5, 3.0):
            np.testing.assert_allclose(
                transmit(model, c * L, CFG), c * transmit(model, L, CFG), rtol=1e-12, atol=1e-15
            )


class TestLinearClosedForm:
    @settings(max_examples=200, deadline=None)
    @given(
        method=st.sampled_from(["euler", "rk4"]),
        steps=st.integers(min_value=1, max_value=64),
        alpha=st.floats(min_value=0.0, max_value=40.0),
    )
    def test_matches_stepped_solver(self, method, steps, alpha):
        cfg = SolverConfig(method, steps)
        model = linear([alpha])
        rate = model.alpha
        closed = transmittance_values(model, model.params, cfg)[0]
        stepped = ode_solve(lambda L: -(rate * L), np.ones(1), cfg)[0]
        gap = abs(closed - stepped)
        if method == "euler" and abs(1.0 - rate[0] / steps) < 1e-2:
            # Euler's factor 1 - alpha h cancels as alpha h nears 1, where both
            # codes round the same tiny T differently: bound the gap relative
            # to the largest state on the path (the initial 1).
            assert gap <= 1e-12 * max(1.0, abs(stepped))
        else:
            assert gap <= 1e-12 * abs(stepped)

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_gradient_matches_finite_differences(self, method):
        rng = np.random.default_rng(8)
        cfg = SolverConfig(method, 16)
        raw = softplus_inverse(rng.uniform(0.1, 5.0, 7))
        weights = rng.uniform(-1.0, 1.0, 7)

        def objective(r):
            return weighted_sum(weights, linear_factor(r, cfg))

        tape = ad.Tape()
        leaf = tape.leaf(raw.copy())
        ad.backward(objective(leaf))
        fd = ad.finite_difference(lambda r: float(objective(r)), raw.copy())
        np.testing.assert_allclose(leaf.grad, fd, rtol=1e-6, atol=1e-9)

    def test_non_finite_factor_is_numeric_error(self):
        with pytest.raises(NumericError):
            linear_factor(np.full(3, 1e8), CFG)


class TestLinearComplexStep:
    """The linear nodes' hand-written derivatives against complex step."""

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_factor_derivative(self, method):
        cfg = SolverConfig(method, 16)
        raw = softplus_inverse(np.linspace(0.1, 30.0, 13))
        leaf = ad.Tape().leaf(raw.copy())
        ad.backward(weighted_sum(np.ones(raw.size), linear_factor(leaf, cfg)))
        # The factor is elementwise, so one perturbation of every band at once
        # gives each band's derivative.
        expected = complex_linear_factor(raw + 1j * H_CS, cfg).imag / H_CS
        np.testing.assert_allclose(leaf.grad, expected, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("direction", ["forward", "inverse"])
    def test_node_cotangents(self, direction):
        rng = np.random.default_rng(17)
        profile = linear(rng.uniform(0.1, 5.0, 6))
        L0 = rng.uniform(0.1, 1.0, (3, 6))
        weights = rng.uniform(-1.0, 1.0, (3, 6))
        t0 = linear_factor(profile.params, CFG)
        tape = ad.Tape()
        if direction == "forward":
            p_leaf, L_leaf = tape.leaf(profile.params.copy()), tape.leaf(L0.copy())
            out = profile.forward(p_leaf, L_leaf, CFG)
            t_node = tape.nodes[2]  # T(1), between the two leaves and T(L)
            np.testing.assert_array_equal(t_node.value, t0)
            np.testing.assert_array_equal(profile.forward(profile.params, L0, CFG), L0 * t0)

            def reference(L, t):
                return np.sum(weights * L * t)
        else:
            L_leaf, t_node = tape.leaf(L0.copy()), tape.leaf(t0.copy())
            out = profile.inverse(None, L_leaf, CFG, transmittance=t_node)

            def reference(L, t):
                return np.sum(weights * L / t)

        ad.backward(weighted_sum(weights, out))
        np.testing.assert_allclose(L_leaf.grad, complex_step(lambda L: reference(L, t0), L0),
                                   rtol=1e-12, atol=0)
        np.testing.assert_allclose(t_node.grad, complex_step(lambda t: reference(L0, t), t0),
                                   rtol=1e-12, atol=0)
