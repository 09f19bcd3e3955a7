import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import expit

from dinsat.errors import NumericError, ShapeError
from dinsat.mlp import MlpLayout, batch_layers, glorot_init, unpack_params
from dinsat.ode import METHODS, SolverConfig, ode_solve, solve_vjp
from dinsat.transmission import (
    LinearProfile,
    NonlinearProfile,
    invert_values,
    linear_factor,
    softplus_inverse,
    transmittance_values,
)

from oracles import H_CS, complex_step, finite_difference, linear_alpha, linear_profile, linear_rate, mlp_forward

CFG = SolverConfig("rk4", 16)


def complex_linear_factor(raw, cfg):
    """P(-log1p(exp(raw)) h)^n in complex arithmetic: the test's own closed form."""
    poly = {"euler": lambda z: 1 + z, "rk4": lambda z: 1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24}
    h = (cfg.x_end - cfg.x0) / cfg.steps
    return poly[cfg.method](-np.log1p(np.exp(raw)) * h) ** cfg.steps


def plain_rate(profile, L):
    """r(L) through the plain solve's kernel, the one each stage of ``forward`` and ``inverse`` runs."""
    L, rate = profile._rate(np.asarray(L))
    with np.errstate(over="ignore"):
        return rate(L, np.empty(L.shape, L.dtype))


class TestLinearRhs:
    def test_zero_absorption_limit(self):
        profile = LinearProfile(np.full(3, -40.0))
        out = linear_rate(linear_alpha(profile))(np.array([1.0, 2.0, 3.0]))
        assert np.max(np.abs(out)) < 1e-15

    def test_definition(self):
        profile = linear_profile([1.0, 2.0])
        out = linear_rate(linear_alpha(profile))(np.array([1.0, 1.0]))
        np.testing.assert_allclose(out, [1.0, 2.0], rtol=1e-8)

    def test_origin_fixed_point(self):
        profile = linear_profile([0.3, 1.0, 2.0, 0.1])
        out = linear_rate(linear_alpha(profile))(np.zeros(4))
        np.testing.assert_allclose(out, np.zeros(4))

    def test_softplus_inverse_round_trip(self):
        alpha = np.array([1e-3, 0.5, 2.0, 8.0])
        np.testing.assert_allclose(linear_alpha(linear_profile(alpha)), alpha, rtol=1e-9)


class TestNonlinearRhs:
    def test_zero_input_fixed_point(self):
        rng = np.random.default_rng(0)
        profile = NonlinearProfile.initialize(6, rng)
        np.testing.assert_allclose(profile.rate_vjp(np.zeros(6))[0], np.zeros(6))

    def test_sign_construction(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            profile = NonlinearProfile.initialize(8, rng)
            L = rng.uniform(0, 2, 8)
            assert np.all(profile.rate_vjp(L)[0] >= 0)

    def test_zero_params_half_decay(self):
        profile = NonlinearProfile(np.zeros(NonlinearProfile.initialize(4, np.random.default_rng(0)).params.size), 4)
        L = np.array([0.2, 0.4, 0.8, 1.6])
        np.testing.assert_allclose(profile.rate_vjp(L)[0], 0.5 * L, rtol=1e-12)


class TestNonlinearFusedRhs:
    """The rate and its VJP against mlp_forward and finite differences."""

    @pytest.mark.parametrize("shape", [(5,), (3, 5)])
    def test_forward_bit_identical_to_mlp_composition(self, shape):
        rng = np.random.default_rng(9)
        profile = NonlinearProfile.initialize(5, rng)
        L = rng.uniform(0, 2, shape)
        enc = MlpLayout((5, profile.hidden, profile.latent), ("sigmoid", "linear"))
        dec = MlpLayout((profile.latent, profile.hidden, 5), ("sigmoid", "linear"))
        z = mlp_forward(profile.params[: enc.n_params], enc, L)
        d = mlp_forward(profile.params[enc.n_params :], dec, z)
        np.testing.assert_array_equal(profile.rate_vjp(L)[0], expit(d) * L)
        np.testing.assert_array_equal(plain_rate(profile, L), expit(d) * L)

    def test_initialize_draws_encoder_then_decoder(self):
        # The same Glorot draws, in the same order, as one initialization of
        # the encoder layout followed by one of the decoder layout.
        profile = NonlinearProfile.initialize(7, np.random.default_rng(4), hidden=5, latent=2)
        rng = np.random.default_rng(4)
        enc = glorot_init(MlpLayout((7, 5, 2), ("sigmoid", "linear")), rng)
        dec = glorot_init(MlpLayout((2, 5, 7), ("sigmoid", "linear")), rng)
        np.testing.assert_array_equal(profile.params, np.concatenate([enc, dec]))

    def test_one_pass_through_the_network(self, monkeypatch):
        import dinsat.transmission as transmission

        calls = {}
        for name in ("unpack_params", "layers_forward", "layers_backward"):
            def counted(*args, _inner=getattr(transmission, name), _name=name):
                calls[_name] = calls.get(_name, 0) + 1
                return _inner(*args)
            monkeypatch.setattr(transmission, name, counted)
        profile = NonlinearProfile.initialize(5, np.random.default_rng(3))
        _, vjp = profile.rate_vjp(np.full((2, 5), 0.5))
        vjp(np.ones((2, 5)))
        assert calls == {"unpack_params": 1, "layers_forward": 1, "layers_backward": 1}

    def test_network_is_unpacked_once_per_profile(self, monkeypatch):
        import dinsat.transmission as transmission

        calls = []
        monkeypatch.setattr(transmission, "unpack_params",
                            lambda *args, _inner=transmission.unpack_params: calls.append(1) or _inner(*args))
        profile = NonlinearProfile.initialize(5, np.random.default_rng(3))
        z = np.full((2, 5), 0.5)
        profile.t1, profile.forward(z), profile.inverse(z)
        _, _, pullback = profile.inverse_vjp(z)
        pullback(np.ones(5), np.ones((2, 5)))
        assert len(calls) == 1
        profile.with_params(profile.params * 0.5).inverse(z)
        assert len(calls) == 2

    @pytest.mark.parametrize("shape", [(5,), (3, 5)])
    def test_vjp_matches_finite_differences(self, shape):
        rng = np.random.default_rng(10)
        profile = NonlinearProfile.initialize(5, rng)
        L0 = rng.uniform(0, 2, shape)
        weights = rng.uniform(-1.0, 1.0, shape)

        def objective(params, L):
            return np.sum(weights * profile.with_params(params).rate_vjp(L)[0])

        value, vjp = profile.rate_vjp(L0.copy())
        np.testing.assert_array_equal(value, plain_rate(profile, L0))
        g_L, g_p = vjp(weights)
        fd_p = finite_difference(lambda p: objective(p, L0), profile.params.copy())
        fd_L = finite_difference(lambda L: objective(profile.params, L), L0.copy())
        np.testing.assert_allclose(g_p, fd_p, rtol=1e-6, atol=1e-9)
        np.testing.assert_allclose(g_L, fd_L, rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("method", METHODS)
    def test_untraced_operators_equal_traced_values(self, method):
        # solve_vjp steps the rate that also returns VJPs, in new arrays; the
        # plain operators step the rate alone, in the solve's buffers. Both
        # must compute the same bits, in one direction and in the mixed [1; z].
        rng = np.random.default_rng(13)
        profile = NonlinearProfile.initialize(6, rng)
        L = rng.uniform(0, 2, (4, 6))
        cfg = SolverConfig(method, 8)
        profile = replace(profile, solver=cfg)
        batch = np.concatenate([np.ones((1, 6)), L])
        mixed = np.arange(len(batch)) > 0
        for op, y0, reverse in ((profile.forward, L, False), (profile.inverse, L, True),
                                (lambda b: np.vstack(profile.t1_and_inverse(b[1:])), batch, mixed)):
            traced, _ = solve_vjp(profile.rate_vjp, y0, cfg, reverse)
            np.testing.assert_array_equal(op(y0), traced)

    @pytest.mark.parametrize("scale", [1e3, -1e3])
    def test_saturated_decay_is_exact_and_silent(self, scale):
        # Scaled weights push every sigmoid far past exp's overflow point. The
        # decay is then exactly 0 or exactly 1, r(L) = 0 or L, with no warning.
        profile = NonlinearProfile.initialize(126, np.random.default_rng(12))
        saturated = profile.with_params(profile.params * scale)
        L = np.random.default_rng(13).uniform(0.1, 2.0, (64, 126))
        L_before = L.copy()
        L32 = L.astype(np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plain = plain_rate(saturated, L)
            value, _ = saturated.rate_vjp(L)
            # float32's exp overflows from about 88.72, far below float64's 709.78.
            plain32 = plain_rate(saturated, L32)
        np.testing.assert_array_equal(L, L_before)
        assert plain.tobytes() == value.tobytes()
        assert np.any(plain == 0.0) and np.any(plain == L)
        assert plain32.dtype == np.float32
        assert np.any(plain32 == 0.0) and np.any(plain32 == L32)

    def test_float32_rhs_runs_the_float32_layers(self):
        profile = NonlinearProfile.initialize(126, np.random.default_rng(12))
        L = np.random.default_rng(13).uniform(0.0, 1.0, (64, 126))
        L32 = L.astype(np.float32)
        value = plain_rate(profile, L32)
        assert value.dtype == np.float32
        np.testing.assert_allclose(value, plain_rate(profile, L), rtol=1e-5, atol=1e-7)
        # The same network composed by hand from float32 casts of the forward pairs.
        layers = unpack_params(profile.params, profile.layout)
        x = L32
        for _, act, w_fwd, b_fwd in layers:
            x = x @ w_fwd.astype(np.float32) + b_fwd.astype(np.float32)
            if act == "sigmoid":
                x = 1 / (1 + np.exp(x))
        assert x.dtype == np.float32
        assert value.tobytes() == (x * L32).tobytes()
        # Each full-height bias is its own C-contiguous array: a cast of the
        # broadcast view would keep the broadcast's strides, and adding it
        # made the float32 kernel about 45% slower.
        full, _ = batch_layers(layers, (4, 128), np.float32)
        for _, _, w_fwd, b_fwd in full:
            assert w_fwd.dtype == b_fwd.dtype == np.float32
            assert b_fwd.shape == (4, 128, w_fwd.shape[1]) and b_fwd.flags.c_contiguous

    def test_untraced_rhs_is_plain(self):
        profile = NonlinearProfile.initialize(5, np.random.default_rng(11))
        out, _ = profile.rate_vjp(np.ones((2, 5)))
        assert type(out) is np.ndarray


class TestNonlinearFusedSolve:
    """A solve's pullback is the discrete adjoint of its steps."""

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("direction", ["forward", "inverse"])
    @pytest.mark.parametrize("shape", [(5,), (3, 5)])
    def test_gradients_match_finite_differences(self, method, direction, shape):
        # L = rho * T(1), as in simulate_values: a state built from the params,
        # plus rho of its own, pulled back through both solves by hand.
        rng = np.random.default_rng(14)
        cfg = SolverConfig(method, 4)
        profile = replace(NonlinearProfile.initialize(5, rng), solver=cfg)
        rho0 = rng.uniform(0.1, 1.0, shape)
        weights = rng.uniform(-1.0, 1.0, shape)

        def objective(params, rho):
            trial = profile.with_params(params)
            return np.sum(weights * getattr(trial, direction)(rho * trial.t1))

        t1, t1_vjp = solve_vjp(profile.rate_vjp, np.ones(5), cfg)
        _, out_vjp = solve_vjp(profile.rate_vjp, rho0 * t1, cfg, reverse=direction == "inverse")
        g_L, g_p = out_vjp(weights)
        g_p = g_p + t1_vjp((g_L * rho0).reshape(-1, 5).sum(axis=0))[1]
        fd_p = finite_difference(lambda p: objective(p, rho0), profile.params.copy())
        fd_rho = finite_difference(lambda r: objective(profile.params, r), rho0.copy())
        np.testing.assert_allclose(g_p, fd_p, rtol=1e-6, atol=1e-9)
        np.testing.assert_allclose(g_L * t1, fd_rho, rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("direction,L,match", [
        ("forward", np.array([[0.5, np.nan, 0.5, 0.5]]), "non-finite state at integration step 0"),
        # The decay is exactly 1/2: backward in x the state grows by e^(x/2)
        # and crosses the overflow guard part-way through.
        ("inverse", np.full(4, 9e11), r"state diverged \(>1e\+12\) at integration step [1-9]"),
        # A NaN or inf state is non-finite, not diverged, though inf is above the guard.
        ("inverse", np.array([[0.5, np.nan, 0.5, 0.5]]), "non-finite state at integration step 0"),
        ("inverse", np.array([[0.5, np.inf, 0.5, 0.5]]), "non-finite state at integration step 0"),
    ])
    def test_traced_errors_equal_untraced(self, direction, L, match):
        profile = half_decay_profile(4)
        op = getattr(profile, direction)
        with pytest.raises(NumericError, match=match) as untraced:
            op(L)
        with pytest.raises(NumericError) as traced:
            solve_vjp(profile.rate_vjp, L, CFG, reverse=direction == "inverse")
        assert str(traced.value) == str(untraced.value)


def half_decay_profile(n_bands):
    """A nonlinear profile whose decay is exactly 1/2 for any L.

    Zero weights after the encoder's first matrix make the latent code 0;
    that matrix is nonzero, so an infinite band meets no 0 * inf (an invalid
    value) in the matmul. Backward in x the state grows by e^(x/2).
    """
    profile = NonlinearProfile.initialize(n_bands, np.random.default_rng(0))
    params = np.zeros_like(profile.params)
    params[: n_bands * profile.hidden] = 1.0
    return profile.with_params(params)


class TestNonlinearStackedSolve:
    """T(1) and T^-1(z) as one [1; z] solve: row 0 steps forward in x, z's rows backward."""

    @pytest.mark.parametrize("n_bands", [5, 8, 30, 126])
    def test_inverse_vjp_values_are_t1_and_inverse(self, n_bands):
        rng = np.random.default_rng(40)
        profile = replace(NonlinearProfile.initialize(n_bands, rng), solver=SolverConfig("rk4", 4))
        for rows in range(1, 65):
            z = rng.uniform(0.1, 1.0, (rows, n_bands))
            t1, l2 = profile.t1_and_inverse(z)
            vjp_t1, vjp_l2, _ = profile.inverse_vjp(z)
            np.testing.assert_array_equal(vjp_t1, t1)
            np.testing.assert_array_equal(vjp_l2, l2)

    @pytest.mark.parametrize("n_bands", [8, 30, 126])
    @pytest.mark.parametrize("shape", [(), (1,), (7,), (64,)], ids=["1-D", "1", "7", "64"])
    def test_within_eight_ulps_of_the_unstacked_operators(self, n_bands, shape):
        # A matmul's rows need not keep their bits across batch heights: a
        # 1-row solve runs a matrix-vector product. Measured with OpenBLAS
        # 0.3.31 and one thread over 20 seeds of weights x 3 at these shapes,
        # the stacked values lay within 5 ulps of the 1-D t1 and of inverse(z)
        # (4.6e-16 and 7.5e-16 relative); the bound leaves room for other BLAS builds.
        for seed in range(3):
            rng = np.random.default_rng(seed)
            profile = NonlinearProfile.initialize(n_bands, rng)
            profile = profile.with_params(3.0 * profile.params)
            z = rng.uniform(0.1, 1.0, shape + (n_bands,))
            t1, l2 = profile.t1_and_inverse(z)
            assert t1.shape == (n_bands,) and l2.shape == z.shape
            for stacked, alone in ((t1, profile.t1), (l2, profile.inverse(z))):
                assert np.all(np.abs(stacked - alone) <= 8 * np.spacing(np.abs(alone)))

    def test_diverging_row_names_the_step_it_does_alone(self):
        profile = half_decay_profile(4)
        z = np.array([[0.5, 0.5, 0.5, 0.5], [9e11, 9e11, 9e11, 9e11], [0.2, 0.3, 0.4, 0.5]])
        with pytest.raises(NumericError, match=r"state diverged \(>1e\+12\) at integration step [1-9]") as alone:
            profile.inverse(z[1])
        for op in (profile.t1_and_inverse, profile.inverse_vjp):
            with pytest.raises(NumericError) as stacked:
                op(z)
            assert str(stacked.value) == str(alone.value)

    def test_linear_profile_gives_t1_and_the_division(self):
        profile = linear_profile(np.random.default_rng(41).uniform(0.1, 3.0, 5))
        z = np.random.default_rng(42).uniform(0.1, 1.0, (3, 5))
        t1, l2 = profile.t1_and_inverse(z)
        assert t1 is profile.t1
        np.testing.assert_array_equal(l2, z / profile.t1)


class TestNonlinearAdjointMemory:
    @pytest.mark.parametrize("solve", ["reverse", "stacked"])
    def test_held_bytes_per_pixel_per_stage(self, solve):
        # solve_vjp keeps, per stage, what that stage's VJP reads: its input,
        # the hidden and latent activations and the decay, 279 floats (2.23 KB)
        # per pixel at 126 bands. A kept decoder pre-activation would add 1 KB.
        # inverse_vjp's one [1; z] solve holds the same per pixel.
        profile = NonlinearProfile.initialize(126, np.random.default_rng(15))
        z = np.random.default_rng(16).uniform(0.1, 1.0, (2000, 126))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            if solve == "reverse":
                _, vjp = solve_vjp(profile.rate_vjp, z, CFG, reverse=True)
            else:
                _, _, pullback = profile.inverse_vjp(z)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held / (z.shape[0] * 4 * CFG.steps) < 2400


class TestPlainSolveMemory:
    def test_peak_does_not_grow_with_the_step_count(self):
        # A plain solve steps in buffers it makes once per solve and keeps
        # nothing per step: a (512, 126) float32 T^-1 peaks at about 8.4
        # states above its start, at 4 steps as at 64.
        base = NonlinearProfile.initialize(126, np.random.default_rng(15))
        z = np.random.default_rng(16).uniform(0.1, 1.0, (512, 126)).astype(np.float32)
        peaks = []
        for steps in (4, 64):
            profile = replace(base, solver=SolverConfig("rk4", steps))
            profile.t1  # unpacks the network, as `correct` does before its rows
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                profile.inverse(z)
                peaks.append(tracemalloc.get_traced_memory()[1] - start)
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= z.nbytes, peaks
        assert max(peaks) < 10 * z.nbytes, peaks


class TestNonlinearComplexStep:
    """The nonlinear pullbacks against complex step, over every parameter."""

    def problem(self, method):
        rng = np.random.default_rng(18)
        profile = NonlinearProfile.initialize(6, rng)
        z = rng.uniform(0.1, 1.0, (3, 6))
        w_t, w_l = rng.uniform(-1.0, 1.0, 6), rng.uniform(-1.0, 1.0, (3, 6))
        cfg = SolverConfig(method, 16)
        return replace(profile, solver=cfg), z, w_t, w_l, cfg

    @pytest.mark.parametrize("method", METHODS)
    def test_pullback_in_the_parameters(self, method):
        profile, z, w_t, w_l, _ = self.problem(method)
        _, _, pullback = profile.inverse_vjp(z)
        cs_t1 = complex_step(lambda p: np.sum(w_t * profile.with_params(p).t1), profile.params)
        cs_l2 = complex_step(lambda p: np.sum(w_l * profile.with_params(p).inverse(z)), profile.params)
        assert profile.params.size == 249
        np.testing.assert_allclose(pullback(w_t, np.zeros_like(z)), cs_t1, rtol=1e-12, atol=0)
        np.testing.assert_allclose(pullback(np.zeros(6), w_l), cs_l2, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("method", METHODS)
    def test_solve_vjp_state_cotangent(self, method):
        profile, z, _, w_l, cfg = self.problem(method)
        for op, reverse in ((profile.forward, False), (profile.inverse, True)):
            _, vjp = solve_vjp(profile.rate_vjp, z, cfg, reverse)
            expected = complex_step(lambda L: np.sum(w_l * op(L)), z)
            np.testing.assert_allclose(vjp(w_l)[0], expected, rtol=1e-12, atol=0)


class TestTransmit:
    def test_linear_half(self):
        model = linear_profile(np.full(5, np.log(2.0)))
        out = model.forward(np.ones(5))
        np.testing.assert_allclose(out, 0.5, atol=1e-8)

    def test_zero_fixed_point(self):
        rng = np.random.default_rng(2)
        for model in (linear_profile(rng.uniform(0, 3, 4)), NonlinearProfile.initialize(4, rng)):
            np.testing.assert_allclose(model.forward(np.zeros(4)), np.zeros(4))

    def test_zero_absorption_identity(self):
        profile = LinearProfile(np.full(3, -40.0))
        L = np.array([0.1, 0.5, 0.9])
        np.testing.assert_allclose(profile.forward(L), L, atol=1e-12)


class TestInvertTransmit:
    def test_linear_doubling(self):
        model = linear_profile(np.full(4, np.log(2.0)))
        out = model.inverse(0.5 * np.ones(4))
        np.testing.assert_allclose(out, 1.0, atol=1e-6)

    def test_linear_round_trip_tight(self):
        rng = np.random.default_rng(3)
        model = linear_profile(rng.uniform(0, 5, 126))
        L = rng.uniform(0, 1, 126)
        back = model.inverse(model.forward(L))
        assert np.max(np.abs(back - L)) < 1e-9

    def test_nonlinear_round_trip(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            model = NonlinearProfile.initialize(126, rng)
            L = rng.uniform(0, 1, 126)
            back = model.inverse(model.forward(L))
            assert np.max(np.abs(back - L)) < 1e-4

    def test_output_dominates_input(self):
        rng = np.random.default_rng(5)
        model = linear_profile(rng.uniform(0, 2, 8))
        L = rng.uniform(0, 1, 8)
        assert np.all(model.inverse(L) >= L)


class TestTransmittanceSpectrum:
    def test_zero_absorption(self):
        profile = LinearProfile(np.full(3, -40.0))
        np.testing.assert_allclose(profile.t1, 1.0, atol=1e-12)

    def test_unit_rate(self):
        profile = linear_profile(np.ones(6))
        out = profile.t1
        np.testing.assert_allclose(out, np.exp(-1.0), atol=1e-7)

    def test_nonlinear_zero_init(self):
        n_params = NonlinearProfile.initialize(5, np.random.default_rng(0)).params.size
        profile = NonlinearProfile(np.zeros(n_params), 5)
        out = profile.t1
        np.testing.assert_allclose(out, np.exp(-0.5), atol=1e-2)
        assert np.all((out > 0) & (out <= 1))


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_dissipativity(self, seed):
        rng = np.random.default_rng(seed)
        L = rng.uniform(0, 2, 12)
        lin = linear_profile(rng.uniform(0.01, 5, 12))
        non = NonlinearProfile.initialize(12, rng)
        for model in (lin, non):
            out = model.forward(L)
            assert np.all(out >= -1e-12)
            assert np.all(out <= L + 1e-12)

    def test_monotonicity_in_alpha(self):
        rng = np.random.default_rng(6)
        alpha = rng.uniform(0.1, 3, 10)
        bigger = alpha + rng.uniform(0, 2, 10)
        L = rng.uniform(0, 1, 10)
        fast, slow = linear_profile(bigger), linear_profile(alpha)
        assert np.all(fast.forward(L) <= slow.forward(L) + 1e-12)

    def test_linear_homogeneity(self):
        rng = np.random.default_rng(7)
        model = linear_profile(rng.uniform(0, 3, 9))
        L = rng.uniform(0, 1, 9)
        for c in (0.0, 0.5, 3.0):
            np.testing.assert_allclose(
                model.forward(c * L), c * model.forward(L),
                rtol=1e-12, atol=1e-15,
            )


class TestLinearClosedForm:
    @settings(max_examples=200, deadline=None)
    @given(
        method=st.sampled_from(METHODS),
        steps=st.integers(min_value=1, max_value=64),
        alpha=st.floats(min_value=0.0, max_value=40.0),
    )
    def test_matches_stepped_solver(self, method, steps, alpha):
        cfg = SolverConfig(method, steps)
        model = replace(linear_profile([alpha]), solver=cfg)
        rate = linear_alpha(model)
        closed = transmittance_values(model)[0]
        stepped = ode_solve(linear_rate(rate), np.ones(1), cfg)[0]
        gap = abs(closed - stepped)
        if method == "euler" and abs(1.0 - rate[0] / steps) < 1e-2:
            # Euler's factor 1 - alpha h cancels as alpha h nears 1, where both
            # codes round the same tiny T differently: bound the gap relative
            # to the largest state on the path (the initial 1).
            assert gap <= 1e-12 * max(1.0, abs(stepped))
        else:
            assert gap <= 1e-12 * abs(stepped)

    @pytest.mark.parametrize("method", METHODS)
    def test_gradient_matches_finite_differences(self, method):
        rng = np.random.default_rng(8)
        cfg = SolverConfig(method, 16)
        raw = softplus_inverse(rng.uniform(0.1, 5.0, 7))
        weights = rng.uniform(-1.0, 1.0, 7)

        # The pullback of T(1)'s cotangent alone is weights * d factor / d raw.
        _, l2, pullback = LinearProfile(raw, cfg).inverse_vjp(np.ones(7))
        grad = pullback(weights, np.zeros_like(l2))
        fd = finite_difference(lambda r: np.sum(weights * linear_factor(r, cfg)), raw.copy())
        np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-9)

    def test_zero_transmittance_band_is_numeric_error(self):
        # Euler with alpha h = 1 gives T(1) = 0 exactly in bands 1 and 3.
        cfg = SolverConfig("euler", 16)
        model = replace(linear_profile([0.5, 16.0, 0.7, 16.0]), solver=cfg)
        t1 = model.t1
        assert t1[1] == 0.0 and t1[3] == 0.0 and t1[0] > 0 and t1[2] > 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match=r"band\(s\) 1, 3;"):
                model.inverse(np.ones((2, 4)))
            with pytest.raises(NumericError, match=r"band\(s\) 1, 3;"):
                invert_values(model, np.ones(4))
            with pytest.raises(NumericError, match=r"band\(s\) 1, 3;"):
                model.inverse_vjp(np.ones((2, 4)))

    def test_non_finite_factor_is_numeric_error(self):
        with pytest.raises(NumericError):
            linear_factor(np.full(3, 1e8), CFG)


class TestLinearComplexStep:
    """The linear pullback's hand-written derivatives against complex step."""

    @pytest.mark.parametrize("method", METHODS)
    def test_factor_derivative(self, method):
        cfg = SolverConfig(method, 16)
        raw = softplus_inverse(np.linspace(0.1, 30.0, 13))
        _, l2, pullback = LinearProfile(raw, cfg).inverse_vjp(np.ones(raw.size))
        # The factor is elementwise, so one perturbation of every band at once
        # gives each band's derivative.
        expected = complex_linear_factor(raw + 1j * H_CS, cfg).imag / H_CS
        np.testing.assert_allclose(pullback(np.ones(raw.size), np.zeros_like(l2)), expected,
                                   rtol=1e-12, atol=0)

    @pytest.mark.parametrize("direction", ["forward", "inverse"])
    def test_node_cotangents(self, direction):
        # The pullback of T(1)'s cotangent ("forward": T applied to 1_n) and of
        # T^-1(z)'s, each alone, in raw, against complex step of the test's own
        # closed form, with the values bit for bit.
        rng = np.random.default_rng(17)
        profile = linear_profile(rng.uniform(0.1, 5.0, 6))
        z = rng.uniform(0.1, 1.0, (3, 6))
        t0 = linear_factor(profile.params, CFG)
        t1, l2, pullback = profile.inverse_vjp(z)
        np.testing.assert_array_equal(t1, t0)
        np.testing.assert_array_equal(l2, z / t0)
        np.testing.assert_array_equal(profile.forward(z), z * t0)
        if direction == "forward":
            weights = rng.uniform(-1.0, 1.0, 6)
            grad = pullback(weights, np.zeros_like(z))

            def reference(r):
                return np.sum(weights * complex_linear_factor(r, CFG))
        else:
            weights = rng.uniform(-1.0, 1.0, (3, 6))
            grad = pullback(np.zeros(6), weights)

            def reference(r):
                return np.sum(weights * z / complex_linear_factor(r, CFG))

        np.testing.assert_allclose(grad, complex_step(reference, profile.params), rtol=1e-12, atol=0)


class TestProfileOwnsItsState:
    """A profile's parameters are a private read-only copy and its T(1) is computed once."""

    def profiles(self):
        rng = np.random.default_rng(19)
        return (
            replace(linear_profile(rng.uniform(0.1, 3.0, 5)), solver=SolverConfig("euler", 8)),
            replace(NonlinearProfile.initialize(5, rng), solver=SolverConfig("euler", 8)),
        )

    def test_parameters_and_t1_are_read_only(self):
        for model in self.profiles():
            with pytest.raises(ValueError):
                model.params[0] = 0.0
            with pytest.raises(ValueError):
                model.t1[0] = 0.0

    def test_parameters_are_a_copy(self):
        raw = np.array([0.1, 0.2, 0.3])
        model = LinearProfile(raw)
        raw[0] = 5.0
        assert model.params[0] == 0.1 and model.params is not raw

    def test_t1_is_computed_once(self):
        for model in self.profiles():
            assert model.t1 is model.t1
            assert transmittance_values(model) is model.t1

    def test_with_params_gives_a_new_profile_with_its_own_t1(self):
        for model in self.profiles():
            t1 = model.t1.copy()
            moved = model.with_params(model.params + 0.5)
            assert moved.solver == model.solver and moved.params is not model.params
            np.testing.assert_array_equal(moved.params, model.params + 0.5)
            assert not np.any(moved.t1 == t1)
            np.testing.assert_array_equal(model.t1, t1)

    def test_profiles_compare_and_hash_by_identity(self):
        for model in self.profiles():
            assert model == model
            assert model != model.with_params(model.params)
            assert {model} == {model} and hash(model) == hash(model)


class TestBandCheck:
    """Each operator call checks its input's band axis once, at its entry."""

    def profiles(self):
        rng = np.random.default_rng(23)
        return linear_profile(rng.uniform(0.1, 3.0, 5)), NonlinearProfile.initialize(5, rng)

    @pytest.mark.parametrize("shape", [(3, 1), (1,), ()], ids=["column", "one-band", "scalar"])
    @pytest.mark.parametrize("method", ["forward", "inverse", "t1_and_inverse", "inverse_vjp"])
    @pytest.mark.parametrize("kind", ["linear", "nonlinear"])
    def test_other_band_counts_rejected(self, kind, method, shape):
        model = dict(zip(["linear", "nonlinear"], self.profiles()))[kind]
        with pytest.raises(ShapeError, match=r"5 bands"):
            getattr(model, method)(np.full(shape, 0.5))

    @pytest.mark.parametrize("method", ["forward", "inverse", "t1_and_inverse", "inverse_vjp"])
    def test_one_check_per_call(self, monkeypatch, method):
        import dinsat.transmission as transmission

        calls = []
        monkeypatch.setattr(transmission, "as_spectra",
                            lambda *args, _inner=transmission.as_spectra: calls.append(1) or _inner(*args))
        for model in self.profiles():
            model.t1
            calls.clear()
            getattr(model, method)(np.full((4, 5), 0.5))
            assert len(calls) == 1
