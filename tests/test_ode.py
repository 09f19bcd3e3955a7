import numpy as np
import pytest

from dinsat.artifacts import read_model, write_model
from dinsat.errors import ConfigError, NumericError, ShapeError
from dinsat.mlp import logistic
from dinsat.ode import METHODS, SolverConfig, ode_solve, solve_vjp
from dinsat.transmission import LinearProfile

from oracles import complex_step, finite_difference


def decay(rate=1.0):
    """The rate of dL/dx = -rate L, written into the buffer the solve hands it."""
    return lambda L, out=None: np.multiply(L, rate, out=out)


class TestSolverConfig:
    def test_rejects_unknown_method(self):
        with pytest.raises(ConfigError):
            SolverConfig(method="rk45")

    def test_rejects_empty_interval(self):
        with pytest.raises(ConfigError):
            SolverConfig(x0=1.0, x_end=1.0)

    @pytest.mark.parametrize("fields,match", [
        ({"steps": 2.5}, "steps must be an integer"),
        ({"steps": True}, "steps must be an integer"),
        ({"x_end": "1"}, "x_end must be a finite number"),
        ({"x0": float("nan")}, "x0 must be a finite number"),
        ({"x_end": float("inf")}, "x_end must be a finite number"),
        ({"x0": 1.0, "x_end": 0.0}, "interval must increase"),
    ])
    def test_rejects_ill_typed_or_decreasing(self, fields, match):
        with pytest.raises(ConfigError, match=match):
            SolverConfig(**fields)

    def test_accepts_integer_bounds(self):
        # A model JSON may hold "x0": 0 and "x_end": 2.
        cfg = SolverConfig("euler", 3, 0, 2)
        assert (cfg.steps, cfg.x0, cfg.x_end) == (3, 0, 2)

    def test_numpy_scalars_round_trip_through_a_model_file(self, tmp_path):
        cfg = SolverConfig("rk4", np.int64(4), np.float32(0.0), np.float32(1.0))
        assert [type(v) for v in (cfg.steps, cfg.x0, cfg.x_end)] == [int, float, float]
        write_model(tmp_path / "m.json", LinearProfile(np.zeros(3), cfg))
        _, solver, _ = read_model(tmp_path / "m.json")
        assert solver == SolverConfig("rk4", 4, 0.0, 1.0) == cfg


class TestForwardSolve:
    @pytest.mark.parametrize("method,steps", [("euler", 1), ("euler", 7), ("rk4", 16)])
    def test_zero_dynamics_identity(self, method, steps):
        y0 = np.array([0.3, 1.7, 0.0])
        out = ode_solve(decay(0.0), y0, SolverConfig(method, steps))
        np.testing.assert_allclose(out, y0)

    def test_euler_closed_form(self):
        out = ode_solve(decay(), np.array([1.0]), SolverConfig("euler", 10))
        assert out[0] == pytest.approx(0.9**10, abs=1e-12)

    def test_rk4_matches_exponential(self):
        # RK4/16 lands 4.9e-8 from e^-1 (leading error term h^4/120 per unit x).
        out = ode_solve(decay(), np.array([1.0]), SolverConfig("rk4", 16))
        assert out[0] == pytest.approx(np.exp(-1.0), abs=1e-7)

    def test_batched_state(self):
        y0 = np.array([[1.0, 2.0], [0.5, 4.0]])
        out = ode_solve(decay(), y0, SolverConfig("rk4", 16))
        np.testing.assert_allclose(out, y0 * np.exp(-1.0), rtol=2e-7)

    def test_nonfinite_state_names_step(self):
        # The rate overflows on purpose; the solver must name the step.
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="step 0"):
            ode_solve(decay(-1e200), np.array([1e200]), SolverConfig("euler", 4))

    def test_no_overflow_guard_forward(self):
        # The guard is for backward integration only; a growing forward state
        # past it is still finite and is returned.
        out = ode_solve(decay(-1.0), np.array([1e12]), SolverConfig("rk4", 16))
        assert out[0] == pytest.approx(np.e * 1e12, rel=1e-6)


class TestReverseSolve:
    def test_zero_dynamics_identity(self):
        y = np.array([0.25, 0.5])
        out = ode_solve(decay(0.0), y, SolverConfig("rk4", 8), reverse=True)
        np.testing.assert_allclose(out, y)

    def test_ln2_round_trip(self):
        cfg = SolverConfig("rk4", 16)
        rate = np.log(2.0)
        fwd = ode_solve(decay(rate), np.array([1.0]), cfg)
        assert fwd[0] == pytest.approx(0.5, abs=1e-7)
        back = ode_solve(decay(rate), np.array([0.5]), cfg, reverse=True)
        assert back[0] == pytest.approx(1.0, abs=1e-6)

    def test_nonlinear_round_trip(self):
        rng = np.random.default_rng(5)
        cfg = SolverConfig("rk4", 16)

        def rate(L, out=None):
            return np.multiply(logistic(L), L, out=out)

        for _ in range(10):
            y0 = rng.uniform(0, 1, 16)
            fwd = ode_solve(rate, y0, cfg)
            back = ode_solve(rate, fwd, cfg, reverse=True)
            assert np.max(np.abs(back - y0)) < 1e-4

    def test_overflow_guard(self):
        with pytest.raises(NumericError, match="diverged"):
            ode_solve(decay(60.0), np.array([1.0]), SolverConfig("rk4", 4), reverse=True)

    def test_linear_round_trip_moderate_rates(self):
        # Explicit backward integration inverts the forward map only up to
        # the scheme's discretization error, which grows with rate^6.
        cfg = SolverConfig("rk4", 16)
        for rate in (0.1, 0.5, 1.0):
            fwd = ode_solve(decay(rate), np.array([1.0]), cfg)
            back = ode_solve(decay(rate), fwd, cfg, reverse=True)
            assert abs(back[0] - 1.0) < 1e-6


class TestStateDtype:
    """The state keeps a float32, float64 or complex input's dtype; an int64 input becomes float64."""

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("reverse", [False, True])
    def test_float32_stays_float32(self, method, reverse):
        y0 = np.array([[0.3, 1.7, 0.0], [2.0, 0.5, 1.0]])
        out = ode_solve(decay(0.5), y0.astype(np.float32), SolverConfig(method, 4), reverse=reverse)
        assert out.dtype == np.float32
        np.testing.assert_allclose(out, ode_solve(decay(0.5), y0, SolverConfig(method, 4), reverse=reverse), rtol=1e-6)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("reverse", [False, True])
    def test_int64_becomes_float64(self, method, reverse):
        y0 = np.array([[3, 1, 0], [2, 5, 1]], np.int64)
        out = ode_solve(decay(0.5), y0, SolverConfig(method, 4), reverse=reverse)
        assert out.dtype == np.float64
        np.testing.assert_array_equal(
            out, ode_solve(decay(0.5), y0.astype(np.float64), SolverConfig(method, 4), reverse=reverse))

    def test_float32_overflow_guard(self):
        with pytest.raises(NumericError, match="diverged"):
            ode_solve(decay(60.0), np.array([1.0], np.float32), SolverConfig("rk4", 4), reverse=True)


class TestInputsUntouched:
    """The steppers work in place on their own temporaries, never on inputs."""

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("kind", ["fresh", "cached", "identity"])
    def test_l_init_and_rate_outputs_unmodified(self, method, reverse, kind):
        for dtype in (np.float64, np.float32):
            y0 = np.array([[0.3, 1.7, 0.0], [2.0, 0.5, 1.0]], dtype)
            cached = np.array([[0.2, 0.1, 0.0], [0.4, 0.3, 0.1]], dtype)
            rate = {"fresh": lambda L, out: L * 0.5, "cached": lambda L, out: cached,
                    "identity": lambda L, out: L}[kind]
            y_before, cached_before = y0.copy(), cached.copy()
            assert ode_solve(rate, y0, SolverConfig(method, 4), reverse=reverse).dtype == dtype
            np.testing.assert_array_equal(y0, y_before)
            np.testing.assert_array_equal(cached, cached_before)


class TestRate:
    """A rate written into the solve's own buffers steps to the bits of one in new arrays, and of solve_vjp."""

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_same_bits_as_new_arrays(self, method, reverse, dtype):
        y0 = np.array([[0.3, 1.7, 0.0], [2.0, 0.5, 1.0]], dtype)
        y_before = y0.copy()
        cfg = SolverConfig(method, 4)
        out = ode_solve(decay(0.5), y0, cfg, reverse=reverse)
        np.testing.assert_array_equal(y0, y_before)
        assert out.dtype == dtype
        assert out.tobytes() == ode_solve(lambda L, out: L * 0.5, y0, cfg, reverse=reverse).tobytes()
        traced, _ = solve_vjp(lambda L: (L * 0.5, None), y0, cfg, reverse)
        assert out.tobytes() == traced.tobytes()


class TestMixedDirections:
    """A per-row ``reverse`` steps each row by its own sign in one solve: forward rows by h, reverse rows by -h."""

    Y0 = np.array([[0.3, 1.7, 0.0], [2.0, 0.5, 1.0], [0.9, 0.1, 0.4]])
    REVERSE = np.array([False, True, True])

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("in_buffer", [False, True])
    def test_each_row_equals_its_one_direction_solve(self, method, in_buffer):
        # An elementwise rate makes no row depend on the batch, so the bits are equal.
        cfg = SolverConfig(method, 4)
        rate = decay(0.5) if in_buffer else (lambda L, out: L * 0.5)
        out = ode_solve(rate, self.Y0, cfg, reverse=self.REVERSE)
        np.testing.assert_array_equal(out[:1], ode_solve(rate, self.Y0[:1], cfg))
        np.testing.assert_array_equal(out[1:], ode_solve(rate, self.Y0[1:], cfg, reverse=True))

    @pytest.mark.parametrize("reverse", [True, False, [True, True, True], [False, False, False]])
    def test_one_direction_vector_is_the_bool(self, reverse):
        cfg = SolverConfig("rk4", 4)
        out = ode_solve(decay(0.5), self.Y0, cfg, reverse=np.array(reverse))
        np.testing.assert_array_equal(out, ode_solve(decay(0.5), self.Y0, cfg, reverse=bool(np.all(reverse))))

    @pytest.mark.parametrize("method", METHODS)
    def test_solve_vjp_values_and_gradient(self, method):
        cfg = SolverConfig(method, 8)
        theta = np.array([0.3, 1.1, 2.0])
        out, vjp = solve_vjp(linear_decay_rate_vjp(theta), self.Y0, cfg, self.REVERSE)
        np.testing.assert_array_equal(out, ode_solve(decay(theta), self.Y0, cfg, reverse=self.REVERSE))
        weights = np.random.default_rng(12).uniform(-1.0, 1.0, self.Y0.shape)
        g_y0, g_theta = vjp(weights)

        def objective(v):
            y0 = v[3:].reshape(self.Y0.shape)
            return np.sum(weights * ode_solve(decay(v[:3]), y0, cfg, reverse=self.REVERSE))

        expected = complex_step(objective, np.concatenate([theta, self.Y0.ravel()]))
        np.testing.assert_allclose(np.concatenate([g_theta.sum(axis=0), g_y0.ravel()]), expected,
                                   rtol=1e-12, atol=0)

    def test_guard_covers_only_reverse_rows(self):
        # Forward, a row of 1e12 growing as e^x passes the guard and is returned;
        # a reverse row that diverges fails the mixed solve at the step it does alone.
        cfg = SolverConfig("rk4", 16)
        y0 = np.array([[1e12, 1e12], [1.0, 2.0]])
        out = ode_solve(decay(-1.0), y0, cfg, reverse=np.array([False, True]))
        assert out[0, 0] == pytest.approx(np.e * 1e12, rel=1e-6)
        with pytest.raises(NumericError) as alone:
            ode_solve(decay(60.0), np.array([[1.0, 1.0]]), SolverConfig("rk4", 4), reverse=True)
        with pytest.raises(NumericError) as mixed:
            ode_solve(decay(60.0), np.array([[0.0, 0.0], [1.0, 1.0]]), SolverConfig("rk4", 4),
                      reverse=np.array([False, True]))
        assert "diverged" in str(alone.value) and str(mixed.value) == str(alone.value)

    def test_nonfinite_forward_row_is_an_error(self):
        y0 = np.array([[0.5, np.nan], [0.5, 0.5]])
        with pytest.raises(NumericError, match="non-finite state at integration step 0"):
            ode_solve(decay(), y0, SolverConfig("rk4", 4), reverse=np.array([False, True]))

    @pytest.mark.parametrize("y0,reverse", [
        (np.ones((3, 2)), [False, True]),
        (np.ones(2), [False, True]),
        (np.ones((3, 2)), [[False, True, True]]),
    ])
    def test_directions_must_be_one_per_row(self, y0, reverse):
        with pytest.raises(ShapeError, match="per-row directions"):
            ode_solve(decay(), y0, SolverConfig("rk4", 4), reverse=np.array(reverse))


class TestConvergenceOrder:
    def _error(self, method, steps):
        out = ode_solve(decay(), np.array([1.0]), SolverConfig(method, steps))
        return abs(out[0] - np.exp(-1.0))

    def test_euler_first_order(self):
        ratio = self._error("euler", 32) / self._error("euler", 64)
        assert ratio == pytest.approx(2.0, abs=0.4)

    def test_rk4_fourth_order(self):
        ratio = self._error("rk4", 8) / self._error("rk4", 16)
        assert ratio == pytest.approx(16.0, rel=0.3)


def linear_decay_rate_vjp(theta):
    """L -> (theta * L, vjp), with the VJP written out by hand."""

    def rate_vjp(L):
        return theta * L, lambda g: (theta * g, g * L)

    return rate_vjp


class TestGradients:
    @pytest.mark.parametrize("method", METHODS)
    def test_gradient_wrt_rate_and_state(self, method):
        cfg = SolverConfig(method, 8)
        rng = np.random.default_rng(11)
        for _ in range(5):
            theta0 = rng.uniform(0.1, 2.0, 4)
            y0 = rng.uniform(0.2, 1.0, 4)
            out, vjp = solve_vjp(linear_decay_rate_vjp(theta0), y0, cfg)
            # mean(out^2), pulled back through the solve
            g_y0, g_theta = vjp(2.0 * out / out.size)
            grad = np.concatenate([g_theta, g_y0])

            def objective(v):
                out = ode_solve(decay(v[:4]), v[4:], cfg)
                return np.mean(out * out)

            fd = finite_difference(objective, np.concatenate([theta0, y0]))
            assert np.max(np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-8)) < 1e-3

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("method", METHODS)
    def test_values_equal_the_plain_solve(self, method, reverse):
        cfg = SolverConfig(method, 8)
        theta, y0 = np.array([0.3, 1.1, 2.0]), np.array([[0.5, 1.0, 0.2], [0.1, 0.9, 0.4]])
        out, _ = solve_vjp(linear_decay_rate_vjp(theta), y0, cfg, reverse)
        np.testing.assert_array_equal(out, ode_solve(decay(theta), y0, cfg, reverse=reverse))
