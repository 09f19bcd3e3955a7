import numpy as np
import pytest

from dinsat import autodiff as ad
from dinsat.errors import ConfigError, ContractError, NumericError
from dinsat.ode import FusedRhs, SolverConfig, ode_solve, ode_solve_reverse


def decay(rate=1.0):
    return lambda L: -rate * L


class TestSolverConfig:
    def test_rejects_unknown_method(self):
        with pytest.raises(ConfigError):
            SolverConfig(method="rk45")

    def test_rejects_empty_interval(self):
        with pytest.raises(ConfigError):
            SolverConfig(x0=1.0, x_end=1.0)


class TestForwardSolve:
    @pytest.mark.parametrize("method,steps", [("euler", 1), ("euler", 7), ("rk4", 16)])
    def test_zero_dynamics_identity(self, method, steps):
        y0 = np.array([0.3, 1.7, 0.0])
        out = ode_solve(lambda L: 0.0 * L, y0, SolverConfig(method, steps))
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
        # The rhs overflows on purpose; the solver must name the step.
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="step 0"):
            ode_solve(lambda L: L * 1e200, np.array([1e200]), SolverConfig("euler", 4))


class TestReverseSolve:
    def test_zero_dynamics_identity(self):
        y = np.array([0.25, 0.5])
        out = ode_solve_reverse(lambda L: 0.0 * L, y, SolverConfig("rk4", 8))
        np.testing.assert_allclose(out, y)

    def test_ln2_round_trip(self):
        cfg = SolverConfig("rk4", 16)
        rate = np.log(2.0)
        fwd = ode_solve(decay(rate), np.array([1.0]), cfg)
        assert fwd[0] == pytest.approx(0.5, abs=1e-7)
        back = ode_solve_reverse(decay(rate), np.array([0.5]), cfg)
        assert back[0] == pytest.approx(1.0, abs=1e-6)

    def test_nonlinear_round_trip(self):
        rng = np.random.default_rng(5)
        cfg = SolverConfig("rk4", 16)

        def rhs(L):
            return -(ad.logistic(L) * L)

        for _ in range(10):
            y0 = rng.uniform(0, 1, 16)
            fwd = ode_solve(rhs, y0, cfg)
            back = ode_solve_reverse(rhs, fwd, cfg)
            assert np.max(np.abs(back - y0)) < 1e-4

    def test_overflow_guard(self):
        with pytest.raises(NumericError, match="diverged"):
            ode_solve_reverse(decay(60.0), np.array([1.0]), SolverConfig("rk4", 4))

    def test_linear_round_trip_moderate_rates(self):
        # Explicit backward integration inverts the forward map only up to
        # the scheme's discretization error, which grows with rate^6.
        cfg = SolverConfig("rk4", 16)
        for rate in (0.1, 0.5, 1.0):
            fwd = ode_solve(decay(rate), np.array([1.0]), cfg)
            back = ode_solve_reverse(decay(rate), fwd, cfg)
            assert abs(back[0] - 1.0) < 1e-6


class TestInputsUntouched:
    """The steppers work in place on their own temporaries, never on inputs."""

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    @pytest.mark.parametrize("solve", [ode_solve, ode_solve_reverse])
    @pytest.mark.parametrize("kind", ["fresh", "cached", "identity"])
    def test_l_init_and_rhs_outputs_unmodified(self, method, solve, kind):
        y0 = np.array([[0.3, 1.7, 0.0], [2.0, 0.5, 1.0]])
        cached = np.array([[-0.2, -0.1, 0.0], [-0.4, -0.3, -0.1]])
        rhs = {"fresh": decay(0.5), "cached": lambda L: cached, "identity": lambda L: L}[kind]
        y_before, cached_before = y0.copy(), cached.copy()
        solve(rhs, y0, SolverConfig(method, 4))
        np.testing.assert_array_equal(y0, y_before)
        np.testing.assert_array_equal(cached, cached_before)


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


def linear_decay_rhs(theta):
    """-(theta * L) as a FusedRhs, with its VJP written out by hand."""
    theta_v = ad.value_of(theta)

    def value(L):
        return -(theta_v * L)

    def value_and_vjp(L):
        return value(L), lambda g: (-(theta_v * g), -(g * L))

    return FusedRhs(theta, value, value_and_vjp)


class TestGradients:
    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_gradient_wrt_rate_and_state(self, method):
        cfg = SolverConfig(method, 8)
        rng = np.random.default_rng(11)
        for _ in range(5):
            theta0 = rng.uniform(0.1, 2.0, 4)
            y0 = rng.uniform(0.2, 1.0, 4)

            def run(theta, y):
                out = ode_solve(linear_decay_rhs(theta), y, cfg)
                v = ad.value_of(out)
                # mean(out^2) as one node
                return ad.node(np.mean(v * v), (out,), lambda g: (g * 2.0 * v / v.size,))

            tape = ad.Tape()
            theta, y = tape.leaf(theta0), tape.leaf(y0)
            ad.backward(run(theta, y))
            grad = np.concatenate([theta.grad, y.grad])
            fd = ad.finite_difference(
                lambda v: float(run(v[:4], v[4:])), np.concatenate([theta0, y0])
            )
            assert np.max(np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-8)) < 1e-3


class TestTracingContract:
    """Only a FusedRhs is traced; a plain callable never meets a Var."""

    @pytest.mark.parametrize("solve", [ode_solve, ode_solve_reverse])
    def test_traced_state_with_plain_rhs_rejected(self, solve):
        y0 = ad.Tape().leaf(np.array([1.0, 0.5]))
        with pytest.raises(ContractError, match="FusedRhs"):
            solve(decay(), y0, SolverConfig("rk4", 4))

    @pytest.mark.parametrize("solve", [ode_solve, ode_solve_reverse])
    def test_plain_rhs_over_traced_params_rejected(self, solve):
        theta = ad.Tape().leaf(np.array([0.3, 0.7]))

        def rhs(L):
            return ad.elementwise(theta, lambda t: t * -L, lambda t, _: -L)

        with pytest.raises(ContractError, match="FusedRhs"):
            solve(rhs, np.array([1.0, 0.5]), SolverConfig("euler", 4))

    def test_fused_rhs_called_traced_rejected(self):
        rhs = linear_decay_rhs(ad.Tape().leaf(np.array([0.3, 0.7])))
        with pytest.raises(ContractError):
            rhs(np.ones(2))
