"""Differentiable fixed-step IVP solvers, forward and reverse in x.

A right-hand side is either a plain callable on plain arrays, stepped
untraced, or a ``FusedRhs``: plain-array primitives for f(L) and for f(L) with
its VJP. Both step through the same in-place stepper as inference. A fused
solve with a traced state or traced parameters keeps each stage's VJP and is
recorded as one tape node whose VJP sweeps the steps in reverse (the discrete
adjoint of the stepper, so its gradients are those of the unrolled steps).
Nothing else is traced: a traced state with a plain callable, or a plain
callable that returns a traced value, raises ContractError.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, ContractError, NumericError

METHODS = ("euler", "rk4")

# Reverse integration of a dissipative system grows exponentially; abort when
# any state component exceeds this magnitude.
OVERFLOW_GUARD = 1e12


@dataclass(frozen=True)
class SolverConfig:
    method: str = "rk4"
    steps: int = 16
    x0: float = 0.0
    x_end: float = 1.0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown solver method: {self.method!r}")
        if self.steps < 1:
            raise ConfigError("solver needs at least one step")
        if self.x0 == self.x_end:
            raise ConfigError("integration interval is empty")


@dataclass(frozen=True)
class FusedRhs:
    """f(L; params) given as plain-array primitives.

    ``value(L)`` returns f(L). ``value_and_vjp(L)`` returns f(L) and
    ``vjp(g) -> (g_L, g_params)``, whose cotangents are shaped like L and like
    the parameter values. Calling the rhs evaluates ``value`` on a plain L; a
    traced L or traced ``params`` is differentiated only through a whole solve.
    """

    params: object
    value: Callable
    value_and_vjp: Callable

    def traced(self, L) -> bool:
        return isinstance(L, ad.Var) or isinstance(self.params, ad.Var)

    def __call__(self, L):
        if self.traced(L):
            raise ContractError("a traced FusedRhs is differentiated only through ode_solve")
        return self.value(np.asarray(L, float))


def _euler_step(rhs, y, h):
    return y + h * rhs(y)


def _rk4_step(rhs, y, h):
    # Each stage input and the weighted sum start as a fresh product, so the
    # augmented assignments below work in place without touching y or an rhs
    # output. The sums keep the order of y + (h/6) * (((k1 + 2 k2) + 2 k3) + k4).
    k1 = rhs(y)
    s = k1 * (h / 2.0)
    s += y
    k2 = rhs(s)
    s = k2 * (h / 2.0)
    s += y
    k3 = rhs(s)
    s = k3 * h
    s += y
    k4 = rhs(s)
    acc = k2 * 2.0
    acc += k1
    acc += k3 * 2.0
    acc += k4
    acc *= h / 6.0
    acc += y
    return acc


def _euler_step_vjp(vjps, h, g):
    """(g_y, g_params) of one ``_euler_step`` from the cotangent g of its output."""
    (vjp,) = vjps
    g_s, g_p = vjp(g * h)
    return g + g_s, g_p


def _rk4_step_vjp(vjps, h, g):
    """(g_y, g_params) of one ``_rk4_step`` from the cotangent g of its output.

    ``vjps`` are the stages' rhs VJPs in forward order. Sweeping back from k4,
    each stage input s_j = y + c_j k_(j-1) passes its cotangent to y and, times
    c_j, to k_(j-1), on top of k_(j-1)'s weight in the output.
    """
    vjp1, vjp2, vjp3, vjp4 = vjps
    g_s, g_p = vjp4(g * (h / 6.0))
    g_y = g + g_s
    for vjp, weight, c in ((vjp3, h / 3.0, h), (vjp2, h / 3.0, h / 2.0), (vjp1, h / 6.0, h / 2.0)):
        g_s, g_stage = vjp(g * weight + g_s * c)
        g_y += g_s
        g_p = g_p + g_stage
    return g_y, g_p


# (stepper, stage count, step VJP) of each method.
_STEPPERS = {"euler": (_euler_step, 1, _euler_step_vjp), "rk4": (_rk4_step, 4, _rk4_step_vjp)}


def _integrate(rhs, y0, x_start, x_stop, config: SolverConfig, guard: float | None):
    step, n_stages, step_vjp = _STEPPERS[config.method]
    h = (x_stop - x_start) / config.steps
    stage_vjps = None
    if not isinstance(rhs, FusedRhs):
        if isinstance(y0, ad.Var):
            raise ContractError("a traced state needs an ode.FusedRhs right-hand side")
        f = rhs
    elif not rhs.traced(y0):
        f = rhs.value
    else:
        stage_vjps = []

        def f(L):
            value, vjp = rhs.value_and_vjp(L)
            stage_vjps.append(vjp)
            return value

    y = ad.value_of(y0)
    for i in range(config.steps):
        y = step(f, y, h)
        if isinstance(y, ad.Var):
            raise ContractError("a plain rhs must return plain arrays; trace through an ode.FusedRhs")
        if not np.all(np.isfinite(y)):
            raise NumericError(f"non-finite state at integration step {i}")
        if guard is not None and np.max(np.abs(y)) > guard:
            raise NumericError(f"state diverged (>{guard:g}) at integration step {i}")
    if stage_vjps is None:
        return y

    def vjp(g):
        g_p = 0.0
        for i in reversed(range(config.steps)):
            g, g_step = step_vjp(stage_vjps[i * n_stages : (i + 1) * n_stages], h, g)
            g_p = g_p + g_step
        return g, g_p

    return ad.node(y, (y0, rhs.params), vjp)


def ode_solve(rhs: Callable, l_init, config: SolverConfig = SolverConfig()):
    """Integrate dL/dx = rhs(L) from x0 to x_end with uniform steps.

    l_init may be a (n_bands,) vector or a (batch, n_bands) matrix. A plain
    callable steps untraced. With a ``FusedRhs`` whose parameters or l_init
    are traced, the whole solve is one tape node, and gradients flow to both.
    """
    return _integrate(rhs, l_init, config.x0, config.x_end, config, guard=None)


def ode_solve_reverse(rhs: Callable, l_final, config: SolverConfig = SolverConfig()):
    """Integrate the same dynamics backward, from x_end to x0."""
    return _integrate(
        rhs, l_final, config.x_end, config.x0, config, guard=OVERFLOW_GUARD
    )
