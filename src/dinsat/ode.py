"""Differentiable fixed-step IVP solvers, forward and reverse in x."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, NumericError

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


def _euler_step(rhs, y, h):
    return y + h * rhs(y)


def _rk4_step(rhs, y, h):
    # Each stage input and the weighted sum start as a fresh product, so the
    # augmented assignments below work in place on ndarrays without touching
    # y or an rhs output; on Vars they rebind to new tape nodes. The sums keep
    # the order of y + (h/6) * (((k1 + 2 k2) + 2 k3) + k4), so both give the
    # same bits.
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


_STEPPERS = {"euler": _euler_step, "rk4": _rk4_step}


def _integrate(rhs, y0, x_start, x_stop, config: SolverConfig, guard: float | None):
    step = _STEPPERS[config.method]
    h = (x_stop - x_start) / config.steps
    y = y0
    for i in range(config.steps):
        y = step(rhs, y, h)
        vals = ad.value_of(y)
        if not np.all(np.isfinite(vals)):
            raise NumericError(f"non-finite state at integration step {i}")
        if guard is not None and np.max(np.abs(vals)) > guard:
            raise NumericError(f"state diverged (>{guard:g}) at integration step {i}")
    return y


def ode_solve(rhs: Callable, l_init, config: SolverConfig = SolverConfig()):
    """Integrate dL/dx = rhs(L) from x0 to x_end with uniform steps.

    l_init may be a (n_bands,) vector or a (batch, n_bands) matrix, traced or
    plain; gradients flow through to the rhs parameters and to l_init.
    """
    return _integrate(rhs, l_init, config.x0, config.x_end, config, guard=None)


def ode_solve_reverse(rhs: Callable, l_final, config: SolverConfig = SolverConfig()):
    """Integrate the same dynamics backward, from x_end to x0."""
    return _integrate(
        rhs, l_final, config.x_end, config.x0, config, guard=OVERFLOW_GUARD
    )
