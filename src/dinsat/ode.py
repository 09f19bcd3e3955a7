"""Fixed-step IVP solvers in x, forward and reverse, and their discrete adjoint.

Every solve steps one convention, dL/dx = -r(L) for a dissipation rate r,
by stepping r with -h: negation is exact, so the bits are those of stepping
-r by h. ``ode_solve`` hands ``rate(L, out)`` a buffer the solve owns: the
stage outputs, the stage input and two states to alternate are made once per
solve. Stepping in new arrays instead gave the same bits, but made a fresh
process's first `dinsat correct` pass about 10% slower, probably from the
first touch of each new ~250 KB stage array (512 float32 pixels of 126
bands). ``solve_vjp`` steps ``rate_vjp(L) -> (r(L), vjp)`` in new arrays,
since its stage VJPs keep them, and returns the solution with its pullback,
which sweeps the steps in reverse: the discrete adjoint of the stepper, so
its gradients are exactly those of the unrolled steps. One step function per
method serves both. The dynamics are autonomous, so a direction is only the
step's sign: both solves take ``reverse`` as a bool or as a bool per row of
an (n, bands) state, and a mixed solve steps its rows by an (n, 1) column of
-h and h through the same step and step VJP, where a one-direction solve
steps by the Python float. So a nonlinear training epoch solves T(1) and
T^-1(z) as one batch, twice: once with its pullback for the training loss,
once plain for the validation loss.
The state keeps a float or complex dtype: float64 for training and T(1),
float32 for the reverse solve of `dinsat correct`, complex128 for a
complex-step check; an int64 input becomes float64, as ``np.result_type``
with float32 promotes it. After each step the peak |y| checks the state,
as max(max y, -min y) for a real one: a non-finite peak in any row is an
error, and so is a peak above ``OVERFLOW_GUARD`` in a reverse row; the
guard is far inside float32's range.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, NumericError, ShapeError

# Reverse integration of a dissipative system grows exponentially; abort when
# any state component exceeds this magnitude.
OVERFLOW_GUARD = 1e12


def _euler_step(rate, y, h, stages, s, out):
    k = rate(y, stages[0])
    out = np.multiply(k, h, out=out)
    out += y
    return out


def _stage_input(y, k, c, s):
    s = np.multiply(k, c, out=s)
    s += y
    return s


def _rk4_step(rate, y, h, stages, s, out):
    # The sums keep the order of y + (h/6) * (((k1 + 2 k2) + 2 k3) + k4). Each
    # stage input is written into s, and 2 k3 too once k4 is computed; the
    # step writes into s and out only, never into y or a rate output.
    b1, b2, b3, b4 = stages
    k1 = rate(y, b1)
    k2 = rate(_stage_input(y, k1, h / 2.0, s), b2)
    k3 = rate(_stage_input(y, k2, h / 2.0, s), b3)
    k4 = rate(_stage_input(y, k3, h, s), b4)
    acc = np.multiply(k2, 2.0, out=out)
    acc += k1
    acc += np.multiply(k3, 2.0, out=s)
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

    ``vjps`` are the stages' rate VJPs in forward order. Sweeping back from k4,
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


# Each method's (stepper, stage count, step VJP, P, P'). P(z) is its stability
# polynomial: one step on dL/dx = lambda L multiplies L by P(lambda h). The
# linear profile's closed form reads P and P' through SolverConfig.stability.
_METHODS = {
    "euler": (_euler_step, 1, _euler_step_vjp, lambda z: 1.0 + z, lambda z: np.ones_like(z)),
    "rk4": (_rk4_step, 4, _rk4_step_vjp, lambda z: 1.0 + z * (1.0 + z * (1.0 / 2.0 + z * (1.0 / 6.0 + z / 24.0))),
            lambda z: 1.0 + z * (1.0 + z * (1.0 / 2.0 + z / 6.0))),
}
METHODS = tuple(_METHODS)


@dataclass(frozen=True)
class SolverConfig:
    method: str = "rk4"
    steps: int = 16
    x0: float = 0.0
    x_end: float = 1.0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown solver method: {self.method!r}")
        if isinstance(self.steps, bool) or not isinstance(self.steps, numbers.Integral):
            raise ConfigError(f"solver steps must be an integer, got {self.steps!r}")
        if self.steps < 1:
            raise ConfigError("solver needs at least one step")
        for name in ("x0", "x_end"):
            x = getattr(self, name)
            if isinstance(x, bool) or not isinstance(x, numbers.Real) or not math.isfinite(x):
                raise ConfigError(f"solver {name} must be a finite number, got {x!r}")
        if not self.x0 < self.x_end:
            raise ConfigError(f"integration interval must increase, got x0 = {self.x0!r}, x_end = {self.x_end!r}")
        # Plain Python numbers, so a model artifact can write them as JSON.
        object.__setattr__(self, "steps", int(self.steps))
        object.__setattr__(self, "x0", float(self.x0))
        object.__setattr__(self, "x_end", float(self.x_end))

    @property
    def h(self) -> float:
        """The step in x, (x_end - x0) / steps; a reverse solve steps x by -h."""
        return (self.x_end - self.x0) / self.steps

    @property
    def stability(self):
        """(P, P'): the method's stability polynomial and its derivative."""
        return _METHODS[self.method][3:]


def _peak(y):
    """max |y|, 0 for an empty y; NaN if y holds a NaN.

    A real state takes it as max(max y, -min y), two passes that allocate
    nothing; both are NaN when y holds a NaN, so the result is too.
    """
    if np.iscomplexobj(y):
        return np.abs(y).max(initial=0.0)
    return max(y.max(initial=0.0), -y.min(initial=0.0))


def _signed_step(h: float, reverse, shape):
    """(step, guarded rows): the rate's step for a state of ``shape`` whose rows ``reverse`` integrates backward.

    dL/dx = -r(L) steps r by -h forward in x and by h backward. ``reverse``
    is a bool for every row, or a bool per row of an (n, bands) state. One
    direction steps by the Python float and guards every row (``...``) or
    none (None); mixed directions step by an (n, 1) column of -h and h and
    guard the reverse rows, by their mask.
    """
    rows = np.asarray(reverse, bool)
    if rows.ndim and (len(shape) != 2 or rows.shape != shape[:1]):
        raise ShapeError(f"per-row directions of shape {rows.shape} for a state of shape {shape}")
    if rows.all():
        return h, ...
    if not rows.any():
        return -h, None
    return np.where(rows, h, -h)[:, None], rows


def _integrate(rate, y0, config: SolverConfig, reverse, owned: bool):
    """(y, step): the solve of dL/dx = -rate(L), and the step it stepped the rate by.

    An ``owned`` solve makes its stage outputs, stage input and two states to
    alternate once; otherwise every one is a new array.
    """
    step, n_stages = _METHODS[config.method][:2]
    y = np.asarray(y0)
    y = y.astype(np.result_type(y, np.float32), copy=False)
    h, guarded = _signed_step(config.h, reverse, y.shape)
    if owned:
        *stages, s, a, b = (np.empty(y.shape, y.dtype) for _ in range(n_stages + 3))
        states = (a, b)
    else:
        stages, s, states = [None] * n_stages, None, (None, None)
    for i in range(config.steps):
        y = step(rate, y, h, stages, s, states[i % 2])
        # One check covers both: a NaN or inf anywhere makes the peak non-finite.
        peak = _peak(y)
        if not math.isfinite(peak):
            raise NumericError(f"non-finite state at integration step {i}")
        # The peak bounds the guarded rows' peak, which is taken only above the guard.
        if guarded is not None and peak > OVERFLOW_GUARD and _peak(y[guarded]) > OVERFLOW_GUARD:
            raise NumericError(f"state diverged (>{OVERFLOW_GUARD:g}) at integration step {i}")
    return y, h


def ode_solve(rate: Callable, y0, config: SolverConfig = SolverConfig(), *, reverse=False):
    """Integrate dL/dx = -rate(L) from x0 to x_end with uniform steps.

    y0 may be a (n_bands,) vector or a (batch, n_bands) matrix. ``rate(L,
    out)`` writes r(L) into ``out``, a buffer of the state's shape and dtype
    that the solve owns, and returns it. ``reverse`` (True, or a bool per row
    of a matrix) integrates those rows backward, from x_end to x0, in the same
    solve: the dynamics are autonomous, so a row's direction is only its
    step's sign, and OVERFLOW_GUARD covers the reverse rows only.
    """
    return _integrate(rate, y0, config, reverse, owned=True)[0]


def solve_vjp(rate_vjp: Callable, y0, solver: SolverConfig, reverse=False):
    """(y, vjp): ``ode_solve`` with the same ``reverse`` (a bool, or a bool per row), and its pullback.

    ``rate_vjp(L)`` returns r(L), in a new array, and that evaluation's VJP,
    g -> (g_L, g_params). ``vjp(g)`` returns (g_y0, g_params) for the
    cotangent g of y: the stored stage VJPs swept from the last step to the
    first, each by its rows' step.
    """
    _, n_stages, step_vjp, *_ = _METHODS[solver.method]
    stage_vjps = []

    def rate(L, _):
        value, vjp = rate_vjp(L)
        stage_vjps.append(vjp)
        return value

    y, h = _integrate(rate, y0, solver, reverse, owned=False)

    def vjp(g):
        g_p = 0.0
        for i in reversed(range(solver.steps)):
            g, g_step = step_vjp(stage_vjps[i * n_stages : (i + 1) * n_stages], h, g)
            g_p = g_p + g_step
        return g, g_p

    return y, vjp
