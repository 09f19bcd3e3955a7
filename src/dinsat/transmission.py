"""Transmission-profile models: the operator T, its inverse, and T(1_n).

Each profile is one operator: it holds its parameters in one field,
``params`` (a private, read-only copy), and its solver, and has ``forward``
(T) and ``inverse`` (T^-1) on plain arrays, ``t1`` (T(1_n), computed once
per profile and read-only), ``t1_and_inverse(z) -> (t1, l2)``, T(1) and
l2 = T^-1(z) together, which the training loss reads, and one gradient
method, ``inverse_vjp(z) -> (t1, l2, pullback)``: the same values bit for
bit, with ``pullback(g_t1, g_l2)`` returning the gradient in ``params``.
``forward``, ``inverse``, ``t1_and_inverse`` and ``inverse_vjp`` check
their input's band axis once, at entry, with ``types.as_spectra``.
``with_params`` gives the same operator at other parameters, with its own
T(1). ``costly_inverse`` says whether T^-1 costs enough per pixel for
`dinsat correct` to share a cube out over processes and to solve it in
float32.
The linear profile realizes per-band exponential decay with rates alpha =
softplus(params) >= 0; the nonlinear profile runs the spectrum through a
bottleneck encoder/decoder and multiplies by a decay factor forced into
[-1, 0], so dissipation holds by construction.

For dL/dx = -alpha L a fixed-step explicit solver multiplies each band by
P(z) per step, z = -alpha h, where P is the method's stability polynomial
(Euler: 1 + z; RK4: 1 + z + z^2/2 + z^3/6 + z^4/24). The linear profile
therefore computes the solver's discrete map in closed form, as the per-band
factor P(z)^n, and differentiates it analytically: the same map and the same
gradients as stepping the solver n times, with P, P' and the step h read
from the solver, whose ``ode`` method row holds P. T is a multiplication by that
factor and T^-1 an exact division, so round trips are exact up to float
rounding. The nonlinear profile integrates with the stepped solvers in
``ode``, forward and backward in x. Its network is one ``mlp`` layout, the
encoder's two layers followed by the decoder's, whose sigmoid output layer
is the decay. The profile unpacks its weights once, at first use, and holds
them, and casts them to float32 once more on first use by a float32 state:
`dinsat correct` solves T^-1 in float32, the precision it writes, while
``t1``, ``forward``, ``t1_and_inverse``, ``inverse_vjp`` and training stay
float64. The decay is the last activation from ``mlp.layers_forward``,
computed in place like every sigmoid layer there. A plain solve
(``forward``, ``inverse``, ``t1``, ``t1_and_inverse``) is handed the rate
decay(L) * L = -f(L), which writes into the stage output the solve owns;
its hidden layers work in buffers made once per solve, and the solve
enters ``np.errstate(over="ignore")`` once. ``rhs(L)`` is plain
f(L) in a new array, and ``rhs_vjp(L)``, what ``solve_vjp`` is handed, is
f(L) with a hand-written VJP (product rule, then one
``mlp.layers_backward`` through the whole network), which keeps only the
activations that VJP reads. T(1) and T^-1(z) are one solve of the batch
[1; z], the all-ones spectrum stepped forward in x as row 0 and z's rows
stepped backward: a plain one for ``t1_and_inverse`` and one
``ode.solve_vjp`` for ``inverse_vjp``, whose pullback is that solve's
discrete adjoint, the exact gradient of the unrolled steps. So a training
epoch runs two solves, one with its pullback and one plain solve for the
validation loss. A matmul row's bits can depend on the batch height (a
1-row solve runs a matrix-vector product), so the stacked T(1) can differ
from the 1-D ``t1`` in the last bits; ``t1`` stays the 1-D solve, which
`dinsat correct` divides by. ``forward``, ``inverse``, ``t1`` and
``t1_and_inverse`` keep a complex dtype in the state and the parameters, so
they can be checked by complex step.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Union

import numpy as np

from .errors import ConfigError, NumericError, ShapeError
from .mlp import MlpLayout, batch_layers, glorot_init, layers_backward, layers_forward, logistic, unpack_params
from .ode import SolverConfig, ode_solve, ode_solve_reverse, solve_vjp
from .types import as_spectra

DEFAULT_HIDDEN = 12
DEFAULT_LATENT = 3


def softplus_inverse(a: np.ndarray) -> np.ndarray:
    """Raw parameter giving softplus(raw) == a; a must be positive."""
    a = np.asarray(a, float)
    if np.any(a <= 0):
        raise ConfigError("softplus inverse requires positive rates")
    return a + np.log1p(-np.exp(-a))


def linear_factor(params, solver: SolverConfig = SolverConfig()) -> np.ndarray:
    """P(-softplus(params) h)^n: the solver's exact discrete map of dL/dx = -alpha L.

    Raises NumericError when the factor is not finite, as the stepped solver does.
    """
    poly, _ = solver.stability
    with np.errstate(over="ignore", invalid="ignore"):
        out = poly(-np.logaddexp(0.0, np.asarray(params, float)) * solver.h) ** solver.steps
    if not np.all(np.isfinite(out)):
        raise NumericError("non-finite linear transmission factor")
    return out


def _linear_factor_derivative(params, solver: SolverConfig) -> np.ndarray:
    """d linear_factor / d params per band: n P(z)^(n-1) P'(z) (-h) logistic(params)."""
    n, h, (poly, dpoly) = solver.steps, solver.h, solver.stability
    z = -np.logaddexp(0.0, params) * h
    return n * poly(z) ** (n - 1) * dpoly(z) * (-h) * logistic(params)


def _frozen(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


def _own_params(params) -> np.ndarray:
    """A read-only float copy of ``params`` (complex stays complex, for complex step).

    Raises ShapeError when a parameter is not finite.
    """
    params = np.array(params, dtype=complex if np.iscomplexobj(params) else float)
    if not np.all(np.isfinite(params)):
        raise ShapeError("profile parameters must be finite")
    return _frozen(params)


def _network_layout(n_bands: int, hidden: int, latent: int) -> MlpLayout:
    """The nonlinear profile's network, as one layout.

    The encoder n_bands -> hidden -> latent (sigmoid, linear), then the
    decoder latent -> hidden -> n_bands (sigmoid, sigmoid), whose last
    activation is the decay.
    """
    return MlpLayout((n_bands, hidden, latent, hidden, n_bands), ("sigmoid", "linear", "sigmoid", "sigmoid"))


# eq=False: a profile compares and hashes by identity, since the
# generated __eq__ would compare its parameter arrays elementwise.
@dataclass(frozen=True, eq=False)
class LinearProfile:
    """Per-band exponential decay; alpha = softplus(params) keeps rates >= 0."""

    params: np.ndarray
    solver: SolverConfig = SolverConfig()

    kind = "linear"
    # Whether correcting a cube pays for more processes. No: T^-1 is one
    # division per value, and a second process made `correct` slower.
    costly_inverse = False

    def __post_init__(self):
        if np.ndim(self.params) != 1 or np.size(self.params) < 1:
            raise ShapeError("linear profile needs a 1-D parameter vector")
        object.__setattr__(self, "params", _own_params(self.params))

    @property
    def n_bands(self) -> int:
        return int(self.params.size)

    def with_params(self, params: np.ndarray) -> "LinearProfile":
        return replace(self, params=params)

    @classmethod
    def initialize(cls, n_bands: int, rng: np.random.Generator) -> "LinearProfile":
        # alpha near 0.5 keeps the initial transmittance around 0.6.
        alpha0 = rng.uniform(0.4, 0.6, n_bands)
        return cls(softplus_inverse(alpha0))

    @cached_property
    def t1(self) -> np.ndarray:
        """T(1_n): the per-band closed-form factor P(z)^n."""
        return _frozen(linear_factor(self.params, self.solver))

    def forward(self, L):
        """Multiplication of (..., n_bands) L by T(1)."""
        return as_spectra(L, self.n_bands) * self.t1

    def inverse(self, L):
        """Exact division of (..., n_bands) L by T(1).

        A band whose T(1) is exactly 0 (Euler with alpha h = 1) has no
        inverse: NumericError names it before anything is divided.
        """
        L, t = as_spectra(L, self.n_bands), self.t1
        if not t.all():
            bands = ", ".join(str(b) for b in np.flatnonzero(t == 0))
            raise NumericError(f"linear T(1) is 0 in band(s) {bands}; T^-1 would divide by 0")
        return L / t

    def t1_and_inverse(self, z):
        """(T(1), T^-1(z)): the closed-form factor and the division by it."""
        return self.t1, self.inverse(z)

    def inverse_vjp(self, z):
        """(T(1), T^-1(z), pullback): T(1)'s cotangent is g_t1 plus the division's."""
        t1, l2 = self.t1_and_inverse(z)

        def pullback(g_t1, g_l2):
            g_t = g_t1 - (g_l2 / t1 * l2).reshape(-1, t1.size).sum(axis=0)
            return g_t * _linear_factor_derivative(self.params, self.solver)

        return t1, l2, pullback


@dataclass(frozen=True, eq=False)
class NonlinearProfile:
    """Encoder/decoder rhs: dL/dx = -sigmoid(decode(encode(L))) * L."""

    params: np.ndarray
    n_bands: int
    hidden: int = DEFAULT_HIDDEN
    latent: int = DEFAULT_LATENT
    solver: SolverConfig = SolverConfig()

    kind = "nonlinear"
    # Yes: each pixel's T^-1 is a stepped reverse solve, and `correct` is
    # compute-bound, in exp and skinny matmuls, both cheaper in float32.
    costly_inverse = True

    def __post_init__(self):
        expected = self.layout.n_params
        if np.shape(self.params) != (expected,):
            raise ShapeError(
                f"nonlinear profile needs {expected} parameters, got {np.shape(self.params)}"
            )
        object.__setattr__(self, "params", _own_params(self.params))

    @cached_property
    def layout(self) -> MlpLayout:
        return _network_layout(self.n_bands, self.hidden, self.latent)

    def with_params(self, params: np.ndarray) -> "NonlinearProfile":
        return replace(self, params=params)

    @classmethod
    def initialize(
        cls,
        n_bands: int,
        rng: np.random.Generator,
        hidden: int = DEFAULT_HIDDEN,
        latent: int = DEFAULT_LATENT,
    ) -> "NonlinearProfile":
        return cls(glorot_init(_network_layout(n_bands, hidden, latent), rng), n_bands, hidden, latent)

    @cached_property
    def _layers(self):
        """The network's layers, unpacked from ``params`` once per profile."""
        return unpack_params(self.params, self.layout)

    @cached_property
    def float32_layers(self):
        """The network's layers cast to float32, once per profile: what ``rhs`` runs a float32 state through."""
        return [(w.astype(np.float32), act, w_fwd.astype(np.float32), b_fwd.astype(np.float32))
                for w, act, w_fwd, b_fwd in self._layers]

    def _rate(self, L):
        """(L, rate) for a plain solve from L: rate(s, out) = sigmoid(dec(enc(s))) * s = -f(s), in ``out``.

        L comes back in the solve's dtype: float32 for a float32 L, which
        then runs through ``float32_layers``, otherwise that of L and the
        parameters, float64 at least. The hidden layers write into buffers
        made here, once per solve, with their biases at full height, and the
        decay is computed in ``out`` itself.
        """
        dtype = np.result_type(L, np.float32)
        if dtype == np.float32:
            layers = self.float32_layers
        else:
            layers, dtype = self._layers, np.result_type(dtype, self.params)
        L = L.astype(dtype, copy=False)
        layers, hidden = batch_layers(layers, L.shape[:-1], dtype)

        def rate(s, out):
            decay = layers_forward(layers, s, hidden + [out])[-1]
            decay *= s
            return decay

        return L, rate

    def rhs(self, L):
        """f(L) = -sigmoid(dec(enc(L))) * L on plain arrays; the network's last activation is the decay.

        A float32 L runs through ``float32_layers``, so f(L) is float32 too;
        any other dtype through the float64 (or complex) layers.
        """
        L, rate = self._rate(np.asarray(L))
        with np.errstate(over="ignore"):
            value = rate(L, np.empty(L.shape, L.dtype))
        return np.negative(value, out=value)

    def rhs_vjp(self, L):
        """(f(L), vjp), vjp(g) -> (g_L, g_params), as ``ode.solve_vjp`` steps it.

        The VJP is the product rule, then the network's backprop by hand. It
        holds the layers and the activations, not the profile.
        """
        layers = self._layers
        with np.errstate(over="ignore"):
            acts = layers_forward(layers, L)
        decay = acts[-1]
        value = decay * L
        np.negative(value, out=value)

        def vjp(g):
            g_L, g_params = layers_backward(layers, acts, -g * L)
            return g_L - g * decay, g_params

        return value, vjp

    @cached_property
    def t1(self) -> np.ndarray:
        """T applied to the all-ones spectrum."""
        return _frozen(self.forward(np.ones(self.n_bands)))

    def forward(self, L):
        """Forward integration in x with the stepped solver."""
        L, rate = self._rate(as_spectra(L, self.n_bands))
        with np.errstate(over="ignore"):
            return ode_solve(rate, L, self.solver, rate=True)

    def inverse(self, L):
        """Backward integration in x."""
        L, rate = self._rate(as_spectra(L, self.n_bands))
        with np.errstate(over="ignore"):
            return ode_solve_reverse(rate, L, self.solver, rate=True)

    def _stacked(self, z):
        """(z, [1; z], reverse): z checked, the all-ones spectrum on top of z's rows, and only z's rows reverse."""
        z = as_spectra(z, self.n_bands)
        batch = np.concatenate([np.ones((1, self.n_bands)), z.reshape(-1, self.n_bands)])
        return z, batch, np.arange(len(batch)) > 0

    def t1_and_inverse(self, z):
        """(T(1), T^-1(z)) from one solve of [1; z]: row 0 steps forward in x, z's rows backward.

        The batch is float64 at least, as training is. T(1) comes from the
        stacked batch, so it can differ from the 1-D ``t1`` in the last bits.
        """
        z, batch, reverse = self._stacked(z)
        batch, rate = self._rate(batch)
        with np.errstate(over="ignore"):
            y = ode_solve(rate, batch, self.solver, rate=True, reverse=reverse)
        return y[0], y[1:].reshape(z.shape)

    def inverse_vjp(self, z):
        """(T(1), T^-1(z), pullback): ``t1_and_inverse``'s values and the one [1; z] solve's adjoint."""
        z, batch, reverse = self._stacked(z)
        y, vjp = solve_vjp(self.rhs_vjp, batch, self.solver, reverse)
        n = self.n_bands

        def pullback(g_t1, g_l2):
            return vjp(np.concatenate([np.reshape(g_t1, (1, n)), np.reshape(g_l2, (-1, n))]))[1]

        return y[0], y[1:].reshape(z.shape), pullback


Profile = Union[LinearProfile, NonlinearProfile]


# These two forwards stay only because bench/traced_cli.py times T(1) and T^-1
# by wrapping them under these names in the training and correction modules.


def transmittance_values(model: Profile) -> np.ndarray:
    """The model's T(1_n)."""
    return model.t1


def invert_values(model: Profile, L) -> np.ndarray:
    """The model's T^-1 of (..., n_bands) L."""
    return model.inverse(L)

