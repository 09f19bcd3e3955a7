"""Transmission-profile models: the operator T, its inverse, and T(1_n).

Each profile is one operator with ``forward`` (T), ``inverse`` (T^-1) and
``t1`` (T(1_n)) methods, all traced-or-plain in the parameters. The linear
profile realizes per-band exponential decay with nonnegative rates; the
nonlinear profile runs the spectrum through a bottleneck encoder/decoder and
multiplies by a decay factor forced into [-1, 0], so dissipation holds by
construction.

For dL/dx = -alpha L a fixed-step explicit solver multiplies each band by
P(z) per step, z = -alpha h, where P is the method's stability polynomial
(Euler: 1 + z; RK4: 1 + z + z^2/2 + z^3/6 + z^4/24). The linear profile
therefore computes the solver's discrete map in closed form, as the per-band
factor P(z)^n, recorded as a single tape node with its analytic derivative:
the same map and the same gradients as stepping the solver n times. T is a
multiplication by that factor and T^-1 an exact division, each one node over
(L, T(1)), so round trips are exact up to float rounding. The nonlinear profile integrates with the stepped
solvers in ``ode``, forward and backward in x. Its right-hand side is an
``ode.FusedRhs`` that unpacks the encoder and decoder weights once per solve:
plain-numpy primitives for f(L) and for f(L) with a hand-written VJP (product
rule, then the decoder and encoder backprop of ``mlp``). The sigmoids are
``autodiff.logistic``, and the product and its sign are computed in one array.
Untraced, a solve steps f(L) alone. Traced, the whole solve, forward or
inverse, is one tape node whose VJP sweeps the stored stage VJPs in reverse:
the exact gradients of the unrolled steps, with no node per stage, slice,
matmul, bias or sigmoid.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Union

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, NumericError, ShapeError
from .mlp import MlpLayout, glorot_init, layers_backward, layers_forward, unpack_params
from .ode import FusedRhs, SolverConfig, ode_solve, ode_solve_reverse
from .types import Spectrum

DEFAULT_HIDDEN = 12
DEFAULT_LATENT = 3


def softplus_inverse(a: np.ndarray) -> np.ndarray:
    """Raw parameter giving softplus(raw) == a; a must be positive."""
    a = np.asarray(a, float)
    if np.any(a <= 0):
        raise ConfigError("softplus inverse requires positive rates")
    return a + np.log1p(-np.exp(-a))


# Stability polynomial P(z) and its derivative P'(z) of each solver method:
# one step of the method on dL/dx = lambda L multiplies L by P(lambda h).
_STABILITY = {
    "euler": (lambda z: 1.0 + z, lambda z: np.ones_like(z)),
    "rk4": (
        lambda z: 1.0 + z * (1.0 + z * (1.0 / 2.0 + z * (1.0 / 6.0 + z / 24.0))),
        lambda z: 1.0 + z * (1.0 + z * (1.0 / 2.0 + z / 6.0)),
    ),
}


def linear_factor(raw, solver: SolverConfig = SolverConfig()):
    """P(-softplus(raw) h)^n: the solver's exact discrete map of dL/dx = -alpha L.

    One tape node whose derivative is n P^(n-1) P' (-h) logistic(raw). Raises
    NumericError when the factor is not finite, as the stepped solver does.
    """
    n = solver.steps
    h = (solver.x_end - solver.x0) / n
    poly, dpoly = _STABILITY[solver.method]

    def factor(r):
        with np.errstate(over="ignore", invalid="ignore"):
            out = poly(-np.logaddexp(0.0, r) * h) ** n
        if not np.all(np.isfinite(out)):
            raise NumericError("non-finite linear transmission factor")
        return out

    def derivative(r, _):
        z = -np.logaddexp(0.0, r) * h
        return n * poly(z) ** (n - 1) * dpoly(z) * (-h) * ad.logistic(r)

    return ad.elementwise(raw, factor, derivative)


@dataclass(frozen=True)
class LinearProfile:
    """Per-band exponential decay; alpha = softplus(raw) keeps rates >= 0."""

    raw: np.ndarray

    kind = "linear"

    def __post_init__(self):
        raw = np.asarray(self.raw, dtype=float)
        object.__setattr__(self, "raw", raw)
        if raw.ndim != 1 or raw.size < 1:
            raise ShapeError("linear profile needs a 1-D raw parameter vector")
        if not np.all(np.isfinite(raw)):
            raise ShapeError("linear profile parameters must be finite")

    @property
    def n_bands(self) -> int:
        return int(self.raw.size)

    @property
    def params(self) -> np.ndarray:
        return self.raw

    @property
    def alpha(self) -> np.ndarray:
        return np.logaddexp(0.0, self.raw)

    def with_params(self, params: np.ndarray) -> "LinearProfile":
        return LinearProfile(np.asarray(params, float))

    @classmethod
    def initialize(cls, n_bands: int, rng: np.random.Generator) -> "LinearProfile":
        # alpha near 0.5 keeps the initial transmittance around 0.6.
        alpha0 = rng.uniform(0.4, 0.6, n_bands)
        return cls(softplus_inverse(alpha0))

    @classmethod
    def from_alpha(cls, alpha: np.ndarray) -> "LinearProfile":
        alpha = np.maximum(np.asarray(alpha, float), 1e-9)
        return cls(softplus_inverse(alpha))

    def rhs_from(self, params):
        """f(L) = -alpha L on plain arrays; training uses the closed form instead."""
        alpha = np.logaddexp(0.0, params)
        return lambda L: -(alpha * L)

    def t1(self, params, solver: SolverConfig):
        """T(1_n): the per-band closed-form factor P(z)^n."""
        return linear_factor(params, solver)

    def forward(self, params, L, solver: SolverConfig):
        """Multiplication of (..., n_bands) L by T(1): one node over (L, T(1))."""
        t = self.t1(params, solver)
        tv = ad.value_of(t)
        Lv = ad.value_of(L)

        def vjp(g):
            return g * tv, (g * Lv).reshape(-1, tv.size).sum(axis=0)

        return ad.node(Lv * tv, (L, t), vjp)

    def inverse(self, params, L, solver: SolverConfig, transmittance=None):
        """Exact division of (..., n_bands) L by T(1): one node over (L, T(1)).

        Pass ``transmittance`` to reuse a T(1) already computed.
        """
        t = self.t1(params, solver) if transmittance is None else transmittance
        tv = ad.value_of(t)
        out = ad.value_of(L) / tv

        def vjp(g):
            g_L = g / tv
            return g_L, -(g_L * out).reshape(-1, tv.size).sum(axis=0)

        return ad.node(out, (L, t), vjp)


@dataclass(frozen=True)
class NonlinearProfile:
    """Encoder/decoder rhs: dL/dx = -sigmoid(decode(encode(L))) * L."""

    params: np.ndarray
    n_bands: int
    hidden: int = DEFAULT_HIDDEN
    latent: int = DEFAULT_LATENT

    kind = "nonlinear"

    def __post_init__(self):
        params = np.asarray(self.params, dtype=float)
        object.__setattr__(self, "params", params)
        expected = self.encoder_layout.n_params + self.decoder_layout.n_params
        if params.shape != (expected,):
            raise ShapeError(
                f"nonlinear profile needs {expected} parameters, got {params.shape}"
            )
        if not np.all(np.isfinite(params)):
            raise ShapeError("nonlinear profile parameters must be finite")

    @property
    def encoder_layout(self) -> MlpLayout:
        return MlpLayout.one_hidden(self.n_bands, self.hidden, self.latent)

    @property
    def decoder_layout(self) -> MlpLayout:
        return MlpLayout.one_hidden(self.latent, self.hidden, self.n_bands)

    def with_params(self, params: np.ndarray) -> "NonlinearProfile":
        return replace(self, params=np.asarray(params, float))

    @classmethod
    def initialize(
        cls,
        n_bands: int,
        rng: np.random.Generator,
        hidden: int = DEFAULT_HIDDEN,
        latent: int = DEFAULT_LATENT,
    ) -> "NonlinearProfile":
        enc = MlpLayout.one_hidden(n_bands, hidden, latent)
        dec = MlpLayout.one_hidden(latent, hidden, n_bands)
        params = np.concatenate([glorot_init(enc, rng), glorot_init(dec, rng)])
        return cls(params, n_bands, hidden, latent)

    def rhs_from(self, params) -> FusedRhs:
        """f(L) = -sigmoid(dec(enc(L))) * L with the weights unpacked once per solve.

        Called on a plain L it gives a plain array. Its VJP applies the product
        rule and backprops through the decoder, then the encoder, by hand;
        ``ode`` steps it to record a traced solve as one node.
        """
        n_enc = self.encoder_layout.n_params
        pv = ad.value_of(params)
        enc = unpack_params(pv[:n_enc], self.encoder_layout)
        dec = unpack_params(pv[n_enc:], self.decoder_layout)
        n_bands = self.n_bands

        def forward(Lv):
            if Lv.shape[-1] != n_bands:
                raise ShapeError(f"input has {Lv.shape[-1]} bands, profile {n_bands}")
            enc_acts = layers_forward(enc, Lv)
            dec_acts = layers_forward(dec, enc_acts[-1])
            decay = ad.logistic(dec_acts[-1])
            value = decay * Lv
            np.negative(value, out=value)
            return value, enc_acts, dec_acts, decay

        def value_and_vjp(Lv):
            value, enc_acts, dec_acts, decay = forward(Lv)

            def vjp(g):
                g_z, g_dec = layers_backward(dec, dec_acts, -g * Lv * (decay * (1.0 - decay)))
                g_L, g_enc = layers_backward(enc, enc_acts, g_z)
                return g_L - g * decay, np.concatenate([g_enc, g_dec])

            return value, vjp

        return FusedRhs(params, lambda Lv: forward(Lv)[0], value_and_vjp)

    def t1(self, params, solver: SolverConfig):
        """T applied to the all-ones spectrum."""
        return self.forward(params, np.ones(self.n_bands), solver)

    def forward(self, params, L, solver: SolverConfig):
        """Forward integration in x with the stepped solver."""
        return ode_solve(self.rhs_from(params), L, solver)

    def inverse(self, params, L, solver: SolverConfig, transmittance=None):
        """Backward integration in x; ``transmittance`` is accepted and not needed."""
        return ode_solve_reverse(self.rhs_from(params), L, solver)


Profile = Union[LinearProfile, NonlinearProfile]


def rhs_values(L: np.ndarray, profile: Profile) -> np.ndarray:
    """The right-hand side f(L); <= 0 for L >= 0 for either profile."""
    L = np.asarray(L, float)
    if L.shape[-1] != profile.n_bands:
        raise ShapeError(f"input has {L.shape[-1]} bands, profile {profile.n_bands}")
    return profile.rhs_from(profile.params)(L)


# These two forwards stay only because bench/traced_cli.py times T(1) and T^-1
# by wrapping them under these names in the cli, training and correction modules.


def transmittance_values(model: Profile, params, solver: SolverConfig = SolverConfig()):
    """T applied to the all-ones spectrum."""
    return model.t1(params, solver)


def invert_values(
    model: Profile,
    params,
    L,
    solver: SolverConfig = SolverConfig(),
    transmittance=None,
):
    """The operator T^-1 on raw vectors/matrices.

    ``transmittance`` is T(1) for these params when the caller already has it;
    the linear profile divides by it instead of computing it again.
    """
    return model.inverse(params, L, solver, transmittance)


def _spectrum_in(L: Spectrum | np.ndarray) -> np.ndarray:
    return L.values if isinstance(L, Spectrum) else np.asarray(L, float)


def transmit(model: Profile, L: Spectrum | np.ndarray, solver: SolverConfig = SolverConfig()):
    """T on a Spectrum (unit preserved) or plain vector."""
    out = model.forward(model.params, _spectrum_in(L), solver)
    if isinstance(L, Spectrum):
        return L.with_values(out)
    return out


def invert_transmit(model: Profile, L: Spectrum | np.ndarray, solver: SolverConfig = SolverConfig()):
    """T^-1 on a Spectrum (unit preserved) or plain vector."""
    out = model.inverse(model.params, _spectrum_in(L), solver)
    if isinstance(L, Spectrum):
        return L.with_values(out)
    return out


def transmittance_spectrum(model: Profile, solver: SolverConfig = SolverConfig()) -> Spectrum:
    """T(1_n) as a transmittance-tagged Spectrum."""
    return Spectrum(model.t1(model.params, solver), "transmittance")
