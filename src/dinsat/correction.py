"""Scene normalization (C, m) and the correction / forward-simulation pipeline.

Reflectance is recovered as rho = T^-1((L4 - C)/m) / T(1_n); radiance is
simulated as L4 = C + m * T(rho * T(1_n)). rho is not clamped on output;
out-of-range bands and floored denominators are reported in a quality mask.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EmptyInputError, ShapeError
from .ode import SolverConfig
from .transmission import Profile, invert_values, transmittance_values
from .types import Spectrum

# Transmittance floor for the division in the correction formula.
EPS_T = 1e-6

# Quality-mask bit flags.
MASK_DENOM_FLOORED = 1
MASK_RHO_OUT_OF_RANGE = 2

RHO_RANGE_TOL = 1e-6


@dataclass(frozen=True)
class SceneNormalization:
    """Per-band dark offset and scalar illumination magnitude."""

    c: np.ndarray
    m: float

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "m", float(self.m))
        if c.ndim != 1:
            raise ShapeError("dark offset must be a per-band vector")
        if np.any(c < 0) or not np.all(np.isfinite(c)):
            raise ConfigError("dark offset must be finite and nonnegative")
        if not self.m > 0:
            raise ConfigError("illumination magnitude must be positive")

    @classmethod
    def identity(cls, n_bands: int) -> "SceneNormalization":
        return cls(np.zeros(n_bands), 1.0)


def _per_band(radiance, reduce) -> np.ndarray:
    """``reduce`` over every leading axis of a (..., n_bands) radiance array."""
    L = np.asarray(radiance, float)
    if L.size == 0:
        raise EmptyInputError("cannot normalize an empty radiance array")
    return reduce(L, axis=tuple(range(L.ndim - 1)))


def estimate_dark_offset(radiance) -> np.ndarray:
    """Per-band minimum of a (..., n_bands) radiance array over every leading axis."""
    return _per_band(radiance, np.min)


def estimate_scale(radiance, c: np.ndarray) -> float:
    """Smallest m with (L4 - c)/m <= 1 everywhere; 1 for a degenerate flat scene.

    Computed as max(max(L4) - c) over bands, which equals max(L4 - c) exactly
    (rounding is monotone) without an array-sized temporary.
    """
    spread = float((_per_band(radiance, np.max) - np.asarray(c, float)).max())
    return spread if spread > 0 else 1.0


def estimate_normalization(radiance) -> SceneNormalization:
    """(C, m) from a (..., n_bands) radiance array, e.g. a cube's (rows, cols, bands) data."""
    c = estimate_dark_offset(radiance)
    return SceneNormalization(c, estimate_scale(radiance, c))


def normalized_radiance(norm: SceneNormalization, l4) -> np.ndarray:
    """z = max((L4 - C)/m, 0) of (..., n_bands) radiance: what T^-1 inverts."""
    return np.maximum((np.asarray(l4, float) - norm.c) / norm.m, 0.0)


def corrected_reflectance(
    model: Profile,
    norm: SceneNormalization,
    l4,
    solver: SolverConfig = SolverConfig(),
    transmittance=None,
) -> np.ndarray:
    """T^-1(z) / max(T(1), EPS_T) of an (n_bands,) vector or (batch, n_bands) matrix.

    ``transmittance`` is the model's T(1), when the caller already has it.
    """
    t1 = (
        transmittance_values(model, model.params, solver)
        if transmittance is None
        else np.asarray(transmittance, float)
    )
    l2 = invert_values(model, model.params, normalized_radiance(norm, l4), solver, transmittance=t1)
    return l2 / np.maximum(t1, EPS_T)


def correct_batch(
    model: Profile,
    norm: SceneNormalization,
    l4: np.ndarray,
    solver: SolverConfig = SolverConfig(),
    transmittance=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Reflectance plus a per-band quality mask for a (batch, n_bands) matrix.

    ``transmittance`` is the model's T(1), for callers that correct many
    batches with one model.
    """
    t1 = (
        transmittance_values(model, model.params, solver)
        if transmittance is None
        else np.asarray(transmittance, float)
    )
    rho = corrected_reflectance(model, norm, l4, solver, t1)
    mask = np.zeros(rho.shape, dtype=np.uint8)
    mask |= np.where(t1 < EPS_T, MASK_DENOM_FLOORED, 0).astype(np.uint8)
    out_of_range = (rho < -RHO_RANGE_TOL) | (rho > 1.0 + RHO_RANGE_TOL)
    mask |= np.where(out_of_range, MASK_RHO_OUT_OF_RANGE, 0).astype(np.uint8)
    return rho, mask


def correct_pixel(
    model: Profile,
    norm: SceneNormalization,
    l4: Spectrum,
    solver: SolverConfig = SolverConfig(),
) -> Spectrum:
    """Surface reflectance for one at-sensor radiance spectrum."""
    if np.any(l4.values < 0):
        raise ConfigError("at-sensor radiance must be nonnegative")
    rho, _ = correct_batch(model, norm, l4.values[None, :], solver)
    return Spectrum(rho[0], "reflectance")


def simulate_values(
    model: Profile,
    norm: SceneNormalization,
    rho: np.ndarray,
    solver: SolverConfig = SolverConfig(),
) -> np.ndarray:
    """At-sensor radiance L4 = C + m * T(rho * T(1_n)) of (..., n_bands) reflectance ``rho``."""
    t1 = transmittance_values(model, model.params, solver)
    return norm.c + norm.m * model.forward(model.params, rho * t1, solver)


def simulate_at_sensor(
    model: Profile,
    norm: SceneNormalization,
    rho: Spectrum,
    solver: SolverConfig = SolverConfig(),
) -> Spectrum:
    """At-sensor radiance from a surface reflectance spectrum."""
    if np.any(rho.values < -RHO_RANGE_TOL):
        raise ConfigError("reflectance must be nonnegative")
    return Spectrum(simulate_values(model, norm, rho.values, solver), "radiance")
