"""Scene normalization (C, m) and the correction / forward-simulation pipeline.

``estimate_normalization`` is the one estimator of (C, m): C is the per-band
minimum of the radiance and m its largest spread above C. Reflectance is
recovered as rho = T^-1((L4 - C)/m) / T(1_n); radiance is
simulated as L4 = C + m * T(rho * T(1_n)). rho is not clamped on output;
out-of-range bands and floored denominators are reported in a quality mask.
Both take the model alone: it carries its solver, and its T(1) is computed
once per model, so correcting a cube in groups of rows solves for T(1) once.
`correct_batch` is the one correction kernel. It allocates the float64 array
z is made in, the array T^-1 returns (where the division by T(1) happens)
and two boolean range masks; a stepped T^-1 makes its own buffers once per
call, so a batch of several rows pays for them once. With
``out=(rho, mask)`` it casts the result into caller-owned arrays, so
`dinsat correct` writes each group of image rows straight into its output
blocks. When that reflectance is float32 and the model's T^-1 is a stepped
solve (``costly_inverse``), z is cast to float32 and the solve runs in
float32, the precision written; T(1) stays float64, computed once per
model, and a linear model's exact division stays float64, so its output
does not change. A pixel's result does not depend on how many image rows
share its call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, EmptyInputError, NumericError, ShapeError
from .transmission import Profile, invert_values, transmittance_values
from .types import as_spectra

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
        if not (self.m > 0 and np.isfinite(self.m)):
            raise ConfigError(f"illumination magnitude must be positive and finite, got {self.m}")

    @classmethod
    def identity(cls, n_bands: int) -> "SceneNormalization":
        return cls(np.zeros(n_bands), 1.0)


def estimate_normalization(radiance) -> SceneNormalization:
    """(C, m) from a (..., n_bands) radiance array, e.g. a cube's (rows, cols, bands) data.

    C is the per-band minimum over every leading axis, and m the smallest
    scale with (L4 - C)/m <= 1 everywhere, or 1 for a degenerate flat scene.
    m is computed as max(max(L4) - C) over bands, which equals max(L4 - C)
    exactly (rounding is monotone) without an array-sized temporary.
    """
    L = np.asarray(radiance, float)
    if L.size == 0:
        raise EmptyInputError("cannot normalize an empty radiance array")
    leading = tuple(range(L.ndim - 1))
    c = L.min(axis=leading)
    spread = float((L.max(axis=leading) - c).max())
    return SceneNormalization(c, spread if spread > 0 else 1.0)


def normalized_radiance(norm: SceneNormalization, l4) -> np.ndarray:
    """z = max((L4 - C)/m, 0) of (..., n_bands) radiance: what T^-1 inverts.

    One new array, laid out like ``l4``; the division and the floor work in it.
    Raises ShapeError unless ``l4`` has C's bands on its last axis.
    """
    z = np.subtract(np.asarray(as_spectra(l4, norm.c.size), float), norm.c)
    z /= norm.m
    return np.maximum(z, 0.0, out=z)


def correct_batch(
    model: Profile,
    norm: SceneNormalization,
    l4: np.ndarray,
    out: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Reflectance T^-1(z) / max(T(1), EPS_T) and a per-band quality mask of (..., n_bands) radiance.

    Without ``out`` the reflectance is float64 and the mask uint8.
    ``out=(rho, mask)`` writes them into caller-owned arrays of ``l4``'s
    shape instead (rho cast to its dtype, e.g. float32; the mask an unsigned
    integer array) and returns those; a finite reflectance beyond rho's
    dtype's range raises NumericError naming its bands. A float32 rho with a
    stepped T^-1 (``model.costly_inverse``) has that solve run in float32.
    The range bit is set from the reflectance computed: float32 there,
    float64 otherwise. ``l4`` is left as it is.
    """
    t1 = transmittance_values(model)
    z = normalized_radiance(norm, l4)
    if model.costly_inverse and out is not None and out[0].dtype == np.float32:
        z = z.astype(np.float32)  # a stepped T^-1 runs in the precision it is written in
    # T^-1 returns a new array, so the rest of the kernel works in it.
    rho = invert_values(model, z)
    rho /= np.maximum(t1, EPS_T)
    out_of_range = np.less(rho, -RHO_RANGE_TOL)
    out_of_range |= np.greater(rho, 1.0 + RHO_RANGE_TOL)
    if out is None:
        rho_out, mask = rho, np.empty(rho.shape, np.uint8)
    else:
        rho_out, mask = out
        try:
            with np.errstate(over="raise"):
                np.copyto(rho_out, rho, casting="same_kind")
        except FloatingPointError:
            too_large = np.abs(rho) > np.finfo(rho_out.dtype).max
            bands = ", ".join(str(b) for b in np.flatnonzero(too_large.reshape(-1, rho.shape[-1]).any(axis=0)))
            raise NumericError(f"reflectance exceeds {rho_out.dtype}'s range in band(s) {bands}") from None
    np.multiply(out_of_range, mask.dtype.type(MASK_RHO_OUT_OF_RANGE), out=mask)
    floored = t1 < EPS_T
    if floored.any():
        mask |= (floored * MASK_DENOM_FLOORED).astype(mask.dtype)
    return rho_out, mask


def simulate_values(model: Profile, norm: SceneNormalization, rho: np.ndarray) -> np.ndarray:
    """At-sensor radiance L4 = C + m * T(rho * T(1_n)) of (..., n_bands) reflectance ``rho``.

    Raises ShapeError unless ``rho`` and C have the model's bands, and
    ConfigError when a reflectance is below -RHO_RANGE_TOL.
    """
    as_spectra(norm.c, model.n_bands)
    rho = np.asarray(as_spectra(rho, model.n_bands), float)
    if np.any(rho < -RHO_RANGE_TOL):
        raise ConfigError("reflectance must be nonnegative")
    return norm.c + norm.m * model.forward(rho * transmittance_values(model))

