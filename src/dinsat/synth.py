"""Synthetic-scene generator with known ground truth.

Radiance is assembled with the closed-form exponential transmission
(L4 = C + m * exp(-2*alpha) * rho), never with the ODE solver, so solver
bugs cannot cancel out in round-trip tests against this truth. The truth is
the arrays the radiance was built from (alpha, rho and the normalization),
with no transmission model: the generator imports no profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .correction import SceneNormalization
from .errors import ConfigError
from .types import HyperCube, WavelengthGrid


@dataclass(frozen=True)
class SynthSpec:
    rows: int = 64
    cols: int = 64
    n_bands: int = 126
    wl_start_nm: float = 450.0
    wl_end_nm: float = 2500.0
    # (center_nm, width_nm, depth) Gaussian absorption features.
    absorption_bands: tuple[tuple[float, float, float], ...] = (
        (940.0, 40.0, 1.2),
        (1380.0, 60.0, 2.0),
        (1900.0, 80.0, 1.5),
    )
    baseline_alpha: float = 0.3
    n_materials: int = 5
    dark_level: float = 0.05
    illumination: float = 1.0
    noise_std: float = 0.0

    def __post_init__(self):
        for name in ("wl_start_nm", "wl_end_nm", "baseline_alpha", "dark_level", "illumination", "noise_std"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if not all(math.isfinite(v) for band in self.absorption_bands for v in band):
            raise ConfigError(f"absorption bands must be finite, got {self.absorption_bands}")
        if self.rows < 1 or self.cols < 1 or self.n_bands < 2:
            raise ConfigError("scene dimensions must be positive (>= 2 bands)")
        if not self.wl_end_nm > self.wl_start_nm > 0:
            raise ConfigError("wavelength range must be increasing and positive")
        for center, width, depth in self.absorption_bands:
            if not self.wl_start_nm <= center <= self.wl_end_nm:
                raise ConfigError(f"absorption center {center} nm outside grid range")
            if not width > 0:
                raise ConfigError("absorption width must be positive")
            if not depth >= 0:
                raise ConfigError("absorption depth must be nonnegative")
        if not self.baseline_alpha >= 0:
            raise ConfigError("baseline absorption must be nonnegative")
        if self.n_materials < 2:
            raise ConfigError("need at least 2 materials")
        if not self.dark_level >= 0:
            raise ConfigError("dark level must be nonnegative")
        if not self.illumination > 0:
            raise ConfigError("illumination must be positive")
        if not self.noise_std >= 0:
            raise ConfigError("noise level must be nonnegative")


@dataclass(frozen=True)
class SynthTruth:
    grid: WavelengthGrid
    alpha: np.ndarray  # (n_bands,)
    rho: np.ndarray  # (rows, cols, n_bands)
    norm: SceneNormalization


def _endmembers(spec: SynthSpec, rng: np.random.Generator) -> np.ndarray:
    """Smooth random spectra in [0.02, 0.98]: clipped low-frequency sinusoid sums."""
    t = np.linspace(0.0, 1.0, spec.n_bands)
    members = np.empty((spec.n_materials, spec.n_bands))
    for k in range(spec.n_materials):
        base = rng.uniform(0.2, 0.8)
        s = np.full(spec.n_bands, base)
        for _ in range(3):
            freq = rng.uniform(0.5, 2.5)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            s += rng.uniform(0.05, 0.2) * np.sin(2.0 * np.pi * freq * t + phase)
        members[k] = np.clip(s, 0.02, 0.98)
    return members


def synth_scene(spec: SynthSpec, seed: int) -> tuple[HyperCube, SynthTruth]:
    """Generate a radiance cube plus the exact truth used to build it."""
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    grid = WavelengthGrid.linear(spec.n_bands, spec.wl_start_nm, spec.wl_end_nm)
    wl = grid.wavelengths_nm

    alpha = np.full(spec.n_bands, spec.baseline_alpha, dtype=float)
    for center, width, depth in spec.absorption_bands:
        alpha += depth * np.exp(-0.5 * ((wl - center) / width) ** 2)

    members = _endmembers(spec, rng)
    weights = rng.dirichlet(np.ones(spec.n_materials), size=(spec.rows, spec.cols))
    rho = weights @ members
    # Calibration panels: one dark and one full-reflectance pixel anchor the
    # scene normalization estimates.
    if spec.cols >= 2:
        rho[0, 0] = 0.0
        rho[0, 1] = 1.0

    c = spec.dark_level * (0.8 + 0.4 * rng.random(spec.n_bands))
    transmission2 = np.exp(-2.0 * alpha)
    clean = c + spec.illumination * transmission2 * rho
    if spec.noise_std > 0:
        clean = clean * (1.0 + spec.noise_std * rng.standard_normal(clean.shape))
    data = np.maximum(clean, 0.0)

    cube = HyperCube(grid, data)
    truth = SynthTruth(grid=grid, alpha=alpha, rho=rho, norm=SceneNormalization(c, spec.illumination))
    return cube, truth

