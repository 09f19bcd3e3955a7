"""Synthetic-scene generator with known ground truth.

Radiance is assembled with the closed-form exponential transmission
(L4 = C + m * exp(-2*alpha) * rho), never with the ODE solver, so solver
bugs cannot cancel out in round-trip tests against this truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correction import SceneNormalization
from .errors import ConfigError
from .transmission import LinearProfile
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
        if self.rows < 1 or self.cols < 1 or self.n_bands < 2:
            raise ConfigError("scene dimensions must be positive (>= 2 bands)")
        if not self.wl_end_nm > self.wl_start_nm > 0:
            raise ConfigError("wavelength range must be increasing and positive")
        for center, width, depth in self.absorption_bands:
            if not self.wl_start_nm <= center <= self.wl_end_nm:
                raise ConfigError(f"absorption center {center} nm outside grid range")
            if width <= 0:
                raise ConfigError("absorption width must be positive")
            if depth < 0:
                raise ConfigError("absorption depth must be nonnegative")
        if self.baseline_alpha < 0:
            raise ConfigError("baseline absorption must be nonnegative")
        if self.n_materials < 2:
            raise ConfigError("need at least 2 materials")
        if self.dark_level < 0:
            raise ConfigError("dark level must be nonnegative")
        if self.illumination <= 0:
            raise ConfigError("illumination must be positive")
        if self.noise_std < 0:
            raise ConfigError("noise level must be nonnegative")


@dataclass(frozen=True)
class SynthTruth:
    grid: WavelengthGrid
    alpha: np.ndarray  # (n_bands,)
    profile: LinearProfile
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
    truth = SynthTruth(
        grid=grid,
        alpha=alpha,
        profile=LinearProfile.from_alpha(alpha),
        rho=rho,
        norm=SceneNormalization(c, spec.illumination),
    )
    return cube, truth


def sample_pixels(
    cube: HyperCube,
    truth: SynthTruth | None,
    n_pixels: int,
    seed: int,
    with_truth: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Distinct pixels drawn uniformly at random, as (coords, l4, rho).

    ``coords`` holds (n, 2) (row, col) pairs, ``l4`` their (n, bands) radiance
    from one ``cube.pixels`` call, ``rho`` their truth reflectance or None.
    """
    rng = np.random.default_rng(seed)
    total = cube.rows * cube.cols
    if n_pixels > total:
        raise ConfigError(f"requested {n_pixels} pixels from a {total}-pixel scene")
    flat = rng.choice(total, size=n_pixels, replace=False)
    coords = np.stack(np.divmod(flat, cube.cols), axis=1)
    rho = truth.rho[coords[:, 0], coords[:, 1]] if with_truth and truth is not None else None
    return coords, cube.pixels(coords), rho
