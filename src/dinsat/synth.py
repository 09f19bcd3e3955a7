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

# Bytes of float64 noise drawn at a time: the generator's peak is the two
# cubes plus one such block.
NOISE_BLOCK_BYTES = 1 << 20


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
    rho: np.ndarray  # (rows, cols, n_bands), a view of a (n_bands, rows, cols) array
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
    """Generate a radiance cube plus the exact truth used to build it.

    The reflectance and the radiance are (rows, cols, bands) views of
    band-sequential (bands, rows, cols) arrays, as a BSQ file lays them out,
    and are built in place: the peak is about the two cubes plus one noise
    block of NOISE_BLOCK_BYTES. Each value is the one the C-ordered formula
    ``max((c + m * exp(-2*alpha) * rho) * (1 + noise_std * N), 0)`` gives, bit
    for bit, with the noise N drawn in (rows, cols, bands) order.
    """
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
    rho_bsq = np.empty((spec.n_bands, spec.rows, spec.cols))
    # The C-ordered product weights @ members takes each row of pixels through
    # gemm, or through gemv when a row is one pixel; the two round differently.
    # The transposed products below take the same routines, so the same bits.
    if spec.cols > 1:
        np.matmul(members.T, weights.reshape(-1, spec.n_materials).T, out=rho_bsq.reshape(spec.n_bands, -1))
    else:
        np.matmul(members.T, weights.transpose(0, 2, 1), out=rho_bsq.transpose(1, 0, 2))
    del weights
    rho = rho_bsq.transpose(1, 2, 0)
    # Calibration panels: one dark and one full-reflectance pixel anchor the
    # scene normalization estimates.
    if spec.cols >= 2:
        rho[0, 0] = 0.0
        rho[0, 1] = 1.0

    c = spec.dark_level * (0.8 + 0.4 * rng.random(spec.n_bands))
    data_bsq = np.multiply(rho_bsq, (spec.illumination * np.exp(-2.0 * alpha))[:, None, None])
    data_bsq += c[:, None, None]
    data = data_bsq.transpose(1, 2, 0)
    if spec.noise_std > 0:
        step = max(1, NOISE_BLOCK_BYTES // (spec.cols * spec.n_bands * 8))
        buf = np.empty((min(step, spec.rows), spec.cols, spec.n_bands))
        for r0 in range(0, spec.rows, step):
            block = data[r0 : r0 + step]
            noise = rng.standard_normal(out=buf[: len(block)])
            noise *= spec.noise_std
            noise += 1.0
            block *= noise
    np.maximum(data_bsq, 0.0, out=data_bsq)

    cube = HyperCube(grid, data)
    truth = SynthTruth(grid=grid, alpha=alpha, rho=rho, norm=SceneNormalization(c, spec.illumination))
    return cube, truth
