"""Spectral domain types, dataset splitting, and shared evaluation metrics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import ConfigError, ShapeError

Unit = Literal["radiance", "reflectance", "transmittance", "unitless"]

VALID_UNITS = ("radiance", "reflectance", "transmittance", "unitless")


@dataclass(frozen=True)
class WavelengthGrid:
    """Strictly increasing band-center wavelengths in nanometers."""

    wavelengths_nm: np.ndarray

    def __post_init__(self):
        wl = np.asarray(self.wavelengths_nm, dtype=float)
        object.__setattr__(self, "wavelengths_nm", wl)
        if wl.ndim != 1 or wl.size < 2:
            raise ShapeError("wavelength grid must be 1-D with at least 2 bands")
        if not np.all(np.isfinite(wl)):
            raise ShapeError("wavelengths must be finite")
        if np.any(wl <= 0):
            raise ShapeError("wavelengths must be positive")
        if np.any(np.diff(wl) <= 0):
            raise ShapeError("wavelengths must be strictly increasing")

    @property
    def n_bands(self) -> int:
        return int(self.wavelengths_nm.size)

    @classmethod
    def linear(cls, n_bands: int, start_nm: float = 450.0, end_nm: float = 2500.0) -> "WavelengthGrid":
        return cls(np.linspace(start_nm, end_nm, n_bands))


@dataclass(frozen=True)
class Spectrum:
    """Immutable per-band vector tagged with its physical unit: what the spectrum CSVs hold."""

    values: np.ndarray
    unit: Unit = "unitless"

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1:
            raise ShapeError("spectrum values must be 1-D")
        if not np.all(np.isfinite(vals)):
            raise ShapeError("spectrum values must be finite")
        if self.unit not in VALID_UNITS:
            raise ConfigError(f"unknown spectrum unit: {self.unit!r}")

    @property
    def n_bands(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class HyperCube:
    """rows x cols x bands radiance volume on a wavelength grid."""

    grid: WavelengthGrid
    data: np.ndarray  # canonical (rows, cols, bands), in any memory layout

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        object.__setattr__(self, "data", data)
        if data.ndim != 3:
            raise ShapeError("cube data must be rows x cols x bands")
        if data.shape[2] != self.grid.n_bands:
            raise ShapeError(
                f"cube has {data.shape[2]} bands but grid has {self.grid.n_bands}"
            )
        # Two reductions and no boolean temporaries; NaN propagates through both.
        low, high = data.min(initial=0.0), data.max(initial=0.0)
        if not (np.isfinite(low) and np.isfinite(high)):
            raise ShapeError("cube data must be finite")
        if low < 0:
            raise ShapeError("cube radiance must be nonnegative")

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def n_bands(self) -> int:
        return self.data.shape[2]


def as_spectra(values, n_bands: int) -> np.ndarray:
    """``values`` as an array of (..., n_bands) spectra; ShapeError when its last axis has another length."""
    values = np.asarray(values)
    if values.shape[-1:] != (n_bands,):
        raise ShapeError(f"expected spectra of {n_bands} bands on the last axis, got shape {values.shape}")
    return values


def sample_coords(rows: int, cols: int, n_pixels: int, seed: int) -> np.ndarray:
    """(n, 2) distinct (row, col) pairs of a rows x cols image, drawn uniformly by ``seed``."""
    total = rows * cols
    if n_pixels > total:
        raise ConfigError(f"requested {n_pixels} pixels from a {total}-pixel scene")
    flat = np.random.default_rng(seed).choice(total, size=n_pixels, replace=False)
    return np.stack(np.divmod(flat, cols), axis=1)


@dataclass(frozen=True)
class DatasetSplit:
    """Disjoint train/val/test index lists into a sample collection."""

    train: tuple[int, ...]
    val: tuple[int, ...]
    test: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "train", tuple(int(i) for i in self.train))
        object.__setattr__(self, "val", tuple(int(i) for i in self.val))
        object.__setattr__(self, "test", tuple(int(i) for i in self.test))
        sets = [set(self.train), set(self.val), set(self.test)]
        total = len(self.train) + len(self.val) + len(self.test)
        if len(sets[0] | sets[1] | sets[2]) != total:
            raise ConfigError("split index lists must be pairwise disjoint")


def check_split_fractions(fractions) -> tuple[float, float, float]:
    """(train, val, test) as floats; ConfigError unless finite, nonnegative and summing to at most 1."""
    f_train, f_val, f_test = (float(f) for f in fractions)
    if not np.isfinite([f_train, f_val, f_test]).all():
        raise ConfigError(f"split_fractions must be finite, got {f_train}/{f_val}/{f_test}")
    if min(f_train, f_val, f_test) < 0:
        raise ConfigError(f"split_fractions must be nonnegative, got {f_train}/{f_val}/{f_test}")
    if f_train + f_val + f_test > 1.0 + 1e-9:
        raise ConfigError(f"split_fractions must sum to at most 1, got {f_train}/{f_val}/{f_test}")
    return f_train, f_val, f_test


def split_dataset(
    n_samples: int, fractions: tuple[float, float, float], seed: int
) -> DatasetSplit:
    """Random disjoint split; rounding remainder is absorbed by the test split."""
    f_train, f_val, f_test = check_split_fractions(fractions)
    if n_samples < 3:
        raise ConfigError("need at least 3 samples to split")

    n_train = round(f_train * n_samples)
    n_val = round(f_val * n_samples)
    n_test = round(f_test * n_samples)
    if f_test > 0 and f_train + f_val + f_test >= 1.0 - 1e-9:
        n_test = n_samples - n_train - n_val
    if f_train > 0 and n_train == 0:
        raise ConfigError("train fraction is positive but rounds to zero samples")
    if f_val > 0 and n_val == 0:
        raise ConfigError("val fraction is positive but rounds to zero samples")
    if f_test > 0 and n_test <= 0:
        raise ConfigError("test fraction is positive but rounds to zero samples")
    if n_train + n_val + n_test > n_samples:
        raise ConfigError(
            f"split fractions round to {n_train}/{n_val}/{n_test} samples, "
            f"more than the {n_samples} there are"
        )

    perm = np.random.default_rng(seed).permutation(n_samples)
    train = perm[:n_train]
    val = perm[n_train : n_train + n_val]
    test = perm[n_train + n_val : n_train + n_val + n_test]
    return DatasetSplit(tuple(train), tuple(val), tuple(test))


def percent_mse(predicted: np.ndarray, reference: np.ndarray) -> float:
    """100 x mean squared difference of dimensionless per-band values."""
    p, r = np.asarray(predicted, float), np.asarray(reference, float)
    if p.shape != r.shape:
        raise ShapeError(f"length mismatch: {p.shape} vs {r.shape}")
    return float(100.0 * np.mean((p - r) ** 2))
