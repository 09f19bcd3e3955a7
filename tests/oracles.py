"""The tests' oracles and reference helpers, none of which the package's commands need.

Central differences, complex step and the composed MLP check gradients and the
network; ``linear_profile`` and ``linear_rate`` build the linear profile and
its stepped rate from rates alpha, and ``linear_alpha`` reads a linear
profile's rates back; ``solve_direction`` names a solve's direction;
``read_cube`` reads a whole ENVI cube through the
row-block reader; ``sample_pixels`` draws pixels of an in-memory synthetic
scene; ``synth_reference`` computes a synthetic scene in C order with
whole-array temporaries.
"""

from pathlib import Path
from typing import Callable

import numpy as np

from dinsat.envi import open_envi
from dinsat.errors import ShapeError
from dinsat.mlp import MlpLayout, layers_forward, unpack_params
from dinsat.synth import SynthSpec, SynthTruth, _endmembers
from dinsat.transmission import LinearProfile, softplus_inverse
from dinsat.types import HyperCube, sample_coords

H_CS = 1e-30


def finite_difference(f: Callable[[np.ndarray], float], x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar f at x."""
    x = np.asarray(x, float)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = float(f(x))
        flat[i] = orig - h
        fm = float(f(x))
        flat[i] = orig
        gf[i] = (fp - fm) / (2.0 * h)
    return g


def complex_step(f, x):
    """Gradient of a real-analytic scalar f at real x: Im f(x + ih e_k) / h per k.

    No difference is taken, so there is no cancellation: exact to rounding.
    """
    x = np.asarray(x, float)
    grad = np.empty_like(x)
    for k in range(x.size):
        xc = x.astype(complex)
        xc.flat[k] += 1j * H_CS
        grad.flat[k] = complex(f(xc)).imag / H_CS
    return grad


def mlp_forward(params: np.ndarray, layout: MlpLayout, x: np.ndarray) -> np.ndarray:
    """Composed affine + activation layers over a flat parameter vector.

    x may be a single (n_in,) vector or a (batch, n_in) matrix.
    """
    x = np.asarray(x, float)
    if x.shape[-1] != layout.sizes[0]:
        raise ShapeError(f"input has {x.shape[-1]} features, layout expects {layout.sizes[0]}")
    return layers_forward(unpack_params(params, layout), x)[-1]


def linear_profile(alpha) -> LinearProfile:
    """The linear profile with per-band rates ``alpha``, each floored at 1e-9 so softplus can be inverted."""
    return LinearProfile(softplus_inverse(np.maximum(np.asarray(alpha, float), 1e-9)))


def linear_alpha(profile: LinearProfile) -> np.ndarray:
    """The linear profile's per-band rates alpha = softplus(params)."""
    return np.logaddexp(0.0, profile.params)


def linear_rate(alpha) -> Callable[..., np.ndarray]:
    """r(L, out=None) = alpha L, in ``out`` if given: the linear profile's rate.

    The package only uses it in closed form; the tests step it as the reference.
    """
    alpha = np.asarray(alpha, float)
    return lambda L, out=None: np.multiply(alpha, L, out=out)


def solve_direction(reverse=False) -> str:
    """An ``ode_solve`` call's direction from its ``reverse``: forward, reverse or mixed."""
    rows = np.asarray(reverse, bool)
    return "reverse" if rows.all() else "mixed" if rows.any() else "forward"


def read_cube(header_path: str | Path) -> HyperCube:
    """The whole ENVI cube at ``header_path``, in (rows, cols, bands) order, read block by block."""
    cube = open_envi(header_path)
    data = np.empty((cube.rows, cube.cols, cube.n_bands))
    for r0, block in cube.blocks():
        data[r0 : r0 + len(block)] = block
    return HyperCube(cube.grid, data)


def sample_pixels(
    cube: HyperCube,
    truth: SynthTruth | None,
    n_pixels: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Distinct pixels drawn uniformly at random, as (coords, l4, rho).

    ``coords`` holds (n, 2) (row, col) pairs, ``l4`` their (n, bands) radiance
    and ``rho`` their truth reflectance or None.
    """
    coords = sample_coords(cube.rows, cube.cols, n_pixels, seed)
    rho = truth.rho[coords[:, 0], coords[:, 1]] if truth is not None else None
    return coords, cube.data[coords[:, 0], coords[:, 1]], rho


def synth_reference(spec: SynthSpec, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(radiance, reflectance) of ``synth_scene``'s formula, each a C-ordered (rows, cols, bands) array.

    The same draws in the same order, with the arithmetic written whole-array:
    rho = weights @ members, then c + (m * exp(-2*alpha)) * rho, then
    clean * (1 + noise_std * N) with the noise drawn at once, then the floor at 0.
    """
    rng = np.random.default_rng(seed)
    wl = np.linspace(spec.wl_start_nm, spec.wl_end_nm, spec.n_bands)
    alpha = np.full(spec.n_bands, spec.baseline_alpha, dtype=float)
    for center, width, depth in spec.absorption_bands:
        alpha += depth * np.exp(-0.5 * ((wl - center) / width) ** 2)
    members = _endmembers(spec, rng)
    weights = rng.dirichlet(np.ones(spec.n_materials), size=(spec.rows, spec.cols))
    rho = weights @ members
    if spec.cols >= 2:
        rho[0, 0] = 0.0
        rho[0, 1] = 1.0
    c = spec.dark_level * (0.8 + 0.4 * rng.random(spec.n_bands))
    clean = c + spec.illumination * np.exp(-2.0 * alpha) * rho
    if spec.noise_std > 0:
        clean = clean * (1.0 + spec.noise_std * rng.standard_normal(clean.shape))
    return np.maximum(clean, 0.0), rho
