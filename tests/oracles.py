"""The tests' oracles: central differences, complex step and the composed MLP."""

from typing import Callable

import numpy as np

from dinsat.errors import ShapeError
from dinsat.mlp import MlpLayout, layers_forward, unpack_params

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
