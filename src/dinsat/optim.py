"""Adam optimizer over a flat parameter vector."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, NumericError, ShapeError


@dataclass
class AdamState:
    lr: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: Optional[np.ndarray] = field(default=None, repr=False)
    v: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self):
        if not (self.lr > 0 and math.isfinite(self.lr)):
            raise ConfigError(f"learning rate must be positive and finite, got {self.lr}")
        if self.t < 0:
            raise ConfigError("step count must be nonnegative")


def adam_step(state: AdamState, params: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """One bias-corrected Adam update; mutates state, returns new parameters."""
    params = np.asarray(params, float)
    grads = np.asarray(grads, float)
    if params.shape != grads.shape:
        raise ShapeError(f"params {params.shape} vs grads {grads.shape}")
    if not np.all(np.isfinite(grads)):
        raise NumericError("non-finite gradient; aborting optimizer step")
    if state.m is None:
        state.m = np.zeros_like(params)
        state.v = np.zeros_like(params)
    if state.m.shape != params.shape:
        raise ShapeError("optimizer state shaped for a different parameter vector")

    state.t += 1
    state.m = state.beta1 * state.m + (1.0 - state.beta1) * grads
    state.v = state.beta2 * state.v + (1.0 - state.beta2) * grads * grads
    m_hat = state.m / (1.0 - state.beta1**state.t)
    v_hat = state.v / (1.0 - state.beta2**state.t)
    return params - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
