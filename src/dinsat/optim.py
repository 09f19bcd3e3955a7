"""Adam optimizer over a flat parameter vector."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, NumericError, ShapeError

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    """The learning rate and the step count and moment estimates ``adam_step`` keeps."""

    lr: float = 0.01
    t: int = field(default=0, init=False)
    m: Optional[np.ndarray] = field(default=None, init=False, repr=False)
    v: Optional[np.ndarray] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if not (self.lr > 0 and math.isfinite(self.lr)):
            raise ConfigError(f"learning rate must be positive and finite, got {self.lr}")


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
    state.m = BETA1 * state.m + (1.0 - BETA1) * grads
    state.v = BETA2 * state.v + (1.0 - BETA2) * grads * grads
    m_hat = state.m / (1.0 - BETA1**state.t)
    v_hat = state.v / (1.0 - BETA2**state.t)
    return params - state.lr * m_hat / (np.sqrt(v_hat) + EPS)
