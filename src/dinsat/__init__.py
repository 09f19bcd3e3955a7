"""Tunable, invertible, dissipative ODE surrogate of atmospheric transmission."""

from .correction import (
    SceneNormalization,
    correct_batch,
    estimate_normalization,
    simulate_values,
)
from .ode import SolverConfig, ode_solve
from .synth import SynthSpec, synth_scene
from .training import (
    TrainConfig,
    TrainRun,
    ensemble,
    evaluate_regions,
    loss,
    train,
)
from .transmission import LinearProfile, NonlinearProfile
from .types import (
    DatasetSplit,
    HyperCube,
    Spectrum,
    WavelengthGrid,
    percent_mse,
    split_dataset,
)

__all__ = [
    "DatasetSplit",
    "HyperCube",
    "LinearProfile",
    "NonlinearProfile",
    "SceneNormalization",
    "SolverConfig",
    "Spectrum",
    "SynthSpec",
    "TrainConfig",
    "TrainRun",
    "WavelengthGrid",
    "correct_batch",
    "ensemble",
    "estimate_normalization",
    "evaluate_regions",
    "loss",
    "ode_solve",
    "percent_mse",
    "simulate_values",
    "split_dataset",
    "synth_scene",
    "train",
]

__version__ = "0.1.0"
