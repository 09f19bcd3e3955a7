"""Tunable, invertible, dissipative ODE surrogate of atmospheric transmission."""

from .correction import (
    SceneNormalization,
    correct_pixel,
    estimate_dark_offset,
    estimate_normalization,
    estimate_scale,
    simulate_at_sensor,
)
from .ode import SolverConfig, ode_solve, ode_solve_reverse
from .synth import SynthSpec, sample_pixels, synth_scene
from .training import (
    TrainConfig,
    TrainRun,
    ensemble,
    evaluate,
    supervised_loss,
    train,
    unsupervised_loss,
)
from .transmission import (
    LinearProfile,
    NonlinearProfile,
    invert_transmit,
    transmit,
    transmittance_spectrum,
)
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
    "correct_pixel",
    "ensemble",
    "estimate_dark_offset",
    "estimate_normalization",
    "estimate_scale",
    "evaluate",
    "invert_transmit",
    "ode_solve",
    "ode_solve_reverse",
    "percent_mse",
    "sample_pixels",
    "simulate_at_sensor",
    "split_dataset",
    "supervised_loss",
    "synth_scene",
    "train",
    "transmit",
    "transmittance_spectrum",
    "unsupervised_loss",
]

__version__ = "0.1.0"
