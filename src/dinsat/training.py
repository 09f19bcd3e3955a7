"""Loss functions, the optimization loop, convergence, and ensembles."""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import autodiff as ad
from .correction import (
    SceneNormalization,
    correct_batch,
    corrected_reflectance,
    simulate_values,
)
from .errors import (
    ConfigError,
    DinsatError,
    EmptyInputError,
    InvalidDatasetError,
    NumericError,
    ShapeError,
)
from .ode import SolverConfig
from .optim import AdamState, adam_step
from .transmission import (
    LinearProfile,
    NonlinearProfile,
    Profile,
    transmittance_values,
)
from .types import DatasetSplit, Spectrum, percent_mse, split_dataset

MODES = ("supervised", "unsupervised")
MODEL_KINDS = ("linear", "nonlinear")

SUPERVISED_FRACTIONS = (0.24, 0.06, 0.70)
# 87/25 train/test out of 112 unlabeled pixels.
UNSUPERVISED_FRACTIONS = (87.0 / 112.0, 0.0, 25.0 / 112.0)


@dataclass(frozen=True)
class TrainConfig:
    mode: str = "supervised"
    model_kind: str = "linear"
    lr: float = 0.01
    fd_weight: float = 1.0  # lambda in the supervised loss
    rho_weight: float = 1e-2  # lambda_1 in the unsupervised loss
    transmission_weight: float = 1e-2  # lambda_2
    slope_weight: float = 1.0  # lambda_3
    max_epochs: int = 5000
    patience: int = 50
    rel_tol: float = 1e-4
    seed: int = 0
    solver: SolverConfig = field(default_factory=SolverConfig)
    split_fractions: Optional[tuple[float, float, float]] = None
    hidden: int = 12
    latent: int = 3

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown training mode: {self.mode!r}")
        if self.model_kind not in MODEL_KINDS:
            raise ConfigError(f"unknown model kind: {self.model_kind!r}")
        if self.lr <= 0:
            raise ConfigError("learning rate must be positive")
        for name in ("fd_weight", "rho_weight", "transmission_weight", "slope_weight"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be nonnegative")
        if self.patience < 1:
            raise ConfigError("patience must be at least 1")
        if self.max_epochs < 1:
            raise ConfigError("max_epochs must be at least 1")

    @property
    def fractions(self) -> tuple[float, float, float]:
        if self.split_fractions is not None:
            return self.split_fractions
        return SUPERVISED_FRACTIONS if self.mode == "supervised" else UNSUPERVISED_FRACTIONS


@dataclass
class TrainRun:
    config: TrainConfig
    split: DatasetSplit
    history: list[dict]
    params: np.ndarray
    converged: bool
    wall_time: float
    epochs: int

    def model(self, n_bands: int) -> Profile:
        return build_model(self.config, n_bands, self.config.seed).with_params(self.params)


def build_model(config: TrainConfig, n_bands: int, seed: int) -> Profile:
    rng = np.random.default_rng(seed)
    if config.model_kind == "linear":
        return LinearProfile.initialize(n_bands, rng)
    return NonlinearProfile.initialize(n_bands, rng, config.hidden, config.latent)


def _fd_terms(rho_hat):
    return rho_hat[:, 1:] - rho_hat[:, :-1]


def _pixel_arrays(l4, rho=None):
    """``l4`` and ``rho`` as float (n, bands) arrays.

    Raises ShapeError when ``l4`` is not 2-D, when either holds a non-finite
    value, or when ``rho`` (None allowed) does not have the shape of ``l4``.
    """
    l4 = np.asarray(l4, float)
    if l4.ndim != 2:
        raise ShapeError(f"radiance must be an (n, bands) array, got shape {l4.shape}")
    if rho is not None:
        rho = np.asarray(rho, float)
        if rho.shape != l4.shape:
            raise ShapeError(f"truth reflectance has shape {rho.shape}, radiance {l4.shape}")
    for name, values in (("radiance", l4), ("truth reflectance", rho)):
        if values is not None and not np.all(np.isfinite(values)):
            raise ShapeError(f"{name} must be finite")
    return l4, rho


def supervised_loss_terms(
    model: Profile,
    norm: SceneNormalization,
    l4: np.ndarray,
    rho: np.ndarray,
    solver: SolverConfig,
    fd_weight: float,
    params=None,
):
    """(loss, components): L = L_MSE + lambda * L_FD over paired (n, bands) pixels."""
    if len(l4) == 0:
        raise EmptyInputError("supervised loss needs at least one pixel")
    if params is None:
        params = model.params
    rho_hat = corrected_reflectance(model, params, norm, l4, solver)
    err = rho_hat - rho
    l_mse = ad.mean(err * err)
    diff_err = _fd_terms(rho_hat) - (rho[:, 1:] - rho[:, :-1])
    l_fd = ad.mean(diff_err * diff_err)
    loss = l_mse + fd_weight * l_fd
    return loss, {"mse": float(ad.value_of(l_mse)), "fd": float(ad.value_of(l_fd))}


def supervised_loss(
    model: Profile,
    norm: SceneNormalization,
    l4: np.ndarray,
    rho: np.ndarray,
    solver: SolverConfig = SolverConfig(),
    fd_weight: float = 1.0,
    params=None,
):
    return supervised_loss_terms(model, norm, l4, rho, solver, fd_weight, params)[0]


def unsupervised_loss_terms(
    model: Profile,
    norm: SceneNormalization,
    l4: np.ndarray,
    solver: SolverConfig,
    rho_weight: float,
    transmission_weight: float,
    slope_weight: float,
    params=None,
):
    """(loss, components): L = l1*mean(rho) + l2*mean(T(1)) + l3*mean(|d rho|)."""
    if len(l4) == 0:
        raise EmptyInputError("unsupervised loss needs at least one pixel")
    if params is None:
        params = model.params
    t1 = transmittance_values(model, params, solver)
    rho_hat = corrected_reflectance(model, params, norm, l4, solver, transmittance=t1)
    l_rho = ad.mean(rho_hat)
    l_t = ad.mean(t1)
    l_fd = ad.mean(ad.absolute(_fd_terms(rho_hat)))
    loss = rho_weight * l_rho + transmission_weight * l_t + slope_weight * l_fd
    return loss, {
        "rho": float(ad.value_of(l_rho)),
        "transmission": float(ad.value_of(l_t)),
        "fd": float(ad.value_of(l_fd)),
    }


def unsupervised_loss(
    model: Profile,
    norm: SceneNormalization,
    l4: np.ndarray,
    solver: SolverConfig = SolverConfig(),
    rho_weight: float = 1e-2,
    transmission_weight: float = 1e-2,
    slope_weight: float = 1.0,
    params=None,
):
    return unsupervised_loss_terms(
        model, norm, l4, solver, rho_weight, transmission_weight, slope_weight, params
    )[0]


def _loss_terms(config: TrainConfig, model, norm, l4, rho, params=None):
    if config.mode == "supervised":
        return supervised_loss_terms(
            model, norm, l4, rho, config.solver, config.fd_weight, params
        )
    return unsupervised_loss_terms(
        model,
        norm,
        l4,
        config.solver,
        config.rho_weight,
        config.transmission_weight,
        config.slope_weight,
        params,
    )


def train(
    config: TrainConfig,
    l4: np.ndarray,
    norm: SceneNormalization,
    rho: Optional[np.ndarray] = None,
    split: Optional[DatasetSplit] = None,
    split_seed: Optional[int] = None,
) -> TrainRun:
    """Full-batch Adam until convergence; returns the best-monitored parameters.

    ``l4`` holds (n, bands) radiance; supervised training needs the paired ``rho``.
    """
    started = time.perf_counter()
    if np.size(l4) == 0:
        raise InvalidDatasetError("training needs at least one pixel sample")
    l4, rho = _pixel_arrays(l4, rho)
    if config.mode == "supervised" and rho is None:
        raise InvalidDatasetError("supervised training needs truth reflectance")
    if split is None:
        split = split_dataset(
            len(l4),
            config.fractions,
            config.seed if split_seed is None else split_seed,
        )
    train_idx = np.asarray(split.train, dtype=int)
    val_idx = np.asarray(split.val, dtype=int)
    if len(train_idx) == 0:
        raise InvalidDatasetError("training split is empty")
    if config.mode == "unsupervised" and len(train_idx) < 2:
        raise InvalidDatasetError("unsupervised training needs at least 2 pixels")
    train_data = (l4[train_idx], None if rho is None else rho[train_idx])
    val_data = (l4[val_idx], None if rho is None else rho[val_idx])

    model = build_model(config, l4.shape[1], config.seed)
    params = model.params.copy()
    adam = AdamState(lr=config.lr)

    # Early stopping monitors validation loss when a validation split exists,
    # the training loss otherwise (the unsupervised mode has no val split).
    monitor_train = len(val_idx) == 0

    best = np.inf
    best_params = params.copy()
    stale = 0
    converged = False
    history: list[dict] = []

    for epoch in range(config.max_epochs):
        tape = ad.Tape()
        pvar = tape.leaf(params)
        try:
            loss, components = _loss_terms(config, model, norm, *train_data, pvar)
        except NumericError as e:
            raise NumericError(f"epoch {epoch}: {e}") from e
        train_loss = float(ad.value_of(loss))
        if not np.isfinite(train_loss):
            raise NumericError(f"non-finite training loss at epoch {epoch}")
        ad.backward(loss)
        params = adam_step(adam, params, pvar.grad)
        # Every Var holds its tape and the tape holds every Var: drop the
        # nodes so the epoch's graph is freed now, not by the cyclic GC.
        tape.nodes.clear()

        if monitor_train:
            monitor = train_loss
            record = {"epoch": epoch, "train_loss": train_loss, **components}
        else:
            val_loss = float(
                ad.value_of(_loss_terms(config, model, norm, *val_data, params)[0])
            )
            monitor = val_loss
            record = {
                "epoch": epoch,
                "train_loss": train_loss,
                "val_loss": val_loss,
                **components,
            }
        history.append(record)

        if monitor < best * (1.0 - config.rel_tol):
            best = monitor
            best_params = params.copy()
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                converged = True
                break

    return TrainRun(
        config=config,
        split=split,
        history=history,
        params=best_params,
        converged=converged,
        wall_time=time.perf_counter() - started,
        epochs=len(history),
    )


@dataclass
class EnsembleResult:
    runs: list[Optional[TrainRun]]
    failures: list[tuple[int, str]]
    transmittance_mean: np.ndarray
    transmittance_std: np.ndarray
    roi_reflectance_mean: np.ndarray
    roi_reflectance_std: np.ndarray

    @property
    def completed(self) -> list[TrainRun]:
        return [r for r in self.runs if r is not None]


def _member_config(config: TrainConfig, i: int) -> TrainConfig:
    return replace(config, seed=config.seed + i)


def _run_member(args) -> TrainRun:
    config, l4, rho, norm, reshuffle, i = args
    member = _member_config(config, i)
    # With reshuffle off, every member shares the base seed's split.
    split_seed = member.seed if reshuffle else config.seed
    return train(member, l4, norm, rho, split_seed=split_seed)


def default_workers() -> int:
    try:
        return max(1, int(os.environ.get("DINSAT_THREADS", "1")))
    except ValueError:
        return 1


def ensemble(
    config: TrainConfig,
    l4: np.ndarray,
    norm: SceneNormalization,
    n_runs: int,
    rho: Optional[np.ndarray] = None,
    reshuffle: bool = True,
    workers: Optional[int] = None,
) -> EnsembleResult:
    """Independent seeded runs plus per-band aggregate statistics over all of ``l4``."""
    if n_runs < 1:
        raise ConfigError("ensemble needs at least one run")
    l4, rho = _pixel_arrays(l4, rho)
    workers = default_workers() if workers is None else max(1, workers)
    jobs = [(config, l4, rho, norm, reshuffle, i) for i in range(n_runs)]

    runs: list[Optional[TrainRun]] = [None] * n_runs
    failures: list[tuple[int, str]] = []
    if workers > 1 and n_runs > 1:
        with ProcessPoolExecutor(max_workers=min(workers, n_runs)) as pool:
            futures = [pool.submit(_run_member, job) for job in jobs]
            for i, fut in enumerate(futures):
                try:
                    runs[i] = fut.result()
                except DinsatError as e:
                    failures.append((i, str(e)))
    else:
        for i, job in enumerate(jobs):
            try:
                runs[i] = _run_member(job)
            except DinsatError as e:
                failures.append((i, str(e)))

    completed = [r for r in runs if r is not None]
    if not completed:
        raise NumericError("all ensemble members failed")

    t_stack = []
    roi_stack = []
    for run in completed:
        model = run.model(l4.shape[1])
        t1 = ad.value_of(transmittance_values(model, model.params, config.solver))
        t_stack.append(t1)
        rho_hat = ad.value_of(
            corrected_reflectance(model, model.params, norm, l4, config.solver, transmittance=t1)
        )
        roi_stack.append(rho_hat.mean(axis=0))
    t_stack = np.stack(t_stack)
    roi_stack = np.stack(roi_stack)
    return EnsembleResult(
        runs=runs,
        failures=failures,
        transmittance_mean=t_stack.mean(axis=0),
        transmittance_std=t_stack.std(axis=0),
        roi_reflectance_mean=roi_stack.mean(axis=0),
        roi_reflectance_std=roi_stack.std(axis=0),
    )


def evaluate(
    model: Profile,
    norm: SceneNormalization,
    l4: np.ndarray,
    solver: SolverConfig = SolverConfig(),
    rho: Optional[np.ndarray] = None,
    library: Optional[Spectrum] = None,
) -> dict:
    """Percent-MSE metrics in both directions over an ROI's (n, bands) pixels ``l4``.

    ``rho`` is their truth reflectance; a missing input omits its metric.
    """
    metrics: dict = {"warnings": []}
    if np.size(l4) == 0:
        metrics["warnings"].append("no samples provided; no metrics computed")
        return metrics

    l4, rho = _pixel_arrays(l4, rho)
    rho_hat, _ = correct_batch(model, norm, l4, solver)
    if rho is not None:
        metrics["reflectance_percent_mse"] = percent_mse(rho_hat.mean(axis=0), rho.mean(axis=0))
    else:
        metrics["warnings"].append(
            "samples lack truth reflectance; reflectance metric omitted"
        )

    if library is not None:
        simulated = ad.value_of(
            simulate_values(model, model.params, norm, library.values, solver)
        )
        observed = l4.mean(axis=0)
        # Both sides normalized by m before comparing, keeping the metric
        # dimensionless regardless of the scene's radiometric scale.
        metrics["radiance_percent_mse"] = percent_mse(simulated / norm.m, observed / norm.m)
    else:
        metrics["warnings"].append("no library spectrum; radiance metric omitted")
    return metrics
