"""Loss functions, the optimization loop, convergence, and ensembles."""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from .correction import (
    SceneNormalization,
    corrected_reflectance,
    simulate_values,
)
from .errors import (
    ConfigError,
    DinsatError,
    EmptyInputError,
    InvalidDatasetError,
    NumericError,
)
from .ode import SolverConfig
from .optim import AdamState, adam_step
from .transmission import (
    LinearProfile,
    NonlinearProfile,
    Profile,
    transmittance_values,
)
from .types import (
    DatasetSplit,
    PixelSample,
    Spectrum,
    percent_mse,
    roi_mean_spectrum,
    split_dataset,
    stack_l4,
    stack_truth,
)

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


def supervised_loss_terms(
    model: Profile,
    norm: SceneNormalization,
    samples: Sequence[PixelSample],
    solver: SolverConfig,
    fd_weight: float,
    params=None,
):
    """(loss, components): L = L_MSE + lambda * L_FD over paired pixels."""
    if len(samples) == 0:
        raise EmptyInputError("supervised loss needs at least one pixel")
    l4 = stack_l4(samples)
    rho = stack_truth(samples)
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
    samples: Sequence[PixelSample],
    solver: SolverConfig = SolverConfig(),
    fd_weight: float = 1.0,
    params=None,
):
    return supervised_loss_terms(model, norm, samples, solver, fd_weight, params)[0]


def unsupervised_loss_terms(
    model: Profile,
    norm: SceneNormalization,
    samples: Sequence[PixelSample],
    solver: SolverConfig,
    rho_weight: float,
    transmission_weight: float,
    slope_weight: float,
    params=None,
):
    """(loss, components): L = l1*mean(rho) + l2*mean(T(1)) + l3*mean(|d rho|)."""
    if len(samples) == 0:
        raise EmptyInputError("unsupervised loss needs at least one pixel")
    l4 = stack_l4(samples)
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
    samples: Sequence[PixelSample],
    solver: SolverConfig = SolverConfig(),
    rho_weight: float = 1e-2,
    transmission_weight: float = 1e-2,
    slope_weight: float = 1.0,
    params=None,
):
    return unsupervised_loss_terms(
        model, norm, samples, solver, rho_weight, transmission_weight, slope_weight, params
    )[0]


def _loss_terms(config: TrainConfig, model, norm, samples, params=None):
    if config.mode == "supervised":
        return supervised_loss_terms(
            model, norm, samples, config.solver, config.fd_weight, params
        )
    return unsupervised_loss_terms(
        model,
        norm,
        samples,
        config.solver,
        config.rho_weight,
        config.transmission_weight,
        config.slope_weight,
        params,
    )


def train(
    config: TrainConfig,
    samples: Sequence[PixelSample],
    norm: SceneNormalization,
    split: Optional[DatasetSplit] = None,
    split_seed: Optional[int] = None,
) -> TrainRun:
    """Full-batch Adam until convergence; returns the best-monitored parameters."""
    started = time.perf_counter()
    samples = list(samples)
    if not samples:
        raise InvalidDatasetError("training needs at least one pixel sample")
    if split is None:
        split = split_dataset(
            len(samples),
            config.fractions,
            config.seed if split_seed is None else split_seed,
        )
    train_samples = [samples[i] for i in split.train]
    val_samples = [samples[i] for i in split.val]
    if len(train_samples) == 0:
        raise InvalidDatasetError("training split is empty")
    if config.mode == "supervised":
        for s in train_samples + val_samples:
            if s.truth_rho is None:
                raise InvalidDatasetError("supervised training needs truth reflectance")
    elif len(train_samples) < 2:
        raise InvalidDatasetError("unsupervised training needs at least 2 pixels")

    n_bands = train_samples[0].l4.n_bands
    model = build_model(config, n_bands, config.seed)
    params = model.params.copy()
    adam = AdamState(lr=config.lr)

    # Early stopping monitors validation loss when a validation split exists,
    # the training loss otherwise (the unsupervised mode has no val split).
    monitor_samples = val_samples if val_samples else train_samples

    best = np.inf
    best_params = params.copy()
    stale = 0
    converged = False
    history: list[dict] = []

    for epoch in range(config.max_epochs):
        tape = ad.Tape()
        pvar = tape.leaf(params)
        try:
            loss, components = _loss_terms(config, model, norm, train_samples, pvar)
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

        if monitor_samples is train_samples:
            monitor = train_loss
            record = {"epoch": epoch, "train_loss": train_loss, **components}
        else:
            val_loss = float(
                ad.value_of(_loss_terms(config, model, norm, monitor_samples, params)[0])
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
    config, samples, norm, reshuffle, i = args
    member = _member_config(config, i)
    # With reshuffle off, every member shares the base seed's split.
    split_seed = member.seed if reshuffle else config.seed
    return train(member, samples, norm, split_seed=split_seed)


def default_workers() -> int:
    try:
        return max(1, int(os.environ.get("DINSAT_THREADS", "1")))
    except ValueError:
        return 1


def ensemble(
    config: TrainConfig,
    samples: Sequence[PixelSample],
    norm: SceneNormalization,
    n_runs: int,
    reshuffle: bool = True,
    workers: Optional[int] = None,
) -> EnsembleResult:
    """Independent seeded runs plus per-band aggregate statistics."""
    if n_runs < 1:
        raise ConfigError("ensemble needs at least one run")
    samples = list(samples)
    workers = default_workers() if workers is None else max(1, workers)
    jobs = [(config, samples, norm, reshuffle, i) for i in range(n_runs)]

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

    n_bands = samples[0].l4.n_bands
    t_stack = []
    roi_stack = []
    for run in completed:
        model = run.model(n_bands)
        t1 = ad.value_of(transmittance_values(model, model.params, config.solver))
        t_stack.append(t1)
        rho = ad.value_of(
            corrected_reflectance(
                model, model.params, norm, stack_l4(samples), config.solver, transmittance=t1
            )
        )
        roi_stack.append(rho.mean(axis=0))
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
    samples: Sequence[PixelSample],
    solver: SolverConfig = SolverConfig(),
    library: Optional[Spectrum] = None,
) -> dict:
    """Percent-MSE metrics in both directions; missing inputs omit a metric."""
    from .correction import correct_batch

    metrics: dict = {"warnings": []}
    if len(samples) == 0:
        metrics["warnings"].append("no samples provided; no metrics computed")
        return metrics

    rho_hat, _ = correct_batch(model, norm, stack_l4(samples), solver)
    roi_hat = rho_hat.mean(axis=0)
    if all(s.truth_rho is not None for s in samples):
        truth_mean = roi_mean_spectrum(samples, "truth_rho").values
        metrics["reflectance_percent_mse"] = percent_mse(roi_hat, truth_mean)
    else:
        metrics["warnings"].append(
            "samples lack truth reflectance; reflectance metric omitted"
        )

    if library is not None:
        simulated = ad.value_of(
            simulate_values(model, model.params, norm, library.values, solver)
        )
        observed = roi_mean_spectrum(samples, "l4").values
        # Both sides normalized by m before comparing, keeping the metric
        # dimensionless regardless of the scene's radiometric scale.
        metrics["radiance_percent_mse"] = percent_mse(simulated / norm.m, observed / norm.m)
    else:
        metrics["warnings"].append("no library spectrum; radiance metric omitted")
    return metrics
