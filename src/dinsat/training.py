"""Loss functions, the optimization loop, convergence, and ensembles."""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import autodiff as ad
from .correction import (
    EPS_T,
    SceneNormalization,
    correct_batch,
    corrected_reflectance,
    normalized_radiance,
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
    invert_values,
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
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")

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


# The loss heads. Each is one tape node over (T^-1(z), T(1)) of (n, bands)
# pixels: it forms rho_hat = T^-1(z) / max(T(1), EPS_T), the loss and its
# components in numpy, and its VJP returns both cotangents in numpy.


def _reflectance(l2, t1):
    """(rho_hat, max(T(1), EPS_T), T(1)) as plain arrays."""
    tv = ad.value_of(t1)
    denom = np.maximum(tv, EPS_T)
    return ad.value_of(l2) / denom, denom, tv


def _reflectance_vjp(g_rho, rho_hat, denom, tv, g_t):
    """Cotangents of (T^-1(z), T(1)) from rho_hat's, plus ``g_t`` from T(1)'s direct use."""
    g_l2 = g_rho / denom
    # The floor passes no gradient to a band whose T(1) is at or below EPS_T.
    return g_l2, g_t - (g_l2 * rho_hat).sum(axis=0) * (tv > EPS_T)


def _slope_vjp(g_rho, g_slope):
    """Add the cotangent of rho_hat[:, 1:] - rho_hat[:, :-1] into ``g_rho``."""
    g_rho[:, 1:] += g_slope
    g_rho[:, :-1] -= g_slope
    return g_rho


def _supervised_head(l2, t1, rho, fd_weight):
    """(loss, components): L_MSE + fd_weight * L_FD of rho_hat against ``rho``."""
    rho_hat, denom, tv = _reflectance(l2, t1)
    err = rho_hat - rho
    diff_err = (rho_hat[:, 1:] - rho_hat[:, :-1]) - (rho[:, 1:] - rho[:, :-1])
    l_mse = (err * err).mean()
    l_fd = (diff_err * diff_err).mean()
    loss = l_mse + fd_weight * l_fd

    def vjp(g):
        g_rho = _slope_vjp(err * (2.0 * g / err.size), diff_err * (2.0 * g * fd_weight / diff_err.size))
        return _reflectance_vjp(g_rho, rho_hat, denom, tv, 0.0)

    return ad.node(np.asarray(loss), (l2, t1), vjp), {"mse": float(l_mse), "fd": float(l_fd)}


def _unsupervised_head(l2, t1, rho_weight, transmission_weight, slope_weight):
    """(loss, components): l1 * mean(rho_hat) + l2 * mean(T(1)) + l3 * mean(|d rho_hat|)."""
    rho_hat, denom, tv = _reflectance(l2, t1)
    slope = rho_hat[:, 1:] - rho_hat[:, :-1]
    l_rho, l_t, l_fd = rho_hat.mean(), tv.mean(), np.abs(slope).mean()
    loss = rho_weight * l_rho + transmission_weight * l_t + slope_weight * l_fd

    def vjp(g):
        g_rho = np.full(rho_hat.shape, g * rho_weight / rho_hat.size)
        _slope_vjp(g_rho, np.sign(slope) * (g * slope_weight / slope.size))
        g_t = np.full(tv.shape, g * transmission_weight / tv.size)
        return _reflectance_vjp(g_rho, rho_hat, denom, tv, g_t)

    components = {"rho": float(l_rho), "transmission": float(l_t), "fd": float(l_fd)}
    return ad.node(np.asarray(loss), (l2, t1), vjp), components


def _transmit_terms(model: Profile, params, z, solver: SolverConfig):
    """(T(1), T^-1(z)) for ``params``, traced when they are."""
    t1 = transmittance_values(model, params, solver)
    return t1, invert_values(model, params, z, solver, transmittance=t1)


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
    params = model.params if params is None else params
    t1, l2 = _transmit_terms(model, params, normalized_radiance(norm, l4), solver)
    return _supervised_head(l2, t1, np.asarray(rho, float), fd_weight)


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
    params = model.params if params is None else params
    t1, l2 = _transmit_terms(model, params, normalized_radiance(norm, l4), solver)
    return _unsupervised_head(l2, t1, rho_weight, transmission_weight, slope_weight)


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


def _loss_terms(config: TrainConfig, model, z, rho, params):
    """(loss, components) of ``config``'s mode over normalized (n, bands) radiance ``z``."""
    t1, l2 = _transmit_terms(model, params, z, config.solver)
    if config.mode == "supervised":
        return _supervised_head(l2, t1, rho, config.fd_weight)
    return _unsupervised_head(
        l2, t1, config.rho_weight, config.transmission_weight, config.slope_weight
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
    # z does not depend on the parameters, so it is computed once, not per epoch.
    z = normalized_radiance(norm, l4)
    train_data = (z[train_idx], None if rho is None else rho[train_idx])
    val_data = (z[val_idx], None if rho is None else rho[val_idx])

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
            loss, components = _loss_terms(config, model, *train_data, pvar)
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
            val_loss = float(_loss_terms(config, model, *val_data, params)[0])
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
    """Each member's run, T(1) and ROI-mean reflectance (None where it failed), and their statistics."""

    runs: list[Optional[TrainRun]]
    failures: list[tuple[int, DinsatError]]
    transmittances: list[Optional[np.ndarray]]
    roi_reflectances: list[Optional[np.ndarray]]
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


def ensemble(
    config: TrainConfig,
    l4: np.ndarray,
    norm: SceneNormalization,
    n_runs: int,
    rho: Optional[np.ndarray] = None,
    reshuffle: bool = True,
    workers: int = 1,
) -> EnsembleResult:
    """Independent seeded runs plus per-band aggregate statistics over all of ``l4``.

    With ``workers`` above 1 the members run in that many processes.
    """
    if n_runs < 1:
        raise ConfigError("ensemble needs at least one run")
    l4, rho = _pixel_arrays(l4, rho)
    jobs = [(config, l4, rho, norm, reshuffle, i) for i in range(n_runs)]

    runs: list[Optional[TrainRun]] = [None] * n_runs
    failures: list[tuple[int, DinsatError]] = []
    if workers > 1 and n_runs > 1:
        with ProcessPoolExecutor(max_workers=min(workers, n_runs)) as pool:
            futures = [pool.submit(_run_member, job) for job in jobs]
            for i, fut in enumerate(futures):
                try:
                    runs[i] = fut.result()
                except DinsatError as e:
                    failures.append((i, e))
    else:
        for i, job in enumerate(jobs):
            try:
                runs[i] = _run_member(job)
            except DinsatError as e:
                failures.append((i, e))

    completed = [r for r in runs if r is not None]
    if not completed:
        reasons = "; ".join(f"run {i}: {e}" for i, e in failures)
        raise type(failures[0][1])(f"all ensemble members failed: {reasons}")

    transmittances: list[Optional[np.ndarray]] = [None] * n_runs
    roi_reflectances: list[Optional[np.ndarray]] = [None] * n_runs
    for i, run in enumerate(runs):
        if run is None:
            continue
        model = run.model(l4.shape[1])
        t1 = transmittance_values(model, model.params, config.solver)
        transmittances[i] = t1
        roi_reflectances[i] = corrected_reflectance(model, norm, l4, config.solver, t1).mean(axis=0)
    t_stack = np.stack([t for t in transmittances if t is not None])
    roi_stack = np.stack([r for r in roi_reflectances if r is not None])
    return EnsembleResult(
        runs=runs,
        failures=failures,
        transmittances=transmittances,
        roi_reflectances=roi_reflectances,
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
        simulated = simulate_values(model, norm, library.values, solver)
        observed = l4.mean(axis=0)
        # Both sides normalized by m before comparing, keeping the metric
        # dimensionless regardless of the scene's radiometric scale.
        metrics["radiance_percent_mse"] = percent_mse(simulated / norm.m, observed / norm.m)
    else:
        metrics["warnings"].append("no library spectrum; radiance metric omitted")
    return metrics
