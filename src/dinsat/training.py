"""The training loss, full-batch Adam with early stopping, seeded ensembles, and evaluation.

``loss`` is the forward half of ``_loss_terms``, which ``train`` steps on; both
take the mode and the loss weights from a ``TrainConfig``, and T(1) and
T^-1(z) from one profile call (``t1_and_inverse`` and ``inverse_vjp``), so
neither branches on the model's kind. A nonlinear epoch thus runs two
solves: one ``ode.solve_vjp`` of [1; z] for the training loss with its
pullback, and one plain solve of [1; z] for the validation loss. An error in
either, or in the Adam step, names its epoch. A run's split comes from
``split_dataset`` and its initial model from ``config.seed``; ``train``
keeps the model that its least monitored loss was measured on. A trained run's
T(1) is its ``model.t1``, and ``dinsat report`` computes the ensemble's
per-band statistics from the run records.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .correction import (
    EPS_T,
    SceneNormalization,
    correct_batch,
    normalized_radiance,
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
    DEFAULT_HIDDEN,
    DEFAULT_LATENT,
    LinearProfile,
    NonlinearProfile,
    Profile,
)
# Not called here since the loss takes T(1) from model.t1_and_inverse; the name
# stays because bench/traced_cli.py wraps it in this module.
from .transmission import transmittance_values  # noqa: F401
from .types import DatasetSplit, check_split_fractions, percent_mse, split_dataset

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
    hidden: int = DEFAULT_HIDDEN
    latent: int = DEFAULT_LATENT

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown training mode: {self.mode!r}")
        if self.model_kind not in MODEL_KINDS:
            raise ConfigError(f"unknown model kind: {self.model_kind!r}")
        # Each comparison below is also false for nan.
        if not (self.lr > 0 and math.isfinite(self.lr)):
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")
        for name in ("fd_weight", "rho_weight", "transmission_weight", "slope_weight"):
            value = getattr(self, name)
            if not (value >= 0 and math.isfinite(value)):
                raise ConfigError(f"{name} must be nonnegative and finite, got {value}")
        if not 0 <= self.rel_tol < 1:
            raise ConfigError(f"rel_tol must be in [0, 1), got {self.rel_tol}")
        check_split_fractions(self.fractions)
        if self.patience < 1:
            raise ConfigError("patience must be at least 1")
        if self.max_epochs < 1:
            raise ConfigError("max_epochs must be at least 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.hidden < 1 or self.latent < 1:
            raise ConfigError(f"hidden and latent must be at least 1, got {self.hidden} and {self.latent}")

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
    model: Profile  # at the parameters of the least monitored loss
    converged: bool
    wall_time: float
    roi_reflectance: np.ndarray  # the model's mean corrected reflectance over all of l4

    @property
    def epochs(self) -> int:
        return len(self.history)


def build_model(config: TrainConfig, n_bands: int) -> Profile:
    """An initial profile of ``config``'s kind, drawn from ``config.seed``, with ``config.solver``."""
    rng = np.random.default_rng(config.seed)
    if config.model_kind == "linear":
        model = LinearProfile.initialize(n_bands, rng)
    else:
        model = NonlinearProfile.initialize(n_bands, rng, config.hidden, config.latent)
    return replace(model, solver=config.solver)


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


# The loss heads. Each takes (T^-1(z), T(1)) of (n, bands) pixels, forms
# rho_hat = T^-1(z) / max(T(1), EPS_T), and returns the loss, its components
# and a vjp() that gives the loss's cotangents of (T^-1(z), T(1)), all in numpy.


def _reflectance(l2, t1):
    """(rho_hat, max(T(1), EPS_T))."""
    denom = np.maximum(t1, EPS_T)
    return l2 / denom, denom


def _reflectance_vjp(g_rho, rho_hat, denom, t1, g_t):
    """Cotangents of (T^-1(z), T(1)) from rho_hat's, plus ``g_t`` from T(1)'s direct use."""
    g_l2 = g_rho / denom
    # The floor passes no gradient to a band whose T(1) is at or below EPS_T.
    return g_l2, g_t - (g_l2 * rho_hat).sum(axis=0) * (t1 > EPS_T)


def _slope_vjp(g_rho, g_slope):
    """Add the cotangent of rho_hat[:, 1:] - rho_hat[:, :-1] into ``g_rho``."""
    g_rho[:, 1:] += g_slope
    g_rho[:, :-1] -= g_slope
    return g_rho


def _supervised_head(l2, t1, rho, fd_weight):
    """(loss, components, vjp): L_MSE + fd_weight * L_FD of rho_hat against ``rho``."""
    rho_hat, denom = _reflectance(l2, t1)
    err = rho_hat - rho
    diff_err = (rho_hat[:, 1:] - rho_hat[:, :-1]) - (rho[:, 1:] - rho[:, :-1])
    l_mse = (err * err).mean()
    l_fd = (diff_err * diff_err).mean()

    def vjp():
        g_rho = _slope_vjp(err * (2.0 / err.size), diff_err * (2.0 * fd_weight / diff_err.size))
        return _reflectance_vjp(g_rho, rho_hat, denom, t1, 0.0)

    return float(l_mse + fd_weight * l_fd), {"mse": float(l_mse), "fd": float(l_fd)}, vjp


def _unsupervised_head(l2, t1, rho_weight, transmission_weight, slope_weight):
    """(loss, components, vjp): l1 * mean(rho_hat) + l2 * mean(T(1)) + l3 * mean(|d rho_hat|)."""
    rho_hat, denom = _reflectance(l2, t1)
    slope = rho_hat[:, 1:] - rho_hat[:, :-1]
    l_rho, l_t, l_fd = rho_hat.mean(), t1.mean(), np.abs(slope).mean()
    loss = rho_weight * l_rho + transmission_weight * l_t + slope_weight * l_fd

    def vjp():
        g_rho = np.full(rho_hat.shape, rho_weight / rho_hat.size)
        _slope_vjp(g_rho, np.sign(slope) * (slope_weight / slope.size))
        g_t = np.full(t1.shape, transmission_weight / t1.size)
        return _reflectance_vjp(g_rho, rho_hat, denom, t1, g_t)

    components = {"rho": float(l_rho), "transmission": float(l_t), "fd": float(l_fd)}
    return float(loss), components, vjp


def _head(config: TrainConfig, l2, t1, rho):
    if config.mode == "supervised":
        return _supervised_head(l2, t1, rho, config.fd_weight)
    return _unsupervised_head(l2, t1, config.rho_weight, config.transmission_weight, config.slope_weight)


def loss(config: TrainConfig, model: Profile, z: np.ndarray, rho: Optional[np.ndarray] = None) -> float:
    """The loss of ``config``'s mode and weights over normalized radiance ``z``: ``_loss_terms``'s forward half.

    ``z`` and the truth ``rho`` are (n, bands) arrays; supervised mode needs ``rho``.
    """
    if len(z) == 0:
        raise EmptyInputError("loss needs at least one pixel")
    if config.mode == "supervised" and rho is None:
        raise InvalidDatasetError("supervised loss needs truth reflectance")
    t1, l2 = model.t1_and_inverse(z)
    return _head(config, l2, t1, rho)[0]


def _loss_terms(config: TrainConfig, model: Profile, z, rho):
    """(loss, components, gradient in ``model.params``) of ``config``'s mode over normalized radiance ``z``.

    T(1) and T^-1(z) forward, the head, then the head's cotangents pulled back
    through the profile. A non-finite loss raises NumericError before the pullback.
    """
    t1, l2, pullback = model.inverse_vjp(z)
    loss, components, vjp = _head(config, l2, t1, rho)
    if not np.isfinite(loss):
        raise NumericError("non-finite training loss")
    g_l2, g_t1 = vjp()
    return loss, components, pullback(g_t1, g_l2)


def train(
    config: TrainConfig,
    l4: np.ndarray,
    norm: SceneNormalization,
    rho: Optional[np.ndarray] = None,
    split_seed: Optional[int] = None,
) -> TrainRun:
    """Full-batch Adam with early stopping; returns the model that its least monitored loss was measured on.

    An epoch records ``epoch``, ``train_loss`` (of the model before its Adam
    step) and the loss components, and ``val_loss`` (of the stepped model)
    where the split has validation rows. ``val_loss`` is monitored where it
    exists, ``train_loss`` otherwise. The model of the least monitored loss is
    kept, however small its lead. Patience counts apart: a monitored loss below
    the best so far by more than ``config.rel_tol`` (relative) is an
    improvement, and ``config.patience`` epochs without one stop the run as
    converged.

    ``l4`` holds (n, bands) radiance; supervised training needs the paired ``rho``.
    The split is ``split_dataset(len(l4), config.fractions, split_seed)``, and
    ``split_seed`` defaults to ``config.seed``. The run's ``roi_reflectance``
    is the kept model's mean corrected reflectance over all of ``l4``; its
    correction is not part of ``wall_time``.
    """
    started = time.perf_counter()
    if np.size(l4) == 0:
        raise InvalidDatasetError("training needs at least one pixel sample")
    l4, rho = _pixel_arrays(l4, rho)
    if config.mode == "supervised" and rho is None:
        raise InvalidDatasetError("supervised training needs truth reflectance")
    split = split_dataset(len(l4), config.fractions, config.seed if split_seed is None else split_seed)
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

    model = build_model(config, l4.shape[1])
    adam = AdamState(lr=config.lr)

    best, least, kept, stale = np.inf, np.inf, model, 0
    converged = False
    history: list[dict] = []

    for epoch in range(config.max_epochs):
        # train_loss belongs to the model before the step, val_loss to the stepped one.
        monitored = model
        try:
            train_loss, components, grad = _loss_terms(config, model, *train_data)
            model = model.with_params(adam_step(adam, model.params, grad))
            record = {"epoch": epoch, "train_loss": train_loss, **components}
            if len(val_idx):
                record["val_loss"] = loss(config, model, *val_data)
                monitored = model
        except NumericError as e:
            raise NumericError(f"epoch {epoch}: {e}") from e
        history.append(record)

        monitor = record.get("val_loss", train_loss)
        if monitor < least:
            least, kept = monitor, monitored
        if monitor < best * (1.0 - config.rel_tol):
            best, stale = monitor, 0
        else:
            stale += 1
            if stale >= config.patience:
                converged = True
                break

    wall_time = time.perf_counter() - started
    return TrainRun(
        config=config,
        split=split,
        history=history,
        model=kept,
        converged=converged,
        wall_time=wall_time,
        roi_reflectance=correct_batch(kept, norm, l4)[0].mean(axis=0),
    )


def ensemble(
    config: TrainConfig,
    l4: np.ndarray,
    norm: SceneNormalization,
    n_runs: int,
    rho: Optional[np.ndarray] = None,
    reshuffle: bool = True,
) -> list[TrainRun | DinsatError]:
    """Independent seeded runs, one after another: each member's run, or the DinsatError it raised, in order.

    Member i trains with seed ``config.seed + i``. When every member fails,
    the first member's error category is raised with every member's reason.
    """
    if n_runs < 1:
        raise ConfigError("ensemble needs at least one run")
    l4, rho = _pixel_arrays(l4, rho)

    members: list[TrainRun | DinsatError] = []
    for i in range(n_runs):
        member = replace(config, seed=config.seed + i)
        # With reshuffle off, every member shares the base seed's split.
        split_seed = member.seed if reshuffle else config.seed
        try:
            members.append(train(member, l4, norm, rho, split_seed=split_seed))
        except DinsatError as e:
            members.append(e)

    if all(isinstance(m, DinsatError) for m in members):
        reasons = "; ".join(f"run {i}: {e}" for i, e in enumerate(members))
        raise type(members[0])(f"all ensemble members failed: {reasons}")
    return members


def evaluate_regions(
    model: Profile,
    norm: SceneNormalization,
    regions: list[tuple[np.ndarray, Optional[np.ndarray]]],
    library_radiance: Optional[np.ndarray] = None,
) -> list[dict]:
    """Percent-MSE metrics in both directions for each (l4, rho) pair of ``regions``, in order.

    ``l4`` is a region's (n, bands) pixels and ``rho`` their truth
    reflectance, or None; ``library_radiance`` is the (n_bands,) at-sensor
    radiance that ``simulate_values(model, norm, library)`` gives for a
    reference reflectance. A missing input omits its metric, with a warning.
    Every region's pixels are corrected in one ``correct_batch``.
    """
    metrics = [{"warnings": []} for _ in regions]
    checked = []
    for region_metrics, (l4, rho) in zip(metrics, regions):
        if np.size(l4) == 0:
            region_metrics["warnings"].append("no samples provided; no metrics computed")
        else:
            checked.append((region_metrics, *_pixel_arrays(l4, rho)))
    if not checked:
        return metrics
    rho_hat, _ = correct_batch(model, norm, np.concatenate([l4 for _, l4, _ in checked]))
    ends = np.cumsum([len(l4) for _, l4, _ in checked])[:-1]
    for (region_metrics, l4, rho), estimate in zip(checked, np.split(rho_hat, ends)):
        if rho is not None:
            region_metrics["reflectance_percent_mse"] = percent_mse(estimate.mean(axis=0), rho.mean(axis=0))
        else:
            region_metrics["warnings"].append("samples lack truth reflectance; reflectance metric omitted")
        if library_radiance is not None:
            observed = l4.mean(axis=0)
            # Both sides normalized by m before comparing, keeping the metric
            # dimensionless regardless of the scene's radiometric scale.
            region_metrics["radiance_percent_mse"] = percent_mse(library_radiance / norm.m, observed / norm.m)
        else:
            region_metrics["warnings"].append("no library spectrum; radiance metric omitted")
    return metrics
