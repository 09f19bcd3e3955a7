"""Acceptance suite: nine criteria, one test (and one pytest -v line) each.

Criterion 1 is asserted faithfully at its stated tolerance for every rate,
including the alpha=5 case, where a 16-step fourth-order method cannot reach
1e-6 relative error (the leading truncation term alone is ~5e-4). That case
is expected to fail and is left failing rather than weakened.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq

from dinsat.correction import (
    SceneNormalization,
    normalized_radiance,
    correct_batch,
    estimate_normalization,
    simulate_values,
)
from dinsat.envi import write_envi
from dinsat.artifacts import read_model, write_model
from dinsat.ode import SolverConfig, ode_solve
from dinsat.synth import SynthSpec, synth_scene
from dinsat.training import (
    SUPERVISED_FRACTIONS,
    UNSUPERVISED_FRACTIONS,
    TrainConfig,
    TrainRun,
    _loss_terms,
    ensemble,
    loss,
    train,
)
from dinsat.transmission import (
    LinearProfile,
    NonlinearProfile,
    softplus_inverse,
)
from dinsat.types import (
    HyperCube,
    WavelengthGrid,
    percent_mse,
    split_dataset,
)

from oracles import linear_alpha, linear_profile, linear_rate, read_cube, sample_pixels

RK4_16 = SolverConfig("rk4", 16)


# -- criterion 1: analytic solver accuracy ------------------------------------

@pytest.mark.parametrize("alpha", [0.1, 1.0, 5.0])
def test_criterion_1_rk4_matches_exponential(alpha):
    started = time.perf_counter()
    out = ode_solve(linear_rate(alpha), np.array([1.0]), RK4_16)
    rel = abs(out[0] - np.exp(-alpha)) / np.exp(-alpha)
    assert time.perf_counter() - started < 1.0
    assert rel < 1e-6, f"alpha={alpha}: rel error {rel:.3e} >= 1e-6"


def test_criterion_1_convergence_orders():
    def error(method, steps):
        out = ode_solve(linear_rate(1.0), np.array([1.0]), SolverConfig(method, steps))
        return abs(out[0] - np.exp(-1.0))

    euler_ratio = error("euler", 32) / error("euler", 64)
    rk4_ratio = error("rk4", 8) / error("rk4", 16)
    assert abs(euler_ratio - 2.0) <= 0.4
    assert abs(rk4_ratio - 16.0) <= 0.3 * 16.0


# -- criterion 2: invertibility -----------------------------------------------

def test_criterion_2_invertibility():
    started = time.perf_counter()
    rng = np.random.default_rng(20)

    model = linear_profile(rng.uniform(0.0, 5.0, 126))
    L = rng.uniform(0.0, 1.0, 126)
    back = model.inverse(model.forward(L))
    assert np.max(np.abs(back - L)) < 1e-9

    worst = 0.0
    for _ in range(100):
        model = NonlinearProfile.initialize(126, rng)
        L = rng.uniform(0.0, 1.0, 126)
        back = model.inverse(model.forward(L))
        worst = max(worst, float(np.max(np.abs(back - L))))
    assert worst < 1e-4
    assert time.perf_counter() - started < 10.0


# -- criterion 3: dissipativity -----------------------------------------------

def test_criterion_3_dissipativity():
    started = time.perf_counter()
    rng = np.random.default_rng(30)
    for _ in range(1000):
        L = rng.uniform(0.0, 2.0, 126)
        for model in (
            linear_profile(rng.uniform(0.0, 5.0, 126)),
            NonlinearProfile.initialize(126, rng),
        ):
            out = model.forward(L)
            assert np.all(out >= -1e-12)
            assert np.all(out <= L + 1e-12)
    assert time.perf_counter() - started < 10.0


# -- criterion 4: gradient correctness ----------------------------------------

def test_criterion_4_loss_gradients_match_finite_differences():
    # The backpropagated gradient is compared against central finite
    # differences along random directions: g . v versus (f(p+hv)-f(p-hv))/2h.
    # Full per-coordinate FD over the ~200 nonlinear parameters is equivalent
    # but far exceeds the runtime budget; the module tests cover it once.
    started = time.perf_counter()
    rng = np.random.default_rng(40)
    cfg = SolverConfig("rk4", 8)
    n = 4
    h = 1e-5
    for trial in range(20):
        norm = SceneNormalization(rng.uniform(0, 0.05, n), rng.uniform(0.8, 1.5))
        pairs = [(norm.c + rng.uniform(0.1, 1.0, n), rng.uniform(0, 1, n)) for _ in range(2)]
        l4 = np.stack([p[0] for p in pairs])
        rho = np.stack([p[1] for p in pairs])
        kind = "linear" if trial % 2 == 0 else "nonlinear"
        if kind == "linear":
            model = LinearProfile.initialize(n, rng)
        else:
            model = NonlinearProfile.initialize(n, rng)
        model = replace(model, solver=cfg)
        z = normalized_radiance(norm, l4)
        for mode in ("supervised", "unsupervised"):
            config = TrainConfig(mode=mode, fd_weight=1.0, solver=cfg)

            def loss_fn(params):
                return loss(config, model.with_params(params), z, rho)

            p0 = model.params.copy()
            _, _, grad = _loss_terms(config, model, z, rho)
            for _ in range(5):
                v = rng.standard_normal(p0.size)
                v /= np.linalg.norm(v)
                fd = (loss_fn(p0 + h * v) - loss_fn(p0 - h * v)) / (2.0 * h)
                rel = abs(float(grad @ v) - fd) / max(abs(fd), 1e-7)
                assert rel < 1e-3, f"trial {trial} {kind}/{mode}: rel error {rel:.2e}"
    assert time.perf_counter() - started < 30.0


# -- criteria 5/6 share one synthetic scene -----------------------------------

SCENE_SPEC = SynthSpec(rows=64, cols=64, n_bands=126, noise_std=0.05)


@pytest.fixture(scope="module")
def scene():
    return synth_scene(SCENE_SPEC, seed=50)


def test_criterion_5_supervised_synthetic_recovery(scene):
    cube, truth = scene
    _, l4, rho = sample_pixels(cube, truth, 145, seed=5)
    split = split_dataset(145, SUPERVISED_FRACTIONS, seed=5)
    assert (len(split.train), len(split.val), len(split.test)) == (35, 9, 101)

    config = TrainConfig(mode="supervised", model_kind="linear", seed=1, solver=RK4_16)
    run = train(config, l4, truth.norm, rho, split_seed=5)
    assert run.split == split
    model = run.model

    # (a) held-out reflectance percent MSE < 1.0
    held_out = list(split.test)
    rho_hat, _ = correct_batch(model, truth.norm, l4[held_out])
    truth_rho = rho[held_out]
    refl_pmse = float(
        np.mean([percent_mse(rho_hat[i], truth_rho[i]) for i in range(len(held_out))])
    )
    assert refl_pmse < 1.0, f"reflectance percent MSE {refl_pmse:.3f}"

    # (b) recovered alpha within 10% where the true transmittance exceeds 0.05
    visible = np.exp(-truth.alpha) > 0.05
    rel = np.abs(linear_alpha(model) - truth.alpha) / truth.alpha
    assert np.max(rel[visible]) < 0.10, f"max alpha rel error {np.max(rel[visible]):.3f}"

    # (c) simulated radiance percent MSE < 1.0 against noise-free truth
    clean = truth.norm.c + truth.norm.m * np.exp(-2.0 * truth.alpha) * truth_rho
    sim_pmse = []
    for i in range(len(held_out)):
        sim = simulate_values(model, truth.norm, truth_rho[i])
        sim_pmse.append(percent_mse(sim / truth.norm.m, clean[i] / truth.norm.m))
    sim_pmse = float(np.mean(sim_pmse))
    assert sim_pmse < 1.0, f"radiance percent MSE {sim_pmse:.3f}"


def _local_minima_deepest(t, k):
    # Separate minima by 5 bands so one wide absorption feature with noisy
    # band-to-band wiggle counts once, not twice.
    from scipy.signal import find_peaks

    idx, _ = find_peaks(-np.asarray(t), distance=5)
    return sorted(sorted(idx, key=lambda i: t[i])[:k])


def test_criterion_6_unsupervised_synthetic_recovery(scene):
    started = time.perf_counter()
    cube, truth = scene
    _, l4, rho = sample_pixels(cube, truth, 112, seed=6)
    # Normalization comes from the full scene, as whole-cube correction does.
    norm = estimate_normalization(cube.data)

    config = TrainConfig(
        mode="unsupervised",
        model_kind="linear",
        seed=2,
        lr=0.05,
        solver=RK4_16,
        max_epochs=1200,
        split_fractions=UNSUPERVISED_FRACTIONS,
    )
    runs = [r for r in ensemble(config, l4, norm, n_runs=5, rho=rho, reshuffle=True) if isinstance(r, TrainRun)]
    assert len(runs) == 5

    # 3 deepest local transmittance minima within +-2 bands of the true centers
    wl = truth.grid.wavelengths_nm
    centers = [
        int(np.argmin(np.abs(wl - c))) for c, _w, _d in SCENE_SPEC.absorption_bands
    ]
    minima = _local_minima_deepest(np.mean([run.model.t1 for run in runs], axis=0), 3)
    assert len(minima) == 3, f"found minima at bands {minima}"
    unmatched = []
    remaining = list(minima)
    for center in sorted(centers):
        hits = [i for i in remaining if abs(i - center) <= 2]
        if hits:
            remaining.remove(hits[0])
        else:
            unmatched.append(center)
    assert not unmatched, f"minima {minima} vs centers {centers}"

    # held-out reflectance percent MSE < 20 per member, on each member's split
    errors = []
    for run in runs:
        model = run.model
        held_out = list(run.split.test)
        rho_hat, _ = correct_batch(model, norm, l4[held_out])
        truth_rho = rho[held_out]
        errors.append(
            float(np.mean([percent_mse(rho_hat[i], truth_rho[i]) for i in range(len(held_out))]))
        )
    assert max(errors) < 20.0, f"held-out percent MSE per member: {errors}"
    assert time.perf_counter() - started < 600.0


# -- criterion 7: end-to-end round trip ---------------------------------------

def test_criterion_7_end_to_end_round_trip():
    rng = np.random.default_rng(70)
    model = linear_profile(rng.uniform(0.05, 2.5, 126))
    norm = SceneNormalization(rng.uniform(0, 0.1, 126), 1.4)
    worst = 0.0
    for _ in range(100):
        rho = rng.uniform(0.0, 1.0, 126)
        l4 = simulate_values(model, norm, rho)
        back, _ = correct_batch(model, norm, l4)
        worst = max(worst, float(np.max(np.abs(back - rho))))
    assert worst < 1e-6, f"round-trip error {worst:.2e}"


# -- criterion 8: determinism and persistence ---------------------------------

def test_criterion_8_determinism_and_persistence(tmp_path):
    spec = SynthSpec(rows=10, cols=10, n_bands=12, noise_std=0.0)
    cube, truth = synth_scene(spec, seed=8)
    _, l4, rho = sample_pixels(cube, truth, 20, seed=8)
    config = TrainConfig(max_epochs=40, solver=SolverConfig("rk4", 8), seed=3)

    payloads = []
    for name in ("a", "b"):
        run = train(config, l4, truth.norm, rho)
        path = tmp_path / f"model_{name}.json"
        write_model(path, run.model, truth.grid)
        payloads.append(path.read_bytes())
    assert payloads[0] == payloads[1]

    model, solver, grid = read_model(tmp_path / "model_a.json")
    run = train(config, l4, truth.norm, rho)
    np.testing.assert_array_equal(model.params, run.model.params)

    rng = np.random.default_rng(0)
    grid12 = WavelengthGrid.linear(12)
    original = HyperCube(grid12, rng.uniform(0, 2, (4, 5, 12)))
    loaded = {}
    for interleave in ("bsq", "bil", "bip"):
        hdr = tmp_path / f"{interleave}.hdr"
        write_envi(original, hdr, interleave=interleave, data_type=5)
        loaded[interleave] = read_cube(hdr).data
        np.testing.assert_array_equal(loaded[interleave], original.data)


# -- criterion 9: loss unit values --------------------------------------------

def test_criterion_9_loss_unit_values():
    # Supervised: one pixel, two bands, rho=[0,1], rho_hat=[1,0], lambda=1:
    # L_MSE = 1, L_FD = 4, total 5. The identity model and identity norm make
    # rho_hat equal to l4 exactly.
    identity = LinearProfile(np.full(2, -40.0), RK4_16)
    norm = SceneNormalization.identity(2)
    l4 = np.array([[1.0, 0.0]])
    rho = np.array([[0.0, 1.0]])
    sup = loss(TrainConfig(), identity, normalized_radiance(norm, l4), rho)
    assert abs(sup - 5.0) < 1e-12, f"supervised loss {sup!r}"

    # Unsupervised: rho_hat = 0.5 flat, T(1) = 0.7, default weights:
    # 0.01*0.5 + 0.01*0.7 + 0 = 0.012. The rate is solved so the *discrete*
    # transmittance equals 0.7 exactly.
    def gap(a):
        return ode_solve(linear_rate(a), np.array([1.0]), RK4_16)[0] - 0.7

    alpha = brentq(gap, 1e-6, 10.0, xtol=1e-15, rtol=8.9e-16)
    model = LinearProfile(softplus_inverse(np.full(2, alpha)), RK4_16)
    f = model.t1
    unsup_l4 = (0.5 * f * f)[None, :]
    unsup = loss(TrainConfig(mode="unsupervised"), model, normalized_radiance(norm, unsup_l4))
    assert abs(unsup - 0.012) < 1e-12, f"unsupervised loss {unsup!r}"
