"""Command-line surface: synth | train | correct | simulate | eval | report.

Exit codes: 0 success, 2 configuration errors, 3 data/file errors,
4 numeric failures. Errors print one machine-parsable line to stderr:
"<category>: <detail>".
"""

from __future__ import annotations

import functools
import sys
from pathlib import Path

import click
import numpy as np

from . import artifacts, envi
from . import autodiff as ad
from .correction import SceneNormalization, correct_batch, estimate_normalization, simulate_at_sensor
from .transmission import transmittance_values
from .errors import ConfigError, DinsatError, InvalidDatasetError
from .ode import SolverConfig
from .synth import SynthSpec, sample_pixels, synth_scene
from .training import TrainConfig, default_workers, ensemble, evaluate


def _fail_cleanly(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except DinsatError as e:
            click.echo(f"{e.category}: {e}", err=True)
            sys.exit(e.exit_code)

    return wrapper


@click.group()
def main():
    """Tunable invertible atmospheric-transmission surrogate toolkit."""


# -- helpers -----------------------------------------------------------------

def _parse_absorption(raw: str):
    bands = []
    for part in raw.split(";"):
        part = part.strip()
        if not part:
            continue
        pieces = part.split(":")
        if len(pieces) != 3:
            raise ConfigError(
                f"absorption entry {part!r} must be center_nm:width_nm:depth"
            )
        bands.append(tuple(float(p) for p in pieces))
    return tuple(bands)


def _synth_spec_from_file(path: str) -> SynthSpec:
    kv = artifacts.read_kv_config(path)
    kwargs = {}
    int_keys = {"rows": "rows", "cols": "cols", "bands": "n_bands", "materials": "n_materials"}
    float_keys = {
        "wl_start_nm": "wl_start_nm",
        "wl_end_nm": "wl_end_nm",
        "baseline_alpha": "baseline_alpha",
        "dark_level": "dark_level",
        "illumination": "illumination",
        "noise_std": "noise_std",
    }
    for key, value in kv.items():
        if key in int_keys:
            kwargs[int_keys[key]] = int(value)
        elif key in float_keys:
            kwargs[float_keys[key]] = float(value)
        elif key == "absorption":
            kwargs["absorption_bands"] = _parse_absorption(value)
        else:
            raise ConfigError(f"unknown synth spec key: {key!r}")
    try:
        return SynthSpec(**kwargs)
    except TypeError as e:
        raise ConfigError(str(e)) from e


_TRAIN_INT_KEYS = ("max_epochs", "patience", "seed", "hidden", "latent")
_TRAIN_FLOAT_KEYS = (
    "lr",
    "fd_weight",
    "rho_weight",
    "transmission_weight",
    "slope_weight",
    "rel_tol",
)


def _train_config_from_file(path: str | None, **overrides) -> tuple[TrainConfig, float]:
    """Returns (config, pixel_fraction) parsed from a flat key = value file."""
    kwargs: dict = {}
    solver_kwargs: dict = {}
    pixel_fraction = 0.0005
    if path:
        for key, value in artifacts.read_kv_config(path).items():
            if key in _TRAIN_INT_KEYS:
                kwargs[key] = int(value)
            elif key in _TRAIN_FLOAT_KEYS:
                kwargs[key] = float(value)
            elif key in ("mode", "model_kind"):
                kwargs[key] = value
            elif key == "solver_method":
                solver_kwargs["method"] = value
            elif key == "solver_steps":
                solver_kwargs["steps"] = int(value)
            elif key == "split_fractions":
                kwargs["split_fractions"] = tuple(float(v) for v in value.split("/"))
            elif key == "pixel_fraction":
                pixel_fraction = float(value)
            else:
                raise ConfigError(f"unknown training config key: {key!r}")
    kwargs.update({k: v for k, v in overrides.items() if v is not None})
    if solver_kwargs:
        kwargs["solver"] = SolverConfig(**solver_kwargs)
    config = TrainConfig(**kwargs)
    return config, pixel_fraction


def _open_cubes(cube_paths) -> list[envi.EnviCube]:
    cubes = [envi.open_envi(p) for p in cube_paths]
    n_bands = cubes[0].n_bands
    if any(c.n_bands != n_bands for c in cubes):
        raise InvalidDatasetError("cubes have differing band counts")
    return cubes


def _reference_rows(cube: envi.EnviCube, roi: artifacts.RoiFile, name: str) -> np.ndarray | None:
    """The region's reference reflectance, one row per region pixel; None without one."""
    if name not in roi.references:
        return None
    _, truth = artifacts.read_spectrum_csv(roi.references[name], "reflectance")
    if truth.n_bands != cube.n_bands:
        raise InvalidDatasetError(
            f"reference spectrum for region {name!r} has {truth.n_bands} "
            f"bands, cube has {cube.n_bands}"
        )
    return np.tile(truth.values, (len(roi.regions[name]), 1))


def _roi_samples(cube: envi.EnviCube, roi: artifacts.RoiFile) -> tuple[np.ndarray, np.ndarray]:
    """(l4, rho): the (n, bands) radiance and reference of the ROI pixels whose region has one."""
    l4, rho = [np.empty((0, cube.n_bands))], [np.empty((0, cube.n_bands))]
    for name, coords in roi.regions.items():
        truth = _reference_rows(cube, roi, name)
        if truth is not None:
            l4.append(cube.pixels(coords))
            rho.append(truth)
    return np.concatenate(l4), np.concatenate(rho)


# -- synth -------------------------------------------------------------------

@main.command()
@click.option("--spec", "spec_path", type=click.Path(exists=True, dir_okay=False), help="key = value synth spec file")
@click.option("--seed", default=0, show_default=True)
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
@_fail_cleanly
def synth(spec_path, seed, out_dir):
    """Generate a synthetic radiance cube plus a truth sidecar CSV.

    Spec keys: rows, cols, bands, wl_start_nm, wl_end_nm, baseline_alpha,
    absorption (center:width:depth;...), materials, dark_level, illumination,
    noise_std. Outputs: scene.hdr/.img (ENVI, float64 BSQ) and truth.csv with
    columns wavelength_nm, alpha_true, c, m, rho_<row>_<col>...
    """
    spec = _synth_spec_from_file(spec_path) if spec_path else SynthSpec()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cube, truth = synth_scene(spec, seed)
    envi.write_envi(cube, out / "scene.hdr", out / "scene.img", data_type=5)
    rng = np.random.default_rng(seed)
    picks = {(0, 0), (0, min(1, spec.cols - 1))}
    while len(picks) < min(6, spec.rows * spec.cols):
        picks.add((int(rng.integers(spec.rows)), int(rng.integers(spec.cols))))
    sampled = {(r, c): truth.rho[r, c] for r, c in sorted(picks)}
    artifacts.write_truth_sidecar(out / "truth.csv", truth.grid, truth.alpha, truth.norm, sampled)
    click.echo(f"wrote {out / 'scene.hdr'} and {out / 'truth.csv'}")


# -- train -------------------------------------------------------------------

@main.command()
@click.option("--cube", "cube_paths", multiple=True, required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--mode", type=click.Choice(["supervised", "unsupervised"]), default=None)
@click.option("--roi", "roi_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--ensemble", "n_runs", default=1, show_default=True)
@click.option("--reshuffle/--no-reshuffle", default=True, show_default=True, help="redraw data splits per ensemble member")
@click.option("--seed", default=None, type=int)
@click.option("--threads", default=None, type=int, help="parallel ensemble members (default: DINSAT_THREADS or 1)")
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
@_fail_cleanly
def train(cube_paths, mode, roi_path, config_path, n_runs, reshuffle, seed, threads, out_dir):
    """Train transmission models; writes norm.json, model_NNN.json, run_NNN.json."""
    config, pixel_fraction = _train_config_from_file(config_path, mode=mode, seed=seed)
    cubes = _open_cubes(cube_paths)
    cube = cubes[0]
    # Each cube's per-band minima and maxima give the same (C, m) as all its pixels.
    norm = estimate_normalization(np.concatenate([c.band_extrema() for c in cubes]))

    if config.mode == "supervised":
        if not roi_path:
            raise ConfigError("supervised training requires --roi with reference spectra")
        parts = [_roi_samples(c, artifacts.read_roi(roi_path, c.rows, c.cols)) for c in cubes]
        l4, rho = (np.concatenate(arrays) for arrays in zip(*parts))
        if not len(l4):
            raise InvalidDatasetError("no ROI pixels carry reference spectra")
    else:
        total = sum(c.rows * c.cols for c in cubes)
        n_pixels = max(3, round(pixel_fraction * total))
        l4 = np.concatenate([
            sample_pixels(c, None, max(1, round(n_pixels * c.rows * c.cols / total)), config.seed)[1]
            for c in cubes
        ])
        rho = None

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    artifacts.write_normalization(out / "norm.json", norm)

    result = ensemble(config, l4, norm, n_runs, rho=rho, reshuffle=reshuffle, workers=threads)
    for i, run in enumerate(result.runs):
        if run is None:
            continue
        model = run.model(cube.n_bands)
        artifacts.write_model(out / f"model_{i:03d}.json", model, config.solver, cube.grid)
        t1 = ad.value_of(transmittance_values(model, model.params, config.solver))
        rho_hat, _ = correct_batch(model, norm, l4, config.solver, transmittance=t1)
        artifacts.write_run_record(
            out / f"run_{i:03d}.json", run, transmittance=t1, roi_reflectance=rho_hat.mean(axis=0)
        )
    for i, message in result.failures:
        click.echo(f"run {i} failed: {message}", err=True)
    click.echo(
        f"trained {len(result.completed)}/{n_runs} model(s) -> {out} "
        f"({'converged' if all(r.converged for r in result.completed) else 'epoch limit reached'})"
    )


# -- correct -----------------------------------------------------------------

@main.command()
@click.option("--cube", "cube_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--model", "model_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--norm", "norm_path", type=click.Path(exists=True, dir_okay=False), help="norm.json; default: estimated from the cube")
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
@_fail_cleanly
def correct(cube_path, model_path, norm_path, out_dir):
    """Whole-cube atmospheric correction.

    Writes corrected.hdr/.img (float32 BSQ reflectance, input wavelengths
    propagated) and quality_mask.hdr/.img (uint16; bit 1 = transmittance
    floored, bit 2 = reflectance outside [0, 1]).
    """
    cube = envi.open_envi(cube_path)
    model, solver, _ = artifacts.read_model(model_path)
    if model.n_bands != cube.n_bands:
        raise InvalidDatasetError(
            f"model has {model.n_bands} bands, cube has {cube.n_bands}"
        )
    if norm_path:
        norm = artifacts.read_normalization(norm_path)
    else:
        norm = estimate_normalization(cube.band_extrema())

    t1 = ad.value_of(transmittance_values(model, model.params, solver))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    shape, wl = (cube.rows, cube.cols, cube.n_bands), cube.grid.wavelengths_nm
    # The cube streams through in row blocks; a failure deletes both images.
    with envi.EnviWriter(
        out / "corrected.hdr", shape, out / "corrected.img", wavelengths_nm=wl,
        data_type=4, description="dinsat corrected reflectance",
    ) as rho_out, envi.EnviWriter(
        out / "quality_mask.hdr", shape, out / "quality_mask.img", wavelengths_nm=wl,
        data_type=12, description="dinsat quality mask",
    ) as mask_out:
        for r0, block in cube.blocks():
            rho = np.empty(block.shape, dtype=np.float32)
            mask = np.empty(block.shape, dtype=np.uint16)
            for i, row in enumerate(block):  # one image row per batch bounds the working set
                rho[i], mask[i] = correct_batch(model, norm, row, solver, transmittance=t1)
            rho_out.write_rows(r0, rho)
            mask_out.write_rows(r0, mask)
    click.echo(f"wrote {out / 'corrected.hdr'} and {out / 'quality_mask.hdr'}")


# -- simulate ----------------------------------------------------------------

@main.command()
@click.option("--spectrum", "spectrum_path", required=True, type=click.Path(exists=True, dir_okay=False), help="two-column reflectance CSV")
@click.option("--model", "model_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--norm", "norm_path", type=click.Path(exists=True, dir_okay=False), help="norm.json; default: c=0, m=1")
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@_fail_cleanly
def simulate(spectrum_path, model_path, norm_path, out_path):
    """Predict at-sensor radiance from a library reflectance spectrum (CSV out)."""
    grid, rho = artifacts.read_spectrum_csv(spectrum_path, "reflectance")
    model, solver, model_grid = artifacts.read_model(model_path)
    if model.n_bands != rho.n_bands:
        raise InvalidDatasetError(
            f"model has {model.n_bands} bands, spectrum has {rho.n_bands}"
        )
    norm = (
        artifacts.read_normalization(norm_path)
        if norm_path
        else SceneNormalization.identity(model.n_bands)
    )
    l4 = simulate_at_sensor(model, norm, rho, solver)
    artifacts.write_spectrum_csv(out_path, grid, l4)
    click.echo(f"wrote {out_path}")


# -- eval --------------------------------------------------------------------

@main.command(name="eval")
@click.option("--model", "model_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--cube", "cube_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--roi", "roi_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--library", "library_path", type=click.Path(exists=True, dir_okay=False), help="reference reflectance CSV for the radiance-direction metric")
@click.option("--norm", "norm_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@_fail_cleanly
def eval_cmd(model_path, cube_path, roi_path, library_path, norm_path, out_path):
    """Percent-MSE metrics per ROI region; CSV columns: region,metric,value."""
    cube = envi.open_envi(cube_path)
    model, solver, _ = artifacts.read_model(model_path)
    norm = (
        artifacts.read_normalization(norm_path)
        if norm_path
        else estimate_normalization(cube.band_extrema())
    )
    roi = artifacts.read_roi(roi_path, cube.rows, cube.cols)
    library = None
    if library_path:
        _, library = artifacts.read_spectrum_csv(library_path, "reflectance")

    lines = ["region,metric,value"]
    for name, coords in roi.regions.items():
        rho = _reference_rows(cube, roi, name)
        metrics = evaluate(model, norm, cube.pixels(coords), solver, rho=rho, library=library)
        for key in ("reflectance_percent_mse", "radiance_percent_mse"):
            if key in metrics:
                lines.append(f"{name},{key},{metrics[key]!r}")
        for warning in metrics["warnings"]:
            click.echo(f"{name}: {warning}", err=True)
    Path(out_path).write_text("\n".join(lines) + "\n")
    click.echo(f"wrote {out_path}")


# -- report ------------------------------------------------------------------

@main.command()
@click.option("--runs", "runs_dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
@_fail_cleanly
def report(runs_dir, out_dir):
    """Plot-ready CSVs from a train output directory.

    transmittance_stats.csv: band,wavelength_nm,mean,std
    loss_curves.csv:         run,epoch,train_loss,val_loss
    roi_spectra.csv:         run,band,wavelength_nm,reflectance
    """
    runs_dir = Path(runs_dir)
    record_paths = sorted(runs_dir.glob("run_*.json"))
    if not record_paths:
        raise InvalidDatasetError(f"no run_*.json records in {runs_dir}")
    records = [artifacts.read_run_record(p) for p in record_paths]

    wavelengths = None
    model_paths = sorted(runs_dir.glob("model_*.json"))
    if model_paths:
        _, _, grid = artifacts.read_model(model_paths[0])
        if grid is not None:
            wavelengths = grid.wavelengths_nm

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    t_stack = np.array([rec["transmittance"] for rec in records if rec.get("transmittance")])
    if t_stack.size:
        mean, std = t_stack.mean(axis=0), t_stack.std(axis=0)
        lines = ["band,wavelength_nm,mean,std"]
        for b in range(t_stack.shape[1]):
            wl = float(wavelengths[b]) if wavelengths is not None else float("nan")
            lines.append(f"{b},{wl!r},{float(mean[b])!r},{float(std[b])!r}")
        (out / "transmittance_stats.csv").write_text("\n".join(lines) + "\n")

    lines = ["run,epoch,train_loss,val_loss"]
    for i, rec in enumerate(records):
        for entry in rec["history"]:
            val = entry.get("val_loss", "")
            lines.append(f"{i},{entry['epoch']},{entry['train_loss']!r},{val!r}")
    (out / "loss_curves.csv").write_text("\n".join(lines) + "\n")

    lines = ["run,band,wavelength_nm,reflectance"]
    for i, rec in enumerate(records):
        roi_rho = rec.get("roi_reflectance")
        if not roi_rho:
            continue
        for b, value in enumerate(roi_rho):
            wl = float(wavelengths[b]) if wavelengths is not None else float("nan")
            lines.append(f"{i},{b},{wl!r},{float(value)!r}")
    (out / "roi_spectra.csv").write_text("\n".join(lines) + "\n")
    click.echo(f"wrote report CSVs -> {out}")


if __name__ == "__main__":
    main()
